//! The versioned certificate format (`treelocal-cert v2`) — parse,
//! serialize, and the three-layer check.
//!
//! A certificate is self-contained line-oriented text: it carries the
//! instance (edge list + identifier space), the rule, the per-node or
//! per-edge output witnesses, the claimed envelope and round count, and
//! the run transcript (per-segment halt rounds + chained per-round
//! commitments). [`check_certificate`] validates:
//!
//! 1. **solution legality** against the typed rule table
//!    ([`crate::check_solution`]),
//! 2. **round bounds** against the paper's envelopes
//!    ([`crate::check_envelope`]),
//! 3. **transcript consistency** — commitments re-derivable from the
//!    halt records alone, segment rounds equal to the latest halt, and
//!    the claimed total equal to the sum of segments. Round `r`'s
//!    commitment folds the engine's live count and the nodes that halted
//!    in `r`; the checker derives the live count as the participants with
//!    halt round `>= r`, so a matching chain proves the engine ran exactly
//!    the nodes the halt records say, round by round, and halted each in
//!    its recorded round. Both sides bucket the halts by round in one
//!    counting pass, so a segment is checked in O(participants + rounds).
//!
//! The text layer is built for size: a 1M-node certificate is about
//! 92 MB. [`Certificate::parse`] is one forward cursor over the text's
//! bytes: it finds each line end once, matches keywords as bytes, and
//! reads numbers digit by digit straight into the certificate's vectors,
//! with no line table and no per-line allocation. The line-iterator
//! parser it replaced is kept in the tests as `reference_parse`, and pins
//! the accepted language: on every input, golden or mutated, the two
//! return the same certificate or the same error, down to its line and
//! message. [`Certificate::to_text`] writes every line straight into one
//! byte buffer, numbers two digits at a time; the tests keep the
//! `writeln!` emitter it replaced as `reference_text`, its byte oracle.

use crate::commit::{commit_round, COMMITMENT_OFFSET};
use crate::envelope::{check_envelope, Envelope};
use crate::error::CheckError;
use crate::rule::{
    check_solution, check_witness_kind, EdgePalette, MisWitness, Palette, Rule, Solution,
};
use treelocal_graph::{widen_u64, Graph, OrInvariant};

/// The format-version line every certificate must open with.
pub const FORMAT_VERSION: &str = "treelocal-cert v2";

/// One engine run's transcript inside a certificate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Rounds the segment header claims.
    pub rounds: u64,
    /// Participants the segment header claims (redundant with the halt
    /// records — redundancy is tamper evidence).
    pub participants: usize,
    /// `(node, halt_round)`, ascending by node; round 0 = halted at
    /// seeding.
    pub halts: Vec<(usize, u64)>,
    /// One chained commitment per round.
    pub commitments: Vec<u64>,
}

/// A parsed (or programmatically built) certificate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// Free-form instance label (single line).
    pub instance: String,
    /// The rule the solution claims to satisfy.
    pub rule: Rule,
    /// Node count of the instance. The solution must account for it:
    /// see [`check_certificate`] for the limit under edge-indexed rules.
    pub nodes: usize,
    /// LOCAL identifier space of the instance (drives the envelopes).
    pub id_space: u64,
    /// Edge list in edge-index order.
    pub edges: Vec<(usize, usize)>,
    /// Per-node color lists (list-coloring rules only).
    pub lists: Option<Vec<Vec<u64>>>,
    /// The output witnesses.
    pub solution: Solution,
    /// The claimed round envelope.
    pub envelope: Envelope,
    /// Total communication rounds claimed.
    pub rounds: u64,
    /// Per-run transcript segments, in execution order.
    pub segments: Vec<Segment>,
}

impl Certificate {
    /// Serializes to the canonical `treelocal-cert v2` text. The output
    /// is byte-deterministic: equal certificates serialize identically.
    ///
    /// Every line is written straight into one byte buffer; numbers are
    /// formatted two digits at a time, with no per-line formatting
    /// machinery.
    pub fn to_text(&self) -> String {
        let rule = rule_text(&self.rule);
        let mut out = TextBuf::default();
        out.str(FORMAT_VERSION).end_line();
        out.str("instance ").str(&self.instance).end_line();
        out.str("rule ").str(&rule).end_line();
        out.str("nodes ").dec(widen_u64(self.nodes)).end_line();
        out.str("idspace ").dec(self.id_space).end_line();
        out.str("edges ").dec(widen_u64(self.edges.len())).end_line();
        for &(u, v) in &self.edges {
            out.str("e ").dec(widen_u64(u)).space().dec(widen_u64(v)).end_line();
        }
        if let Some(lists) = &self.lists {
            out.str("lists ").dec(widen_u64(lists.len())).end_line();
            for (i, list) in lists.iter().enumerate() {
                out.str("l ").dec(widen_u64(i));
                for &c in list {
                    out.space().dec(c);
                }
                out.end_line();
            }
        }
        out.str("solution ").str(self.solution.kind()).end_line();
        match &self.solution {
            Solution::NodeColors(colors) | Solution::EdgeColors(colors) => {
                for (i, &c) in colors.iter().enumerate() {
                    out.str("s ").dec(widen_u64(i)).space().dec(c).end_line();
                }
            }
            Solution::NodeSet(set) | Solution::EdgeSet(set) => {
                for (i, &b) in set.iter().enumerate() {
                    out.str("s ").dec(widen_u64(i)).str(if b { " 1" } else { " 0" }).end_line();
                }
            }
            Solution::MisWitnesses(witnesses) => {
                for (i, w) in witnesses.iter().enumerate() {
                    out.str("s ").dec(widen_u64(i));
                    match w {
                        MisWitness::Member => out.str(" M"),
                        MisWitness::NonMember { witness } => {
                            out.str(" P ").dec(widen_u64(*witness))
                        }
                    };
                    out.end_line();
                }
            }
        }
        out.str("envelope ").str(self.envelope.id()).end_line();
        out.str("rounds ").dec(self.rounds).end_line();
        out.str("segments ").dec(widen_u64(self.segments.len())).end_line();
        for seg in &self.segments {
            out.str("segment ").dec(seg.rounds).space().dec(widen_u64(seg.participants));
            out.end_line();
            for &(v, r) in &seg.halts {
                out.str("h ").dec(widen_u64(v)).space().dec(r).end_line();
            }
            for (i, &c) in seg.commitments.iter().enumerate() {
                out.str("c ").dec(widen_u64(i) + 1).space().hex16(c).end_line();
            }
        }
        out.str("end").end_line();
        out.finish()
    }

    /// Parses canonical certificate text in one forward byte cursor over
    /// `text.as_bytes()`: each line end is found once, keywords are
    /// matched as bytes, and numbers are read digit by digit straight
    /// into the certificate's vectors. Beyond the parsed certificate
    /// itself, memory stays bounded by the input: no line table, no
    /// per-line allocation, and all count-driven reservations together
    /// capped by the line count.
    ///
    /// Edge, segment and halt lines in the canonical form `to_text` writes
    /// are read straight off the bytes; any other line takes the general
    /// path, which gives it the same meaning. Such lines are most of a
    /// certificate, and the general path alone parses a 92 MB one more
    /// than twice as slowly.
    ///
    /// The accepted language and every error (variant, line and message)
    /// are exactly those of the line-iterator parser this one replaced,
    /// which the tests keep as `reference_parse`: lines split as
    /// [`str::lines`] splits them, tokens at ASCII white space, numbers
    /// as [`std::str::FromStr`] reads them (a `+` sign and leading zeros
    /// included), and Unicode [`str::trim`] applied to header fields, the
    /// solution kind and witness values.
    pub fn parse(text: &str) -> Result<Certificate, CheckError> {
        let mut p = Cursor::new(text);
        let version = p.line("the format-version line")?;
        if version != FORMAT_VERSION {
            return Err(CheckError::VersionMismatch { found: version.to_string() });
        }
        let instance = p.keyword_rest("instance")?.to_string();
        let rule = parse_rule(p.keyword_rest("rule")?, p.pos)?;
        let nodes: usize = p.count("nodes")?;
        let id_space: u64 = p.count("idspace")?;
        let edge_count: usize = p.count("edges")?;
        // Every count is untrusted: reservations come out of one budget of
        // a slot per line, so lying headers cannot force a huge allocation.
        let mut edges = p.reserve(edge_count);
        for _ in 0..edge_count {
            edges.push(p.pair_rest("e", "edge endpoints")?);
        }
        let lists = match p.keyword_line("lists")? {
            Some(rest) => {
                let count: usize =
                    number(trim_end(rest)).ok_or_else(|| p.error("a lists count"))?;
                let mut lists: Vec<Vec<u64>> = p.reserve(count);
                for want in 0..count {
                    let rest = p.keyword_rest("l")?.as_bytes();
                    let mut at = 0;
                    let i: usize = token(rest, &mut at)
                        .and_then(number)
                        .ok_or_else(|| p.error("list node index"))?;
                    if i != want {
                        return Err(p.error(&format!("list for node {want}")));
                    }
                    let mut list = Vec::new();
                    while let Some(t) = token(rest, &mut at) {
                        list.push(number(t).ok_or_else(|| p.error("list color"))?);
                    }
                    lists.push(list);
                }
                Some(lists)
            }
            None => None,
        };
        let kind = p.keyword_rest("solution")?.trim();
        let kind_line = p.pos;
        let mut solution = match kind {
            "node-colors" => Some(Solution::NodeColors(p.reserve(nodes))),
            "edge-colors" => Some(Solution::EdgeColors(p.reserve(nodes))),
            "node-set" => Some(Solution::NodeSet(p.reserve(nodes))),
            "edge-set" => Some(Solution::EdgeSet(p.reserve(nodes))),
            "mis-witness" => Some(Solution::MisWitnesses(p.reserve(nodes))),
            _ => None,
        };
        // Witness lines are read in one pass, and their errors rank as
        // follows: a malformed index or a missing value at once, then a
        // gap or repeat in the indices, then an unknown kind, then the
        // first malformed value.
        let mut entries = 0usize;
        let mut gap: Option<Gap> = None;
        let mut bad_value: Option<CheckError> = None;
        while let Some(rest) = p.keyword_line("s")? {
            let (index, value) = split_witness(rest).map_err(|what| p.error(what))?;
            match &mut gap {
                None if index != entries => {
                    gap = Some(Gap { want: entries, index, repeated: index < entries })
                }
                Some(g) if g.index == index => g.repeated = true,
                _ => {}
            }
            entries += 1;
            if let (None, None, Some(solution)) = (&gap, &bad_value, solution.as_mut()) {
                if let Err(what) = push_witness(solution, value) {
                    bad_value = Some(p.error(what));
                }
            }
        }
        if let Some(Gap { want, index, repeated }) = gap {
            return Err(if repeated {
                CheckError::DuplicateWitness { index }
            } else {
                CheckError::MissingWitness { index: want }
            });
        }
        let solution = solution.ok_or_else(|| CheckError::Format {
            line: kind_line,
            what: format!("a known solution kind, not {kind:?}"),
        })?;
        if let Some(e) = bad_value {
            return Err(e);
        }
        let envelope = match p.keyword_rest("envelope")?.trim() {
            "none" => Envelope::None,
            "linial" => Envelope::Linial,
            "mis-pipeline" => Envelope::MisPipeline,
            other => return Err(p.error(&format!("a known envelope, not {other:?}"))),
        };
        let rounds: u64 = p.count("rounds")?;
        let segment_count: usize = p.count("segments")?;
        let mut segments = p.reserve(segment_count);
        for _ in 0..segment_count {
            let (seg_rounds, participants): (u64, usize) =
                p.pair_rest("segment", "segment header")?;
            let mut halts = p.reserve(participants);
            while let Some(halt) = p.pair_line("h", "halt record")? {
                halts.push(halt);
            }
            let claimed = usize::try_from(seg_rounds).unwrap_or(usize::MAX);
            let mut commitments = p.reserve(claimed);
            while let Some(rest) = p.keyword_line("c")? {
                let rest = rest.as_bytes();
                let mut at = 0;
                let r: usize = token(rest, &mut at)
                    .and_then(number)
                    .ok_or_else(|| p.error("commitment round"))?;
                if r != commitments.len() + 1 {
                    return Err(p.error(&format!("commitment for round {}", commitments.len() + 1)));
                }
                let hex = token(rest, &mut at).ok_or_else(|| p.error("a commitment value"))?;
                commitments.push(radix(hex, 16).ok_or_else(|| p.error("a hex commitment value"))?);
                if token(rest, &mut at).is_some() {
                    return Err(p.error(AFTER_COMMITMENT));
                }
            }
            segments.push(Segment { rounds: seg_rounds, participants, halts, commitments });
        }
        if p.line("the end line")? != "end" {
            return Err(p.error("the end line"));
        }
        while let Some(line) = p.next_line() {
            if !line.trim().is_empty() {
                return Err(p.error("end of file"));
            }
        }
        Ok(Certificate {
            instance,
            rule,
            nodes,
            id_space,
            edges,
            lists,
            solution,
            envelope,
            rounds,
            segments,
        })
    }
}

/// The certificate text under construction: keywords and decimal and
/// hex digits are appended straight to one byte buffer, with no
/// per-line copy.
#[derive(Default)]
struct TextBuf {
    text: Vec<u8>,
}

impl TextBuf {
    fn str(&mut self, s: &str) -> &mut Self {
        self.text.extend_from_slice(s.as_bytes());
        self
    }

    fn space(&mut self) -> &mut Self {
        self.str(" ")
    }

    fn end_line(&mut self) {
        self.str("\n");
    }

    /// `x` in decimal, as `{x}` formats it: two digits at a time, from
    /// the last.
    fn dec(&mut self, mut x: u64) -> &mut Self {
        const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
                                    2021222324252627282930313233343536373839\
                                    4041424344454647484950515253545556575859\
                                    6061626364656667686970717273747576777879\
                                    8081828384858687888990919293949596979899";
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        while x >= 100 {
            let pair = usize::from((x % 100).to_le_bytes()[0]) * 2;
            start -= 2;
            digits[start..start + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
            x /= 100;
        }
        let last = x.to_le_bytes()[0];
        if last >= 10 {
            let pair = usize::from(last) * 2;
            start -= 2;
            digits[start..start + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
        } else {
            start -= 1;
            digits[start] = b'0' + last;
        }
        self.text.extend_from_slice(&digits[start..]);
        self
    }

    /// `x` as 16 lowercase hex digits, as `{x:016x}` formats it.
    fn hex16(&mut self, x: u64) -> &mut Self {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut digits = [0u8; 16];
        for (pair, byte) in digits.chunks_exact_mut(2).zip(x.to_be_bytes()) {
            pair[0] = HEX[usize::from(byte >> 4)];
            pair[1] = HEX[usize::from(byte & 0xf)];
        }
        self.text.extend_from_slice(&digits);
        self
    }

    fn finish(self) -> String {
        String::from_utf8(self.text).or_invariant("certificate text is UTF-8")
    }
}

/// A forward cursor over the text's bytes that hands out one line at a
/// time, split exactly as [`str::lines`] splits them (`\n` or `\r\n`,
/// final newline optional). Line ends sit on ASCII bytes, so every line
/// is a `str` slice of the text.
struct Cursor<'a> {
    text: &'a str,
    /// Byte offset at which the next unread line starts.
    at: usize,
    /// Lines consumed so far == 1-based number of the last consumed line.
    pos: usize,
    /// Slots the count-driven reservations may still take: one per line
    /// of the whole text, counted once up front and shared by all of them.
    budget: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        // Counted per 255-byte chunk, so that each chunk sums in byte lanes.
        let newlines: usize = text
            .as_bytes()
            .chunks(255)
            .map(|chunk| usize::from(chunk.iter().map(|&b| u8::from(b == b'\n')).sum::<u8>()))
            .sum();
        let unterminated = usize::from(!text.is_empty() && !text.ends_with('\n'));
        Cursor { text, at: 0, pos: 0, budget: newlines + unterminated }
    }

    /// The next line without its line ending, and the offset of the line
    /// after it; `None` at the end of the text.
    fn peek(&self) -> Option<(&'a str, usize)> {
        let bytes = self.text.as_bytes();
        let rest = bytes.get(self.at..).filter(|rest| !rest.is_empty())?;
        Some(match rest.iter().position(|&b| b == b'\n') {
            Some(len) => {
                let end = self.at + len;
                let cr = usize::from(len > 0 && bytes[end - 1] == b'\r');
                (&self.text[self.at..end - cr], end + 1)
            }
            None => (&self.text[self.at..], bytes.len()),
        })
    }

    fn next_line(&mut self) -> Option<&'a str> {
        let (line, next) = self.peek()?;
        self.at = next;
        self.pos += 1;
        Some(line)
    }

    /// A format error at the last consumed line.
    fn error(&self, what: &str) -> CheckError {
        CheckError::Format { line: self.pos, what: what.to_string() }
    }

    /// Consumes the next line; a missing line is a format error naming
    /// `what` at the line number it should have had.
    fn line(&mut self, what: &str) -> Result<&'a str, CheckError> {
        self.next_line()
            .ok_or_else(|| CheckError::Format { line: self.pos + 1, what: what.to_string() })
    }

    /// Consumes a `keyword rest...` line, returning `rest` without its
    /// leading white space.
    fn keyword_rest(&mut self, keyword: &str) -> Result<&'a str, CheckError> {
        let line = self.next_line();
        line.and_then(|line| strip_keyword(line, keyword)).ok_or_else(|| CheckError::Format {
            line: self.pos + usize::from(line.is_none()),
            what: format!("a {keyword:?} line"),
        })
    }

    /// Consumes the next line if its first ASCII-white-space token is
    /// `keyword`, then reads it as [`Cursor::keyword_rest`] does; leaves
    /// any other line unread.
    fn keyword_line(&mut self, keyword: &str) -> Result<Option<&'a str>, CheckError> {
        match self.peek() {
            Some((line, next)) if first_token_is(line.as_bytes(), keyword.as_bytes()) => {
                self.at = next;
                self.pos += 1;
                strip_keyword(line, keyword)
                    .map(Some)
                    .ok_or_else(|| self.error(&format!("a {keyword:?} line")))
            }
            _ => Ok(None),
        }
    }

    /// Consumes the next line if it is a canonical `keyword a b` line,
    /// the form of every emitted edge, segment and halt line: the keyword,
    /// a space, 1 to 19 digits, a space, 1 to 19 digits and `\n`. Such a
    /// line is read straight off the bytes, and means what the general
    /// path would read it as; any other line is left unread for the
    /// general path.
    fn canonical_pair<A: TryFrom<u64>, B: TryFrom<u64>>(
        &mut self,
        keyword: &str,
    ) -> Option<(A, B)> {
        let bytes = self.text.as_bytes();
        let mut at = self.at + keyword.len();
        if !bytes[self.at..].starts_with(keyword.as_bytes()) || bytes.get(at) != Some(&b' ') {
            return None;
        }
        at += 1;
        let a = A::try_from(digits(bytes, &mut at)?).ok()?;
        if bytes.get(at) != Some(&b' ') {
            return None;
        }
        at += 1;
        let b = B::try_from(digits(bytes, &mut at)?).ok()?;
        if bytes.get(at) != Some(&b'\n') {
            return None;
        }
        self.at = at + 1;
        self.pos += 1;
        Some((a, b))
    }

    /// Consumes a `keyword a b` line.
    fn pair_rest<A: TryFrom<u64>, B: TryFrom<u64>>(
        &mut self,
        keyword: &str,
        what: &str,
    ) -> Result<(A, B), CheckError> {
        if let Some(pair) = self.canonical_pair(keyword) {
            return Ok(pair);
        }
        let rest = self.keyword_rest(keyword)?;
        pair(rest).ok_or_else(|| self.error(what))
    }

    /// Consumes a `keyword a b` line if the next line's first token is
    /// `keyword`, as [`Cursor::keyword_line`] does.
    fn pair_line<A: TryFrom<u64>, B: TryFrom<u64>>(
        &mut self,
        keyword: &str,
        what: &str,
    ) -> Result<Option<(A, B)>, CheckError> {
        if let Some(pair) = self.canonical_pair(keyword) {
            return Ok(Some(pair));
        }
        match self.keyword_line(keyword)? {
            Some(rest) => pair(rest).map(Some).ok_or_else(|| self.error(what)),
            None => Ok(None),
        }
    }

    /// Consumes `keyword <number>`.
    fn count<T: TryFrom<u64>>(&mut self, keyword: &str) -> Result<T, CheckError> {
        let rest = self.keyword_rest(keyword)?;
        number(trim_end(rest)).ok_or_else(|| self.error(&format!("a {keyword} count")))
    }

    /// An empty vector with room for up to `count` elements, taken out of
    /// the budget. Every slot a valid certificate's counts reserve is
    /// filled from a line of its own, so those counts fit the budget in
    /// full; lying headers reserve at most one slot per line between them.
    fn reserve<T>(&mut self, count: usize) -> Vec<T> {
        let slots = count.min(self.budget);
        self.budget -= slots;
        Vec::with_capacity(slots)
    }
}

/// `rest` of a `keyword rest` line (the keyword followed by a space or
/// by nothing), without leading white space.
fn strip_keyword<'a>(line: &'a str, keyword: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(keyword)?;
    (rest.is_empty() || rest.starts_with(' ')).then(|| trim_start(rest))
}

/// Whether the first ASCII-white-space token of `line` is `keyword`.
fn first_token_is(line: &[u8], keyword: &[u8]) -> bool {
    let start = line.iter().position(|b| !b.is_ascii_whitespace()).unwrap_or(line.len());
    let tail = &line[start..];
    tail.starts_with(keyword) && tail.get(keyword.len()).is_none_or(u8::is_ascii_whitespace)
}

/// [`str::trim_start`], byte by byte while the text is ASCII.
fn trim_start(s: &str) -> &str {
    let bytes = s.as_bytes();
    let start = bytes.iter().position(|&b| !matches!(b, b' ' | b'\t'..=b'\r')).unwrap_or(s.len());
    match bytes.get(start) {
        // A multi-byte character may be Unicode white space.
        Some(&b) if !b.is_ascii() => s[start..].trim_start(),
        _ => &s[start..],
    }
}

/// [`str::trim_end`], byte by byte while the text is ASCII.
fn trim_end(s: &str) -> &str {
    let bytes = s.as_bytes();
    let end = bytes.iter().rposition(|&b| !matches!(b, b' ' | b'\t'..=b'\r')).map_or(0, |i| i + 1);
    match end.checked_sub(1).map(|i| bytes[i]) {
        Some(b) if !b.is_ascii() => s[..end].trim_end(),
        _ => &s[..end],
    }
}

/// 1 to 19 decimal digits from `bytes[*at..]`, as many as are there;
/// advances past them. `None` for none or more than 19, so that the
/// value never overflows.
fn digits(bytes: &[u8], at: &mut usize) -> Option<u64> {
    let start = *at;
    let mut x: u64 = 0;
    while let Some(d) = bytes.get(*at).map(|b| b.wrapping_sub(b'0')).filter(|&d| d < 10) {
        x = x.wrapping_mul(10).wrapping_add(u64::from(d));
        *at += 1;
    }
    (1..=19).contains(&(*at - start)).then_some(x)
}

/// The next token of `bytes` from `*at`, split as
/// [`str::split_ascii_whitespace`] splits them; advances past it.
fn token<'b>(bytes: &'b [u8], at: &mut usize) -> Option<&'b [u8]> {
    let start = *at + bytes.get(*at..)?.iter().position(|b| !b.is_ascii_whitespace())?;
    let len =
        bytes[start..].iter().position(u8::is_ascii_whitespace).unwrap_or(bytes.len() - start);
    *at = start + len;
    Some(&bytes[start..start + len])
}

/// `digits` in base `radix` as [`u64::from_str_radix`] reads them: an
/// optional `+`, then at least one digit, and no overflow.
fn radix(digits: &[u8], radix: u32) -> Option<u64> {
    let digits = digits.strip_prefix(b"+").unwrap_or(digits);
    if digits.is_empty() {
        return None;
    }
    let mut x: u64 = 0;
    for &b in digits {
        let d = char::from(b).to_digit(radix)?;
        x = x.checked_mul(u64::from(radix))?.checked_add(u64::from(d))?;
    }
    Some(x)
}

/// A decimal token as `FromStr` reads it into `T`.
fn number<T: TryFrom<u64>>(digits: impl AsRef<[u8]>) -> Option<T> {
    radix(digits.as_ref(), 10).and_then(|x| T::try_from(x).ok())
}

/// Exactly two decimal tokens.
fn pair<A: TryFrom<u64>, B: TryFrom<u64>>(rest: &str) -> Option<(A, B)> {
    let bytes = rest.as_bytes();
    let mut at = 0;
    let a = number(token(bytes, &mut at)?)?;
    let b = number(token(bytes, &mut at)?)?;
    token(bytes, &mut at).is_none().then_some((a, b))
}

/// A witness line's `index value`: the index ends at the first space, and
/// the value is the trimmed rest.
fn split_witness(rest: &str) -> Result<(usize, &str), &'static str> {
    let space = rest.bytes().position(|b| b == b' ');
    let index = number(&rest.as_bytes()[..space.unwrap_or(rest.len())]).ok_or("a witness index")?;
    let space = space.ok_or("a witness value")?;
    Ok((index, trim_end(trim_start(&rest[space + 1..]))))
}

/// What a witness line must end with: a witness carries no more tokens.
const AFTER_WITNESS: &str = "the end of the line after the witness";

/// What a commitment line must end with.
const AFTER_COMMITMENT: &str = "the end of the line after the commitment";

/// The first break in a witness block's `0, 1, 2, ...` indices.
struct Gap {
    /// The position at which the indices first break.
    want: usize,
    /// The index found there.
    index: usize,
    /// Whether `index` occurs on more than one line of the block.
    repeated: bool,
}

/// Appends one witness value of the solution's kind.
fn push_witness(solution: &mut Solution, value: &str) -> Result<(), &'static str> {
    match solution {
        Solution::NodeColors(colors) | Solution::EdgeColors(colors) => {
            colors.push(number(value).ok_or("a color")?);
        }
        Solution::NodeSet(set) | Solution::EdgeSet(set) => set.push(match value {
            "0" => false,
            "1" => true,
            _ => return Err("a 0/1 membership"),
        }),
        Solution::MisWitnesses(witnesses) => {
            let value = value.as_bytes();
            let mut at = 0;
            witnesses.push(match token(value, &mut at) {
                Some(b"M") => MisWitness::Member,
                Some(b"P") => MisWitness::NonMember {
                    witness: token(value, &mut at).and_then(number).ok_or("a witness edge")?,
                },
                _ => return Err("an M or P witness"),
            });
            if token(value, &mut at).is_some() {
                return Err(AFTER_WITNESS);
            }
        }
    }
    Ok(())
}

fn rule_text(rule: &Rule) -> String {
    match rule {
        Rule::Coloring { palette } => format!("coloring palette={}", palette_text(palette)),
        Rule::ListColoring => "list-coloring".to_string(),
        Rule::Mis => "mis".to_string(),
        Rule::Matching { b } => format!("matching b={b}"),
        Rule::EdgeColoring { palette } => {
            format!("edge-coloring palette={}", edge_palette_text(palette))
        }
    }
}

fn palette_text(p: &Palette) -> String {
    match p {
        Palette::Any => "any".to_string(),
        Palette::AtMost(k) => k.to_string(),
        Palette::DegreePlusOne => "deg+1".to_string(),
    }
}

fn edge_palette_text(p: &EdgePalette) -> String {
    match p {
        EdgePalette::Any => "any".to_string(),
        EdgePalette::AtMost(k) => k.to_string(),
        EdgePalette::EdgeDegreePlusOne => "edgedeg+1".to_string(),
    }
}

fn parse_rule(rest: &str, line: usize) -> Result<Rule, CheckError> {
    let mut toks = rest.split_ascii_whitespace();
    let head = toks.next().unwrap_or("");
    let arg = toks.next();
    let bad = || CheckError::Format { line, what: "a known rule".to_string() };
    let limit = |k| {
        number(k).ok_or_else(|| CheckError::Format { line, what: "a palette limit".to_string() })
    };
    let rule = match head {
        "coloring" => match arg.and_then(|a| a.strip_prefix("palette=")).ok_or_else(bad)? {
            "any" => Rule::Coloring { palette: Palette::Any },
            "deg+1" => Rule::Coloring { palette: Palette::DegreePlusOne },
            k => Rule::Coloring { palette: Palette::AtMost(limit(k)?) },
        },
        "list-coloring" if arg.is_none() => Rule::ListColoring,
        "mis" if arg.is_none() => Rule::Mis,
        "matching" => {
            let b = arg.and_then(|a| a.strip_prefix("b=")).ok_or_else(bad)?;
            let b = number(b)
                .ok_or_else(|| CheckError::Format { line, what: "a matching bound".to_string() })?;
            Rule::Matching { b }
        }
        "edge-coloring" => match arg.and_then(|a| a.strip_prefix("palette=")).ok_or_else(bad)? {
            "any" => Rule::EdgeColoring { palette: EdgePalette::Any },
            "edgedeg+1" => Rule::EdgeColoring { palette: EdgePalette::EdgeDegreePlusOne },
            k => Rule::EdgeColoring { palette: EdgePalette::AtMost(limit(k)?) },
        },
        _ => return Err(bad()),
    };
    if toks.next().is_some() {
        return Err(bad());
    }
    Ok(rule)
}

/// Validates all three layers of a certificate. Returns the first
/// violation found, ordered: witness kind, declared node count, instance,
/// solution legality, envelope, transcript consistency.
///
/// The declared `nodes` must be accounted for by the certificate's own
/// lines: a node-indexed solution (`node-colors`, `node-set`,
/// `mis-witness`) has exactly `nodes` entries, and an edge-indexed one
/// (`edge-set`, `edge-colors`) may declare at most `2·edges + 1` nodes.
/// So a matching or edge-coloring certificate cannot carry more isolated
/// nodes than that; every emitted certificate is a tree and passes.
pub fn check_certificate(cert: &Certificate) -> Result<(), CheckError> {
    check_witness_kind(&cert.rule, &cert.solution)?;
    check_node_count(cert)?;
    let g = Graph::from_edges(cert.nodes, &cert.edges)
        .map_err(|e| CheckError::BadInstance { what: format!("{e:?}") })?;
    check_solution(&g, &cert.rule, &cert.solution, cert.lists.as_deref())?;
    check_envelope(cert.envelope, cert.id_space, g.max_degree(), cert.rounds)?;
    check_transcript(cert)
}

/// Rejects a `nodes` count the certificate's own lines cannot account
/// for, before the graph build allocates per node. A node-indexed
/// solution carries exactly one entry per node. Under an edge-indexed
/// rule a node outside every edge carries no data, so at most
/// `2·edges + 1` nodes may be declared (every emitted certificate is a
/// tree, and the `+ 1` admits the single-node tree).
fn check_node_count(cert: &Certificate) -> Result<(), CheckError> {
    let found = match &cert.solution {
        Solution::NodeColors(colors) => colors.len(),
        Solution::NodeSet(set) => set.len(),
        Solution::MisWitnesses(witnesses) => witnesses.len(),
        Solution::EdgeSet(_) | Solution::EdgeColors(_) => {
            let edges = cert.edges.len();
            let limit = edges.saturating_mul(2).saturating_add(1);
            if cert.nodes > limit {
                return Err(CheckError::BadInstance {
                    what: format!(
                        "{} nodes declared, but {edges} edges account for at most {limit}",
                        cert.nodes
                    ),
                });
            }
            return Ok(());
        }
    };
    if found != cert.nodes {
        return Err(CheckError::WitnessCount { expected: cert.nodes, found });
    }
    Ok(())
}

/// Parses and validates in one step.
pub fn check_text(text: &str) -> Result<(), CheckError> {
    check_certificate(&Certificate::parse(text)?)
}

fn check_transcript(cert: &Certificate) -> Result<(), CheckError> {
    let mut chain = COMMITMENT_OFFSET;
    let mut total: u64 = 0;
    // Reused across segments: per-round bucket ends, and the halted nodes
    // bucketed by round.
    let mut end: Vec<usize> = Vec::new();
    let mut by_round: Vec<u64> = Vec::new();
    for (si, seg) in cert.segments.iter().enumerate() {
        if seg.participants != seg.halts.len() {
            return Err(CheckError::ParticipantCountMismatch {
                segment: si,
                claimed: seg.participants,
                found: seg.halts.len(),
            });
        }
        let mut prev: Option<usize> = None;
        for &(v, r) in &seg.halts {
            if v >= cert.nodes {
                return Err(CheckError::UnknownNode { segment: si, node: v });
            }
            if prev.is_some_and(|p| p >= v) {
                return Err(CheckError::UnsortedHalts { segment: si, node: v });
            }
            prev = Some(v);
            if r > seg.rounds {
                return Err(CheckError::HaltBeyondSegment {
                    segment: si,
                    node: v,
                    round: r,
                    rounds: seg.rounds,
                });
            }
        }
        if widen_u64(seg.commitments.len()) != seg.rounds {
            return Err(CheckError::TranscriptTruncated {
                segment: si,
                rounds: seg.rounds,
                commitments: seg.commitments.len(),
            });
        }
        let derived = seg.halts.iter().map(|&(_, r)| r).max().unwrap_or(0);
        if derived != seg.rounds {
            return Err(CheckError::SegmentRoundsMismatch {
                segment: si,
                claimed: seg.rounds,
                derived,
            });
        }
        // Bucket the halts by round with one counting pass, each bucket in
        // node order as the halts are. Once they are placed, `end[r]` is
        // the number of halts in rounds `0..=r`: round `r`'s bucket is
        // `end[r - 1]..end[r]`, and the nodes live in round `r` are the
        // `halts.len() - end[r - 1]` that halt in it or later.
        let rounds = seg.commitments.len();
        end.clear();
        end.resize(rounds + 1, 0);
        for &(_, r) in &seg.halts {
            end[round_index(r)] += 1;
        }
        let mut before = 0;
        for slot in end.iter_mut() {
            let count = *slot;
            *slot = before;
            before += count;
        }
        by_round.clear();
        by_round.resize(seg.halts.len(), 0);
        for &(v, r) in &seg.halts {
            let at = &mut end[round_index(r)];
            by_round[*at] = widen_u64(v);
            *at += 1;
        }
        for (i, &found) in seg.commitments.iter().enumerate() {
            let round = widen_u64(i) + 1;
            let live = widen_u64(seg.halts.len() - end[i]);
            let expected = commit_round(chain, round, live, &by_round[end[i]..end[i + 1]]);
            if expected != found {
                return Err(CheckError::CommitmentMismatch { segment: si, round, expected, found });
            }
            chain = expected;
        }
        total += seg.rounds;
    }
    if total != cert.rounds {
        return Err(CheckError::RoundCountMismatch { claimed: cert.rounds, derived: total });
    }
    Ok(())
}

/// A halt round already checked to lie within its segment, whose rounds
/// equal its commitment count, as an index.
fn round_index(round: u64) -> usize {
    usize::try_from(round).or_invariant("a checked halt round indexes its segment's rounds")
}

/// The replaced line-iterator parser, the oracle of the accepted language.
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built, fully consistent MIS certificate on a 3-path: all
    /// three nodes run one round, then halt together.
    pub(crate) fn tiny_mis_cert() -> Certificate {
        let commitment = commit_round(COMMITMENT_OFFSET, 1, 3, &[0, 1, 2]);
        Certificate {
            instance: "tiny-path".to_string(),
            rule: Rule::Mis,
            nodes: 3,
            id_space: 3,
            edges: vec![(0, 1), (1, 2)],
            lists: None,
            solution: Solution::MisWitnesses(vec![
                MisWitness::Member,
                MisWitness::NonMember { witness: 0 },
                MisWitness::Member,
            ]),
            envelope: Envelope::None,
            rounds: 1,
            segments: vec![Segment {
                rounds: 1,
                participants: 3,
                halts: vec![(0, 1), (1, 1), (2, 1)],
                commitments: vec![commitment],
            }],
        }
    }

    #[test]
    fn tiny_certificate_validates_and_round_trips() {
        let cert = tiny_mis_cert();
        assert_eq!(check_certificate(&cert), Ok(()));
        let text = cert.to_text();
        let reparsed = Certificate::parse(&text).unwrap();
        assert_eq!(reparsed, cert);
        assert_eq!(reparsed.to_text(), text);
        assert_eq!(check_text(&text), Ok(()));
    }

    #[test]
    fn version_mismatch_is_rejected() {
        // A v1 file commits whole frontiers: it is rejected by version,
        // not read as a run whose commitments all mismatch.
        let text = tiny_mis_cert().to_text().replace("treelocal-cert v2", "treelocal-cert v1");
        assert_eq!(
            check_text(&text),
            Err(CheckError::VersionMismatch { found: "treelocal-cert v1".to_string() })
        );
    }

    #[test]
    fn garbage_is_a_format_error_with_a_line() {
        let text = tiny_mis_cert().to_text().replace("nodes 3", "nodes three");
        assert!(matches!(check_text(&text), Err(CheckError::Format { line: 4, .. })));
    }

    /// Nine lines announcing a trillion edges: parsing must fail on the
    /// missing second edge line, not abort reserving 16 TB for the count.
    const HOSTILE_EDGE_COUNT: &str = "treelocal-cert v2
instance hostile
rule mis
nodes 2
idspace 2
edges 1000000000000
e 0 1
solution mis
end
";

    #[test]
    fn inflated_counts_are_a_format_error_not_an_allocation() {
        assert_eq!(HOSTILE_EDGE_COUNT.lines().count(), 9);
        assert!(matches!(check_text(HOSTILE_EDGE_COUNT), Err(CheckError::Format { line: 8, .. })));
        let lists = tiny_mis_cert().to_text().replace("solution", "lists 999999999999\nsolution");
        assert!(matches!(check_text(&lists), Err(CheckError::Format { .. })));
        let segments = tiny_mis_cert().to_text().replace("segments 1", "segments 999999999999");
        assert!(matches!(check_text(&segments), Err(CheckError::Format { .. })));
    }

    #[test]
    fn dropped_and_duplicated_witness_lines_are_typed() {
        let base = tiny_mis_cert().to_text();
        let dropped = base.replace("s 1 P 0\n", "");
        assert_eq!(check_text(&dropped), Err(CheckError::MissingWitness { index: 1 }));
        let duplicated = base.replace("s 1 P 0\n", "s 1 P 0\ns 1 P 0\n");
        assert_eq!(check_text(&duplicated), Err(CheckError::DuplicateWitness { index: 1 }));
    }

    #[test]
    fn solver_certificates_carry_no_transcript() {
        let mut cert = tiny_mis_cert();
        cert.segments.clear();
        cert.rounds = 0;
        assert_eq!(check_certificate(&cert), Ok(()));
        // A claimed round with no transcript backing it is inconsistent.
        cert.rounds = 1;
        assert_eq!(
            check_certificate(&cert),
            Err(CheckError::RoundCountMismatch { claimed: 1, derived: 0 })
        );
    }

    #[test]
    fn bad_instances_are_rejected() {
        let mut cert = tiny_mis_cert();
        cert.edges.push((2, 2));
        assert!(matches!(check_certificate(&cert), Err(CheckError::BadInstance { .. })));
    }

    #[test]
    fn commitment_perturbation_is_located() {
        let mut cert = tiny_mis_cert();
        cert.segments[0].commitments[0] ^= 1;
        assert!(matches!(
            check_certificate(&cert),
            Err(CheckError::CommitmentMismatch { segment: 0, round: 1, .. })
        ));
    }

    #[test]
    fn list_blocks_round_trip() {
        let cert = Certificate {
            instance: "lists".to_string(),
            rule: Rule::ListColoring,
            nodes: 3,
            id_space: 3,
            edges: vec![(0, 1), (1, 2)],
            lists: Some(vec![vec![1, 2], vec![2, 3], vec![1, 3]]),
            solution: Solution::NodeColors(vec![1, 2, 1]),
            envelope: Envelope::None,
            rounds: 0,
            segments: vec![],
        };
        assert_eq!(check_certificate(&cert), Ok(()));
        let text = cert.to_text();
        assert_eq!(Certificate::parse(&text).unwrap(), cert);
    }

    /// The `writeln!`-based serializer [`Certificate::to_text`] replaced,
    /// kept as the byte oracle for the direct emitter.
    fn reference_text(cert: &Certificate) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "{FORMAT_VERSION}");
        let _ = writeln!(s, "instance {}", cert.instance);
        let _ = writeln!(s, "rule {}", rule_text(&cert.rule));
        let _ = writeln!(s, "nodes {}", cert.nodes);
        let _ = writeln!(s, "idspace {}", cert.id_space);
        let _ = writeln!(s, "edges {}", cert.edges.len());
        for &(u, v) in &cert.edges {
            let _ = writeln!(s, "e {u} {v}");
        }
        if let Some(lists) = &cert.lists {
            let _ = writeln!(s, "lists {}", lists.len());
            for (i, list) in lists.iter().enumerate() {
                let _ = write!(s, "l {i}");
                for c in list {
                    let _ = write!(s, " {c}");
                }
                s.push('\n');
            }
        }
        let _ = writeln!(s, "solution {}", cert.solution.kind());
        match &cert.solution {
            Solution::NodeColors(colors) | Solution::EdgeColors(colors) => {
                for (i, c) in colors.iter().enumerate() {
                    let _ = writeln!(s, "s {i} {c}");
                }
            }
            Solution::NodeSet(set) | Solution::EdgeSet(set) => {
                for (i, &b) in set.iter().enumerate() {
                    let _ = writeln!(s, "s {i} {}", u8::from(b));
                }
            }
            Solution::MisWitnesses(witnesses) => {
                for (i, w) in witnesses.iter().enumerate() {
                    match w {
                        MisWitness::Member => {
                            let _ = writeln!(s, "s {i} M");
                        }
                        MisWitness::NonMember { witness } => {
                            let _ = writeln!(s, "s {i} P {witness}");
                        }
                    }
                }
            }
        }
        let _ = writeln!(s, "envelope {}", cert.envelope.id());
        let _ = writeln!(s, "rounds {}", cert.rounds);
        let _ = writeln!(s, "segments {}", cert.segments.len());
        for seg in &cert.segments {
            let _ = writeln!(s, "segment {} {}", seg.rounds, seg.participants);
            for &(v, r) in &seg.halts {
                let _ = writeln!(s, "h {v} {r}");
            }
            for (i, c) in seg.commitments.iter().enumerate() {
                let _ = writeln!(s, "c {} {c:016x}", i + 1);
            }
        }
        s.push_str("end\n");
        s
    }

    /// A deterministic stream of test values, biased to the edges of the
    /// digit code: 0, 1, `u64::MAX`, values with leading zero nibbles,
    /// and powers of ten and their predecessors.
    struct Values(u64);

    impl Values {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn count(&mut self, max: usize) -> usize {
            usize::try_from(self.below(widen_u64(max) + 1)).unwrap()
        }

        fn value(&mut self) -> u64 {
            match self.below(7) {
                0 => 0,
                1 => 1,
                2 => u64::MAX,
                3 => {
                    let shift = self.below(64);
                    self.next() >> shift
                }
                4 => 10u64.pow(u32::try_from(self.below(20)).unwrap()),
                5 => 10u64.pow(u32::try_from(self.below(20)).unwrap()) - 1,
                _ => self.next(),
            }
        }

        fn index(&mut self) -> usize {
            usize::try_from(self.value()).unwrap()
        }
    }

    /// An arbitrary certificate, valid or not: the emitter and parser
    /// must round-trip every one.
    fn arbitrary_cert(seed: u64, kind: u64, size: usize) -> Certificate {
        let mut r = Values(seed);
        let instance: String = (0..r.count(8))
            .map(|i| match r.below(5) {
                0 if i > 0 => ' ',
                1 => 'é',
                2 => '-',
                _ => char::from(b'a' + r.next().to_le_bytes()[0] % 26),
            })
            .collect();
        let rule = match r.below(7) {
            0 => Rule::Coloring { palette: Palette::AtMost(r.value()) },
            1 => Rule::Coloring { palette: Palette::DegreePlusOne },
            2 => Rule::ListColoring,
            3 => Rule::Mis,
            4 => Rule::Matching { b: u32::try_from(r.value() >> 32).unwrap() },
            5 => Rule::EdgeColoring { palette: EdgePalette::AtMost(r.value()) },
            _ => Rule::EdgeColoring { palette: EdgePalette::EdgeDegreePlusOne },
        };
        let edges = (0..r.count(size)).map(|_| (r.index(), r.index())).collect();
        let lists = (r.below(2) == 0).then(|| {
            (0..r.count(size)).map(|_| (0..r.count(3)).map(|_| r.value()).collect()).collect()
        });
        let entries = r.count(size);
        let solution = match kind {
            0 => Solution::NodeColors((0..entries).map(|_| r.value()).collect()),
            1 => Solution::EdgeColors((0..entries).map(|_| r.value()).collect()),
            2 => Solution::NodeSet((0..entries).map(|_| r.below(2) == 1).collect()),
            3 => Solution::EdgeSet((0..entries).map(|_| r.below(2) == 1).collect()),
            _ => Solution::MisWitnesses(
                (0..entries)
                    .map(|_| match r.below(2) {
                        0 => MisWitness::Member,
                        _ => MisWitness::NonMember { witness: r.index() },
                    })
                    .collect(),
            ),
        };
        let envelope = [Envelope::None, Envelope::Linial, Envelope::MisPipeline]
            [usize::try_from(r.below(3)).unwrap()];
        let segments = (0..r.count(3))
            .map(|_| Segment {
                rounds: r.value(),
                participants: r.index(),
                halts: (0..r.count(size)).map(|_| (r.index(), r.value())).collect(),
                commitments: (0..r.count(size)).map(|_| r.value()).collect(),
            })
            .collect();
        Certificate {
            instance,
            rule,
            nodes: r.index(),
            id_space: r.value(),
            edges,
            lists,
            solution,
            envelope,
            rounds: r.value(),
            segments,
        }
    }

    proptest::proptest! {
        /// The direct emitter writes exactly the bytes of the `writeln!`
        /// reference, and the parser reads every emitted certificate back.
        #[test]
        fn emitter_matches_the_writeln_reference_and_round_trips(
            seed in proptest::prelude::any::<u64>(),
            kind in 0u64..5,
            size in 0u64..6,
        ) {
            let cert = arbitrary_cert(seed, kind, usize::try_from(size).unwrap());
            let text = cert.to_text();
            proptest::prop_assert_eq!(&text, &reference_text(&cert));
            proptest::prop_assert_eq!(Certificate::parse(&text), Ok(cert));
        }
    }

    #[test]
    fn crlf_line_endings_parse_to_the_same_certificate() {
        let cert = tiny_mis_cert();
        let crlf = cert.to_text().replace('\n', "\r\n");
        assert_eq!(Certificate::parse(&crlf), Ok(cert));
    }

    #[test]
    fn a_missing_final_newline_still_parses() {
        let cert = tiny_mis_cert();
        let text = cert.to_text();
        let unterminated = text.strip_suffix('\n').unwrap();
        assert_eq!(Certificate::parse(unterminated), Ok(cert));
    }

    /// Cutting the text after any line leaves the parser one line short:
    /// it reports a format error at the first line that is missing.
    #[test]
    fn every_truncation_is_a_format_error_at_the_missing_line() {
        let text = tiny_mis_cert().to_text();
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        for kept in 0..lines.len() {
            let truncated = lines[..kept].concat();
            match Certificate::parse(&truncated) {
                Err(CheckError::Format { line, .. }) => {
                    assert_eq!(line, kept + 1, "cut after line {kept}")
                }
                other => panic!("cut after line {kept}: {other:?}"),
            }
        }
    }

    /// Every number is read as `FromStr` reads it, so the accepted language
    /// is exactly what `FromStr` accepts: a `+` sign and leading zeros parse.
    #[test]
    fn numbers_accept_what_from_str_accepts() {
        assert_eq!("+0".parse::<usize>(), Ok(0));
        assert_eq!("00".parse::<usize>(), Ok(0));
        let cert = tiny_mis_cert();
        let text = cert.to_text();
        let signed = text.replace("e 0 1\n", "e +0 1\n");
        assert_eq!(Certificate::parse(&signed), Ok(cert.clone()));
        let padded = text.replace("s 0 M\n", "s 00 M\n");
        assert_eq!(Certificate::parse(&padded), Ok(cert));
    }

    /// `tiny_mis_cert`'s text with `suffix` appended to the line that
    /// starts with `prefix`, and that line's 1-based number.
    fn with_trailing_text(prefix: &str, suffix: &str) -> (String, usize) {
        let text = tiny_mis_cert().to_text();
        let line = text.lines().position(|l| l.starts_with(prefix)).expect("a matching line");
        let edited: Vec<String> = text
            .lines()
            .enumerate()
            .map(|(i, l)| if i == line { format!("{l}{suffix}\n") } else { format!("{l}\n") })
            .collect();
        (edited.concat(), line + 1)
    }

    /// Both parsers reject `text` with a format error at `line`.
    fn assert_format_error(text: &str, line: usize, what: &str) {
        let expected = Err(CheckError::Format { line, what: what.to_string() });
        assert_eq!(Certificate::parse(text), expected);
        assert_eq!(super::reference::reference_parse(text), expected);
    }

    #[test]
    fn text_after_a_member_witness_is_a_format_error() {
        let (text, line) = with_trailing_text("s 0 M", " junk");
        assert_format_error(&text, line, AFTER_WITNESS);
    }

    #[test]
    fn text_after_a_non_member_witness_is_a_format_error() {
        let (text, line) = with_trailing_text("s 1 P 0", " junk");
        assert_format_error(&text, line, AFTER_WITNESS);
    }

    #[test]
    fn text_after_a_commitment_is_a_format_error() {
        let (text, line) = with_trailing_text("c 1 ", " junk");
        assert_format_error(&text, line, AFTER_COMMITMENT);
    }

    #[test]
    fn text_after_an_argument_free_rule_is_a_format_error() {
        let (text, line) = with_trailing_text("rule mis", " foo");
        assert_format_error(&text, line, "a known rule");
        let list = tiny_mis_cert().to_text().replace("rule mis\n", "rule list-coloring foo\n");
        assert_format_error(&list, line, "a known rule");
    }

    #[test]
    fn trailing_content_is_reported_at_its_own_line() {
        let text = tiny_mis_cert().to_text();
        let end_line = text.lines().count();
        assert_eq!(Certificate::parse(&format!("{text}\n\n")), Ok(tiny_mis_cert()));
        assert_eq!(
            Certificate::parse(&format!("{text}\n\nx\n")),
            Err(CheckError::Format { line: end_line + 3, what: "end of file".to_string() })
        );
    }
}
