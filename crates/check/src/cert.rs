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
//! 92 MB. There is one grammar, and [`Certificate::to_text`] defines it:
//! [`Certificate::parse`] accepts a text only when `to_text` writes the
//! parsed certificate back as that text, byte for byte, and gives every
//! other text a typed error at the first line that departs from it. The
//! parser is one forward reader over the text's bytes, straight into the
//! certificate's vectors, with no line table and no per-line allocation;
//! the tests hold it to that round trip on the golden certificates and on
//! every cut, dropped or doubled line and seeded mutant of them.
//! `to_text` writes every line straight into one byte buffer, numbers two
//! digits at a time.

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
    /// Free-form instance label, one line: [`check_certificate`] rejects
    /// a `\n` or `\r` in it.
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

    /// Parses certificate text, accepting exactly what
    /// [`Certificate::to_text`] writes: `parse(text)` is `Ok(cert)` only
    /// when `cert.to_text() == text`, byte for byte. Every line ends in
    /// `\n` alone and the text ends with `end\n`; fields are separated by
    /// single spaces; numbers are plain decimals that fit their field,
    /// with no sign and no leading zero (`0` itself is fine);
    /// commitments are 16 lowercase hex digits; and the instance label is
    /// taken verbatim.
    ///
    /// The text is read once, front to back, straight into the
    /// certificate's vectors: no line table and no per-line allocation,
    /// and all count-driven reservations together are capped by the line
    /// count. The first line that is not in the emitted form, in text
    /// order, is a [`CheckError::Format`] naming that line; a witness
    /// block whose indices skip or repeat one is a
    /// [`CheckError::MissingWitness`] or [`CheckError::DuplicateWitness`]
    /// at the first break; a well-formed first line naming another
    /// format is a [`CheckError::VersionMismatch`].
    pub fn parse(text: &str) -> Result<Certificate, CheckError> {
        let mut p = Reader::new(text);
        let version = p.rest();
        p.end_line("the format-version line")?;
        if version != FORMAT_VERSION {
            return Err(CheckError::VersionMismatch { found: version.to_string() });
        }
        p.keyword("instance")?;
        let instance = p.rest().to_string();
        p.end_line("an instance label")?;
        p.keyword("rule")?;
        let rule = parse_rule(p.rest()).map_err(|what| p.error(what))?;
        p.end_line("a known rule")?;
        let nodes: usize = p.count("nodes")?;
        let id_space: u64 = p.count("idspace")?;
        let edge_count: usize = p.count("edges")?;
        // Every count is untrusted: reservations come out of one budget of
        // a slot per line, so lying headers cannot force a huge allocation.
        let mut edges = p.reserve(edge_count);
        for _ in 0..edge_count {
            p.keyword("e")?;
            edges.push(p.pair("edge endpoints")?);
        }
        let lists = if p.at_keyword("lists") {
            let count: usize = p.count("lists")?;
            let mut lists: Vec<Vec<u64>> = p.reserve(count);
            for want in 0..count {
                p.keyword("l")?;
                if p.number::<usize>() != Some(want) {
                    return Err(p.error(&format!("list for node {want}")));
                }
                let mut list = Vec::new();
                while p.byte(b' ') {
                    list.push(p.number().ok_or_else(|| p.error("list color"))?);
                }
                p.end_line("list color")?;
                lists.push(list);
            }
            Some(lists)
        } else {
            None
        };
        p.keyword("solution")?;
        let mut solution = match p.rest() {
            "node-colors" => Solution::NodeColors(p.reserve(nodes)),
            "edge-colors" => Solution::EdgeColors(p.reserve(nodes)),
            "node-set" => Solution::NodeSet(p.reserve(nodes)),
            "edge-set" => Solution::EdgeSet(p.reserve(nodes)),
            "mis-witness" => Solution::MisWitnesses(p.reserve(nodes)),
            kind => return Err(p.error(&format!("a known solution kind, not {kind:?}"))),
        };
        p.end_line("a known solution kind")?;
        // Witness `k` is on the `k`-th line of the block. The first
        // well-formed line whose index is out of place is a repeat when the
        // index is smaller, and names the missing index `k` when it is
        // larger.
        let mut entries = 0usize;
        while p.eat("s") {
            let index: usize = p.number().ok_or_else(|| p.error("a witness index"))?;
            if !p.byte(b' ') {
                return Err(p.error("a witness value"));
            }
            p.witness(&mut solution)?;
            if index != entries {
                return Err(if index < entries {
                    CheckError::DuplicateWitness { index }
                } else {
                    CheckError::MissingWitness { index: entries }
                });
            }
            entries += 1;
        }
        p.keyword("envelope")?;
        let envelope = match p.rest() {
            "none" => Envelope::None,
            "linial" => Envelope::Linial,
            "mis-pipeline" => Envelope::MisPipeline,
            other => return Err(p.error(&format!("a known envelope, not {other:?}"))),
        };
        p.end_line("a known envelope")?;
        let rounds: u64 = p.count("rounds")?;
        let segment_count: usize = p.count("segments")?;
        let mut segments = p.reserve(segment_count);
        for _ in 0..segment_count {
            p.keyword("segment")?;
            let (seg_rounds, participants): (u64, usize) = p.pair("segment header")?;
            let mut halts = p.reserve(participants);
            while p.eat("h") {
                halts.push(p.pair("halt record")?);
            }
            let claimed = usize::try_from(seg_rounds).unwrap_or(usize::MAX);
            let mut commitments = p.reserve(claimed);
            while p.eat("c") {
                let round = commitments.len() + 1;
                if p.number::<usize>() != Some(round) {
                    return Err(p.error(&format!("commitment for round {round}")));
                }
                if !p.byte(b' ') {
                    return Err(p.error("a commitment value"));
                }
                commitments.push(p.hex16().ok_or_else(|| p.error("a hex commitment value"))?);
                p.end_line(AFTER_COMMITMENT)?;
            }
            segments.push(Segment { rounds: seg_rounds, participants, halts, commitments });
        }
        if p.rest() != "end" {
            return Err(p.error("the end line"));
        }
        p.end_line("the end line")?;
        if p.at < text.len() {
            return Err(p.error("end of file"));
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

/// A forward reader over the text's bytes. Every read either takes the
/// exact bytes `to_text` would have written there or reports the line
/// it stands on; nothing is skipped, trimmed or looked up twice.
struct Reader<'a> {
    text: &'a str,
    /// Byte offset of the next unread byte.
    at: usize,
    /// 1-based number of the line holding `at`.
    line: usize,
    /// Slots the count-driven reservations may still take: one per line
    /// of the whole text, counted once up front and shared by all of them.
    budget: usize,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Self {
        // Counted per 255-byte chunk, so that each chunk sums in byte lanes.
        let budget = text
            .as_bytes()
            .chunks(255)
            .map(|chunk| usize::from(chunk.iter().map(|&b| u8::from(b == b'\n')).sum::<u8>()))
            .sum();
        Reader { text, at: 0, line: 1, budget }
    }

    /// A format error at the current line.
    fn error(&self, what: &str) -> CheckError {
        CheckError::Format { line: self.line, what: what.to_string() }
    }

    /// Consumes `b` if it is the next byte.
    fn byte(&mut self, b: u8) -> bool {
        let found = self.text.as_bytes().get(self.at) == Some(&b);
        self.at += usize::from(found);
        found
    }

    /// Consumes the `\n` that ends the current line; anything else there
    /// is a format error naming `what`, or [`CRLF`] for a `\r\n`.
    fn end_line(&mut self, what: &str) -> Result<(), CheckError> {
        if !self.byte(b'\n') {
            let crlf = self.text.as_bytes()[self.at..].starts_with(b"\r\n");
            return Err(self.error(if crlf { CRLF } else { what }));
        }
        self.line += 1;
        Ok(())
    }

    /// Whether the current line starts with `keyword` and a space.
    fn at_keyword(&self, keyword: &str) -> bool {
        let rest = &self.text.as_bytes()[self.at..];
        rest.starts_with(keyword.as_bytes()) && rest.get(keyword.len()) == Some(&b' ')
    }

    /// Consumes `keyword` and a space if the current line starts with
    /// them.
    fn eat(&mut self, keyword: &str) -> bool {
        let found = self.at_keyword(keyword);
        self.at += usize::from(found) * (keyword.len() + 1);
        found
    }

    /// Consumes `keyword` and a space.
    fn keyword(&mut self, keyword: &str) -> Result<(), CheckError> {
        if !self.eat(keyword) {
            return Err(self.error(&format!("a {keyword:?} line")));
        }
        Ok(())
    }

    /// The rest of the current line, up to (not including) the first
    /// `\n` or `\r`.
    fn rest(&mut self) -> &'a str {
        let start = self.at;
        let len = self.text.as_bytes()[start..].iter().position(|&b| b == b'\n' || b == b'\r');
        self.at = len.map_or(self.text.len(), |len| start + len);
        &self.text[start..self.at]
    }

    /// A decimal number as `{x}` formats it, if it fits `T`: `0`, or a
    /// nonzero digit and more digits. After a leading `0` the number
    /// ends, so a digit after it is left for the caller to reject.
    fn number<T: TryFrom<u64>>(&mut self) -> Option<T> {
        let bytes = self.text.as_bytes();
        let digit = |i: usize| bytes.get(i).map(|b| b.wrapping_sub(b'0')).filter(|&d| d < 10);
        let mut x = u64::from(digit(self.at)?);
        self.at += 1;
        if x > 0 {
            while let Some(d) = digit(self.at) {
                x = x.checked_mul(10)?.checked_add(u64::from(d))?;
                self.at += 1;
            }
        }
        T::try_from(x).ok()
    }

    /// 16 lowercase hex digits.
    fn hex16(&mut self) -> Option<u64> {
        let digits = self.text.as_bytes().get(self.at..self.at + 16)?;
        let mut x: u64 = 0;
        for &b in digits {
            let d = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                _ => return None,
            };
            x = x << 4 | u64::from(d);
        }
        self.at += 16;
        Some(x)
    }

    /// Consumes `a b\n`.
    fn pair<A: TryFrom<u64>, B: TryFrom<u64>>(&mut self, what: &str) -> Result<(A, B), CheckError> {
        let a = self.number().ok_or_else(|| self.error(what))?;
        if !self.byte(b' ') {
            return Err(self.error(what));
        }
        let b = self.number().ok_or_else(|| self.error(what))?;
        self.end_line(what)?;
        Ok((a, b))
    }

    /// Consumes `keyword <number>\n`.
    fn count<T: TryFrom<u64>>(&mut self, keyword: &str) -> Result<T, CheckError> {
        self.keyword(keyword)?;
        let what = || format!("a {keyword} count");
        let count = self.number().ok_or_else(|| self.error(&what()))?;
        self.end_line(&what())?;
        Ok(count)
    }

    /// Consumes one witness value of the solution's kind and the end of
    /// its line, and appends the value.
    fn witness(&mut self, solution: &mut Solution) -> Result<(), CheckError> {
        match solution {
            Solution::NodeColors(colors) | Solution::EdgeColors(colors) => {
                colors.push(self.number().ok_or_else(|| self.error("a color"))?);
                self.end_line("a color")
            }
            Solution::NodeSet(set) | Solution::EdgeSet(set) => {
                let member = self.byte(b'1');
                if !member && !self.byte(b'0') {
                    return Err(self.error("a 0/1 membership"));
                }
                set.push(member);
                self.end_line("a 0/1 membership")
            }
            Solution::MisWitnesses(witnesses) => {
                if self.byte(b'M') {
                    witnesses.push(MisWitness::Member);
                } else if self.byte(b'P') {
                    let witness = self.byte(b' ').then(|| self.number()).flatten();
                    let witness = witness.ok_or_else(|| self.error("a witness edge"))?;
                    witnesses.push(MisWitness::NonMember { witness });
                } else {
                    return Err(self.error("an M or P witness"));
                }
                self.end_line(AFTER_WITNESS)
            }
        }
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

/// `text` as a number, if `{x}` formats the number as `text`.
fn canonical<T: std::str::FromStr + ToString>(text: &str) -> Option<T> {
    text.parse().ok().filter(|x: &T| x.to_string() == text)
}

/// What a line that ends in `\r\n` must end with instead.
const CRLF: &str = "a \\n line end, not \\r\\n";

/// What a witness line must end with: a witness carries no more tokens.
const AFTER_WITNESS: &str = "the end of the line after the witness";

/// What a commitment line must end with.
const AFTER_COMMITMENT: &str = "the end of the line after the commitment";

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

/// The rule `rule_text` writes as `text`; the error names what was
/// expected.
fn parse_rule(text: &str) -> Result<Rule, &'static str> {
    let (head, arg) = match text.split_once(' ') {
        Some((head, arg)) => (head, Some(arg)),
        None => (text, None),
    };
    let palette = || arg.and_then(|a| a.strip_prefix("palette=")).ok_or("a known rule");
    let limit = |k: &str| canonical(k).ok_or("a palette limit");
    Ok(match head {
        "coloring" => Rule::Coloring {
            palette: match palette()? {
                "any" => Palette::Any,
                "deg+1" => Palette::DegreePlusOne,
                k => Palette::AtMost(limit(k)?),
            },
        },
        "list-coloring" if arg.is_none() => Rule::ListColoring,
        "mis" if arg.is_none() => Rule::Mis,
        "matching" => {
            let b = arg.and_then(|a| a.strip_prefix("b=")).ok_or("a known rule")?;
            Rule::Matching { b: canonical(b).ok_or("a matching bound")? }
        }
        "edge-coloring" => Rule::EdgeColoring {
            palette: match palette()? {
                "any" => EdgePalette::Any,
                "edgedeg+1" => EdgePalette::EdgeDegreePlusOne,
                k => EdgePalette::AtMost(limit(k)?),
            },
        },
        _ => return Err("a known rule"),
    })
}

/// Validates all three layers of a certificate. Returns the first
/// violation found, ordered: instance label, witness kind, declared node
/// count, instance, solution legality, envelope, transcript consistency.
///
/// The label must be one line: [`Certificate::to_text`] writes it
/// verbatim, so a `\n` or `\r` in it would emit a text that
/// [`Certificate::parse`] rejects.
///
/// The declared `nodes` must be accounted for by the certificate's own
/// lines: a node-indexed solution (`node-colors`, `node-set`,
/// `mis-witness`) has exactly `nodes` entries, and an edge-indexed one
/// (`edge-set`, `edge-colors`) may declare at most `2·edges + 1` nodes.
/// So a matching or edge-coloring certificate cannot carry more isolated
/// nodes than that; every emitted certificate is a tree and passes.
pub fn check_certificate(cert: &Certificate) -> Result<(), CheckError> {
    if cert.instance.contains(['\n', '\r']) {
        let what = format!("instance label {:?} holds a line break", cert.instance);
        return Err(CheckError::BadInstance { what });
    }
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

    /// A deterministic stream of test values, biased to the edges of the
    /// digit code: 0, 1, `u64::MAX`, values with leading zero nibbles,
    /// and powers of ten and their predecessors.
    pub(super) struct Values(pub(super) u64);

    impl Values {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        pub(super) fn below(&mut self, n: u64) -> u64 {
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
        /// The parser reads every emitted certificate back. It accepts
        /// each number only as `{x}` (or `{x:016x}`) spells it and each
        /// line only in one layout, so this round trip also pins the
        /// emitter's bytes.
        #[test]
        fn every_emitted_certificate_parses_back_to_itself(
            seed in proptest::prelude::any::<u64>(),
            kind in 0u64..5,
            size in 0u64..6,
        ) {
            let cert = arbitrary_cert(seed, kind, usize::try_from(size).unwrap());
            let text = cert.to_text();
            proptest::prop_assert_eq!(Certificate::parse(&text), Ok(cert));
        }
    }

    #[test]
    fn crlf_line_endings_are_a_format_error_at_line_1() {
        let crlf = tiny_mis_cert().to_text().replace('\n', "\r\n");
        assert_eq!(
            Certificate::parse(&crlf),
            Err(CheckError::Format { line: 1, what: CRLF.to_string() })
        );
    }

    #[test]
    fn a_missing_final_newline_is_a_format_error_at_the_end_line() {
        let text = tiny_mis_cert().to_text();
        let unterminated = text.strip_suffix('\n').unwrap();
        assert_eq!(
            Certificate::parse(unterminated),
            Err(CheckError::Format {
                line: text.lines().count(),
                what: "the end line".to_string()
            })
        );
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

    /// `tiny_mis_cert`'s text with its line starting with `prefix`
    /// replaced by `line`, and that line's 1-based number.
    fn with_line(prefix: &str, line: &str) -> (String, usize) {
        let text = tiny_mis_cert().to_text();
        let at = text.lines().position(|l| l.starts_with(prefix)).expect("a matching line");
        let edited: Vec<&str> =
            text.lines().enumerate().map(|(i, l)| if i == at { line } else { l }).collect();
        (edited.join("\n") + "\n", at + 1)
    }

    /// Numbers are read as `to_text` writes them: plain decimals up to
    /// the field's maximum, with no sign and no leading zero.
    #[test]
    fn numbers_are_plain_decimals_that_fit_their_field() {
        let (max, _) = with_line("idspace ", "idspace 18446744073709551615");
        let mut cert = tiny_mis_cert();
        cert.id_space = u64::MAX;
        assert_eq!(Certificate::parse(&max), Ok(cert));
        for (prefix, edited, what) in [
            ("idspace ", "idspace 18446744073709551616", "a idspace count"),
            ("e 0 1", "e +0 1", "edge endpoints"),
            ("e 0 1", "e 01 1", "edge endpoints"),
            ("e 0 1", "e 0 01", "edge endpoints"),
            ("s 0 M", "s 00 M", "a witness value"),
            ("s 1 P 0", "s 1 P +0", "a witness edge"),
            ("h 2 1", "h 2 01", "halt record"),
            ("rounds ", "rounds +1", "a rounds count"),
            ("rule ", "rule coloring palette=+3", "a palette limit"),
            ("rule ", "rule edge-coloring palette=03", "a palette limit"),
            ("rule ", "rule matching b=4294967296", "a matching bound"),
        ] {
            let (text, line) = with_line(prefix, edited);
            let expected = Err(CheckError::Format { line, what: what.to_string() });
            assert_eq!(Certificate::parse(&text), expected, "{edited}");
        }
    }

    #[test]
    fn set_memberships_are_0_or_1() {
        let mut cert = tiny_mis_cert();
        cert.solution = Solution::NodeSet(vec![true, false, true]);
        let text = cert.to_text();
        assert_eq!(Certificate::parse(&text), Ok(cert));
        for value in ["2", "10", "01", "M"] {
            let edited = text.replace("s 1 0\n", &format!("s 1 {value}\n"));
            let expected =
                Err(CheckError::Format { line: 11, what: "a 0/1 membership".to_string() });
            assert_eq!(Certificate::parse(&edited), expected, "{value}");
        }
    }

    /// `tiny_mis_cert`'s text with `suffix` appended to the line that
    /// starts with `prefix`, and that line's 1-based number.
    fn with_trailing_text(prefix: &str, suffix: &str) -> (String, usize) {
        let text = tiny_mis_cert().to_text();
        let line = text.lines().find(|l| l.starts_with(prefix)).expect("a matching line");
        with_line(prefix, &format!("{line}{suffix}"))
    }

    /// `text` is rejected with a format error at `line`.
    fn assert_format_error(text: &str, line: usize, what: &str) {
        let expected = Err(CheckError::Format { line, what: what.to_string() });
        assert_eq!(Certificate::parse(text), expected);
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
        let after_end = text.lines().count() + 1;
        for trailing in ["\n", "\n\nx\n", " ", "x"] {
            assert_eq!(
                Certificate::parse(&format!("{text}{trailing}")),
                Err(CheckError::Format { line: after_end, what: "end of file".to_string() }),
                "{trailing:?}"
            );
        }
    }
}

/// The accepted language against its reference, the emitter: on every
/// input, [`Certificate::parse`] returns a certificate only when
/// [`Certificate::to_text`] writes that certificate back as the input,
/// byte for byte, and otherwise a typed error; it never panics. The
/// inputs are the 18 golden certificates, every cut and every dropped or
/// doubled line of them, seeded character mutants, extreme numbers, and
/// text before and after every line.
#[cfg(test)]
mod reference {
    use super::tests::Values;
    use super::*;

    /// 1-based number of the line that holds byte `at` of `text`.
    fn line_of(text: &str, at: usize) -> usize {
        1 + text.as_bytes()[..at].iter().filter(|&&b| b == b'\n').count()
    }

    /// Parses `mutated`, an edit of `original`, and asserts the
    /// reference's answer: a certificate that writes back `mutated` byte
    /// for byte, or a typed error. A format error stands on the line of
    /// the first edited byte or later (every line before it is as
    /// `to_text` wrote it), and never past the line after the text's last.
    /// A panic fails the calling test.
    fn assert_edit(
        original: &str,
        mutated: &str,
        context: &dyn std::fmt::Display,
    ) -> Result<Certificate, CheckError> {
        let same = original.bytes().zip(mutated.bytes()).take_while(|(a, b)| a == b).count();
        let parsed = Certificate::parse(mutated);
        match &parsed {
            Ok(cert) => {
                assert_eq!(cert.to_text(), mutated, "{context}: accepted but not re-emitted")
            }
            Err(CheckError::Format { line, .. }) => {
                let lines = line_of(original, same)..=line_of(mutated, mutated.len());
                assert!(lines.contains(line), "{context}: {parsed:?}");
            }
            Err(_) => {}
        }
        parsed
    }

    /// The 18 golden certificates of the bench crate's quick run.
    fn goldens() -> Vec<(String, String)> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../bench/tests/golden/quick_certs");
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .expect("read the golden certificate directory")
            .map(|entry| entry.expect("read a golden directory entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "cert"))
            .collect();
        files.sort();
        assert_eq!(files.len(), 18, "golden certificates in {}", dir.display());
        files
            .into_iter()
            .map(|path| {
                let name = path.file_name().expect("a file name").to_string_lossy().into_owned();
                (name, std::fs::read_to_string(&path).expect("read a golden certificate"))
            })
            .collect()
    }

    fn golden(name: &str) -> String {
        goldens().into_iter().find(|(n, _)| n == name).expect("a golden certificate").1
    }

    /// A seeded draw below `n`: the mutants are the same on every run.
    fn below(rng: &mut Values, n: usize) -> usize {
        usize::try_from(rng.below(widen_u64(n))).expect("below n")
    }

    /// What a mutation writes: signs and digits, every ASCII white-space
    /// byte and `\x0B`, and non-ASCII letters and Unicode white space.
    const ALPHABET: &[&str] =
        &["+", "-", "0", "9", " ", "\t", "\r", "\n", "\x0B", "\x0C", "é", "\u{A0}", "\u{2003}"];

    /// `text` with one seeded flip, insertion or deletion of a character.
    /// The position is drawn per line keyword first, so header lines are
    /// hit as often as the long witness and halt blocks.
    fn mutant(text: &str, rng: &mut Values) -> String {
        let mut starts: Vec<(&str, Vec<usize>)> = Vec::new();
        let mut at = 0;
        for line in text.split_inclusive('\n') {
            let keyword = line.split_ascii_whitespace().next().unwrap_or("");
            match starts.iter_mut().find(|(k, _)| *k == keyword) {
                Some((_, lines)) => lines.push(at),
                None => starts.push((keyword, vec![at])),
            }
            at += line.len();
        }
        let lines = &starts[below(rng, starts.len())].1;
        let start = lines[below(rng, lines.len())];
        let len = text[start..].find('\n').map_or(text.len() - start, |i| i + 1);
        let mut at = start + below(rng, len + 1);
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        let next = text[at..].chars().next().map_or(at, |c| at + c.len_utf8());
        let insert = ALPHABET[below(rng, ALPHABET.len())];
        match below(rng, 3) {
            0 => [&text[..at], insert, &text[next..]].concat(),
            1 => [&text[..at], insert, &text[at..]].concat(),
            _ => [&text[..at], &text[next..]].concat(),
        }
    }

    fn assert_mutants(per_golden: usize, seed: u64) {
        let mut rng = Values(seed);
        for (name, text) in goldens() {
            for k in 0..per_golden {
                let mutated = mutant(&text, &mut rng);
                let _ =
                    assert_edit(&text, &mutated, &format_args!("{name}, mutant {k}: {mutated:?}"));
            }
        }
    }

    #[test]
    fn goldens_parse_as_the_reference_does() {
        for (name, text) in goldens() {
            assert_edit(&text, &text, &name).expect("a golden parses and round-trips");
            assert_eq!(
                Certificate::parse(&text.replace('\n', "\r\n")),
                Err(CheckError::Format { line: 1, what: CRLF.to_string() }),
                "{name} with CRLF line ends"
            );
            let end_line = text.lines().count();
            assert_eq!(
                Certificate::parse(text.trim_end_matches('\n')),
                Err(CheckError::Format { line: end_line, what: "the end line".to_string() }),
                "{name} without a final newline"
            );
        }
    }

    #[test]
    fn a_label_with_a_line_break_is_a_bad_instance() {
        let text = golden("mis-pipeline-tree.cert");
        let mut cert = Certificate::parse(&text).expect("a golden parses");
        for label in ["a\nb", "tail\r", "x\r\ny"] {
            cert.instance = label.to_string();
            let what = format!("instance label {label:?} holds a line break");
            assert_eq!(check_certificate(&cert), Err(CheckError::BadInstance { what }));
        }
        cert.instance = "a plain label".to_string();
        assert_eq!(check_certificate(&cert), Ok(()));
        assert_eq!(Certificate::parse(&cert.to_text()), Ok(cert));
    }

    #[test]
    fn every_cut_parses_as_the_reference_does() {
        assert_cuts("tiny", &super::tests::tiny_mis_cert().to_text());
        assert_cuts("mis-pipeline-tree", &golden("mis-pipeline-tree.cert"));
    }

    /// Every proper prefix of `text` is a format error at the line the
    /// cut falls in.
    fn assert_cuts(name: &str, text: &str) {
        for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
            match Certificate::parse(&text[..cut]) {
                Err(CheckError::Format { line, .. }) if line == line_of(text, cut) => {}
                other => panic!("{name} cut at byte {cut}: {other:?}"),
            }
        }
    }

    /// `text` with each of its lines dropped, and with each doubled.
    fn assert_line_edits(name: &str, text: &str) {
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        for i in 0..lines.len() {
            let dropped = [&lines[..i], &lines[i + 1..]].concat().concat();
            let _ = assert_edit(text, &dropped, &format_args!("{name} without line {}", i + 1));
            let doubled = [&lines[..=i], &lines[i..]].concat().concat();
            let _ = assert_edit(text, &doubled, &format_args!("{name} with line {} twice", i + 1));
        }
    }

    #[test]
    fn every_dropped_or_duplicated_line_parses_as_the_reference_does() {
        assert_line_edits("tiny", &super::tests::tiny_mis_cert().to_text());
        assert_line_edits("mis-pipeline-tree", &golden("mis-pipeline-tree.cert"));
    }

    #[test]
    fn seeded_mutants_parse_as_the_reference_does() {
        assert_mutants(100, 1);
    }

    /// Every token of the tiny certificate in turn replaced by numbers at
    /// and past the edges of `u64` and `u32`, zero-padded and signed, and
    /// by hex spellings.
    #[test]
    fn extreme_numbers_parse_as_the_reference_does() {
        const NUMBERS: &[&str] = &[
            "18446744073709551615",
            "18446744073709551616",
            "99999999999999999999",
            "000000000000000000000000000001",
            "000000000000000000000000000000",
            "000000000000000000018446744073709551615",
            "+18446744073709551615",
            "+0",
            "01",
            "+",
            "-0",
            "++1",
            "ffffffffffffffff",
            "FFFFFFFFFFFFFFFF",
            "10000000000000000",
            "+00000000000000000000000000000a",
            "4294967295",
            "4294967296",
        ];
        let text = super::tests::tiny_mis_cert().to_text();
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        for (i, line) in lines.iter().enumerate() {
            let tokens: Vec<&str> = line.trim_end_matches('\n').split(' ').collect();
            for t in 0..tokens.len() {
                for number in NUMBERS {
                    let mut edited = tokens.clone();
                    edited[t] = number;
                    let edited = edited.join(" ") + "\n";
                    let mutated =
                        [lines[..i].concat(), edited.clone(), lines[i + 1..].concat()].concat();
                    let context = format_args!("line {}: {edited:?}", i + 1);
                    let parsed = assert_edit(&text, &mutated, &context);
                    // A sign or a leading zero is never what `to_text`
                    // writes, but in the instance label it is label text.
                    let label = tokens[0] == "instance" && t > 0;
                    if number.starts_with(['+', '-', '0']) && !label {
                        assert!(
                            matches!(parsed, Err(CheckError::Format { line, .. }) if line == i + 1)
                                || (i == 0 && parsed.is_err()),
                            "{context}: {parsed:?}"
                        );
                    }
                }
            }
        }
    }

    /// Every line of the tiny certificate in turn with white space or a
    /// token before it, inside its first token or after it: each edit is
    /// a format error at that line (a version mismatch on line 1), or, in
    /// the instance label, part of the label.
    #[test]
    fn every_line_with_leading_or_trailing_text_parses_as_the_reference_does() {
        const PREFIXES: &[&str] = &[" ", "\t", "\x0B", "\u{A0}", "x"];
        const SUFFIXES: &[&str] =
            &[" ", "\t", "\r", "\x0B", "\u{A0}", "\u{2003}", " 7", "\t7", " x", " M", " P 1", " é"];
        let text = super::tests::tiny_mis_cert().to_text();
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        for (i, line) in lines.iter().enumerate() {
            let body = line.trim_end_matches('\n');
            let edited = PREFIXES
                .iter()
                .map(|p| format!("{p}{line}"))
                .chain(SUFFIXES.iter().map(|s| format!("{body}{s}\n")))
                .chain(PREFIXES.iter().map(|p| format!("{}{p}{}", &body[..1], &body[1..])));
            for edited in edited {
                let mutated =
                    [&lines[..i].concat(), edited.as_str(), &lines[i + 1..].concat()].concat();
                let context = format_args!("line {}: {edited:?}", i + 1);
                match assert_edit(&text, &mutated, &context) {
                    Err(CheckError::Format { line, .. }) if line == i + 1 => {}
                    Err(CheckError::VersionMismatch { .. }) if i == 0 => {}
                    Ok(_) if body.starts_with("instance ") => {}
                    other => panic!("{context}: {other:?}"),
                }
            }
        }
    }

    /// The release tier: 18,000 seeded mutants over the goldens, and every
    /// cut and every dropped or doubled line of each golden. None may
    /// make the parser panic or accept a text it would not write back.
    #[test]
    #[ignore = "release tier: cargo test --release -p treelocal-check --lib differential -- --ignored"]
    fn differential_release_tier_of_ten_thousand_mutants() {
        assert_mutants(1000, 2);
        for (name, text) in goldens() {
            assert_cuts(&name, &text);
            assert_line_edits(&name, &text);
        }
    }
}
