//! The line-iterator parser that [`Certificate::parse`] replaced, kept as
//! the oracle of the accepted language: for every text, the byte cursor
//! must return exactly the `Result` this parser returns, down to the error
//! variant, line and message. It changes only in lockstep with the cursor:
//! since `treelocal-cert v2`, both reject text after a witness, after a
//! commitment value and after an argument-free rule.

#![cfg(test)]

use super::*;
use std::iter::Peekable;
use std::str::Lines;

pub(super) fn reference_parse(text: &str) -> Result<Certificate, CheckError> {
    let mut p = Parser::new(text);
    let version = p.line("the format-version line")?;
    if version != FORMAT_VERSION {
        return Err(CheckError::VersionMismatch { found: version.to_string() });
    }
    let instance = p.keyword_rest("instance")?.to_string();
    let rule = parse_rule(p.keyword_rest("rule")?, p.pos)?;
    let nodes: usize = p.parse_field("nodes")?;
    let id_space: u64 = p.parse_field("idspace")?;
    let edge_count: usize = p.parse_field("edges")?;
    // Every count is untrusted: reservations come out of one budget of
    // a slot per line, so lying headers cannot force a huge allocation.
    let mut edges = p.reserve(edge_count);
    for _ in 0..edge_count {
        let rest = p.keyword_rest("e")?;
        let (u, v) = parse_pair(rest, p.pos, "edge endpoints")?;
        edges.push((u, v));
    }
    let lists = if p.peek_keyword("lists") {
        let count: usize = p.parse_field("lists")?;
        let mut lists: Vec<Vec<u64>> = p.reserve(count);
        for want in 0..count {
            let rest = p.keyword_rest("l")?;
            let mut toks = rest.split_ascii_whitespace();
            let i: usize = parse_tok(toks.next(), p.pos, "list node index")?;
            if i != want {
                return Err(CheckError::Format {
                    line: p.pos,
                    what: format!("list for node {want}"),
                });
            }
            let mut list = Vec::new();
            for t in toks {
                list.push(parse_tok(Some(t), p.pos, "list color")?);
            }
            lists.push(list);
        }
        Some(lists)
    } else {
        None
    };
    let kind = p.keyword_rest("solution")?.trim();
    let kind_line = p.pos;
    // Witness lines are consecutive: entry `k` sits on line
    // `kind_line + 1 + k`.
    let mut entries: Vec<(usize, &str)> = p.reserve(nodes);
    while p.peek_keyword("s") {
        let rest = p.keyword_rest("s")?;
        entries.push(split_index(rest, p.pos)?);
    }
    dense(&entries)?;
    let solution = parse_solution(kind, kind_line, &entries)?;
    // The witness table goes before the transcript's buffers grow.
    drop(entries);
    let envelope = match p.keyword_rest("envelope")?.trim() {
        "none" => Envelope::None,
        "linial" => Envelope::Linial,
        "mis-pipeline" => Envelope::MisPipeline,
        other => {
            return Err(CheckError::Format {
                line: p.pos,
                what: format!("a known envelope, not {other:?}"),
            })
        }
    };
    let rounds: u64 = p.parse_field("rounds")?;
    let segment_count: usize = p.parse_field("segments")?;
    let mut segments = p.reserve(segment_count);
    for _ in 0..segment_count {
        let rest = p.keyword_rest("segment")?;
        let (seg_rounds, participants): (u64, usize) = parse_pair(rest, p.pos, "segment header")?;
        let mut halts = p.reserve(participants);
        while p.peek_keyword("h") {
            let rest = p.keyword_rest("h")?;
            let (v, r) = parse_pair(rest, p.pos, "halt record")?;
            halts.push((v, r));
        }
        let claimed = usize::try_from(seg_rounds).unwrap_or(usize::MAX);
        let mut commitments = p.reserve(claimed);
        while p.peek_keyword("c") {
            let rest = p.keyword_rest("c")?;
            let mut toks = rest.split_ascii_whitespace();
            let r: usize = parse_tok(toks.next(), p.pos, "commitment round")?;
            if r != commitments.len() + 1 {
                return Err(CheckError::Format {
                    line: p.pos,
                    what: format!("commitment for round {}", commitments.len() + 1),
                });
            }
            let hex = toks.next().ok_or_else(|| CheckError::Format {
                line: p.pos,
                what: "a commitment value".to_string(),
            })?;
            let c = u64::from_str_radix(hex, 16).map_err(|_| CheckError::Format {
                line: p.pos,
                what: "a hex commitment value".to_string(),
            })?;
            if toks.next().is_some() {
                return Err(CheckError::Format { line: p.pos, what: AFTER_COMMITMENT.to_string() });
            }
            commitments.push(c);
        }
        segments.push(Segment { rounds: seg_rounds, participants, halts, commitments });
    }
    let end = p.line("the end line")?;
    if end != "end" {
        return Err(CheckError::Format { line: p.pos, what: "the end line".to_string() });
    }
    if let Some(offset) = p.lines.position(|l| !l.trim().is_empty()) {
        return Err(CheckError::Format {
            line: p.pos + 1 + offset,
            what: "end of file".to_string(),
        });
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

/// A forward cursor over the text's lines, split exactly as
/// [`str::lines`] splits them (`\n` or `\r\n`, final newline optional).
struct Parser<'a> {
    lines: Peekable<Lines<'a>>,
    /// Lines consumed so far == 1-based number of the last consumed line.
    pos: usize,
    /// Slots the count-driven reservations may still take: one per line
    /// of the whole text, counted once up front and shared by all of them.
    budget: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        let newlines = text.bytes().filter(|&b| b == b'\n').count();
        let unterminated = usize::from(!text.is_empty() && !text.ends_with('\n'));
        Parser { lines: text.lines().peekable(), pos: 0, budget: newlines + unterminated }
    }

    /// Consumes the next line; a missing line is a format error naming
    /// `what` at the line number it should have had.
    fn line(&mut self, what: &str) -> Result<&'a str, CheckError> {
        let line = self
            .lines
            .next()
            .ok_or_else(|| CheckError::Format { line: self.pos + 1, what: what.to_string() })?;
        self.pos += 1;
        Ok(line)
    }

    /// Consumes a `keyword rest...` line, returning `rest`.
    fn keyword_rest(&mut self, keyword: &str) -> Result<&'a str, CheckError> {
        let rest = self
            .lines
            .next()
            .and_then(|line| line.strip_prefix(keyword))
            .filter(|rest| rest.starts_with(' ') || rest.is_empty());
        self.pos += 1;
        rest.map(str::trim_start).ok_or_else(|| CheckError::Format {
            line: self.pos,
            what: format!("a {keyword:?} line"),
        })
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

    fn peek_keyword(&mut self, keyword: &str) -> bool {
        self.lines.peek().is_some_and(|l| l.split_ascii_whitespace().next() == Some(keyword))
    }

    /// Consumes `keyword <number>`.
    fn parse_field<T: std::str::FromStr>(&mut self, keyword: &str) -> Result<T, CheckError> {
        let rest = self.keyword_rest(keyword)?;
        parse_tok(Some(rest.trim()), self.pos, &format!("a {keyword} count"))
    }
}

fn parse_tok<T: std::str::FromStr>(
    tok: Option<&str>,
    line: usize,
    what: &str,
) -> Result<T, CheckError> {
    tok.and_then(|t| t.parse().ok())
        .ok_or_else(|| CheckError::Format { line, what: what.to_string() })
}

fn parse_pair<A: std::str::FromStr, B: std::str::FromStr>(
    rest: &str,
    line: usize,
    what: &str,
) -> Result<(A, B), CheckError> {
    let mut toks = rest.split_ascii_whitespace();
    let a = parse_tok(toks.next(), line, what)?;
    let b = parse_tok(toks.next(), line, what)?;
    if toks.next().is_some() {
        return Err(CheckError::Format { line, what: what.to_string() });
    }
    Ok((a, b))
}

fn split_index(rest: &str, line: usize) -> Result<(usize, &str), CheckError> {
    let mut toks = rest.splitn(2, ' ');
    let i = parse_tok(toks.next(), line, "a witness index")?;
    let value = toks
        .next()
        .ok_or_else(|| CheckError::Format { line, what: "a witness value".to_string() })?;
    Ok((i, value.trim()))
}

/// Witness indices must be exactly `0, 1, 2, ...` — a gap is a dropped
/// witness, a repeat a duplicated one.
fn dense(entries: &[(usize, &str)]) -> Result<(), CheckError> {
    for (want, &(i, _)) in entries.iter().enumerate() {
        if i == want {
            continue;
        }
        if entries.iter().filter(|&&(j, _)| j == i).count() > 1 {
            return Err(CheckError::DuplicateWitness { index: i });
        }
        return Err(CheckError::MissingWitness { index: want });
    }
    Ok(())
}

fn parse_solution(
    kind: &str,
    kind_line: usize,
    entries: &[(usize, &str)],
) -> Result<Solution, CheckError> {
    let values = entries.iter().enumerate().map(|(k, &(_, value))| (kind_line + 1 + k, value));
    match kind {
        "node-colors" | "edge-colors" => {
            let mut colors = Vec::with_capacity(entries.len());
            for (line, value) in values {
                colors.push(parse_tok(Some(value), line, "a color")?);
            }
            if kind == "node-colors" {
                Ok(Solution::NodeColors(colors))
            } else {
                Ok(Solution::EdgeColors(colors))
            }
        }
        "node-set" | "edge-set" => {
            let mut set = Vec::with_capacity(entries.len());
            for (line, value) in values {
                match value {
                    "0" => set.push(false),
                    "1" => set.push(true),
                    _ => {
                        return Err(CheckError::Format {
                            line,
                            what: "a 0/1 membership".to_string(),
                        })
                    }
                }
            }
            if kind == "node-set" {
                Ok(Solution::NodeSet(set))
            } else {
                Ok(Solution::EdgeSet(set))
            }
        }
        "mis-witness" => {
            let mut witnesses = Vec::with_capacity(entries.len());
            for (line, value) in values {
                let mut toks = value.split_ascii_whitespace();
                match toks.next() {
                    Some("M") => witnesses.push(MisWitness::Member),
                    Some("P") => {
                        let witness = parse_tok(toks.next(), line, "a witness edge")?;
                        witnesses.push(MisWitness::NonMember { witness });
                    }
                    _ => {
                        return Err(CheckError::Format {
                            line,
                            what: "an M or P witness".to_string(),
                        })
                    }
                }
                if toks.next().is_some() {
                    return Err(CheckError::Format { line, what: AFTER_WITNESS.to_string() });
                }
            }
            Ok(Solution::MisWitnesses(witnesses))
        }
        other => Err(CheckError::Format {
            line: kind_line,
            what: format!("a known solution kind, not {other:?}"),
        }),
    }
}

fn parse_rule(rest: &str, line: usize) -> Result<Rule, CheckError> {
    let mut toks = rest.split_ascii_whitespace();
    let head = toks.next().unwrap_or("");
    let arg = toks.next();
    let bad = || CheckError::Format { line, what: "a known rule".to_string() };
    let rule = match head {
        "coloring" => {
            let p = arg.and_then(|a| a.strip_prefix("palette=")).ok_or_else(bad)?;
            Rule::Coloring { palette: parse_palette(p, line)? }
        }
        "list-coloring" if arg.is_none() => Rule::ListColoring,
        "mis" if arg.is_none() => Rule::Mis,
        "matching" => {
            let b = arg.and_then(|a| a.strip_prefix("b=")).ok_or_else(bad)?;
            Rule::Matching { b: parse_tok(Some(b), line, "a matching bound")? }
        }
        "edge-coloring" => {
            let p = arg.and_then(|a| a.strip_prefix("palette=")).ok_or_else(bad)?;
            Rule::EdgeColoring { palette: parse_edge_palette(p, line)? }
        }
        _ => return Err(bad()),
    };
    if toks.next().is_some() {
        return Err(bad());
    }
    Ok(rule)
}

fn parse_palette(p: &str, line: usize) -> Result<Palette, CheckError> {
    Ok(match p {
        "any" => Palette::Any,
        "deg+1" => Palette::DegreePlusOne,
        k => Palette::AtMost(parse_tok(Some(k), line, "a palette limit")?),
    })
}

fn parse_edge_palette(p: &str, line: usize) -> Result<EdgePalette, CheckError> {
    Ok(match p {
        "any" => EdgePalette::Any,
        "edgedeg+1" => EdgePalette::EdgeDegreePlusOne,
        k => EdgePalette::AtMost(parse_tok(Some(k), line, "a palette limit")?),
    })
}

/// Both parsers on `text`: the byte cursor must return exactly what the
/// reference returns. A panic on either side fails the calling test.
fn assert_same(text: &str, context: &dyn std::fmt::Display) {
    let reference = reference_parse(text);
    assert_eq!(Certificate::parse(text), reference, "{context}");
}

/// The 18 golden certificates of the bench crate's quick run.
pub(super) fn goldens() -> Vec<(String, String)> {
    let dir =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../bench/tests/golden/quick_certs");
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

/// A splitmix64 stream: the mutants are the same on every run.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        usize::try_from((z ^ (z >> 31)) % widen_u64(n)).expect("below n")
    }
}

/// What a mutation writes: signs and digits, every ASCII white-space byte
/// (and `\x0B`, white space to `trim` but not to the tokenizer), and
/// non-ASCII letters and Unicode white space.
const ALPHABET: &[&str] =
    &["+", "-", "0", "9", " ", "\t", "\r", "\n", "\x0B", "\x0C", "é", "\u{A0}", "\u{2003}"];

/// `text` with one seeded flip, insertion or deletion of a character.
/// The position is drawn per line keyword first, so header lines are hit
/// as often as the long witness and halt blocks.
fn mutant(text: &str, rng: &mut Rng) -> String {
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
    let lines = &starts[rng.below(starts.len())].1;
    let start = lines[rng.below(lines.len())];
    let len = text[start..].find('\n').map_or(text.len() - start, |i| i + 1);
    let mut at = start + rng.below(len + 1);
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    let next = text[at..].chars().next().map_or(at, |c| at + c.len_utf8());
    let insert = ALPHABET[rng.below(ALPHABET.len())];
    match rng.below(3) {
        0 => [&text[..at], insert, &text[next..]].concat(),
        1 => [&text[..at], insert, &text[at..]].concat(),
        _ => [&text[..at], &text[next..]].concat(),
    }
}

fn assert_mutants_agree(per_golden: usize, seed: u64) {
    let mut rng = Rng(seed);
    for (name, text) in goldens() {
        for k in 0..per_golden {
            let mutated = mutant(&text, &mut rng);
            assert_same(&mutated, &format_args!("{name}, mutant {k}: {mutated:?}"));
        }
    }
}

#[test]
fn goldens_parse_as_the_reference_does() {
    for (name, text) in goldens() {
        assert_same(&text, &name);
        assert_same(&text.replace('\n', "\r\n"), &format_args!("{name} with CRLF line ends"));
        assert_same(text.trim_end_matches('\n'), &format_args!("{name} without a final newline"));
        let cert = Certificate::parse(&text).expect("a golden certificate parses");
        assert_eq!(cert.to_text(), text, "{name} round-trips byte for byte");
    }
}

#[test]
fn every_cut_parses_as_the_reference_does() {
    assert_cuts_agree("tiny", &super::tests::tiny_mis_cert().to_text());
    assert_cuts_agree("mis-pipeline-tree", &golden("mis-pipeline-tree.cert"));
}

/// Every cut at a byte offset of `text`.
fn assert_cuts_agree(name: &str, text: &str) {
    for cut in (0..=text.len()).filter(|&i| text.is_char_boundary(i)) {
        assert_same(&text[..cut], &format_args!("{name} cut at byte {cut}"));
    }
}

/// `text` with each of its lines dropped, and with each doubled.
fn assert_line_edits_agree(name: &str, text: &str) {
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    for i in 0..lines.len() {
        let dropped = [&lines[..i], &lines[i + 1..]].concat().concat();
        assert_same(&dropped, &format_args!("{name} without line {}", i + 1));
        let doubled = [&lines[..=i], &lines[i..]].concat().concat();
        assert_same(&doubled, &format_args!("{name} with line {} twice", i + 1));
    }
}

#[test]
fn every_dropped_or_duplicated_line_parses_as_the_reference_does() {
    assert_line_edits_agree("tiny", &super::tests::tiny_mis_cert().to_text());
    assert_line_edits_agree("mis-pipeline-tree", &golden("mis-pipeline-tree.cert"));
}

#[test]
fn seeded_mutants_parse_as_the_reference_does() {
    assert_mutants_agree(100, 1);
}

/// Every token of the tiny certificate in turn replaced by numbers at and
/// past the edges of `u64`, zero-padded and signed, and by hex spellings.
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
        let mut starts = Vec::new();
        let mut at = 0;
        while let Some(tok) = super::token(line.as_bytes(), &mut at) {
            starts.push((at - tok.len(), at));
        }
        for &(start, end) in &starts {
            for number in NUMBERS {
                let edited = [&line[..start], number, &line[end..]].concat();
                let mutated =
                    [&lines[..i].concat(), edited.as_str(), &lines[i + 1..].concat()].concat();
                assert_same(&mutated, &format_args!("line {}: {edited:?}", i + 1));
            }
        }
    }
}

/// Every line of the tiny certificate in turn with white space or a
/// token before it or after it: leading white space the keyword match
/// rejects or the trim removes, and trailing tokens that some lines
/// ignore and others reject.
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
            assert_same(&mutated, &format_args!("line {}: {edited:?}", i + 1));
        }
    }
}

/// The release tier: 18,000 seeded mutants over the goldens, and every
/// cut and every dropped or doubled line of each golden. None may make
/// either parser panic or the two disagree.
#[test]
#[ignore = "release tier: cargo test --release -p treelocal-check --lib differential -- --ignored"]
fn differential_release_tier_of_ten_thousand_mutants() {
    assert_mutants_agree(1000, 2);
    for (name, text) in goldens() {
        assert_cuts_agree(&name, &text);
        assert_line_edits_agree(&name, &text);
    }
}
