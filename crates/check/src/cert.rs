//! The versioned certificate format (`treelocal-cert v1`) — parse,
//! serialize, and the three-layer check.
//!
//! A certificate is self-contained line-oriented text: it carries the
//! instance (edge list + identifier space), the rule, the per-node or
//! per-edge output witnesses, the claimed envelope and round count, and
//! the run transcript (per-segment halt rounds + chained frontier
//! commitments). [`check_certificate`] validates:
//!
//! 1. **solution legality** against the typed rule table
//!    ([`crate::check_solution`]),
//! 2. **round bounds** against the paper's envelopes
//!    ([`crate::check_envelope`]),
//! 3. **transcript consistency** — commitments re-derivable from the
//!    halt records alone, segment rounds equal to the latest halt, and
//!    the claimed total equal to the sum of segments. Monotone halting is
//!    structural here: the round-`r` frontier is *defined* as the nodes
//!    with halt round `>= r`, so a matching commitment chain proves the
//!    engine's frontier shrank exactly as the halt records say.

use crate::commit::{commit_round, COMMITMENT_OFFSET};
use crate::envelope::{check_envelope, Envelope};
use crate::error::CheckError;
use crate::rule::{
    check_solution, check_witness_kind, EdgePalette, MisWitness, Palette, Rule, Solution,
};
use std::fmt::Write as _;
use treelocal_graph::{widen_u64, Graph};

/// The format-version line every certificate must open with.
pub const FORMAT_VERSION: &str = "treelocal-cert v1";

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
    /// One chained frontier commitment per round.
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
    /// Serializes to the canonical `treelocal-cert v1` text. The output
    /// is byte-deterministic: equal certificates serialize identically.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{FORMAT_VERSION}");
        let _ = writeln!(s, "instance {}", self.instance);
        let _ = writeln!(s, "rule {}", rule_text(&self.rule));
        let _ = writeln!(s, "nodes {}", self.nodes);
        let _ = writeln!(s, "idspace {}", self.id_space);
        let _ = writeln!(s, "edges {}", self.edges.len());
        for &(u, v) in &self.edges {
            let _ = writeln!(s, "e {u} {v}");
        }
        if let Some(lists) = &self.lists {
            let _ = writeln!(s, "lists {}", lists.len());
            for (i, list) in lists.iter().enumerate() {
                let _ = write!(s, "l {i}");
                for c in list {
                    let _ = write!(s, " {c}");
                }
                s.push('\n');
            }
        }
        let _ = writeln!(s, "solution {}", self.solution.kind());
        match &self.solution {
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
        let _ = writeln!(s, "envelope {}", self.envelope.id());
        let _ = writeln!(s, "rounds {}", self.rounds);
        let _ = writeln!(s, "segments {}", self.segments.len());
        for seg in &self.segments {
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

    /// Parses canonical certificate text.
    pub fn parse(text: &str) -> Result<Certificate, CheckError> {
        let mut p = Parser { lines: text.lines().collect(), pos: 0 };
        let version = p.next("the format-version line")?;
        if version != FORMAT_VERSION {
            return Err(CheckError::VersionMismatch { found: version.to_string() });
        }
        let instance = p.keyword_rest("instance")?.to_string();
        let rule = parse_rule(p.keyword_rest("rule")?, p.pos)?;
        let nodes: usize = p.parse_field("nodes")?;
        let id_space: u64 = p.parse_field("idspace")?;
        let edge_count: usize = p.parse_field("edges")?;
        // Every count is untrusted: reserve at most one slot per line still
        // unread, so a lying header cannot force a huge allocation.
        let mut edges = Vec::with_capacity(edge_count.min(p.remaining()));
        for _ in 0..edge_count {
            let rest = p.keyword_rest("e")?;
            let (u, v) = parse_pair(rest, p.pos, "edge endpoints")?;
            edges.push((u, v));
        }
        let lists = if p.peek_keyword("lists") {
            let count: usize = p.parse_field("lists")?;
            let mut lists: Vec<Vec<u64>> = Vec::with_capacity(count.min(p.remaining()));
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
        let kind = p.keyword_rest("solution")?.trim().to_string();
        let kind_line = p.pos;
        let mut entries: Vec<(usize, usize, String)> = Vec::new();
        while p.peek_keyword("s") {
            let rest = p.keyword_rest("s")?;
            let (i, value) = split_index(rest, p.pos)?;
            entries.push((i, p.pos, value));
        }
        dense(&entries)?;
        let solution = parse_solution(&kind, kind_line, &entries)?;
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
        let mut segments = Vec::with_capacity(segment_count.min(p.remaining()));
        for _ in 0..segment_count {
            let rest = p.keyword_rest("segment")?;
            let (seg_rounds, participants) = parse_pair(rest, p.pos, "segment header")?;
            let mut halts = Vec::new();
            while p.peek_keyword("h") {
                let rest = p.keyword_rest("h")?;
                let (v, r) = parse_pair(rest, p.pos, "halt record")?;
                halts.push((v, r));
            }
            let mut commitments = Vec::new();
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
                commitments.push(c);
            }
            segments.push(Segment { rounds: seg_rounds, participants, halts, commitments });
        }
        let end = p.next("the end line")?;
        if end != "end" {
            return Err(CheckError::Format { line: p.pos, what: "the end line".to_string() });
        }
        if p.pos != p.lines.len() && p.lines[p.pos..].iter().any(|l| !l.trim().is_empty()) {
            return Err(CheckError::Format { line: p.pos + 1, what: "end of file".to_string() });
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

struct Parser<'a> {
    lines: Vec<&'a str>,
    /// Lines consumed so far == 1-based number of the last consumed line.
    pos: usize,
}

impl<'a> Parser<'a> {
    fn next(&mut self, what: &str) -> Result<&'a str, CheckError> {
        let line = self
            .lines
            .get(self.pos)
            .copied()
            .ok_or_else(|| CheckError::Format { line: self.pos + 1, what: what.to_string() })?;
        self.pos += 1;
        Ok(line)
    }

    /// Consumes a `keyword rest...` line, returning `rest`.
    fn keyword_rest(&mut self, keyword: &str) -> Result<&'a str, CheckError> {
        let line = self.next(&format!("a {keyword:?} line"))?;
        match line.strip_prefix(keyword) {
            Some(rest) if rest.starts_with(' ') || rest.is_empty() => Ok(rest.trim_start()),
            _ => Err(CheckError::Format { line: self.pos, what: format!("a {keyword:?} line") }),
        }
    }

    /// Lines not yet consumed — the cap on any count-driven reservation.
    fn remaining(&self) -> usize {
        self.lines.len() - self.pos
    }

    fn peek_keyword(&self, keyword: &str) -> bool {
        self.lines.get(self.pos).is_some_and(|l| l.split_ascii_whitespace().next() == Some(keyword))
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

fn split_index(rest: &str, line: usize) -> Result<(usize, String), CheckError> {
    let mut toks = rest.splitn(2, ' ');
    let i = parse_tok(toks.next(), line, "a witness index")?;
    let value = toks
        .next()
        .ok_or_else(|| CheckError::Format { line, what: "a witness value".to_string() })?;
    Ok((i, value.trim().to_string()))
}

/// Witness indices must be exactly `0, 1, 2, ...` — a gap is a dropped
/// witness, a repeat a duplicated one.
fn dense(entries: &[(usize, usize, String)]) -> Result<(), CheckError> {
    for (want, &(i, _, _)) in entries.iter().enumerate() {
        if i == want {
            continue;
        }
        if entries.iter().filter(|&&(j, _, _)| j == i).count() > 1 {
            return Err(CheckError::DuplicateWitness { index: i });
        }
        return Err(CheckError::MissingWitness { index: want });
    }
    Ok(())
}

fn parse_solution(
    kind: &str,
    kind_line: usize,
    entries: &[(usize, usize, String)],
) -> Result<Solution, CheckError> {
    match kind {
        "node-colors" | "edge-colors" => {
            let mut colors = Vec::with_capacity(entries.len());
            for &(_, line, ref value) in entries {
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
            for &(_, line, ref value) in entries {
                match value.as_str() {
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
            for &(_, line, ref value) in entries {
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
            }
            Ok(Solution::MisWitnesses(witnesses))
        }
        other => Err(CheckError::Format {
            line: kind_line,
            what: format!("a known solution kind, not {other:?}"),
        }),
    }
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
    let rule = match head {
        "coloring" => {
            let p = arg.and_then(|a| a.strip_prefix("palette=")).ok_or_else(bad)?;
            Rule::Coloring { palette: parse_palette(p, line)? }
        }
        "list-coloring" => Rule::ListColoring,
        "mis" => Rule::Mis,
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
        for (i, &found) in seg.commitments.iter().enumerate() {
            let round = widen_u64(i) + 1;
            // The round-`r` frontier, re-derived from the halt records:
            // every participant still running at round `r`, in ascending
            // (= commit) order.
            let frontier: Vec<u64> = seg
                .halts
                .iter()
                .filter(|&&(_, hr)| hr >= round)
                .map(|&(v, _)| widen_u64(v))
                .collect();
            let expected = commit_round(chain, round, &frontier);
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built, fully consistent MIS certificate on a 3-path: all
    /// three nodes run one round, then halt together.
    pub(crate) fn tiny_mis_cert() -> Certificate {
        let commitment = commit_round(COMMITMENT_OFFSET, 1, &[0, 1, 2]);
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
        let text = tiny_mis_cert().to_text().replace("treelocal-cert v1", "treelocal-cert v2");
        assert_eq!(
            check_text(&text),
            Err(CheckError::VersionMismatch { found: "treelocal-cert v2".to_string() })
        );
    }

    #[test]
    fn garbage_is_a_format_error_with_a_line() {
        let text = tiny_mis_cert().to_text().replace("nodes 3", "nodes three");
        assert!(matches!(check_text(&text), Err(CheckError::Format { line: 4, .. })));
    }

    /// Nine lines announcing a trillion edges: parsing must fail on the
    /// missing second edge line, not abort reserving 16 TB for the count.
    const HOSTILE_EDGE_COUNT: &str = "treelocal-cert v1
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
}
