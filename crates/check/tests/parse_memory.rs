//! The parser's memory pin: parsing a large certificate, or a hostile one
//! whose headers claim huge counts, may grow the process's resident-set
//! high-water mark by at most a fixed multiple of the text length.
//!
//! This is a test target of its own, and its tests take one lock, so that
//! no other test allocates in the same process while the high-water mark
//! is read. The mark is reset through `/proc/self/clear_refs` (Linux);
//! where `/proc` is unavailable the tests have nothing to measure and
//! return after parsing.

use std::sync::{Mutex, PoisonError};
use treelocal_check::{
    check_certificate, commit_round, Certificate, CheckError, Envelope, MisWitness, Rule, Segment,
    Solution, COMMITMENT_OFFSET,
};
use treelocal_graph::widen_u64;

/// Held by each test for its whole run: one measurement at a time.
static PROBE: Mutex<()> = Mutex::new(());

/// Nodes of the test instance: a 12 MB certificate.
const NODES: usize = 200_000;

/// Segment headers of the hostile instance: a 1 MB certificate.
const HOSTILE_SEGMENTS: usize = 20_000;

/// Resident-set growth allowed while parsing, per byte of text. The
/// parsed certificate itself takes about 1.3 bytes per byte of either
/// test's text; a table of every line (16 bytes a line), an allocation
/// per witness line or a reservation per lying header on top breaks the
/// bound.
const MAX_GROWTH_PER_TEXT_BYTE: f64 = 2.0;

fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A valid MIS certificate on a random recursive tree (node `v` hangs off
/// a random earlier node through edge `v - 1`), with three multi-round
/// transcript segments whose halt rounds are pseudo-random.
fn large_mis_cert(n: usize) -> Certificate {
    let parent: Vec<usize> =
        (1..n).map(|v| usize::try_from(splitmix(widen_u64(v)) % widen_u64(v)).unwrap()).collect();
    let edges: Vec<(usize, usize)> = parent.iter().enumerate().map(|(i, &p)| (p, i + 1)).collect();
    // Greedy in node order: a node joins unless its parent did, and a
    // non-member's witness is the edge to its (member) parent.
    let mut member = vec![true; n];
    for v in 1..n {
        member[v] = !member[parent[v - 1]];
    }
    let witnesses =
        (0..n)
            .map(|v| {
                if member[v] {
                    MisWitness::Member
                } else {
                    MisWitness::NonMember { witness: v - 1 }
                }
            })
            .collect();
    let mut chain = COMMITMENT_OFFSET;
    let segments: Vec<Segment> = [5u64, 9, 3]
        .iter()
        .enumerate()
        .map(|(s, &rounds)| {
            // Node 0 runs the whole segment, so the segment's rounds
            // are derivable from its halts.
            let halts: Vec<(usize, u64)> = (0..n)
                .map(|v| {
                    let r = splitmix(widen_u64(v) ^ (widen_u64(s) << 40)) % (rounds + 1);
                    (v, if v == 0 { rounds } else { r })
                })
                .collect();
            let commitments = (1..=rounds)
                .map(|round| {
                    let live = halts.iter().filter(|&&(_, hr)| hr >= round).count();
                    let halted: Vec<u64> = halts
                        .iter()
                        .filter(|&&(_, hr)| hr == round)
                        .map(|&(v, _)| widen_u64(v))
                        .collect();
                    chain = commit_round(chain, round, widen_u64(live), &halted);
                    chain
                })
                .collect();
            Segment { rounds, participants: n, halts, commitments }
        })
        .collect();
    Certificate {
        instance: "parse-memory".to_string(),
        rule: Rule::Mis,
        nodes: n,
        id_space: widen_u64(n),
        edges,
        lists: None,
        solution: Solution::MisWitnesses(witnesses),
        envelope: Envelope::None,
        rounds: segments.iter().map(|s| s.rounds).sum(),
        segments,
    }
}

fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `(VmHWM, VmRSS)` in kB, or `None` where `/proc` is unavailable.
fn rss_kb() -> Option<(u64, u64)> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let field = |name: &str| -> Option<u64> {
        let line = status.lines().find(|l| l.starts_with(name))?;
        line.split_whitespace().nth(1)?.parse().ok()
    };
    Some((field("VmHWM:")?, field("VmRSS:")?))
}

/// Parses `text` between a reset of the high-water mark and a read of it.
/// Returns the parse and, where `/proc` is available, how many times the
/// text's length the high-water mark grew.
fn parse_growth(text: &str) -> (Result<Certificate, CheckError>, Option<f64>) {
    reset_peak_rss();
    let before = rss_kb();
    let parsed = Certificate::parse(text);
    let after = rss_kb();
    let ratio = before.zip(after).map(|((_, rss_before), (peak_after, _))| {
        peak_after.saturating_sub(rss_before) as f64 * 1024.0 / text.len() as f64
    });
    if let Some(ratio) = ratio {
        eprintln!("parse of {} bytes grew the peak RSS by {ratio:.2}x the text", text.len());
    }
    (parsed, ratio)
}

fn assert_bounded(ratio: Option<f64>) {
    if let Some(ratio) = ratio {
        assert!(
            ratio <= MAX_GROWTH_PER_TEXT_BYTE,
            "parsing grew the peak RSS by {ratio:.2}x the text (bound {MAX_GROWTH_PER_TEXT_BYTE}x)"
        );
    }
}

#[test]
fn parsing_grows_peak_memory_by_a_bounded_multiple_of_the_text() {
    let _probe = PROBE.lock().unwrap_or_else(PoisonError::into_inner);
    // The source certificate stays alive and is checked only afterwards,
    // so the parse cannot reuse freed pages: the growth counts every
    // byte the parse touches.
    let cert = large_mis_cert(NODES);
    let text = cert.to_text();
    let (parsed, ratio) = parse_growth(&text);
    let parsed = parsed.unwrap();
    assert!(parsed == cert);
    assert_eq!(check_certificate(&parsed), Ok(()));
    assert_bounded(ratio);
}

/// Every segment header claims `usize::MAX` participants and `u64::MAX`
/// rounds and is followed by no halt or commitment line. Reserving each
/// claim up to the lines still unread would reserve memory quadratic in
/// the text; the parser's one budget of a slot per line keeps it linear.
#[test]
fn lying_segment_headers_cannot_reserve_more_than_the_text() {
    let _probe = PROBE.lock().unwrap_or_else(PoisonError::into_inner);
    let mut text = format!(
        "treelocal-cert v2\ninstance hostile\nrule mis\nnodes 1\nidspace 1\nedges 0\n\
         solution mis-witness\ns 0 M\nenvelope none\nrounds 0\nsegments {HOSTILE_SEGMENTS}\n"
    );
    for _ in 0..HOSTILE_SEGMENTS {
        text.push_str(&format!("segment {} {}\n", u64::MAX, usize::MAX));
    }
    text.push_str("end\n");
    let (parsed, ratio) = parse_growth(&text);
    let parsed = parsed.unwrap();
    assert_eq!(parsed.segments.len(), HOSTILE_SEGMENTS);
    assert_eq!(
        check_certificate(&parsed),
        Err(CheckError::ParticipantCountMismatch { segment: 0, claimed: usize::MAX, found: 0 })
    );
    assert_bounded(ratio);
}
