//! The adversarial corruption suite: for every rule, a hand-built valid
//! certificate is accepted, and every corruption class is rejected with
//! its *specific* typed [`CheckError`] — never `Ok`, never a panic.
//!
//! Corruption classes covered (one test per rule, plus seeded sweeps):
//!
//! * flip an output witness (color / membership / MIS witness edge),
//! * drop a witness line,
//! * duplicate a witness line,
//! * decrement the claimed round count (total and per-segment),
//! * truncate the transcript (remove a commitment),
//! * perturb a commitment value,
//! * tamper with halt records (single halt, order, unknown node,
//!   participant count, two halt rounds swapped, one halt moved a round
//!   later) — caught structurally or by the chained commitments.

use treelocal_check::{
    check_text, commit_round, Certificate, CheckError, EdgePalette, Envelope, MisWitness, Palette,
    Rule, Segment, Solution, COMMITMENT_OFFSET,
};
use treelocal_graph::widen_u64;

// --- certificate builders -----------------------------------------------

fn path_edges(n: usize) -> Vec<(usize, usize)> {
    (0..n - 1).map(|i| (i, i + 1)).collect()
}

/// A one-round transcript in which all `n` nodes halt together: all `n`
/// are live in round 1 and all halt in it, so the single commitment is
/// derivable by hand.
fn one_round_segment(n: usize) -> Segment {
    let halted: Vec<u64> = (0..n).map(widen_u64).collect();
    Segment {
        rounds: 1,
        participants: n,
        halts: (0..n).map(|v| (v, 1u64)).collect(),
        commitments: vec![commit_round(COMMITMENT_OFFSET, 1, widen_u64(n), &halted)],
    }
}

/// The commitment chain of one segment starting at the offset, derived
/// from `halts` by the spec: round `r` folds the nodes with halt round
/// `>= r` as its live count and the nodes with halt round `r`.
fn chain_of(halts: &[(usize, u64)], rounds: u64) -> Vec<u64> {
    let mut chain = COMMITMENT_OFFSET;
    (1..=rounds)
        .map(|r| {
            let live = halts.iter().filter(|&&(_, h)| h >= r).count();
            let halted: Vec<u64> =
                halts.iter().filter(|&&(_, h)| h == r).map(|&(v, _)| widen_u64(v)).collect();
            chain = commit_round(chain, r, widen_u64(live), &halted);
            chain
        })
        .collect()
}

fn base_cert(
    rule: Rule,
    n: usize,
    solution: Solution,
    lists: Option<Vec<Vec<u64>>>,
) -> Certificate {
    Certificate {
        instance: "corruption-target".to_string(),
        rule,
        nodes: n,
        id_space: widen_u64(n),
        edges: path_edges(n),
        lists,
        solution,
        envelope: Envelope::None,
        rounds: 1,
        segments: vec![one_round_segment(n)],
    }
}

fn coloring_cert() -> Certificate {
    base_cert(
        Rule::Coloring { palette: Palette::DegreePlusOne },
        5,
        Solution::NodeColors(vec![1, 2, 1, 2, 1]),
        None,
    )
}

fn list_coloring_cert() -> Certificate {
    base_cert(
        Rule::ListColoring,
        3,
        Solution::NodeColors(vec![1, 2, 1]),
        Some(vec![vec![1, 2], vec![2, 3], vec![1, 3]]),
    )
}

fn mis_cert() -> Certificate {
    base_cert(
        Rule::Mis,
        3,
        Solution::MisWitnesses(vec![
            MisWitness::Member,
            MisWitness::NonMember { witness: 0 },
            MisWitness::Member,
        ]),
        None,
    )
}

fn matching_cert() -> Certificate {
    base_cert(Rule::Matching { b: 1 }, 5, Solution::EdgeSet(vec![true, false, true, false]), None)
}

fn edge_coloring_cert() -> Certificate {
    base_cert(
        Rule::EdgeColoring { palette: EdgePalette::EdgeDegreePlusOne },
        4,
        Solution::EdgeColors(vec![1, 2, 1]),
        None,
    )
}

// --- text-level corruption helpers --------------------------------------

/// Rewrites the first line starting with `prefix` into `replacement`
/// lines (empty = drop it). Panics if no line matches — a corruption that
/// misses its target would silently test nothing.
fn mutate_line(text: &str, prefix: &str, replacement: &[&str]) -> String {
    let mut out: Vec<&str> = Vec::new();
    let mut hit = false;
    for line in text.lines() {
        if !hit && line.starts_with(prefix) {
            out.extend(replacement);
            hit = true;
        } else {
            out.push(line);
        }
    }
    assert!(hit, "no line starts with {prefix:?}");
    out.join("\n") + "\n"
}

fn drop_line(text: &str, prefix: &str) -> String {
    mutate_line(text, prefix, &[])
}

fn dup_line(text: &str, prefix: &str) -> String {
    let line = text
        .lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no line starts with {prefix:?}"));
    mutate_line(text, prefix, &[line, line])
}

fn set_line(text: &str, prefix: &str, to: &str) -> String {
    mutate_line(text, prefix, &[to])
}

/// Swaps the first lines starting with `a` and `b`.
fn swap_lines(text: &str, a: &str, b: &str) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    let ia = lines.iter().position(|l| l.starts_with(a)).unwrap();
    let ib = lines.iter().position(|l| l.starts_with(b)).unwrap();
    lines.swap(ia, ib);
    lines.join("\n") + "\n"
}

fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// --- the shared transcript battery --------------------------------------

/// Applies every transcript corruption class to `cert` and pins the exact
/// rejection. `delta` seeds the commitment perturbation (must be nonzero).
fn transcript_battery(cert: &Certificate, delta: u64) {
    assert_ne!(delta, 0);
    let text = cert.to_text();
    assert_eq!(check_text(&text), Ok(()), "battery base certificate must be valid");
    let n = cert.nodes;
    let valid = cert.segments[0].commitments[0];

    // Decrement the claimed total round count.
    assert_eq!(
        check_text(&set_line(&text, "rounds ", "rounds 0")),
        Err(CheckError::RoundCountMismatch { claimed: 0, derived: 1 })
    );

    // Decrement the segment's rounds via its halt records: every halt
    // claims round 0, so the header's 1 round is no longer derivable.
    let mut decremented = text.clone();
    for v in 0..n {
        decremented = set_line(&decremented, &format!("h {v} "), &format!("h {v} 0"));
    }
    assert_eq!(
        check_text(&decremented),
        Err(CheckError::SegmentRoundsMismatch { segment: 0, claimed: 1, derived: 0 })
    );

    // Truncate the transcript: remove the round-1 commitment line.
    assert_eq!(
        check_text(&drop_line(&text, "c 1 ")),
        Err(CheckError::TranscriptTruncated { segment: 0, rounds: 1, commitments: 0 })
    );

    // Perturb the commitment value.
    let found = valid ^ delta;
    assert_eq!(
        check_text(&set_line(&text, "c 1 ", &format!("c 1 {found:016x}"))),
        Err(CheckError::CommitmentMismatch { segment: 0, round: 1, expected: valid, found })
    );

    // Tamper with a single halt record: node n-1 claims to have halted at
    // seeding. The header still derives 1 round, so only the re-derived
    // round commitment can catch it — and does: one node fewer is live in
    // round 1 and halts in it.
    let last = n - 1;
    let tampered = set_line(&text, &format!("h {last} "), &format!("h {last} 0"));
    let shrunk: Vec<u64> = (0..last).map(widen_u64).collect();
    assert_eq!(
        check_text(&tampered),
        Err(CheckError::CommitmentMismatch {
            segment: 0,
            round: 1,
            expected: commit_round(COMMITMENT_OFFSET, 1, widen_u64(last), &shrunk),
            found: valid,
        })
    );

    // A halt after the segment ended.
    assert_eq!(
        check_text(&set_line(&text, "h 0 ", "h 0 7")),
        Err(CheckError::HaltBeyondSegment { segment: 0, node: 0, round: 7, rounds: 1 })
    );

    // Halt records out of node order.
    assert_eq!(
        check_text(&swap_lines(&text, "h 0 ", "h 1 ")),
        Err(CheckError::UnsortedHalts { segment: 0, node: 0 })
    );

    // A halt record for a node outside the instance.
    assert_eq!(
        check_text(&set_line(&text, &format!("h {last} "), &format!("h {n} 1"))),
        Err(CheckError::UnknownNode { segment: 0, node: n })
    );

    // A lying participant count.
    assert_eq!(
        check_text(&set_line(&text, "segment ", &format!("segment 1 {}", n - 1))),
        Err(CheckError::ParticipantCountMismatch { segment: 0, claimed: n - 1, found: n })
    );

    // Dropping a halt record is also a participant mismatch.
    assert_eq!(
        check_text(&drop_line(&text, "h 1 ")),
        Err(CheckError::ParticipantCountMismatch { segment: 0, claimed: n, found: n - 1 })
    );
}

// --- one test per rule ---------------------------------------------------

#[test]
fn coloring_corruptions_are_rejected_with_typed_errors() {
    let cert = coloring_cert();
    let text = cert.to_text();
    assert_eq!(check_text(&text), Ok(()));
    // Flip node 1's color onto its neighbor's.
    assert_eq!(
        check_text(&set_line(&text, "s 1 ", "s 1 1")),
        Err(CheckError::ImproperColor { edge: 0, color: 1 })
    );
    // Flip a leaf past its deg+1 palette.
    assert_eq!(
        check_text(&set_line(&text, "s 0 ", "s 0 3")),
        Err(CheckError::PaletteExceeded { node: 0, color: 3, limit: 2 })
    );
    // Flip to the reserved color 0.
    assert_eq!(
        check_text(&set_line(&text, "s 0 ", "s 0 0")),
        Err(CheckError::ColorZero { node: 0 })
    );
    assert_eq!(check_text(&drop_line(&text, "s 1 ")), Err(CheckError::MissingWitness { index: 1 }));
    assert_eq!(
        check_text(&dup_line(&text, "s 1 ")),
        Err(CheckError::DuplicateWitness { index: 1 })
    );
    transcript_battery(&cert, 0xdead_beef);
}

#[test]
fn list_coloring_corruptions_are_rejected_with_typed_errors() {
    let cert = list_coloring_cert();
    let text = cert.to_text();
    assert_eq!(check_text(&text), Ok(()));
    // Flip node 1 to a color outside its list.
    assert_eq!(
        check_text(&set_line(&text, "s 1 ", "s 1 4")),
        Err(CheckError::ColorNotInList { node: 1, color: 4 })
    );
    // Flip node 0 to the listed color its neighbor holds.
    assert_eq!(
        check_text(&set_line(&text, "s 0 ", "s 0 2")),
        Err(CheckError::ImproperColor { edge: 0, color: 2 })
    );
    // Drop a node's list entirely (struct-level: the text parser would
    // reject the stray `l` line as a format error before counting).
    let mut short = cert.clone();
    short.lists.as_mut().unwrap().pop();
    assert_eq!(
        treelocal_check::check_certificate(&short),
        Err(CheckError::ListCount { expected: 3, found: 2 })
    );
    assert_eq!(check_text(&drop_line(&text, "s 1 ")), Err(CheckError::MissingWitness { index: 1 }));
    assert_eq!(
        check_text(&dup_line(&text, "s 1 ")),
        Err(CheckError::DuplicateWitness { index: 1 })
    );
    transcript_battery(&cert, 0x1234_5678);
}

#[test]
fn mis_corruptions_are_rejected_with_typed_errors() {
    let cert = mis_cert();
    let text = cert.to_text();
    assert_eq!(check_text(&text), Ok(()));
    // Flip the blocked node into the set.
    assert_eq!(
        check_text(&set_line(&text, "s 1 ", "s 1 M")),
        Err(CheckError::NotIndependent { edge: 0 })
    );
    // Redirect its maximality witness to a non-existent edge.
    assert_eq!(
        check_text(&set_line(&text, "s 1 ", "s 1 P 9")),
        Err(CheckError::WitnessNotIncident { node: 1, edge: 9 })
    );
    // Flip a member out of the set: node 0 now points along edge 0 at
    // node 1, which is also a non-member.
    assert_eq!(
        check_text(&set_line(&text, "s 0 ", "s 0 P 0")),
        Err(CheckError::WitnessNotMember { node: 0, edge: 0 })
    );
    assert_eq!(check_text(&drop_line(&text, "s 1 ")), Err(CheckError::MissingWitness { index: 1 }));
    assert_eq!(
        check_text(&dup_line(&text, "s 1 ")),
        Err(CheckError::DuplicateWitness { index: 1 })
    );
    transcript_battery(&cert, 0xfeed_f00d);
}

#[test]
fn matching_corruptions_are_rejected_with_typed_errors() {
    let cert = matching_cert();
    let text = cert.to_text();
    assert_eq!(check_text(&text), Ok(()));
    // Flip edge 1 into the matching: node 1 is now doubly saturated.
    assert_eq!(
        check_text(&set_line(&text, "s 1 ", "s 1 1")),
        Err(CheckError::OverSaturated { node: 1, chosen: 2, limit: 1 })
    );
    // Flip edge 0 out: both its endpoints regain capacity.
    assert_eq!(
        check_text(&set_line(&text, "s 0 ", "s 0 0")),
        Err(CheckError::MatchingNotMaximal { edge: 0 })
    );
    // Re-label the witness kind: 0/1 entries parse as colors, but the
    // rule table refuses the kind before looking at values.
    assert_eq!(
        check_text(&set_line(&text, "solution ", "solution node-colors")),
        Err(CheckError::WitnessKind { rule: "matching", found: "node-colors" })
    );
    assert_eq!(check_text(&drop_line(&text, "s 1 ")), Err(CheckError::MissingWitness { index: 1 }));
    assert_eq!(
        check_text(&dup_line(&text, "s 1 ")),
        Err(CheckError::DuplicateWitness { index: 1 })
    );
    transcript_battery(&cert, 0x0bad_cafe);
}

#[test]
fn edge_coloring_corruptions_are_rejected_with_typed_errors() {
    let cert = edge_coloring_cert();
    let text = cert.to_text();
    assert_eq!(check_text(&text), Ok(()));
    // Flip edge 2's color onto its neighbor's: node 2 sees color 2 twice.
    assert_eq!(
        check_text(&set_line(&text, "s 2 ", "s 2 2")),
        Err(CheckError::ImproperEdgeColor { node: 2, color: 2 })
    );
    // Flip the middle edge past its edge-degree palette.
    assert_eq!(
        check_text(&set_line(&text, "s 0 ", "s 0 4")),
        Err(CheckError::EdgePaletteExceeded { edge: 0, color: 4, limit: 2 })
    );
    // Flip to the reserved color 0.
    assert_eq!(
        check_text(&set_line(&text, "s 0 ", "s 0 0")),
        Err(CheckError::EdgeColorZero { edge: 0 })
    );
    assert_eq!(check_text(&drop_line(&text, "s 1 ")), Err(CheckError::MissingWitness { index: 1 }));
    assert_eq!(
        check_text(&dup_line(&text, "s 1 ")),
        Err(CheckError::DuplicateWitness { index: 1 })
    );
    transcript_battery(&cert, 0xcafe_d00d);
}

// --- seeded sweeps -------------------------------------------------------

/// Every seeded commitment perturbation is located exactly — any nonzero
/// flip of any cert's commitment yields `CommitmentMismatch` at segment 0
/// round 1, never `Ok`, never a different variant.
#[test]
fn seeded_commitment_perturbations_are_always_located() {
    let certs =
        [coloring_cert(), list_coloring_cert(), mis_cert(), matching_cert(), edge_coloring_cert()];
    for seed in 0..40u64 {
        let cert = &certs[usize::try_from(splitmix(seed) % 5).unwrap()];
        let delta = splitmix(seed.wrapping_add(1000)) | 1;
        let valid = cert.segments[0].commitments[0];
        let found = valid ^ delta;
        let corrupted = set_line(&cert.to_text(), "c 1 ", &format!("c 1 {found:016x}"));
        assert_eq!(
            check_text(&corrupted),
            Err(CheckError::CommitmentMismatch { segment: 0, round: 1, expected: valid, found }),
            "seed {seed}"
        );
    }
}

/// A three-round MIS certificate on a 6-path: node `v` halts in round
/// `v % 3 + 1`, so every round has halts of its own.
fn three_round_mis_cert() -> Certificate {
    let halts: Vec<(usize, u64)> = (0..6).map(|v| (v, widen_u64(v % 3) + 1)).collect();
    let commitments = chain_of(&halts, 3);
    Certificate {
        rounds: 3,
        segments: vec![Segment { rounds: 3, participants: 6, halts, commitments }],
        ..base_cert(
            Rule::Mis,
            6,
            Solution::MisWitnesses(vec![
                MisWitness::Member,
                MisWitness::NonMember { witness: 0 },
                MisWitness::Member,
                MisWitness::NonMember { witness: 2 },
                MisWitness::Member,
                MisWitness::NonMember { witness: 4 },
            ]),
            None,
        )
    }
}

/// The mismatch `tampered` halts give against `cert`'s recorded chain,
/// at `round`.
fn mismatch_at(cert: &Certificate, tampered: &[(usize, u64)], round: u64) -> CheckError {
    let i = usize::try_from(round - 1).unwrap();
    CheckError::CommitmentMismatch {
        segment: 0,
        round,
        expected: chain_of(tampered, cert.rounds)[i],
        found: cert.segments[0].commitments[i],
    }
}

/// Two nodes that halted in different rounds trade their halt rounds. The
/// live counts and the per-round halt counts are unchanged, so only the
/// halted nodes themselves can tell — at the earlier of the two rounds.
#[test]
fn swapped_halt_rounds_mismatch_at_the_earlier_round() {
    let cert = three_round_mis_cert();
    let text = cert.to_text();
    assert_eq!(check_text(&text), Ok(()));
    // Node 1 halts in round 2 and node 2 in round 3.
    let swapped = set_line(&set_line(&text, "h 1 ", "h 1 3"), "h 2 ", "h 2 2");
    let mut tampered = cert.segments[0].halts.clone();
    tampered[1].1 = 3;
    tampered[2].1 = 2;
    assert_eq!(check_text(&swapped), Err(mismatch_at(&cert, &tampered, 2)));
}

/// One halt moves one round later: the rounds before it are untouched,
/// and its true round is the first to mismatch.
#[test]
fn a_halt_moved_one_round_later_mismatches_at_its_true_round() {
    let cert = three_round_mis_cert();
    let text = cert.to_text();
    // Node 4 halts in round 2; the record claims round 3.
    let later = set_line(&text, "h 4 ", "h 4 3");
    let mut tampered = cert.segments[0].halts.clone();
    tampered[4].1 = 3;
    assert_eq!(check_text(&later), Err(mismatch_at(&cert, &tampered, 2)));
}

/// Seeded witness-line drops are always a `MissingWitness` at exactly the
/// dropped index (the certificates are small enough that any non-final
/// index is a gap).
#[test]
fn seeded_witness_drops_name_the_dropped_index() {
    let certs = [coloring_cert(), list_coloring_cert(), mis_cert(), matching_cert()];
    for seed in 0..32u64 {
        let cert = &certs[usize::try_from(splitmix(seed) % 4).unwrap()];
        let witnesses = match &cert.solution {
            Solution::NodeColors(c) => c.len(),
            Solution::EdgeSet(s) => s.len(),
            Solution::MisWitnesses(w) => w.len(),
            _ => unreachable!(),
        };
        // Drop any index but the last — a trailing drop is a count
        // mismatch, not a gap.
        let index =
            usize::try_from(splitmix(seed.wrapping_add(2000)) % widen_u64(witnesses - 1)).unwrap();
        let corrupted = drop_line(&cert.to_text(), &format!("s {index} "));
        assert_eq!(
            check_text(&corrupted),
            Err(CheckError::MissingWitness { index }),
            "seed {seed}"
        );
    }
}

/// Dropping the *final* witness line is a count mismatch — the indices
/// stay dense, but the instance demands one more witness.
#[test]
fn trailing_witness_drops_are_a_count_mismatch() {
    let cert = coloring_cert();
    let corrupted = drop_line(&cert.to_text(), "s 4 ");
    assert_eq!(check_text(&corrupted), Err(CheckError::WitnessCount { expected: 5, found: 4 }));
}
