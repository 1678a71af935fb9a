//! The certificate acceptance matrix:
//!
//! * every certificate of the quick suite validates under the engine-blind
//!   checker, and round-trips through the text format;
//! * the snapshot- and message-engine Linial certificates are
//!   byte-identical;
//! * pool sizes 1, 2, 4 and auto emit byte-identical certificates —
//!   scheduling must never leak into the transcript.

use treelocal_bench::{cert_suite, ExperimentSize};
use treelocal_check::{check_certificate, check_text, Certificate};

#[test]
fn every_quick_certificate_validates_and_round_trips() {
    let suite = cert_suite(ExperimentSize::Quick, None);
    assert!(suite.len() >= 18, "suite unexpectedly small: {}", suite.len());
    for (name, cert) in &suite {
        assert_eq!(check_certificate(cert), Ok(()), "{name} rejected");
        let text = cert.to_text();
        assert_eq!(check_text(&text), Ok(()), "{name} rejected after serialization");
        let reparsed = Certificate::parse(&text).unwrap();
        assert_eq!(&reparsed, cert, "{name} did not round-trip");
    }
}

#[test]
fn engine_runs_carry_real_transcripts() {
    let suite = cert_suite(ExperimentSize::Quick, None);
    for (name, cert) in &suite {
        if name.starts_with("linial-") || name.starts_with("mis-pipeline-") {
            assert!(cert.rounds > 0, "{name} claims zero rounds");
            assert!(!cert.segments.is_empty(), "{name} has no transcript");
        }
        if name.starts_with("mis-pipeline-") {
            // Linial + at least one KW phase + the sweep.
            assert!(cert.segments.len() >= 3, "{name}: {} segments", cert.segments.len());
        }
    }
}

#[test]
fn snapshot_and_message_engines_emit_identical_bytes() {
    let suite = cert_suite(ExperimentSize::Quick, None);
    let text_of = |name: &str| {
        suite
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c.to_text())
            .unwrap_or_else(|| panic!("{name} missing from suite"))
    };
    for label in ["tree", "caterpillar"] {
        assert_eq!(
            text_of(&format!("linial-snapshot-{label}")),
            text_of(&format!("linial-message-{label}")),
            "engine certificates diverge on {label}"
        );
    }
}

/// Scheduling independence: every pool size emits the same bytes.
#[test]
fn pool_sizes_emit_identical_bytes() {
    let baseline: Vec<(String, String)> = cert_suite(ExperimentSize::Quick, None)
        .iter()
        .map(|(n, c)| (n.clone(), c.to_text()))
        .collect();
    for threads in [1usize, 2, 4, treelocal_bench::auto_threads()] {
        let run: Vec<(String, String)> = cert_suite(ExperimentSize::Quick, Some(threads))
            .iter()
            .map(|(n, c)| (n.clone(), c.to_text()))
            .collect();
        assert_eq!(baseline, run, "certificates diverged at pool size {threads}");
    }
}
