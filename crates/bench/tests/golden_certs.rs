//! Golden certificate regression: the quick-profile certificate suite is
//! pinned byte-for-byte against committed `.cert` fixtures.
//!
//! Certificates are fully deterministic (seeded instances, deterministic
//! engines, chained frontier commitments), so any engine or transcript
//! change that moves a halt round, a commitment, or a single output color
//! fails this test loudly instead of silently re-signing the run. The
//! fixtures also pin the `treelocal-cert v2` wire format itself: a parser
//! or serializer change that alters bytes is a format break and must bump
//! the version line.
//!
//! To regenerate after an *intentional* change:
//!
//! ```sh
//! GOLDEN_REGEN=1 cargo test -p treelocal-bench --test golden_certs
//! ```

use std::path::PathBuf;
use treelocal_bench::{cert_suite, ExperimentSize};
use treelocal_check::{check_text, CheckError, FORMAT_VERSION};

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/quick_certs")
}

#[test]
fn quick_certificates_match_committed_fixtures() {
    let suite = cert_suite(ExperimentSize::Quick, None);
    let dir = fixture_dir();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(&dir).unwrap();
        for (name, cert) in &suite {
            std::fs::write(dir.join(format!("{name}.cert")), cert.to_text()).unwrap();
        }
        eprintln!("golden_certs: regenerated {} fixtures in {}", suite.len(), dir.display());
        return;
    }
    for (name, cert) in &suite {
        let path = dir.join(format!("{name}.cert"));
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden fixture {} ({e}); regenerate with \
                 GOLDEN_REGEN=1 cargo test -p treelocal-bench --test golden_certs",
                path.display()
            )
        });
        assert_eq!(
            cert.to_text(),
            expected,
            "certificate {name} drifted from its fixture; an engine/transcript change moved \
             run bytes — if intentional, regenerate with GOLDEN_REGEN=1"
        );
    }
    // No stale fixtures: every committed .cert must still be emitted.
    let mut fixtures: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    fixtures.sort();
    let mut emitted: Vec<String> = suite.iter().map(|(n, _)| format!("{n}.cert")).collect();
    emitted.sort();
    assert_eq!(fixtures, emitted, "fixture directory and emitted suite disagree");
}

#[test]
fn committed_fixtures_validate_under_the_checker() {
    let dir = fixture_dir();
    let mut seen = 0usize;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.starts_with(FORMAT_VERSION),
            "{} does not announce {FORMAT_VERSION}",
            path.display()
        );
        assert_eq!(check_text(&text), Ok(()), "{} rejected", path.display());
        seen += 1;
    }
    assert!(seen >= 18, "only {seen} fixtures present");
}

#[test]
fn future_format_versions_are_rejected() {
    let dir = fixture_dir();
    let sample = std::fs::read_dir(&dir).unwrap().next().unwrap().unwrap().path();
    let text = std::fs::read_to_string(&sample).unwrap();
    let bumped = text.replacen("treelocal-cert v2", "treelocal-cert v3", 1);
    assert_eq!(
        check_text(&bumped),
        Err(CheckError::VersionMismatch { found: "treelocal-cert v3".to_string() }),
        "a bumped version line must be rejected, not guessed at"
    );
}

/// A v1 certificate commits whole frontiers per round: read as v2, every
/// one of its commitments would mismatch. It is rejected by its version
/// line instead.
#[test]
fn v1_certificates_are_rejected_by_version() {
    let path = fixture_dir().join("mis-pipeline-tree.cert");
    let text = std::fs::read_to_string(&path).unwrap();
    let v1 = text.replacen("treelocal-cert v2", "treelocal-cert v1", 1);
    assert_eq!(
        check_text(&v1),
        Err(CheckError::VersionMismatch { found: "treelocal-cert v1".to_string() })
    );
}
