//! End-to-end behavior of `experiments --emit-certs`: the emitted
//! directory validates under `treelocal-check`, and the failure paths
//! (missing argument, unusable directory) exit 2 with usage before any
//! experiment runs.

use std::path::PathBuf;
use std::process::Command;

fn exe() -> &'static str {
    env!("CARGO_BIN_EXE_experiments")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("emit-certs-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn missing_directory_argument_exits_2_in_any_flag_order() {
    for args in [
        vec!["--quick", "--emit-certs"],
        vec!["--emit-certs", "--quick", "e2"],
        vec!["e2", "--emit-certs", "--threads", "2"],
        vec!["--emit-certs="],
    ] {
        let out = Command::new(exe()).args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--emit-certs needs a directory"), "{args:?}: {err}");
        assert!(err.contains("usage:"), "{args:?}: {err}");
    }
}

#[test]
fn unusable_directory_exits_2_before_running_anything() {
    let dir = scratch("unwritable");
    // A regular file as a path component defeats create_dir_all even for
    // root (permission bits would not).
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, b"not a directory").unwrap();
    let target = blocker.join("certs");
    let out = Command::new(exe())
        .args(["--quick", "--emit-certs"])
        .arg(&target)
        .arg("e2")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot write to"), "{err}");
    assert!(err.contains("usage:"), "{err}");
    // Fail-fast: the e2 sweep must not have run first.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("[e2 done"), "{stdout}");
}

#[test]
fn emitted_directory_validates_under_the_checker() {
    let dir = scratch("valid");
    let certs = dir.join("certs");
    let out = Command::new(exe())
        .args(["--quick", "--emit-certs"])
        .arg(&certs)
        .arg("e2")
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let mut seen = 0usize;
    for entry in std::fs::read_dir(&certs).unwrap() {
        let path = entry.unwrap().path();
        assert_eq!(path.extension().unwrap(), "cert", "{}", path.display());
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(treelocal_check::check_text(&text), Ok(()), "{} rejected", path.display());
        seen += 1;
    }
    assert!(seen >= 18, "only {seen} certificates emitted");
}
