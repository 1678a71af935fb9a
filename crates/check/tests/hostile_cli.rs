//! The checker exists to judge untrusted input, so a certificate whose
//! header lies about its counts must be a typed rejection (exit 1), never
//! an allocation abort. The nine-line certificate below announces a
//! trillion edges; before the parser capped its reservations by the lines
//! still unread, `treelocal-check` died reserving 16 TB for it. The two
//! eleven-line certificates announce 4,294,967,295 nodes; before the
//! checker bounded `nodes` by the certificate's own lines, building their
//! graph died reserving 16 GB. A certificate that is not UTF-8 text is a
//! `FAIL` line like any other malformed one, and the files after it are
//! still checked. A directory named twice is checked once. A certificate
//! of the retired `treelocal-cert v1` format is one `FAIL` line naming its
//! version. A golden certificate saved with CRLF line ends, or with one
//! number signed or zero-padded, is one `FAIL` line at that line, and the
//! next file is still checked.

use std::path::PathBuf;
use std::process::Command;
use treelocal_check::{check_text, CheckError};

const HOSTILE: &str = "treelocal-cert v2
instance hostile
rule mis
nodes 2
idspace 2
edges 1000000000000
e 0 1
solution mis
end
";

/// Node-indexed: one solution entry per node is required, none given.
const HOSTILE_NODES_MIS: &str = "treelocal-cert v2
instance hostile
rule mis
nodes 4294967295
idspace 2
edges 0
solution node-set
envelope none
rounds 0
segments 0
end
";

/// Edge-indexed: no edge can cover the declared nodes.
const HOSTILE_NODES_MATCHING: &str = "treelocal-cert v2
instance hostile
rule matching b=1
nodes 4294967295
idspace 2
edges 0
solution edge-set
envelope none
rounds 0
segments 0
end
";

/// Runs the `treelocal-check` binary on `text` and asserts the typed
/// rejection: exit code 1 and a `FAIL` line.
fn assert_cli_rejects(file: &str, text: &str) {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(file);
    std::fs::write(&path, text).expect("write the hostile certificate");
    let out = Command::new(env!("CARGO_BIN_EXE_treelocal-check"))
        .arg(&path)
        .output()
        .expect("run treelocal-check");
    assert_eq!(out.status.code(), Some(1), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("FAIL "));
}

#[test]
fn a_trillion_edge_header_is_rejected_with_exit_1() {
    assert!(matches!(check_text(HOSTILE), Err(CheckError::Format { .. })));
    assert_cli_rejects("hostile-edge-count.cert", HOSTILE);
}

#[test]
fn a_four_billion_node_header_is_rejected_with_exit_1() {
    assert_eq!(
        check_text(HOSTILE_NODES_MIS),
        Err(CheckError::WitnessCount { expected: 4_294_967_295, found: 0 })
    );
    assert_cli_rejects("hostile-node-count-mis.cert", HOSTILE_NODES_MIS);
    assert!(matches!(check_text(HOSTILE_NODES_MATCHING), Err(CheckError::BadInstance { .. })));
    assert_cli_rejects("hostile-node-count-matching.cert", HOSTILE_NODES_MATCHING);
}

#[test]
fn a_v1_certificate_is_one_fail_line_naming_the_version() {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../bench/tests/golden/quick_certs/mis-pipeline-tree.cert");
    let text = std::fs::read_to_string(&golden).expect("read the golden certificate");
    let v1 = text.replacen("treelocal-cert v2", "treelocal-cert v1", 1);
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("v1-header.cert");
    std::fs::write(&path, v1).expect("write the v1 certificate");
    let out = Command::new(env!("CARGO_BIN_EXE_treelocal-check"))
        .arg(&path)
        .output()
        .expect("run treelocal-check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1, "{stdout}");
    assert!(lines[0].starts_with("FAIL "), "{stdout}");
    assert!(
        lines[0]
            .ends_with("v1-header.cert: unsupported certificate version: \"treelocal-cert v1\""),
        "{stdout}"
    );
}

#[test]
fn a_non_utf8_certificate_fails_and_the_next_file_is_still_checked() {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../bench/tests/golden/quick_certs/mis-pipeline-tree.cert");
    let text = std::fs::read(&golden).expect("read the golden certificate");
    // One invalid byte at the start of line 3.
    let line3 = text.iter().enumerate().filter(|&(_, &b)| b == b'\n').nth(1).unwrap().0 + 1;
    let mut bad = text.clone();
    bad[line3] = 0xFF;
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("non-utf8");
    std::fs::create_dir_all(&dir).expect("create the certificate directory");
    std::fs::write(dir.join("a-bad.cert"), &bad).expect("write the bad certificate");
    std::fs::write(dir.join("b-golden.cert"), &text).expect("write the golden certificate");
    let out = Command::new(env!("CARGO_BIN_EXE_treelocal-check"))
        .arg(&dir)
        .output()
        .expect("run treelocal-check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(
        lines[0].starts_with("FAIL ")
            && lines[0].ends_with("a-bad.cert: line 3: expected UTF-8 text")
    );
    assert!(lines[1].starts_with("OK ") && lines[1].ends_with("b-golden.cert"));
}

#[test]
fn a_directory_named_twice_is_checked_once() {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../bench/tests/golden/quick_certs/mis-pipeline-tree.cert");
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("named-twice");
    std::fs::create_dir_all(&dir).expect("create the certificate directory");
    std::fs::write(dir.join("a-hostile.cert"), HOSTILE).expect("write the hostile certificate");
    std::fs::copy(&golden, dir.join("b-golden.cert")).expect("copy the golden certificate");
    let out = Command::new(env!("CARGO_BIN_EXE_treelocal-check"))
        .arg(&dir)
        .arg(&dir)
        .arg(dir.join("b-golden.cert"))
        .output()
        .expect("run treelocal-check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    assert!(lines[0].starts_with("FAIL ") && lines[0].contains("a-hostile.cert"));
    assert!(lines[1].starts_with("OK ") && lines[1].ends_with("b-golden.cert"));
    assert_eq!(stderr.trim(), "1 of 2 certificates rejected");
}

#[test]
fn a_certificate_reached_by_two_spellings_is_checked_once() {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../bench/tests/golden/quick_certs/mis-pipeline-tree.cert");
    let parent = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let dir = parent.join("two-spellings");
    std::fs::create_dir_all(&dir).expect("create the certificate directory");
    std::fs::write(dir.join("a-hostile.cert"), HOSTILE).expect("write the hostile certificate");
    std::fs::copy(&golden, dir.join("b-golden.cert")).expect("copy the golden certificate");
    // A third spelling inside the directory: whichever of the two names
    // the directory lists first, the smaller one is kept.
    #[cfg(unix)]
    {
        let link = dir.join("c-link.cert");
        let _ = std::fs::remove_file(&link);
        std::os::unix::fs::symlink("b-golden.cert", &link).expect("link the golden certificate");
    }
    // The directory by a relative name, then `b-golden.cert` once with a
    // `./` prefix and once by an absolute path through `..`.
    let out = Command::new(env!("CARGO_BIN_EXE_treelocal-check"))
        .current_dir(&parent)
        .arg("two-spellings")
        .arg("./two-spellings/b-golden.cert")
        .arg(dir.join("../two-spellings/b-golden.cert"))
        .output()
        .expect("run treelocal-check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        lines,
        [
            "FAIL two-spellings/a-hostile.cert: line 8: expected a \"e\" line",
            "OK   two-spellings/b-golden.cert"
        ],
        "{stdout}"
    );
    assert_eq!(stderr.trim(), "1 of 2 certificates rejected");
}

#[test]
fn crlf_signed_and_zero_padded_copies_fail_and_the_next_file_is_still_checked() {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../bench/tests/golden/quick_certs/mis-pipeline-tree.cert");
    let text = std::fs::read_to_string(&golden).expect("read the golden certificate");
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("non-canonical");
    std::fs::create_dir_all(&dir).expect("create the certificate directory");
    // Each bad copy is followed by a good one on the command line.
    let files = [
        ("a-crlf.cert", text.replace('\n', "\r\n")),
        ("b-golden.cert", text.clone()),
        ("c-signed.cert", text.replacen("\nnodes 150\n", "\nnodes +150\n", 1)),
        ("d-golden.cert", text.clone()),
        ("e-padded.cert", text.replacen("\ne 1 45\n", "\ne 01 45\n", 1)),
        ("f-golden.cert", text.clone()),
    ];
    for (name, contents) in &files {
        std::fs::write(dir.join(name), contents).expect("write a certificate");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_treelocal-check"))
        .args(files.iter().map(|(name, _)| dir.join(name)))
        .output()
        .expect("run treelocal-check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert_eq!(stderr.trim(), "3 of 6 certificates rejected");
    let lines: Vec<&str> = stdout.lines().collect();
    let expected = [
        ("FAIL ", "a-crlf.cert: line 1: expected a \\n line end, not \\r\\n"),
        ("OK   ", "b-golden.cert"),
        ("FAIL ", "c-signed.cert: line 4: expected a nodes count"),
        ("OK   ", "d-golden.cert"),
        ("FAIL ", "e-padded.cert: line 7: expected edge endpoints"),
        ("OK   ", "f-golden.cert"),
    ];
    assert_eq!(lines.len(), expected.len(), "{stdout}");
    for (line, (status, end)) in lines.iter().zip(expected) {
        assert!(
            line.starts_with(status) && line.ends_with(end),
            "{line:?} is not {status}...{end}"
        );
    }
}
