//! The checker exists to judge untrusted input, so a certificate whose
//! header lies about its counts must be a typed rejection (exit 1), never
//! an allocation abort. The nine-line certificate below announces a
//! trillion edges; before the parser capped its reservations by the lines
//! still unread, `treelocal-check` died reserving 16 TB for it.

use std::path::PathBuf;
use std::process::Command;

const HOSTILE: &str = "treelocal-cert v1
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
fn a_trillion_edge_header_is_rejected_with_exit_1() {
    assert!(matches!(
        treelocal_check::check_text(HOSTILE),
        Err(treelocal_check::CheckError::Format { .. })
    ));
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("hostile-edge-count.cert");
    std::fs::write(&path, HOSTILE).expect("write the hostile certificate");
    let out = Command::new(env!("CARGO_BIN_EXE_treelocal-check"))
        .arg(&path)
        .output()
        .expect("run treelocal-check");
    assert_eq!(out.status.code(), Some(1), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("FAIL "));
}
