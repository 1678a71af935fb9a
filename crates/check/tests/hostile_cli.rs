//! The checker exists to judge untrusted input, so a certificate whose
//! header lies about its counts must be a typed rejection (exit 1), never
//! an allocation abort. The nine-line certificate below announces a
//! trillion edges; before the parser capped its reservations by the lines
//! still unread, `treelocal-check` died reserving 16 TB for it. The two
//! eleven-line certificates announce 4,294,967,295 nodes; before the
//! checker bounded `nodes` by the certificate's own lines, building their
//! graph died reserving 16 GB.

use std::path::PathBuf;
use std::process::Command;
use treelocal_check::{check_text, CheckError};

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

/// Node-indexed: one solution entry per node is required, none given.
const HOSTILE_NODES_MIS: &str = "treelocal-cert v1
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
const HOSTILE_NODES_MATCHING: &str = "treelocal-cert v1
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
