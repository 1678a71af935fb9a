//! Self-test of the traced replicas: on ~10k-node instances every replica
//! must reproduce its one-call pipeline exactly, so drift in
//! `TreeTransform` / `ArbTransform` fails here, fast, instead of
//! producing a wrong trace.
//!
//! ```sh
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use treelocal_bench::{cert_suite, Driver, ExperimentSize};
use treelocal_gen::{random_tree, relabel, IdStrategy};
use treelocal_perfbench::golden;
use treelocal_perfbench::metrics::{layer_values, SetupFigures, END_TO_END, PER_LAYER};
use treelocal_perfbench::roundtrip::cert_roundtrip;
use treelocal_perfbench::trace::Tracer;
use treelocal_perfbench::workloads::{
    build, replay, roundtrip_failure, run_job, run_tables, Workload,
};

const SMALL: usize = 10_000;

/// Runs the one-call job and its traced replica on a small instance and
/// returns the replica's spans.
fn replayed(w: Workload, seed: u64) -> Tracer {
    let inst = build(w, SMALL, seed);
    let job = run_job(w, &inst, None);
    assert_eq!(job.failure, None, "{} seed {seed}", w.name());
    let mut t = Tracer::enabled();
    assert_eq!(replay(&mut t, &inst, &job.output), None, "{} seed {seed}", w.name());
    t
}

fn value(w: Workload, t: &Tracer, name: &str) -> f64 {
    let i = PER_LAYER.iter().position(|m| m.name == name).expect("catalogued metric");
    layer_values(w, t, SetupFigures::default())[i]
}

#[test]
fn theorem12_replica_reproduces_mis_on_tree() {
    for seed in 0..3 {
        let t = replayed(Workload::MisPrufer1m, seed);
        for span in ["decomp.rake_compress", "algos.solve", "sim.gather", "problems.verify"] {
            assert!(t.first(span).is_some(), "missing span {span}");
        }
        let w = Workload::MisPrufer1m;
        assert!(value(w, &t, "decomp.iterations") >= 1.0);
        assert!(value(w, &t, "sim.gather_components") >= 1.0);
        assert!(value(w, &t, "sim.node_steps") > 0.0);
        assert!(value(w, &t, "trace.coverage") > 0.5);
        assert_eq!(value(w, &t, "decomp.arb_decompose_s"), 0.0);
    }
}

#[test]
fn theorem15_replica_reproduces_edge_coloring_on_tree() {
    for seed in 0..3 {
        let t = replayed(Workload::EdgecolCaterpillar2t, seed);
        for span in ["decomp.arb_decompose", "algos.line_graph", "algos.sweep_reduce"] {
            assert!(t.first(span).is_some(), "missing span {span}");
        }
        assert!(value(Workload::EdgecolCaterpillar2t, &t, "algos.sweep_reduce_s") > 0.0);
    }
}

#[test]
fn certificate_round_trip_is_accepted_and_replays() {
    let t = replayed(Workload::CertRoundtrip1m, 5);
    let w = Workload::CertRoundtrip1m;
    assert!(value(w, &t, "check.cert_mb") > 0.0);
    assert!(value(w, &t, "check.parse_mb_per_s") > 0.0);
    assert_eq!(value(w, &t, "decomp.rake_compress_s"), 0.0);
}

/// The round trip packs its certificate with its own copy of the bench
/// crate's MIS-pipeline packing; this pins the copy to the original.
#[test]
fn round_trip_certificate_equals_the_bench_crate_mis_pipeline_certificate() {
    let g = relabel(&random_tree(150, 7), IdStrategy::Sparse { seed: 11 });
    let rt = cert_roundtrip(&mut Tracer::disabled(), &g);
    assert_eq!(roundtrip_failure(&rt), None);
    let mut cert = rt.cert;
    cert.instance = "mis-pipeline-tree".to_string();
    let suite = cert_suite(ExperimentSize::Quick, None);
    let (_, want) =
        suite.iter().find(|(name, _)| name == "mis-pipeline-tree").expect("suite has the entry");
    assert_eq!(&cert, want);
}

#[test]
fn a_replica_of_another_instance_is_caught() {
    let w = Workload::MisPrufer1m;
    let reference = run_job(w, &build(w, SMALL, 1), None).output;
    let other = build(w, SMALL, 2);
    assert!(replay(&mut Tracer::enabled(), &other, &reference).is_some());
}

#[test]
fn quick_tables_match_their_golden_hash() {
    let hash = run_tables(&mut Tracer::disabled(), &Driver::with_threads(2), ExperimentSize::Quick);
    assert_eq!(hash, golden::TABLES_QUICK_HASH);
}

/// The `name` fields of one top-level array of `BENCHMARK.json`.
fn names_in(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let section = &json[start..];
    let section = &section[..section.find(']').expect("array closes")];
    section.split("\"name\": \"").skip(1).map(|s| s[..s.find('"').unwrap()].to_string()).collect()
}

#[test]
fn metric_catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let names = |defs: &[treelocal_perfbench::metrics::MetricDef]| -> Vec<String> {
        defs.iter().map(|m| m.name.to_string()).collect()
    };
    assert_eq!(names_in(&json, "end_to_end"), names(&END_TO_END));
    assert_eq!(names_in(&json, "per_layer"), names(&PER_LAYER));
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names_in(&json, "workloads"), workloads);
}
