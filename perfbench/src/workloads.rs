//! The four workloads: their instances, their one-call jobs and the
//! checks every job's output must pass.

use std::time::Instant;

use treelocal_bench::{all_experiment_ids, run_experiment_with_driver, Driver, ExperimentSize};
use treelocal_check::Certificate;
use treelocal_core::{edge_coloring_on_tree, mis_on_tree, TransformOutcome};
use treelocal_gen::{caterpillar, random_tree, relabel, IdStrategy};
use treelocal_graph::Graph;
use treelocal_problems::{classic, EdgeColLabel, MisLabel};
use treelocal_sim::counters;

use crate::golden;
use crate::probe::cpu_seconds;
use crate::replica::{theorem12_mis, theorem15_edge_coloring, Replayed};
use crate::roundtrip::{cert_roundtrip, Roundtrip};
use crate::trace::Tracer;

/// The workload seed selects one of this many pinned instances
/// (`seed mod GOLDEN_SEEDS`), each with golden round counts.
pub const GOLDEN_SEEDS: u64 = 32;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `mis_on_tree` (Theorem 12) on a 1,000,000-node Prüfer tree.
    MisPrufer1m,
    /// `edge_coloring_on_tree` (Theorem 3) on a 500,000-node caterpillar.
    EdgecolCaterpillar2t,
    /// The MIS certificate written, parsed and checked in memory.
    CertRoundtrip1m,
    /// `experiments all` (Full profile, E1–E14) sharded over 2 workers.
    TablesFull2t,
}

impl Workload {
    /// Every workload, in presentation order.
    pub const ALL: [Workload; 4] = [
        Workload::MisPrufer1m,
        Workload::EdgecolCaterpillar2t,
        Workload::CertRoundtrip1m,
        Workload::TablesFull2t,
    ];

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MisPrufer1m => "mis-prufer-1m",
            Workload::EdgecolCaterpillar2t => "edgecol-caterpillar-2t",
            Workload::CertRoundtrip1m => "cert-roundtrip-1m",
            Workload::TablesFull2t => "tables-full-2t",
        }
    }

    /// Looks a workload up by CLI name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The pool size pinned for the workload's process.
    pub fn pool(self) -> usize {
        match self {
            Workload::MisPrufer1m | Workload::CertRoundtrip1m => 1,
            Workload::EdgecolCaterpillar2t | Workload::TablesFull2t => 2,
        }
    }

    /// Node count of the benchmark instance (0 for the tables workload,
    /// whose experiments build their own instances).
    pub fn nodes(self) -> usize {
        match self {
            Workload::MisPrufer1m | Workload::CertRoundtrip1m => 1_000_000,
            Workload::EdgecolCaterpillar2t => 500_000,
            Workload::TablesFull2t => 0,
        }
    }
}

/// A workload's input, built during set-up.
pub enum Instance {
    /// The tree the pipeline runs on.
    Tree(Graph),
    /// The experiment driver (no instance of its own).
    Tables(Driver),
}

/// Builds the instance of `w` at `nodes` nodes from `seed`: the seed
/// drives the Prüfer sequence and the LOCAL id assignment.
pub fn build(w: Workload, nodes: usize, seed: u64) -> Instance {
    match w {
        Workload::MisPrufer1m => {
            Instance::Tree(relabel(&random_tree(nodes, seed), IdStrategy::Permuted { seed }))
        }
        Workload::EdgecolCaterpillar2t => {
            Instance::Tree(relabel(&caterpillar(nodes / 4, 3), IdStrategy::Permuted { seed }))
        }
        Workload::CertRoundtrip1m => {
            Instance::Tree(relabel(&random_tree(nodes, seed), IdStrategy::Sparse { seed }))
        }
        Workload::TablesFull2t => {
            Instance::Tables(Driver::with_threads(Workload::TablesFull2t.pool()))
        }
    }
}

/// The full output of a one-call job, kept as the reference a traced
/// replica must reproduce.
#[derive(Debug)]
pub enum Output {
    /// `mis_on_tree`'s outcome.
    Mis(TransformOutcome<MisLabel>),
    /// `edge_coloring_on_tree`'s outcome.
    EdgeColoring(TransformOutcome<EdgeColLabel>),
    /// The packed certificate.
    Cert(Certificate),
    /// The hash of the rendered tables.
    Tables(u64),
}

/// One one-call job: its cost, its round count and its checks.
#[derive(Debug)]
pub struct JobOutput {
    /// Wall seconds of the one call (checks excluded).
    pub wall_s: f64,
    /// CPU seconds (all threads) of the one call.
    pub cpu_s: f64,
    /// LOCAL rounds of the produced solution (for the tables workload:
    /// engine rounds the whole suite executed).
    pub rounds: u64,
    /// Why the output failed its checks, if it did.
    pub failure: Option<String>,
    /// The output itself.
    pub output: Output,
}

/// The expected `rounds` of `w` on instance `seed` at the benchmark size.
pub fn golden_rounds(w: Workload, seed: u64) -> Option<u64> {
    let i = usize::try_from(seed % GOLDEN_SEEDS).ok()?;
    match w {
        Workload::MisPrufer1m => golden::MIS_ROUNDS.get(i).copied(),
        Workload::EdgecolCaterpillar2t => golden::EDGECOL_ROUNDS.get(i).copied(),
        Workload::CertRoundtrip1m => golden::CERT_ROUNDS.get(i).copied(),
        Workload::TablesFull2t => None,
    }
}

/// Runs `f`, returning its value with the wall and CPU seconds it took.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let (start, cpu) = (Instant::now(), cpu_seconds());
    let out = f();
    (out, start.elapsed().as_secs_f64(), cpu_seconds() - cpu)
}

/// Runs the one-call job of `w` on `inst` and checks its output. `expect`
/// is the golden round count (pipeline workloads); `None` skips that
/// check, as the small self-test instances have no golden values.
pub fn run_job(w: Workload, inst: &Instance, expect: Option<u64>) -> JobOutput {
    let (output, wall_s, cpu_s, rounds, mut failure) = match (w, inst) {
        (Workload::MisPrufer1m, Instance::Tree(g)) => {
            let ((out, set), wall, cpu) = timed(|| mis_on_tree(g));
            let ok = out.valid && classic::is_valid_mis(g, &set);
            let rounds = out.total_rounds();
            (Output::Mis(out), wall, cpu, rounds, (!ok).then(|| "invalid MIS".to_string()))
        }
        (Workload::EdgecolCaterpillar2t, Instance::Tree(g)) => {
            let ((out, colors), wall, cpu) = timed(|| edge_coloring_on_tree(g));
            let ok = out.valid && classic::is_valid_edge_degree_coloring(g, &colors);
            let rounds = out.total_rounds();
            let failure = (!ok).then(|| "invalid edge coloring".to_string());
            (Output::EdgeColoring(out), wall, cpu, rounds, failure)
        }
        (Workload::CertRoundtrip1m, Instance::Tree(g)) => {
            let (rt, wall, cpu) = timed(|| cert_roundtrip(&mut Tracer::disabled(), g));
            let (rounds, failure) = (rt.cert.rounds, roundtrip_failure(&rt));
            (Output::Cert(rt.cert), wall, cpu, rounds, failure)
        }
        (_, Instance::Tables(driver)) => {
            let before = counters::rounds_executed();
            let (hash, wall, cpu) =
                timed(|| run_tables(&mut Tracer::disabled(), driver, ExperimentSize::Full));
            let rounds = counters::rounds_executed() - before;
            let failure = (hash != golden::TABLES_FULL_HASH)
                .then(|| format!("tables hash {hash:#018x} differs from golden"));
            (Output::Tables(hash), wall, cpu, rounds, failure)
        }
        (_, Instance::Tree(_)) => unreachable!("the tables workload has no tree"),
    };
    if let Some(want) = expect {
        if failure.is_none() && rounds != want {
            failure = Some(format!("rounds {rounds}, golden {want}"));
        }
    }
    JobOutput { wall_s, cpu_s, rounds, failure, output }
}

/// Runs the traced replica of the job whose one-call output is
/// `reference`, and returns why it failed to reproduce it, if it did.
pub fn replay(t: &mut Tracer, inst: &Instance, reference: &Output) -> Option<String> {
    fn compare<L: PartialEq>(
        replayed: Result<Replayed<L>, String>,
        out: &TransformOutcome<L>,
    ) -> Option<String> {
        match replayed {
            Err(e) => Some(e),
            Ok(r) if r.executed != out.executed => Some(format!(
                "replica rounds {:?} differ from the pipeline's {:?}",
                r.executed, out.executed
            )),
            Ok(r) if r.labeling != out.labeling => Some("replica labeling differs".to_string()),
            Ok(r) if r.valid != out.valid => Some("replica validity differs".to_string()),
            Ok(_) => None,
        }
    }
    match (inst, reference) {
        (Instance::Tree(g), Output::Mis(out)) => compare(theorem12_mis(t, g), out),
        (Instance::Tree(g), Output::EdgeColoring(out)) => {
            compare(theorem15_edge_coloring(t, g), out)
        }
        (Instance::Tree(g), Output::Cert(cert)) => {
            let rt = cert_roundtrip(t, g);
            roundtrip_failure(&rt)
                .or_else(|| (rt.cert != *cert).then(|| "replica certificate differs".to_string()))
        }
        (Instance::Tables(driver), Output::Tables(hash)) => {
            let replayed = run_tables(t, driver, ExperimentSize::Full);
            (replayed != *hash).then(|| "replica tables differ".to_string())
        }
        _ => Some("reference from another workload".to_string()),
    }
}

/// Why a certificate round trip failed, if it did.
pub fn roundtrip_failure(rt: &Roundtrip) -> Option<String> {
    match &rt.verdict {
        Err(e) => Some(format!("certificate rejected: {e}")),
        Ok(()) if !rt.parsed_identical => Some("parsed certificate differs".to_string()),
        Ok(()) => None,
    }
}

/// Span names of the experiments, in [`all_experiment_ids`] order.
pub const BENCH_SPANS: [&str; 14] = [
    "bench.e1",
    "bench.e2",
    "bench.e3",
    "bench.e4",
    "bench.e5",
    "bench.e6",
    "bench.e7",
    "bench.e8",
    "bench.e9",
    "bench.e10",
    "bench.e11",
    "bench.e12",
    "bench.e13",
    "bench.e14",
];

/// Runs every experiment on `driver`, one span per
/// `run_experiment_with_driver` call, and returns the FNV-1a hash of the
/// rendered tables (the `experiments` output without its timing lines).
pub fn run_tables(t: &mut Tracer, driver: &Driver, size: ExperimentSize) -> u64 {
    t.span("replica", |t| {
        let mut hash = Fnv::default();
        for (id, span) in all_experiment_ids().into_iter().zip(BENCH_SPANS) {
            for table in t.span(span, |_| run_experiment_with_driver(id, size, driver)) {
                hash.write(table.render().as_bytes());
            }
        }
        hash.0
    })
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}
