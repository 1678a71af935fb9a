//! The metric catalogue (mirrored by `BENCHMARK.json`) and the per-layer
//! figures of one traced pass.

use treelocal_sim::counters;

use crate::probe::Probe;
use crate::roundtrip::MB;
use crate::trace::{Span, Tracer};
use crate::workloads::{Workload, BENCH_SPANS};

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the pipelines sees, reported with `--trace 0`.
pub const END_TO_END: [MetricDef; 4] = [
    m("job_s", "s", "lower"),
    m("cpu_s", "s", "lower"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Single-layer figures, reported with `--trace 1`. A metric named
/// `<span>_s` is the total wall time of the spans named `<span>`; layers a
/// workload never calls read 0.
pub const PER_LAYER: [MetricDef; 48] = [
    m("gen.build_s", "s", "lower"),
    m("gen.bytes_ingested", "bytes", "lower"),
    m("gen.peak_build_mb", "MB", "lower"),
    m("decomp.rake_compress_s", "s", "lower"),
    m("decomp.iterations", "count", "lower"),
    m("decomp.semigraph_s", "s", "lower"),
    m("decomp.arb_decompose_s", "s", "lower"),
    m("decomp.split_atypical_s", "s", "lower"),
    m("decomp.typical_semigraph_s", "s", "lower"),
    m("algos.linial_s", "s", "lower"),
    m("algos.kw_reduce_s", "s", "lower"),
    m("algos.mis_sweep_s", "s", "lower"),
    m("algos.line_graph_s", "s", "lower"),
    m("algos.sweep_reduce_s", "s", "lower"),
    m("algos.solve_s", "s", "lower"),
    m("algos.solve.self_s", "s", "lower"),
    m("sim.rounds", "count", "lower"),
    m("sim.node_steps", "count", "lower"),
    m("sim.send_steps", "count", "lower"),
    m("sim.node_steps_per_s", "1/s", "higher"),
    m("sim.cpu_per_wall", "ratio", "higher"),
    m("sim.gather_s", "s", "lower"),
    m("sim.gather_components", "count", "lower"),
    m("graph.components_s", "s", "lower"),
    m("problems.solve_seq_s", "s", "lower"),
    m("problems.verify_s", "s", "lower"),
    m("check.to_text_s", "s", "lower"),
    m("check.cert_mb", "MB", "lower"),
    m("check.parse_s", "s", "lower"),
    m("check.parse_mb_per_s", "MB/s", "higher"),
    m("check.rules_s", "s", "lower"),
    m("bench.e1_s", "s", "lower"),
    m("bench.e2_s", "s", "lower"),
    m("bench.e3_s", "s", "lower"),
    m("bench.e4_s", "s", "lower"),
    m("bench.e5_s", "s", "lower"),
    m("bench.e6_s", "s", "lower"),
    m("bench.e7_s", "s", "lower"),
    m("bench.e8_s", "s", "lower"),
    m("bench.e9_s", "s", "lower"),
    m("bench.e10_s", "s", "lower"),
    m("bench.e11_s", "s", "lower"),
    m("bench.e12_s", "s", "lower"),
    m("bench.e13_s", "s", "lower"),
    m("bench.e14_s", "s", "lower"),
    m("bench.cpu_per_wall", "ratio", "higher"),
    m("trace.coverage", "ratio", "higher"),
    m("trace.overhead", "ratio", "lower"),
];

/// The inner algorithm's engine stages, timed in the `stages` pass (and,
/// for the certificate workload, inside the replica itself).
const ENGINE_SPANS: [&str; 4] =
    ["algos.linial", "algos.kw_reduce", "algos.mis_sweep", "algos.sweep_reduce"];

/// Set-up figures that per-layer metrics report.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupFigures {
    /// Median wall time of one instance build.
    pub build_s: f64,
    /// Endpoint bytes one instance build ingested.
    pub bytes_ingested: u64,
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The [`PER_LAYER`] figures of one traced pass, in catalogue order.
/// `trace.overhead` needs the untraced jobs and reads 0 here; the caller
/// fills it in.
pub fn layer_values(w: Workload, t: &Tracer, setup: SetupFigures) -> Vec<f64> {
    let root = t.index_of("replica");
    let delta = |f: fn(&Probe) -> u64| {
        root.map_or(0.0, |i| {
            let s = &t.spans()[i];
            (f(&s.end) - f(&s.start)) as f64
        })
    };
    // The engine-stage spans; on the tables workload, where the engine
    // runs inside each experiment, the experiment spans stand in.
    let stage_names: &[&str] =
        if w == Workload::TablesFull2t { &BENCH_SPANS } else { &ENGINE_SPANS };
    let stages: Vec<&Span> = stage_names.iter().flat_map(|name| t.named(name)).collect();
    let stage_wall: f64 = stages.iter().map(|s| s.wall_s()).sum();
    let stage_cpu: f64 = stages.iter().map(|s| s.cpu_s()).sum();
    let stage_steps: f64 =
        stages.iter().map(|s| (s.end.node_steps - s.start.node_steps) as f64).sum();
    let bench: Vec<&Span> = BENCH_SPANS.iter().flat_map(|name| t.named(name)).collect();

    PER_LAYER
        .iter()
        .map(|metric| match metric.name {
            "gen.build_s" => setup.build_s,
            "gen.bytes_ingested" if w == Workload::TablesFull2t => delta(|p| p.bytes_ingested),
            "gen.bytes_ingested" => setup.bytes_ingested as f64,
            "gen.peak_build_mb" => counters::peak_build_bytes() as f64 / MB,
            "decomp.iterations" | "sim.gather_components" | "check.cert_mb" => {
                t.get_value(metric.name).unwrap_or(0.0)
            }
            "algos.solve.self_s" if t.first("algos.solve").is_some() => {
                let stages: f64 = ["algos.line_graph"]
                    .iter()
                    .chain(ENGINE_SPANS.iter())
                    .map(|name| t.seconds(name))
                    .sum();
                t.seconds("algos.solve") - stages
            }
            "algos.solve.self_s" => 0.0,
            "sim.rounds" => delta(|p| p.rounds),
            "sim.node_steps" => delta(|p| p.node_steps),
            "sim.send_steps" => delta(|p| p.send_steps),
            "sim.node_steps_per_s" => ratio(stage_steps, stage_wall),
            "sim.cpu_per_wall" => ratio(stage_cpu, stage_wall),
            "check.parse_mb_per_s" => {
                ratio(t.get_value("check.cert_mb").unwrap_or(0.0), t.seconds("check.parse"))
            }
            "bench.cpu_per_wall" => {
                ratio(bench.iter().map(|s| s.cpu_s()).sum(), bench.iter().map(|s| s.wall_s()).sum())
            }
            "trace.coverage" => root.map_or(0.0, |i| {
                ratio(t.children(i).map(Span::wall_s).sum(), t.spans()[i].wall_s())
            }),
            "trace.overhead" => 0.0,
            name => name.strip_suffix("_s").map_or(0.0, |span| t.seconds(span)),
        })
        .collect()
}
