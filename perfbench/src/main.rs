//! `perfbench`: one benchmark command for the repository's pipelines.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload mis-prufer-1m --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Prints the run record and one line per metric (value, unit, sample
//! count), then, as the last line, the JSON result. Exits 1 when any
//! job's output fails its checks and 2 on a usage error. See README.md.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use treelocal_bench::ExperimentSize;
use treelocal_perfbench::golden;
use treelocal_perfbench::metrics::{layer_values, MetricDef, SetupFigures, END_TO_END, PER_LAYER};
use treelocal_perfbench::probe::{self, median, minimum, Probe};
use treelocal_perfbench::trace::{TraceLog, Tracer};
use treelocal_perfbench::workloads::{
    build, golden_rounds, replay, run_job, run_tables, Instance, Workload, GOLDEN_SEEDS,
};

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
       perfbench --golden

workloads: mis-prufer-1m, edgecol-caterpillar-2t, cert-roundtrip-1m, tables-full-2t";

/// Set-ups per run: at least `SETUP_REPS`, then more while fewer than
/// `SETUP_MIN_S` seconds have gone, up to `SETUP_MAX_REPS`. `setup_s` is
/// their median, so a short set-up is sampled often enough to be steady.
const SETUP_REPS: usize = 7;
const SETUP_MIN_S: f64 = 3.0;
const SETUP_MAX_REPS: usize = 41;

/// Jobs (or traced passes) every run makes, whatever `--seconds` says.
const MIN_JOBS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|_| format!("bad seconds {value:?}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The run record: what was measured, where and how.
fn record(a: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"instance_seed\":{},\"trace\":{},\"commit\":\"{}\",\"nproc\":{nproc},\"rustc\":\"{}\",\"profile\":\"{}\",\"features\":[\"parallel\"],\"pool\":{}}}",
        a.workload.name(),
        a.seed,
        a.seed % GOLDEN_SEEDS,
        a.trace,
        commit(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        a.workload.pool(),
    )
}

/// The checked-out commit, read from `.git` in the working directory
/// ("unknown" outside a git checkout).
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A run's outcome: every job's verdict and the reported metrics with
/// their sample counts.
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<(MetricDef, f64, usize)>,
}

impl Outcome {
    fn count(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            eprintln!("check failed: {why}");
            self.failed += 1;
        }
    }
}

/// The instance, built repeatedly (see `SETUP_REPS`; each build a
/// `gen.build` span of `t`); the tables workload's set-up adds a
/// Quick-profile warm-up.
fn set_up(a: &Args, t: &mut Tracer, out: &mut Outcome) -> (Instance, Vec<f64>, SetupFigures) {
    let (mut times, mut builds) = (Vec::new(), Vec::new());
    let mut bytes = 0;
    let mut inst = None;
    let begun = Instant::now();
    while times.len() < SETUP_REPS
        || (times.len() < SETUP_MAX_REPS && begun.elapsed().as_secs_f64() < SETUP_MIN_S)
    {
        drop(inst.take());
        let before = Probe::now();
        let start = Instant::now();
        let built =
            t.span("gen.build", |_| build(a.workload, a.workload.nodes(), a.seed % GOLDEN_SEEDS));
        builds.push(start.elapsed().as_secs_f64());
        bytes = Probe::now().bytes_ingested - before.bytes_ingested;
        if let Instance::Tables(driver) = &built {
            let hash = t.span("bench.warm_up", |t| run_tables(t, driver, ExperimentSize::Quick));
            out.count(
                (hash != golden::TABLES_QUICK_HASH)
                    .then(|| format!("quick tables hash {hash:#018x} differs from golden")),
            );
        }
        times.push(start.elapsed().as_secs_f64());
        inst = Some(built);
    }
    let figures = SetupFigures { build_s: median(&builds), bytes_ingested: bytes };
    (inst.expect("SETUP_REPS > 0"), times, figures)
}

/// Whether another job (or pass) fits: at least `MIN_JOBS`, then only
/// while the median one still ends within `seconds`.
fn another(done: &[f64], start: Instant, seconds: f64) -> bool {
    done.len() < MIN_JOBS || start.elapsed().as_secs_f64() + median(done) <= seconds
}

/// `--trace 0`: the one-call jobs, timed, checked, summarized.
fn timed_run(a: &Args) -> Outcome {
    let mut out = Outcome { attempted: 0, failed: 0, metrics: Vec::new() };
    let (inst, setup, _) = set_up(a, &mut Tracer::disabled(), &mut out);
    probe::reset_peak_rss();
    let expect = golden_rounds(a.workload, a.seed);
    let (mut walls, mut cpus, mut rounds) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while another(&walls, start, a.seconds) {
        let job = run_job(a.workload, &inst, expect);
        walls.push(job.wall_s);
        cpus.push(job.cpu_s);
        rounds.push(job.rounds);
        out.count(job.failure);
    }
    rounds.dedup();
    println!("# rounds {rounds:?} (golden {expect:?})");
    println!("# job wall median {} s, cpu median {} s", median(&walls), median(&cpus));
    let jobs = walls.len();
    let values = [
        (minimum(&walls), jobs),
        (minimum(&cpus), jobs),
        (median(&setup), setup.len()),
        (probe::peak_rss_mb(), 1),
    ];
    out.metrics = END_TO_END.iter().zip(values).map(|(m, (v, n))| (*m, v, n)).collect();
    out
}

/// `--trace 1`: a warm-up one-call job whose output is the reference,
/// then passes of one untraced one-call job and one traced replica each;
/// every replica must reproduce the reference. Per-layer metrics are
/// medians over the passes; the spans go to a trace file.
fn traced_run(a: &Args, record: &str) -> Outcome {
    let mut out = Outcome { attempted: 0, failed: 0, metrics: Vec::new() };
    let mut log = TraceLog::default();
    let mut t = Tracer::enabled();
    let (inst, _, setup) = set_up(a, &mut t, &mut out);
    log.keep("setup".to_string(), &t);
    let expect = golden_rounds(a.workload, a.seed);
    let start = Instant::now();
    // The first job pays for the heap's growth and the pool's start; it is
    // kept out of the passes so that the overhead compares warm runs.
    let warm_up = run_job(a.workload, &inst, expect);
    out.count(warm_up.failure);
    let reference = warm_up.output;
    let (mut overheads, mut passes, mut pass_s) = (Vec::new(), Vec::new(), Vec::new());
    while another(&pass_s, start, a.seconds) {
        let pass_start = Instant::now();
        // Every other pass runs the replica first, so that neither run
        // systematically inherits the other's warm caches and heap.
        let replica_first = passes.len() % 2 == 1;
        let mut t = Tracer::enabled();
        if replica_first {
            out.count(replay(&mut t, &inst, &reference));
        }
        let job = run_job(a.workload, &inst, expect);
        out.count(job.failure);
        if !replica_first {
            out.count(replay(&mut t, &inst, &reference));
        }
        // The replica against the untraced job of the same pass, so a
        // host phase that slows both cancels out.
        let replica_s = t.first("replica").map_or(0.0, |s| s.wall_s());
        overheads.push(replica_s / job.wall_s - 1.0);
        passes.push(layer_values(a.workload, &t, setup));
        log.keep(format!("pass {}", passes.len()), &t);
        pass_s.push(pass_start.elapsed().as_secs_f64());
    }
    out.metrics = PER_LAYER
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let value = if m.name == "trace.overhead" {
                median(&overheads)
            } else {
                median(&passes.iter().map(|p| p[i]).collect::<Vec<_>>())
            };
            (*m, value, passes.len())
        })
        .collect();
    let dir =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let path =
        dir.join("perfbench").join(format!("trace-{}-seed{}.json", a.workload.name(), a.seed));
    match log.write(&path, record) {
        Ok(()) => eprintln!("trace written to {}", path.display()),
        Err(e) => eprintln!("trace not written to {}: {e}", path.display()),
    }
    out
}

/// Regenerates `golden.rs`: every pipeline's rounds on every instance
/// seed and the tables hashes.
fn print_golden() {
    for (w, name) in [
        (Workload::MisPrufer1m, "MIS_ROUNDS"),
        (Workload::EdgecolCaterpillar2t, "EDGECOL_ROUNDS"),
        (Workload::CertRoundtrip1m, "CERT_ROUNDS"),
    ] {
        let rounds: Vec<String> = (0..GOLDEN_SEEDS)
            .map(|seed| run_job(w, &build(w, w.nodes(), seed), None).rounds.to_string())
            .collect();
        println!("pub const {name}: [u64; {GOLDEN_SEEDS}] = [{}];", rounds.join(", "));
    }
    let Instance::Tables(driver) = build(Workload::TablesFull2t, 0, 0) else { return };
    for (size, name) in
        [(ExperimentSize::Full, "TABLES_FULL_HASH"), (ExperimentSize::Quick, "TABLES_QUICK_HASH")]
    {
        let hash = run_tables(&mut Tracer::disabled(), &driver, size);
        println!("pub const {name}: u64 = {hash:#018x};");
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--golden") {
        std::env::set_var("TREELOCAL_THREADS", "2");
        print_golden();
        return ExitCode::SUCCESS;
    }
    let a = match parse(&argv) {
        Ok(a) => a,
        Err(message) => {
            eprintln!("{message}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // `par::auto_threads` reads the pool size once per process, so it is
    // pinned here, before any engine runs.
    std::env::set_var("TREELOCAL_THREADS", a.workload.pool().to_string());
    let record = record(&a);
    println!("# record {record}");
    let out = if a.trace { traced_run(&a, &record) } else { timed_run(&a) };

    let mut fields = Vec::new();
    for (m, value, samples) in &out.metrics {
        println!(
            "# {:<28} {:>16.6} {:<6} (n={samples}, {} is better)",
            m.name, value, m.unit, m.better
        );
        let value = if value.is_finite() { *value } else { 0.0 };
        fields.push(format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        fields.join(", ")
    );
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
