//! Regenerates the experiment tables (E1–E14).
//!
//! ```sh
//! cargo run --release -p treelocal-bench --bin experiments -- all
//! cargo run --release -p treelocal-bench --bin experiments -- e8 e10
//! cargo run --release -p treelocal-bench --bin experiments -- --quick all
//! # sharded across 8 pool workers:
//! cargo run --release -p treelocal-bench --bin experiments -- --threads 8 all
//! # emit checkable run certificates, then validate them independently:
//! cargo run --release -p treelocal-bench --bin experiments -- --quick --emit-certs certs e2
//! cargo run --release -p treelocal-check -- certs
//! ```
//!
//! CSV copies are written to `target/experiments/`. Unknown flags are
//! rejected with exit code 2 — a typo like `--qick` must not silently run
//! the Full suite (about 10 s on 2 pool workers, 15 s on one).

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use treelocal_bench::{
    all_experiment_ids, auto_threads, run_experiment_with_driver, Driver, ExperimentSize,
};
use treelocal_sim::par::clamp_to_machine;

const USAGE: &str = "usage: experiments [--quick] [--threads N] [--emit-certs DIR] [ids...|all]

flags:
  --quick         run the small test-sized workloads instead of the Full sweeps
  --threads N     shard each experiment across N pool workers (also
                  --threads=N; 0 = auto; at most the machine's cores;
                  tables are identical for every N)
  --emit-certs DIR
                  additionally emit run certificates to DIR as .cert files
                  (also --emit-certs=DIR); validate them with the
                  `treelocal-check` binary
  --help          print this help

ids: e1..e14, or `all` (default)";

#[derive(Debug)]
struct Options {
    size: ExperimentSize,
    /// The requested pool size, clamped to the machine (`None` = auto).
    threads: Option<usize>,
    emit_certs: Option<PathBuf>,
    ids: Vec<&'static str>,
}

/// Parses the CLI, or returns the message and exit code to fail with.
fn parse(args: &[String]) -> Result<Options, (String, u8)> {
    let mut quick = false;
    let mut threads: Option<usize> = None;
    let mut emit_certs: Option<PathBuf> = None;
    let mut requested: Vec<String> = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Err((USAGE.to_string(), 0)),
            "--quick" => quick = true,
            "--threads" => {
                let value = it
                    .next()
                    .ok_or_else(|| ("--threads needs a value\n\n".to_string() + USAGE, 2))?;
                threads = parse_threads(value)?;
            }
            flag if flag.starts_with("--threads=") => {
                threads = parse_threads(&flag["--threads=".len()..])?;
            }
            "--emit-certs" => {
                // A following flag does NOT count as the directory:
                // `--emit-certs --quick` is a missing argument, not a
                // directory named "--quick".
                let value = it
                    .next()
                    .filter(|v| !v.starts_with('-'))
                    .ok_or_else(|| ("--emit-certs needs a directory\n\n".to_string() + USAGE, 2))?;
                emit_certs = Some(PathBuf::from(value));
            }
            flag if flag.starts_with("--emit-certs=") => {
                let value = &flag["--emit-certs=".len()..];
                if value.is_empty() {
                    return Err(("--emit-certs needs a directory\n\n".to_string() + USAGE, 2));
                }
                emit_certs = Some(PathBuf::from(value));
            }
            flag if flag.starts_with('-') => {
                return Err((format!("unknown flag {flag:?}\n\n{USAGE}"), 2));
            }
            id => requested.push(id.to_lowercase()),
        }
    }
    let known = all_experiment_ids();
    let ids: Vec<&'static str> = if requested.is_empty() || requested.iter().any(|a| a == "all") {
        known
    } else {
        for r in &requested {
            if !known.contains(&r.as_str()) {
                return Err((format!("unknown experiment {r:?}; known: {known:?}"), 2));
            }
        }
        known.into_iter().filter(|id| requested.iter().any(|r| r == id)).collect()
    };
    let size = if quick { ExperimentSize::Quick } else { ExperimentSize::Full };
    Ok(Options { size, threads, emit_certs, ids })
}

/// Parses a `--threads` value: 0 is auto (`None`), anything else is
/// clamped to the machine's cores.
fn parse_threads(value: &str) -> Result<Option<usize>, (String, u8)> {
    let n = value
        .parse::<usize>()
        .map_err(|_| (format!("--threads needs a non-negative integer, got {value:?}"), 2))?;
    Ok((n > 0).then(|| clamp_to_machine(n)))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err((message, code)) => {
            if code == 0 {
                println!("{message}");
            } else {
                eprintln!("{message}");
            }
            return ExitCode::from(code);
        }
    };
    // Fail on an unusable certificate directory before running anything:
    // a Full sweep must not discover an unwritable path at the end.
    if let Some(dir) = &opts.emit_certs {
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| {
            let probe = dir.join(".write-probe");
            std::fs::write(&probe, b"")?;
            std::fs::remove_file(&probe)
        }) {
            eprintln!("--emit-certs: cannot write to {}: {e}\n\n{USAGE}", dir.display());
            return ExitCode::from(2);
        }
    }
    let driver = Driver::with_threads(opts.threads.unwrap_or_else(auto_threads));
    let csv_dir = PathBuf::from("target/experiments");
    for id in opts.ids {
        let start = std::time::Instant::now();
        for table in run_experiment_with_driver(id, opts.size, &driver) {
            println!("{}", table.render());
            if let Err(e) = table.write_csv(&csv_dir) {
                eprintln!("(csv write failed: {e})");
            }
        }
        println!("[{id} done in {:.1?}]\n", start.elapsed());
    }
    if let Some(dir) = &opts.emit_certs {
        let suite = treelocal_bench::cert_suite(opts.size, opts.threads);
        if let Err(e) = treelocal_bench::emit_certs(dir, &suite) {
            eprintln!("--emit-certs: cannot write to {}: {e}", dir.display());
            return ExitCode::from(2);
        }
        eprintln!("{} certificates written to {}", suite.len(), dir.display());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_flags_still_exit_2() {
        // The retired checkpoint flags are unknown now: an old script must
        // fail loudly rather than silently start a Full run.
        for args in [
            &["--jornal", "j"][..],
            &["--journal", "j.jsonl"],
            &["--journal=j.jsonl"],
            &["--resume"],
        ] {
            let (message, code) = parse(&argv(args)).unwrap_err();
            assert_eq!(code, 2, "{args:?}");
            assert!(message.contains("unknown flag"), "{args:?}: {message}");
        }
    }

    #[test]
    fn emit_certs_flag_both_spellings() {
        let o = parse(&argv(&["--quick", "--emit-certs", "target/certs", "e2"])).unwrap();
        assert_eq!(o.emit_certs.as_deref(), Some(std::path::Path::new("target/certs")));
        let o = parse(&argv(&["--emit-certs=target/certs"])).unwrap();
        assert_eq!(o.emit_certs.as_deref(), Some(std::path::Path::new("target/certs")));
    }

    #[test]
    fn emit_certs_without_directory_exits_2() {
        // Trailing position: nothing follows the flag.
        let (message, code) = parse(&argv(&["--quick", "--emit-certs"])).unwrap_err();
        assert_eq!(code, 2);
        assert!(message.contains("--emit-certs needs a directory"), "{message}");
        assert!(message.contains(USAGE), "{message}");
        // A following flag is NOT a directory — in any flag order.
        let (message, code) = parse(&argv(&["--emit-certs", "--quick", "e2"])).unwrap_err();
        assert_eq!(code, 2);
        assert!(message.contains("--emit-certs needs a directory"), "{message}");
        let (message, code) = parse(&argv(&["e2", "--emit-certs", "--threads", "2"])).unwrap_err();
        assert_eq!(code, 2);
        assert!(message.contains("--emit-certs needs a directory"), "{message}");
        // The `=` spelling with an empty value is also a missing argument.
        let (message, code) = parse(&argv(&["--emit-certs="])).unwrap_err();
        assert_eq!(code, 2);
        assert!(message.contains("--emit-certs needs a directory"), "{message}");
    }

    #[test]
    fn threads_are_clamped_to_the_machine() {
        // Parsed only: no pool is started.
        let machine = clamp_to_machine(0);
        for (value, expect) in [
            ("0".to_string(), None),
            ("1".to_string(), Some(1)),
            (machine.to_string(), Some(machine)),
            (usize::MAX.to_string(), Some(machine)),
        ] {
            assert_eq!(parse(&argv(&["--threads", &value])).unwrap().threads, expect, "{value}");
            let spelled = format!("--threads={value}");
            assert_eq!(parse(&argv(&[&spelled])).unwrap().threads, expect, "{spelled}");
        }
    }

    #[test]
    fn defaults_are_unchanged() {
        let o = parse(&argv(&[])).unwrap();
        assert_eq!(o.size, ExperimentSize::Full);
        assert!(o.emit_certs.is_none());
        assert_eq!(o.ids.len(), 14);
    }
}
