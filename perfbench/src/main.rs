//! The kvscale benchmark: one workload per invocation, on a real loopback
//! cluster, inputs generated from `--seed`, answers checked by oracles.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload agg_fine --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run records
//! spans around every layer call (written to
//! `$CARGO_TARGET_DIR/perfbench/spans-*.tsv`) and the metrics are the
//! per-layer ones. See `perfbench/README.md`.

mod gen;
mod layers;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;
use workloads::{Ctx, Run};

/// `(name, value, unit)` in report order.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

const WORKLOADS: [&str; 3] = ["agg_fine", "agg_coarse", "ycsb_a_durable"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=120).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 1..=120"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Where the benchmark writes: spans, and the durable nodes' directories.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target).join("perfbench")
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The filesystem type of the mount holding `dir` (fsync cost depends
/// on it).
fn filesystem_of(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split(' ');
            let (_dev, at, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(at).then(|| (at.len(), fs.to_string()))
        })
        .max()
        .map(|(_, fs)| fs)
        .unwrap_or_else(|| "unknown".into())
}

/// The machine and build a result set belongs to; results compare only
/// against a set with the same descriptor (the seed aside).
fn descriptor(args: &Args, dir: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let commit = Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"rustc\": {}, \"profile\": \"{profile}\", \"commit\": {}, \
         \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"data_fs\": {}}}",
        json_str(&rustc),
        json_str(&commit),
        args.workload,
        args.seed,
        args.seconds,
        json_str(&filesystem_of(dir)),
    )
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn result_line(run: &Run, metrics: &Metrics) -> Result<String, String> {
    let mut fields = Vec::new();
    for (name, value, unit) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number: {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.violations.is_empty(),
        run.tally.attempted,
        run.tally.failed,
        fields.join(", ")
    ))
}

fn run(args: &Args) -> Result<String, String> {
    let dir = out_dir();
    let data_dir = dir.join(format!("data-{}", std::process::id()));
    std::fs::create_dir_all(&data_dir).map_err(|e| format!("{}: {e}", data_dir.display()))?;
    let desc = descriptor(args, &data_dir);
    println!("descriptor {desc}");
    let mut tracer = Tracer::new(args.trace);
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: &mut tracer,
        data_dir: &data_dir,
    };
    let outcome = match args.workload.as_str() {
        "agg_fine" => workloads::run_agg(&workloads::AGG_FINE, &mut ctx),
        "agg_coarse" => workloads::run_agg(&workloads::AGG_COARSE, &mut ctx),
        _ => workloads::run_ycsb(&mut ctx),
    };
    let cleanup = std::fs::remove_dir_all(&data_dir);
    let run = outcome.map_err(|e| format!("{} run failed: {e}", args.workload))?;
    cleanup.map_err(|e| format!("removing {}: {e}", data_dir.display()))?;
    eprintln!(
        "{} ops attempted, {} failed (failed_frac {})",
        run.tally.attempted,
        run.tally.failed,
        run.tally.failed_frac()
    );
    for v in &run.violations {
        eprintln!("oracle violation: {v}");
    }
    if args.trace {
        let path = dir.join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        tracer
            .write_tsv(&path, &desc)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    let metrics = if args.trace {
        &run.per_layer
    } else {
        &run.end_to_end
    };
    result_line(&run, metrics)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line_and_rejects_the_rest() {
        let a = args(&[
            "--workload",
            "agg_fine",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("agg_fine", 7, 10, true)
        );
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "agg_fine",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "agg_fine",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--workload", "agg_fine", "--seed", "1", "--seconds", "1"]).is_err());
    }
}
