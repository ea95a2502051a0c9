//! CLI entry point.
//!
//! ```console
//! $ kvs-lint check [--root <path>] [--format text|json|sarif] [--output <file>]
//! $ kvs-lint rules
//! $ kvs-lint waivers [--root <path>]
//! $ kvs-lint baseline [--root <path>] [--update]
//! $ kvs-lint bench [--root <path>] [--output <file>]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: kvs-lint <check|rules|waivers|baseline|bench> [--root <path>] \
         [--format text|json|sarif] [--output <file>] [--update]"
    );
    eprintln!("  check     lint the workspace; exit 0 when clean, 1 on violations");
    eprintln!("  rules     list rule IDs and what they enforce");
    eprintln!("  waivers   list waivers with how many findings each suppressed this run");
    eprintln!("  baseline  report ratchet status; --update re-freezes lint.baseline.json");
    eprintln!("  bench     time serial vs parallel scans, emit a kvs-bench/v1 report");
    ExitCode::from(2)
}

struct Cli {
    cmd: String,
    root: PathBuf,
    format: String,
    output: Option<PathBuf>,
    update: bool,
}

fn parse_args() -> Result<Cli, ExitCode> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd: Option<String> = None;
    let mut root: Option<PathBuf> = None;
    let mut format = "text".to_string();
    let mut output: Option<PathBuf> = None;
    let mut update = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "check" | "rules" | "waivers" | "baseline" | "bench" if cmd.is_none() => {
                cmd = Some(a.clone());
            }
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return Err(usage()),
            },
            "--format" => match it.next().map(String::as_str) {
                Some(f @ ("text" | "json" | "sarif")) => format = f.to_string(),
                _ => return Err(usage()),
            },
            "--output" => match it.next() {
                Some(p) => output = Some(PathBuf::from(p)),
                None => return Err(usage()),
            },
            "--update" => update = true,
            _ => return Err(usage()),
        }
    }
    let Some(cmd) = cmd else {
        return Err(usage());
    };
    let root = root.unwrap_or_else(|| {
        // When run via `cargo run -p kvs-lint`, the manifest dir is
        // crates/lint — the workspace root is two levels up.
        let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        manifest
            .parent()
            .and_then(|p| p.parent())
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."))
    });
    Ok(Cli {
        cmd,
        root,
        format,
        output,
        update,
    })
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(c) => c,
        Err(code) => return code,
    };
    if cli.cmd == "rules" {
        for (id, summary) in kvs_lint::RULES {
            println!("{id}  {summary}");
        }
        return ExitCode::SUCCESS;
    }
    if cli.cmd == "bench" {
        return bench(&cli);
    }
    let outcome = match kvs_lint::check_workspace(&cli.root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("kvs-lint: cannot scan {}: {e}", cli.root.display());
            return ExitCode::from(2);
        }
    };
    match cli.cmd.as_str() {
        "check" => check(&cli, &outcome),
        "waivers" => waivers(&outcome),
        "baseline" => baseline_cmd(&cli, &outcome),
        _ => usage(),
    }
}

fn emit(cli: &Cli, text: &str) -> Result<(), ExitCode> {
    match &cli.output {
        None => {
            print!("{text}");
            Ok(())
        }
        Some(path) => std::fs::write(path, text).map_err(|e| {
            eprintln!("kvs-lint: cannot write {}: {e}", path.display());
            ExitCode::from(2)
        }),
    }
}

fn check(cli: &Cli, outcome: &kvs_lint::Outcome) -> ExitCode {
    let fail = if outcome.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    };
    match cli.format.as_str() {
        "sarif" => match emit(cli, &kvs_lint::sarif::render(outcome)) {
            Ok(()) => fail,
            Err(code) => code,
        },
        "json" => match emit(cli, &render_json(outcome)) {
            Ok(()) => fail,
            Err(code) => code,
        },
        _ => {
            for d in &outcome.diagnostics {
                println!("{d}");
            }
            if outcome.is_clean() {
                println!(
                    "kvs-lint: clean — {} files scanned, {} waived, {} baselined finding(s)",
                    outcome.files_scanned,
                    outcome.waived.len(),
                    outcome.baselined.len()
                );
            } else {
                println!(
                    "kvs-lint: {} violation(s) across {} files ({} waived, {} baselined); \
                     see docs/LINT.md for rule docs, waivers and the baseline ratchet",
                    outcome.diagnostics.len(),
                    outcome.files_scanned,
                    outcome.waived.len(),
                    outcome.baselined.len()
                );
            }
            fail
        }
    }
}

fn render_json(outcome: &kvs_lint::Outcome) -> String {
    use kvs_lint::json::{obj, s, Value};
    let diag = |d: &kvs_lint::Diagnostic| {
        obj(vec![
            ("rule", s(d.rule)),
            ("path", s(&d.path)),
            ("line", Value::Num(d.line as f64)),
            ("message", s(&d.message)),
        ])
    };
    obj(vec![
        ("version", Value::Num(1.0)),
        ("clean", Value::Bool(outcome.is_clean())),
        ("files_scanned", Value::Num(outcome.files_scanned as f64)),
        (
            "diagnostics",
            Value::Arr(outcome.diagnostics.iter().map(diag).collect()),
        ),
        (
            "baselined",
            Value::Arr(outcome.baselined.iter().map(diag).collect()),
        ),
        (
            "waived",
            Value::Arr(
                outcome
                    .waived
                    .iter()
                    .map(|(d, justification)| {
                        obj(vec![
                            ("rule", s(d.rule)),
                            ("path", s(&d.path)),
                            ("line", Value::Num(d.line as f64)),
                            ("justification", s(justification)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .to_pretty()
}

/// `kvs-lint bench`: runs the full check twice — serial scan, then the
/// worker pool — cross-checks that both modes produced identical
/// diagnostics, and emits a `kvs-bench/v1` report (`bench` is `"lint"`,
/// so the CI artifact is `BENCH_lint.json`). Deliberately no `p99_ms`
/// keys: the trend gate compares latency percentiles only, and a lint
/// wall-clock is a single measurement, not a distribution.
fn bench(cli: &Cli) -> ExitCode {
    use kvs_lint::json::{obj, s, Value};
    use std::time::Instant;
    let timed = |mode: kvs_lint::ScanMode| -> Result<(kvs_lint::Outcome, f64), ExitCode> {
        let t = Instant::now();
        match kvs_lint::check_workspace_with(&cli.root, mode) {
            Ok(o) => Ok((o, t.elapsed().as_secs_f64() * 1e3)),
            Err(e) => {
                eprintln!("kvs-lint: cannot scan {}: {e}", cli.root.display());
                Err(ExitCode::from(2))
            }
        }
    };
    let (serial, serial_ms) = match timed(kvs_lint::ScanMode::Serial) {
        Ok(x) => x,
        Err(code) => return code,
    };
    let (parallel, parallel_ms) = match timed(kvs_lint::ScanMode::Parallel) {
        Ok(x) => x,
        Err(code) => return code,
    };
    if serial.diagnostics != parallel.diagnostics
        || serial.baselined != parallel.baselined
        || serial.waived != parallel.waived
    {
        eprintln!("kvs-lint: serial and parallel scans disagree — scan determinism bug");
        return ExitCode::FAILURE;
    }
    let threads = kvs_lint::scan_workers();
    let report = obj(vec![
        ("schema", s("kvs-bench/v1")),
        ("bench", s("lint")),
        (
            "config",
            obj(vec![
                ("root", s(&cli.root.display().to_string())),
                ("threads", Value::Num(threads as f64)),
            ]),
        ),
        (
            "results",
            obj(vec![
                ("files_scanned", Value::Num(serial.files_scanned as f64)),
                ("findings", Value::Num(serial.diagnostics.len() as f64)),
                ("waived", Value::Num(serial.waived.len() as f64)),
                ("baselined", Value::Num(serial.baselined.len() as f64)),
                ("serial_ms", Value::Num(serial_ms)),
                ("parallel_ms", Value::Num(parallel_ms)),
                ("speedup", Value::Num(serial_ms / parallel_ms.max(1e-9))),
            ]),
        ),
    ]);
    if let Err(code) = emit(cli, &report.to_pretty()) {
        return code;
    }
    if cli.output.is_some() {
        println!(
            "kvs-lint: bench — {} files, serial {serial_ms:.1} ms, parallel {parallel_ms:.1} ms",
            serial.files_scanned
        );
    }
    ExitCode::SUCCESS
}

fn waivers(outcome: &kvs_lint::Outcome) -> ExitCode {
    if outcome.waiver_hits.is_empty() {
        println!("kvs-lint: no waivers on file");
        return ExitCode::SUCCESS;
    }
    println!(
        "{:<9} {:>4}  {:<44} OWNER",
        "RULE", "HITS", "PATH (contains)"
    );
    let mut stale = 0usize;
    for (w, hits) in &outcome.waiver_hits {
        if *hits == 0 {
            stale += 1;
        }
        println!(
            "{:<9} {:>4}  {:<44} {}",
            w.rule,
            hits,
            format!("{} ({})", w.path, truncate(&w.contains, 24)),
            w.owner
        );
    }
    if stale > 0 {
        // Fail pointing at each stale entry's own `file:line` — the
        // `KVS-L000` diagnostics the check pass minted carry the
        // `[[waiver]]` header line, so the fix is one jump away. The
        // old exit only printed the count.
        for d in outcome
            .diagnostics
            .iter()
            .filter(|d| d.rule == "KVS-L000" && d.path == kvs_lint::WAIVER_FILE)
        {
            println!("{d}");
        }
    }
    println!(
        "kvs-lint: {} waiver(s), {} suppressed finding(s), {} stale",
        outcome.waiver_hits.len(),
        outcome.waived.len(),
        stale
    );
    if stale > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let head: String = s.chars().take(max.saturating_sub(1)).collect();
        format!("{head}…")
    }
}

fn baseline_cmd(cli: &Cli, outcome: &kvs_lint::Outcome) -> ExitCode {
    let path = cli.root.join(kvs_lint::baseline::BASELINE_FILE);
    if cli.update {
        // Freeze the currently failing findings (post-waiver). Config
        // errors (KVS-L000) must be fixed, never frozen.
        let (l000, freezable): (Vec<_>, Vec<_>) = outcome
            .diagnostics
            .iter()
            .cloned()
            .partition(|d| d.rule == "KVS-L000");
        if !l000.is_empty() {
            for d in &l000 {
                eprintln!("{d}");
            }
            eprintln!("kvs-lint: fix waiver/baseline machinery errors before re-freezing");
            return ExitCode::FAILURE;
        }
        // The already-baselined findings stay frozen alongside new ones.
        let mut all = freezable;
        all.extend(outcome.baselined.iter().cloned());
        all.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
        let raw_line = |p: &str, line: usize| -> Option<String> {
            let file = cli.root.join(p);
            let text = std::fs::read_to_string(file).ok()?;
            text.lines().nth(line.checked_sub(1)?).map(str::to_string)
        };
        let entries = kvs_lint::baseline::freeze(&all, raw_line);
        let rendered = kvs_lint::baseline::render(&entries);
        match std::fs::write(&path, &rendered) {
            Ok(()) => {
                println!(
                    "kvs-lint: froze {} finding(s) into {}",
                    entries.len(),
                    kvs_lint::baseline::BASELINE_FILE
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("kvs-lint: cannot write {}: {e}", path.display());
                ExitCode::from(2)
            }
        }
    } else {
        let stale = outcome
            .diagnostics
            .iter()
            .filter(|d| d.rule == "KVS-L000" && d.path == kvs_lint::baseline::BASELINE_FILE)
            .count();
        println!(
            "kvs-lint: baseline holds {} frozen finding(s); {} stale entr(y/ies)",
            outcome.baselined.len(),
            stale
        );
        if stale > 0 {
            println!("run `kvs-lint baseline --update` after paying down baselined debt");
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    }
}
