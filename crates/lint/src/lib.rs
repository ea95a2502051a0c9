//! `kvs-lint`: the workspace invariant checker.
//!
//! The paper's methodology stands on two legs this linter guards
//! mechanically: *measured* timings must come only from the sanctioned
//! clock portals, and the *simulated* components must be deterministic
//! enough to cross-validate against live runs. On top of that it pins the
//! wire-protocol documentation to the constants in `frame.rs` and enforces
//! the lock-discipline conventions of the `net`/`cluster` hot
//! paths. See [`rules`] for the rule catalogue and [`waiver`] for the
//! escape hatch.
//!
//! The linter is a three-layer analyzer: a real tokenizer and
//! token-tree builder ([`token`], [`tree`]), the line rules plus
//! semantic passes over the trees ([`rules`], [`passes`]: lock-order
//! cycles, channel topology, stage-stamp dataflow), and a reporting
//! layer with SARIF/JSON output ([`sarif`], [`json`]) and a frozen-debt
//! ratchet ([`baseline`]). The interprocedural layer — a workspace call
//! graph ([`callgraph`]) and per-function control-flow graphs ([`mod@cfg`])
//! — powers the blocking-reachability, crash-ordering and
//! deadline-propagation passes. The per-file scan runs on a std-only
//! worker pool ([`ScanMode`]).
//!
//! Invariants that types or stock clippy lints can hold live there
//! instead (the workspace `clippy.toml` and `#[expect]`-marked
//! sanctioned sites); `docs/LINT.md` lists the retired rule IDs.
//!
//! Deliberately dependency-free (std only): this crate is the tool that
//! guards the shims, so it must build even when every shim is broken.
//!
//! Run it:
//!
//! ```console
//! $ cargo run -p kvs-lint -- check            # lint the workspace
//! $ cargo run -p kvs-lint -- check --format sarif --output kvs-lint.sarif
//! $ cargo run -p kvs-lint -- rules            # list rule IDs
//! $ cargo run -p kvs-lint -- waivers          # waivers with hit counts
//! $ cargo run -p kvs-lint -- baseline --update
//! $ cargo run -p kvs-lint -- bench --output target/figures/BENCH_lint.json
//! ```
//!
//! See `docs/LINT.md` for the architecture and the full rule catalogue.

#![warn(missing_docs)]

pub mod baseline;
pub mod callgraph;
pub mod cfg;
pub mod json;
pub mod passes;
pub mod rules;
pub mod sarif;
pub mod scan;
pub mod token;
pub mod tree;
pub mod waiver;

pub use rules::{Diagnostic, RULES};

use scan::SourceFile;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Name of the waiver file, resolved relative to the workspace root.
pub const WAIVER_FILE: &str = "lint.waivers.toml";

/// Result of linting one workspace root.
pub struct Outcome {
    /// Violations that remain after waivers and baseline — non-empty
    /// means fail.
    pub diagnostics: Vec<Diagnostic>,
    /// Violations suppressed by a waiver, with the justification.
    pub waived: Vec<(Diagnostic, String)>,
    /// Violations frozen in `lint.baseline.json`: reported (SARIF level
    /// `warning`) but not failing.
    pub baselined: Vec<Diagnostic>,
    /// Every parsed waiver with the number of diagnostics it suppressed
    /// this run; feeds `kvs-lint waivers`.
    pub waiver_hits: Vec<(waiver::Waiver, usize)>,
    /// Number of source files scanned.
    pub files_scanned: usize,
}

impl Outcome {
    /// True when the workspace is clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Directory names never descended into. `target` is build output;
/// `fixtures` holds the linter's own deliberately-violating test trees,
/// which must not fail the real workspace.
const SKIP_DIRS: &[&str] = &["target", "fixtures", ".git"];

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                walk_rs(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_of(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// How the per-file scan/tokenize phase executes.
///
/// Scanning is embarrassingly parallel — each file's read, line
/// classification and tokenization touches nothing shared — and it
/// dominates wall-clock on large trees, so [`check_workspace`] defaults
/// to [`ScanMode::Parallel`]. Both modes produce byte-identical
/// results: the pool reassembles files in path order before any rule
/// runs, so scheduling can never reorder diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// Scan one file at a time on the calling thread.
    Serial,
    /// Scan on a fixed pool of `std::thread::scope` workers (see
    /// [`scan_workers`]), stride-partitioned over the sorted path list.
    Parallel,
}

/// Worker count for [`ScanMode::Parallel`]: the machine's available
/// parallelism, clamped to `[1, 32]`. The upper clamp keeps the pool
/// from oversubscribing file I/O on very wide hosts; the lower one
/// covers `available_parallelism` failing (it errors on some
/// containers).
pub fn scan_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .clamp(1, 32)
}

/// Reads and scans `paths` under `mode`. Worker `k` of `n` handles
/// indices `k, k+n, k+2n, …` and reports `(index, file)` pairs; the
/// parent reassembles them by index, so output order is the sorted path
/// order regardless of thread scheduling.
fn scan_files(root: &Path, paths: &[PathBuf], mode: ScanMode) -> io::Result<Vec<SourceFile>> {
    let workers = match mode {
        ScanMode::Serial => 1,
        ScanMode::Parallel => scan_workers(),
    };
    if workers <= 1 || paths.len() <= 1 {
        let mut files = Vec::with_capacity(paths.len());
        for path in paths {
            let text = fs::read_to_string(path)?;
            files.push(SourceFile::scan(&rel_of(root, path), &text));
        }
        return Ok(files);
    }
    let results: Vec<io::Result<Vec<(usize, SourceFile)>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|k| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for ix in (k..paths.len()).step_by(workers) {
                        let text = fs::read_to_string(&paths[ix])?;
                        out.push((ix, SourceFile::scan(&rel_of(root, &paths[ix]), &text)));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(_) => Err(io::Error::other("scan worker panicked")),
            })
            .collect()
    });
    let mut slots: Vec<Option<SourceFile>> = Vec::new();
    slots.resize_with(paths.len(), || None);
    for r in results {
        for (ix, file) in r? {
            slots[ix] = Some(file);
        }
    }
    // Every index is visited by exactly one worker, so every slot is
    // filled once all workers have returned Ok.
    Ok(slots.into_iter().flatten().collect())
}

/// Lints the workspace rooted at `root` (the directory holding `crates/`,
/// `shims/`, `docs/` and optionally [`WAIVER_FILE`]), scanning files on
/// the parallel worker pool. Use [`check_workspace_with`] to pin the
/// scan mode (the bench subcommand times both).
pub fn check_workspace(root: &Path) -> io::Result<Outcome> {
    check_workspace_with(root, ScanMode::Parallel)
}

/// Scans the workspace rooted at `root` into a [`rules::Workspace`]
/// under `mode`, without running any rules.
fn scan_workspace(root: &Path, mode: ScanMode) -> io::Result<rules::Workspace> {
    let mut paths = Vec::new();
    for top in ["crates", "shims"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk_rs(&dir, &mut paths)?;
        }
    }
    let files = scan_files(root, &paths, mode)?;

    let load_md = |name: &str| -> io::Result<Option<(String, Vec<String>)>> {
        let path = root.join("docs").join(name);
        if !path.is_file() {
            return Ok(None);
        }
        let text = fs::read_to_string(&path)?;
        Ok(Some((
            format!("docs/{name}"),
            text.lines().map(str::to_string).collect(),
        )))
    };
    let net_md = load_md("NET.md")?;
    let store_md = load_md("STORE.md")?;

    Ok(rules::Workspace {
        files,
        net_md,
        store_md,
    })
}

/// [`check_workspace`] with an explicit [`ScanMode`].
pub fn check_workspace_with(root: &Path, mode: ScanMode) -> io::Result<Outcome> {
    let ws = scan_workspace(root, mode)?;
    let files_scanned = ws.files.len();
    let raw = rules::run_all(&ws);

    let config_error = |line: usize, message: String, raw: Vec<Diagnostic>| -> Outcome {
        let mut diagnostics = raw;
        diagnostics.push(Diagnostic {
            rule: "KVS-L000",
            path: WAIVER_FILE.to_string(),
            line,
            message,
        });
        diagnostics.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
        Outcome {
            diagnostics,
            waived: Vec::new(),
            baselined: Vec::new(),
            waiver_hits: Vec::new(),
            files_scanned,
        }
    };

    let waiver_path = root.join(WAIVER_FILE);
    let waivers = if waiver_path.is_file() {
        match waiver::parse(&fs::read_to_string(&waiver_path)?) {
            Ok(ws) => ws,
            Err((line, msg)) => {
                return Ok(config_error(
                    line,
                    format!("waiver file rejected: {msg}"),
                    raw,
                ));
            }
        }
    } else {
        Vec::new()
    };

    let baseline_path = root.join(baseline::BASELINE_FILE);
    let baseline_entries = if baseline_path.is_file() {
        match baseline::parse(&fs::read_to_string(&baseline_path)?) {
            Ok(es) => es,
            Err(msg) => {
                let mut diagnostics = raw;
                diagnostics.push(Diagnostic {
                    rule: "KVS-L000",
                    path: baseline::BASELINE_FILE.to_string(),
                    line: 1,
                    message: format!("baseline file rejected: {msg}"),
                });
                diagnostics.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
                return Ok(Outcome {
                    diagnostics,
                    waived: Vec::new(),
                    baselined: Vec::new(),
                    waiver_hits: Vec::new(),
                    files_scanned,
                });
            }
        }
    } else {
        Vec::new()
    };

    let raw_line = |path: &str, line: usize| -> Option<String> {
        if let Some(f) = ws.files.iter().find(|f| f.rel == path) {
            return f.lines.get(line.checked_sub(1)?).map(|l| l.raw.clone());
        }
        for md in [&ws.net_md, &ws.store_md].into_iter().flatten() {
            if md.0 == path {
                return md.1.get(line.checked_sub(1)?).cloned();
            }
        }
        None
    };
    let applied = waiver::apply(raw, &waivers, WAIVER_FILE, raw_line);
    // Waived findings are passed through so a baseline entry that is
    // also covered by a waiver reads as *used*, not stale (the site is
    // still in the tree; the waiver merely outranks the ratchet).
    let waived_findings: Vec<Diagnostic> = applied.waived.iter().map(|(d, _)| d.clone()).collect();
    let (mut diagnostics, mut baselined) = baseline::apply(
        applied.failing,
        &waived_findings,
        &baseline_entries,
        baseline::BASELINE_FILE,
        raw_line,
    );
    diagnostics.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    baselined.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(Outcome {
        diagnostics,
        waived: applied.waived,
        baselined,
        waiver_hits: waivers.into_iter().zip(applied.hits).collect(),
        files_scanned,
    })
}
