//! `impact-analyze`: offline determinism & concurrency static analysis
//! for the IMPACT workspace.
//!
//! The entire value of this reproduction rests on one invariant: every
//! backend, thread count, and trace replay is *bit-identical*. The runtime
//! equivalence suites prove that after the fact; this crate encodes the
//! invariants as a static-analysis pass that fails CI before a divergence
//! can reach them. Two layers:
//!
//! * **Layer 1** ([`rules`]) — token-level lints over every workspace
//!   source file: unordered hash-map iteration in deterministic crates
//!   (R1), wall-clock/environment reads (R2), ad-hoc concurrency outside
//!   the sanctioned worker pools (R3), lossy address casts in the
//!   dram/memctrl hot paths (R4), `unsafe` anywhere (R5), and
//!   copy-on-write unshare sites (`Arc::make_mut` & co.) outside the
//!   audited inventory (R6). Sites are justified with
//!   `// analyze::allow(<rule>): <reason>` comments.
//! * **Layer 2** ([`invariants`]) — cross-file field-set coverage:
//!   `BackendStats` ↔ merge/`AddAssign`/`PartialEq`/trace footer,
//!   `TraceEvent` ↔ codec encode/decode arms, configuration fields ↔
//!   `SystemConfig::fingerprint`, and `Engine` state fields ↔
//!   `Engine::snapshot`/`restore`, with intentional exclusions recorded
//!   in the [`manifest`] (`analyze.toml`).
//!
//! Diagnostics are `file:line: rule: message` lines; the binary exits
//! non-zero when any are produced, which is what gates CI.

pub mod invariants;
pub mod lexer;
pub mod manifest;
pub mod rules;

use std::fs;
use std::path::{Path, PathBuf};

use manifest::Manifest;

/// One finding, formatted `file:line: rule: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-indexed line.
    pub line: u32,
    /// Rule identifier (see [`rules::RULES`]).
    pub rule: String,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// How one file is classified before the rules run.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Workspace-relative path used in diagnostics.
    pub rel_path: String,
    /// R1 applies: part of a deterministic crate (simulation state or
    /// results flow through this code).
    pub deterministic: bool,
    /// R2 skipped: `crates/bench` (the only crate allowed to look at the
    /// host clock) or test-only code.
    pub clock_exempt: bool,
    /// R3 skipped: one of the [`SANCTIONED_CONCURRENCY`] files.
    pub concurrency_sanctioned: bool,
    /// Whole file is test/bench/example code (R2/R3/R4 exempt).
    pub test_file: bool,
    /// R4 applies: dram/memctrl production source.
    pub addr_cast_checked: bool,
}

/// Crates whose state or output feeds simulated results; R1 applies here.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "core",
    "dram",
    "memctrl",
    "sim",
    "pim",
    "attacks",
    "cache",
    "workloads",
    "genomics",
    "fleet",
];

/// The only files allowed to create threads or shared-state primitives.
/// `crates/core/src/par.rs` holds `ordered_map`, the one parallel
/// primitive every sweep, suite and fleet epoch goes through.
/// `crates/obs` is the telemetry sink: its atomics (and `Instant` reads)
/// are the sanctioned home for counters and span timers, policed by R7
/// everywhere else.
pub const SANCTIONED_CONCURRENCY: &[&str] = &["crates/core/src/par.rs", "crates/obs/src/lib.rs"];

/// Classifies a workspace-relative path (always `/`-separated).
#[must_use]
pub fn classify(rel_path: &str) -> FileContext {
    let is_under = |dir: &str| rel_path.starts_with(&format!("{dir}/"));
    let crate_name = rel_path
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next());
    // `crates/<name>/{tests,benches,examples}` and the workspace-level
    // `tests/` and `examples/` dirs are test context end to end.
    let test_file = is_under("tests")
        || is_under("examples")
        || crate_name.is_some_and(|c| {
            is_under(&format!("crates/{c}/tests"))
                || is_under(&format!("crates/{c}/benches"))
                || is_under(&format!("crates/{c}/examples"))
        });
    let in_det_crate_src = crate_name
        .is_some_and(|c| DETERMINISTIC_CRATES.contains(&c) && is_under(&format!("crates/{c}/src")))
        || is_under("src"); // the facade crate re-exports deterministic API
    FileContext {
        rel_path: rel_path.to_string(),
        deterministic: in_det_crate_src,
        clock_exempt: crate_name == Some("bench")
            || crate_name == Some("analyze")
            || crate_name == Some("obs")
            || test_file,
        concurrency_sanctioned: SANCTIONED_CONCURRENCY.contains(&rel_path),
        test_file,
        addr_cast_checked: !test_file
            && (is_under("crates/dram/src") || is_under("crates/memctrl/src")),
    }
}

/// Recursively collects `.rs` files under `dir`, sorted for deterministic
/// diagnostic order. Fixture trees (`tests/fixtures`) are skipped — they
/// exist to *contain* violations.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n == "fixtures") {
                continue;
            }
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// The source roots scanned within a workspace: the facade plus every
/// member crate, excluding `third_party/` (vendored shims) and `target/`.
fn scan_roots(root: &Path) -> Vec<PathBuf> {
    let mut roots = vec![root.join("src"), root.join("tests"), root.join("examples")];
    let crates = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates) {
        let mut members: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        members.sort();
        for m in members {
            for sub in ["src", "tests", "benches", "examples"] {
                roots.push(m.join(sub));
            }
        }
    }
    roots
}

/// Runs both analysis layers over the workspace at `root`.
///
/// # Errors
///
/// Returns a message when a required file (layer-2 anchors) or the
/// manifest cannot be read/parsed. Individual unreadable source files are
/// reported as diagnostics instead of aborting the run.
pub fn analyze_workspace(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let manifest = match fs::read_to_string(root.join("analyze.toml")) {
        Ok(text) => Manifest::parse(&text)?,
        Err(_) => Manifest::default(),
    };

    let mut diags = Vec::new();
    let mut files = Vec::new();
    for scan_root in scan_roots(root) {
        collect_rs(&scan_root, &mut files);
    }
    files.sort();
    files.dedup();

    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        match fs::read_to_string(path) {
            Ok(src) => {
                let ctx = classify(&rel);
                diags.extend(rules::check_source(&ctx, &src));
            }
            Err(e) => diags.push(Diagnostic {
                file: rel,
                line: 1,
                rule: "io".to_string(),
                message: format!("unreadable source file: {e}"),
            }),
        }
    }

    // Layer 2 anchors: these files define the cross-file invariants. A
    // missing anchor is itself a finding (exit 1), not an IO error —
    // renaming engine.rs must not silently disable the coverage checks.
    let mut read = |rel: &str| -> Option<String> {
        match fs::read_to_string(root.join(rel)) {
            Ok(src) => Some(src),
            Err(_) => {
                diags.push(Diagnostic {
                    file: rel.to_string(),
                    line: 1,
                    rule: "anchor-missing".to_string(),
                    message: "layer-2 anchor file not found; cross-file invariant \
                              checks cannot run against it"
                        .to_string(),
                });
                None
            }
        }
    };
    let engine = read(invariants::ENGINE_RS);
    let codec = read(invariants::CODEC_RS);
    let config = read(invariants::CONFIG_RS);
    let sim_engine = read(invariants::SIM_ENGINE_RS);
    let trace_mod = read("crates/core/src/trace/mod.rs");
    if let (Some(engine), Some(codec)) = (&engine, &codec) {
        diags.extend(invariants::check_backend_stats(engine, codec, &manifest));
    }
    if let (Some(trace_mod), Some(codec)) = (&trace_mod, &codec) {
        diags.extend(invariants::check_trace_events(trace_mod, codec));
    }
    if let Some(config) = &config {
        diags.extend(invariants::check_fingerprint(config, &manifest));
    }
    if let Some(sim_engine) = &sim_engine {
        diags.extend(invariants::check_engine_snapshot(sim_engine, &manifest));
    }

    diags.sort_by(|a, b| {
        (&a.file, a.line, &a.rule, &a.message).cmp(&(&b.file, b.line, &b.rule, &b.message))
    });
    diags.dedup();
    Ok(diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matrix() {
        let sim = classify("crates/sim/src/engine.rs");
        assert!(sim.deterministic && !sim.clock_exempt && !sim.test_file);
        assert!(!sim.addr_cast_checked);

        let dram = classify("crates/dram/src/mapping.rs");
        assert!(dram.deterministic && dram.addr_cast_checked);

        let bench = classify("crates/bench/src/trace_tools.rs");
        assert!(!bench.deterministic && bench.clock_exempt);
        assert!(!bench.concurrency_sanctioned);

        let runner = classify("crates/bench/src/runner.rs");
        assert!(!runner.concurrency_sanctioned);
        // Other memctrl files are not sanctioned.
        let ctrl = classify("crates/memctrl/src/controller.rs");
        assert!(!ctrl.concurrency_sanctioned);

        // The parallel primitive: deterministic (sweep series, suite
        // figures and the fleet population report flow through it) AND
        // concurrency-sanctioned, but it may not read the clock.
        let par = classify("crates/core/src/par.rs");
        assert!(par.deterministic && par.concurrency_sanctioned);
        assert!(!par.clock_exempt);
        let fleet_lib = classify("crates/fleet/src/lib.rs");
        assert!(fleet_lib.deterministic && !fleet_lib.concurrency_sanctioned);

        // The obs sink: clock-exempt, sanctioned atomics, but NOT part of
        // the deterministic state machine — telemetry never feeds results.
        let obs = classify("crates/obs/src/lib.rs");
        assert!(obs.clock_exempt && obs.concurrency_sanctioned);
        assert!(!obs.deterministic && !obs.test_file);

        let ws_test = classify("tests/determinism.rs");
        assert!(ws_test.test_file && ws_test.clock_exempt && !ws_test.deterministic);

        let crate_test = classify("crates/dram/tests/foo.rs");
        assert!(crate_test.test_file && !crate_test.addr_cast_checked);

        let facade = classify("src/lib.rs");
        assert!(facade.deterministic);
    }

    #[test]
    fn diagnostic_display_is_grep_friendly() {
        let d = Diagnostic {
            file: "crates/sim/src/x.rs".to_string(),
            line: 7,
            rule: "unordered-iter".to_string(),
            message: "m".to_string(),
        };
        assert_eq!(d.to_string(), "crates/sim/src/x.rs:7: unordered-iter: m");
    }
}
