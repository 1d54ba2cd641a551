//! Records the hot-path bench inventory into `BENCH_hotpath.json` — the
//! committed perf trajectory every perf PR extends.
//!
//! The file format and merge semantics live in `impact_bench::record`:
//! one run per line under `"runs"`, oldest first, re-recording a label
//! replaces that run in place.
//!
//! ```text
//! bench_record [--quick] [--label NAME] [--note TEXT] [--out PATH]
//! bench_record --quick --check PATH
//! ```
//!
//! * default: run the inventory at full measurement budget and merge the
//!   results into `--out` (default `BENCH_hotpath.json`) under `--label`.
//! * `--check PATH`: run in quick mode and compare the produced bench key
//!   set against the latest run recorded in `PATH`, exiting nonzero on
//!   drift — the CI bench-smoke step, catching renamed/added/removed
//!   benches that were not re-recorded.

use std::collections::BTreeSet;
use std::process::ExitCode;

use criterion::Criterion;
use impact_bench::hotpath;
use impact_bench::record::{
    bench_keys, existing_note, existing_runs, format_run, render_file, run_label,
};

const DEFAULT_OUT: &str = "BENCH_hotpath.json";
const UNIT: &str = "ns per iteration (criterion-shim mean)";
const DEFAULT_NOTE: &str =
    "1-vCPU shared container; absolute numbers are indicative, cross-run ratios are the signal";

fn usage_exit(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: bench_record [--quick] [--label NAME] [--note TEXT] [--out PATH]\n\
         \x20      bench_record --quick --check PATH"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut label = String::from("current");
    let mut note: Option<String> = None;
    let mut out_path = String::from(DEFAULT_OUT);
    let mut check_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| match args.next() {
            Some(v) if !v.starts_with("--") => v,
            _ => usage_exit(&format!("{flag} needs a value")),
        };
        match arg.as_str() {
            "--quick" => quick = true,
            "--label" => label = value("--label"),
            "--note" => note = Some(value("--note")),
            "--out" => out_path = value("--out"),
            "--check" => check_path = Some(value("--check")),
            other => usage_exit(&format!("unknown argument: {other}")),
        }
    }

    let mut c = if quick {
        Criterion::quick()
    } else {
        Criterion::default()
    };
    hotpath::register_all(&mut c);
    let measured: Vec<(String, u128)> = c
        .records()
        .iter()
        .map(|r| (r.id.clone(), r.mean_ns))
        .collect();
    let measured_keys: BTreeSet<String> = measured.iter().map(|(id, _)| id.clone()).collect();

    if let Some(path) = check_path {
        let contents = match std::fs::read_to_string(&path) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("bench_record: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let Some(latest) = existing_runs(&contents).into_iter().next_back() else {
            eprintln!("bench_record: no recorded runs in {path}");
            return ExitCode::FAILURE;
        };
        let recorded = bench_keys(&latest);
        if recorded == measured_keys {
            println!(
                "bench_record: {} keys in sync with {path}",
                measured_keys.len()
            );
            return ExitCode::SUCCESS;
        }
        for missing in recorded.difference(&measured_keys) {
            eprintln!("bench_record: recorded but no longer benched: {missing}");
        }
        for unrecorded in measured_keys.difference(&recorded) {
            eprintln!("bench_record: benched but not recorded: {unrecorded}");
        }
        eprintln!("bench_record: re-run `bench_record` and commit {path}");
        return ExitCode::FAILURE;
    }

    let previous = std::fs::read_to_string(&out_path).unwrap_or_default();
    let note = note
        .or_else(|| existing_note(&previous))
        .unwrap_or_else(|| DEFAULT_NOTE.to_string());
    let mut runs: Vec<String> = existing_runs(&previous)
        .into_iter()
        .filter(|r| run_label(r) != Some(label.as_str()))
        .collect();
    runs.push(format_run(&label, &measured));
    if let Err(e) = std::fs::write(&out_path, render_file(UNIT, &note, &runs)) {
        eprintln!("bench_record: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "bench_record: wrote {} benches as \"{label}\" to {out_path}",
        measured.len()
    );
    ExitCode::SUCCESS
}
