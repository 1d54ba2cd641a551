//! Drives a fleet of deterministic engine sessions to completion and
//! writes the population report (canonical JSON: capacity, error-rate
//! and slowdown histograms plus the population digest).
//!
//! ```text
//! fleet_run [--population N] [--workers N] [--seed N] [--quick]
//!           [--trace FILE [--trace-sessions N]]
//!           [--out PATH] [--metrics PATH]
//! fleet_run --check PATH [same run flags]
//! ```
//!
//! The report's bytes are a function of the population alone — never of
//! `--workers`, `--metrics` or wall-clock — which is what CI exploits:
//! it runs `--quick` at workers 1, 2 and 4 (and once with `--metrics`)
//! and byte-compares the outputs. `--check PATH` performs that
//! comparison in-process: read `PATH` (an unreadable one exits 1 before
//! any session runs), run the fleet, byte-compare the JSON against it,
//! exit nonzero on drift.
//!
//! `--trace FILE` additionally admits `--trace-sessions` (default 64)
//! sessions replaying growing prefixes of a recorded trace. Its label
//! must resolve to the fingerprinted `SystemConfig`, and admission runs
//! `CapturedTrace::verify`, the check behind `fig_all --trace`: one full
//! replay must reproduce the recorded footer. A capture that fails exits
//! 1 before any session runs.

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use impact_bench::trace_tools::resolve_config;
use impact_fleet::{FleetConfig, FleetEvent, FleetService};
use impact_workloads::CapturedTrace;

const DEFAULT_POPULATION: usize = 1000;
const DEFAULT_TRACE_SESSIONS: usize = 64;

fn usage_exit(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: fleet_run [--population N] [--workers N] [--seed N] [--quick]\n\
         \x20      [--trace FILE [--trace-sessions N]] [--out PATH] [--metrics PATH]\n\
         \x20      [--check PATH]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, v: &str) -> T {
    v.parse()
        .unwrap_or_else(|_| usage_exit(&format!("bad {flag} value {v:?}")))
}

fn main() -> ExitCode {
    let mut population = DEFAULT_POPULATION;
    let mut workers = 4usize;
    let mut seed = 0xF1EE7u64;
    let mut quick = false;
    let mut trace_path: Option<String> = None;
    let mut trace_sessions = DEFAULT_TRACE_SESSIONS;
    let mut out_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| match args.next() {
            Some(v) if !v.starts_with("--") => v,
            _ => usage_exit(&format!("{flag} needs a value")),
        };
        match arg.as_str() {
            "--population" => population = parse(&arg, &value("--population")),
            "--workers" => workers = parse(&arg, &value("--workers")),
            "--seed" => seed = parse(&arg, &value("--seed")),
            "--quick" => quick = true,
            "--trace" => trace_path = Some(value("--trace")),
            "--trace-sessions" => trace_sessions = parse(&arg, &value("--trace-sessions")),
            "--out" => out_path = Some(value("--out")),
            "--metrics" => metrics_path = Some(value("--metrics")),
            "--check" => check_path = Some(value("--check")),
            other => usage_exit(&format!("unknown argument: {other}")),
        }
    }
    if workers == 0 {
        usage_exit("--workers must be at least 1");
    }
    // Read the reference before any session runs, so a mistyped path
    // fails at once rather than after the whole population.
    let recorded = match &check_path {
        None => None,
        Some(path) => match std::fs::read_to_string(path) {
            Ok(c) => Some((path, c)),
            Err(e) => {
                eprintln!("fleet_run: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    if metrics_path.is_some() {
        impact_obs::set_enabled(true);
    }
    impact_obs::reset();

    let fleet_cfg = if quick {
        FleetConfig::quick(seed)
    } else {
        FleetConfig::new(seed)
    }
    .with_workers(workers);
    let mut fleet = FleetService::new(fleet_cfg);
    fleet.admit_synthetic(population);

    if let Some(path) = &trace_path {
        let trace = match CapturedTrace::load(Path::new(path)) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("fleet_run: cannot load trace {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let admission = resolve_config(&trace.header)
            .and_then(|sys| fleet.admit_trace(&Arc::new(trace), &sys, trace_sessions));
        if let Err(e) = admission {
            eprintln!("fleet_run: trace {path} is not replayable: {e}");
            return ExitCode::FAILURE;
        }
    }

    let admitted = fleet.admitted();
    eprintln!("fleet_run: driving {admitted} sessions on {workers} workers (seed {seed:#x})");
    let report = fleet.run(&mut |ev| {
        if let FleetEvent::EpochComplete {
            epoch,
            active,
            finished,
        } = ev
        {
            eprintln!("fleet_run: epoch {epoch}: {finished} finished, {active} active");
        }
    });
    let json = report.to_json();
    println!(
        "fleet_run: {} sessions ({} synthetic, {} trace) over {} epochs, digest {:#018x}",
        report.finished(),
        report.synthetic,
        report.traced,
        report.epochs,
        report.digest
    );

    if let Some(path) = &metrics_path {
        if let Err(e) = std::fs::write(path, impact_obs::snapshot().to_json()) {
            eprintln!("fleet_run: cannot write metrics to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("fleet_run: wrote telemetry snapshot to {path}");
    }
    if let Some(path) = &out_path {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("fleet_run: cannot write report to {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("fleet_run: wrote population report to {path}");
    }
    if let Some((path, recorded)) = recorded {
        if recorded != json {
            eprintln!(
                "fleet_run: population report drifted from {path} \
                 (byte-compare failed); re-run with --out and inspect the diff"
            );
            return ExitCode::FAILURE;
        }
        println!("fleet_run: report matches {path} byte-for-byte");
    }
    ExitCode::SUCCESS
}
