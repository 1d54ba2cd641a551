//! Regenerates the paper's tables and figures on the command line.
//!
//! ```text
//! fig_all                       # run everything (full sizes)
//! fig_all --quick               # run everything (reduced sizes)
//! fig_all fig9 fig11            # run selected experiments
//! fig_all --csv fig2            # CSV output instead of text
//! fig_all --jobs 4              # shard experiments over 4 worker threads
//! fig_all --trace f.trace       # run a captured trace as an experiment
//! fig_all --metrics m.json      # dump the obs telemetry snapshot
//! ```
//!
//! With `--jobs N` (or `--jobs auto`) the suite is sharded across worker
//! threads by [`run_all`]; the rendered output is printed in suite order
//! once every experiment has finished — bit-identical to a serial run.
//!
//! `--trace PATH` loads a trace captured with `trace_replay record` and
//! appends it to the suite as the `trace` experiment (a prefix-replay
//! sweep); with no experiments selected, it runs alone.
//!
//! `--metrics PATH` enables the wall-clock span timers and writes the
//! process-wide [`impact_obs`] telemetry snapshot (canonical JSON) to
//! `PATH` after the suite renders. Telemetry lives entirely outside the
//! deterministic state machine, so the rendered figures are
//! byte-identical with or without the flag — CI diffs the two byte for
//! byte.

use std::env;
use std::io::{self, Write};

use impact_bench::experiments;
use impact_bench::runner::{run_all, ExperimentJob};
use impact_bench::trace_tools::TraceScenario;
use impact_bench::Figure;
use impact_core::par::available_workers;
use impact_sim::BackendKind;
use impact_workloads::CapturedTrace;

fn usage_exit(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: fig_all [--quick] [--csv] [--jobs N|auto] [--trace PATH] [--metrics PATH] \
         [EXPERIMENT...]"
    );
    let ids: Vec<String> = experiments::suite(false, BackendKind::Mono)
        .iter()
        .map(|job| job.id().to_owned())
        .collect();
    eprintln!("experiments: {}", ids.join(", "));
    std::process::exit(2);
}

/// Writes every figure through one locked stdout.
fn render_all(figures: &[Figure], csv: bool) -> io::Result<()> {
    let mut out = io::stdout().lock();
    for fig in figures {
        if csv {
            writeln!(out, "# {}", fig.id)?;
            write!(out, "{}", fig.render_csv())?;
        } else {
            write!(out, "{}", fig.render_text())?;
        }
        writeln!(out)?;
    }
    out.flush()
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let csv = args.iter().any(|a| a == "--csv");

    let flag_value = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .map(|i| match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => v.clone(),
                _ => usage_exit(&format!("{flag} needs a value")),
            })
    };
    let workers = match flag_value("--jobs").as_deref() {
        None => 1,
        Some("auto") => available_workers(),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => usage_exit(&format!("bad --jobs value {v:?}")),
        },
    };
    let trace_path = flag_value("--trace");
    let metrics_path = flag_value("--metrics");
    if metrics_path.is_some() {
        impact_obs::set_enabled(true);
    }

    // Positional args select experiments; flag values are skipped.
    let suite = experiments::suite(quick, BackendKind::Mono);
    let mut selected: Vec<&str> = Vec::new();
    let mut skip_next = false;
    for (i, a) in args.iter().enumerate() {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a == "--jobs" || a == "--trace" || a == "--metrics" {
            skip_next = true;
            continue;
        }
        if a.starts_with("--") {
            if a != "--quick" && a != "--csv" {
                usage_exit(&format!("unknown flag {a:?}"));
            }
            continue;
        }
        if !suite.iter().any(|job| job.id() == a) {
            usage_exit(&format!("unknown experiment {a:?}"));
        }
        selected.push(&args[i]);
    }

    // No selection runs the whole suite in paper order; an explicit
    // selection preserves the user's order and duplicates.
    let mut jobs: Vec<ExperimentJob> = if selected.is_empty() && trace_path.is_some() {
        // A lone --trace runs just the captured-trace experiment.
        Vec::new()
    } else if selected.is_empty() {
        suite
    } else {
        selected
            .iter()
            .map(|id| {
                experiments::suite(quick, BackendKind::Mono)
                    .into_iter()
                    .find(|job| job.id() == *id)
                    .expect("validated against the suite")
            })
            .collect()
    };

    // --trace: append the captured trace as one more experiment.
    if let Some(path) = &trace_path {
        let captured = CapturedTrace::load(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("fig_all: cannot load trace {path}: {e}");
            std::process::exit(1);
        });
        let scenario = TraceScenario::new(captured).unwrap_or_else(|e| {
            eprintln!("fig_all: trace {path} is not replayable: {e}");
            std::process::exit(1);
        });
        jobs.push(ExperimentJob::new("trace", move || scenario.figure()));
    }

    if workers > 1 {
        eprintln!(
            "fig_all: {} experiments across {} workers",
            jobs.len(),
            workers.min(jobs.len()),
        );
    }
    let figures = run_all(&jobs, workers);
    match render_all(&figures, csv) {
        Ok(()) => {}
        // The reader has gone (`fig_all | head`): nothing is left to do.
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            eprintln!("fig_all: cannot write output: {e}");
            std::process::exit(1);
        }
    }

    if let Some(path) = &metrics_path {
        let json = impact_obs::snapshot().to_json();
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("fig_all: cannot write metrics to {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("fig_all: wrote telemetry snapshot to {path}");
    }
}
