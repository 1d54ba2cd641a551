//! Regenerates the paper's tables and figures on the command line.
//!
//! ```text
//! fig_all                       # run everything (full sizes)
//! fig_all --quick               # run everything (reduced sizes)
//! fig_all fig9 fig11            # run selected experiments
//! fig_all --csv fig2            # CSV output instead of text
//! fig_all --trace f.trace       # run a captured trace as an experiment
//! fig_all --metrics m.json      # dump the obs telemetry snapshot
//! ```
//!
//! The experiments run one after another, in suite order or in the order
//! given (duplicates included); the five sweeps among them map their own
//! points over the host's cores. Each figure is printed as its experiment
//! returns, so a reader that goes away (`fig_all | head -1`) ends the run
//! at the next figure, with exit status 0.
//!
//! `--trace PATH` loads a trace captured with `trace_replay record` and
//! appends it to the suite as the `trace` experiment (a prefix-replay
//! sweep); with no experiments selected, it runs alone.
//!
//! `--metrics PATH` enables the wall-clock span timers and writes the
//! process-wide [`impact_obs`] telemetry snapshot (canonical JSON) to
//! `PATH` after the suite renders; `sweep.experiment.wall_ns` holds one
//! sample per experiment run. Telemetry lives entirely outside the
//! deterministic state machine, so the rendered figures are
//! byte-identical with or without the flag — CI diffs the two byte for
//! byte.

use std::env;
use std::io;

use impact_bench::experiments;
use impact_bench::runner::{run_and_print, ExperimentJob};
use impact_bench::trace_tools::TraceScenario;
use impact_sim::BackendKind;
use impact_workloads::CapturedTrace;

fn usage_exit(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: fig_all [--quick] [--csv] [--trace PATH] [--metrics PATH] [EXPERIMENT...]");
    let ids: Vec<String> = experiments::suite(false, BackendKind::Mono)
        .iter()
        .map(|job| job.id().to_owned())
        .collect();
    eprintln!("experiments: {}", ids.join(", "));
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut csv = false;
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut selected: Vec<String> = Vec::new();
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| match args.next() {
            Some(v) if !v.starts_with("--") => v,
            _ => usage_exit(&format!("{flag} needs a value")),
        };
        match arg.as_str() {
            "--quick" => quick = true,
            "--csv" => csv = true,
            "--trace" => trace_path = Some(value("--trace")),
            "--metrics" => metrics_path = Some(value("--metrics")),
            flag if flag.starts_with("--") => usage_exit(&format!("unknown flag {flag:?}")),
            _ => selected.push(arg),
        }
    }
    if metrics_path.is_some() {
        impact_obs::set_enabled(true);
    }

    // No selection runs the whole suite in paper order, or, with a lone
    // --trace, just the captured-trace experiment; an explicit selection
    // keeps the user's order and duplicates.
    let suite = experiments::suite(quick, BackendKind::Mono);
    let mut jobs: Vec<&ExperimentJob> = if selected.is_empty() && trace_path.is_none() {
        suite.iter().collect()
    } else {
        selected
            .iter()
            .map(|id| {
                suite
                    .iter()
                    .find(|job| job.id() == id)
                    .unwrap_or_else(|| usage_exit(&format!("unknown experiment {id:?}")))
            })
            .collect()
    };

    // --trace: append the captured trace as one more experiment.
    let trace_job = trace_path.map(|path| {
        let captured = CapturedTrace::load(std::path::Path::new(&path)).unwrap_or_else(|e| {
            eprintln!("fig_all: cannot load trace {path}: {e}");
            std::process::exit(1);
        });
        let scenario = TraceScenario::new(captured).unwrap_or_else(|e| {
            eprintln!("fig_all: trace {path} is not replayable: {e}");
            std::process::exit(1);
        });
        ExperimentJob::new("trace", move || scenario.figure())
    });
    jobs.extend(&trace_job);

    match run_and_print(jobs, csv, &mut io::stdout().lock()) {
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
