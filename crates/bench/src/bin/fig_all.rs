//! Regenerates the paper's tables and figures on the command line.
//!
//! ```text
//! fig_all                       # run everything (full sizes)
//! fig_all --quick               # run everything (reduced sizes)
//! fig_all fig9 fig11            # run selected experiments
//! fig_all --csv fig2            # CSV output instead of text
//! fig_all --jobs 4              # shard experiments over 4 worker threads
//! fig_all --backend traced      # run behind a tracing proxy
//! fig_all --record-trace f.trace  # capture a replayable trace file
//! fig_all --trace f.trace       # run a captured trace as an experiment
//! fig_all --metrics m.json      # dump the obs telemetry snapshot
//! ```
//!
//! With `--jobs N` (or `--jobs auto`) the suite is sharded across worker
//! threads by [`SweepRunner::run_all`]; the rendered output is printed in
//! suite order once every experiment has finished — bit-identical to a
//! serial run.
//!
//! `--record-trace PATH` records the canonical capture workload on the
//! selected `--backend` (spill-to-disk, replayable with `trace_replay`);
//! when no experiments are selected, fig_all exits after recording.
//! `--trace PATH` loads a previously captured trace and appends it to the
//! suite as the `trace` experiment (a prefix-replay sweep whose series is
//! bit-identical on every backend).
//!
//! `--metrics PATH` enables the wall-clock span timers and writes the
//! process-wide [`impact_obs`] telemetry snapshot (canonical JSON) to
//! `PATH` after the suite renders. Telemetry lives entirely outside the
//! deterministic state machine, so the rendered figures and any recorded
//! traces are byte-identical with or without the flag — CI diffs the two
//! byte for byte.

use std::env;
use std::fs::File;
use std::io::BufWriter;

use impact_bench::experiments;
use impact_bench::runner::ExperimentJob;
use impact_bench::trace_tools::{record_capture, trace_figure, CaptureKind, TraceScenario};
use impact_bench::{Figure, Scenario, SweepRunner};
use impact_sim::BackendKind;
use impact_workloads::CapturedTrace;

const ALL: [&str; 13] = [
    "delta",
    "table1",
    "table2",
    "fig2",
    "fig3",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "ablations",
    "future_banks",
    "rfm",
];

fn usage_exit(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: fig_all [--quick] [--csv] [--jobs N|auto] [--backend mono|traced] \
         [--record-trace PATH] [--trace PATH] [--metrics PATH] [EXPERIMENT...]"
    );
    eprintln!("experiments: {}", ALL.join(", "));
    std::process::exit(2);
}

fn render(fig: &Figure, csv: bool) {
    if csv {
        println!("# {}", fig.id);
        print!("{}", fig.render_csv());
    } else {
        print!("{}", fig.render_text());
    }
    println!();
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
    let backend = match flag_value("--backend") {
        None => BackendKind::Mono,
        Some(v) => {
            BackendKind::parse(&v).unwrap_or_else(|| usage_exit(&format!("unknown backend {v:?}")))
        }
    };
    let runner = match flag_value("--jobs").as_deref() {
        None => SweepRunner::serial(),
        Some("auto") => SweepRunner::auto(),
        Some(v) => match v.parse::<usize>() {
            Ok(n) => SweepRunner::new(n),
            Err(_) => usage_exit(&format!("bad --jobs value {v:?}")),
        },
    };
    let record_trace = flag_value("--record-trace");
    let trace_path = flag_value("--trace");
    let metrics_path = flag_value("--metrics");
    if metrics_path.is_some() {
        impact_obs::set_enabled(true);
    }

    // Positional args select experiments; flag values are skipped.
    let mut selected: Vec<&str> = Vec::new();
    let mut skip_next = false;
    for (i, a) in args.iter().enumerate() {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a == "--jobs"
            || a == "--backend"
            || a == "--record-trace"
            || a == "--trace"
            || a == "--metrics"
        {
            skip_next = true;
            continue;
        }
        if a.starts_with("--") {
            if a != "--quick" && a != "--csv" {
                usage_exit(&format!("unknown flag {a:?}"));
            }
            continue;
        }
        if !ALL.contains(&a.as_str()) {
            usage_exit(&format!("unknown experiment {a:?}"));
        }
        selected.push(&args[i]);
    }

    // --record-trace: capture the canonical mixed workload on the selected
    // backend before (or instead of) running experiments.
    if let Some(path) = &record_trace {
        let sink = File::create(path)
            .unwrap_or_else(|e| usage_exit(&format!("cannot create {path}: {e}")));
        let outcome = record_capture(
            CaptureKind::Mix,
            backend,
            quick,
            0x7ACE,
            Box::new(BufWriter::new(sink)),
        )
        .unwrap_or_else(|e| {
            eprintln!("fig_all: trace recording failed: {e}");
            std::process::exit(1);
        });
        eprintln!(
            "fig_all: recorded {} events ({} responses, digest {:#018x}) on `{}` to {path}",
            outcome.summary.events,
            outcome.summary.responses,
            outcome.summary.response_digest,
            backend.label(),
        );
        if selected.is_empty() && trace_path.is_none() {
            return;
        }
    }

    // No selection runs the whole suite in paper order; an explicit
    // selection preserves the user's order and duplicates.
    let mut jobs: Vec<ExperimentJob> = if selected.is_empty() && trace_path.is_some() {
        // A lone --trace runs just the captured-trace experiment.
        Vec::new()
    } else if selected.is_empty() {
        experiments::suite(quick, backend)
    } else {
        let mut pool: Vec<Option<ExperimentJob>> = experiments::suite(quick, backend)
            .into_iter()
            .map(Some)
            .collect();
        selected
            .iter()
            .map(|id| {
                pool.iter_mut()
                    .find(|j| j.as_ref().is_some_and(|j| j.id() == *id))
                    .and_then(Option::take)
                    .unwrap_or_else(|| {
                        // Duplicate selection: build a fresh instance.
                        experiments::suite(quick, backend)
                            .into_iter()
                            .find(|j| j.id() == *id)
                            .expect("validated against ALL")
                    })
            })
            .collect()
    };

    // --trace: append the captured trace as one more experiment.
    if let Some(path) = &trace_path {
        let captured = CapturedTrace::load(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("fig_all: cannot load trace {path}: {e}");
            std::process::exit(1);
        });
        let scenario = TraceScenario::new(captured, backend).unwrap_or_else(|e| {
            eprintln!("fig_all: trace {path} is not replayable: {e}");
            std::process::exit(1);
        });
        jobs.push(ExperimentJob::new("trace", move || {
            trace_figure(&scenario, scenario.run())
        }));
    }

    if runner.threads() > 1 {
        eprintln!(
            "fig_all: {} experiments on backend `{}` across {} workers",
            jobs.len(),
            backend.label(),
            runner.threads().min(jobs.len()),
        );
    }
    let figures = runner.run_all(&jobs);
    for fig in &figures {
        render(fig, csv);
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
