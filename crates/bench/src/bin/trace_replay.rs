//! Capture, replay, diff and summarize persisted controller traces.
//!
//! ```text
//! trace_replay record --out run.trace [--scenario mix|pnm|bfs] [--quick] [--seed N]
//! trace_replay replay run.trace [--metrics m.json]
//! trace_replay diff   a.trace b.trace
//! trace_replay stats  run.trace
//! trace_replay slice  run.trace --out window.trace --start N --count N
//! trace_replay merge  merged.trace a.trace b.trace [MORE...]
//! ```
//!
//! `record` runs a canonical capture workload with the tracing proxy
//! streaming straight to disk. `replay` re-services the file on a fresh
//! controller and verifies responses, `BackendStats` and the DRAM state
//! digest bit-for-bit against the recorded footer (exit code 1 on any
//! mismatch); `--metrics PATH` additionally writes the `impact_obs`
//! telemetry snapshot of the replay (canonical JSON) — telemetry never
//! feeds the verification, so the verdict is identical with or without
//! it. `diff` reports the first divergent event between two files with
//! context (exit code 1 on divergence). `stats` prints the per-kind and
//! per-bank request mix. `slice` extracts an event window into a
//! standalone trace whose footer is recomputed by replaying the window
//! from pristine state — the result passes `replay` verification like any
//! first-class capture (see `impact_bench::trace_tools::slice_capture`).
//! `merge` concatenates captures recorded on the same configuration into
//! one standalone trace whose footer is likewise recomputed from pristine
//! state (see `impact_bench::trace_tools::merge_captures`).
//!
//! A malformed command line prints the usage text and exits 2. A file
//! that cannot be opened, read or written exits 1 with a one-line
//! `trace_replay: cannot …` message, like a trace that fails to decode or
//! replay.

use std::env;
use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;

use impact_bench::trace_tools::{
    diff_readers, merge_captures, record_capture, replay_file, slice_capture, trace_stats,
    CaptureKind, DiffOutcome,
};
use impact_sim::BackendKind;
use impact_workloads::CapturedTrace;

fn usage_exit(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: trace_replay record --out FILE [--scenario mix|pnm|bfs] [--quick] [--seed N]\n\
         \x20      trace_replay replay FILE [--metrics FILE]\n\
         \x20      trace_replay diff A B\n\
         \x20      trace_replay stats FILE\n\
         \x20      trace_replay slice FILE --out FILE --start N --count N\n\
         \x20      trace_replay merge OUT IN IN [IN...]"
    );
    std::process::exit(2);
}

/// Reports a failure that is not a usage error (a file that cannot be
/// read or written, a trace that does not decode or replay) and exits 1.
fn fail(msg: &str) -> ! {
    eprintln!("trace_replay: {msg}");
    std::process::exit(1);
}

struct Args {
    positional: Vec<String>,
    quick: bool,
    scenario: CaptureKind,
    seed: u64,
    out: Option<String>,
    start: Option<usize>,
    count: Option<usize>,
    metrics: Option<String>,
}

fn parse_args(raw: &[String]) -> Args {
    let mut args = Args {
        positional: Vec::new(),
        quick: false,
        scenario: CaptureKind::Mix,
        seed: 0x7ACE,
        out: None,
        start: None,
        count: None,
        metrics: None,
    };
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| match it.next() {
            Some(v) if !v.starts_with("--") => v.clone(),
            _ => usage_exit(&format!("{flag} needs a value")),
        };
        match a.as_str() {
            "--quick" => args.quick = true,
            "--scenario" => {
                let v = value("--scenario");
                args.scenario = CaptureKind::parse(&v)
                    .unwrap_or_else(|| usage_exit(&format!("unknown scenario {v:?}")));
            }
            "--seed" => {
                let v = value("--seed");
                args.seed = v
                    .parse()
                    .unwrap_or_else(|_| usage_exit(&format!("bad --seed value {v:?}")));
            }
            "--out" => args.out = Some(value("--out")),
            "--metrics" => args.metrics = Some(value("--metrics")),
            "--start" => {
                let v = value("--start");
                args.start = Some(
                    v.parse()
                        .unwrap_or_else(|_| usage_exit(&format!("bad --start value {v:?}"))),
                );
            }
            "--count" => {
                let v = value("--count");
                args.count = Some(
                    v.parse()
                        .unwrap_or_else(|_| usage_exit(&format!("bad --count value {v:?}"))),
                );
            }
            flag if flag.starts_with("--") => usage_exit(&format!("unknown flag {flag:?}")),
            _ => args.positional.push(a.clone()),
        }
    }
    args
}

/// Writes a finished `slice`/`merge` output. Both build the whole file in
/// memory first, so a failed command leaves an existing output file as it
/// was.
fn write_output(path: &str, bytes: &[u8]) {
    std::fs::write(path, bytes).unwrap_or_else(|e| fail(&format!("cannot create {path}: {e}")));
}

fn open(path: &str) -> BufReader<File> {
    BufReader::new(File::open(path).unwrap_or_else(|e| fail(&format!("cannot open {path}: {e}"))))
}

fn main() -> ExitCode {
    let raw: Vec<String> = env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        usage_exit("missing subcommand");
    };
    let args = parse_args(rest);
    match cmd.as_str() {
        "record" => {
            let Some(out) = args.out.as_deref() else {
                usage_exit("record needs --out FILE");
            };
            if !args.positional.is_empty() {
                usage_exit("record takes no positional arguments");
            }
            let sink =
                File::create(out).unwrap_or_else(|e| fail(&format!("cannot create {out}: {e}")));
            let outcome = record_capture(
                args.scenario,
                BackendKind::Mono,
                args.quick,
                args.seed,
                Box::new(std::io::BufWriter::new(sink)),
            )
            .unwrap_or_else(|e| fail(&format!("record failed: {e}")));
            println!(
                "recorded scenario={} quick={} seed={}",
                args.scenario.name(),
                args.quick,
                args.seed,
            );
            println!(
                "  config={} events={} responses={}",
                outcome.label, outcome.summary.events, outcome.summary.responses,
            );
            println!(
                "  response-digest={:#018x}",
                outcome.summary.response_digest
            );
            println!("  state-digest={:#018x}", outcome.state_digest);
            ExitCode::SUCCESS
        }
        "replay" => {
            let [file] = &args.positional[..] else {
                usage_exit("replay takes exactly one trace file");
            };
            if args.metrics.is_some() {
                impact_obs::set_enabled(true);
            }
            let v = replay_file(open(file), BackendKind::Mono)
                .unwrap_or_else(|e| fail(&format!("replay failed: {e}")));
            println!(
                "replayed {} events / {} responses",
                v.recorded.events, v.responses,
            );
            println!("  response-digest={:#018x}", v.response_digest);
            println!("  state-digest={:#018x}", v.state_digest);
            if let Some(path) = &args.metrics {
                let json = impact_obs::snapshot().to_json();
                std::fs::write(path, json)
                    .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
                println!("  metrics: wrote telemetry snapshot to {path}");
            }
            if v.matches() {
                println!("  verdict: bit-identical to the recorded run");
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "  MISMATCH: recorded responses={} digest={:#018x} stats={:?}",
                    v.recorded.responses, v.recorded.response_digest, v.recorded.stats
                );
                eprintln!(
                    "            replayed responses={} digest={:#018x} stats={:?}",
                    v.responses, v.response_digest, v.stats
                );
                ExitCode::FAILURE
            }
        }
        "diff" => {
            let [a, b] = &args.positional[..] else {
                usage_exit("diff takes exactly two trace files");
            };
            let outcome = diff_readers(open(a), open(b))
                .unwrap_or_else(|e| fail(&format!("diff failed: {e}")));
            match outcome {
                DiffOutcome::Identical { events } => {
                    println!("identical: {events} events, matching footers");
                    ExitCode::SUCCESS
                }
                DiffOutcome::HeaderMismatch(fields) => {
                    eprintln!("headers differ:");
                    for f in fields {
                        eprintln!("  {f}");
                    }
                    ExitCode::FAILURE
                }
                DiffOutcome::EventMismatch {
                    index,
                    left,
                    right,
                    context,
                } => {
                    eprintln!("first divergent event at index {index}:");
                    for (i, ev) in context.iter().enumerate() {
                        let at = index - (context.len() - i) as u64;
                        eprintln!("  [{at}] (shared) {ev:?}");
                    }
                    match left {
                        Some(ev) => eprintln!("  [{index}] left:  {ev:?}"),
                        None => eprintln!("  [{index}] left:  <stream ends>"),
                    }
                    match right {
                        Some(ev) => eprintln!("  [{index}] right: {ev:?}"),
                        None => eprintln!("  [{index}] right: <stream ends>"),
                    }
                    ExitCode::FAILURE
                }
                DiffOutcome::SummaryMismatch { left, right } => {
                    eprintln!("events identical but footers differ:");
                    eprintln!("  left:  {left:?}");
                    eprintln!("  right: {right:?}");
                    ExitCode::FAILURE
                }
            }
        }
        "stats" => {
            let [file] = &args.positional[..] else {
                usage_exit("stats takes exactly one trace file");
            };
            let (header, mix, summary) =
                trace_stats(open(file)).unwrap_or_else(|e| fail(&format!("stats failed: {e}")));
            println!(
                "trace config={} (fingerprint {:#018x}) seed={}",
                header.label, header.fingerprint, header.seed
            );
            println!(
                "  {} events, {} responses, recorded digest {:#018x}",
                summary.events, summary.responses, summary.response_digest
            );
            println!(
                "  kinds: {} load, {} store, {} pim, {} rowclone, {} inject",
                mix.loads, mix.stores, mix.pims, mix.rowclones, mix.injects
            );
            println!(
                "  batches: {} (largest {}), unmapped requests: {}",
                mix.batches, mix.max_batch, mix.unmapped
            );
            let total: u64 = mix.per_bank.iter().sum();
            println!(
                "  per-bank requests ({} banks, {total} total):",
                mix.per_bank.len()
            );
            for (bank, count) in mix.per_bank.iter().enumerate() {
                if *count > 0 {
                    println!("    bank {bank:>4}: {count}");
                }
            }
            ExitCode::SUCCESS
        }
        "slice" => {
            let [file] = &args.positional[..] else {
                usage_exit("slice takes exactly one trace file");
            };
            let Some(out) = args.out.as_deref() else {
                usage_exit("slice needs --out FILE");
            };
            let Some(count) = args.count else {
                usage_exit("slice needs --count N");
            };
            let start = args.start.unwrap_or(0);
            let captured = CapturedTrace::read_from(open(file))
                .unwrap_or_else(|e| fail(&format!("cannot read {file}: {e}")));
            let mut bytes = Vec::new();
            let outcome = slice_capture(&captured, start, count, &mut bytes)
                .unwrap_or_else(|e| fail(&format!("slice failed: {e}")));
            write_output(out, &bytes);
            println!(
                "sliced events [{start}, {}) of {} into {out}",
                start + count,
                captured.events.len(),
            );
            println!(
                "  {} events, {} responses, recomputed digest {:#018x}",
                outcome.summary.events, outcome.summary.responses, outcome.summary.response_digest
            );
            println!("  state-digest={:#018x}", outcome.state_digest);
            ExitCode::SUCCESS
        }
        "merge" => {
            let [out, inputs @ ..] = &args.positional[..] else {
                usage_exit("merge takes an output file then at least two inputs");
            };
            if inputs.len() < 2 {
                usage_exit("merge takes an output file then at least two inputs");
            }
            let captures: Vec<CapturedTrace> = inputs
                .iter()
                .map(|file| {
                    CapturedTrace::read_from(open(file))
                        .unwrap_or_else(|e| fail(&format!("cannot read {file}: {e}")))
                })
                .collect();
            let mut bytes = Vec::new();
            let outcome = merge_captures(&captures, &mut bytes)
                .unwrap_or_else(|e| fail(&format!("merge failed: {e}")));
            write_output(out, &bytes);
            println!("merged {} traces into {out}", inputs.len());
            println!(
                "  {} events, {} responses, recomputed digest {:#018x}",
                outcome.summary.events, outcome.summary.responses, outcome.summary.response_digest
            );
            println!("  state-digest={:#018x}", outcome.state_digest);
            ExitCode::SUCCESS
        }
        other => usage_exit(&format!("unknown subcommand {other:?}")),
    }
}
