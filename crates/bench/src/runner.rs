//! Deterministic parallel sweep execution.
//!
//! A [`Scenario`] describes one experiment curve: the swept x values plus a
//! pure-per-point evaluation. The [`SweepRunner`] fans the points out over
//! `std::thread::scope` worker threads; because every point builds its own
//! seeded state (typically a `System` derived from a per-point
//! [`SimRng`]), the produced [`Series`] is bit-identical no matter how many
//! threads execute it — the reproducibility contract EXPERIMENTS.md relies
//! on, now at sweep granularity.
//!
//! # Writing a new scenario
//!
//! ```
//! use impact_bench::runner::{Scenario, SweepRunner};
//! use impact_core::config::SystemConfig;
//! use impact_core::rng::SimRng;
//! use impact_sim::System;
//!
//! /// Average cold-load latency over a handful of random rows.
//! struct ColdLoad;
//!
//! impl Scenario for ColdLoad {
//!     fn name(&self) -> String {
//!         "cold load (cycles)".into()
//!     }
//!     fn seed(&self) -> u64 {
//!         0xC01D
//!     }
//!     fn xs(&self) -> Vec<f64> {
//!         vec![1.0, 2.0, 4.0]
//!     }
//!     fn eval(&self, x: f64, rng: &mut SimRng) -> f64 {
//!         // One fresh, per-point system: parallel-safe by construction.
//!         let mut sys = System::new(SystemConfig::paper_table2_noiseless());
//!         let agent = sys.spawn_agent();
//!         let mut total = 0.0;
//!         for _ in 0..x as u64 {
//!             let bank = rng.below(16) as usize;
//!             let va = sys.alloc_row_in_bank(agent, bank).unwrap();
//!             total += sys.load(agent, va).unwrap().latency.as_f64();
//!         }
//!         total / x
//!     }
//! }
//!
//! let series = SweepRunner::new(2).run(&ColdLoad);
//! assert_eq!(series.points.len(), 3);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

use impact_core::rng::SimRng;

use crate::{Figure, Series};

/// One experiment curve evaluated over swept x values.
///
/// Implementations must be pure per point: `eval` may build arbitrary
/// simulator state, but only from its arguments — the swept `x` and an
/// RNG derived from ([`Scenario::seed`], point index). That makes point
/// evaluation order (and thus thread count) unobservable.
pub trait Scenario: Sync {
    /// Legend name of the produced series.
    fn name(&self) -> String;

    /// Base seed; point `i` evaluates with `SimRng::seed(seed).derive(i)`.
    fn seed(&self) -> u64 {
        0x5EED
    }

    /// The swept x values, in presentation order.
    fn xs(&self) -> Vec<f64>;

    /// Evaluates one sweep point.
    fn eval(&self, x: f64, rng: &mut SimRng) -> f64;

    /// Runs the scenario serially (the reference path).
    fn run(&self) -> Series
    where
        Self: Sized,
    {
        SweepRunner::serial().run(self)
    }
}

/// Derives the per-point RNG: a pure function of (scenario seed, index).
fn point_rng(seed: u64, index: usize) -> SimRng {
    SimRng::seed(seed).derive(index as u64)
}

/// Executes a [`Scenario`]'s sweep points across worker threads.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    threads: usize,
}

impl SweepRunner {
    /// A runner with the given worker count (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> SweepRunner {
        SweepRunner {
            threads: threads.max(1),
        }
    }

    /// The single-threaded reference runner.
    #[must_use]
    pub fn serial() -> SweepRunner {
        SweepRunner::new(1)
    }

    /// A runner sized to the machine's available parallelism.
    #[must_use]
    pub fn auto() -> SweepRunner {
        SweepRunner::new(thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
    }

    /// Worker threads this runner uses.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every sweep point and assembles the [`Series`].
    ///
    /// Points are claimed from a shared counter, evaluated with their own
    /// derived RNG, and reassembled in index order — the output is
    /// bit-identical for every thread count.
    pub fn run<S: Scenario + ?Sized>(&self, scenario: &S) -> Series {
        let xs = scenario.xs();
        let seed = scenario.seed();
        let eval_point = |i: usize, x: f64| scenario.eval(x, &mut point_rng(seed, i));
        let ys = if self.threads == 1 || xs.len() <= 1 {
            xs.iter()
                .enumerate()
                .map(|(i, &x)| eval_point(i, x))
                .collect()
        } else {
            let workers = self.threads.min(xs.len());
            let next = AtomicUsize::new(0);
            let mut indexed: Vec<(usize, f64)> = thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut local = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                let Some(&x) = xs.get(i) else { break };
                                local.push((i, eval_point(i, x)));
                            }
                            local
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("sweep worker panicked"))
                    .collect()
            });
            indexed.sort_unstable_by_key(|&(i, _)| i);
            indexed.into_iter().map(|(_, y)| y).collect::<Vec<f64>>()
        };
        Series::new(scenario.name(), xs.into_iter().zip(ys).collect())
    }

    /// Runs the sweep in parallel and asserts the result is bit-identical
    /// to the serial reference path before returning it.
    ///
    /// # Panics
    ///
    /// Panics if the parallel and serial series diverge — which would mean
    /// a scenario observes evaluation order and is not safe to parallelize.
    pub fn run_verified<S: Scenario + ?Sized>(&self, scenario: &S) -> Series {
        let parallel = self.run(scenario);
        let serial = SweepRunner::serial().run(scenario);
        assert!(
            series_bits_eq(&parallel, &serial),
            "parallel sweep diverged from the serial path for `{}`",
            parallel.name
        );
        parallel
    }
}

/// One whole experiment as a schedulable unit of [`SweepRunner::run_all`]:
/// an identifier plus a pure producer of its [`Figure`]. Purity (no
/// shared mutable state, everything derived from the job's own captured
/// parameters) is what makes cross-experiment sharding bit-identical at
/// any worker count.
pub struct ExperimentJob {
    id: String,
    run: Box<dyn Fn() -> Figure + Send + Sync>,
}

impl ExperimentJob {
    /// Creates a job from an identifier and a pure figure producer.
    #[must_use]
    pub fn new(
        id: impl Into<String>,
        run: impl Fn() -> Figure + Send + Sync + 'static,
    ) -> ExperimentJob {
        ExperimentJob {
            id: id.into(),
            run: Box::new(run),
        }
    }

    /// The experiment identifier (`"fig9"`, ...).
    #[must_use]
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Runs the experiment.
    #[must_use]
    pub fn run(&self) -> Figure {
        (self.run)()
    }
}

impl core::fmt::Debug for ExperimentJob {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ExperimentJob")
            .field("id", &self.id)
            .finish()
    }
}

/// Progress events [`SweepRunner::run_all`] streams to its callback while
/// the suite executes, in completion order (not suite order). Partial
/// results arrive as [`RunAllEvent::SeriesReady`] per finished series, so
/// long sweeps report incrementally instead of all at the end.
#[derive(Debug)]
pub enum RunAllEvent<'a> {
    /// A worker claimed the experiment and started executing it.
    Started {
        /// Experiment identifier.
        id: &'a str,
    },
    /// One series of a finished experiment (streamed before `Finished`).
    SeriesReady {
        /// Experiment identifier.
        id: &'a str,
        /// The completed series.
        series: &'a Series,
    },
    /// The experiment finished.
    Finished {
        /// Experiment identifier.
        id: &'a str,
        /// Position of this experiment in the suite.
        index: usize,
        /// Experiments finished so far (including this one).
        completed: usize,
        /// Total experiments in the suite.
        total: usize,
    },
}

/// Internal worker → coordinator message of [`SweepRunner::run_all`].
enum SuiteMsg {
    Started(usize),
    Done(usize, Figure),
}

impl SweepRunner {
    /// Runs a whole suite of experiments, sharding *across experiments*:
    /// each worker thread claims the next unstarted [`ExperimentJob`],
    /// runs it to completion, and hands the figure back to the calling
    /// thread, which invokes `on_event` as results arrive (see
    /// [`RunAllEvent`]). The returned figures are in suite order and
    /// bit-identical for every worker count, because each job is pure.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics (an experiment itself panicked).
    pub fn run_all<F>(&self, jobs: &[ExperimentJob], mut on_event: F) -> Vec<Figure>
    where
        F: FnMut(RunAllEvent<'_>),
    {
        let total = jobs.len();
        if self.threads == 1 || total <= 1 {
            let mut out = Vec::with_capacity(total);
            for (index, job) in jobs.iter().enumerate() {
                on_event(RunAllEvent::Started { id: job.id() });
                let fig = {
                    let _span = impact_obs::registry().experiment_wall_ns.span();
                    job.run()
                };
                for series in &fig.series {
                    on_event(RunAllEvent::SeriesReady {
                        id: job.id(),
                        series,
                    });
                }
                on_event(RunAllEvent::Finished {
                    id: job.id(),
                    index,
                    completed: index + 1,
                    total,
                });
                out.push(fig);
            }
            return out;
        }

        let workers = self.threads.min(total);
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<SuiteMsg>();
        let mut slots: Vec<Option<Figure>> = (0..total).map(|_| None).collect();
        thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                scope.spawn(|| {
                    // Move the clone into the worker; drop it when the
                    // claiming loop runs dry so the receiver terminates.
                    let tx = tx;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        let _ = tx.send(SuiteMsg::Started(i));
                        let fig = {
                            let _span = impact_obs::registry().experiment_wall_ns.span();
                            job.run()
                        };
                        let _ = tx.send(SuiteMsg::Done(i, fig));
                    }
                });
            }
            drop(tx);
            let mut completed = 0usize;
            while let Ok(msg) = rx.recv() {
                match msg {
                    SuiteMsg::Started(i) => on_event(RunAllEvent::Started { id: jobs[i].id() }),
                    SuiteMsg::Done(i, fig) => {
                        completed += 1;
                        for series in &fig.series {
                            on_event(RunAllEvent::SeriesReady {
                                id: jobs[i].id(),
                                series,
                            });
                        }
                        on_event(RunAllEvent::Finished {
                            id: jobs[i].id(),
                            index: i,
                            completed,
                            total,
                        });
                        slots[i] = Some(fig);
                    }
                }
            }
        });
        slots
            .into_iter()
            .map(|f| f.expect("every claimed job completes"))
            .collect()
    }
}

/// Bit-exact series equality: names, lengths and the IEEE-754 bits of
/// every point (so `-0.0 != 0.0` and NaNs compare by payload).
#[must_use]
pub fn series_bits_eq(a: &Series, b: &Series) -> bool {
    a.name == b.name
        && a.points.len() == b.points.len()
        && a.points
            .iter()
            .zip(&b.points)
            .all(|(&(xa, ya), &(xb, yb))| {
                xa.to_bits() == xb.to_bits() && ya.to_bits() == yb.to_bits()
            })
}

#[cfg(test)]
mod tests {
    use super::*;
    use impact_core::config::SystemConfig;
    use impact_sim::System;

    /// A System-backed scenario: per-point seeded request streams.
    struct RandomProbes;

    impl Scenario for RandomProbes {
        fn name(&self) -> String {
            "random probes".into()
        }
        fn seed(&self) -> u64 {
            41
        }
        fn xs(&self) -> Vec<f64> {
            (1..=8).map(f64::from).collect()
        }
        fn eval(&self, x: f64, rng: &mut SimRng) -> f64 {
            let mut sys = System::new(SystemConfig::paper_table2_noiseless());
            let agent = sys.spawn_agent();
            let mut total = 0u64;
            for _ in 0..(x as u64 * 8) {
                let bank = rng.below(16) as usize;
                let va = sys.alloc_row_in_bank(agent, bank).expect("alloc");
                total += sys.load(agent, va).expect("load").latency.0;
            }
            total as f64
        }
    }

    #[test]
    fn thread_count_is_unobservable() {
        let serial = SweepRunner::serial().run(&RandomProbes);
        for threads in [2, 3, 8, 32] {
            let parallel = SweepRunner::new(threads).run(&RandomProbes);
            assert!(
                series_bits_eq(&serial, &parallel),
                "{threads} threads diverged"
            );
        }
    }

    #[test]
    fn run_verified_returns_the_parallel_result() {
        let s = SweepRunner::new(4).run_verified(&RandomProbes);
        assert_eq!(s.points.len(), 8);
        assert!(s.points.iter().all(|&(_, y)| y > 0.0));
    }

    #[test]
    fn default_run_is_serial() {
        let a = RandomProbes.run();
        let b = SweepRunner::serial().run(&RandomProbes);
        assert!(series_bits_eq(&a, &b));
    }

    #[test]
    fn runner_clamps_to_one_thread() {
        assert_eq!(SweepRunner::new(0).threads(), 1);
        assert!(SweepRunner::auto().threads() >= 1);
    }

    #[test]
    fn bit_equality_is_strict() {
        let a = Series::new("s", vec![(1.0, 0.0)]);
        let b = Series::new("s", vec![(1.0, -0.0)]);
        assert!(!series_bits_eq(&a, &b));
        assert!(series_bits_eq(&a, &a.clone()));
    }

    fn toy_suite() -> Vec<ExperimentJob> {
        (0..5)
            .map(|i| {
                ExperimentJob::new(format!("exp{i}"), move || {
                    // A System-backed mini-experiment: per-job seeded work.
                    let mut sys = System::new(SystemConfig::paper_table2_noiseless());
                    let agent = sys.spawn_agent();
                    let mut rng = SimRng::seed(0xA11 + i);
                    let pts: Vec<(f64, f64)> = (0..4)
                        .map(|x| {
                            let bank = rng.below(16) as usize;
                            let va = sys.alloc_row_in_bank(agent, bank).expect("alloc");
                            let lat = sys.load(agent, va).expect("load").latency.as_f64();
                            (f64::from(x), lat)
                        })
                        .collect();
                    Figure::new(format!("exp{i}"), "toy", "x", "cycles")
                        .with_series(Series::new("latency", pts))
                })
            })
            .collect()
    }

    #[test]
    fn run_all_is_bit_identical_at_any_thread_count() {
        let jobs = toy_suite();
        let serial = SweepRunner::serial().run_all(&jobs, |_| {});
        assert_eq!(serial.len(), 5);
        for threads in [2, 3, 8] {
            let parallel = SweepRunner::new(threads).run_all(&jobs, |_| {});
            assert_eq!(parallel.len(), serial.len());
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.id, b.id, "{threads} threads reordered the suite");
                assert_eq!(a.series.len(), b.series.len());
                for (sa, sb) in a.series.iter().zip(&b.series) {
                    assert!(series_bits_eq(sa, sb), "{threads} threads diverged");
                }
            }
        }
    }

    #[test]
    fn run_all_streams_partial_results() {
        let jobs = toy_suite();
        let mut started = Vec::new();
        let mut series_seen = 0usize;
        let mut finished = Vec::new();
        let mut last_completed = 0usize;
        let figs = SweepRunner::new(4).run_all(&jobs, |ev| match ev {
            RunAllEvent::Started { id } => started.push(id.to_string()),
            RunAllEvent::SeriesReady { series, .. } => {
                assert!(!series.points.is_empty());
                series_seen += 1;
            }
            RunAllEvent::Finished {
                completed, total, ..
            } => {
                assert_eq!(total, jobs.len());
                assert!(completed > last_completed);
                last_completed = completed;
                finished.push(completed);
            }
        });
        assert_eq!(figs.len(), jobs.len());
        assert_eq!(started.len(), jobs.len());
        assert_eq!(series_seen, jobs.len()); // one series per toy figure
        assert_eq!(last_completed, jobs.len());
    }

    #[test]
    fn empty_sweep_produces_empty_series() {
        struct Empty;
        impl Scenario for Empty {
            fn name(&self) -> String {
                "empty".into()
            }
            fn xs(&self) -> Vec<f64> {
                Vec::new()
            }
            fn eval(&self, _: f64, _: &mut SimRng) -> f64 {
                unreachable!("no points to evaluate")
            }
        }
        let s = SweepRunner::new(4).run(&Empty);
        assert!(s.points.is_empty());
    }
}
