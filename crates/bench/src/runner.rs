//! Deterministic parallel sweep execution.
//!
//! A [`Scenario`] describes one experiment curve: the swept x values plus a
//! pure-per-point evaluation. The [`SweepRunner`] fans the points out
//! through [`impact_core::par::ordered_map`]; because every point builds
//! its own seeded state (typically a `System` derived from a per-point
//! [`SimRng`]), the produced [`Series`] is bit-identical no matter how many
//! threads execute it (`tests/determinism.rs` pins this for the ported
//! sweeps).
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

use impact_core::par;
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
        SweepRunner::new(par::available_workers())
    }

    /// Worker threads this runner uses.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every sweep point and assembles the [`Series`].
    ///
    /// Each point is evaluated with its own derived RNG and the results
    /// come back in index order — the output is bit-identical for every
    /// thread count.
    pub fn run<S: Scenario + ?Sized>(&self, scenario: &S) -> Series {
        let xs = scenario.xs();
        let seed = scenario.seed();
        let points: Vec<(usize, f64)> = xs.iter().copied().enumerate().collect();
        let ys = par::ordered_map(points, self.threads, |(i, x)| {
            scenario.eval(x, &mut point_rng(seed, i))
        });
        Series::new(scenario.name(), xs.into_iter().zip(ys).collect())
    }

    /// Runs a whole suite of experiments, sharding *across experiments*:
    /// each worker thread claims the next unstarted [`ExperimentJob`] and
    /// runs it to completion. The returned figures are in suite order and
    /// bit-identical for every worker count, because each job is pure.
    ///
    /// # Panics
    ///
    /// Re-throws the own payload of the first panicking experiment in
    /// suite order (see [`par::ordered_map`]).
    #[must_use]
    pub fn run_all(&self, jobs: &[ExperimentJob]) -> Vec<Figure> {
        par::ordered_map(jobs.iter().collect(), self.threads, |job| {
            let _span = impact_obs::registry().experiment_wall_ns.span();
            job.run()
        })
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
    use std::panic::{catch_unwind, AssertUnwindSafe};

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
        let serial = SweepRunner::serial().run_all(&jobs);
        assert_eq!(serial.len(), 5);
        for threads in [2, 3, 8] {
            let parallel = SweepRunner::new(threads).run_all(&jobs);
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
    fn run_all_rethrows_the_experiments_own_panic() {
        let jobs: Vec<ExperimentJob> = (0..5)
            .map(|i| {
                ExperimentJob::new(format!("exp{i}"), move || {
                    if i == 2 {
                        panic!("exp{i} hit a broken invariant");
                    }
                    Figure::new(format!("exp{i}"), "toy", "x", "y")
                })
            })
            .collect();
        let run = || SweepRunner::new(4).run_all(&jobs);
        let payload = catch_unwind(AssertUnwindSafe(run)).expect_err("exp2 panics");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("exp2 hit a broken invariant")
        );
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
