//! How the paper suite runs: [`run_all`] maps whole experiments over
//! worker threads through [`impact_core::par::ordered_map`].
//!
//! Each [`ExperimentJob`] builds all of its seeded state from its own
//! captured parameters, so the figures come back bit-identical at any
//! worker count (`tests/determinism.rs` pins this). Inside the suite the
//! five sweeps also map their own points over the host's cores, each
//! point on a seeded `System` of its own: Fig. 9's 40 (LLC size, attack)
//! points, Fig. 11's four bank counts, Fig. 12's 25 replays
//! ([`crate::experiments::fig12_on`]), the 22 ablation points and the
//! §8.4 bank study's 10. The other experiments cost about a millisecond
//! or less each and run serially in their jobs.

use impact_core::par;

use crate::{Figure, Series};

/// Runs a whole suite of experiments, sharding *across experiments*:
/// each of up to `workers` threads claims the next unstarted
/// [`ExperimentJob`] and runs it to completion. The returned figures are
/// in suite order and bit-identical for every worker count, because each
/// job is pure.
///
/// # Panics
///
/// Re-throws the own payload of the first panicking experiment in suite
/// order (see [`par::ordered_map`]).
#[must_use]
pub fn run_all(jobs: &[ExperimentJob], workers: usize) -> Vec<Figure> {
    par::ordered_map(jobs.iter().collect(), workers, |job| {
        let _span = impact_obs::registry().experiment_wall_ns.span();
        job.run()
    })
}

/// One whole experiment as a schedulable unit of [`run_all`]:
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
    use impact_core::rng::SimRng;
    use impact_sim::System;
    use std::panic::{catch_unwind, AssertUnwindSafe};

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
        let serial = run_all(&jobs, 1);
        assert_eq!(serial.len(), 5);
        for threads in [2, 3, 8] {
            let parallel = run_all(&jobs, threads);
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
        let run = || run_all(&jobs, 4);
        let payload = catch_unwind(AssertUnwindSafe(run)).expect_err("exp2 panics");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("exp2 hit a broken invariant")
        );
    }
}
