//! How the paper suite runs: one [`ExperimentJob`] per experiment, run
//! one after another by [`run_and_print`], which writes each figure as
//! its job returns (`fig_all` runs the jobs in suite order or the order
//! it is given).
//!
//! Each job builds all of its seeded state from its own captured
//! parameters, so its figure depends on nothing but those parameters.
//! Inside the suite the five sweeps map their own points over the host's
//! cores through [`impact_core::par`], each point on a seeded `System` of
//! its own: Fig. 9's 40 (LLC size, attack) points, Fig. 11's four bank
//! counts, Fig. 12's five workloads ([`crate::experiments::fig12_on`]),
//! each one front end driving all five defense rows' controllers, the 22
//! ablation points and the §8.4 bank study's 10. So the figures come
//! back bit-identical at any core count: `tests/determinism.rs` compares
//! Fig. 12 at 1, 2 and 8 workers, and CI diffs the whole suite pinned to
//! one CPU against an unpinned run. The other experiments cost about a
//! millisecond or less each and run serially in their jobs.

use std::io::{self, Write};

use crate::{Figure, Series};

/// One whole experiment: an identifier plus a pure producer of its
/// [`Figure`]. Purity (no shared mutable state, everything derived from
/// the job's own captured parameters) makes every run of a job render
/// the same bytes.
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

/// Runs `jobs` in order and writes each figure to `out` as soon as its
/// job returns: its text, or with `csv` a `# id` line and its CSV, then a
/// blank line, flushed. Each run is one `sweep.experiment.wall_ns` span.
///
/// # Errors
///
/// The first write error (a reader that has gone away gives
/// [`io::ErrorKind::BrokenPipe`]); the jobs after it do not run.
pub fn run_and_print<'a>(
    jobs: impl IntoIterator<Item = &'a ExperimentJob>,
    csv: bool,
    out: &mut impl Write,
) -> io::Result<()> {
    for job in jobs {
        let fig = {
            let _span = impact_obs::registry().experiment_wall_ns.span();
            job.run()
        };
        if csv {
            writeln!(out, "# {}", fig.id)?;
            write!(out, "{}", fig.render_csv())?;
        } else {
            write!(out, "{}", fig.render_text())?;
        }
        writeln!(out)?;
        out.flush()?;
    }
    Ok(())
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

    /// A reader that has gone away: every write fails as a closed pipe.
    struct ClosedPipe;

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failed_write_runs_no_further_job() {
        let first = ExperimentJob::new("first", || Figure::new("first", "t", "x", "y"));
        let second = ExperimentJob::new("second", || panic!("ran after a failed write"));
        let err = run_and_print([&first, &second], false, &mut ClosedPipe).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn csv_figures_carry_their_id() {
        let job = ExperimentJob::new("f", || {
            Figure::new("f", "t", "x", "y").with_series(Series::new("s", vec![(1.0, 2.0)]))
        });
        let mut out = Vec::new();
        run_and_print([&job, &job], true, &mut out).unwrap();
        let fig = job.run();
        let one = format!("# f\n{}\n", fig.render_csv());
        assert_eq!(String::from_utf8(out).unwrap(), one.repeat(2));
    }

    #[test]
    fn bit_equality_is_strict() {
        let a = Series::new("s", vec![(1.0, 0.0)]);
        let b = Series::new("s", vec![(1.0, -0.0)]);
        assert!(!series_bits_eq(&a, &b));
        assert!(series_bits_eq(&a, &a.clone()));
    }
}
