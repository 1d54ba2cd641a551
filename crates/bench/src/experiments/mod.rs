//! The experiments, one per paper table/figure plus ablations.

mod ablation;
mod covert;
mod defense;
mod future;
mod side;
mod sweeps;
mod tables;

pub use ablation::{ablations, ablations_on};
pub use covert::{fig10, fig10_on, fig8, fig8_on, fig9, fig9_on};
pub use defense::{fig12, fig12_on, fig12_workloads, DefenseOverheadSweep};
pub use future::{future_banks, future_banks_on, rfm_filtering, rfm_filtering_on};
pub use side::{fig11, fig11_on};
pub use sweeps::{delta, delta_on, fig2, fig3, LlcAxis, LlcCurve, LlcSweep};
pub use tables::{table1, table2};

use impact_sim::BackendKind;

use crate::runner::ExperimentJob;
use crate::Figure;

/// The full paper suite as schedulable jobs, every system-backed
/// experiment built on `backend`. This is the unit
/// [`crate::SweepRunner::run_all`] shards across worker threads.
///
/// `quick` shrinks message/workload sizes for CI-speed runs.
#[must_use]
pub fn suite(quick: bool, backend: BackendKind) -> Vec<ExperimentJob> {
    let bits = if quick { 512 } else { 2048 };
    let reads = if quick { 40 } else { 120 };
    vec![
        ExperimentJob::new("delta", move || delta_on(backend)),
        ExperimentJob::new("table1", table1),
        ExperimentJob::new("table2", table2),
        ExperimentJob::new("fig2", fig2),
        ExperimentJob::new("fig3", fig3),
        ExperimentJob::new("fig8", move || fig8_on(backend)),
        ExperimentJob::new("fig9", move || fig9_on(backend, bits)),
        ExperimentJob::new("fig10", move || fig10_on(backend)),
        ExperimentJob::new("fig11", move || fig11_on(backend, reads)),
        ExperimentJob::new("fig12", move || fig12_on(backend, quick)),
        ExperimentJob::new("ablations", move || ablations_on(backend, quick)),
        ExperimentJob::new("future_banks", move || future_banks_on(backend, bits)),
        ExperimentJob::new("rfm", move || rfm_filtering_on(backend, bits)),
    ]
}

/// Runs every experiment (in paper order) with default parameters on the
/// default backend, serially.
///
/// `quick` shrinks message/workload sizes for CI-speed runs.
#[must_use]
pub fn run_all(quick: bool) -> Vec<Figure> {
    suite(quick, BackendKind::Mono)
        .iter()
        .map(ExperimentJob::run)
        .collect()
}
