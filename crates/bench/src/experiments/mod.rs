//! The experiments, one per paper table/figure plus ablations. Five are
//! sweeps over independent seeded machines (fig9, fig11, fig12, the
//! ablations and future_banks); each maps its own points over the host's
//! cores with `impact_core::par::ordered_map`. [`suite`] lists all of
//! them as jobs.

mod ablation;
mod covert;
mod defense;
mod future;
mod side;
mod sweeps;
mod tables;

pub use ablation::ablations;
pub use covert::{fig10, fig8, fig9};
pub use defense::{fig12, fig12_on};
pub use future::{future_banks, rfm_filtering};
pub use side::fig11;
pub use sweeps::{delta, fig2, fig3};
pub use tables::{table1, table2};

use impact_sim::BackendKind;

use crate::runner::ExperimentJob;

/// The full paper suite as jobs, one per experiment in paper order; the
/// caller runs them one after another. Every system-backed experiment
/// builds a [`System`](impact_sim::System), the controller `backend`
/// names.
///
/// `quick` shrinks message/workload sizes for CI-speed runs.
#[must_use]
pub fn suite(quick: bool, backend: BackendKind) -> Vec<ExperimentJob> {
    let BackendKind::Mono = backend;
    let bits = if quick { 512 } else { 2048 };
    let reads = if quick { 40 } else { 120 };
    vec![
        ExperimentJob::new("delta", delta),
        ExperimentJob::new("table1", table1),
        ExperimentJob::new("table2", table2),
        ExperimentJob::new("fig2", fig2),
        ExperimentJob::new("fig3", fig3),
        ExperimentJob::new("fig8", fig8),
        ExperimentJob::new("fig9", move || fig9(bits)),
        ExperimentJob::new("fig10", fig10),
        ExperimentJob::new("fig11", move || fig11(reads)),
        ExperimentJob::new("fig12", move || fig12(quick)),
        ExperimentJob::new("ablations", move || ablations(quick)),
        ExperimentJob::new("future_banks", move || future_banks(bits)),
        ExperimentJob::new("rfm", move || rfm_filtering(bits)),
    ]
}
