//! Experiment harness regenerating every table and figure of the IMPACT
//! paper's evaluation.
//!
//! Each experiment in [`experiments`] is a pure function returning a
//! structured [`series::Figure`]; the `fig_all` binary renders them as
//! text/CSV. Sweep-style experiments are expressed as [`runner::Scenario`]s
//! and executed by the [`runner::SweepRunner`], which fans sweep points out
//! across worker threads with bit-identical results to the serial path.
//! The table below indexes the experiments; each figure's `note:` lines
//! set the measured numbers beside the paper's.
//!
//! | Experiment | Paper artifact |
//! |---|---|
//! | [`experiments::delta`] | §3.1 row-buffer hit/conflict microbenchmark |
//! | [`experiments::table1`] | Table 1 attack-primitive matrix |
//! | [`experiments::table2`] | Table 2 simulated system configuration |
//! | [`experiments::fig2`] | Fig. 2 LLC-size sweep |
//! | [`experiments::fig3`] | Fig. 3 LLC-associativity sweep |
//! | [`experiments::fig8`] | Fig. 8 PnM/PuM proof-of-concept latencies |
//! | [`experiments::fig9`] | Fig. 9 covert-channel throughput comparison |
//! | [`experiments::fig10`] | Fig. 10 sender/receiver breakdown |
//! | [`experiments::fig11`] | Fig. 11 side-channel bank sweep |
//! | [`experiments::fig12`] | Fig. 12 defense overheads |
//! | [`experiments::ablations`] | design-choice ablations (row policy, batch size, threshold, noise) |

pub mod experiments;
pub mod hotpath;
pub mod record;
pub mod runner;
pub mod series;
pub mod trace_tools;

pub use runner::{Scenario, SweepRunner};
pub use series::{Figure, Series};
pub use trace_tools::TraceScenario;
