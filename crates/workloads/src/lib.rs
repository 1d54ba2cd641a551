//! Workloads for the defense-overhead evaluation (Fig. 12 of the paper).
//!
//! The paper evaluates its defenses on four GraphBIG kernels — Betweenness
//! Centrality (BC), Breadth-First Search (BFS), Connected Components (CC),
//! Triangle Counting (TC) — plus XSBench (XS), a Monte Carlo neutron
//! transport proxy dominated by random table lookups.
//!
//! Each kernel here is a *real* implementation (it computes the right
//! answer, which the tests check) that simultaneously emits a memory trace
//! ([`trace::Trace`]) of its data-structure accesses. The trace is replayed
//! through the simulated memory system ([`replay()`]) under each defense to
//! measure normalized execution time. [`replay_lanes`] replays it once for
//! several defenses: one pass through translation, the TLB, the caches,
//! the prefetchers and the noise draws drives one controller per defense
//! (valid for the in-order, blocking replay core; see the
//! [`mod@replay`] module docs).
//!
//! # Example
//!
//! ```
//! use impact_workloads::graph::Graph;
//! use impact_workloads::kernels;
//!
//! let g = Graph::uniform_random(64, 256, 1);
//! let (levels, trace) = kernels::bfs(&g, 0);
//! assert_eq!(levels[0], Some(0));
//! assert!(!trace.ops().is_empty());
//! ```

pub mod captured;
pub mod graph;
pub mod kernels;
pub mod replay;
pub mod trace;

pub use captured::{CapturedTrace, RequestMix};
pub use graph::Graph;
pub use replay::ReplayReport;
pub use replay::{replay, replay_lanes};
pub use trace::{MemOp, OpKind, Trace};
