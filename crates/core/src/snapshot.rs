//! Cheap structural-sharing snapshots of simulator state.
//!
//! Every stateful layer of the stack implements [`Snapshot`]: it can
//! capture its observable state into a plain-data [`Snapshot::Snap`]
//! value, restore itself from one, and [`Snapshot::fork`] an independent
//! copy. Layers whose bulk state is a large flat array (DRAM bank
//! columns, cache tag arrays, radix page-table leaves) keep that array
//! behind an `Arc` and mutate it through `Arc::make_mut`, so both
//! `snapshot()` and `fork()` are O(metadata): the copy happens lazily,
//! on first write, and only for the arrays a fork actually dirties.
//!
//! # Contract
//!
//! Snapshots capture *observable* state only — everything that feeds
//! responses, [`crate::engine::BackendStats`], DRAM totals, or the
//! `dram_state_digest`. Live resources (trace spill sinks) and
//! non-observable scratch buffers are deliberately
//! excluded: a restored or forked instance re-creates them lazily, and
//! equivalence tests pin that a fork is bit-identical to a from-scratch
//! run. The fork path must never leak into deterministic outputs.
//!
//! # Example
//!
//! ```
//! use impact_core::snapshot::Snapshot;
//!
//! #[derive(Clone)]
//! struct Counter {
//!     n: u64,
//! }
//!
//! impl Snapshot for Counter {
//!     type Snap = u64;
//!     fn snapshot(&self) -> u64 {
//!         self.n
//!     }
//!     fn restore(&mut self, snap: &u64) {
//!         self.n = *snap;
//!     }
//!     fn fork(&self) -> Counter {
//!         self.clone()
//!     }
//! }
//!
//! let mut c = Counter { n: 3 };
//! let snap = c.snapshot();
//! let mut child = c.fork();
//! child.n += 10; // the fork dirties its own copy only
//! c.n += 1;
//! c.restore(&snap);
//! assert_eq!((c.n, child.n), (3, 13));
//! ```

/// A layer of simulator state that can be captured, restored, and
/// forked copy-on-write.
pub trait Snapshot {
    /// The captured state: plain data (no threads, files, or channels),
    /// cheap to clone, shareable across sweep worker threads.
    type Snap: Clone + Send + Sync;

    /// Captures the current observable state.
    fn snapshot(&self) -> Self::Snap;

    /// Restores state captured by [`Snapshot::snapshot`].
    ///
    /// After `restore`, the instance must be observationally identical
    /// to the one the snapshot was taken from: same responses, same
    /// stats, same digests for any subsequent request stream.
    fn restore(&mut self, snap: &Self::Snap);

    /// Creates an independent copy sharing bulk state copy-on-write.
    ///
    /// The fork must behave bit-identically to a from-scratch instance
    /// driven through the parent's history; mutations on either side
    /// are invisible to the other. Live resources such as trace spill
    /// sinks are not duplicated.
    fn fork(&self) -> Self
    where
        Self: Sized;
}
