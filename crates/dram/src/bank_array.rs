//! Structure-of-arrays storage for all banks of a device.
//!
//! The device used to hold a `Vec<Bank>` — an array of structs. Every
//! field of every bank now lives in its own parallel flat array instead
//! (each statistics counter included), so the batch hot paths touch
//! exactly the cache lines they need: demand accesses use
//! [`BankArray::access`], which reads only the fields the access consults
//! and dirties only the arrays the access changes (a warm row-buffer hit
//! writes `busy_until`, `last_use` and the hit counter — nothing else),
//! while a RowClone loads one [`BankCursor`], runs the copy against it
//! and stores it back.
//!
//! The [`Bank`]-shaped accessor API survives as by-value views
//! ([`BankArray::bank_state`]), and [`BankCursor::fold_state`] keeps the
//! digest layout bit-identical to the array-of-structs representation, so
//! `dram_state_digest()` and the trace-footer codec are unchanged.
//!
//! The columns live behind one `Arc` so the whole array forks in O(1):
//! clones share the storage and the first mutation on either side copies
//! it (`Arc::make_mut`), which is what makes warmed-engine forks cheap.
//! Uniquely-owned arrays pay only an atomic refcount check per mutating
//! call.

use std::sync::Arc;

use impact_core::time::Cycles;

use crate::bank::{AccessOutcome, Bank, BankCursor, BankStats, RowBufferKind};
use crate::policy::RowPolicy;
use crate::timing::ResolvedTiming;

/// The parallel flat arrays, one per bank field; shared copy-on-write
/// between a [`BankArray`] and its clones.
#[derive(Debug, Clone)]
struct BankColumns {
    open_row: Vec<u64>,
    busy_until: Vec<Cycles>,
    last_use: Vec<Cycles>,
    last_activator: Vec<u64>,
    hits: Vec<u64>,
    misses: Vec<u64>,
    conflicts: Vec<u64>,
    activations: Vec<u64>,
    rowclones: Vec<u64>,
}

/// All banks of a device, one parallel flat array per bank field.
///
/// Indexing is by flat bank index; every array has the same length. The
/// `Option` fields use the [`BankCursor`] sentinel encoding.
#[derive(Debug, Clone)]
pub struct BankArray {
    cols: Arc<BankColumns>,
}

impl BankArray {
    /// Creates `banks` precharged, idle banks.
    #[must_use]
    pub fn new(banks: usize) -> BankArray {
        BankArray {
            cols: Arc::new(BankColumns {
                open_row: vec![BankCursor::NO_ROW; banks],
                busy_until: vec![Cycles::ZERO; banks],
                last_use: vec![Cycles::ZERO; banks],
                last_activator: vec![BankCursor::NO_ACTOR; banks],
                hits: vec![0; banks],
                misses: vec![0; banks],
                conflicts: vec![0; banks],
                activations: vec![0; banks],
                rowclones: vec![0; banks],
            }),
        }
    }

    /// The columns for mutation: copies the storage first if a clone
    /// still shares it.
    #[inline]
    fn cols_mut(&mut self) -> &mut BankColumns {
        // analyze::allow(cow-aliasing): sole accessor-path unshare point
        // for the SoA columns; writes through it copy shared storage
        // before touching any bank field
        Arc::make_mut(&mut self.cols)
    }

    /// Number of banks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cols.open_row.len()
    }

    /// Whether the device has no banks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cols.open_row.is_empty()
    }

    /// Loads one bank's complete state into a register-friendly cursor.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[inline]
    #[must_use]
    pub fn load(&self, bank: usize) -> BankCursor {
        BankCursor {
            open_row: self.cols.open_row[bank],
            busy_until: self.cols.busy_until[bank],
            last_use: self.cols.last_use[bank],
            last_activator: self.cols.last_activator[bank],
            stats: self.stats(bank),
        }
    }

    /// Stores a cursor back into the arrays.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[inline]
    pub fn store(&mut self, bank: usize, cur: BankCursor) {
        let c = self.cols_mut();
        c.open_row[bank] = cur.open_row;
        c.busy_until[bank] = cur.busy_until;
        c.last_use[bank] = cur.last_use;
        c.last_activator[bank] = cur.last_activator;
        c.hits[bank] = cur.stats.hits;
        c.misses[bank] = cur.stats.misses;
        c.conflicts[bank] = cur.stats.conflicts;
        c.activations[bank] = cur.stats.activations;
        c.rowclones[bank] = cur.stats.rowclones;
    }

    /// By-value view of one bank in the `Option`-typed accessor shape.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[must_use]
    pub fn bank_state(&self, bank: usize) -> Bank {
        Bank::from_cursor(self.load(bank))
    }

    /// One bank's accumulated statistics.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[must_use]
    pub fn stats(&self, bank: usize) -> BankStats {
        BankStats {
            hits: self.cols.hits[bank],
            misses: self.cols.misses[bank],
            conflicts: self.cols.conflicts[bank],
            activations: self.cols.activations[bank],
            rowclones: self.cols.rowclones[bank],
        }
    }

    /// When `bank` becomes free.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[must_use]
    pub fn busy_until(&self, bank: usize) -> Cycles {
        self.cols.busy_until[bank]
    }

    /// Folds one bank's state into a running FNV-1a accumulator; the
    /// layout is pinned by [`BankCursor::fold_state`].
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[must_use]
    pub fn fold_state(&self, bank: usize, hash: u64) -> u64 {
        self.load(bank).fold_state(hash)
    }

    /// Aggregated statistics across all banks.
    #[must_use]
    pub fn total_stats(&self) -> BankStats {
        BankStats {
            hits: self.cols.hits.iter().sum(),
            misses: self.cols.misses.iter().sum(),
            conflicts: self.cols.conflicts.iter().sum(),
            activations: self.cols.activations.iter().sum(),
            rowclones: self.cols.rowclones.iter().sum(),
        }
    }

    /// Resets every bank (state and statistics).
    pub fn reset(&mut self) {
        let banks = self.len();
        *self = BankArray::new(banks);
    }

    /// Serves a read/write access on one bank, mutating the arrays in
    /// place.
    ///
    /// This replays the [`BankCursor::access`] state machine field by
    /// field so that only the arrays the access actually changes are
    /// dirtied: a row-buffer hit under an open-page policy leaves
    /// `open_row` and `last_activator` clean and bumps a single counter
    /// array, instead of writing back the entire bank record. The
    /// `soa_access_equals_cursor_access` test (and the controller-level
    /// equivalence proptests) pin the two implementations together.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[inline]
    pub fn access(
        &mut self,
        bank: usize,
        row: u64,
        now: Cycles,
        actor: u32,
        timing: &ResolvedTiming,
        policy: RowPolicy,
    ) -> AccessOutcome {
        // analyze::allow(cow-aliasing): the access hot path unshares the
        // columns up front — it always writes busy/open state, so the
        // copy is unavoidable and hoisted out of the per-field updates
        let c = Arc::make_mut(&mut self.cols);
        let start = now.max(c.busy_until[bank]);
        let raw_open = c.open_row[bank];
        let open = match policy {
            RowPolicy::Closed => BankCursor::NO_ROW,
            RowPolicy::Open { idle_timeout } => match idle_timeout {
                Some(t)
                    if raw_open != BankCursor::NO_ROW
                        && start.saturating_sub(c.last_use[bank]) > t =>
                {
                    BankCursor::NO_ROW
                }
                _ => raw_open,
            },
        };
        let (kind, latency) = if open == row {
            c.hits[bank] += 1;
            (RowBufferKind::Hit, timing.hit_latency())
        } else if open == BankCursor::NO_ROW {
            c.misses[bank] += 1;
            c.activations[bank] += 1;
            (RowBufferKind::Miss, timing.miss_latency())
        } else {
            c.conflicts[bank] += 1;
            c.activations[bank] += 1;
            (RowBufferKind::Conflict, timing.conflict_latency())
        };
        let completed = start + latency;
        c.last_use[bank] = completed;
        match policy {
            RowPolicy::Closed => {
                if raw_open != BankCursor::NO_ROW {
                    c.open_row[bank] = BankCursor::NO_ROW;
                }
                c.busy_until[bank] = completed + timing.t_rp;
            }
            RowPolicy::Open { .. } => {
                if raw_open != row {
                    c.open_row[bank] = row;
                }
                c.busy_until[bank] = completed;
            }
        }
        if kind != RowBufferKind::Hit {
            c.last_activator[bank] = u64::from(actor);
        }
        AccessOutcome {
            kind,
            latency,
            issued_at: start,
            completed_at: completed,
        }
    }

    /// Serves a RowClone copy on one bank (load / mutate / store).
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn rowclone(
        &mut self,
        bank: usize,
        src_row: u64,
        dst_row: u64,
        now: Cycles,
        actor: u32,
        timing: &ResolvedTiming,
        policy: RowPolicy,
        rows_per_subarray: u64,
        psm_lines: u64,
    ) -> AccessOutcome {
        let mut cur = self.load(bank);
        let out = cur.rowclone(
            src_row,
            dst_row,
            now,
            actor,
            timing,
            policy,
            rows_per_subarray,
            psm_lines,
        );
        self.store(bank, cur);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impact_core::config::DramTiming;
    use impact_core::hash::FNV_OFFSET;
    use impact_core::time::Clock;

    fn timing() -> ResolvedTiming {
        ResolvedTiming::resolve(&DramTiming::paper_table2(), Clock::paper_default())
    }

    /// The SoA array and a plain `Vec<Bank>` driven with the same request
    /// stream end in identical state — field by field and digest by
    /// digest. This is the AoS↔SoA equivalence the refactor relies on.
    #[test]
    fn soa_equals_vec_of_banks() {
        let t = timing();
        let p = RowPolicy::open_page();
        let mut arr = BankArray::new(4);
        let mut vecs: Vec<Bank> = (0..4).map(|_| Bank::new()).collect();
        let ops: [(usize, u64, u64, u32); 7] = [
            (0, 5, 0, 1),
            (1, 6, 100, 2),
            (0, 5, 900, 1),
            (2, 7, 1000, 3),
            (0, 9, 2000, 2),
            (3, 1, 2500, 1),
            (1, 6, 3000, 2),
        ];
        for (bank, row, at, actor) in ops {
            let a = arr.access(bank, row, Cycles(at), actor, &t, p);
            let b = vecs[bank].access(row, Cycles(at), actor, &t, p);
            assert_eq!(a, b);
        }
        let c = arr.rowclone(2, 7, 8, Cycles(5000), 1, &t, p, 512, 128);
        let d = vecs[2].rowclone(7, 8, Cycles(5000), 1, &t, p, 512, 128);
        assert_eq!(c, d);
        for (bank, vec_bank) in vecs.iter().enumerate() {
            assert_eq!(arr.bank_state(bank).cursor(), vec_bank.cursor());
            assert_eq!(
                arr.fold_state(bank, FNV_OFFSET),
                vec_bank.fold_state(FNV_OFFSET),
                "bank {bank} digest diverged"
            );
        }
        let mut total = BankStats::default();
        for b in &vecs {
            total += b.stats();
        }
        assert_eq!(arr.total_stats(), total);
    }

    /// The in-place access and the cursor state machine stay bit-identical
    /// across policies, timeouts, hits, misses and conflicts.
    #[test]
    fn soa_access_equals_cursor_access() {
        let t = timing();
        for policy in [
            RowPolicy::open_page(),
            RowPolicy::closed_page(),
            RowPolicy::open_with_timeout(Cycles(500)),
        ] {
            let mut arr = BankArray::new(1);
            let mut cur = BankCursor::new();
            // Hits, conflicts, idle gaps past the timeout, misses; the
            // actor alternates so last_activator churns.
            let ops: [(u64, u64); 8] = [
                (3, 0),
                (3, 200),
                (9, 400),
                (9, 2000), // after a long gap: timeout-dependent
                (1, 2100),
                (1, 2150),
                (5, 9000),
                (5, 9001),
            ];
            for (i, (row, at)) in ops.into_iter().enumerate() {
                let actor = (i % 3) as u32;
                let a = arr.access(0, row, Cycles(at), actor, &t, policy);
                let b = cur.access(row, Cycles(at), actor, &t, policy);
                assert_eq!(a, b, "op {i} diverged under {policy:?}");
                assert_eq!(arr.load(0), cur, "state {i} diverged under {policy:?}");
            }
        }
    }

    #[test]
    fn load_store_roundtrip() {
        let t = timing();
        let mut arr = BankArray::new(2);
        arr.access(1, 42, Cycles(0), 7, &t, RowPolicy::open_page());
        let cur = arr.load(1);
        let mut other = BankArray::new(2);
        other.store(1, cur);
        assert_eq!(other.load(1), cur);
        assert_eq!(other.bank_state(1).raw_open_row(), Some(42));
        assert_eq!(other.busy_until(1), cur.busy_until);
        // Bank 0 untouched in both.
        assert_eq!(other.load(0), BankCursor::new());
    }

    /// Clones share storage until written: a child's writes never reach
    /// the parent.
    #[test]
    fn cow_fork_isolates() {
        let t = timing();
        let p = RowPolicy::open_page();
        let mut parent = BankArray::new(4);
        parent.access(0, 5, Cycles(0), 1, &t, p);
        let parent_digest = parent.fold_state(0, FNV_OFFSET);

        let mut child = parent.clone();
        child.access(0, 9, Cycles(100), 2, &t, p);
        child.access(1, 3, Cycles(100), 2, &t, p);
        assert_eq!(
            parent.fold_state(0, FNV_OFFSET),
            parent_digest,
            "child write leaked into parent"
        );
        assert_ne!(child.fold_state(0, FNV_OFFSET), parent_digest);
    }

    #[test]
    fn reset_restores_fresh_array() {
        let t = timing();
        let mut arr = BankArray::new(3);
        arr.access(0, 1, Cycles(0), 0, &t, RowPolicy::open_page());
        arr.reset();
        assert_eq!(arr.len(), 3);
        assert!(!arr.is_empty());
        assert_eq!(arr.total_stats().total_accesses(), 0);
        assert_eq!(
            arr.fold_state(0, FNV_OFFSET),
            BankArray::new(3).fold_state(0, FNV_OFFSET)
        );
    }
}
