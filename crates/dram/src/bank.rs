//! Per-bank row-buffer state machine.
//!
//! [`Bank`] is one bank's complete state as a flat `Copy` record and holds
//! the only implementation of the access, RowClone and digest state
//! machine. A [`DramDevice`](crate::device::DramDevice) stores its banks as
//! one copy-on-write array of these records.

use impact_core::time::Cycles;

use crate::policy::RowPolicy;
use crate::timing::ResolvedTiming;

// The classification enum lives in the backend-agnostic engine vocabulary
// so that backends outside this crate can speak it; re-exported here (and
// from the crate root) for source compatibility.
pub use impact_core::engine::RowBufferKind;

/// Result of serving one DRAM operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Row-buffer classification.
    pub kind: RowBufferKind,
    /// Device-level service latency (excludes controller/bus front end).
    pub latency: Cycles,
    /// When the command actually started (>= request time if the bank was
    /// busy).
    pub issued_at: Cycles,
    /// When the data burst completed.
    pub completed_at: Cycles,
}

/// Per-bank event statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BankStats {
    /// Number of row-buffer hits served.
    pub hits: u64,
    /// Number of closed-bank misses served.
    pub misses: u64,
    /// Number of row conflicts served.
    pub conflicts: u64,
    /// Number of row activations issued (misses + conflicts + rowclone
    /// activations).
    pub activations: u64,
    /// Number of RowClone operations served.
    pub rowclones: u64,
}

impl BankStats {
    /// Total accesses classified.
    #[must_use]
    pub fn total_accesses(&self) -> u64 {
        self.hits + self.misses + self.conflicts
    }

    /// Accumulates `other` into `self`, counter by counter.
    pub fn merge(&mut self, other: &BankStats) {
        // Exhaustive destructuring: adding a counter without merging it
        // becomes a compile error instead of silently dropped stats.
        let BankStats {
            hits,
            misses,
            conflicts,
            activations,
            rowclones,
        } = *other;
        self.hits += hits;
        self.misses += misses;
        self.conflicts += conflicts;
        self.activations += activations;
        self.rowclones += rowclones;
    }
}

impl core::ops::AddAssign<&BankStats> for BankStats {
    fn add_assign(&mut self, rhs: &BankStats) {
        self.merge(rhs);
    }
}

/// One DRAM bank: an independent row buffer plus timing bookkeeping, as a
/// flat `Copy` record.
///
/// The bank tracks which row is open, until when it is busy and when the
/// open row was last touched (for the optional idle timeout). It also
/// records the identity of the last actor to activate a row, which the
/// side-channel analysis uses as ground truth.
///
/// The two optional fields are stored sentinel-encoded — one `u64` each
/// instead of a 16-byte `Option<u64>` — which keeps the record compact;
/// the accessors decode them back to `Option`s:
///
/// * an open row of `NO_ROW` means "precharged". Row indices derive from
///   in-capacity physical addresses, so a real row can never reach the
///   sentinel.
/// * a last activator of `NO_ACTOR` means "never activated". Actor ids
///   are `u32` (every value of which is valid, including the anonymous
///   `u32::MAX`), so the sentinel must live above `u32` range — hence the
///   field is a `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bank {
    open_row: u64,
    busy_until: Cycles,
    last_use: Cycles,
    last_activator: u64,
    stats: BankStats,
}

impl Bank {
    /// Sentinel open row: no row is open.
    const NO_ROW: u64 = u64::MAX;
    /// Sentinel last activator: no activation yet.
    const NO_ACTOR: u64 = u64::MAX;

    /// Creates a precharged, idle bank.
    #[must_use]
    pub fn new() -> Bank {
        Bank {
            open_row: Bank::NO_ROW,
            busy_until: Cycles::ZERO,
            last_use: Cycles::ZERO,
            last_activator: Bank::NO_ACTOR,
            stats: BankStats::default(),
        }
    }

    /// The sentinel-encoded open row under `policy` at time `now`.
    #[inline]
    fn open_row_enc(&self, now: Cycles, policy: RowPolicy) -> u64 {
        match policy {
            RowPolicy::Closed => Bank::NO_ROW,
            RowPolicy::Open { idle_timeout } => {
                if let Some(t) = idle_timeout {
                    if self.open_row != Bank::NO_ROW && now.saturating_sub(self.last_use) > t {
                        return Bank::NO_ROW;
                    }
                }
                self.open_row
            }
        }
    }

    /// Raw open row irrespective of policy/timeouts.
    #[must_use]
    pub fn raw_open_row(&self) -> Option<u64> {
        decode(self.open_row, Bank::NO_ROW)
    }

    /// The actor that last activated a row in this bank, if any.
    #[must_use]
    pub fn last_activator(&self) -> Option<u32> {
        decode(self.last_activator, Bank::NO_ACTOR)
            .map(|v| u32::try_from(v).expect("actor ids are u32"))
    }

    /// When the bank becomes free.
    #[must_use]
    pub fn busy_until(&self) -> Cycles {
        self.busy_until
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &BankStats {
        &self.stats
    }

    /// Classifies an access to `row` at `now` without serving it.
    #[inline]
    #[must_use]
    pub fn classify(&self, row: u64, now: Cycles, policy: RowPolicy) -> RowBufferKind {
        let open = self.open_row_enc(now, policy);
        if open == row {
            RowBufferKind::Hit
        } else if open == Bank::NO_ROW {
            RowBufferKind::Miss
        } else {
            RowBufferKind::Conflict
        }
    }

    /// Serves a read/write access to `row` requested at `now` by `actor`.
    ///
    /// Returns the classification, the device latency and the completion
    /// time. The bank is busy until completion.
    #[inline]
    pub fn access(
        &mut self,
        row: u64,
        now: Cycles,
        actor: u32,
        timing: &ResolvedTiming,
        policy: RowPolicy,
    ) -> AccessOutcome {
        let start = now.max(self.busy_until);
        let kind = self.classify(row, start, policy);
        let latency = match kind {
            RowBufferKind::Hit => timing.hit_latency(),
            RowBufferKind::Miss => timing.miss_latency(),
            RowBufferKind::Conflict => timing.conflict_latency(),
        };
        match kind {
            RowBufferKind::Hit => self.stats.hits += 1,
            RowBufferKind::Miss => {
                self.stats.misses += 1;
                self.stats.activations += 1;
            }
            RowBufferKind::Conflict => {
                self.stats.conflicts += 1;
                self.stats.activations += 1;
            }
        }
        if kind != RowBufferKind::Hit {
            self.last_activator = u64::from(actor);
        }
        self.finish(kind, start, latency, row, timing, policy)
    }

    /// Serves a RowClone copy from `src_row` to `dst_row` requested at
    /// `now` by `actor`.
    ///
    /// Same-subarray copies use Fast Parallel Mode, whose latency depends
    /// on the row-buffer state exactly like a normal access (this is the
    /// IMPACT-PuM timing channel):
    /// - source row already open → single extra activation,
    /// - bank precharged → two back-to-back activations,
    /// - other row open → precharge first.
    ///
    /// Copies that cross a subarray boundary (`rows_per_subarray`) fall
    /// back to Pipelined Serial Mode, streaming `psm_lines` cache lines
    /// through the internal bus — an order of magnitude slower
    /// (Seshadri et al., MICRO'13). Pass `rows_per_subarray = 0` to treat
    /// the whole bank as one subarray.
    ///
    /// After the copy the destination row is connected to the bitlines, so
    /// it is left open under open-row policies.
    #[inline]
    #[expect(
        clippy::too_many_arguments,
        reason = "a copy needs both rows, its issue time and actor, and the timing, \
                  row policy and subarray geometry of the device"
    )]
    pub fn rowclone(
        &mut self,
        src_row: u64,
        dst_row: u64,
        now: Cycles,
        actor: u32,
        timing: &ResolvedTiming,
        policy: RowPolicy,
        rows_per_subarray: u64,
        psm_lines: u64,
    ) -> AccessOutcome {
        let start = now.max(self.busy_until);
        let kind = self.classify(src_row, start, policy);
        let cross_subarray =
            rows_per_subarray > 0 && src_row / rows_per_subarray != dst_row / rows_per_subarray;
        let latency = if cross_subarray {
            // PSM ignores row-buffer luck: the copy is bus-bound. A
            // precharge is still needed if another row is open.
            let pre = if kind == RowBufferKind::Conflict {
                timing.t_rp
            } else {
                Cycles::ZERO
            };
            pre + timing.rowclone_psm_latency(psm_lines)
        } else {
            match kind {
                RowBufferKind::Hit => timing.rowclone_hit_latency(),
                RowBufferKind::Miss => timing.rowclone_closed_latency(),
                RowBufferKind::Conflict => timing.rowclone_conflict_latency(),
            }
        };
        self.stats.rowclones += 1;
        self.stats.activations += match kind {
            RowBufferKind::Hit => 1,
            RowBufferKind::Miss => 2,
            RowBufferKind::Conflict => 2,
        };
        match kind {
            RowBufferKind::Hit => self.stats.hits += 1,
            RowBufferKind::Miss => self.stats.misses += 1,
            RowBufferKind::Conflict => self.stats.conflicts += 1,
        }
        self.last_activator = u64::from(actor);
        self.finish(kind, start, latency, dst_row, timing, policy)
    }

    /// The last step of every operation, started at `start` and taking
    /// `latency`: the bank is busy and last used until completion, and
    /// `row` stays open unless the policy closes it. A closed-page
    /// auto-precharge overlaps with the requester's completion but keeps
    /// the bank busy for tRP more.
    #[inline]
    fn finish(
        &mut self,
        kind: RowBufferKind,
        start: Cycles,
        latency: Cycles,
        row: u64,
        timing: &ResolvedTiming,
        policy: RowPolicy,
    ) -> AccessOutcome {
        let completed = start + latency;
        self.last_use = completed;
        (self.open_row, self.busy_until) = match policy {
            RowPolicy::Closed => (Bank::NO_ROW, completed + timing.t_rp),
            RowPolicy::Open { .. } => (row, completed),
        };
        AccessOutcome {
            kind,
            latency,
            issued_at: start,
            completed_at: completed,
        }
    }

    /// Folds the complete bank state — open row, timing bookkeeping, last
    /// activator and statistics — into a running FNV-1a accumulator. Two
    /// banks fold identically iff they are in identical states, which is
    /// how trace replays prove "final DRAM state is bit-identical" across
    /// backends and machines without shipping the state itself.
    ///
    /// The digest layout is the historical `Option`-tagged one (a 0 tag
    /// for "absent", a 1 tag followed by the value), so digests recorded
    /// before the sentinel encoding — including on-disk trace footers —
    /// still verify.
    #[must_use]
    pub fn fold_state(&self, mut hash: u64) -> u64 {
        use impact_core::hash::fnv1a_u64;
        let fold_opt = |h: u64, v: Option<u64>| match v {
            None => fnv1a_u64(h, 0),
            Some(v) => fnv1a_u64(fnv1a_u64(h, 1), v),
        };
        hash = fold_opt(hash, self.raw_open_row());
        hash = fnv1a_u64(hash, self.busy_until.0);
        hash = fnv1a_u64(hash, self.last_use.0);
        hash = fold_opt(hash, decode(self.last_activator, Bank::NO_ACTOR));
        let BankStats {
            hits,
            misses,
            conflicts,
            activations,
            rowclones,
        } = self.stats;
        for counter in [hits, misses, conflicts, activations, rowclones] {
            hash = fnv1a_u64(hash, counter);
        }
        hash
    }
}

impl Default for Bank {
    fn default() -> Bank {
        Bank::new()
    }
}

/// Decodes a sentinel-encoded field into an `Option`.
#[inline]
fn decode(v: u64, sentinel: u64) -> Option<u64> {
    (v != sentinel).then_some(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use impact_core::config::DramTiming;
    use impact_core::time::Clock;

    fn timing() -> ResolvedTiming {
        ResolvedTiming::resolve(&DramTiming::paper_table2(), Clock::paper_default())
    }

    #[test]
    fn miss_then_hit_then_conflict() {
        let t = timing();
        let p = RowPolicy::open_page();
        let mut b = Bank::new();
        let a1 = b.access(5, Cycles(0), 0, &t, p);
        assert_eq!(a1.kind, RowBufferKind::Miss);
        let a2 = b.access(5, a1.completed_at, 0, &t, p);
        assert_eq!(a2.kind, RowBufferKind::Hit);
        let a3 = b.access(6, a2.completed_at, 0, &t, p);
        assert_eq!(a3.kind, RowBufferKind::Conflict);
        assert_eq!(a3.latency - a2.latency, Cycles(74));
    }

    #[test]
    fn busy_bank_queues() {
        let t = timing();
        let p = RowPolicy::open_page();
        let mut b = Bank::new();
        let a1 = b.access(5, Cycles(0), 0, &t, p);
        // Request issued while the bank is still busy starts late.
        let a2 = b.access(5, Cycles(1), 0, &t, p);
        assert_eq!(a2.issued_at, a1.completed_at);
        assert!(a2.completed_at - Cycles(1) > a2.latency);
    }

    #[test]
    fn closed_policy_never_hits() {
        let t = timing();
        let p = RowPolicy::closed_page();
        let mut b = Bank::new();
        let a1 = b.access(5, Cycles(0), 0, &t, p);
        let a2 = b.access(5, a1.completed_at + t.t_rp, 0, &t, p);
        assert_eq!(a1.kind, RowBufferKind::Miss);
        assert_eq!(a2.kind, RowBufferKind::Miss);
        assert_eq!(b.stats().hits, 0);
    }

    #[test]
    fn idle_timeout_downgrades_hit_to_miss() {
        let t = timing();
        let p = RowPolicy::open_with_timeout(Cycles(260));
        let mut b = Bank::new();
        let a1 = b.access(5, Cycles(0), 0, &t, p);
        // Within the timeout: hit.
        let a2 = b.access(5, a1.completed_at + Cycles(100), 0, &t, p);
        assert_eq!(a2.kind, RowBufferKind::Hit);
        // Past the timeout: miss, not conflict (row was eagerly closed).
        let a3 = b.access(6, a2.completed_at + Cycles(1000), 0, &t, p);
        assert_eq!(a3.kind, RowBufferKind::Miss);
    }

    #[test]
    fn last_activator_tracks_interference() {
        let t = timing();
        let p = RowPolicy::open_page();
        let mut b = Bank::new();
        b.access(5, Cycles(0), 7, &t, p);
        assert_eq!(b.last_activator(), Some(7));
        // A hit does not change the activator.
        b.access(5, Cycles(10_000), 9, &t, p);
        assert_eq!(b.last_activator(), Some(7));
        b.access(6, Cycles(20_000), 9, &t, p);
        assert_eq!(b.last_activator(), Some(9));
    }

    #[test]
    fn anonymous_actor_id_is_representable() {
        // u32::MAX is a real actor id (the anonymous actor), so it must
        // round-trip through the sentinel encoding unscathed.
        let t = timing();
        let p = RowPolicy::open_page();
        let mut b = Bank::new();
        assert_eq!(b.last_activator(), None);
        b.access(5, Cycles(0), u32::MAX, &t, p);
        assert_eq!(b.last_activator(), Some(u32::MAX));
    }

    #[test]
    fn rowclone_latencies() {
        let t = timing();
        let p = RowPolicy::open_page();
        let mut b = Bank::new();
        // Precharged bank: two activations.
        let c1 = b.rowclone(10, 20, Cycles(0), 0, &t, p, 0, 128);
        assert_eq!(c1.kind, RowBufferKind::Miss);
        assert_eq!(c1.latency, t.rowclone_closed_latency());
        // dst row (20) left open; cloning from it again is the fast path.
        let c2 = b.rowclone(20, 30, c1.completed_at, 0, &t, p, 0, 128);
        assert_eq!(c2.kind, RowBufferKind::Hit);
        assert_eq!(c2.latency, t.rowclone_hit_latency());
        // A different source while row 30 is open conflicts.
        let c3 = b.rowclone(40, 50, c2.completed_at, 0, &t, p, 0, 128);
        assert_eq!(c3.kind, RowBufferKind::Conflict);
        assert_eq!(c3.latency, t.rowclone_conflict_latency());
        assert_eq!(b.stats().rowclones, 3);
    }

    #[test]
    fn cross_subarray_copy_uses_psm() {
        let t = timing();
        let p = RowPolicy::open_page();
        let mut b = Bank::new();
        // Rows 10 and 600 are in different 512-row subarrays.
        let psm = b.rowclone(10, 600, Cycles(0), 0, &t, p, 512, 128);
        assert!(
            psm.latency > t.rowclone_conflict_latency() * 3,
            "PSM latency {} too low",
            psm.latency
        );
        // Same-subarray copy stays fast.
        let mut b2 = Bank::new();
        let fpm = b2.rowclone(10, 20, Cycles(0), 0, &t, p, 512, 128);
        assert_eq!(fpm.latency, t.rowclone_closed_latency());
    }

    #[test]
    fn classify_is_pure() {
        let t = timing();
        let p = RowPolicy::open_page();
        let mut b = Bank::new();
        b.access(5, Cycles(0), 0, &t, p);
        let before = *b.stats();
        let k = b.classify(6, Cycles(1000), p);
        assert_eq!(k, RowBufferKind::Conflict);
        assert_eq!(b.stats(), &before);
    }

    #[test]
    fn stats_accumulate() {
        let t = timing();
        let p = RowPolicy::open_page();
        let mut b = Bank::new();
        let mut now = Cycles(0);
        for row in [1, 1, 2, 2, 3] {
            let o = b.access(row, now, 0, &t, p);
            now = o.completed_at;
        }
        let s = b.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.conflicts, 2);
        assert_eq!(s.total_accesses(), 5);
        assert_eq!(s.activations, 3);
    }

    #[test]
    fn state_fold_separates_states() {
        use impact_core::hash::FNV_OFFSET;
        let t = timing();
        let p = RowPolicy::open_page();
        let fresh = Bank::new().fold_state(FNV_OFFSET);
        assert_eq!(fresh, Bank::new().fold_state(FNV_OFFSET));

        let mut a = Bank::new();
        a.access(5, Cycles(0), 3, &t, p);
        let mut b = Bank::new();
        b.access(5, Cycles(0), 3, &t, p);
        assert_eq!(a.fold_state(FNV_OFFSET), b.fold_state(FNV_OFFSET));
        assert_ne!(a.fold_state(FNV_OFFSET), fresh);

        // A different actor leaves the same timing but a different digest.
        let mut c = Bank::new();
        c.access(5, Cycles(0), 4, &t, p);
        assert_ne!(a.fold_state(FNV_OFFSET), c.fold_state(FNV_OFFSET));

        a = Bank::new();
        assert_eq!(a.fold_state(FNV_OFFSET), fresh);
    }

    #[test]
    fn fold_state_matches_manual_option_layout() {
        // Pin the digest layout to the historical `Option`-tagged fold: a
        // refactor of the sentinel encoding must not change what trace
        // footers recorded before it.
        use impact_core::hash::{fnv1a_u64, FNV_OFFSET};
        let t = timing();
        let p = RowPolicy::open_page();
        let mut b = Bank::new();
        let o = b.access(5, Cycles(0), 3, &t, p);

        let fold_opt = |h: u64, v: Option<u64>| match v {
            None => fnv1a_u64(h, 0),
            Some(v) => fnv1a_u64(fnv1a_u64(h, 1), v),
        };
        let mut expect = FNV_OFFSET;
        expect = fold_opt(expect, Some(5));
        expect = fnv1a_u64(expect, o.completed_at.0);
        expect = fnv1a_u64(expect, o.completed_at.0);
        expect = fold_opt(expect, Some(3));
        for counter in [0u64, 1, 0, 1, 0] {
            expect = fnv1a_u64(expect, counter);
        }
        assert_eq!(b.fold_state(FNV_OFFSET), expect);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::policy::RowPolicy;
    use impact_core::config::DramTiming;
    use impact_core::time::Clock;
    use proptest::prelude::*;

    fn timing() -> ResolvedTiming {
        ResolvedTiming::resolve(&DramTiming::paper_table2(), Clock::paper_default())
    }

    proptest! {
        /// Under the closed-row policy no access ever hits, whatever the
        /// pattern — the CRP defense guarantee.
        #[test]
        fn closed_policy_never_hits(rows in prop::collection::vec(0u64..64, 1..100)) {
            let t = timing();
            let mut b = Bank::new();
            let mut now = Cycles(0);
            for row in rows {
                let out = b.access(row, now, 0, &t, RowPolicy::closed_page());
                prop_assert_eq!(out.kind, RowBufferKind::Miss);
                now = out.completed_at + t.t_rp;
            }
            prop_assert_eq!(b.stats().hits, 0);
        }

        /// With an eager idle timeout, any access after the timeout is
        /// never a hit and never a conflict (the row was auto-precharged).
        #[test]
        fn timeout_erases_state(row_a in 0u64..64, row_b in 0u64..64, idle in 261u64..10_000) {
            let t = timing();
            let policy = RowPolicy::open_with_timeout(Cycles(260));
            let mut b = Bank::new();
            let first = b.access(row_a, Cycles(0), 0, &t, policy);
            let out = b.access(row_b, first.completed_at + Cycles(idle), 0, &t, policy);
            prop_assert_eq!(out.kind, RowBufferKind::Miss);
        }

        /// RowClone always leaves the destination row open under open-page
        /// policies, regardless of prior state.
        #[test]
        fn rowclone_leaves_dst_open(
            pre_row in prop::option::of(0u64..64),
            src in 0u64..64,
            dst in 64u64..128,
        ) {
            let t = timing();
            let policy = RowPolicy::open_page();
            let mut b = Bank::new();
            let mut now = Cycles(0);
            if let Some(r) = pre_row {
                now = b.access(r, now, 0, &t, policy).completed_at;
            }
            b.rowclone(src, dst, now, 0, &t, policy, 512, 128);
            prop_assert_eq!(b.raw_open_row(), Some(dst));
        }

        /// Bank time never goes backwards: completion times are
        /// monotonically non-decreasing across any request sequence, even
        /// with out-of-order request timestamps.
        #[test]
        fn completions_are_monotone(reqs in prop::collection::vec((0u64..64, 0u64..100_000), 1..60)) {
            let t = timing();
            let policy = RowPolicy::open_page();
            let mut b = Bank::new();
            let mut last = Cycles(0);
            for (row, at) in reqs {
                let out = b.access(row, Cycles(at), 0, &t, policy);
                prop_assert!(out.completed_at >= last);
                prop_assert!(out.issued_at >= Cycles(at));
                last = out.completed_at;
            }
        }
    }
}
