//! Whole-device DRAM model: a collection of independently timed banks.

use impact_core::config::{DramGeometry, SystemConfig};
use impact_core::cow::CowBox;
use impact_core::time::Cycles;

use crate::bank::{AccessOutcome, Bank, BankStats};
use crate::policy::RowPolicy;
use crate::timing::ResolvedTiming;

/// A DRAM device: geometry + timing + one [`Bank`] record per bank.
///
/// The bank records live in one array in a [`CowBox`], so
/// [`DramDevice::fork`] is O(1): parent and fork share the array and the
/// first write on either side copies it.
///
/// The device serves operations addressed by *flat bank index* and row;
/// address decomposition is the job of the
/// [`RowInterleaved`](crate::mapping::RowInterleaved) mapping (owned by the
/// memory controller).
///
/// # Example
///
/// ```
/// use impact_core::config::SystemConfig;
/// use impact_core::time::Cycles;
/// use impact_dram::DramDevice;
///
/// let mut dram = DramDevice::from_config(&SystemConfig::paper_table2());
/// assert_eq!(dram.num_banks(), 16);
/// let out = dram.access_as(3, 42, Cycles(0), 0);
/// assert!(out.latency > Cycles::ZERO);
/// ```
#[derive(Debug)]
pub struct DramDevice {
    geometry: DramGeometry,
    timing: ResolvedTiming,
    policy: RowPolicy,
    banks: CowBox<Vec<Bank>>,
}

impl DramDevice {
    /// Creates a device with explicit geometry, timing and row policy.
    #[must_use]
    pub fn new(geometry: DramGeometry, timing: ResolvedTiming, policy: RowPolicy) -> DramDevice {
        DramDevice {
            geometry,
            timing,
            policy,
            banks: CowBox::new(vec![Bank::new(); geometry.total_banks() as usize]),
        }
    }

    /// An independent copy that shares the bank array until either side
    /// writes it.
    #[must_use]
    pub fn fork(&mut self) -> DramDevice {
        DramDevice {
            geometry: self.geometry,
            timing: self.timing,
            policy: self.policy,
            banks: self.banks.fork(),
        }
    }

    /// Creates a device from a [`SystemConfig`] with the default open-page
    /// policy.
    #[must_use]
    pub fn from_config(cfg: &SystemConfig) -> DramDevice {
        DramDevice::new(
            cfg.dram_geometry,
            ResolvedTiming::resolve(&cfg.dram_timing, cfg.clock),
            RowPolicy::open_page(),
        )
    }

    /// Device geometry.
    #[must_use]
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    /// Resolved timing.
    #[must_use]
    pub fn timing(&self) -> &ResolvedTiming {
        &self.timing
    }

    /// Row policy in effect.
    #[must_use]
    pub fn policy(&self) -> RowPolicy {
        self.policy
    }

    /// Changes the row policy (used by defenses and ablations).
    pub fn set_policy(&mut self, policy: RowPolicy) {
        self.policy = policy;
    }

    /// Number of banks.
    #[must_use]
    pub fn num_banks(&self) -> usize {
        self.banks.len()
    }

    /// One bank's state (`dram.bank(3).raw_open_row()` etc.).
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[must_use]
    pub fn bank(&self, bank: usize) -> &Bank {
        &self.banks[bank]
    }

    /// One bank's record for writing: copies the array first if a fork
    /// still shares it.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[inline]
    fn bank_mut(&mut self, bank: usize) -> &mut Bank {
        &mut self.banks.to_mut()[bank]
    }

    /// Folds one bank's state into a running FNV-1a digest accumulator.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[must_use]
    pub fn fold_bank_state(&self, bank: usize, hash: u64) -> u64 {
        self.banks[bank].fold_state(hash)
    }

    /// Serves a read/write access attributed to `actor`.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[inline]
    pub fn access_as(&mut self, bank: usize, row: u64, now: Cycles, actor: u32) -> AccessOutcome {
        let (timing, policy) = (self.timing, self.policy);
        self.bank_mut(bank).access(row, now, actor, &timing, policy)
    }

    /// Serves a RowClone FPM copy inside one bank, attributed to `actor`.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn rowclone_as(
        &mut self,
        bank: usize,
        src_row: u64,
        dst_row: u64,
        now: Cycles,
        actor: u32,
    ) -> AccessOutcome {
        let policy = self.policy;
        let timing = self.timing;
        let rows_per_subarray = self.geometry.rows_per_subarray;
        let lines = self.geometry.row_bytes / 64;
        self.bank_mut(bank).rowclone(
            src_row,
            dst_row,
            now,
            actor,
            &timing,
            policy,
            rows_per_subarray,
            lines,
        )
    }

    /// Aggregated statistics across all banks.
    #[must_use]
    pub fn total_stats(&self) -> BankStats {
        let mut total = BankStats::default();
        for bank in self.banks.iter() {
            total += bank.stats();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::RowBufferKind;

    fn device() -> DramDevice {
        DramDevice::from_config(&SystemConfig::paper_table2())
    }

    #[test]
    fn banks_are_independent() {
        let mut d = device();
        let a = d.access_as(0, 1, Cycles(0), 0);
        let b = d.access_as(1, 2, Cycles(0), 0);
        // Both start immediately: no cross-bank serialization.
        assert_eq!(a.issued_at, Cycles(0));
        assert_eq!(b.issued_at, Cycles(0));
    }

    #[test]
    fn hit_conflict_delta_is_74() {
        let mut d = device();
        let m = d.access_as(0, 10, Cycles(0), 0);
        let h = d.access_as(0, 10, m.completed_at, 0);
        let c = d.access_as(0, 11, h.completed_at, 0);
        assert_eq!(c.latency - h.latency, Cycles(74));
    }

    #[test]
    fn masked_rowclone_interference_detectable() {
        let mut d = device();
        // Receiver initializes bank 2 by cloning; row 6 left open.
        d.rowclone_as(2, 5, 6, Cycles(0), 1);
        // Sender clones a different row pair in bank 2 -> conflict.
        let o = d.rowclone_as(2, 100, 101, Cycles(10_000), 2);
        assert_eq!(o.kind, RowBufferKind::Conflict);
        assert_eq!(d.bank(2).last_activator(), Some(2));
    }

    #[test]
    fn total_stats_aggregate() {
        let mut d = device();
        d.access_as(0, 1, Cycles(0), 0);
        d.access_as(1, 1, Cycles(0), 0);
        d.access_as(0, 1, Cycles(1_000), 0);
        let s = d.total_stats();
        assert_eq!(s.total_accesses(), 3);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
    }

    /// Forks share the bank array until written: a fork's writes never
    /// reach the parent.
    #[test]
    fn cow_fork_isolates() {
        use impact_core::hash::FNV_OFFSET;
        let mut parent = device();
        parent.access_as(0, 5, Cycles(0), 0);
        let parent_digest = parent.fold_bank_state(0, FNV_OFFSET);

        let mut child = parent.fork();
        child.access_as(0, 9, Cycles(100), 0);
        child.access_as(1, 3, Cycles(100), 0);
        assert_eq!(
            parent.fold_bank_state(0, FNV_OFFSET),
            parent_digest,
            "child write leaked into parent"
        );
        assert_ne!(child.fold_bank_state(0, FNV_OFFSET), parent_digest);
        assert_eq!(parent.bank(1), &Bank::new());
    }

    #[test]
    fn policy_switch() {
        let mut d = device();
        d.set_policy(RowPolicy::closed_page());
        let a = d.access_as(0, 1, Cycles(0), 0);
        let b = d.access_as(0, 1, a.completed_at + Cycles(100), 0);
        assert_eq!(b.kind, RowBufferKind::Miss);
    }

    #[test]
    fn bank_count_follows_geometry() {
        let cfg = SystemConfig::paper_table2().with_total_banks(1024);
        let d = DramDevice::from_config(&cfg);
        assert_eq!(d.num_banks(), 1024);
    }
}
