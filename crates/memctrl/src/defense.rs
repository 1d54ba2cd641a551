//! Defense mechanisms against IMPACT (§7 of the paper).

use impact_core::time::{Clock, Cycles, Nanos};

/// Bank-ownership table for the MPR defense (§7.1): each DRAM bank is
/// allocated to at most one actor; accesses by anyone else are rejected.
///
/// # Example
///
/// ```
/// use impact_memctrl::MprPartition;
///
/// let mut p = MprPartition::new(16);
/// p.assign(0, 7);
/// assert!(p.allows(0, 7));
/// assert!(!p.allows(0, 8));
/// assert!(p.allows(1, 8)); // unassigned banks are open
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MprPartition {
    owners: Vec<Option<u32>>,
}

impl MprPartition {
    /// Creates a partition table for `banks` banks, all unassigned.
    #[must_use]
    pub fn new(banks: usize) -> MprPartition {
        MprPartition {
            owners: vec![None; banks],
        }
    }

    /// Assigns `bank` to `actor`.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn assign(&mut self, bank: usize, actor: u32) {
        self.owners[bank] = Some(actor);
    }

    /// Splits all banks evenly among `actors` in round-robin order.
    pub fn assign_round_robin(&mut self, actors: &[u32]) {
        if actors.is_empty() {
            return;
        }
        for (i, owner) in self.owners.iter_mut().enumerate() {
            *owner = Some(actors[i % actors.len()]);
        }
    }

    /// Whether `actor` may access `bank`.
    #[must_use]
    pub fn allows(&self, bank: usize, actor: u32) -> bool {
        match self.owners.get(bank) {
            Some(Some(owner)) => *owner == actor,
            Some(None) => true,
            None => false,
        }
    }

    /// Owner of a bank, if assigned.
    #[must_use]
    pub fn owner(&self, bank: usize) -> Option<u32> {
        self.owners.get(bank).copied().flatten()
    }
}

/// Configuration of the ACT defense (§7.4).
///
/// ACT counts row-buffer conflicts per bank per epoch. When a bank sees at
/// least `trigger_conflicts` conflicts in an epoch it serves all requests
/// at worst-case (constant-time) latency for the next `ct_epochs` epochs,
/// re-extending if conflicts persist.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActConfig {
    /// Conflicts per epoch required to trigger the constant-time mode.
    pub trigger_conflicts: u64,
    /// Number of epochs the constant-time mode stays on once triggered.
    pub ct_epochs: u64,
    /// Epoch length in nanoseconds (the paper uses 1000 ns).
    pub epoch_ns: f64,
}

impl ActConfig {
    /// ACT-Aggressive: constant-time for 4000 epochs after the 1st conflict.
    #[must_use]
    pub fn aggressive() -> ActConfig {
        ActConfig {
            trigger_conflicts: 1,
            ct_epochs: 4000,
            epoch_ns: 1000.0,
        }
    }

    /// ACT-Mild: constant-time for 2 epochs after the 1st conflict.
    #[must_use]
    pub fn mild() -> ActConfig {
        ActConfig {
            trigger_conflicts: 1,
            ct_epochs: 2,
            epoch_ns: 1000.0,
        }
    }

    /// ACT-Conservative: constant-time for 2 epochs after 5 conflicts.
    #[must_use]
    pub fn conservative() -> ActConfig {
        ActConfig {
            trigger_conflicts: 5,
            ct_epochs: 2,
            epoch_ns: 1000.0,
        }
    }

    /// Epoch length in cycles under `clock`.
    #[must_use]
    pub fn epoch_cycles(&self, clock: Clock) -> Cycles {
        clock.cycles_ceil(Nanos(self.epoch_ns))
    }
}

/// The defense employed by the memory controller.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Defense {
    /// No defense (baseline).
    #[default]
    None,
    /// Bank-level memory partitioning (§7.1).
    Mpr(MprPartition),
    /// Closed-row policy (§7.2): the controller precharges after every
    /// access, so every access is a row miss.
    Crp,
    /// Constant-time DRAM (§7.3): every access observes worst-case latency.
    Ctd,
    /// Adaptive constant-time DRAM (§7.4).
    Act(ActConfig),
}

impl Defense {
    /// Short display name, matching the paper's figure legends.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Defense::None => "None",
            Defense::Mpr(_) => "MPR",
            Defense::Crp => "CRP",
            Defense::Ctd => "CTD",
            Defense::Act(c) if *c == ActConfig::aggressive() => "ACT-Aggressive",
            Defense::Act(c) if *c == ActConfig::mild() => "ACT-Mild",
            Defense::Act(c) if *c == ActConfig::conservative() => "ACT-Conservative",
            Defense::Act(_) => "ACT",
        }
    }

    /// Whether this defense may pad access latency (the variants the
    /// controller's `apply_latency_defense` acts on). The batched request
    /// path consults this to decide when per-access padding checks can be
    /// skipped, so a new padding defense only needs updating here.
    #[must_use]
    pub fn pads_latency(&self) -> bool {
        match self {
            Defense::Ctd | Defense::Act(_) => true,
            Defense::None | Defense::Mpr(_) | Defense::Crp => false,
        }
    }
}

/// Per-bank runtime state of the ACT defense.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ActBankState {
    /// Epoch index of the counters below.
    pub epoch: u64,
    /// Conflicts observed in `epoch`.
    pub conflicts: u64,
    /// Constant-time mode is active for epochs `< ct_until`.
    pub ct_until: u64,
}

impl ActBankState {
    /// Rolls the state forward to `epoch`, applying the trigger rule at
    /// each boundary crossed.
    pub(crate) fn roll_to(&mut self, epoch: u64, cfg: &ActConfig) {
        if epoch == self.epoch {
            return;
        }
        // Evaluate the epoch that just ended.
        if self.conflicts >= cfg.trigger_conflicts {
            let until = self.epoch + 1 + cfg.ct_epochs;
            if until > self.ct_until {
                self.ct_until = until;
            }
        }
        self.epoch = epoch;
        self.conflicts = 0;
    }

    /// Whether constant-time mode is active in the current epoch.
    pub(crate) fn constant_time(&self) -> bool {
        self.epoch < self.ct_until
    }
}

#[cfg(test)]
#[expect(
    clippy::field_reassign_with_default,
    reason = "each test starts from the default config and sets the one field it probes"
)]
mod tests {
    use super::*;

    #[test]
    fn mpr_ownership() {
        let mut p = MprPartition::new(4);
        p.assign(0, 1);
        p.assign(1, 2);
        assert!(p.allows(0, 1));
        assert!(!p.allows(0, 2));
        assert!(p.allows(2, 99));
        assert_eq!(p.owner(0), Some(1));
        assert_eq!(p.owner(2), None);
        assert!(!p.allows(100, 1), "out-of-range bank denied");
    }

    #[test]
    fn mpr_round_robin() {
        let mut p = MprPartition::new(6);
        p.assign_round_robin(&[10, 20]);
        let owners: Vec<Option<u32>> = (0..6).map(|bank| p.owner(bank)).collect();
        assert_eq!(owners, [10, 20, 10, 20, 10, 20].map(Some));
    }

    #[test]
    fn act_configs_match_paper() {
        let a = ActConfig::aggressive();
        assert_eq!((a.trigger_conflicts, a.ct_epochs), (1, 4000));
        let m = ActConfig::mild();
        assert_eq!((m.trigger_conflicts, m.ct_epochs), (1, 2));
        let c = ActConfig::conservative();
        assert_eq!((c.trigger_conflicts, c.ct_epochs), (5, 2));
        for cfg in [a, m, c] {
            assert_eq!(cfg.epoch_ns, 1000.0);
        }
    }

    #[test]
    fn act_state_triggers_and_expires() {
        let cfg = ActConfig::mild();
        let mut s = ActBankState::default();
        s.conflicts = 1;
        s.roll_to(1, &cfg);
        // Triggered at end of epoch 0: CT for epochs 1 and 2.
        assert!(s.constant_time());
        s.roll_to(2, &cfg);
        assert!(s.constant_time());
        s.roll_to(3, &cfg);
        assert!(!s.constant_time());
    }

    #[test]
    fn act_state_extends_under_persistent_conflicts() {
        let cfg = ActConfig::mild();
        let mut s = ActBankState::default();
        s.conflicts = 1;
        s.roll_to(1, &cfg);
        assert!(s.constant_time());
        // Conflicts continue during CT mode.
        s.conflicts = 2;
        s.roll_to(2, &cfg);
        assert!(s.constant_time());
        s.roll_to(3, &cfg);
        // Extended because epoch 1 also exceeded the threshold.
        assert!(s.constant_time());
    }

    #[test]
    fn act_conservative_needs_five() {
        let cfg = ActConfig::conservative();
        let mut s = ActBankState::default();
        s.conflicts = 4;
        s.roll_to(1, &cfg);
        assert!(!s.constant_time());
        s.conflicts = 5;
        s.roll_to(2, &cfg);
        assert!(s.constant_time());
    }

    #[test]
    fn defense_names() {
        assert_eq!(Defense::None.name(), "None");
        assert_eq!(Defense::Crp.name(), "CRP");
        assert_eq!(Defense::Ctd.name(), "CTD");
        assert_eq!(
            Defense::Act(ActConfig::aggressive()).name(),
            "ACT-Aggressive"
        );
        assert_eq!(Defense::Act(ActConfig::mild()).name(), "ACT-Mild");
        assert_eq!(
            Defense::Act(ActConfig::conservative()).name(),
            "ACT-Conservative"
        );
        assert_eq!(Defense::Mpr(MprPartition::new(2)).name(), "MPR");
    }

    #[test]
    fn epoch_cycles_at_paper_clock() {
        let c = ActConfig::mild().epoch_cycles(Clock::paper_default());
        assert_eq!(c, Cycles(2600));
    }
}
