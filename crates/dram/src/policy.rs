//! Row-buffer management policies.

use impact_core::time::Cycles;

/// Row-buffer management policy of the memory controller.
///
/// The paper evaluates the open-row policy (Table 2) for the attacks and a
/// closed-row policy as the CRP defense (§7.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowPolicy {
    /// Keep the row open after an access.
    ///
    /// If `idle_timeout` is `Some(t)`, a row idle for longer than `t` is
    /// eagerly precharged, so the next access to it is a miss rather than a
    /// hit, and interference from other actors is erased after `t`. See the
    /// crate-level discussion of the Table 2 row timeout.
    Open {
        /// Idle interval after which the open row is auto-precharged.
        idle_timeout: Option<Cycles>,
    },
    /// Precharge the bank after every access (the CRP defense, §7.2): every
    /// access is a miss and the timing channel is closed.
    Closed,
}

impl RowPolicy {
    /// The attack-evaluation default: open rows, no eager idle close.
    #[must_use]
    pub fn open_page() -> RowPolicy {
        RowPolicy::Open { idle_timeout: None }
    }

    /// Open policy with an eager idle timeout (ablation / weak defense).
    #[must_use]
    pub fn open_with_timeout(timeout: Cycles) -> RowPolicy {
        RowPolicy::Open {
            idle_timeout: Some(timeout),
        }
    }

    /// The CRP defense.
    #[must_use]
    pub fn closed_page() -> RowPolicy {
        RowPolicy::Closed
    }
}

impl Default for RowPolicy {
    fn default() -> RowPolicy {
        RowPolicy::open_page()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(
            RowPolicy::open_page(),
            RowPolicy::Open { idle_timeout: None }
        );
        assert_eq!(
            RowPolicy::open_with_timeout(Cycles(260)),
            RowPolicy::Open {
                idle_timeout: Some(Cycles(260))
            }
        );
        assert_eq!(RowPolicy::closed_page(), RowPolicy::Closed);
    }

    #[test]
    fn default_is_open() {
        assert_eq!(RowPolicy::default(), RowPolicy::open_page());
    }
}
