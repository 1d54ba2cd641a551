//! R1 clean: fixed-hasher maps used for lookup only, Vec iteration, and
//! a justified iteration site.
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

type FixedHasher = BuildHasherDefault<DefaultHasher>;

struct Tlb {
    index: HashMap<u64, usize, FixedHasher>,
    slots: Vec<u64>,
}

impl Tlb {
    fn lookup(&self, vpn: u64) -> Option<usize> {
        self.index.get(&vpn).copied()
    }

    fn sweep(&self) -> u64 {
        // Vec iteration is ordered; not a finding.
        self.slots.iter().sum()
    }

    fn sorted_keys(&self) -> Vec<u64> {
        // analyze::allow(unordered-iter): keys are sorted before use, so
        // map order cannot leak into results
        let mut keys: Vec<u64> = self.index.keys().copied().collect();
        keys.sort_unstable();
        keys
    }
}
