//! Noise injection: prefetchers and page-table walkers (§5.2.3).
//!
//! The paper simulates hardware prefetchers and page-table walkers to
//! induce noise and measures attack throughput only over successfully
//! leaked bits. The injector perturbs DRAM row-buffer state by activating
//! unrelated rows with configurable probabilities.

use impact_core::config::NoiseConfig;
use impact_core::engine::MemoryBackend;
use impact_core::rng::SimRng;
use impact_core::time::Cycles;

/// Actor id used for noise-generated accesses.
pub const NOISE_ACTOR: u32 = u32::MAX - 1;

/// Stochastic row-activation noise source.
#[derive(Debug, Clone)]
pub struct NoiseInjector {
    cfg: NoiseConfig,
    rng: SimRng,
}

impl NoiseInjector {
    /// Creates an injector with the given configuration.
    #[must_use]
    pub fn new(cfg: NoiseConfig) -> NoiseInjector {
        NoiseInjector {
            rng: SimRng::seed(cfg.seed),
            cfg,
        }
    }

    /// Possibly injects noise accesses after a demand operation at `now`:
    /// one [`NoiseInjector::draw`], each activation injected into `mem`.
    pub fn perturb<B: MemoryBackend>(&mut self, mem: &mut B, now: Cycles) {
        self.draw(mem, |mem, bank, row| {
            mem.inject_row_activation(bank, row, now, NOISE_ACTOR);
        });
    }

    /// Draws one operation's noise and hands each activation to `activate`
    /// as `(mem, bank, row)`, in draw order.
    ///
    /// With probability `prefetcher_rate` a random row in a random bank of
    /// `mem` is activated (stream prefetch trained on an unrelated
    /// application); with probability `ptw_rate` a page-table-walk access
    /// does the same. Injected accesses never fail: they target bank-local
    /// rows directly through the backend's activation hook, bypassing
    /// mapping and defenses. So `activate` may inject one draw into several
    /// backends of `mem`'s geometry, as the engine's lanes do.
    pub fn draw<B: MemoryBackend>(
        &mut self,
        mem: &mut B,
        mut activate: impl FnMut(&mut B, usize, u64),
    ) {
        if !self.is_on() {
            return;
        }
        for rate in [self.cfg.prefetcher_rate, self.cfg.ptw_rate] {
            if self.rng.chance(rate) {
                let bank = self.rng.below(mem.num_banks() as u64) as usize;
                let row = self.rng.below(mem.rows_per_bank());
                activate(mem, bank, row);
            }
        }
    }

    /// True when either rate is positive: the one test of whether noise
    /// is on. The engine trains its prefetchers only then, and refuses to
    /// batch a burst, whose probes the draws would interleave with.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.cfg.prefetcher_rate > 0.0 || self.cfg.ptw_rate > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impact_core::config::SystemConfig;
    use impact_memctrl::MemoryController;

    #[test]
    fn zero_rate_injects_nothing() {
        let cfg = SystemConfig::paper_table2();
        let mut mc = MemoryController::from_config(&cfg);
        let mut n = NoiseInjector::new(NoiseConfig::none());
        for i in 0..1000 {
            n.perturb(&mut mc, Cycles(i));
        }
        assert_eq!(mc.dram().total_stats().total_accesses(), 0);
    }

    #[test]
    fn noise_rate_roughly_matches() {
        let cfg = SystemConfig::paper_table2();
        let mut mc = MemoryController::from_config(&cfg);
        let noise_cfg = NoiseConfig {
            prefetcher_rate: 0.1,
            ptw_rate: 0.0,
            seed: 1,
        };
        let mut n = NoiseInjector::new(noise_cfg);
        for i in 0..10_000 {
            n.perturb(&mut mc, Cycles(i));
        }
        let e = mc.dram().total_stats().activations;
        assert!((700..=1300).contains(&e), "activations = {e}");
    }

    #[test]
    fn noise_is_deterministic() {
        let cfg = SystemConfig::paper_table2();
        let run = || {
            let mut mc = MemoryController::from_config(&cfg);
            let mut n = NoiseInjector::new(NoiseConfig::paper_default());
            for i in 0..5000 {
                n.perturb(&mut mc, Cycles(i));
            }
            mc.dram().total_stats()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn noise_touches_dram_state() {
        let cfg = SystemConfig::paper_table2();
        let mut mc = MemoryController::from_config(&cfg);
        let mut n = NoiseInjector::new(NoiseConfig {
            prefetcher_rate: 1.0,
            ptw_rate: 0.0,
            seed: 2,
        });
        n.perturb(&mut mc, Cycles(0));
        assert_eq!(mc.dram().total_stats().activations, 1);
    }
}
