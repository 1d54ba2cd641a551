//! Deterministic random-number generation for reproducible experiments.
//!
//! Every stochastic component in the workspace (noise injection, genome
//! synthesis, graph generation, message generation) draws from a [`SimRng`]
//! seeded explicitly, so every `fig_all` figure reproduces bit-for-bit
//! (`tests/determinism.rs` pins this).

/// A seedable, deterministic RNG used throughout the simulator.
///
/// Implements xoshiro256** seeded through splitmix64, entirely
/// self-contained so the workspace builds without network access. The
/// generator choice is encapsulated and can change without touching call
/// sites.
///
/// # Example
///
/// ```
/// use impact_core::rng::SimRng;
///
/// let mut a = SimRng::seed(42);
/// let mut b = SimRng::seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

/// splitmix64 step: advances `x` and returns a well-mixed output word.
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed.
    #[must_use]
    pub fn seed(seed: u64) -> SimRng {
        let mut x = seed;
        SimRng {
            state: [
                splitmix64(&mut x),
                splitmix64(&mut x),
                splitmix64(&mut x),
                splitmix64(&mut x),
            ],
        }
    }

    /// Derives an independent child RNG for a named subsystem.
    ///
    /// Ensures subsystems never share a stream even when built from the same
    /// master seed. Purely a function of the current state and `stream`, so
    /// repeated derivations with the same stream id are identical.
    #[must_use]
    pub fn derive(&self, stream: u64) -> SimRng {
        let mut x = stream ^ 0x6a09_e667_f3bc_c909;
        let mut child_seed = 0;
        for &word in &self.state {
            x ^= word;
            child_seed = splitmix64(&mut x);
        }
        SimRng::seed(child_seed)
    }

    /// Next raw 64-bit value (xoshiro256**).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.state[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's widening-multiply reduction: unbiased enough for
        // simulation purposes, no modulo in the hot path.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 random mantissa bits → uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Random boolean.
    pub fn flip(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }

    /// Generates `n` random message bits.
    #[must_use]
    pub fn bits(&mut self, n: usize) -> Vec<bool> {
        (0..n).map(|_| self.flip()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn distinct_seeds_differ() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn derive_is_deterministic_and_distinct() {
        let root = SimRng::seed(99);
        let mut c1 = root.derive(1);
        let mut c1b = root.derive(1);
        let mut c2 = root.derive(2);
        assert_eq!(c1.next_u64(), c1b.next_u64());
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::seed(3);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed(4);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn bits_length_and_balance() {
        let mut r = SimRng::seed(5);
        let bits = r.bits(4096);
        assert_eq!(bits.len(), 4096);
        let ones = bits.iter().filter(|&&b| b).count();
        // Expect roughly balanced bits.
        assert!(ones > 1800 && ones < 2300, "ones = {ones}");
    }

    #[test]
    fn unit_in_range() {
        let mut r = SimRng::seed(8);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
