//! CACTI-6.0-style LLC latency model.
//!
//! The paper computes cache access latency for increasing LLC sizes with
//! CACTI 6.0 (§3.3.2) and uses it for the eviction-latency axis of Figs. 2
//! and 3. We reproduce the *trend* with an analytic model calibrated so
//! that:
//!
//! * at 16 ways, eviction latency grows from ~0.8 K cycles at 4 MB to
//!   ~6.5-7 K cycles at 128 MB (Fig. 2 right axis), and
//! * at 16 MB, eviction latency grows to ~23 K cycles at 128 ways
//!   (Fig. 3 right axis),
//!
//! where an eviction in steady state costs `ways × llc_latency + one memory
//! access` (see [`eviction_latency`]).

use impact_core::time::Cycles;

/// Bytes per mebibyte.
const MIB: f64 = 1024.0 * 1024.0;

/// LLC access latency in CPU cycles as a function of capacity and
/// associativity.
///
/// The size term models wire/array delay growth; the ways term models tag
/// match and mux widening. Calibrated to the paper's Fig. 2/3 axes (see
/// module docs).
///
/// # Example
///
/// ```
/// use impact_cache::cacti::llc_latency;
///
/// let small = llc_latency(4 << 20, 16);
/// let large = llc_latency(128 << 20, 16);
/// assert!(large > small * 5);
/// ```
#[must_use]
pub fn llc_latency(size_bytes: u64, ways: u32) -> Cycles {
    let mb = size_bytes as f64 / MIB;
    let base = 20.0 + 3.0 * mb;
    let ways_mult = 0.8 + 0.2 * (f64::from(ways) / 16.0).powf(1.07);
    Cycles((base * ways_mult).round().max(1.0) as u64)
}

/// Steady-state latency of evicting one target line with a `ways`-sized
/// eviction set: `ways` LLC accesses (mostly hits) plus one memory fetch
/// for the set member displaced by the target's refetch.
///
/// `memory_latency` is the average DRAM access latency including the
/// controller front end.
#[must_use]
pub fn eviction_latency(size_bytes: u64, ways: u32, memory_latency: Cycles) -> Cycles {
    llc_latency(size_bytes, ways) * u64::from(ways) + memory_latency
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_in_size() {
        let sizes = [1u64, 2, 4, 8, 16, 32, 64, 128];
        let mut prev = Cycles::ZERO;
        for s in sizes {
            let l = llc_latency(s << 20, 16);
            assert!(l > prev, "latency must grow with size");
            prev = l;
        }
    }

    #[test]
    fn monotone_in_ways() {
        let mut prev = Cycles::ZERO;
        for w in [2u32, 4, 8, 16, 32, 64, 128] {
            let l = llc_latency(16 << 20, w);
            assert!(l > prev, "latency must grow with ways");
            prev = l;
        }
    }

    #[test]
    fn fig2_eviction_band() {
        // Fig. 2 right axis: eviction latency at 16 ways spans roughly
        // 0.5-1.5K cycles at 4 MB up to 6-8K cycles at 128 MB.
        let mem = Cycles(160);
        let lo = eviction_latency(4 << 20, 16, mem);
        let hi = eviction_latency(128 << 20, 16, mem);
        assert!((500..=1500).contains(&lo.0), "4MB eviction = {lo}");
        assert!((5500..=8000).contains(&hi.0), "128MB eviction = {hi}");
    }

    #[test]
    fn fig3_eviction_band() {
        // Fig. 3 right axis: ~20-25K cycles at 128 ways, 16 MB.
        let mem = Cycles(160);
        let hi = eviction_latency(16 << 20, 128, mem);
        assert!((18_000..=26_000).contains(&hi.0), "128-way eviction = {hi}");
        let lo = eviction_latency(16 << 20, 2, mem);
        assert!(lo.0 < 600, "2-way eviction = {lo}");
    }

    #[test]
    fn paper_table2_llc_reasonable() {
        // The 8 MB Table 2 LLC should be in the tens of cycles.
        let l = llc_latency(8 << 20, 16);
        assert!((30..=70).contains(&l.0), "8MB latency = {l}");
    }
}
