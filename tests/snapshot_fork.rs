//! The fork equivalence layer: proof that copy-on-write forks are
//! *observationally free*.
//!
//! A fork (`MemoryController::fork`, `Engine::fork`) shares its bulk
//! state (the DRAM bank array, cache line chunk tables, radix page-table
//! leaves, TLB levels, ACT and RFM bookkeeping) with its parent through
//! `CowBox`es, and the first write on either side copies the table it
//! writes. This suite pins the two properties the fleet's
//! fork-per-session setup relies on:
//!
//! * **fidelity** — a fork that resumes a request stream is bit-for-bit
//!   equal to a from-scratch run of the whole stream (responses,
//!   `BackendStats`, DRAM totals and state digest), across the defense
//!   matrix {open, CTD, ACT, RFM} on the controller, through fork-of-fork
//!   chains, and at the whole-`Engine` level (caches, TLBs, page tables,
//!   clocks, allocator included);
//! * **isolation** — writes on a fork never reach the parent (and vice
//!   versa).

use proptest::prelude::*;

use impact::core::addr::PhysAddr;
use impact::core::config::SystemConfig;
use impact::core::engine::MemRequest;
use impact::core::engine::MemoryBackend;
use impact::core::rng::SimRng;
use impact::core::time::Cycles;
use impact::memctrl::{ActConfig, ControllerBackend, Defense, MemoryController, PeriodicBlock};
use impact::sim::{AgentId, System};

fn cfg() -> SystemConfig {
    SystemConfig::paper_table2()
}

/// A mixed valid request stream: loads/stores/PiM over 16 banks plus
/// masked RowClones spanning several banks.
fn stream(n: u64, seed: u64) -> Vec<MemRequest> {
    let mc = MemoryController::from_config(&cfg());
    let row_bytes = mc.dram().geometry().row_bytes;
    let mut rng = SimRng::seed(seed);
    let mut at = Cycles(0);
    (0..n)
        .map(|i| {
            let req = if i % 9 == 8 {
                let src = PhysAddr(64 * 16 * row_bytes * (1 + rng.below(3)));
                let dst = PhysAddr(src.0 + 32 * 16 * row_bytes);
                MemRequest::rowclone(src, dst, rng.below(u64::from(u16::MAX)).max(1), at, 0)
            } else {
                let addr = mc.mapping().compose(
                    rng.below(16) as usize,
                    rng.below(24),
                    (rng.below(4) * 64) as u32,
                );
                let actor = rng.below(3) as u32;
                match i % 3 {
                    0 => MemRequest::store(addr, at, actor),
                    1 => MemRequest::pim(addr, at, actor),
                    _ => MemRequest::load(addr, at, actor),
                }
            };
            at += Cycles(rng.below(900));
            req
        })
        .collect()
}

/// A fresh controller with one entry of the swept defense matrix applied.
fn controller(defense_sel: usize) -> MemoryController {
    let mut mc = MemoryController::from_config(&cfg());
    match defense_sel {
        0 => {}
        1 => mc.set_defense(Defense::Ctd),
        2 => mc.set_defense(Defense::Act(ActConfig::aggressive())),
        _ => mc.set_periodic_block(Some(PeriodicBlock::rfm_paper_default())),
    }
    mc
}

proptest! {
    /// The central property: service a prefix, fork, service the suffix
    /// on the fork — bit-identical to one uninterrupted from-scratch run,
    /// while the parent stays frozen at the fork point and can service
    /// the same suffix itself, unaffected by the fork's writes.
    #[test]
    fn fork_equals_scratch(
        seed in 0u64..100_000,
        defense_sel in 0usize..4,
        split_pct in 0usize..101,
    ) {
        let reqs = stream(72, seed);
        let split = reqs.len() * split_pct / 100;

        let mut scratch = controller(defense_sel);
        let mut parent = controller(defense_sel);

        scratch.service_batch(&reqs[..split]).expect("valid stream");
        let want = scratch.service_batch(&reqs[split..]).expect("valid stream");

        parent.service_batch(&reqs[..split]).expect("valid stream");
        let at_fork = parent.dram_state_digest();
        let mut fork = parent.fork();
        let got = fork.service_batch(&reqs[split..]).expect("valid stream");

        prop_assert_eq!(&want, &got, "forked responses diverged");
        prop_assert_eq!(scratch.backend_stats(), fork.backend_stats());
        prop_assert_eq!(scratch.dram_totals(), fork.dram_totals());
        prop_assert_eq!(scratch.dram_state_digest(), fork.dram_state_digest());

        // Isolation: the fork's writes never reached the parent, which
        // can service the suffix itself with identical results.
        prop_assert_eq!(parent.dram_state_digest(), at_fork, "fork mutated parent");
        let parent_got = parent.service_batch(&reqs[split..]).expect("valid stream");
        prop_assert_eq!(got, parent_got);
        prop_assert_eq!(parent.dram_state_digest(), fork.dram_state_digest());
    }

    /// Fork-of-fork chains: each chunk of the stream runs on a fresh fork
    /// of the previous generation, and the final generation is
    /// bit-identical to the uninterrupted run.
    #[test]
    fn fork_of_fork_chains(
        seed in 0u64..100_000,
        defense_sel in 0usize..4,
    ) {
        let reqs = stream(72, seed);
        let mut scratch = controller(defense_sel);
        let mut want = Vec::with_capacity(reqs.len());
        for chunk in reqs.chunks(18) {
            want.extend(scratch.service_batch(chunk).expect("valid stream"));
        }

        let mut cur = controller(defense_sel);
        let mut got = Vec::with_capacity(reqs.len());
        for chunk in reqs.chunks(18) {
            let mut next = cur.fork();
            got.extend(next.service_batch(chunk).expect("valid stream"));
            cur = next;
        }
        prop_assert_eq!(want, got, "fork chain diverged");
        prop_assert_eq!(scratch.backend_stats(), cur.backend_stats());
        prop_assert_eq!(scratch.dram_totals(), cur.dram_totals());
        prop_assert_eq!(scratch.dram_state_digest(), cur.dram_state_digest());
    }
}

/// Seeded load/alloc traffic through the full engine (TLBs, caches, page
/// tables, clocks), returning the observed latencies and the DRAM digest.
fn engine_traffic(sys: &mut System, seed: u64) -> (Vec<u64>, u64) {
    let agent = AgentId(0);
    let mut rng = SimRng::seed(seed);
    let mut latencies = Vec::with_capacity(32);
    for _ in 0..32 {
        let bank = rng.below(16) as usize;
        let va = sys.alloc_row_in_bank(agent, bank).expect("alloc");
        latencies.push(sys.load(agent, va).expect("load").latency.0);
    }
    (latencies, sys.backend().dram_state_digest())
}

/// Whole-`Engine` coverage: a fork taken mid-run resumes bit-identically
/// to an uninterrupted engine — through the cache hierarchy, TLBs, page
/// tables and per-agent clocks, not just the raw controller — and the
/// parent, untouched by the fork, resumes identically too.
#[test]
fn engine_fork_is_bit_faithful() {
    let mut scratch = System::new(SystemConfig::paper_table2_noiseless());
    scratch.spawn_agent();
    engine_traffic(&mut scratch, 7); // shared warm phase
    let want = engine_traffic(&mut scratch, 8);

    let mut parent = System::new(SystemConfig::paper_table2_noiseless());
    parent.spawn_agent();
    engine_traffic(&mut parent, 7);
    let at_fork = parent.backend().dram_state_digest();

    let mut fork = parent.fork();
    let got = engine_traffic(&mut fork, 8);
    assert_eq!(want, got, "forked engine diverged from scratch");
    assert_eq!(
        parent.backend().dram_state_digest(),
        at_fork,
        "fork traffic mutated the parent engine"
    );

    // The parent itself resumes identically.
    let direct = engine_traffic(&mut parent, 8);
    assert_eq!(want, direct);
}
