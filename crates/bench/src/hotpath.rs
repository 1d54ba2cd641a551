//! The hot-path benchmark inventory: the memctrl/system micro-benchmarks
//! whose trajectory is recorded in the committed `BENCH_hotpath.json`.
//!
//! These are the benches that measure the simulator's innermost loops —
//! `MemoryController::service_batch` at several batch shapes and the
//! `System` front door — i.e. the ones every perf change moves. They are
//! defined here, in the library, so two harnesses can share them:
//!
//! * `benches/substrate.rs` registers them alongside the wider substrate
//!   suite for interactive `cargo bench` runs;
//! * the `bench_record` binary runs exactly this inventory and writes the
//!   results into `BENCH_hotpath.json` (and, in CI's quick mode, checks
//!   that the recorded key set still matches the code).
//!
//! Keep the bench ids stable: they are the keys of the committed JSON, and
//! the CI bench-smoke step fails when the sets drift apart (renaming a
//! bench without re-recording the file, or recording stale names).

use criterion::{black_box, Criterion};
use impact_attacks::side_channel::{SideChannelAttack, SideChannelConfig};
use impact_core::config::SystemConfig;
use impact_core::engine::MemRequest;
use impact_core::time::Cycles;
use impact_memctrl::MemoryController;
use impact_sim::System;

/// The batched request path vs per-request servicing: the baseline perf
/// PRs report speedups against. A 64-request stream alternating over rows
/// in a handful of banks, issued either one `service` call at a time or
/// through one amortized `service_batch`.
pub fn register_memctrl_batch(c: &mut Criterion) {
    let cfg = SystemConfig::paper_table2();
    let make_reqs = |mc: &MemoryController| -> Vec<MemRequest> {
        (0..64u64)
            .map(|i| {
                let addr = mc.mapping().compose((i % 4) as usize, (i / 2) % 8, 0);
                MemRequest::load(addr, Cycles(i * 400), 0)
            })
            .collect()
    };
    c.bench_function("memctrl/service_per_request_64", |b| {
        let mut mc = MemoryController::from_config(&cfg);
        let reqs = make_reqs(&mc);
        b.iter(|| {
            reqs.iter()
                .map(|r| mc.service(r).expect("service").latency.0)
                .sum::<u64>()
        });
    });
    c.bench_function("memctrl/service_batch_64", |b| {
        let mut mc = MemoryController::from_config(&cfg);
        let reqs = make_reqs(&mc);
        b.iter(|| {
            mc.service_batch(&reqs)
                .expect("batch")
                .iter()
                .map(|r| r.latency.0)
                .sum::<u64>()
        });
    });
}

/// The batch path at init-sweep shapes (requests spread round-robin over
/// the banks, the side-channel initialization shape): 64 requests over 16
/// banks revisit each bank four times, while the 1024- and 8192-request
/// batches at 1024 and 8192 banks touch each bank once.
pub fn register_mono_batch(c: &mut Criterion) {
    for (banks, size) in [(16u32, 64usize), (1024, 1024), (8192, 8192)] {
        let cfg = if banks == 16 {
            SystemConfig::paper_table2()
        } else {
            SystemConfig::paper_table2_noiseless().with_total_banks(banks)
        };
        let probe = MemoryController::from_config(&cfg);
        let reqs: Vec<MemRequest> = (0..size)
            .map(|i| {
                let bank = i % banks as usize;
                let row = ((i / banks as usize) % 8) as u64;
                let addr = probe.mapping().compose(bank, row, 0);
                MemRequest::load(addr, Cycles(i as u64 * 400), 0)
            })
            .collect();
        c.bench_function(&format!("memctrl/mono_batch_{size}"), |b| {
            let mut mc = MemoryController::from_config(&cfg);
            b.iter(|| {
                mc.service_batch(&reqs)
                    .expect("batch")
                    .iter()
                    .map(|r| r.latency.0)
                    .sum::<u64>()
            });
        });
    }
}

/// The `System` front door: direct PIM ops, cached loads, and the tight
/// uncached probe loop every attack hot path reduces to,
/// request-at-a-time vs one batched burst.
pub fn register_system(c: &mut Criterion) {
    c.bench_function("system/pim_op_direct", |b| {
        let mut sys = System::new(SystemConfig::paper_table2_noiseless());
        let a = sys.spawn_agent();
        let row = sys.alloc_row_in_bank(a, 0).expect("alloc");
        b.iter(|| sys.pim_op_direct(a, row).expect("pim").latency);
    });
    c.bench_function("system/load_through_caches", |b| {
        let mut sys = System::new(SystemConfig::paper_table2_noiseless());
        let a = sys.spawn_agent();
        let row = sys.alloc_row_in_bank(a, 1).expect("alloc");
        b.iter(|| sys.load(a, row).expect("load").latency);
    });
    c.bench_function("system/load_direct_loop_64", |b| {
        let mut sys = System::new(SystemConfig::paper_table2_noiseless());
        let a = sys.spawn_agent();
        let row = sys.alloc_row_in_bank(a, 2).expect("alloc");
        let vas: Vec<_> = (0..64u64).map(|i| row + (i % 128) * 64).collect();
        b.iter(|| {
            vas.iter()
                .map(|&va| sys.load_direct(a, va).expect("load").latency.0)
                .sum::<u64>()
        });
    });
    c.bench_function("system/load_direct_batch_64", |b| {
        let mut sys = System::new(SystemConfig::paper_table2_noiseless());
        let a = sys.spawn_agent();
        let row = sys.alloc_row_in_bank(a, 2).expect("alloc");
        let vas: Vec<_> = (0..64u64).map(|i| row + (i % 128) * 64).collect();
        b.iter(|| {
            sys.load_direct_batch(a, &vas)
                .expect("batch")
                .iter()
                .map(|i| i.latency.0)
                .sum::<u64>()
        });
    });
}

/// The copy-on-write fork payoff at sweep granularity: obtaining a warmed
/// side-channel engine from scratch (`System::new` + the full
/// `SideChannelAttack::init` prefix — genome synthesis, read sampling and
/// seeding, agent spawning, the bank row-opening sweep, clock sync) vs
/// forking a parent that ran the identical prefix once, outside the timed
/// loop. The fork is O(metadata): each `CowBox` table (the bank array,
/// cache chunk tables, page tables, TLB levels) gains one shared handle,
/// and the parent's tables move behind `Arc`s on its first fork only, so
/// `side_channel_init_fork` must stay well under a fifth of
/// `side_channel_init_scratch`.
pub fn register_fork(c: &mut Criterion) {
    let cfg = SystemConfig::paper_table2_noiseless();
    let attack = SideChannelAttack::new(SideChannelConfig {
        reads: 20,
        ..SideChannelConfig::default()
    });
    c.bench_function("attacks/side_channel_init_scratch", |b| {
        b.iter(|| {
            let mut sys = System::new(cfg.clone());
            let init = attack.init(&mut sys).expect("init");
            black_box((sys, init))
        });
    });
    c.bench_function("attacks/side_channel_init_fork", |b| {
        let mut parent = System::new(cfg.clone());
        let init = attack.init(&mut parent).expect("init");
        b.iter(|| black_box(parent.fork()));
        black_box(init);
    });
}

/// Registers the complete recorded inventory, in the order the committed
/// `BENCH_hotpath.json` lists it.
pub fn register_all(c: &mut Criterion) {
    register_memctrl_batch(c);
    register_mono_batch(c);
    register_system(c);
    register_fork(c);
}
