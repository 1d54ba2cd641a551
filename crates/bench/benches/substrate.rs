//! Criterion micro-benchmarks of the simulation substrate: how fast the
//! simulator itself executes the primitives every experiment is built on.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use impact_cache::CacheHierarchy;
use impact_core::addr::PhysAddr;
use impact_core::config::SystemConfig;
use impact_core::engine::MemRequest;
use impact_core::time::Cycles;
use impact_dram::DramDevice;
use impact_genomics::genome::Genome;
use impact_genomics::index::minimizers;
use impact_memctrl::MemoryController;
use impact_sim::System;
use impact_workloads::graph::Graph;
use impact_workloads::kernels;

fn bench_dram(c: &mut Criterion) {
    c.bench_function("dram/access_alternating_rows", |b| {
        let cfg = SystemConfig::paper_table2();
        let mut dram = DramDevice::from_config(&cfg);
        let mut now = Cycles(0);
        let mut row = 0u64;
        b.iter(|| {
            let out = dram.access_as(0, row % 64, now, 0);
            now = out.completed_at;
            row += 1;
            out.latency
        });
    });
    c.bench_function("dram/masked_rowclone_16_banks", |b| {
        let cfg = SystemConfig::paper_table2();
        let mut mc = MemoryController::from_config(&cfg);
        let row_bytes = cfg.dram_geometry.row_bytes;
        let mut now = Cycles(0);
        b.iter(|| {
            let req = MemRequest::rowclone(PhysAddr(0), PhysAddr(16 * row_bytes), 0xFFFF, now, 0);
            let out = mc.service(&req).expect("rowclone");
            now = out.completed_at;
            out.latency
        });
    });
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("cache/hierarchy_load_hit", |b| {
        let mut h = CacheHierarchy::from_config(&SystemConfig::paper_table2());
        h.load(PhysAddr(0x4000));
        b.iter(|| h.load(PhysAddr(0x4000)).latency);
    });
}

/// The end-to-end init sweep over one row per bank of a 4096-bank device,
/// as `SideChannelAttack::init` runs it: translate every row, then
/// `pim_open_burst_translated` (burst eligibility, batched servicing).
fn bench_side_channel_init(c: &mut Criterion) {
    let cfg = SystemConfig::paper_table2_noiseless().with_total_banks(4096);
    c.bench_function("attacks/side_channel_init_mono", |b| {
        b.iter_batched(
            || {
                let mut sys = System::new(cfg.clone());
                let a = sys.spawn_agent();
                let vas: Vec<_> = (0..4096)
                    .map(|bank| sys.alloc_row_in_bank(a, bank).expect("alloc"))
                    .collect();
                (sys, a, vas)
            },
            |(mut sys, a, vas)| {
                let probes: Vec<_> = vas
                    .iter()
                    .map(|&va| sys.translate(a, va).expect("translate"))
                    .collect();
                sys.pim_open_burst_translated(a, &probes)
                    .expect("burst")
                    .len()
            },
            BatchSize::SmallInput,
        );
    });
}

/// The IMPACT-PnM transmit hot loop on the noiseless machine: per 16-bit
/// batch, the sender's PEIs and the receiver's 16 timed probes.
fn bench_pnm_transmit(c: &mut Criterion) {
    use impact_attacks::PnmCovertChannel;
    use impact_core::rng::SimRng;
    let message = SimRng::seed(0xBE9C).bits(512);
    c.bench_function("attacks/pnm_transmit", |b| {
        b.iter_batched(
            || {
                let mut sys = System::new(SystemConfig::paper_table2_noiseless());
                let ch = PnmCovertChannel::setup(&mut sys, 16).expect("setup");
                (sys, ch)
            },
            |(mut sys, mut ch)| ch.transmit(&mut sys, &message).expect("transmit").elapsed,
            BatchSize::SmallInput,
        );
    });
}

/// The on-disk trace codec over a 4096-event mixed stream: encode into a
/// memory sink, decode back. This is the throughput floor for capturing
/// and replaying multi-GB traces.
fn bench_trace_codec(c: &mut Criterion) {
    use impact_core::engine::BackendStats;
    use impact_core::rng::SimRng;
    use impact_core::time::Cycles;
    use impact_core::trace::{read_trace, write_trace, TraceEvent, TraceHeader, TraceSummary};

    let cfg = SystemConfig::paper_table2();
    let header = TraceHeader::for_config(&cfg, "paper_table2", 0xBE5C);
    let mut rng = SimRng::seed(0xBE5C);
    let events: Vec<TraceEvent> = (0..4096u64)
        .map(|i| {
            let addr = PhysAddr(rng.below(1 << 33));
            let at = Cycles(i * 200 + rng.below(100));
            match rng.below(10) {
                0..=5 => TraceEvent::Request(MemRequest::load(addr, at, 0)),
                6 => TraceEvent::Request(MemRequest::pim(addr, at, 1)),
                7 => TraceEvent::Request(MemRequest::rowclone(
                    addr,
                    PhysAddr(addr.0 ^ (1 << 20)),
                    0xFFFF,
                    at,
                    0,
                )),
                8 => TraceEvent::Inject {
                    bank: (i % 16) as usize,
                    row: rng.below(65536),
                    at,
                    actor: 99,
                },
                _ => TraceEvent::Batch(
                    (0..8)
                        .map(|j| MemRequest::load(PhysAddr(addr.0 + j * 64), at, 0))
                        .collect(),
                ),
            }
        })
        .collect();
    let summary = TraceSummary {
        events: 0,
        responses: 4096,
        response_digest: 0xD16E57,
        stats: BackendStats::default(),
    };
    c.bench_function("trace/encode_4k", |b| {
        b.iter(|| {
            write_trace(Vec::with_capacity(64 << 10), &header, &events, &summary)
                .expect("encode")
                .len()
        });
    });
    let bytes = write_trace(Vec::new(), &header, &events, &summary).expect("encode");
    c.bench_function("trace/decode_4k", |b| {
        b.iter(|| {
            let (_, decoded, _) = read_trace(&bytes[..]).expect("decode");
            decoded.len()
        });
    });
}

fn bench_genomics(c: &mut Criterion) {
    let genome = Genome::synthesize(20_000, 7);
    c.bench_function("genomics/minimizers_20kb", |b| {
        b.iter(|| minimizers(genome.bases(), 15, 5).len());
    });
}

fn bench_workloads(c: &mut Criterion) {
    let g = Graph::rmat(256, 1024, 3);
    c.bench_function("workloads/bfs_kernel_rmat256", |b| {
        b.iter(|| kernels::bfs(&g, 0).1.len());
    });
    c.bench_function("workloads/tc_kernel_rmat256", |b| {
        b.iter(|| kernels::tc(&g).0);
    });
}

criterion_group!(
    benches,
    bench_dram,
    bench_cache,
    // The memctrl/system hot-path inventory lives in the library so the
    // `bench_record` binary can run (and record) exactly the same benches.
    impact_bench::hotpath::register_memctrl_batch,
    impact_bench::hotpath::register_mono_batch,
    bench_side_channel_init,
    bench_pnm_transmit,
    impact_bench::hotpath::register_system,
    impact_bench::hotpath::register_fork,
    bench_trace_codec,
    bench_genomics,
    bench_workloads
);
criterion_main!(benches);
