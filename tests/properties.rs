//! Property-based tests (proptest) on core invariants across the
//! workspace: DRAM bank state machine, address mappings, caches, the
//! covert channel, batch servicing and trace replay.

use proptest::prelude::*;

use impact::attacks::PnmCovertChannel;
use impact::cache::SetAssocCache;
use impact::core::addr::PhysAddr;
use impact::core::config::{
    CacheLevelConfig, DramGeometry, DramTiming, ReplacementKind, SystemConfig,
};
use impact::core::engine::{MemRequest, RowBufferKind};
use impact::core::time::{Clock, Cycles};
use impact::dram::{Bank, ResolvedTiming, RowInterleaved, RowPolicy};
use impact::memctrl::MemoryController;
use impact::sim::System;

fn timing() -> ResolvedTiming {
    ResolvedTiming::resolve(&DramTiming::paper_table2(), Clock::paper_default())
}

proptest! {
    /// Any access sequence keeps bank latencies within [hit, conflict] and
    /// classifications consistent with the returned latency.
    #[test]
    fn bank_latency_bounds(rows in prop::collection::vec(0u64..32, 1..200)) {
        let t = timing();
        let policy = RowPolicy::open_page();
        let mut bank = Bank::new();
        let mut now = Cycles(0);
        for row in rows {
            let out = bank.access(row, now, 0, &t, policy);
            prop_assert!(out.latency >= t.hit_latency());
            prop_assert!(out.latency <= t.conflict_latency());
            prop_assert!(out.completed_at >= now);
            now = out.completed_at;
        }
    }

    /// Consecutive accesses to the same row always hit under open-page.
    #[test]
    fn same_row_rehit(row in 0u64..1000, repeats in 2usize..20) {
        let t = timing();
        let policy = RowPolicy::open_page();
        let mut bank = Bank::new();
        let mut now = Cycles(0);
        let first = bank.access(row, now, 0, &t, policy);
        now = first.completed_at;
        for _ in 1..repeats {
            let out = bank.access(row, now, 0, &t, policy);
            prop_assert_eq!(out.kind, impact::dram::RowBufferKind::Hit);
            now = out.completed_at;
        }
    }

    /// The row-interleaved mapping roundtrips for every (bank, row, col),
    /// at 16 banks and at 8192 (fig11's largest device).
    #[test]
    fn mapping_roundtrip(
        many_banks in any::<bool>(),
        bank in 0usize..8192,
        row in 0u64..65536,
        col in 0u32..8192,
    ) {
        let geometry = DramGeometry::with_total_banks(if many_banks { 8192 } else { 16 });
        let bank = bank % geometry.total_banks() as usize;
        let m = RowInterleaved::new(geometry);
        let addr = m.compose(bank, row, col);
        prop_assert_eq!(m.flat_bank(addr), bank);
        prop_assert_eq!(m.locate(addr), (bank, row));
        prop_assert_eq!(addr.0 % geometry.row_bytes, u64::from(col));
    }

    /// Distinct addresses map to distinct (bank, row, column) coordinates,
    /// at 16 banks and at 8192.
    #[test]
    fn mapping_is_injective(
        many_banks in any::<bool>(),
        a in 0u64..(1<<30),
        b in 0u64..(1<<30),
    ) {
        prop_assume!(a != b);
        let geometry = DramGeometry::with_total_banks(if many_banks { 8192 } else { 16 });
        let m = RowInterleaved::new(geometry);
        let coord = |x: u64| (m.locate(PhysAddr(x)), x % geometry.row_bytes);
        prop_assert!(coord(a) != coord(b));
    }

    /// A cache never reports a hit for a line it has not seen, and always
    /// hits directly after a fill (no spurious evictions of the just-
    /// inserted line).
    #[test]
    fn cache_fill_then_hit(addrs in prop::collection::vec(0u64..(1<<20), 1..100)) {
        let cfg = CacheLevelConfig {
            size_bytes: 16 * 1024,
            ways: 4,
            line_bytes: 64,
            latency_cycles: 4,
            replacement: ReplacementKind::Lru,
        };
        let mut c = SetAssocCache::new(cfg);
        for a in addrs {
            let a = PhysAddr(a).line_aligned();
            c.access(a, false);
            prop_assert!(c.probe(a), "line {a} missing right after fill");
        }
    }

    /// Any message is transmitted exactly on the noiseless system,
    /// regardless of content or length.
    #[test]
    fn pnm_channel_is_exact_for_any_message(
        message in prop::collection::vec(any::<bool>(), 1..200)
    ) {
        let mut sys = System::new(SystemConfig::paper_table2_noiseless());
        let mut ch = PnmCovertChannel::setup(&mut sys, 8).unwrap();
        let r = ch.transmit(&mut sys, &message).unwrap();
        prop_assert_eq!(r.bit_errors, 0);
        prop_assert_eq!(r.bits_sent, message.len() as u64);
    }

    /// MemRequest round-trip through `Engine::translate` + backend
    /// classification: the same VA translated twice yields the same
    /// physical address, and servicing it twice lands in the same
    /// (bank, row) — with the allocated bank — under the no-defense
    /// config. The second request must hit the row the first one opened.
    #[test]
    fn mem_request_translation_roundtrip(
        bank in 0usize..16,
        off in 0u64..128,
        at in 0u64..1_000_000,
    ) {
        let mut sys = System::new(SystemConfig::paper_table2_noiseless());
        let agent = sys.spawn_agent();
        let va = sys.alloc_row_in_bank(agent, bank).unwrap() + off * 64;
        let (pa1, _) = sys.translate(agent, va).unwrap();
        let (pa2, _) = sys.translate(agent, va).unwrap();
        prop_assert_eq!(pa1, pa2, "translation must be stable");
        let r1 = sys
            .backend_mut()
            .service(&MemRequest::load(pa1, Cycles(at), agent.0))
            .unwrap();
        let r2 = sys
            .backend_mut()
            .service(&MemRequest::load(pa2, r1.completed_at, agent.0))
            .unwrap();
        prop_assert_eq!(r1.bank, bank, "mapped to the allocated bank");
        prop_assert_eq!(r1.bank, r2.bank);
        prop_assert_eq!(r1.row, r2.row);
        prop_assert_eq!(r2.kind, RowBufferKind::Hit);
    }

    /// The amortized batched request path is bit-identical to serial
    /// servicing for arbitrary request streams (no defense installed).
    #[test]
    fn service_batch_matches_serial_for_any_stream(
        stream in prop::collection::vec((0usize..16, 0u64..64, 0u32..4), 1..60)
    ) {
        let cfg = SystemConfig::paper_table2();
        let mut batched = MemoryController::from_config(&cfg);
        let mut serial = MemoryController::from_config(&cfg);
        let reqs: Vec<MemRequest> = stream
            .iter()
            .enumerate()
            .map(|(i, &(bank, row, actor))| {
                let addr = batched.mapping().compose(bank, row, 0);
                MemRequest::load(addr, Cycles(i as u64 * 500), actor)
            })
            .collect();
        let out_batched = batched.service_batch(&reqs).unwrap();
        let out_serial: Vec<_> = reqs
            .iter()
            .map(|r| serial.service(r).unwrap())
            .collect();
        prop_assert_eq!(out_batched, out_serial);
        prop_assert_eq!(batched.stats(), serial.stats());
    }

    /// A tracing proxy's recorded trace replays into a fresh backend with
    /// identical responses and statistics, for arbitrary request streams.
    #[test]
    fn trace_replay_is_lossless(
        stream in prop::collection::vec((0usize..16, 0u64..64, 0u32..4), 1..60),
        batch_len in 1usize..16,
    ) {
        use impact::core::engine::MemoryBackend;
        use impact::core::trace::{
            read_trace, replay_events, TraceHeader, TraceWriter, TracingBackend,
        };
        let cfg = SystemConfig::paper_table2();
        let header = TraceHeader::for_config(&cfg, "paper_table2", 0);
        let writer = TraceWriter::new(Vec::new(), &header).unwrap();
        let mut traced =
            TracingBackend::new(MemoryController::from_config(&cfg), writer).unwrap();
        let reqs: Vec<MemRequest> = stream
            .iter()
            .enumerate()
            .map(|(i, &(bank, row, actor))| {
                let addr = traced.inner().mapping().compose(bank, row, 0);
                MemRequest::load(addr, Cycles(i as u64 * 500), actor)
            })
            .collect();
        // Mix batch and scalar servicing plus a defense-bypassing inject.
        let mut originals = Vec::new();
        for chunk in reqs.chunks(batch_len) {
            if chunk.len() % 2 == 0 {
                originals.extend(traced.service_batch(chunk).unwrap());
            } else {
                for r in chunk {
                    originals.push(traced.service(r).unwrap());
                }
            }
        }
        traced.inject_row_activation(3, 7, Cycles(1), 99);
        let (inner, _, bytes) = traced.finish().unwrap();
        let (_, events, _) = read_trace(&bytes[..]).unwrap();
        let mut fresh = MemoryController::from_config(&cfg);
        let mut replayed = Vec::new();
        replay_events(&events, &mut fresh, |resp| replayed.push(resp)).unwrap();
        prop_assert_eq!(replayed, originals);
        prop_assert_eq!(fresh.backend_stats(), inner.backend_stats());
        prop_assert_eq!(fresh.dram().total_stats(), inner.dram().total_stats());
    }
}
