//! The memory controller proper.

use impact_core::addr::PhysAddr;
use impact_core::config::SystemConfig;
use impact_core::cow::CowBox;
use impact_core::engine::{BackendStats, MemRequest, MemResponse, ReqKind};
use impact_core::error::{Error, Result};
use impact_core::time::{Clock, Cycles};
use impact_dram::{DramDevice, RowBufferKind, RowInterleaved, RowPolicy};

use crate::defense::{ActBankState, Defense};

/// Telemetry probe for the controller's copy-on-write tables: records a
/// `ctrl.cow.unshares` event when the write the caller is about to make
/// will copy the table, i.e. a fork still shares it. Pure observation.
#[inline]
fn note_unshare<T>(table: &CowBox<T>) {
    if table.is_shared() {
        impact_obs::registry().cow_unshares.incr();
    }
}

/// A periodic per-bank blocking mechanism: refresh (REF) or RowHammer
/// mitigations (RFM / PRAC, §8.4 of the paper). Once per `interval` per
/// bank, the next request to that bank is delayed by `block` — the
/// paper notes these preventive actions cost 350–1400 ns, far above the
/// row-conflict delta, so receivers can filter them out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeriodicBlock {
    /// Interval between blocking events, in cycles.
    pub interval: Cycles,
    /// Duration of one blocking event, in cycles.
    pub block: Cycles,
}

impl PeriodicBlock {
    /// DDR5-style refresh management blocking: one preventive action every
    /// ~4 us costing 350 ns (the paper's lower bound), at the 2.6 GHz
    /// clock.
    #[must_use]
    pub fn rfm_paper_default() -> PeriodicBlock {
        PeriodicBlock {
            interval: Cycles(10_400), // 4 us
            block: Cycles(910),       // 350 ns
        }
    }
}

/// The memory controller: address mapping + DRAM device + defenses.
///
/// The per-bank defense arrays (`act_state`, `block_epoch`) live in
/// [`CowBox`]es so [`MemoryController::fork`] is O(metadata) at any bank
/// count: parent and fork share the arrays until the first write, exactly
/// like the DRAM bank array underneath. Each array is empty unless its
/// mechanism is installed: `act_state` holds one entry per bank only under
/// [`Defense::Act`], `block_epoch` only while a [`PeriodicBlock`] is set.
pub struct MemoryController {
    dram: DramDevice,
    mapping: RowInterleaved,
    overhead: Cycles,
    clock: Clock,
    defense: Defense,
    act_state: CowBox<Vec<ActBankState>>,
    blocking: Option<PeriodicBlock>,
    block_epoch: CowBox<Vec<u64>>,
    stats: BackendStats,
}

impl core::fmt::Debug for MemoryController {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MemoryController")
            .field("banks", &self.dram.num_banks())
            .field("defense", &self.defense.name())
            .field("overhead", &self.overhead)
            .finish()
    }
}

impl MemoryController {
    /// Creates the Table 2 controller: row-interleaved mapping, open-page
    /// policy, no defense.
    #[must_use]
    pub fn from_config(cfg: &SystemConfig) -> MemoryController {
        MemoryController {
            dram: DramDevice::from_config(cfg),
            mapping: RowInterleaved::new(cfg.dram_geometry),
            overhead: Cycles(cfg.memctrl_overhead_cycles),
            clock: cfg.clock,
            defense: Defense::None,
            act_state: CowBox::new(Vec::new()),
            blocking: None,
            block_epoch: CowBox::new(Vec::new()),
            stats: BackendStats::default(),
        }
    }

    /// An independent copy that shares the bank array and the per-bank
    /// defense arrays until either side writes them. It behaves
    /// bit-identically to a from-scratch controller driven through the
    /// parent's history; writes on either side are invisible to the
    /// other.
    #[must_use]
    pub fn fork(&mut self) -> MemoryController {
        MemoryController {
            dram: self.dram.fork(),
            mapping: self.mapping.clone(),
            overhead: self.overhead,
            clock: self.clock,
            defense: self.defense.clone(),
            act_state: self.act_state.fork(),
            blocking: self.blocking,
            block_epoch: self.block_epoch.fork(),
            stats: self.stats.clone(),
        }
    }

    /// Enables a periodic blocking mechanism (refresh / RFM / PRAC); pass
    /// `None` to disable.
    pub fn set_periodic_block(&mut self, blocking: Option<PeriodicBlock>) {
        let banks = if blocking.is_some() {
            self.dram.num_banks()
        } else {
            0
        };
        self.blocking = blocking;
        self.block_epoch = CowBox::new(vec![0; banks]);
    }

    /// The active periodic blocking mechanism, if any.
    #[must_use]
    pub fn periodic_block(&self) -> Option<PeriodicBlock> {
        self.blocking
    }

    /// Blocking delay due at `bank` for a request at `now` (consumes the
    /// pending event).
    fn take_block_delay(&mut self, bank: usize, now: Cycles) -> Cycles {
        let Some(b) = self.blocking else {
            return Cycles::ZERO;
        };
        let epoch = now.0 / b.interval.0.max(1);
        if epoch > self.block_epoch[bank] {
            note_unshare(&self.block_epoch);
            self.block_epoch.to_mut()[bank] = epoch;
            self.stats.blocked += 1;
            b.block
        } else {
            Cycles::ZERO
        }
    }

    /// Installs a defense. CRP switches the device row policy; disabling
    /// CRP restores the open-page policy.
    pub fn set_defense(&mut self, defense: Defense) {
        match &defense {
            Defense::Crp => self.dram.set_policy(RowPolicy::closed_page()),
            _ => self.dram.set_policy(RowPolicy::open_page()),
        }
        let banks = if matches!(defense, Defense::Act(_)) {
            self.dram.num_banks()
        } else {
            0
        };
        self.act_state = CowBox::new(vec![ActBankState::default(); banks]);
        self.defense = defense;
    }

    /// The active defense.
    #[must_use]
    pub fn defense(&self) -> &Defense {
        &self.defense
    }

    /// The DRAM device (ground-truth state inspection).
    #[must_use]
    pub fn dram(&self) -> &DramDevice {
        &self.dram
    }

    /// Mutable device access (for ablations that change the row policy).
    pub fn dram_mut(&mut self) -> &mut DramDevice {
        &mut self.dram
    }

    /// The address mapping.
    #[must_use]
    pub fn mapping(&self) -> &RowInterleaved {
        &self.mapping
    }

    /// Controller statistics.
    #[must_use]
    pub fn stats(&self) -> &BackendStats {
        &self.stats
    }

    /// Serves one engine-level [`MemRequest`], the entry point the
    /// simulator core routes every memory operation through, and answers
    /// in a [`MemResponse`], the controller's one reply. A load, store or
    /// PiM access is a demand access to `req.addr`. A RowClone copies, for
    /// each set bit `i` of its mask, the row containing
    /// `req.addr + i * row_bytes` onto the row containing
    /// `dst + i * row_bytes`, all lanes in parallel (Listing 2); its reply
    /// heads with the first set lane and lists every lane in `per_bank`.
    ///
    /// # Errors
    ///
    /// A demand access fails with [`Error::AddressOutOfRange`] past the
    /// device capacity, and with [`Error::PartitionViolation`] when MPR is
    /// active and the actor does not own the target bank.
    ///
    /// This is the one place a RowClone is checked, whoever issues it (the
    /// engine, a trace replay, a fleet session), and no bank is touched
    /// unless every check passes. The checks run in this order:
    /// - [`Error::InvalidRowClone`] if the mask is empty, if it sets a bit
    ///   at or past the bank count, if either range base is not
    ///   row-aligned, or if the two ranges share a base;
    /// - then per lane, [`Error::AddressOutOfRange`] for a lane past the
    ///   device capacity, [`Error::InvalidRowClone`] if its source and
    ///   destination rows sit in different banks (FPM copies are
    ///   intra-bank), and [`Error::PartitionViolation`] under MPR.
    pub fn service(&mut self, req: &MemRequest) -> Result<MemResponse> {
        match req.kind {
            ReqKind::Load | ReqKind::Store | ReqKind::Pim => {
                self.access::<false>(req.addr, req.at, req.actor)
            }
            ReqKind::RowClone { dst, mask } => {
                self.rowclone(req.addr, dst, mask, req.at, req.actor)
            }
        }
    }

    /// Serves a batch of requests, returning responses in request order.
    /// Responses, statistics and bank state are bit-identical to issuing
    /// each request through [`MemoryController::service`] serially: the
    /// batch is one request-order loop. When no periodic blocking is
    /// installed and the defense never pads latency — checked once per
    /// batch — scalar requests skip both checks.
    ///
    /// # Errors
    ///
    /// Fails on the first failing request; state up to that request has
    /// been applied, matching the serial path.
    pub fn service_batch(&mut self, reqs: &[MemRequest]) -> Result<Vec<MemResponse>> {
        let registry = impact_obs::registry();
        registry.ctrl_batch_size.record(reqs.len() as u64);
        registry.ctrl_serial_segments.incr();
        // The lean path is valid exactly when `take_block_delay` would
        // always return zero and `apply_latency_defense` would always
        // return the raw latency.
        let lean = self.blocking.is_none() && !self.defense.pads_latency();
        let mut out = Vec::with_capacity(reqs.len());
        for req in reqs {
            let resp = match req.kind {
                ReqKind::Load | ReqKind::Store | ReqKind::Pim if lean => {
                    self.access::<true>(req.addr, req.at, req.actor)?
                }
                _ => self.service(req)?,
            };
            out.push(resp);
        }
        Ok(out)
    }

    /// The demand path: serves an access to `addr` at `now` on behalf of
    /// `actor`. `LEAN` compiles out the periodic-block and latency-defense
    /// steps, which is sound only where neither can fire;
    /// [`MemoryController::service_batch`] checks that once per batch.
    ///
    /// Trace replay leans on `access::<true>`: 31,936 of the full Mix
    /// capture's 47,100 responses come from its 3,992 eight-request
    /// `Batch` events, and serving those through `service` instead cut
    /// replayed events per second by 10–13% (perfbench `trace`, 2-vCPU
    /// host).
    fn access<const LEAN: bool>(
        &mut self,
        addr: PhysAddr,
        now: Cycles,
        actor: u32,
    ) -> Result<MemResponse> {
        self.check_capacity(addr)?;
        let (bank, row) = self.mapping.locate(addr);
        self.check_partition(bank, actor)?;
        self.stats.accesses += 1;
        let block = if LEAN {
            Cycles::ZERO
        } else {
            self.take_block_delay(bank, now)
        };
        let out = self.dram.access_as(bank, row, now + block, actor);
        let raw = out.completed_at - now + self.overhead;
        let latency = if LEAN {
            raw
        } else {
            self.apply_latency_defense(bank, out.kind, raw, now)
        };
        Ok(MemResponse {
            bank,
            row,
            kind: out.kind,
            latency,
            completed_at: now + latency,
            per_bank: Vec::new(),
        })
    }

    /// Checks and serves a masked RowClone (see
    /// [`MemoryController::service`] for the checks and their order).
    fn rowclone(
        &mut self,
        src: PhysAddr,
        dst: PhysAddr,
        mask: u64,
        now: Cycles,
        actor: u32,
    ) -> Result<MemResponse> {
        if mask == 0 {
            return Err(Error::InvalidRowClone("empty bank mask".into()));
        }
        let row_bytes = self.dram.geometry().row_bytes;
        let banks = self.dram.num_banks();
        let top = 64 - mask.leading_zeros();
        if top as usize > banks {
            return Err(Error::InvalidRowClone(format!(
                "mask uses bit {} but only {banks} banks are addressable",
                top - 1
            )));
        }
        if !src.0.is_multiple_of(row_bytes) || !dst.0.is_multiple_of(row_bytes) {
            return Err(Error::InvalidRowClone(
                "source/destination ranges must be row-aligned".into(),
            ));
        }
        if src == dst {
            return Err(Error::InvalidRowClone(
                "source and destination ranges must differ".into(),
            ));
        }
        let capacity = self.dram.geometry().capacity_bytes();
        // A range base from untrusted input (a trace file) can sit so
        // close to the top of the address space that a lane wraps; such a
        // base is past the device capacity, so report it as out of range.
        let lane = |base: PhysAddr, i: u64| {
            i.checked_mul(row_bytes)
                .and_then(|offset| base.0.checked_add(offset))
                .map(PhysAddr)
                .ok_or(Error::AddressOutOfRange {
                    addr: base.0,
                    capacity,
                })
        };
        // Pre-validate every lane before touching any bank state. A mask
        // has at most 64 set bits, so fixed stack scratch replaces the
        // per-request Vec allocation on this path.
        let mut lanes = [(0usize, 0u64, 0u64); 64];
        let mut n_lanes = 0usize;
        for i in 0..64u64 {
            if mask & (1 << i) == 0 {
                continue;
            }
            let s = lane(src, i)?;
            let d = lane(dst, i)?;
            self.check_capacity(s)?;
            self.check_capacity(d)?;
            let (sbank, src_row) = self.mapping.locate(s);
            let (dbank, dst_row) = self.mapping.locate(d);
            if sbank != dbank {
                return Err(Error::InvalidRowClone(format!(
                    "mask bit {i}: src bank {sbank} != dst bank {dbank}"
                )));
            }
            self.check_partition(sbank, actor)?;
            lanes[n_lanes] = (sbank, src_row, dst_row);
            n_lanes += 1;
        }
        self.stats.rowclones += 1;

        let mut per_bank = Vec::with_capacity(n_lanes);
        let mut completed = now;
        for &(bank, src_row, dst_row) in &lanes[..n_lanes] {
            let block = self.take_block_delay(bank, now);
            let out = self
                .dram
                .rowclone_as(bank, src_row, dst_row, now + block, actor);
            let raw = out.completed_at - now + self.overhead;
            let lat = self.apply_latency_defense(bank, out.kind, raw, now);
            completed = completed.max(now + lat);
            per_bank.push((bank, out.kind, lat));
        }
        // The reply heads with the first set lane: its bank, its source
        // row and its kind.
        let (bank, row, _) = lanes[0];
        Ok(MemResponse {
            bank,
            row,
            kind: per_bank[0].1,
            latency: completed - now,
            completed_at: completed,
            per_bank,
        })
    }

    /// Worst-case (constant-time) latency served under CTD/ACT padding.
    #[must_use]
    pub fn worst_case_latency(&self) -> Cycles {
        self.dram.timing().worst_case_latency() + self.overhead
    }

    /// Rejects addresses beyond the device capacity.
    pub(crate) fn check_capacity(&self, addr: PhysAddr) -> Result<()> {
        let capacity = self.dram.geometry().capacity_bytes();
        if addr.0 >= capacity {
            Err(Error::AddressOutOfRange {
                addr: addr.0,
                capacity,
            })
        } else {
            Ok(())
        }
    }

    /// Enforces the MPR partition for `(bank, actor)`, counting a reject
    /// on failure.
    fn check_partition(&mut self, bank: usize, actor: u32) -> Result<()> {
        if let Defense::Mpr(p) = &self.defense {
            if !p.allows(bank, actor) {
                self.stats.partition_rejects += 1;
                return Err(Error::PartitionViolation { actor, bank });
            }
        }
        Ok(())
    }

    /// Applies CTD/ACT latency padding and updates ACT bookkeeping.
    fn apply_latency_defense(
        &mut self,
        bank: usize,
        kind: RowBufferKind,
        raw: Cycles,
        now: Cycles,
    ) -> Cycles {
        match &self.defense {
            Defense::Ctd => {
                self.stats.padded += 1;
                raw.max(self.worst_case_latency())
            }
            Defense::Act(cfg) => {
                let cfg = *cfg;
                let epoch_len = cfg.epoch_cycles(self.clock).0.max(1);
                let epoch = now.0 / epoch_len;
                note_unshare(&self.act_state);
                let state = &mut self.act_state.to_mut()[bank];
                state.roll_to(epoch, &cfg);
                if kind == RowBufferKind::Conflict {
                    state.conflicts += 1;
                }
                if state.constant_time() {
                    self.stats.padded += 1;
                    raw.max(self.worst_case_latency())
                } else {
                    raw
                }
            }
            _ => raw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defense::{ActConfig, MprPartition};

    fn controller() -> MemoryController {
        MemoryController::from_config(&SystemConfig::paper_table2())
    }

    /// Address in `bank` at `row` (row-interleaved mapping).
    fn addr_in(mc: &MemoryController, bank: usize, row: u64) -> PhysAddr {
        mc.mapping().compose(bank, row, 0)
    }

    #[test]
    fn access_hits_after_miss() {
        let mut mc = controller();
        let a = addr_in(&mc, 3, 10);
        let first = mc.service(&MemRequest::load(a, Cycles(0), 0)).unwrap();
        assert_eq!(first.kind, RowBufferKind::Miss);
        let second = mc
            .service(&MemRequest::load(a, first.completed_at, 0))
            .unwrap();
        assert_eq!(second.kind, RowBufferKind::Hit);
        // Observed delta includes no extra overhead difference.
        let b = addr_in(&mc, 3, 11);
        let third = mc
            .service(&MemRequest::load(b, second.completed_at, 0))
            .unwrap();
        assert_eq!(third.kind, RowBufferKind::Conflict);
        assert_eq!(third.latency - second.latency, Cycles(74));
    }

    #[test]
    fn capacity_enforced() {
        let mut mc = controller();
        let cap = mc.dram().geometry().capacity_bytes();
        let e = mc
            .service(&MemRequest::load(PhysAddr(cap), Cycles(0), 0))
            .unwrap_err();
        assert!(matches!(e, Error::AddressOutOfRange { .. }));
    }

    #[test]
    fn mpr_blocks_foreign_banks() {
        let mut mc = controller();
        let mut p = MprPartition::new(16);
        p.assign_round_robin(&[1, 2]);
        mc.set_defense(Defense::Mpr(p));
        let a0 = addr_in(&mc, 0, 5); // bank 0 owned by actor 1
        assert!(mc.service(&MemRequest::load(a0, Cycles(0), 1)).is_ok());
        let e = mc.service(&MemRequest::load(a0, Cycles(0), 2)).unwrap_err();
        assert!(matches!(e, Error::PartitionViolation { bank: 0, .. }));
        assert_eq!(mc.stats().partition_rejects, 1);
    }

    #[test]
    fn crp_defense_closes_rows() {
        let mut mc = controller();
        mc.set_defense(Defense::Crp);
        let a = addr_in(&mc, 0, 5);
        let f = mc.service(&MemRequest::load(a, Cycles(0), 0)).unwrap();
        let s = mc
            .service(&MemRequest::load(a, f.completed_at + Cycles(100), 0))
            .unwrap();
        assert_eq!(f.kind, RowBufferKind::Miss);
        assert_eq!(s.kind, RowBufferKind::Miss);
    }

    #[test]
    fn ctd_constant_latency() {
        let mut mc = controller();
        mc.set_defense(Defense::Ctd);
        let a = addr_in(&mc, 0, 5);
        let b = addr_in(&mc, 0, 6);
        let f = mc.service(&MemRequest::load(a, Cycles(0), 0)).unwrap();
        let h = mc.service(&MemRequest::load(a, f.completed_at, 0)).unwrap();
        let c = mc.service(&MemRequest::load(b, h.completed_at, 0)).unwrap();
        // Hit and conflict observe identical latency: channel closed.
        assert_eq!(h.latency, c.latency);
        assert_eq!(h.latency, mc.worst_case_latency());
    }

    #[test]
    fn act_pads_after_conflicts() {
        let mut mc = controller();
        mc.set_defense(Defense::Act(ActConfig::mild()));
        let a = addr_in(&mc, 0, 5);
        let b = addr_in(&mc, 0, 6);
        let epoch = ActConfig::mild().epoch_cycles(Clock::paper_default()).0;
        // Epoch 0: create a conflict.
        mc.service(&MemRequest::load(a, Cycles(0), 0)).unwrap();
        mc.service(&MemRequest::load(b, Cycles(200), 0)).unwrap();
        // Epoch 1: bank 0 must now be constant-time.
        let h = mc
            .service(&MemRequest::load(b, Cycles(epoch + 10), 0))
            .unwrap();
        assert_eq!(h.kind, RowBufferKind::Hit);
        assert_eq!(h.latency, mc.worst_case_latency());
        // Epoch 4 (past ct window, no further conflicts): back to normal.
        let h2 = mc
            .service(&MemRequest::load(b, Cycles(4 * epoch + 10), 0))
            .unwrap();
        assert!(h2.latency < mc.worst_case_latency());
    }

    #[test]
    fn act_ignores_conflict_free_banks() {
        let mut mc = controller();
        mc.set_defense(Defense::Act(ActConfig::aggressive()));
        let a = addr_in(&mc, 1, 5);
        let f = mc.service(&MemRequest::load(a, Cycles(0), 0)).unwrap();
        let h = mc.service(&MemRequest::load(a, f.completed_at, 0)).unwrap();
        assert!(h.latency < mc.worst_case_latency());
        assert_eq!(mc.stats().padded, 0);
    }

    /// The four request-level checks, in order, then a lane check: each
    /// bad RowClone is refused before any lane is served, through
    /// `service` (the path the engine, trace replay and fleet sessions
    /// take).
    #[test]
    fn service_rejects_each_invalid_rowclone() {
        let mut mc = controller();
        let row = mc.dram().geometry().row_bytes;
        let stripe = PhysAddr(16 * row);
        let bad = [
            (PhysAddr(0), stripe, 0, "empty bank mask"),
            (
                PhysAddr(0),
                stripe,
                1 << 20,
                "mask uses bit 20 but only 16 banks are addressable",
            ),
            (
                PhysAddr(64),
                stripe,
                1,
                "source/destination ranges must be row-aligned",
            ),
            (
                PhysAddr(0),
                PhysAddr(row * 16 + 64),
                1,
                "source/destination ranges must be row-aligned",
            ),
            (
                stripe,
                stripe,
                1,
                "source and destination ranges must differ",
            ),
            // dst shifted by one row: the lane lands in another bank.
            (
                PhysAddr(0),
                PhysAddr(row),
                1,
                "mask bit 0: src bank 0 != dst bank 1",
            ),
        ];
        for (src, dst, mask, msg) in bad {
            let req = MemRequest::rowclone(src, dst, mask, Cycles(0), 0);
            match mc.service(&req) {
                Err(Error::InvalidRowClone(m)) => assert_eq!(m, msg),
                other => panic!("{src:?} -> {dst:?} mask {mask:#x}: {other:?}"),
            }
        }
        assert_eq!(mc.stats().rowclones, 0);
        assert_eq!(mc.dram().total_stats().total_accesses(), 0);

        // A full 16-bank mask between two stripes is served, one lane
        // per bank in ascending order.
        let out = mc
            .service(&MemRequest::rowclone(
                PhysAddr(0),
                stripe,
                0xFFFF,
                Cycles(0),
                0,
            ))
            .unwrap();
        let banks: Vec<usize> = out.per_bank.iter().map(|(b, _, _)| *b).collect();
        assert_eq!(banks, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn single_request_is_parallel() {
        // One masked request transmits M bits in the time of one lane —
        // the IMPACT-PuM sender advantage (§4.2).
        let row = controller().dram().geometry().row_bytes;
        let lanes = |mask| {
            let req = MemRequest::rowclone(PhysAddr(0), PhysAddr(16 * row), mask, Cycles(0), 0);
            controller().service(&req).unwrap()
        };
        let (full, single) = (lanes(0xFFFF), lanes(0b1));
        assert_eq!(full.per_bank.len(), 16);
        assert!(full.per_bank.iter().all(|&(_, _, l)| l == single.latency));
        assert_eq!(full.latency, single.latency);
    }

    #[test]
    fn rowclone_interference_is_timed() {
        let mut mc = controller();
        let row_bytes = mc.dram().geometry().row_bytes;
        let src = PhysAddr(0);
        let dst = PhysAddr(64 * 16 * row_bytes);
        // Receiver initializes bank 0 (mask bit 0).
        let init = mc
            .service(&MemRequest::rowclone(src, dst, 0b1, Cycles(0), 1))
            .unwrap();
        // Sender clones other rows in bank 0.
        let s_src = PhysAddr(128 * 16 * row_bytes);
        let s_dst = PhysAddr(192 * 16 * row_bytes);
        mc.service(&MemRequest::rowclone(s_src, s_dst, 0b1, Cycles(10_000), 2))
            .unwrap();
        // Receiver probes: conflict -> slower than its init-hit path.
        let probe = mc
            .service(&MemRequest::rowclone(dst, src, 0b1, Cycles(20_000), 1))
            .unwrap();
        assert_eq!(probe.per_bank[0].1, RowBufferKind::Conflict);
        assert!(probe.latency > init.latency);
    }

    #[test]
    fn periodic_block_delays_once_per_interval() {
        let mut mc = controller();
        mc.set_periodic_block(Some(PeriodicBlock {
            interval: Cycles(10_000),
            block: Cycles(910),
        }));
        let a = addr_in(&mc, 0, 1);
        // First access of epoch 1 pays the block.
        let open = mc.service(&MemRequest::load(a, Cycles(10_500), 0)).unwrap();
        let hit = mc.service(&MemRequest::load(a, Cycles(11_600), 0)).unwrap();
        assert!(
            open.latency > hit.latency + Cycles(800),
            "block not charged"
        );
        assert_eq!(mc.stats().blocked, 1);
        // Next epoch pays again.
        mc.service(&MemRequest::load(a, Cycles(21_000), 0)).unwrap();
        assert_eq!(mc.stats().blocked, 2);
    }

    #[test]
    fn periodic_block_is_per_bank() {
        let mut mc = controller();
        mc.set_periodic_block(Some(PeriodicBlock::rfm_paper_default()));
        let a = addr_in(&mc, 0, 1);
        let b = addr_in(&mc, 1, 1);
        mc.service(&MemRequest::load(a, Cycles(50_000), 0)).unwrap();
        mc.service(&MemRequest::load(b, Cycles(50_000), 0)).unwrap();
        assert_eq!(mc.stats().blocked, 2);
    }

    #[test]
    fn act_and_rfm_tables_exist_only_while_installed() {
        let mut mc = controller();
        let banks = mc.dram().num_banks();
        assert!(mc.act_state.is_empty(), "from_config built an ACT table");
        assert!(mc.block_epoch.is_empty(), "from_config built an RFM table");
        mc.set_defense(Defense::Act(ActConfig::mild()));
        assert_eq!(mc.act_state.len(), banks);
        mc.set_defense(Defense::Ctd);
        assert!(mc.act_state.is_empty(), "CTD kept the ACT table");
        mc.set_periodic_block(Some(PeriodicBlock::rfm_paper_default()));
        assert_eq!(mc.block_epoch.len(), banks);
        mc.set_periodic_block(None);
        assert!(mc.block_epoch.is_empty(), "disabling kept the RFM table");
    }

    #[test]
    fn stats_count() {
        let mut mc = controller();
        let a = addr_in(&mc, 0, 1);
        mc.service(&MemRequest::load(a, Cycles(0), 0)).unwrap();
        mc.service(&MemRequest::load(a, Cycles(1000), 0)).unwrap();
        assert_eq!(mc.stats().accesses, 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::defense::MprPartition;
    use proptest::prelude::*;

    proptest! {
        /// CTD: every access observes exactly the worst-case latency, for
        /// any address/time pattern — the constant-time guarantee.
        #[test]
        fn ctd_is_constant_time(
            reqs in prop::collection::vec((0u64..(1u64<<24), 0u64..1_000_000), 1..80)
        ) {
            let mut mc = MemoryController::from_config(&SystemConfig::paper_table2());
            mc.set_defense(Defense::Ctd);
            let worst = mc.worst_case_latency();
            for (addr, at) in reqs {
                let out = mc.service(&MemRequest::load(PhysAddr(addr), Cycles(at), 0)).unwrap();
                // Queueing can exceed the floor; the defense never lets an
                // access complete faster than worst case.
                prop_assert!(out.latency >= worst);
            }
        }

        /// MPR: an actor can never touch a bank owned by someone else, and
        /// always reaches its own banks.
        #[test]
        fn mpr_is_airtight(accesses in prop::collection::vec((0usize..16, 0u64..1000), 1..60)) {
            let mut mc = MemoryController::from_config(&SystemConfig::paper_table2());
            let mut p = MprPartition::new(16);
            p.assign_round_robin(&[0, 1]);
            mc.set_defense(Defense::Mpr(p));
            let mut now = 0u64;
            for (bank, row) in accesses {
                now += 1000;
                let addr = mc.mapping().compose(bank, row, 0);
                let owner = (bank % 2) as u32;
                prop_assert!(mc.service(&MemRequest::load(addr, Cycles(now), owner)).is_ok());
                prop_assert!(mc.service(&MemRequest::load(addr, Cycles(now), owner ^ 1)).is_err());
            }
        }

        /// Observed latency always includes the controller front end and
        /// never underruns the raw DRAM hit latency.
        #[test]
        fn latency_floor(addr in 0u64..(1u64<<24), at in 0u64..1_000_000) {
            let mut mc = MemoryController::from_config(&SystemConfig::paper_table2());
            let overhead = Cycles(SystemConfig::paper_table2().memctrl_overhead_cycles);
            let floor = mc.dram().timing().hit_latency() + overhead;
            let out = mc.service(&MemRequest::load(PhysAddr(addr), Cycles(at), 0)).unwrap();
            prop_assert!(out.latency >= floor);
        }
    }
}
