//! The generic simulation core: per-agent clocks, TLBs, page tables and
//! caches over a pluggable [`MemoryBackend`].
//!
//! [`Engine`] owns everything *above* main memory; the backend underneath
//! it classifies and times every [`MemRequest`] the engine routes down
//! (demand traffic, memory-side PiM, RowClone, prefetcher and noise
//! accesses). The paper's Table 2 machine is the instantiation with the
//! default controller backend — see [`crate::system::System`].

use std::sync::Arc;

use impact_cache::{
    CacheHierarchy, HierarchyOutcome, HitLevel, IpStridePrefetcher, StreamerPrefetcher,
};
use impact_core::addr::{PhysAddr, VirtAddr, PAGE_SIZE};
use impact_core::config::SystemConfig;
use impact_core::engine::{MemRequest, MemoryBackend};
use impact_core::error::{Error, Result};
use impact_core::time::Cycles;
use impact_dram::RowBufferKind;
use impact_memctrl::{Defense, MemoryController};
use impact_pim::pei::{ExecSite, PeiEngine};

use crate::memory::{FrameAllocator, PageTable};
use crate::noise::{NoiseInjector, NOISE_ACTOR};
use crate::tlb::Tlb;

/// Identifier of a co-simulated agent (thread/process).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AgentId(pub u32);

/// Simulation-harness timing parameters that are not part of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimParams {
    /// Cost of a serialized `cpuid; rdtscp` measurement pair.
    pub timer_overhead: Cycles,
    /// Cost of a `memory_fence` (Listing 1/2 use one per batch).
    pub fence_overhead: Cycles,
    /// Cost of one user-space semaphore operation.
    pub sync_overhead: Cycles,
    /// Software-stack overhead of one DMA-engine transfer (§5.2.2: context
    /// switches and OS instructions make the DMA attack ~10× slower than
    /// IMPACT-PnM).
    pub dma_overhead: Cycles,
}

impl Default for SimParams {
    fn default() -> SimParams {
        SimParams {
            timer_overhead: Cycles(8),
            fence_overhead: Cycles(20),
            sync_overhead: Cycles(45),
            dma_overhead: Cycles(1800),
        }
    }
}

/// Result of a cached load/store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadInfo {
    /// End-to-end latency observed by the agent.
    pub latency: Cycles,
    /// Cache level that served the access.
    pub level: HitLevel,
    /// Row-buffer classification if the access reached DRAM.
    pub kind: Option<RowBufferKind>,
}

/// Result of a PiM-enabled instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PimInfo {
    /// End-to-end latency observed by the agent.
    pub latency: Cycles,
    /// Where the PMU executed the PEI.
    pub site: ExecSite,
    /// Row-buffer classification for memory-side execution.
    pub kind: Option<RowBufferKind>,
}

/// Result of a masked RowClone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowCloneInfo {
    /// End-to-end latency of the masked operation.
    pub latency: Cycles,
    /// Per-bank classifications and latencies.
    pub per_bank: Vec<(usize, RowBufferKind, Cycles)>,
}

/// A second memory side for the engine's front end: a controller that
/// receives the requests the engine's own backend receives, each timed by
/// this lane's own copy of the accessing agent's clock.
///
/// [`Engine::access_lanes`] runs the front end of a cached access once:
/// translation, the TLB, the caches, the prefetchers and the noise draw.
/// It runs the memory side once per lane: the demand request, the
/// write-backs, the prefetch requests, the noise activations and the clock
/// advance. That equals running the access on a separate engine per
/// controller exactly while the front end never reads a latency, which
/// holds for one in-order, blocking agent (`impact_workloads::replay`).
/// Open a lane with [`Engine::lane`].
#[derive(Debug)]
pub struct Lane<'a> {
    ctrl: &'a mut MemoryController,
    clock: Cycles,
}

impl Lane<'_> {
    /// This lane's copy of the agent's clock.
    #[must_use]
    pub fn now(&self) -> Cycles {
        self.clock
    }

    /// Advances this lane's clock by `d` (compute time), as
    /// [`Engine::advance`] does the agent's.
    pub fn advance(&mut self, d: Cycles) {
        self.clock += d;
    }

    /// The lane's controller.
    #[must_use]
    pub fn controller(&self) -> &MemoryController {
        self.ctrl
    }
}

/// The memory side of one cached access, as the front end resolved it.
#[derive(Clone, Copy)]
struct MemorySide {
    pa: PhysAddr,
    tlb_lat: Cycles,
    hier: HierarchyOutcome,
    write: bool,
    actor: u32,
}

impl MemorySide {
    /// Sends the demand request and the write-backs to `mem`, timed from
    /// `clock`, and advances `clock` by the access's latency. Returns that
    /// latency and the demand's row-buffer kind.
    #[inline]
    fn serve<M: MemoryBackend>(
        self,
        mem: &mut M,
        clock: &mut Cycles,
    ) -> Result<(Cycles, Option<RowBufferKind>)> {
        let start = *clock + self.tlb_lat;
        let mut latency = self.tlb_lat + self.hier.latency;
        let mut kind = None;
        if self.hier.level == HitLevel::Memory {
            let at = start + self.hier.latency;
            let req = if self.write {
                MemRequest::store(self.pa, at, self.actor)
            } else {
                MemRequest::load(self.pa, at, self.actor)
            };
            let m = mem.service(&req)?;
            latency += m.latency;
            kind = Some(m.kind);
        }
        // A dirty victim's write-backs, one store of its line per dirty
        // copy, perturb bank state but are off the critical path. Each
        // carries the demand's actor, so a refusal (MPR, where the victim
        // sits in a bank that actor does not own) drops it.
        if let Some((line, copies)) = self.hier.dirty_victim {
            for _ in 0..copies {
                let _ = mem.service(&MemRequest::store(line, start + latency, self.actor));
            }
        }
        *clock += latency;
        Ok((latency, kind))
    }
}

/// The error for a lane that stopped following the engine's backend.
#[cold]
fn out_of_step(what: &str) -> Error {
    Error::InvalidConfig(format!(
        "a lane and the engine's backend disagree on {what}; \
         lanes need the engine's DRAM geometry and no MPR"
    ))
}

/// One co-simulated agent's private state: its clock, TLB and page table.
struct Agent {
    clock: Cycles,
    tlb: Tlb,
    page_table: PageTable,
}

impl Agent {
    /// An independent copy sharing the TLB levels and the page-table
    /// radix copy-on-write. The full struct literal makes a new `Agent`
    /// field fail to compile here until the fork carries it.
    fn fork(&mut self) -> Agent {
        Agent {
            clock: self.clock,
            tlb: self.tlb.fork(),
            page_table: self.page_table.fork(),
        }
    }
}

/// The simulation core, generic over the memory engine underneath it.
///
/// See the crate-level docs for the co-simulation model. Most users want
/// [`crate::system::System`], the instantiation with the default
/// [`impact_memctrl::MemoryController`] backend.
pub struct Engine<B: MemoryBackend> {
    /// Immutable after construction, so forks share it.
    cfg: Arc<SystemConfig>,
    params: SimParams,
    caches: CacheHierarchy,
    backend: B,
    pei: PeiEngine,
    noise: NoiseInjector,
    ip_prefetcher: IpStridePrefetcher,
    streamer: StreamerPrefetcher,
    agents: Vec<Agent>,
    alloc: FrameAllocator,
}

impl<B: MemoryBackend> core::fmt::Debug for Engine<B> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Engine")
            .field("agents", &self.agents.len())
            .field("banks", &self.backend.num_banks())
            .field("defense", &self.backend.defense_label())
            .finish()
    }
}

/// Probes per `service_batch` call on the burst's batched branch, so a
/// burst over thousands of banks (fig11's init sweeps) holds a few KiB of
/// requests and responses at a time rather than 112 bytes per probe.
const BURST_CHUNK: usize = 64;

impl<B: MemoryBackend> Engine<B> {
    /// Builds the engine over an explicit backend.
    #[must_use]
    pub fn with_backend(cfg: SystemConfig, params: SimParams, backend: B) -> Engine<B> {
        Engine {
            caches: CacheHierarchy::from_config(&cfg),
            backend,
            pei: PeiEngine::new(cfg.pim),
            noise: NoiseInjector::new(cfg.noise),
            ip_prefetcher: IpStridePrefetcher::new(64),
            streamer: StreamerPrefetcher::new(16, 2),
            agents: Vec::new(),
            alloc: FrameAllocator::new(cfg.dram_geometry),
            cfg: Arc::new(cfg),
            params,
        }
    }

    /// Creates a new agent (thread/process) with its own clock, TLB and
    /// page table.
    pub fn spawn_agent(&mut self) -> AgentId {
        let id = AgentId(self.agents.len() as u32);
        self.agents.push(Agent {
            clock: Cycles::ZERO,
            tlb: Tlb::new(self.cfg.tlb),
            page_table: PageTable::new(),
        });
        id
    }

    /// The system configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Harness parameters.
    #[must_use]
    pub fn params(&self) -> &SimParams {
        &self.params
    }

    /// The memory backend (stats, defense hooks).
    #[must_use]
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable backend access.
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Consumes the engine and returns its backend (how a recording
    /// proxy's trace gets sealed).
    #[must_use]
    pub fn into_backend(self) -> B {
        self.backend
    }

    /// Current clock of `agent`.
    #[must_use]
    pub fn now(&self, agent: AgentId) -> Cycles {
        self.agents[agent.0 as usize].clock
    }

    /// Sets the clock (used by synchronization primitives).
    pub fn set_now(&mut self, agent: AgentId, t: Cycles) {
        self.agents[agent.0 as usize].clock = t;
    }

    /// Advances the agent's clock by `d` (compute time).
    pub fn advance(&mut self, agent: AgentId, d: Cycles) {
        self.agents[agent.0 as usize].clock += d;
    }

    /// Maximum clock across all agents (total elapsed time).
    #[must_use]
    pub fn elapsed(&self) -> Cycles {
        self.agents
            .iter()
            .map(|a| a.clock)
            .max()
            .unwrap_or(Cycles::ZERO)
    }

    /// Emulated serialized timestamp read (`cpuid; rdtscp`).
    pub fn rdtscp(&mut self, agent: AgentId) -> u64 {
        self.advance(agent, self.params.timer_overhead);
        self.now(agent).0
    }

    /// Emulated memory fence.
    pub fn fence(&mut self, agent: AgentId) {
        self.advance(agent, self.params.fence_overhead);
    }

    // ------------------------------------------------------------------
    // Memory management
    // ------------------------------------------------------------------

    /// Allocates one DRAM row in `bank` for `agent` and maps it, returning
    /// the virtual base address of the row. Its pages come pre-faulted and
    /// TLB-warm (the warm-up the paper performs before attacks, §5.2.1).
    ///
    /// # Errors
    ///
    /// Returns [`impact_core::Error::MassagingFailed`] when the bank is
    /// exhausted.
    pub fn alloc_row_in_bank(&mut self, agent: AgentId, bank: usize) -> Result<VirtAddr> {
        let pa = self.alloc.alloc_row_in_bank(bank)?;
        Ok(self.map_region(agent, pa, self.cfg.dram_geometry.row_bytes))
    }

    /// Allocates `rotations` physically contiguous bank rotations (each
    /// rotation = one row in every bank, ascending flat-bank order) and
    /// maps them, returning the virtual base. This is the allocation the
    /// IMPACT-PuM sender/receiver use for RowClone ranges. Its pages come
    /// pre-faulted and TLB-warm (§5.2.1).
    ///
    /// # Errors
    ///
    /// Returns [`impact_core::Error::MassagingFailed`] when the stripe
    /// region is exhausted.
    pub fn alloc_bank_stripe(&mut self, agent: AgentId, rotations: u64) -> Result<VirtAddr> {
        let pa = self.alloc.alloc_bank_stripe(rotations)?;
        let banks = u64::from(self.cfg.dram_geometry.total_banks());
        let bytes = rotations * banks * self.cfg.dram_geometry.row_bytes;
        Ok(self.map_region(agent, pa, bytes))
    }

    /// Maps the `bytes` at `pa` into fresh virtual pages of `agent` and
    /// warms each page in both TLB levels as it maps it, in page order.
    /// The one place that counts a mapping's pages.
    fn map_region(&mut self, agent: AgentId, pa: PhysAddr, bytes: u64) -> VirtAddr {
        let pages = bytes.div_ceil(PAGE_SIZE);
        let Agent {
            page_table, tlb, ..
        } = &mut self.agents[agent.0 as usize];
        let va = page_table.reserve_vspace(pages);
        for p in 0..pages {
            let vpn = va.page_number() + p;
            page_table.map_page(vpn, pa.frame_number() + p);
            tlb.warm(vpn);
        }
        va
    }

    /// Translates a virtual address for `agent`, charging TLB latency.
    ///
    /// # Errors
    ///
    /// Returns [`impact_core::Error::UnmappedVirtualAddress`] for unmapped
    /// pages.
    pub fn translate(&mut self, agent: AgentId, va: VirtAddr) -> Result<(PhysAddr, Cycles)> {
        let a = &mut self.agents[agent.0 as usize];
        let pa = a.page_table.translate(va)?;
        let look = a.tlb.translate(va.page_number());
        Ok((pa, look.latency))
    }

    // ------------------------------------------------------------------
    // Memory operations
    // ------------------------------------------------------------------

    /// Cached load through the full hierarchy.
    ///
    /// # Errors
    ///
    /// Propagates translation and backend errors. On a partition violation
    /// (MPR) the TLB and the caches have already seen the access; the
    /// clock, the prefetchers and the noise source have not.
    pub fn load(&mut self, agent: AgentId, va: VirtAddr) -> Result<LoadInfo> {
        self.access_lanes(agent, va, false, &mut [])
    }

    /// Cached store (write-allocate).
    ///
    /// # Errors
    ///
    /// As for [`Engine::load`].
    pub fn store(&mut self, agent: AgentId, va: VirtAddr) -> Result<LoadInfo> {
        self.access_lanes(agent, va, true, &mut [])
    }

    /// Opens a [`Lane`] over `ctrl` for `agent`, its clock at the agent's.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when `ctrl`'s DRAM geometry differs from
    /// the engine's, so noise rows and address checks would not carry
    /// over, or when `ctrl` runs [`Defense::Mpr`], under which whether a
    /// request is served depends on its actor.
    pub fn lane<'a>(&self, agent: AgentId, ctrl: &'a mut MemoryController) -> Result<Lane<'a>> {
        if *ctrl.dram().geometry() != self.cfg.dram_geometry {
            return Err(Error::InvalidConfig(
                "a lane's DRAM geometry differs from the engine's".into(),
            ));
        }
        if matches!(ctrl.defense(), Defense::Mpr(_)) {
            return Err(Error::InvalidConfig(
                "a lane cannot run MPR: its acceptance depends on the actor".into(),
            ));
        }
        Ok(Lane {
            ctrl,
            clock: self.now(agent),
        })
    }

    /// A cached load (`write == false`) or store whose memory side also
    /// runs on every lane; [`Engine::load`] and [`Engine::store`] are the
    /// case with no lanes. The front end runs once. Then the engine's
    /// backend and each lane in turn get the demand request and the
    /// write-backs, the prefetch requests and the noise activations, each
    /// timed by its own clock, in the order and at the offsets a lone
    /// engine uses. A prefetched line fills the caches once, if every side
    /// served it. Returns the engine's own [`LoadInfo`].
    ///
    /// # Errors
    ///
    /// As for [`Engine::load`], from the engine's own side, before any
    /// lane moves. [`Error::InvalidConfig`] when a lane refuses a request
    /// the engine's backend served or the other way round; the lanes are
    /// then out of step with the engine.
    // Inlined because `load` and `store`, its no-lane case, sit on every
    // attack's hot path: outlined, it cost perfbench's traced fig9
    // re-drive about 3% (2-vCPU host).
    #[inline]
    pub fn access_lanes(
        &mut self,
        agent: AgentId,
        va: VirtAddr,
        write: bool,
        lanes: &mut [Lane<'_>],
    ) -> Result<LoadInfo> {
        let (pa, tlb_lat) = self.translate(agent, va)?;
        let hier = if write {
            self.caches.store(pa)
        } else {
            self.caches.load(pa)
        };
        let side = MemorySide {
            pa,
            tlb_lat,
            hier,
            write,
            actor: agent.0,
        };
        let clock = &mut self.agents[agent.0 as usize].clock;
        let (latency, kind) = side.serve(&mut self.backend, clock)?;
        // The traffic off the critical path lands at `start + latency`:
        // each side's advanced clock plus the translation latency.
        let now = *clock + tlb_lat;
        for lane in lanes.iter_mut() {
            side.serve(&mut *lane.ctrl, &mut lane.clock)
                .map_err(|_| out_of_step("a demand access"))?;
        }
        if self.noise.is_on() {
            let missed = hier.level == HitLevel::Memory;
            self.run_prefetchers(va, pa, missed, now, tlb_lat, lanes)?;
        }
        self.noise.draw(&mut self.backend, |backend, bank, row| {
            backend.inject_row_activation(bank, row, now, NOISE_ACTOR);
            for lane in lanes.iter_mut() {
                let at = lane.clock + tlb_lat;
                lane.ctrl.inject_row_activation(bank, row, at, NOISE_ACTOR);
            }
        });
        Ok(LoadInfo {
            latency,
            level: hier.level,
            kind,
        })
    }

    /// Uncached direct memory access (the "direct memory access attack" of
    /// §3.3 and the DMA-engine data path; the DMA software overhead is
    /// charged separately by the attack harness).
    ///
    /// # Errors
    ///
    /// Propagates translation and backend errors.
    pub fn load_direct(&mut self, agent: AgentId, va: VirtAddr) -> Result<LoadInfo> {
        let (pa, tlb_lat) = self.translate(agent, va)?;
        let start = self.now(agent) + tlb_lat;
        let m = self
            .backend
            .service(&MemRequest::load(pa, start, agent.0))?;
        let latency = tlb_lat + m.latency;
        self.noise.perturb(&mut self.backend, start + latency);
        self.advance(agent, latency);
        Ok(LoadInfo {
            latency,
            level: HitLevel::Memory,
            kind: Some(m.kind),
        })
    }

    /// Issues a burst of uncached loads through the backend's batched
    /// request path (the DMA-engine data path). All requests enter the
    /// backend when the burst starts — bank queueing orders them — and the
    /// agent's clock advances past the last completion. Noise perturbs the
    /// banks once per burst; per-element `latency` excludes the up-front
    /// TLB charge. This is the amortized alternative to calling
    /// [`Engine::load_direct`] in a loop.
    ///
    /// # Errors
    ///
    /// Propagates translation and backend errors; the clock is only
    /// advanced when the whole burst succeeds.
    pub fn load_direct_batch(&mut self, agent: AgentId, vas: &[VirtAddr]) -> Result<Vec<LoadInfo>> {
        if vas.is_empty() {
            // No accesses happened, so no noise either — a zero-length
            // burst must leave the simulation state untouched, like a
            // zero-iteration `load_direct` loop.
            return Ok(Vec::new());
        }
        let mut tlb_total = Cycles::ZERO;
        let mut pas = Vec::with_capacity(vas.len());
        for &va in vas {
            let (pa, tlb_lat) = self.translate(agent, va)?;
            tlb_total += tlb_lat;
            pas.push(pa);
        }
        let start = self.now(agent) + tlb_total;
        let reqs: Vec<MemRequest> = pas
            .into_iter()
            .map(|pa| MemRequest::load(pa, start, agent.0))
            .collect();
        let resps = self.backend.service_batch(&reqs)?;
        let mut end = start;
        let infos = resps
            .into_iter()
            .map(|m| {
                end = end.max(m.completed_at);
                LoadInfo {
                    latency: m.latency,
                    level: HitLevel::Memory,
                    kind: Some(m.kind),
                }
            })
            .collect();
        self.noise.perturb(&mut self.backend, end);
        self.set_now(agent, end);
        Ok(infos)
    }

    /// Executes `clflush` for a line: invalidates it everywhere; a dirty
    /// copy pays the write-back to DRAM on the critical path (§3.2).
    ///
    /// # Errors
    ///
    /// Propagates translation and backend errors.
    pub fn clflush(&mut self, agent: AgentId, va: VirtAddr) -> Result<Cycles> {
        let (pa, tlb_lat) = self.translate(agent, va)?;
        let (probe_lat, dirty) = self.caches.clflush(pa);
        let mut latency = tlb_lat + probe_lat;
        if dirty {
            let wb =
                self.backend
                    .service(&MemRequest::store(pa, self.now(agent) + latency, agent.0))?;
            latency += wb.latency;
        }
        self.advance(agent, latency);
        Ok(latency)
    }

    /// Executes a PiM-enabled instruction (`pim_add`-style) on `va`,
    /// letting the PMU locality monitor choose the execution site (§4.1).
    ///
    /// # Errors
    ///
    /// Propagates translation and backend errors.
    pub fn pim_op(&mut self, agent: AgentId, va: VirtAddr) -> Result<PimInfo> {
        let (pa, tlb_lat) = self.translate(agent, va)?;
        self.pim_op_translated(agent, pa, tlb_lat, true)
    }

    /// Executes a PiM-enabled instruction with an explicit memory-side
    /// offload hint, bypassing the PMU locality monitor. This models (i)
    /// fully offloaded PiM applications (e.g. the read-mapping victim,
    /// whose seeding is offloaded wholesale, §4.3) and (ii) attackers that
    /// have already arranged to defeat the monitor.
    ///
    /// # Errors
    ///
    /// Propagates translation and backend errors.
    pub fn pim_op_direct(&mut self, agent: AgentId, va: VirtAddr) -> Result<PimInfo> {
        let (pa, tlb_lat) = self.translate(agent, va)?;
        self.pim_op_translated(agent, pa, tlb_lat, false)
    }

    // ------------------------------------------------------------------
    // The row-opening burst (the side channel's init sweep)
    // ------------------------------------------------------------------
    //
    // `pim_open_burst_translated` services a burst of explicitly offloaded
    // PEIs through the backend's amortized `service_batch` path while
    // remaining BIT-IDENTICAL to running the remainder of `pim_op_direct`
    // per probe: same responses, same clock evolution, same TLB and
    // backend state. The batched branch only engages when that
    // equivalence is provable —
    //
    //   * the backend reports `probe_burst_safe()` (scalar servicing is
    //     arrival-time invariant and infallible for in-range addresses),
    //   * noise injection is disabled (its RNG draws interleave with
    //     probes in the serial loop), and
    //   * every probe maps to a distinct bank that is idle at burst start
    //     (so no request ever queues, in either formulation).
    //
    // Otherwise the burst runs the serial per-probe loop. Note the batched
    // branch leaves each probed bank's busy-until at (burst start +
    // latency), earlier than the serial loop's chained completions; since
    // the issuing agent's clock ends past every serial completion and
    // banks are only re-touched at or after that clock (the attack's
    // barrier after its init sweep), the difference is unobservable.

    /// True when a burst over the translated `probes` may take the
    /// batched branch for `agent` — see the invariants above.
    fn burst_eligible(&self, agent: AgentId, probes: &[(PhysAddr, Cycles)]) -> bool {
        if self.noise.is_on() || !self.backend.probe_burst_safe() {
            return false;
        }
        let now = self.now(agent);
        let mut seen = vec![false; self.backend.num_banks()];
        for &(pa, _) in probes {
            let Some(bank) = self.backend.bank_of(pa) else {
                return false;
            };
            let Some(slot) = seen.get_mut(bank) else {
                return false;
            };
            if std::mem::replace(slot, true) || self.backend.bank_ready_at(bank) > now {
                return false;
            }
        }
        true
    }

    /// One PEI after translation: the body of [`Engine::pim_op`]
    /// (`monitored`: the PMU locality monitor picks the site) and of
    /// [`Engine::pim_op_direct`] (not: always memory-side), and the serial
    /// loop of [`Engine::pim_open_burst_translated`].
    #[inline]
    fn pim_op_translated(
        &mut self,
        agent: AgentId,
        pa: PhysAddr,
        tlb_lat: Cycles,
        monitored: bool,
    ) -> Result<PimInfo> {
        let start = self.now(agent) + tlb_lat;
        if monitored && self.pei.decide(pa) == ExecSite::Host {
            // Host-side PCU: PEI overhead + cache path.
            let h = self.caches.load(pa);
            let mut latency = tlb_lat + Cycles(self.cfg.pim.pei_overhead_cycles) + h.latency;
            let mut kind = None;
            if h.level == HitLevel::Memory {
                let m = self
                    .backend
                    .service(&MemRequest::load(pa, start + latency, agent.0))?;
                latency += m.latency;
                kind = Some(m.kind);
            }
            self.noise.perturb(&mut self.backend, start + latency);
            self.advance(agent, latency);
            return Ok(PimInfo {
                latency,
                site: ExecSite::Host,
                kind,
            });
        }
        let out = self
            .pei
            .execute_memory_side(&mut self.backend, pa, start, agent.0)?;
        let latency = tlb_lat + out.latency;
        self.noise.perturb(&mut self.backend, start + latency);
        self.advance(agent, latency);
        Ok(PimInfo {
            latency,
            site: ExecSite::MemorySide,
            kind: Some(out.kind),
        })
    }

    /// Issues a burst of *untimed, explicitly offloaded* PEIs over probes
    /// the caller has already translated with [`Engine::translate`] (each
    /// entry is the physical address plus the TLB latency that translation
    /// charged): the side channel's row-opening init sweep, which
    /// interleaves translation with allocation to keep the serial TLB
    /// access order. Bit-identical to the remainder of
    /// [`Engine::pim_op_direct`] per probe; when the burst invariants hold
    /// (see above) the probes reach the backend through
    /// [`MemoryBackend::service_batch`] calls of up to 64 probes each.
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    pub fn pim_open_burst_translated(
        &mut self,
        agent: AgentId,
        probes: &[(PhysAddr, Cycles)],
    ) -> Result<Vec<PimInfo>> {
        if !self.burst_eligible(agent, probes) {
            return probes
                .iter()
                .map(|&(pa, tlb_lat)| self.pim_op_translated(agent, pa, tlb_lat, false))
                .collect();
        }
        let overhead = self.pei.pcu_overhead();
        // Every chunk arrives at the burst start, so chunking serves the
        // same requests in the same order as one batch would; it only keeps
        // the request and response buffers small.
        let at = self.now(agent);
        let mut reqs = Vec::with_capacity(probes.len().min(BURST_CHUNK));
        let mut infos = Vec::with_capacity(probes.len());
        for chunk in probes.chunks(BURST_CHUNK) {
            reqs.clear();
            reqs.extend(
                chunk
                    .iter()
                    .map(|&(pa, _)| MemRequest::pim(pa, at, agent.0)),
            );
            let resps = self.backend.service_batch(&reqs)?;
            infos.extend(chunk.iter().zip(resps).map(|(&(_, tlb_lat), m)| PimInfo {
                latency: tlb_lat + overhead + m.latency,
                site: ExecSite::MemorySide,
                kind: Some(m.kind),
            }));
        }
        // The clock moves only once the whole burst has succeeded.
        for info in &infos {
            self.advance(agent, info.latency);
        }
        Ok(infos)
    }

    /// Executes a masked RowClone: copies row chunks from the range at
    /// `src_va` to the range at `dst_va` for every set mask bit (§4.2).
    /// Both ranges must come from [`Engine::alloc_bank_stripe`] so that
    /// they are physically contiguous. The request goes to the backend as
    /// is; the backend checks it (see
    /// [`MemoryController::service`](impact_memctrl::MemoryController::service)).
    ///
    /// # Errors
    ///
    /// Propagates translation and backend errors.
    pub fn rowclone(
        &mut self,
        agent: AgentId,
        src_va: VirtAddr,
        dst_va: VirtAddr,
        mask: u64,
    ) -> Result<RowCloneInfo> {
        let (src, src_lat) = self.translate(agent, src_va)?;
        let (dst, dst_lat) = self.translate(agent, dst_va)?;
        let tlb_lat = src_lat + dst_lat;
        let start = self.now(agent) + tlb_lat;
        let out = self
            .backend
            .service(&MemRequest::rowclone(src, dst, mask, start, agent.0))?;
        let latency = tlb_lat + out.latency;
        self.noise.perturb(&mut self.backend, start + latency);
        self.advance(agent, latency);
        Ok(RowCloneInfo {
            latency,
            per_bank: out.per_bank,
        })
    }

    #[cfg(test)]
    pub(crate) fn burst_would_commit(&self, agent: AgentId, vas: &[VirtAddr]) -> bool {
        let pt = &self.agents[agent.0 as usize].page_table;
        let Ok(probes) = vas
            .iter()
            .map(|&va| pt.translate(va).map(|pa| (pa, Cycles::ZERO)))
            .collect::<Result<Vec<_>>>()
        else {
            return false;
        };
        self.burst_eligible(agent, &probes)
    }

    /// Trains the prefetchers on one access and sends their requests to
    /// the engine's backend at `now` and to every lane `tlb_lat` past its
    /// clock. A prefetched line fills the caches once, if every side
    /// served it.
    #[inline]
    fn run_prefetchers(
        &mut self,
        va: VirtAddr,
        pa: PhysAddr,
        missed: bool,
        now: Cycles,
        tlb_lat: Cycles,
        lanes: &mut [Lane<'_>],
    ) -> Result<()> {
        let ip = va.page_number(); // stream id proxy
        let mut reqs = self.ip_prefetcher.observe(ip, pa);
        reqs.extend(self.streamer.observe(pa, missed));
        for r in reqs {
            // Prefetches fill caches and touch DRAM rows (noise).
            let served = self
                .backend
                .service(&MemRequest::load(r.addr, now, NOISE_ACTOR))
                .is_ok();
            for lane in lanes.iter_mut() {
                let req = MemRequest::load(r.addr, lane.clock + tlb_lat, NOISE_ACTOR);
                if lane.ctrl.service(&req).is_ok() != served {
                    return Err(out_of_step("a prefetch"));
                }
            }
            if served {
                let _ = self.caches.load(r.addr);
            }
        }
        Ok(())
    }
}

/// Forking: every layer above memory (caches, each agent's clock, TLB and
/// page table, prefetchers, noise RNG, PMU monitor) plus the controller,
/// each through its own `fork`. The tables a fork may share (bank records, cache line
/// chunk tables, page-table radixes, controller ACT/blocking tables, TLB
/// levels, the PMU monitor and the prefetcher tables) sit in
/// [`impact_core::cow::CowBox`]es, which the parent owns and writes with
/// no reference counting until its first fork. A fork then copies only
/// small records, shares the configuration through an `Arc`, and each side
/// copies a table only when it first writes it. The fleet warms one engine
/// and forks it per session. `Engine` does not implement `Clone`: `fork`
/// is the one way to copy an engine, so every copy counts in
/// `engine.forks`. [`Engine::fork`] builds the copy with a full struct
/// literal, so a new `Engine` field fails to compile there until the fork
/// carries it.
impl Engine<MemoryController> {
    /// An independent copy sharing bulk state copy-on-write. It behaves
    /// bit-identically to a from-scratch engine driven through the
    /// parent's history; writes on either side are invisible to the
    /// other. It takes `&mut self` because the parent's tables move
    /// behind shared handles on its first fork.
    #[must_use]
    pub fn fork(&mut self) -> Engine<MemoryController> {
        // Telemetry event only — the fork carries no telemetry state (the
        // obs registry is process-global and never an engine field).
        impact_obs::registry().engine_forks.incr();
        Engine {
            cfg: Arc::clone(&self.cfg),
            params: self.params,
            caches: self.caches.fork(),
            backend: self.backend.fork(),
            pei: self.pei.fork(),
            noise: self.noise.clone(),
            ip_prefetcher: self.ip_prefetcher.fork(),
            streamer: self.streamer.fork(),
            agents: self.agents.iter_mut().map(Agent::fork).collect(),
            alloc: self.alloc.clone(),
        }
    }
}

#[cfg(test)]
mod burst_tests {
    use super::*;
    use crate::system::{BackendKind, System, TracedSystem};
    use impact_core::config::SystemConfig;
    use impact_core::trace::{read_trace, TraceEvent};
    use impact_memctrl::{ActConfig, Defense, PeriodicBlock};

    /// Builds a system, one agent, and one probe line per bank.
    fn probe_setup<B>(mut sys: Engine<B>, banks: usize) -> (Engine<B>, AgentId, Vec<VirtAddr>)
    where
        B: impact_memctrl::ControllerBackend,
    {
        let a = sys.spawn_agent();
        let mut vas = Vec::new();
        for bank in 0..banks {
            let va = sys.alloc_row_in_bank(a, bank).unwrap();
            vas.push(va);
        }
        (sys, a, vas)
    }

    /// Translates every probe line in order, as the side channel's init
    /// sweep does before its burst.
    fn translate_all<B: MemoryBackend>(
        sys: &mut Engine<B>,
        agent: AgentId,
        vas: &[VirtAddr],
    ) -> Vec<(PhysAddr, Cycles)> {
        vas.iter()
            .map(|&va| sys.translate(agent, va).unwrap())
            .collect()
    }

    /// The serial loop `pim_open_burst_translated` must match.
    fn pim_op_direct_loop<B: MemoryBackend>(
        sys: &mut Engine<B>,
        agent: AgentId,
        vas: &[VirtAddr],
    ) -> Vec<PimInfo> {
        vas.iter()
            .map(|&va| sys.pim_op_direct(agent, va).unwrap())
            .collect()
    }

    fn assert_open_burst_matches_pim_op_direct(configure: impl Fn(&mut System)) {
        let make = || {
            let mut s = System::new(SystemConfig::paper_table2_noiseless());
            configure(&mut s);
            s
        };
        let (mut a_sys, a, vas) = probe_setup(make(), 8);
        let (mut b_sys, b, vas_b) = probe_setup(make(), 8);
        assert_eq!(vas, vas_b);
        for round in 0..3 {
            // Successive bursts open fresh lines of the same rows.
            let off: Vec<VirtAddr> = vas.iter().map(|&v| v + round * 64).collect();
            let probes = translate_all(&mut a_sys, a, &off);
            let burst = a_sys.pim_open_burst_translated(a, &probes).unwrap();
            assert_eq!(burst, pim_op_direct_loop(&mut b_sys, b, &off));
            assert_eq!(a_sys.now(a), b_sys.now(b), "clock diverged");
            assert_eq!(
                a_sys.backend().backend_stats(),
                b_sys.backend().backend_stats()
            );
        }
        assert_eq!(a_sys.dram_totals(), b_sys.dram_totals());
    }

    #[test]
    fn open_burst_matches_pim_op_direct() {
        // Noiseless and CTD take the batched branch; noise, ACT and
        // periodic blocking force the serial loop. All must match
        // `pim_op_direct` exactly.
        assert_open_burst_matches_pim_op_direct(|_| {});
        assert_open_burst_matches_pim_op_direct(|s| {
            *s = System::new(SystemConfig::paper_table2());
        });
        assert_open_burst_matches_pim_op_direct(|s| s.set_defense(Defense::Ctd));
        assert_open_burst_matches_pim_op_direct(|s| {
            s.set_defense(Defense::Act(ActConfig::aggressive()));
        });
        assert_open_burst_matches_pim_op_direct(|s| {
            s.set_periodic_block(Some(PeriodicBlock::rfm_paper_default()));
        });
    }

    #[test]
    fn fast_path_engages_exactly_when_provable() {
        let (sys, a, vas) = probe_setup(System::new(SystemConfig::paper_table2_noiseless()), 8);
        assert!(sys.burst_would_commit(a, &vas));

        // Duplicate banks: not provable.
        let mut dup = vas.clone();
        dup.push(vas[0]);
        assert!(!sys.burst_would_commit(a, &dup));

        // Noise on: not provable.
        let (nsys, na, nvas) = probe_setup(System::new(SystemConfig::paper_table2()), 8);
        assert!(!nsys.burst_would_commit(na, &nvas));

        // ACT (epoch-based padding): not provable.
        let (mut dsys, da, dvas) =
            probe_setup(System::new(SystemConfig::paper_table2_noiseless()), 8);
        dsys.set_defense(Defense::Act(ActConfig::mild()));
        assert!(!dsys.burst_would_commit(da, &dvas));
        // CTD pads to a constant: provable again.
        dsys.set_defense(Defense::Ctd);
        assert!(dsys.burst_would_commit(da, &dvas));

        // Unmapped page: not provable.
        assert!(!sys.burst_would_commit(a, &[VirtAddr(0xdead_b000)]));
    }

    #[test]
    fn fast_path_uses_one_service_batch() {
        let cfg = SystemConfig::paper_table2_noiseless();
        let recording = TracedSystem::recording(cfg, Vec::new(), "paper_table2_noiseless", 0);
        let (mut sys, a, vas) = probe_setup(recording.unwrap(), 8);
        let before = sys.backend().summary().events;
        let probes = translate_all(&mut sys, a, &vas);
        sys.pim_open_burst_translated(a, &probes).unwrap();
        let (summary, bytes) = sys.finish_trace().unwrap();
        assert_eq!(summary.events, before + 1, "expected exactly one event");
        let (_, events, _) = read_trace(&bytes[..]).unwrap();
        assert!(matches!(events.last(), Some(TraceEvent::Batch(b)) if b.len() == 8));
    }

    #[test]
    fn bursts_wider_than_one_chunk_match_the_serial_loop() {
        // 1,024 banks: the burst spans sixteen `service_batch` chunks.
        let make = || System::new(SystemConfig::paper_table2_noiseless().with_total_banks(1024));
        let (mut a_sys, a, vas) = probe_setup(make(), 1024);
        let (mut b_sys, b, _) = probe_setup(make(), 1024);
        assert!(vas.len() > BURST_CHUNK);
        assert!(a_sys.burst_would_commit(a, &vas));
        let probes = translate_all(&mut a_sys, a, &vas);
        let burst = a_sys.pim_open_burst_translated(a, &probes).unwrap();
        assert_eq!(burst, pim_op_direct_loop(&mut b_sys, b, &vas));
        assert_eq!(a_sys.now(a), b_sys.now(b), "clock diverged");
        assert_eq!(
            a_sys.backend().backend_stats(),
            b_sys.backend().backend_stats()
        );
        assert_eq!(a_sys.dram_totals(), b_sys.dram_totals());
    }

    #[test]
    fn bursts_work_on_every_backend() {
        let cfg = SystemConfig::paper_table2_noiseless;
        let (mut mono, a, vas) = probe_setup(System::new(cfg()), 8);
        let probes = translate_all(&mut mono, a, &vas);
        let expected = mono.pim_open_burst_translated(a, &probes).unwrap();
        let boxed = Engine::with_backend(
            cfg(),
            SimParams::default(),
            BackendKind::Mono.backend(&cfg()),
        );
        let (mut boxed, ba, bvas) = probe_setup(boxed, 8);
        assert!(boxed.burst_would_commit(ba, &bvas));
        let probes = translate_all(&mut boxed, ba, &bvas);
        assert_eq!(
            boxed.pim_open_burst_translated(ba, &probes).unwrap(),
            expected
        );
        let recording =
            TracedSystem::recording(cfg(), std::io::sink(), "paper_table2_noiseless", 0);
        let (mut traced, ta, tvas) = probe_setup(recording.unwrap(), 8);
        let probes = translate_all(&mut traced, ta, &tvas);
        assert_eq!(
            traced.pim_open_burst_translated(ta, &probes).unwrap(),
            expected
        );
    }

    #[test]
    fn empty_burst_is_a_noop() {
        let (mut sys, a, _) = probe_setup(System::new(SystemConfig::paper_table2()), 2);
        let before = sys.now(a);
        assert!(sys.pim_open_burst_translated(a, &[]).unwrap().is_empty());
        assert_eq!(sys.now(a), before);
    }
}
