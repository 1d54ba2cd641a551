//! Fleet sessions: the unit of work the epoch scheduler multiplexes.
//!
//! Two kinds exist. **Synthetic** sessions are seeded attacker/victim
//! pairs — a prime+probe covert channel over DRAM row-buffer timing,
//! drawn from a configuration distribution (defense, probe-bank count,
//! co-tenant noise, transmission length) that is a pure function of the
//! fleet seed and the session id. **Trace** sessions replay a recorded
//! [`CapturedTrace`] prefix through a forked controller via the trace
//! codec's event dispatcher.
//!
//! Both are built at admission by forking a parent (`Engine::fork` of the
//! calibrated synthetic parent, `MemoryController::fork` of a pristine
//! controller), so per-session setup is O(metadata), and both step in
//! fixed budgets so the scheduler can interleave thousands of them.
//! A session's result depends only on (parent state, spec); it never
//! observes which worker ran it or when.

use std::sync::Arc;

use impact_core::addr::VirtAddr;
use impact_core::config::SystemConfig;
use impact_core::hash::fnv1a_u64;
use impact_core::rng::SimRng;
use impact_core::time::{Clock, Cycles};
use impact_core::trace::{fold_response, replay_events, DIGEST_INIT};
use impact_memctrl::{ActConfig, Defense, MemoryController};
use impact_sim::{AgentId, System};
use impact_workloads::CapturedTrace;

/// Banks the synthetic warm parent prepares; per-session probe sets use
/// a prefix of them.
pub const MAX_PROBE_BANKS: usize = 16;

/// Domain-separation salt for the spec-drawing RNG stream.
const SPEC_SALT: u64 = 0x0F1E_E75E_5510;

/// Everything needed to build one synthetic session — a pure function of
/// `(fleet_seed, id)`, so the population is identical however admission
/// calls are batched.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSpec {
    /// Defense installed on the session's forked engine: None, CRP, CTD,
    /// ACT-Mild or ACT-Aggressive. MPR is excluded: bank partitioning
    /// reshapes the address map per tenant, which is a population-level
    /// experiment of its own.
    pub defense: Defense,
    /// Probe set size: the covert channel's symbol alphabet (a power of
    /// two ≤ [`MAX_PROBE_BANKS`]).
    pub probe_banks: usize,
    /// Per-step probability of one co-tenant access, in basis points.
    pub noise_bp: u64,
    /// Secret symbols the victim transmits before the session finishes.
    pub steps: u32,
    /// Per-session RNG stream (secrets and noise placement).
    pub seed: u64,
}

impl SyntheticSpec {
    /// Draws the spec for session `id` of a fleet seeded with
    /// `fleet_seed`, transmitting between `min_steps` and `max_steps`
    /// symbols.
    #[must_use]
    pub fn draw(fleet_seed: u64, id: u32, min_steps: u32, max_steps: u32) -> SyntheticSpec {
        let mut rng = SimRng::seed(fleet_seed ^ SPEC_SALT).derive(u64::from(id));
        let defense = match rng.below(100) {
            0..=29 => Defense::None,
            30..=49 => Defense::Crp,
            50..=69 => Defense::Ctd,
            70..=84 => Defense::Act(ActConfig::mild()),
            _ => Defense::Act(ActConfig::aggressive()),
        };
        let probe_banks = [4, 8, 16][rng.below(3) as usize];
        let noise_bp = [0, 500, 2000, 5000][rng.below(4) as usize];
        let span = u64::from(max_steps.saturating_sub(min_steps).max(1));
        let steps = min_steps + rng.below(span) as u32;
        let seed = rng.next_u64();
        SyntheticSpec {
            defense,
            probe_banks,
            noise_bp,
            steps,
            seed,
        }
    }
}

/// Shared, fork-invariant facts about the synthetic warm parent: agent
/// handles, per-bank row addresses, and the calibrated probe threshold.
/// Forks inherit the warmed engine state these describe, so one
/// `WarmSlots` serves every synthetic session.
#[derive(Debug)]
pub(crate) struct WarmSlots {
    attacker: AgentId,
    victim: AgentId,
    tenant: AgentId,
    attacker_rows: Vec<VirtAddr>,
    victim_rows: Vec<VirtAddr>,
    tenant_rows: Vec<VirtAddr>,
    /// Probe latency above this reads as a row conflict (someone else
    /// touched the bank since the attacker's last probe).
    threshold: Cycles,
    /// Undefended probe latency with the attacker's row open.
    nominal_probe: Cycles,
    /// Undefended victim access latency.
    nominal_victim: Cycles,
}

/// Builds the synthetic warm parent on the noiseless Table 2 machine
/// (`SystemConfig::paper_table2_noiseless`, 16 banks): spawns the
/// attacker, victim and co-tenant, allocates one row per agent in each of
/// the first [`MAX_PROBE_BANKS`] banks, primes the attacker's rows open,
/// and calibrates the hit/conflict classification threshold. Fork the
/// returned engine once per session.
pub(crate) fn warm_parent() -> (System, Arc<WarmSlots>) {
    let mut eng = System::new(SystemConfig::paper_table2_noiseless());
    let attacker = eng.spawn_agent();
    let victim = eng.spawn_agent();
    let tenant = eng.spawn_agent();
    let rows = |eng: &mut System, agent: AgentId| -> Vec<VirtAddr> {
        (0..MAX_PROBE_BANKS)
            .map(|bank| {
                eng.alloc_row_in_bank(agent, bank)
                    .expect("three rows per bank fit the machine")
            })
            .collect()
    };
    let attacker_rows = rows(&mut eng, attacker);
    let victim_rows = rows(&mut eng, victim);
    let tenant_rows = rows(&mut eng, tenant);

    // Prime: open the attacker's row in every probe bank, so the first
    // session step starts from the steady prime+probe state.
    for &va in &attacker_rows {
        eng.pim_op_direct(attacker, va)
            .expect("warmed probe cannot fail");
    }
    // Calibrate on bank 0: with the attacker's row open a probe is fast
    // (hit); after the victim touches the bank it is slow (conflict).
    let hit = eng
        .pim_op_direct(attacker, attacker_rows[0])
        .expect("warmed probe cannot fail")
        .latency;
    let nominal_victim = eng
        .pim_op_direct(victim, victim_rows[0])
        .expect("warmed access cannot fail")
        .latency;
    let conflict = eng
        .pim_op_direct(attacker, attacker_rows[0])
        .expect("warmed probe cannot fail")
        .latency;
    assert!(
        hit < conflict,
        "row-buffer channel requires hit latency ({hit:?}) below conflict latency ({conflict:?})"
    );
    let threshold = Cycles((hit.0 + conflict.0) / 2);
    let slots = WarmSlots {
        attacker,
        victim,
        tenant,
        attacker_rows,
        victim_rows,
        tenant_rows,
        threshold,
        nominal_probe: hit,
        nominal_victim,
    };
    (eng, Arc::new(slots))
}

/// One synthetic prime+probe session over a forked engine. Of its spec
/// it keeps the defense's name (the defense itself lives in the fork's
/// controller) and what its steps read.
pub(crate) struct SyntheticSession {
    eng: System,
    warm: Arc<WarmSlots>,
    defense: &'static str,
    probe_banks: usize,
    noise_bp: u64,
    steps: u32,
    rng: SimRng,
    step: u32,
    hits: u64,
    errors: u64,
    elapsed: Cycles,
    digest: u64,
}

impl SyntheticSession {
    pub(crate) fn new(parent: &mut System, warm: Arc<WarmSlots>, spec: SyntheticSpec) -> Self {
        let mut eng = parent.fork();
        let defense = spec.defense.name();
        if spec.defense != Defense::None {
            eng.set_defense(spec.defense);
        }
        SyntheticSession {
            eng,
            warm,
            defense,
            probe_banks: spec.probe_banks,
            noise_bp: spec.noise_bp,
            steps: spec.steps,
            rng: SimRng::seed(spec.seed),
            step: 0,
            hits: 0,
            errors: 0,
            elapsed: Cycles(0),
            digest: DIGEST_INIT,
        }
    }

    /// One transmission round: the victim opens its row in the secret
    /// bank, the co-tenant may touch a random bank, the attacker probes
    /// its whole set and decodes the secret as the unique conflicting
    /// bank.
    fn step_once(&mut self) {
        let warm = &self.warm;
        let secret = self.rng.below(self.probe_banks as u64) as usize;
        let v = self
            .eng
            .pim_op_direct(warm.victim, warm.victim_rows[secret])
            .expect("warmed victim access cannot fail");
        let mut step_cycles = v.latency;
        if self.noise_bp > 0 && self.rng.below(10_000) < self.noise_bp {
            let bank = self.rng.below(MAX_PROBE_BANKS as u64) as usize;
            let n = self
                .eng
                .pim_op_direct(warm.tenant, warm.tenant_rows[bank])
                .expect("warmed co-tenant access cannot fail");
            step_cycles += n.latency;
        }
        let mut detected_mask = 0u64;
        for bank in 0..self.probe_banks {
            let p = self
                .eng
                .pim_op_direct(warm.attacker, warm.attacker_rows[bank])
                .expect("warmed probe cannot fail");
            step_cycles += p.latency;
            if p.latency > warm.threshold {
                detected_mask |= 1 << bank;
            }
        }
        let decoded = detected_mask == 1 << secret;
        if decoded {
            self.hits += 1;
        } else {
            self.errors += 1;
        }
        self.elapsed += step_cycles;
        self.digest = fnv1a_u64(self.digest, secret as u64);
        self.digest = fnv1a_u64(self.digest, detected_mask);
        self.digest = fnv1a_u64(self.digest, step_cycles.0);
        self.step += 1;
    }

    fn report(&self, id: u32) -> SessionReport {
        let steps = u64::from(self.steps);
        let symbol_bits = u64::from(self.probe_banks.trailing_zeros());
        let bits = self.hits * symbol_bits;
        let nominal_step =
            self.warm.nominal_victim.0 + self.probe_banks as u64 * self.warm.nominal_probe.0;
        SessionReport {
            id,
            kind: "synthetic",
            defense: self.defense,
            steps,
            hits: self.hits,
            errors: self.errors,
            elapsed: self.elapsed,
            capacity_kbps: kbps(self.eng.config().clock, bits, self.elapsed),
            error_rate_bp: 10_000 * self.errors / steps.max(1),
            slowdown_bp: 10_000 * self.elapsed.0 / (steps * nominal_step).max(1),
            digest: self.digest,
        }
    }
}

/// One trace-replay session: a recorded event-log prefix dispatched into
/// a forked controller, `budget` events per epoch.
pub(crate) struct TraceSession {
    backend: MemoryController,
    trace: Arc<CapturedTrace>,
    clock: Clock,
    prefix: usize,
    cursor: usize,
    responses: u64,
    latency: Cycles,
    min_latency: Cycles,
    digest: u64,
}

impl TraceSession {
    pub(crate) fn new(
        parent: &mut MemoryController,
        trace: Arc<CapturedTrace>,
        clock: Clock,
        prefix: usize,
    ) -> Self {
        let prefix = prefix.min(trace.events.len());
        TraceSession {
            backend: parent.fork(),
            trace,
            clock,
            prefix,
            cursor: 0,
            responses: 0,
            latency: Cycles(0),
            min_latency: Cycles(u64::MAX),
            digest: DIGEST_INIT,
        }
    }

    fn advance(&mut self, budget: u32) {
        let end = self.prefix.min(self.cursor + budget as usize);
        let events = &self.trace.events[self.cursor..end];
        let (digest, responses, latency, min_latency) = (
            &mut self.digest,
            &mut self.responses,
            &mut self.latency,
            &mut self.min_latency,
        );
        replay_events(events, &mut self.backend, |resp| {
            *digest = fold_response(*digest, &resp);
            *responses += 1;
            *latency += resp.latency;
            *min_latency = (*min_latency).min(resp.latency);
        })
        .expect("admit_trace replayed the whole log from this pristine state");
        self.cursor = end;
    }

    fn report(&self, id: u32) -> SessionReport {
        // A serviced cache line is 64 bytes; capacity is the replayed
        // prefix's data rate over its simulated service time. The
        // slowdown baseline is the fastest response observed — the
        // prefix's unimpeded access cost.
        let bits = self.responses * 512;
        let slowdown_bp = if self.responses == 0 {
            10_000
        } else {
            10_000 * self.latency.0 / (self.responses * self.min_latency.0).max(1)
        };
        SessionReport {
            id,
            kind: "trace",
            defense: "-",
            steps: self.prefix as u64,
            hits: self.responses,
            errors: 0,
            elapsed: self.latency,
            capacity_kbps: kbps(self.clock, bits, self.latency),
            error_rate_bp: 0,
            slowdown_bp,
            digest: self.digest,
        }
    }
}

/// Converts a bit count over simulated cycles into integer kb/s.
fn kbps(clock: Clock, bits: u64, elapsed: Cycles) -> u64 {
    if elapsed.0 == 0 {
        return 0;
    }
    // Non-negative and far below 2^63, so the cast only drops the fraction.
    (clock.throughput_mbps(bits, elapsed) * 1000.0) as u64
}

/// One fleet session, built at admission: its id (its place in admission
/// order) and its work, advanced in epoch-sized budgets by the scheduler.
/// The work is boxed: it carries a whole forked engine or controller, and
/// sessions move by value into and out of every epoch's parallel map.
pub(crate) enum Session {
    Synthetic(u32, Box<SyntheticSession>),
    Trace(u32, Box<TraceSession>),
}

impl Session {
    pub(crate) fn id(&self) -> u32 {
        match self {
            Session::Synthetic(id, _) | Session::Trace(id, _) => *id,
        }
    }

    /// The session-kind label streamed in fleet events.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Session::Synthetic(..) => "synthetic",
            Session::Trace(..) => "trace",
        }
    }

    pub(crate) fn finished(&self) -> bool {
        match self {
            Session::Synthetic(_, s) => s.step >= s.steps,
            Session::Trace(_, t) => t.cursor >= t.prefix,
        }
    }

    /// Advances up to `budget` work units (transmission steps or trace
    /// events); stops early when the session finishes.
    pub(crate) fn advance(&mut self, budget: u32) {
        match self {
            Session::Synthetic(_, s) => {
                for _ in 0..budget.min(s.steps - s.step) {
                    s.step_once();
                }
            }
            Session::Trace(_, t) => t.advance(budget),
        }
    }

    pub(crate) fn report(&self) -> SessionReport {
        match self {
            Session::Synthetic(id, s) => s.report(*id),
            Session::Trace(id, t) => t.report(*id),
        }
    }
}

/// The deterministic result of one finished session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionReport {
    /// Session id: its place in admission order (reports merge in
    /// ascending id).
    pub id: u32,
    /// `"synthetic"` or `"trace"`.
    pub kind: &'static str,
    /// Installed defense name (`"-"` for trace sessions).
    pub defense: &'static str,
    /// Work units: transmission steps, or trace events replayed.
    pub steps: u64,
    /// Correctly decoded symbols (synthetic) or serviced responses
    /// (trace).
    pub hits: u64,
    /// Misdecoded symbols (synthetic; 0 for trace).
    pub errors: u64,
    /// Simulated cycles attributed to the session's accesses.
    pub elapsed: Cycles,
    /// Channel (or service) throughput in kb/s of simulated time.
    pub capacity_kbps: u64,
    /// Symbol error rate in basis points.
    pub error_rate_bp: u64,
    /// Latency inflation over the undefended baseline, basis points.
    pub slowdown_bp: u64,
    /// Per-session behavioral digest (probe outcomes or response folds).
    pub digest: u64,
}

impl SessionReport {
    /// Folds every field into an FNV-1a accumulator.
    #[must_use]
    pub fn fold_digest(&self, mut d: u64) -> u64 {
        d = fnv1a_u64(d, u64::from(self.id));
        d = fnv1a_u64(d, u64::from(self.kind == "trace"));
        d = impact_core::hash::fnv1a_bytes(d, self.defense.as_bytes());
        for v in [
            self.steps,
            self.hits,
            self.errors,
            self.elapsed.0,
            self.capacity_kbps,
            self.error_rate_bp,
            self.slowdown_bp,
            self.digest,
        ] {
            d = fnv1a_u64(d, v);
        }
        d
    }
}
