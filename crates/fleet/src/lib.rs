//! Fleet-scale session service: multiplexes thousands of independent,
//! deterministic engine sessions over an epoch scheduler.
//!
//! The paper's harness evaluates one attacker/victim pair at a time; the
//! fleet turns that into population-level distributions. A
//! [`FleetService`] owns a population of sessions — synthetic
//! attacker/victim pairs drawn from a seeded configuration distribution
//! (defense, probe-bank count, co-tenant noise), or recorded-trace
//! prefixes replayed through the PR 4 codec — and drives them to
//! completion in epochs: each epoch every unfinished session advances by
//! a fixed step budget on up to `workers` threads, and results merge back
//! in **stable session-id order, never completion order**.
//!
//! # Determinism contract
//!
//! A session's id is its place in admission order, and each session is
//! built when it is admitted. The aggregate output ([`PopulationReport`],
//! its canonical JSON and its FNV-1a digest) is bit-identical
//!
//! * at any worker count (sessions are independent, and
//!   [`ordered_map`] returns them in submission order), and
//! * across runs of the same seed and admissions (every random draw
//!   flows from `SimRng` streams keyed by the fleet seed and session
//!   id).
//!
//! Per-session setup is O(metadata): one synthetic parent is built and
//! calibrated, and one pristine controller per trace admission, then
//! every session forks one ([`impact_sim::Engine::fork`]). All fleet
//! telemetry routes through `impact-obs` (`fleet.*` metrics) and is
//! excluded from the determinism contract. Each epoch is one
//! [`ordered_map`] call, the workspace's one parallel primitive; this
//! crate spawns no threads of its own.
//!
//! ```
//! use impact_fleet::{FleetConfig, FleetService};
//!
//! let mut fleet = FleetService::new(FleetConfig::quick(7));
//! fleet.admit_synthetic(8);
//! let report = fleet.run(&mut |_event| {});
//! assert_eq!(report.finished(), 8);
//! ```

mod histogram;
mod session;

pub use histogram::PopHistogram;
pub use session::{SessionReport, SyntheticSpec, MAX_PROBE_BANKS};

use std::sync::Arc;

use impact_core::config::SystemConfig;
use impact_core::error::Result;
use impact_core::hash::{fnv1a_u64, FNV_OFFSET};
use impact_core::par::ordered_map;
use impact_memctrl::MemoryController;
use impact_sim::System;
use impact_workloads::CapturedTrace;

use session::{warm_parent, Session, SyntheticSession, TraceSession, WarmSlots};

/// Fleet-wide configuration. `workers` tunes wall-clock only; it never
/// appears in the report and cannot influence its bytes.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Root seed: specs, secrets and noise all derive from it.
    pub seed: u64,
    /// Scheduler threads (1 = inline, no threads spawned).
    pub workers: usize,
    /// Work units (transmission steps / trace events) per session per
    /// epoch. Batching only — per-session results are budget-invariant.
    pub epoch_budget: u32,
    /// Minimum symbols a synthetic session transmits.
    pub min_steps: u32,
    /// Maximum symbols a synthetic session transmits (exclusive).
    pub max_steps: u32,
}

impl FleetConfig {
    /// Full-depth defaults: 24–72 symbols per synthetic session. Synthetic
    /// sessions run on the noiseless Table 2 machine
    /// (`SystemConfig::paper_table2_noiseless`).
    #[must_use]
    pub fn new(seed: u64) -> FleetConfig {
        FleetConfig {
            seed,
            workers: 1,
            epoch_budget: 16,
            min_steps: 24,
            max_steps: 72,
        }
    }

    /// Smoke-test depth: 8–24 symbols per session, smaller epochs. Same
    /// population shape, cheaper sessions.
    #[must_use]
    pub fn quick(seed: u64) -> FleetConfig {
        FleetConfig {
            epoch_budget: 8,
            min_steps: 8,
            max_steps: 24,
            ..FleetConfig::new(seed)
        }
    }

    /// Returns the config with `workers` scheduler threads.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> FleetConfig {
        self.workers = workers;
        self
    }
}

/// Incremental progress events, streamed in deterministic order: all
/// `SessionStarted` in ascending id, then per epoch any `SessionFinished`
/// (ascending id within the epoch) followed by one `EpochComplete`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetEvent {
    /// [`FleetService::run`] starts an admitted session (built when it
    /// was admitted); every one is announced before the first epoch.
    SessionStarted {
        /// Stable session id.
        id: u32,
        /// `"synthetic"` or `"trace"`.
        kind: &'static str,
    },
    /// One scheduler epoch finished merging.
    EpochComplete {
        /// 1-based epoch number.
        epoch: u64,
        /// Sessions still unfinished after this epoch.
        active: usize,
        /// Sessions finished so far, in total.
        finished: usize,
    },
    /// A session completed all of its work.
    SessionFinished {
        /// Stable session id.
        id: u32,
        /// Work units the session performed in total.
        steps: u64,
    },
}

/// The session service: admit a population, then [`FleetService::run`]
/// it to completion. See the crate docs for the determinism contract.
pub struct FleetService {
    cfg: FleetConfig,
    /// The calibrated synthetic parent, built on the first synthetic
    /// admission.
    synthetic_parent: Option<(System, Arc<WarmSlots>)>,
    /// Built sessions; each one's id is its index.
    sessions: Vec<Session>,
}

impl FleetService {
    /// An empty fleet under `cfg`.
    #[must_use]
    pub fn new(cfg: FleetConfig) -> FleetService {
        FleetService {
            cfg,
            synthetic_parent: None,
            sessions: Vec::new(),
        }
    }

    /// Admits `n` synthetic attacker/victim sessions, each a fork of the
    /// calibrated synthetic parent with its spec's defense installed. Each
    /// spec is a pure function of (fleet seed, session id), so admitting
    /// 1000 in one call or over many calls yields the same population.
    pub fn admit_synthetic(&mut self, n: usize) {
        for _ in 0..n {
            let (parent, warm) = self.synthetic_parent.get_or_insert_with(warm_parent);
            let id = u32::try_from(self.sessions.len()).expect("session ids fit a u32");
            let spec =
                SyntheticSpec::draw(self.cfg.seed, id, self.cfg.min_steps, self.cfg.max_steps);
            let session = SyntheticSession::new(parent, Arc::clone(warm), spec);
            self.sessions
                .push(Session::Synthetic(id, Box::new(session)));
        }
    }

    /// Admits `n` trace-replay sessions over a shared recorded trace:
    /// session `i` of the batch replays the first `(i+1)/n` of the
    /// event log under `sys` (the recording's resolved configuration —
    /// resolve the header label with `config_for_label` or equivalent).
    /// Every session of the batch forks one pristine
    /// `MemoryController::from_config(sys)`.
    ///
    /// The capture must pass [`CapturedTrace::verify`] first: its full
    /// replay on such a pristine controller reproduces the recorded
    /// footer, so no session's prefix replay can fail later.
    ///
    /// # Errors
    ///
    /// As for [`CapturedTrace::verify`]: a configuration mismatch, the
    /// first error a recorded event raises when serviced, or a footer
    /// the events do not reproduce. Nothing is admitted on error.
    pub fn admit_trace(
        &mut self,
        trace: &Arc<CapturedTrace>,
        sys: &SystemConfig,
        n: usize,
    ) -> Result<()> {
        trace.verify(sys)?;
        let mut parent = MemoryController::from_config(sys);
        let events = trace.events.len();
        for i in 0..n {
            let id = u32::try_from(self.sessions.len()).expect("session ids fit a u32");
            let prefix = ((events * (i + 1)) / n.max(1)).max(1);
            let session = TraceSession::new(&mut parent, Arc::clone(trace), sys.clock, prefix);
            self.sessions.push(Session::Trace(id, Box::new(session)));
        }
        Ok(())
    }

    /// Sessions admitted so far.
    #[must_use]
    pub fn admitted(&self) -> usize {
        self.sessions.len()
    }

    /// Drives the admitted sessions to completion, streaming
    /// [`FleetEvent`]s.
    ///
    /// # Panics
    ///
    /// Re-throws the first panicking session's payload.
    pub fn run(self, on_event: &mut dyn FnMut(&FleetEvent)) -> PopulationReport {
        let obs = impact_obs::registry();
        for sess in &self.sessions {
            obs.fleet_sessions_started.incr();
            on_event(&FleetEvent::SessionStarted {
                id: sess.id(),
                kind: sess.kind(),
            });
        }

        obs.fleet_workers.set(self.cfg.workers as u64);
        let mut active = self.sessions;
        let mut epoch = 0u64;
        let mut finished: Vec<SessionReport> = Vec::new();
        while !active.is_empty() {
            let advanced = {
                let _span = obs.fleet_epoch_wall_ns.span();
                ordered_map(active, self.cfg.workers, |mut sess| {
                    sess.advance(self.cfg.epoch_budget);
                    sess
                })
            };
            epoch += 1;
            obs.fleet_epochs.incr();
            active = Vec::with_capacity(advanced.len());
            for sess in advanced {
                if sess.finished() {
                    let report = sess.report();
                    obs.fleet_sessions_finished.incr();
                    on_event(&FleetEvent::SessionFinished {
                        id: report.id,
                        steps: report.steps,
                    });
                    finished.push(report);
                } else {
                    active.push(sess);
                }
            }
            on_event(&FleetEvent::EpochComplete {
                epoch,
                active: active.len(),
                finished: finished.len(),
            });
        }
        finished.sort_unstable_by_key(|r| r.id);

        PopulationReport::aggregate(self.cfg.seed, self.cfg.epoch_budget, epoch, finished)
    }
}

/// The deterministic aggregate of one fleet run: per-session reports in
/// id order, population histograms, and an FNV-1a digest over all of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PopulationReport {
    /// Fleet seed the population derives from.
    pub seed: u64,
    /// Epoch step budget the run used.
    pub epoch_budget: u32,
    /// Synthetic sessions driven to completion.
    pub synthetic: u64,
    /// Trace sessions driven to completion.
    pub traced: u64,
    /// Scheduler epochs the run took.
    pub epochs: u64,
    /// Per-session results, ascending id.
    pub reports: Vec<SessionReport>,
    /// Channel-capacity distribution (kb/s of simulated time).
    pub capacity_kbps: PopHistogram,
    /// Symbol-error-rate distribution (basis points).
    pub error_rate_bp: PopHistogram,
    /// Slowdown-over-baseline distribution (basis points).
    pub slowdown_bp: PopHistogram,
    /// FNV-1a digest over every field above, the population fingerprint
    /// CI byte-compares across worker counts.
    pub digest: u64,
}

impl PopulationReport {
    fn aggregate(
        seed: u64,
        epoch_budget: u32,
        epochs: u64,
        reports: Vec<SessionReport>,
    ) -> PopulationReport {
        let traced = reports.iter().filter(|r| r.kind == "trace").count() as u64;
        let synthetic = reports.len() as u64 - traced;
        let mut capacity_kbps = PopHistogram::default();
        let mut error_rate_bp = PopHistogram::default();
        let mut slowdown_bp = PopHistogram::default();
        let mut digest = FNV_OFFSET;
        for v in [seed, u64::from(epoch_budget), synthetic, traced, epochs] {
            digest = fnv1a_u64(digest, v);
        }
        for r in &reports {
            capacity_kbps.record(r.capacity_kbps);
            error_rate_bp.record(r.error_rate_bp);
            slowdown_bp.record(r.slowdown_bp);
            digest = r.fold_digest(digest);
        }
        digest = capacity_kbps.fold_digest(digest);
        digest = error_rate_bp.fold_digest(digest);
        digest = slowdown_bp.fold_digest(digest);
        PopulationReport {
            seed,
            epoch_budget,
            synthetic,
            traced,
            epochs,
            reports,
            capacity_kbps,
            error_rate_bp,
            slowdown_bp,
            digest,
        }
    }

    /// Sessions driven to completion.
    #[must_use]
    pub fn finished(&self) -> usize {
        self.reports.len()
    }

    /// Canonical JSON: keys in fixed (alphabetical) order, no
    /// wall-clock, no worker count — byte-identical for identical
    /// populations, whatever machine or parallelism produced them.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"capacity_kbps\": {},\n",
            self.capacity_kbps.to_json()
        ));
        out.push_str(&format!("  \"digest\": \"{:#018x}\",\n", self.digest));
        out.push_str(&format!(
            "  \"error_rate_bp\": {},\n",
            self.error_rate_bp.to_json()
        ));
        out.push_str(&format!(
            "  \"fleet\": {{\"epoch_budget\": {}, \"epochs\": {}, \"seed\": {}, \"sessions_synthetic\": {}, \"sessions_trace\": {}}},\n",
            self.epoch_budget, self.epochs, self.seed, self.synthetic, self.traced
        ));
        out.push_str(&format!(
            "  \"slowdown_bp\": {}\n",
            self.slowdown_bp.to_json()
        ));
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impact_core::addr::PhysAddr;
    use impact_core::engine::{MemRequest, MemoryBackend, ReqKind};
    use impact_core::rng::SimRng;
    use impact_core::time::Cycles;
    use impact_core::trace::{TraceEvent, TraceHeader, TraceWriter, TracingBackend};

    fn quick_cfg(workers: usize) -> FleetConfig {
        let mut cfg = FleetConfig::quick(0xF1EE7);
        cfg.workers = workers;
        cfg.epoch_budget = 4;
        cfg.min_steps = 4;
        cfg.max_steps = 10;
        cfg
    }

    /// Forty random loads recorded through the tracing proxy, so the
    /// footer is the one their replay reproduces.
    fn tiny_trace() -> Arc<CapturedTrace> {
        let sys = SystemConfig::paper_table2_noiseless();
        let capacity = sys.dram_geometry.capacity_bytes();
        let header = TraceHeader::for_config(&sys, "paper_table2_noiseless", 0xACE);
        let writer = TraceWriter::new(Vec::new(), &header).unwrap();
        let mut traced = TracingBackend::new(MemoryController::from_config(&sys), writer).unwrap();
        let mut rng = SimRng::seed(0xACE);
        for i in 0..40 {
            let req = MemRequest {
                addr: PhysAddr(rng.below(capacity)),
                kind: ReqKind::Load,
                at: Cycles(i * 10),
                actor: 0,
            };
            traced.service(&req).unwrap();
        }
        let (_, _, bytes) = traced.finish().unwrap();
        Arc::new(CapturedTrace::read_from(&bytes[..]).unwrap())
    }

    fn run_fleet(workers: usize) -> (PopulationReport, Vec<FleetEvent>) {
        let mut fleet = FleetService::new(quick_cfg(workers));
        fleet.admit_synthetic(10);
        let trace = tiny_trace();
        fleet
            .admit_trace(&trace, &SystemConfig::paper_table2_noiseless(), 4)
            .expect("tiny_trace replays");
        let mut events = Vec::new();
        let report = fleet.run(&mut |ev| events.push(ev.clone()));
        (report, events)
    }

    #[test]
    fn population_is_worker_invariant() {
        let (base, base_events) = run_fleet(1);
        for workers in [2, 4] {
            let (other, other_events) = run_fleet(workers);
            assert_eq!(base, other, "workers={workers}");
            assert_eq!(base.to_json(), other.to_json());
            assert_eq!(base_events, other_events);
        }
    }

    #[test]
    fn events_stream_in_stable_order() {
        let (report, events) = run_fleet(3);
        let started: Vec<u32> = events
            .iter()
            .filter_map(|ev| match ev {
                FleetEvent::SessionStarted { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(started, (0..14).collect::<Vec<u32>>());
        let finished: Vec<u32> = events
            .iter()
            .filter_map(|ev| match ev {
                FleetEvent::SessionFinished { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(finished.len(), 14);
        assert_eq!(report.finished(), 14);
        match events.last() {
            Some(FleetEvent::EpochComplete {
                active: 0,
                finished: 14,
                ..
            }) => {}
            other => panic!("run must end on a final EpochComplete, got {other:?}"),
        }
    }

    #[test]
    fn unreplayable_traces_are_rejected_at_admission() {
        let mut out_of_range = (*tiny_trace()).clone();
        out_of_range.events.push(TraceEvent::Request(MemRequest {
            addr: PhysAddr(u64::MAX),
            kind: ReqKind::Load,
            at: Cycles(400),
            actor: 0,
        }));
        let mut fleet = FleetService::new(quick_cfg(2));
        fleet.admit_synthetic(2);
        let noiseless = SystemConfig::paper_table2_noiseless();
        assert!(matches!(
            fleet.admit_trace(&Arc::new(out_of_range), &noiseless, 4),
            Err(impact_core::Error::AddressOutOfRange { .. })
        ));
        let mut bad_bank = (*tiny_trace()).clone();
        bad_bank.events.insert(
            0,
            TraceEvent::Inject {
                bank: 16,
                row: 0,
                at: Cycles(0),
                actor: 0,
            },
        );
        assert!(matches!(
            fleet.admit_trace(&Arc::new(bad_bank), &noiseless, 4),
            Err(impact_core::Error::TraceFormat(msg))
                if msg == "inject event targets bank 16 of a 16-bank device"
        ));
        // An arrival time past the replay horizon is a format error, not
        // an overflow in the bank's timing arithmetic.
        let mut far_future = (*tiny_trace()).clone();
        far_future.events.push(TraceEvent::Request(MemRequest {
            addr: PhysAddr(0),
            kind: ReqKind::Load,
            at: Cycles(u64::MAX),
            actor: 0,
        }));
        assert!(matches!(
            fleet.admit_trace(&Arc::new(far_future), &noiseless, 4),
            Err(impact_core::Error::TraceFormat(msg)) if msg.contains("replay horizon")
        ));
        // A RowClone whose source or destination lanes run past the end of
        // the address space is out of range (the bases are row-aligned, so
        // the request-level checks pass and the lane check catches it).
        for (src, dst) in [(u64::MAX - 8191, 0), (0, u64::MAX - 8191)] {
            let mut wrapping = (*tiny_trace()).clone();
            wrapping
                .events
                .push(TraceEvent::Request(MemRequest::rowclone(
                    PhysAddr(src),
                    PhysAddr(dst),
                    0b10,
                    Cycles(400),
                    0,
                )));
            assert!(matches!(
                fleet.admit_trace(&Arc::new(wrapping), &noiseless, 4),
                Err(impact_core::Error::AddressOutOfRange { addr, .. }) if addr == u64::MAX - 8191
            ));
        }
        assert!(matches!(
            fleet.admit_trace(&tiny_trace(), &SystemConfig::paper_table2(), 4),
            Err(impact_core::Error::TraceConfigMismatch { .. })
        ));
        // Events that replay cleanly but do not reproduce the footer.
        let mut lying = (*tiny_trace()).clone();
        lying.summary.response_digest ^= 1;
        assert!(matches!(
            fleet.admit_trace(&Arc::new(lying), &noiseless, 4),
            Err(impact_core::Error::TraceFormat(msg))
                if msg.contains("does not reproduce its own footer")
        ));
        assert_eq!(fleet.admitted(), 2, "a rejected trace admits nothing");
        assert_eq!(fleet.run(&mut |_| {}).finished(), 2);
    }

    #[test]
    fn specs_are_a_pure_function_of_seed_and_id() {
        let a = SyntheticSpec::draw(7, 3, 8, 24);
        let b = SyntheticSpec::draw(7, 3, 8, 24);
        assert_eq!(a, b);
        assert_ne!(a, SyntheticSpec::draw(7, 4, 8, 24));
        assert_ne!(a, SyntheticSpec::draw(8, 3, 8, 24));
        assert!((8..24).contains(&a.steps));
    }

    #[test]
    fn defended_sessions_leak_less_than_baseline() {
        // Population-level sanity: CTD closes the channel (every probe
        // reads as a conflict), the baseline leaks.
        let mut fleet = FleetService::new(quick_cfg(2));
        fleet.admit_synthetic(24);
        let report = fleet.run(&mut |_| {});
        let baseline_hits: u64 = report
            .reports
            .iter()
            .filter(|r| r.defense == "None")
            .map(|r| r.hits)
            .sum();
        let ctd_hits: u64 = report
            .reports
            .iter()
            .filter(|r| r.defense == "CTD")
            .map(|r| r.hits)
            .sum();
        assert!(baseline_hits > 0, "undefended sessions must decode symbols");
        assert_eq!(ctd_hits, 0, "constant-time DRAM must close the channel");
    }

    #[test]
    fn different_seeds_produce_different_populations() {
        let mut a = FleetService::new(quick_cfg(1));
        a.admit_synthetic(6);
        let mut b = FleetService::new(FleetConfig {
            seed: 0xDEAD,
            ..quick_cfg(1)
        });
        b.admit_synthetic(6);
        let ra = a.run(&mut |_| {});
        let rb = b.run(&mut |_| {});
        assert_ne!(ra.digest, rb.digest);
    }
}
