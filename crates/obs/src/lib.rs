//! `impact-obs`: deterministic-safe telemetry for the IMPACT workspace.
//!
//! The reproduction's core invariant is that every backend, thread count
//! and trace replay is *bit-identical* — which rules out keeping runtime
//! telemetry (wall-clock timings, scheduling decisions, pool utilization)
//! anywhere inside the replicated state machine. This crate is where such
//! signals live instead: a process-global registry of typed [`Counter`]s,
//! [`Gauge`]s and fixed-bucket [`Histogram`]s, plus [`SpanGuard`] timers,
//! all interior-mutable (relaxed atomics) and all **invisible to
//! deterministic state**:
//!
//! * nothing here is read back by simulation code — values flow one way,
//!   from instrumentation sites into [`snapshot`];
//! * engine forks never capture registry state (it is global, not a
//!   field of any forked struct);
//! * the host clock is only consulted by [`Histogram::span`], and only
//!   while [`enabled`] — with telemetry disabled (the default) no
//!   instrumented code path reads time at all.
//!
//! This crate is the one home of atomics and of `Instant::now` under
//! `crates/`: `crates/clippy.toml` disallows both, and the crate-level
//! `expect` below is their one exemption (`tests/lint_policy.rs` pins
//! the list of exemptions). Instrumented crates interact with it
//! exclusively through function calls
//! (`impact_obs::registry().engine_forks.incr()`), so no atomics or
//! clock tokens appear in deterministic source files.
//!
//! [`snapshot`] freezes the registry into a [`MetricsSnapshot`] whose
//! [`MetricsSnapshot::to_json`] encoding is canonical (names sorted,
//! fixed formatting) — the format `fig_all --metrics`, `trace_replay
//! replay --metrics` and `fleet_run --metrics` write.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the telemetry sinks: relaxed atomics, and the host clock read only while enabled"
)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Global switch for wall-clock collection. Value recording (counters,
/// gauges, histogram samples) is always on — a relaxed atomic add either
/// way — but [`Histogram::span`] only consults the host clock while this
/// is set, so a disabled process performs no time reads whatsoever.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns span timing on or off (process-wide). Off by default.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span timing is currently enabled.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A monotonically increasing event count.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter (`const`, so registries can be `static`).
    #[must_use]
    pub const fn new() -> Counter {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

impl Default for Counter {
    fn default() -> Counter {
        Counter::new()
    }
}

/// A last-write-wins instantaneous value (e.g. configured pool size).
#[derive(Debug)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A zeroed gauge.
    #[must_use]
    pub const fn new() -> Gauge {
        Gauge {
            value: AtomicU64::new(0),
        }
    }

    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

impl Default for Gauge {
    fn default() -> Gauge {
        Gauge::new()
    }
}

/// Bucket count of every [`Histogram`]: power-of-two bounds, bucket `i`
/// covering `[2^(i-1), 2^i)` (bucket 0 holds zeros, the last bucket ends
/// at `2^47` — comfortably above any latency in nanoseconds or batch size
/// this workspace produces). Larger samples are *not* folded into the top
/// bucket: they land in the histogram's explicit overflow count, so a
/// distribution that escaped the range is observable instead of
/// silently reported as a plausible-looking top-bucket value.
pub const BUCKETS: usize = 48;

/// The bucket a value lands in — its bit length — or `None` when the
/// value exceeds the bucketed range and must be counted as overflow.
#[must_use]
pub fn bucket_index(v: u64) -> Option<usize> {
    let bits = (64 - v.leading_zeros()) as usize;
    (bits < BUCKETS).then_some(bits)
}

/// Inclusive lower bound of bucket `i`.
#[must_use]
pub fn bucket_lower_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// A fixed-bucket size/latency distribution: power-of-two buckets plus an
/// exact count and sum.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    /// Samples whose bit length exceeds the bucketed range — counted
    /// here, never folded into the top bucket.
    overflow: AtomicU64,
}

impl Histogram {
    /// A zeroed histogram (`const`, so registries can be `static`).
    #[must_use]
    pub const fn new() -> Histogram {
        Histogram {
            // An inline-const element repeats a non-Copy zero in a const
            // array expression.
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            overflow: AtomicU64::new(0),
        }
    }

    /// Records one sample. Values beyond the bucketed range still count
    /// toward `count` and `sum` but are tallied as overflow.
    pub fn record(&self, v: u64) {
        match bucket_index(v) {
            Some(i) => self.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => self.overflow.fetch_add(1, Ordering::Relaxed),
        };
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Starts a wall-clock span whose elapsed nanoseconds are recorded
    /// into this histogram when the guard drops. While telemetry is
    /// disabled ([`set_enabled`]) the guard is inert and **no clock read
    /// happens at all** — this is the only `Instant::now` call site the
    /// workspace sanctions outside `crates/bench`.
    pub fn span(&self) -> SpanGuard<'_> {
        SpanGuard {
            hist: self,
            start: enabled().then(Instant::now),
        }
    }

    /// Freezes the current distribution.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| (bucket_lower_bound(i), n))
            })
            .collect();
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            overflow: self.overflow.load(Ordering::Relaxed),
            buckets,
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.overflow.store(0, Ordering::Relaxed);
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// Live timer returned by [`Histogram::span`]; records on drop.
#[must_use = "a span records its duration when dropped — bind it for the region's lifetime"]
#[derive(Debug)]
pub struct SpanGuard<'a> {
    hist: &'a Histogram,
    start: Option<Instant>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.hist.record(ns);
        }
    }
}

/// The workspace's metric registry: every telemetry sink, named here once
/// so [`snapshot`] and the JSON schema stay in lock-step with the
/// instrumentation sites.
#[derive(Debug, Default)]
pub struct Registry {
    /// `ctrl.batch.size` — requests per `service_batch` call.
    pub ctrl_batch_size: Histogram,
    /// `ctrl.segments.serial` — `service_batch` calls; each batch is
    /// served request by request in one loop.
    pub ctrl_serial_segments: Counter,
    /// `ctrl.segments.sparse` — always 0: no servicing tier records it.
    /// Kept in the registry and the export so readers of the name keep
    /// working.
    pub ctrl_sparse_segments: Counter,
    /// `ctrl.segments.dense` — always 0, like `ctrl.segments.sparse`.
    pub ctrl_dense_segments: Counter,
    /// `ctrl.cow.unshares` — copy-on-write write-backs that found their
    /// slab still shared with a fork and had to clone it.
    pub cow_unshares: Counter,
    /// `engine.forks` — copy-on-write engine forks.
    pub engine_forks: Counter,
    /// `sweep.experiment.wall_ns` — wall-clock per experiment job in
    /// `impact_bench::runner::run_all` (span; empty unless [`enabled`]).
    pub experiment_wall_ns: Histogram,
    /// `fleet.sessions.started` — sessions admitted by the fleet service.
    pub fleet_sessions_started: Counter,
    /// `fleet.sessions.finished` — sessions the fleet drove to completion.
    pub fleet_sessions_finished: Counter,
    /// `fleet.epochs` — epoch-scheduler rounds completed.
    pub fleet_epochs: Counter,
    /// `fleet.workers` — configured worker count of the latest fleet run.
    pub fleet_workers: Gauge,
    /// `fleet.epoch.wall_ns` — wall-clock per scheduler epoch (span;
    /// empty unless [`enabled`]).
    pub fleet_epoch_wall_ns: Histogram,
}

impl Registry {
    const fn new() -> Registry {
        Registry {
            ctrl_batch_size: Histogram::new(),
            ctrl_serial_segments: Counter::new(),
            ctrl_sparse_segments: Counter::new(),
            ctrl_dense_segments: Counter::new(),
            cow_unshares: Counter::new(),
            engine_forks: Counter::new(),
            experiment_wall_ns: Histogram::new(),
            fleet_sessions_started: Counter::new(),
            fleet_sessions_finished: Counter::new(),
            fleet_epochs: Counter::new(),
            fleet_workers: Gauge::new(),
            fleet_epoch_wall_ns: Histogram::new(),
        }
    }

    /// `(name, metric)` view of every counter, in name order.
    fn counters(&self) -> [(&'static str, &Counter); 8] {
        [
            ("ctrl.cow.unshares", &self.cow_unshares),
            ("ctrl.segments.dense", &self.ctrl_dense_segments),
            ("ctrl.segments.serial", &self.ctrl_serial_segments),
            ("ctrl.segments.sparse", &self.ctrl_sparse_segments),
            ("engine.forks", &self.engine_forks),
            ("fleet.epochs", &self.fleet_epochs),
            ("fleet.sessions.finished", &self.fleet_sessions_finished),
            ("fleet.sessions.started", &self.fleet_sessions_started),
        ]
    }

    fn gauges(&self) -> [(&'static str, &Gauge); 1] {
        [("fleet.workers", &self.fleet_workers)]
    }

    fn histograms(&self) -> [(&'static str, &Histogram); 3] {
        [
            ("ctrl.batch.size", &self.ctrl_batch_size),
            ("fleet.epoch.wall_ns", &self.fleet_epoch_wall_ns),
            ("sweep.experiment.wall_ns", &self.experiment_wall_ns),
        ]
    }
}

/// The process-global registry all instrumentation sites write to.
#[must_use]
pub fn registry() -> &'static Registry {
    static REGISTRY: Registry = Registry::new();
    &REGISTRY
}

/// Zeroes every metric (and leaves [`enabled`] untouched). `fleet_run`
/// uses this to scope its exported snapshot to one run.
pub fn reset() {
    let r = registry();
    for (_, c) in r.counters() {
        c.reset();
    }
    for (_, g) in r.gauges() {
        g.reset();
    }
    for (_, h) in r.histograms() {
        h.reset();
    }
}

/// Freezes the global registry into a [`MetricsSnapshot`].
#[must_use]
pub fn snapshot() -> MetricsSnapshot {
    let r = registry();
    let counters = r
        .counters()
        .iter()
        .map(|&(name, c)| (name, c.get()))
        .collect();
    let gauges = r.gauges().iter().map(|&(n, g)| (n, g.get())).collect();
    let histograms = r
        .histograms()
        .iter()
        .map(|&(n, h)| (n, h.snapshot()))
        .collect();
    MetricsSnapshot {
        counters,
        gauges,
        histograms,
    }
}

/// Frozen distribution of one [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded (bucketed and overflowed alike).
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: u64,
    /// Samples whose bit length exceeded the bucketed range. They count
    /// toward `count` and `sum` but appear in no bucket.
    pub overflow: u64,
    /// `(bucket lower bound, samples)` for every non-empty bucket, in
    /// ascending bound order.
    pub buckets: Vec<(u64, u64)>,
}

/// A frozen, name-sorted view of the registry. Produced by [`snapshot`];
/// serialized with [`MetricsSnapshot::to_json`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)`, sorted by name.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)`, sorted by name.
    pub gauges: Vec<(&'static str, u64)>,
    /// `(name, distribution)`, sorted by name.
    pub histograms: Vec<(&'static str, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Canonical JSON encoding: keys sorted (construction order is
    /// already sorted), two-space indentation, no trailing whitespace —
    /// two runs recording the same events serialize byte-identically.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        push_scalar_map(&mut out, &self.counters);
        out.push_str("},\n  \"gauges\": {");
        push_scalar_map(&mut out, &self.gauges);
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    \"");
            out.push_str(name);
            out.push_str(&format!(
                "\": {{\"count\": {}, \"sum\": {}, \"overflow\": {}, \"buckets\": [",
                h.count, h.sum, h.overflow
            ));
            for (j, (bound, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("[{bound}, {n}]"));
            }
            out.push_str("]}");
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

fn push_scalar_map(out: &mut String, entries: &[(&'static str, u64)]) {
    for (i, (name, v)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{name}\": {v}"));
    }
    if !entries.is_empty() {
        out.push_str("\n  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);

        let g = Gauge::new();
        g.set(7);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        assert_eq!(bucket_index(0), Some(0));
        assert_eq!(bucket_index(1), Some(1));
        assert_eq!(bucket_index(2), Some(2));
        assert_eq!(bucket_index(3), Some(2));
        assert_eq!(bucket_index(4), Some(3));
        for i in 1..BUCKETS {
            // The lower bound of bucket i lands in bucket i.
            assert_eq!(bucket_index(bucket_lower_bound(i)), Some(i));
        }

        let h = Histogram::new();
        for v in [0, 1, 2, 3, 900] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 906);
        assert_eq!(s.overflow, 0);
        assert_eq!(s.buckets, vec![(0, 1), (1, 1), (2, 2), (512, 1)]);
    }

    #[test]
    fn overflow_is_counted_not_folded() {
        // Boundary: the largest bucketed value is 2^47 - 1 (bit length
        // 47 = BUCKETS - 1); one more bit overflows.
        let top = bucket_lower_bound(BUCKETS - 1);
        assert_eq!(bucket_index(top), Some(BUCKETS - 1));
        assert_eq!(bucket_index(2 * top - 1), Some(BUCKETS - 1));
        assert_eq!(bucket_index(2 * top), None);
        assert_eq!(bucket_index(u64::MAX), None);

        let h = Histogram::new();
        h.record(top);
        h.record(2 * top - 1);
        h.record(2 * top);
        h.record(u64::MAX / 2);
        let s = h.snapshot();
        assert_eq!(s.count, 4, "overflowed samples still count");
        assert_eq!(s.overflow, 2);
        assert_eq!(
            s.buckets,
            vec![(top, 2)],
            "overflow never lands in the top bucket"
        );

        h.reset();
        let s = h.snapshot();
        assert_eq!((s.count, s.overflow), (0, 0), "reset clears overflow");
    }

    #[test]
    fn spans_are_inert_unless_enabled() {
        let h = Histogram::new();
        {
            let _off = h.span();
        }
        assert_eq!(h.snapshot().count, 0, "disabled span must not record");

        set_enabled(true);
        {
            let _on = h.span();
        }
        set_enabled(false);
        assert_eq!(h.snapshot().count, 1, "enabled span records once");
    }

    #[test]
    fn snapshot_json_is_canonical() {
        let snap = MetricsSnapshot {
            counters: vec![("a.one", 1), ("b.two", 2)],
            gauges: vec![("g", 3)],
            histograms: vec![(
                "h",
                HistogramSnapshot {
                    count: 2,
                    sum: 12,
                    overflow: 1,
                    buckets: vec![(4, 2)],
                },
            )],
        };
        let json = snap.to_json();
        assert_eq!(
            json,
            "{\n  \"counters\": {\n    \"a.one\": 1,\n    \"b.two\": 2\n  },\n  \
             \"gauges\": {\n    \"g\": 3\n  },\n  \
             \"histograms\": {\n    \"h\": {\"count\": 2, \"sum\": 12, \"overflow\": 1, \"buckets\": [[4, 2]]}\n  }\n}\n"
        );
        // Identical snapshots serialize byte-identically.
        assert_eq!(json, snap.clone().to_json());
        // The empty snapshot is still well-formed JSON.
        let empty = MetricsSnapshot {
            counters: vec![],
            gauges: vec![],
            histograms: vec![],
        };
        assert_eq!(
            empty.to_json(),
            "{\n  \"counters\": {},\n  \"gauges\": {},\n  \"histograms\": {}\n}\n"
        );
    }

    #[test]
    fn global_registry_snapshot_is_sorted_and_complete() {
        let snap = snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|&(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "counter names must be sorted");
        assert!(names.contains(&"ctrl.segments.dense"));
        assert!(names.contains(&"engine.forks"));
        assert!(names.contains(&"fleet.sessions.finished"));
        assert_eq!(snap.gauges.len(), 1);
        assert_eq!(snap.histograms.len(), 3);
    }
}
