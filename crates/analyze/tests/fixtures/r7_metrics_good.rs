//! R7-clean: telemetry routed through the obs registry. No wall-clock
//! reads, no ad-hoc atomics — the sinks own both, and a span timer covers
//! the timing need.
fn time_a_phase(work: impl FnOnce()) {
    let _span = impact_obs::registry().fleet_epoch_wall_ns.span();
    impact_obs::registry().fleet_epochs.incr();
    work();
}
