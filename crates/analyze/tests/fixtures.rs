//! Fixture-based tests for the analyzer: one good + one bad snippet per
//! rule R1–R7 (exact diagnostics asserted).
//!
//! The fixture files live under `tests/fixtures/` — a directory the
//! workspace walker deliberately skips, because these files exist to
//! *contain* violations.

use std::path::Path;

use impact_analyze::{classify, rules, Diagnostic};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

/// Runs layer 1 over a fixture as if it lived at `rel_path` in the
/// workspace, so the fixture inherits that path's real classification.
fn check_at(rel_path: &str, name: &str) -> Vec<Diagnostic> {
    rules::check_source(&classify(rel_path), &fixture(name))
}

fn lines_of(diags: &[Diagnostic], rule: &str) -> Vec<u32> {
    diags
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.line)
        .collect()
}

#[test]
fn r1_good_is_clean() {
    let d = check_at("crates/sim/src/fixture.rs", "r1_unordered_iter_good.rs");
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn r1_bad_flags_construction_iteration_and_for_loop() {
    let d = check_at("crates/sim/src/fixture.rs", "r1_unordered_iter_bad.rs");
    assert_eq!(lines_of(&d, "unordered-iter"), vec![10, 17, 21], "{d:?}");
    assert_eq!(d.len(), 3);
    assert!(d[0].message.contains("default randomized hasher"));
    assert!(d[1].message.contains("`per_bank`"));
}

#[test]
fn r1_is_scoped_to_deterministic_crates() {
    // The same violations in crates/bench are not R1 findings.
    let d = check_at("crates/bench/src/fixture.rs", "r1_unordered_iter_bad.rs");
    assert!(lines_of(&d, "unordered-iter").is_empty(), "{d:?}");
}

#[test]
fn r2_good_is_clean() {
    let d = check_at("crates/sim/src/fixture.rs", "r2_wall_clock_good.rs");
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn r2_bad_flags_every_host_read() {
    let d = check_at("crates/sim/src/fixture.rs", "r2_wall_clock_bad.rs");
    // The `use` naming SystemTime, Instant::now, SystemTime::now, env::var.
    assert_eq!(lines_of(&d, "wall-clock"), vec![2, 5, 6, 7], "{d:?}");
    assert_eq!(d.len(), 4);
}

#[test]
fn r2_is_exempt_in_bench_and_tests() {
    let bench = check_at("crates/bench/src/fixture.rs", "r2_wall_clock_bad.rs");
    assert!(bench.is_empty(), "{bench:?}");
    let test = check_at("tests/fixture.rs", "r2_wall_clock_bad.rs");
    assert!(test.is_empty(), "{test:?}");
}

#[test]
fn r3_good_is_clean() {
    let d = check_at("crates/sim/src/fixture.rs", "r3_concurrency_good.rs");
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn r3_bad_flags_threads_and_shared_state() {
    let d = check_at("crates/sim/src/fixture.rs", "r3_concurrency_bad.rs");
    // AtomicUsize + Mutex imports, Mutex::new, AtomicUsize::new,
    // thread::spawn.
    assert_eq!(lines_of(&d, "concurrency"), vec![3, 4, 8, 9, 10], "{d:?}");
    assert_eq!(d.len(), 5);
    assert!(d.iter().any(|d| d.message.contains("thread::spawn")));
}

/// A stale entry would silently sanction whatever file is later created
/// at that path, so every sanctioned site must exist.
#[test]
fn sanctioned_concurrency_sites_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for site in impact_analyze::SANCTIONED_CONCURRENCY {
        assert!(
            root.join(site).is_file(),
            "{site} is sanctioned but missing"
        );
    }
}

#[test]
fn r3_is_exempt_at_the_sanctioned_sites() {
    for site in impact_analyze::SANCTIONED_CONCURRENCY {
        let d = rules::check_source(&classify(site), &fixture("r3_concurrency_bad.rs"));
        assert!(
            lines_of(&d, "concurrency").is_empty(),
            "{site} should be sanctioned: {d:?}"
        );
    }
}

#[test]
fn r4_good_is_clean() {
    let d = check_at("crates/dram/src/fixture.rs", "r4_lossy_cast_good.rs");
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn r4_bad_flags_each_narrowing_cast() {
    let d = check_at("crates/dram/src/fixture.rs", "r4_lossy_cast_bad.rs");
    assert_eq!(lines_of(&d, "lossy-cast"), vec![3, 7, 11], "{d:?}");
    assert_eq!(d.len(), 3);
}

#[test]
fn r4_is_scoped_to_dram_and_memctrl() {
    let d = check_at("crates/sim/src/fixture.rs", "r4_lossy_cast_bad.rs");
    assert!(lines_of(&d, "lossy-cast").is_empty(), "{d:?}");
    let d = check_at("crates/memctrl/src/fixture.rs", "r4_lossy_cast_bad.rs");
    assert_eq!(lines_of(&d, "lossy-cast").len(), 3, "{d:?}");
}

#[test]
fn r5_good_is_clean() {
    let d = check_at("crates/sim/src/fixture.rs", "r5_unsafe_good.rs");
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn r5_bad_flags_unsafe_even_in_tests() {
    let d = check_at("crates/sim/src/fixture.rs", "r5_unsafe_bad.rs");
    assert_eq!(lines_of(&d, "unsafe-code"), vec![3, 11], "{d:?}");
    assert_eq!(d.len(), 2);
    // Unlike R2/R3, a test-only path does not exempt R5.
    let d = check_at("tests/fixture.rs", "r5_unsafe_bad.rs");
    assert_eq!(lines_of(&d, "unsafe-code"), vec![3, 11], "{d:?}");
}

#[test]
fn r6_good_is_clean() {
    let d = check_at("crates/sim/src/fixture.rs", "r6_cow_aliasing_good.rs");
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn r6_bad_flags_every_unshare_op() {
    let d = check_at("crates/sim/src/fixture.rs", "r6_cow_aliasing_bad.rs");
    // make_mut, both unwrap_or_clone calls (one line), get_mut,
    // try_unwrap; the test module's unshares are exempt.
    assert_eq!(
        lines_of(&d, "cow-aliasing"),
        vec![7, 11, 11, 15, 19],
        "{d:?}"
    );
    assert_eq!(d.len(), 5);
    assert!(d[1].message.contains("`Arc::unwrap_or_clone`"), "{d:?}");
    assert!(d[2].message.contains("`Rc::unwrap_or_clone`"), "{d:?}");
}

#[test]
fn r6_is_scoped_to_deterministic_crates() {
    let d = check_at("crates/bench/src/fixture.rs", "r6_cow_aliasing_bad.rs");
    assert!(lines_of(&d, "cow-aliasing").is_empty(), "{d:?}");
}

#[test]
fn r7_good_is_clean_everywhere() {
    for path in [
        "crates/analyze/src/fixture.rs",
        "crates/core/src/par.rs",
        "crates/sim/src/fixture.rs",
    ] {
        let d = check_at(path, "r7_metrics_good.rs");
        assert!(d.is_empty(), "{path}: {d:?}");
    }
}

#[test]
fn r7_bad_flags_clocks_where_r2_is_exempt() {
    // A clock-exempt crate escapes R2; R7 still demands the obs sinks for
    // the `SystemTime` import and both clock reads.
    let d = check_at("crates/analyze/src/fixture.rs", "r7_metrics_bad.rs");
    assert_eq!(lines_of(&d, "metrics-placement"), vec![6, 13, 14], "{d:?}");
    assert!(lines_of(&d, "wall-clock").is_empty(), "{d:?}");
}

#[test]
fn r7_bad_flags_atomics_where_r3_is_sanctioned() {
    // `core::par` escapes R3; R7 flags the `AtomicU64` import and field
    // (the clock reads there belong to R2, not R7 — no overlap).
    let d = check_at("crates/core/src/par.rs", "r7_metrics_bad.rs");
    assert_eq!(lines_of(&d, "metrics-placement"), vec![5, 9], "{d:?}");
    assert_eq!(lines_of(&d, "wall-clock"), vec![6, 13, 14], "{d:?}");
    assert!(lines_of(&d, "concurrency").is_empty(), "{d:?}");
}

#[test]
fn r7_is_silent_in_the_sinks_themselves() {
    for path in ["crates/obs/src/lib.rs", "crates/bench/src/fixture.rs"] {
        let d = check_at(path, "r7_metrics_bad.rs");
        assert!(
            lines_of(&d, "metrics-placement").is_empty(),
            "{path}: {d:?}"
        );
    }
}

#[test]
fn diagnostics_render_as_file_line_rule_message() {
    let d = check_at("crates/dram/src/fixture.rs", "r4_lossy_cast_bad.rs");
    let rendered = d[0].to_string();
    assert!(
        rendered.starts_with("crates/dram/src/fixture.rs:3: lossy-cast: "),
        "{rendered}"
    );
}
