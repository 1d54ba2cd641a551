//! The workspace's one parallel primitive, and with the `impact-obs`
//! telemetry sinks its only sanctioned concurrency site (the
//! `#[expect(clippy::disallowed_*)]` inventory in `tests/lint_policy.rs`).
//!
//! Host threads only ever fan out independent units of work — whole
//! experiments, the points of the paper's sweeps (Fig. 9, Fig. 11,
//! Fig. 12, the ablations, the §8.4 bank study), fleet sessions — so
//! [`ordered_map`] is all the concurrency the simulator needs: results
//! come back in item order, never completion order, which makes the
//! worker count unobservable whenever `f` is a pure function of its item.
//! The caller works too: a map over `workers` threads spawns
//! `workers − 1` of them, and one over a single item or a single worker
//! spawns none.
//!
//! ```
//! use impact_core::par::ordered_map;
//!
//! let squares = ordered_map((0..10u64).collect(), 4, |x| x * x);
//! assert_eq!(squares, (0..10u64).map(|x| x * x).collect::<Vec<_>>());
//! ```

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::thread;

/// The host's available parallelism (1 when it cannot be queried).
#[must_use]
pub fn available_workers() -> usize {
    thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Applies `f` to every item on up to `workers` threads and returns the
/// results in item order.
///
/// The calling thread is one of the workers: it spawns
/// `min(workers, n) − 1` scoped threads for `n` items and runs the same
/// claim loop as they do, instead of idling until they finish.
/// Workers claim contiguous chunks of `n / (8 · workers)` items from a
/// shared queue and run each chunk in order, so a run takes about eight
/// claims per worker and uneven chunk costs still balance out. Neighbouring
/// items then mostly run on one thread, so two workers rarely write
/// neighbouring items' memory at the same time. Calls with fewer than
/// `16 · workers` items claim one item at a time. With `workers <= 1` or
/// at most one item, `f` runs inline on the calling thread and no thread
/// is spawned; on a host with one available CPU, `available_workers()`
/// returns 1, so every caller that passes it runs inline.
///
/// # Panics
///
/// Every item runs under `catch_unwind`. Once all items have finished,
/// the payload of the lowest-index panicking item is re-thrown — the
/// same panic the inline path raises.
#[expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the workspace's one worker pool: a Mutex-guarded queue on scoped threads"
)]
pub fn ordered_map<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if workers <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    // More workers than items already meant one item per claim; clamping
    // keeps `16 * workers` from overflowing on a huge request.
    let workers = workers.min(n);
    let chunk = if n < 16 * workers {
        1
    } else {
        n / (8 * workers)
    };
    let queue = std::sync::Mutex::new(items.into_iter().enumerate());
    // One worker's claim loop: the spawned threads and the caller run it.
    let work = || {
        let mut done = Vec::new();
        let mut claim = Vec::with_capacity(chunk);
        loop {
            // The lock guards only the claim, which cannot panic.
            claim.extend(
                queue
                    .lock()
                    .expect("queue lock never poisoned")
                    .by_ref()
                    .take(chunk),
            );
            if claim.is_empty() {
                break;
            }
            for (i, item) in claim.drain(..) {
                done.push((i, catch_unwind(AssertUnwindSafe(|| f(item)))));
            }
        }
        done
    };
    let mut slots: Vec<Option<thread::Result<R>>> = (0..n).map(|_| None).collect();
    thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let own = work();
        let spawned = handles
            .into_iter()
            .map(|handle| handle.join().expect("item panics are caught"));
        for (i, outcome) in std::iter::once(own).chain(spawned).flatten() {
            slots[i] = Some(outcome);
        }
    });
    let mut out = Vec::with_capacity(n);
    for slot in slots {
        match slot.expect("every item was claimed") {
            Ok(r) => out.push(r),
            Err(payload) => resume_unwind(payload),
        }
    }
    out
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the tests hold items back on a channel and record them under a Mutex"
)]
mod tests {
    use std::sync::Mutex;

    use super::*;

    /// Busy work whose cost varies by item, so workers finish out of order.
    fn uneven(i: u64) -> u64 {
        for k in 0..(i * 7919) % 13 * 2000 {
            std::hint::black_box(k);
        }
        i * i
    }

    #[test]
    fn results_come_back_in_item_order() {
        let expected: Vec<u64> = (0..40).map(|i| i * i).collect();
        for workers in [0, 1, 2, 3, 8, 64] {
            assert_eq!(
                ordered_map((0..40).collect(), workers, uneven),
                expected,
                "{workers} workers"
            );
        }
    }

    #[test]
    fn huge_worker_counts_run_every_item() {
        let expected: Vec<u64> = (0..40).map(|i| i * i).collect();
        for workers in [1 << 60, usize::MAX] {
            assert_eq!(
                ordered_map((0..40).collect(), workers, uneven),
                expected,
                "{workers} workers"
            );
        }
    }

    #[test]
    fn order_holds_when_a_later_item_finishes_first() {
        // Item 0 cannot finish before item 1 has, so completion order is
        // forced to differ from item order.
        let (tx, rx) = std::sync::mpsc::channel();
        let rx = Mutex::new(rx);
        let out = ordered_map(vec![0u8, 1], 2, |i| {
            if i == 0 {
                rx.lock().unwrap().recv().expect("item 1 signals");
            } else {
                tx.send(()).expect("item 0 waits");
            }
            i
        });
        assert_eq!(out, [0, 1]);
    }

    #[test]
    fn workers_claim_contiguous_chunks() {
        // 320 items on 2 workers are claimed 20 at a time, so the thread
        // can change between neighbouring items only at the 15 boundaries
        // between claims, under any interleaving. The sleep keeps both
        // workers busy, so one-item claims would alternate almost every
        // item.
        let n = 320;
        let threads = ordered_map((0..n).collect(), 2, |_: usize| {
            thread::sleep(std::time::Duration::from_micros(50));
            thread::current().id()
        });
        let changes = threads.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(changes <= 15, "{changes} thread changes over {n} items");
    }

    #[test]
    fn empty_input_gives_empty_output() {
        for workers in [0, 1, 4] {
            assert!(ordered_map(Vec::<u8>::new(), workers, |x| x).is_empty());
        }
    }

    #[test]
    fn the_caller_is_one_of_the_workers() {
        // Each item waits for the other, so both must run at once: on the
        // caller and on exactly one spawned thread.
        let caller = thread::current().id();
        let both = std::sync::Barrier::new(2);
        let threads = ordered_map(vec![0u8, 1], 2, |_| {
            both.wait();
            thread::current().id()
        });
        assert_ne!(threads[0], threads[1]);
        assert!(threads.contains(&caller), "the caller ran no item");
    }

    #[test]
    fn inline_paths_spawn_no_thread() {
        let caller = thread::current().id();
        let on_caller = |_: u8| thread::current().id() == caller;
        assert_eq!(ordered_map(vec![1, 2, 3], 1, on_caller), [true; 3]);
        assert_eq!(ordered_map(vec![1], 8, on_caller), [true]);
    }

    #[test]
    fn lowest_index_panic_is_rethrown_at_every_worker_count() {
        for workers in [0, 1, 2, 3, 8, 64] {
            let ran = Mutex::new(Vec::new());
            let payload = catch_unwind(AssertUnwindSafe(|| {
                ordered_map((0..12).collect(), workers, |i: u64| {
                    ran.lock().unwrap().push(i);
                    if i == 3 || i == 7 {
                        panic!("item {i} failed");
                    }
                    uneven(i)
                })
            }))
            .expect_err("items 3 and 7 panic");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("item 3 failed"),
                "{workers} workers"
            );
            // The inline path stops at the first panic; threaded runs
            // finish every item before re-throwing.
            let mut ran = ran.into_inner().unwrap();
            ran.sort_unstable();
            let last = if workers <= 1 { 3 } else { 11 };
            assert_eq!(ran, (0..=last).collect::<Vec<u64>>(), "{workers} workers");
        }
    }
}
