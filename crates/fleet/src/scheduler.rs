//! The fleet epoch scheduler — this crate's sanctioned concurrency site
//! (`SANCTIONED_CONCURRENCY` in `impact-analyze`; R3 everywhere else).
//!
//! Determinism contract: one epoch advances every session by the same
//! step budget, and the advanced sessions are returned in exactly the
//! order they were submitted — never completion order. Sessions are
//! moved by value through channels, so no session state is ever shared
//! between threads; each result is a pure function of (session state,
//! budget), making the scheduler's output invariant in the worker count.
//!
//! Worker panics are transactional at the epoch boundary: every
//! session's advance runs under `catch_unwind`, outcomes are collected
//! for the whole epoch, and the first panic payload (by submission
//! order) is re-thrown — never a generic channel-closed panic that would
//! mask what actually went wrong.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;

use crate::session::Session;

/// Advances every session by `budget` work units on `workers` threads
/// and returns them in submission order.
///
/// # Panics
///
/// Re-throws the first panicking session's payload (by submission
/// order), after the epoch's other sessions completed.
pub(crate) fn run_epoch(sessions: Vec<Session>, workers: usize, budget: u32) -> Vec<Session> {
    let n = sessions.len();
    let workers = workers.min(n).max(1);
    if workers == 1 {
        return sessions
            .into_iter()
            .map(|mut sess| {
                sess.advance(budget);
                sess
            })
            .collect();
    }

    type Outcome = (usize, thread::Result<Session>);
    let mut slots: Vec<Option<Session>> = (0..n).map(|_| None).collect();
    let mut panics: Vec<(usize, Box<dyn std::any::Any + Send>)> = Vec::new();
    thread::scope(|scope| {
        let (done_tx, done_rx) = mpsc::channel::<Outcome>();
        let mut job_txs = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (job_tx, job_rx) = mpsc::channel::<(usize, Session)>();
            let done_tx = done_tx.clone();
            scope.spawn(move || {
                while let Ok((idx, mut sess)) = job_rx.recv() {
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        sess.advance(budget);
                        sess
                    }));
                    if done_tx.send((idx, outcome)).is_err() {
                        return;
                    }
                }
            });
            job_txs.push(job_tx);
        }
        drop(done_tx);
        // Round-robin dispatch in submission order. The assignment is
        // deterministic but irrelevant: results re-seat by index.
        for (idx, sess) in sessions.into_iter().enumerate() {
            job_txs[idx % workers]
                .send((idx, sess))
                .expect("fleet worker alive: its panics surface via the outcome channel");
        }
        drop(job_txs);
        for (idx, outcome) in done_rx {
            match outcome {
                Ok(sess) => slots[idx] = Some(sess),
                Err(payload) => panics.push((idx, payload)),
            }
        }
    });
    panics.sort_by_key(|&(idx, _)| idx);
    if let Some((_, payload)) = panics.into_iter().next() {
        resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every submitted session returned"))
        .collect()
}
