//! Model-checked publish/revoke handoff for the BRAVO biased lock.
//!
//! Build with `RUSTFLAGS="--cfg solero_mc"` (see scripts/ci.sh).
//!
//! BRAVO's correctness hangs on one store→load handshake, run from both
//! sides at once: the reader publishes its visible-readers slot and
//! then re-checks the bias; the writer clears the bias and then scans
//! the slots. If both sides could read stale values — the classic SB
//! shape — a fast-path reader and a writer would own the lock
//! simultaneously and a reader could observe a torn write pair. The
//! implementation closes the race with `SeqCst` on publish, re-check,
//! bias-clear, scan and unpublish, so these scenarios must hold in
//! **every** explored schedule:
//!
//! * a reader never observes a half-applied write pair (mutual
//!   exclusion of fast-path readers and writers);
//! * the writer's revocation scan terminates — the unpublishing
//!   reader's `SeqCst` swap plus bias re-check guarantees the parked
//!   writer is woken (a missed notify would surface here as a
//!   scheduler-reported deadlock, because the model's `wait_timeout`
//!   budget treats "timed out forever" as a stuck thread);
//! * teardown drains: no slot still publishes the lock, and the
//!   taxonomy balances (`read_enters == elision_success +
//!   read_slow_enters`, re-biases only after revocations).
//!
//! The space is drained three ways — exhaustive DFS (1R+1W), DPOR
//! (2R+1W, where the re-bias cycle of `BravoPolicy::minimal` is
//! reachable), and a TSO weak-memory pass (1R+1W) aimed squarely at
//! the store-buffer variant of the handshake. Under `solero_mc` the
//! table shrinks to 8 slots and slot choice keys on the stable virtual
//! thread index (see `solero_rwlock::visible`), so a discovered trace
//! replays with the same collision pattern.
#![cfg(solero_mc)]

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use solero_mc::{spawn, Checker};
use solero_rwlock::{BravoLock, BravoPolicy, RawRwLock};
use solero_sync::atomic::{AtomicU64, Ordering};

/// Held by each test for its whole search. The tests share the global
/// visible-readers table, so two searches run side by side (the test
/// harness's default) would perturb each other's slots and make a
/// replayed prefix diverge. A failed test poisons the lock; the next
/// one still runs.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One fast-path reader snapshotting a pair the writer updates. Panics
/// (killing the schedule) if exclusion or the teardown invariants fail.
fn one_reader_one_writer() {
    let lock = Arc::new(BravoLock::new());
    let a = Arc::new(AtomicU64::new(0));
    let b = Arc::new(AtomicU64::new(0));

    let writer = {
        let (lock, a, b) = (Arc::clone(&lock), Arc::clone(&a), Arc::clone(&b));
        spawn(move || {
            let g = lock.write();
            a.store(1, Ordering::Relaxed);
            b.store(1, Ordering::Relaxed);
            drop(g);
        })
    };
    let reader = {
        let (lock, a, b) = (Arc::clone(&lock), Arc::clone(&a), Arc::clone(&b));
        spawn(move || {
            let g = lock.read();
            let (ra, rb) = (a.load(Ordering::Relaxed), b.load(Ordering::Relaxed));
            drop(g);
            // Asserted outside the section: unwinding here must not run
            // lock releases against the model.
            assert_eq!(ra, rb, "bravo reader saw a torn pair");
        })
    };
    writer.join();
    reader.join();

    assert_eq!(lock.published_readers(), 0, "visible-readers slot leaked");
    let s = lock.stats().snapshot();
    assert_eq!(s.read_enters, 1, "{s:?}");
    assert_eq!(s.write_enters, 1, "{s:?}");
    assert_eq!(
        s.read_enters,
        s.elision_success + s.read_slow_enters,
        "every read is exactly fast or slow: {s:?}"
    );
    // The lock starts biased and only a writer clears the bias, so the
    // single writer always revokes exactly once.
    assert_eq!(s.bias_revocations, 1, "{s:?}");
    assert_eq!(s.bias_rebiases, 0, "no rebias without a slow-read streak");
}

/// DFS, bounded preemptions: every interleaving of the publish/recheck
/// vs clear/scan handshake, including the writer parking mid-scan.
#[test]
fn bravo_reader_never_torn_dfs() {
    let _serial = serial();
    let stats = Checker::exhaustive()
        .preemption_bound(Some(3))
        .check("bravo_snapshot_dfs", one_reader_one_writer)
        .expect("bravo fast readers and writers must exclude");
    assert!(
        stats.complete || solero_mc::budget_overridden(),
        "bounded space must be exhausted"
    );
}

/// TSO store buffers: the same scenario where the reader's publish and
/// the writer's bias clear may each sit in a store buffer. `SeqCst`
/// RMWs flush, which is exactly what the protocol relies on; a demoted
/// ordering would surface here as a torn pair or a stuck scan.
#[test]
fn bravo_publish_revoke_handshake_survives_tso() {
    let _serial = serial();
    let stats = Checker::exhaustive()
        .preemption_bound(Some(3))
        .weak_memory(true)
        .check("bravo_snapshot_tso", one_reader_one_writer)
        .expect("bravo handshake must close the store-buffer race");
    assert!(
        stats.complete || solero_mc::budget_overridden(),
        "bounded space must be exhausted"
    );
}

/// DPOR, two readers and one writer on the one-step re-bias policy:
/// the whole bias lifecycle — fast path, revocation, slow-path streak,
/// re-bias — is reachable inside one execution, and the invariants must
/// hold on every branch of it.
#[test]
fn bravo_rebias_cycle_dpor() {
    let _serial = serial();
    let stats = Checker::dpor()
        .check("bravo_rebias_dpor", || {
            let lock = Arc::new(BravoLock::with_policy(BravoPolicy::minimal()));
            let a = Arc::new(AtomicU64::new(0));
            let b = Arc::new(AtomicU64::new(0));

            let writer = {
                let (lock, a, b) = (Arc::clone(&lock), Arc::clone(&a), Arc::clone(&b));
                spawn(move || {
                    let g = lock.write();
                    a.store(1, Ordering::Relaxed);
                    b.store(1, Ordering::Relaxed);
                    drop(g);
                })
            };
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let (lock, a, b) = (Arc::clone(&lock), Arc::clone(&a), Arc::clone(&b));
                    spawn(move || {
                        let g = lock.read();
                        let (ra, rb) =
                            (a.load(Ordering::Relaxed), b.load(Ordering::Relaxed));
                        drop(g);
                        assert_eq!(ra, rb, "bravo reader saw a torn pair");
                    })
                })
                .collect();
            writer.join();
            for r in readers {
                r.join();
            }

            assert_eq!(lock.published_readers(), 0, "visible-readers slot leaked");
            let s = lock.stats().snapshot();
            assert_eq!(s.read_enters, 2, "{s:?}");
            assert_eq!(
                s.read_enters,
                s.elision_success + s.read_slow_enters,
                "every read is exactly fast or slow: {s:?}"
            );
            assert_eq!(s.bias_revocations, 1, "{s:?}");
            assert!(
                s.bias_rebiases <= s.bias_revocations,
                "bias can only be re-earned after a revocation: {s:?}"
            );
            // Writer progress is implied by the execution finishing: a
            // revocation scan that never terminated would be reported
            // as a deadlock by the scheduler, not reach this point.
        })
        .expect("bravo rebias cycle must preserve exclusion");
    assert!(
        stats.complete || solero_mc::budget_overridden(),
        "bounded space must be exhausted"
    );
}
