//! Exact statistics with striped fast-path counters, across the fleet.
//!
//! An elided read books itself in its thread's `LockStats` stripe
//! rather than the shared `read_enters`/`elision_success` fields (see
//! `solero_runtime::stats`). These tests pin down that the counts stay
//! exact for every lock with an elided read fast path — `SoleroLock`,
//! `CompactRef` (whose space-wide stats every object shares),
//! `SeqLock` (inline and closure reads) and `BravoLock` — that
//! `reset()` clears the stripes too, and that the abort taxonomy still
//! balances once writers force the slow paths.

use std::sync::atomic::{AtomicU64, Ordering};

use solero::{CompactLock, CompactSpace, Fault, SeqLock, SeqStrategy, SoleroLock, SyncStrategy};
use solero_runtime::stats::{LockStats, StatsSnapshot};
use solero_rwlock::{BravoLock, RawRwLock};

const THREADS: u64 = 4;
const READS: u64 = 10_000;

/// Runs `read` `READS` times on each of `THREADS` threads at once.
fn concurrent_reads(read: impl Fn(u64) + Sync) {
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let read = &read;
            s.spawn(move || {
                for i in 0..READS {
                    read(t * READS + i);
                }
            });
        }
    });
}

fn assert_all_elided(name: &str, s: &StatsSnapshot) {
    assert_eq!(s.read_enters, THREADS * READS, "[{name}] {s}");
    assert_eq!(s.elision_success, THREADS * READS, "[{name}] {s}");
    assert_eq!(s.read_aborts, 0, "[{name}] {s}");
    assert_eq!(s.fallback_acquires, 0, "[{name}] {s}");
}

fn assert_reset_zeroes(name: &str, stats: &LockStats) {
    stats.reset();
    assert_eq!(stats.snapshot(), StatsSnapshot::default(), "[{name}]");
}

#[test]
fn solero_elided_reads_count_exactly() {
    let lock = SoleroLock::new();
    let data = AtomicU64::new(7);
    concurrent_reads(|_| {
        let v = lock
            .read_only(|_| Ok::<_, Fault>(data.load(Ordering::Acquire)))
            .unwrap();
        assert_eq!(v, 7);
    });
    assert_all_elided("SoleroLock", &lock.stats().snapshot());
    assert_reset_zeroes("SoleroLock", lock.stats());
}

#[test]
fn compact_space_elided_reads_count_exactly() {
    // Many objects, one space: every read of every object books into
    // the same `LockStats`.
    let space = CompactSpace::new();
    let objects: Vec<CompactLock> = (0..64).map(|_| CompactLock::new()).collect();
    concurrent_reads(|i| {
        let obj = &objects[(i % objects.len() as u64) as usize];
        obj.bind(&space).read_only(|| Ok::<_, Fault>(i)).unwrap();
    });
    assert_all_elided("CompactSpace", &space.stats().snapshot());
    assert_reset_zeroes("CompactSpace", space.stats());
}

#[test]
fn seqlock_inline_and_closure_reads_count_exactly() {
    let strat = SeqStrategy::new([3u64, 3]);
    concurrent_reads(|i| {
        if i % 2 == 0 {
            assert_eq!(strat.read_inline(), [3, 3]);
        } else {
            strat.read_section(|_| Ok::<_, Fault>(())).unwrap();
        }
    });
    let stats = strat.lock().stats();
    assert_all_elided("SeqLock", &stats.snapshot());
    assert_reset_zeroes("SeqLock", stats);
}

#[test]
fn bravo_fast_reads_count_exactly() {
    let lock = BravoLock::new();
    concurrent_reads(|_| drop(lock.read()));
    let s = lock.stats().snapshot();
    assert_eq!(s.read_enters, THREADS * READS, "{s}");
    // A reader whose visible-readers slot collides with another's takes
    // the slow path for that read: fast + slow covers every read
    // exactly, and an unwritten lock keeps its bias throughout.
    assert_eq!(s.elision_success + s.read_slow_enters, THREADS * READS, "{s}");
    assert!(s.elision_success > s.read_slow_enters, "{s}");
    assert_reset_zeroes("BravoLock", lock.stats());
}

/// Readers and one writer on each lock: the slow paths run, and the
/// shared counters and the stripes still add up.
#[test]
fn mixed_read_write_keeps_the_taxonomy_balanced() {
    const WRITES: u64 = 2_000;

    fn check(name: &str, s: &StatsSnapshot) {
        assert_eq!(s.read_enters, (THREADS - 1) * READS, "[{name}] {s}");
        assert_eq!(s.write_enters, WRITES, "[{name}] {s}");
        assert_eq!(s.read_aborts, s.abort_reason_sum(), "[{name}] {s}");
        assert!(
            s.elision_success + s.fallback_acquires + s.policy_skips <= s.read_enters,
            "[{name}] a section completes at most one way: {s}"
        );
    }

    /// `THREADS - 1` readers beside one writer.
    fn run(read: impl Fn() + Sync, write: impl Fn() + Sync) {
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..WRITES {
                    write();
                }
            });
            for _ in 1..THREADS {
                s.spawn(|| {
                    for _ in 0..READS {
                        read();
                    }
                });
            }
        });
    }

    let cell = AtomicU64::new(0);
    let bump = || {
        cell.fetch_add(1, Ordering::Relaxed);
    };
    let load = || Ok::<_, Fault>(cell.load(Ordering::Relaxed));

    let lock = SoleroLock::new();
    run(|| drop(lock.read_only(|_| load())), || lock.write(bump));
    check("SoleroLock", &lock.stats().snapshot());

    let space = CompactSpace::new();
    let obj = CompactLock::new();
    run(
        || drop(obj.bind(&space).read_only(load)),
        || obj.bind(&space).write(bump),
    );
    check("CompactSpace", &space.stats().snapshot());

    let seq = SeqStrategy::new(0u64);
    let flip = AtomicU64::new(0);
    run(
        || {
            if flip.fetch_add(1, Ordering::Relaxed) % 2 == 0 {
                seq.read_inline();
            } else {
                seq.read_section(|_| load()).unwrap();
            }
        },
        || seq.update_inline(|v| *v += 1),
    );
    check("SeqLock", &seq.lock().stats().snapshot());

    let bravo = BravoLock::new();
    run(|| drop(bravo.read()), || drop(bravo.write()));
    let s = bravo.stats().snapshot();
    check("BravoLock", &s);
    assert_eq!(s.elision_success + s.read_slow_enters, s.read_enters, "{s}");
}

/// The plain `SeqLock` (not the strategy wrapper) books the same way.
#[test]
fn seqlock_direct_reads_share_the_stripes() {
    let lock = SeqLock::new(9u32);
    concurrent_reads(|_| assert_eq!(lock.read_inline(), 9));
    assert_all_elided("SeqLock direct", &lock.stats().snapshot());
}
