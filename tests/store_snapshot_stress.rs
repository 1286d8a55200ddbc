//! Snapshot-isolation stress over the [`solero_store::KvStore`] MVCC
//! store: one writer per shard installs whole-shard round-tagged
//! batches while elided readers scan and a checkpointer takes
//! whole-store cuts, all under real preemption. The strategy lock is
//! the store's only validator, so the stress runs once per fleet
//! strategy: every one of them must carry snapshot consistency alone.
//!
//! The round-tag construction makes mixed-epoch cuts self-evident:
//! every batch writes the *same* value to *every* key of its shard, and
//! each batch bumps the shard version by exactly one, so any validated
//! observation must be value-uniform with `version == value + 1` (the
//! `+ 1` is the preload batch). A reader that validated a half-installed
//! batch would surface instantly as a non-uniform scan or a cut whose
//! version disagrees with its data.
//!
//! Pinned at teardown: the abort taxonomy balances
//! (`read_aborts == abort_reason_sum()` — every validation abort was
//! classified, retried and recovered), the write count matches the
//! batch schedule exactly, the final checkpoint is the last batch of
//! every shard, and the heap passes its integrity walk.
//!
//! Driven by [`solero_testkit::stress`] over a fixed root-seed matrix;
//! `SOLERO_TESTKIT_SEED` replays any run.

use std::sync::atomic::{AtomicU64, Ordering};

use solero::{
    BoxedStrategy, BravoStrategy, JavaRwLock, LockStrategy, RwStrategy, SeqStrategy, SoleroConfig,
    SoleroStrategy,
};
use solero_store::{KvStore, StoreConfig};
use solero_testkit::{seed_matrix, seed_override, stress, StressConfig};

const SHARDS: usize = 4;
const SPAN: i64 = 64;
const THREADS: usize = 8; // 4 shard writers + 3 readers + 1 checkpointer
const ROUNDS: usize = 4;
/// Whole-shard batches each writer installs per round.
const BATCHES: usize = 8;
/// Get/scan probes per reader per round.
const OPS: usize = 300;
/// Whole-store cuts the checkpointer takes per round.
const CUTS: usize = 12;

type MakeStrategy = fn() -> BoxedStrategy;

/// The six fleet strategies (the bench crate's `figures::fleet()`,
/// listed inline: root tests do not depend on `solero-bench`).
const FLEET: [(&str, MakeStrategy); 6] = [
    ("Lock", || Box::new(LockStrategy::new())),
    ("RWLock", || Box::new(RwStrategy::<JavaRwLock>::new())),
    ("BRAVO-RW", || Box::new(BravoStrategy::new())),
    ("SOLERO", || Box::new(SoleroStrategy::new())),
    ("Adaptive-SOLERO", || {
        Box::new(SoleroStrategy::configured(
            SoleroConfig::builder().adaptive(true).build(),
        ))
    }),
    ("SeqLock", || Box::new(SeqStrategy::new(0u64))),
];

/// One whole-shard round-tag batch: every key of `shard` set to `tag`.
fn batch(shard: usize, tag: i64) -> Vec<(i64, i64)> {
    let base = shard as i64 * SPAN;
    (base..base + SPAN).map(|k| (k, tag)).collect()
}

/// Asserts a validated `(version, pairs)` observation of `shard` is a
/// single-epoch cut: complete, value-uniform, and version-bound.
fn assert_single_epoch(seed: u64, shard: usize, version: u64, pairs: &[(i64, i64)]) {
    assert_eq!(
        pairs.len(),
        SPAN as usize,
        "seed {seed:#x}: shard {shard} cut lost keys"
    );
    let tag = pairs[0].1;
    assert!(
        pairs.iter().all(|&(_, v)| v == tag),
        "seed {seed:#x}: shard {shard} validated a mixed-epoch cut: {pairs:?}"
    );
    assert_eq!(
        version,
        tag as u64 + 1,
        "seed {seed:#x}: shard {shard} cut of version {version} carries batch {tag}"
    );
}

#[test]
fn round_tagged_batches_never_tear_across_a_snapshot() {
    for (i, seed) in seed_matrix(seed_override(0x5EED_5705), 3)
        .into_iter()
        .enumerate()
    {
        for (name, make) in FLEET {
            let store = KvStore::new_boxed(
                StoreConfig::new(SHARDS as i64 * SPAN).with_shards(SHARDS),
                make,
            );
            // Preload batch 0 everywhere: version 1, all values 0, so every
            // key is present from the first probe onward.
            for s in 0..SHARDS {
                store.put_many(&batch(s, 0)).expect("preload batch");
            }
            // Monotone per-shard batch tags; each shard has one writer, so
            // the sequence is dense and `version == tag + 1` stays exact.
            let tags: Vec<AtomicU64> = (0..SHARDS).map(|_| AtomicU64::new(0)).collect();

            stress(
                &format!("store-snapshot-{name}-m{i}"),
                &StressConfig::new(THREADS, ROUNDS, seed),
                |w| {
                    if w.id < SHARDS {
                        // Shard writer: install whole-shard batches, spaced
                        // so readers validate between installs too.
                        for _ in 0..BATCHES {
                            let tag = tags[w.id].fetch_add(1, Ordering::Relaxed) + 1;
                            store
                                .put_many(&batch(w.id, tag as i64))
                                .expect("batch install");
                            for _ in 0..w.rng.gen_range(100..300) {
                                std::hint::spin_loop();
                            }
                        }
                    } else if w.id < THREADS - 1 {
                        // Reader: elided point-gets, bounded scans, and
                        // versioned shard snapshots over random shards.
                        for _ in 0..OPS {
                            let shard = w.rng.gen_range(0..SHARDS as u64) as usize;
                            let base = shard as i64 * SPAN;
                            match w.rng.gen_range(0..3u32) {
                                0 => {
                                    let key = base + w.rng.gen_range(0..SPAN as u64) as i64;
                                    let got = store.get(key).expect("get must settle");
                                    assert!(got.is_some(), "seed {seed:#x}: key {key} vanished");
                                }
                                1 => {
                                    let pairs =
                                        store.scan(base, SPAN as usize).expect("scan must settle");
                                    let tag = pairs[0].1;
                                    assert!(
                                        pairs.len() == SPAN as usize
                                            && pairs.iter().all(|&(_, v)| v == tag),
                                        "seed {seed:#x}: mixed-epoch scan of shard {shard}: {pairs:?}"
                                    );
                                }
                                _ => {
                                    let snap =
                                        store.shard_snapshot(shard).expect("snapshot settles");
                                    assert_single_epoch(seed, shard, snap.version, &snap.pairs);
                                }
                            }
                        }
                    } else {
                        // Checkpointer: whole-store cuts; every shard of a
                        // cut must individually be a single-epoch snapshot.
                        for _ in 0..CUTS {
                            let cut = store.checkpoint().expect("checkpoint must settle");
                            for shard in &cut.shards {
                                assert_single_epoch(seed, shard.shard, shard.version, &shard.pairs);
                            }
                        }
                    }
                },
            );

            // Write schedule is exact: one preload batch per shard plus
            // BATCHES × ROUNDS per shard writer, one write section each.
            let expected_writes = (SHARDS + SHARDS * ROUNDS * BATCHES) as u64;
            let s = store.snapshot_stats();
            assert_eq!(
                s.write_enters, expected_writes,
                "{name} seed {seed:#x}: {s:?}"
            );
            assert_eq!(
                s.read_aborts,
                s.abort_reason_sum(),
                "{name} seed {seed:#x}: every abort classified exactly once: {s:?}"
            );
            // Quiescent final cut: the last batch of every shard, in full.
            let last = (ROUNDS * BATCHES) as i64;
            let cut = store.checkpoint().expect("quiescent checkpoint");
            for shard in &cut.shards {
                assert_single_epoch(seed, shard.shard, shard.version, &shard.pairs);
                assert_eq!(
                    shard.pairs[0].1, last,
                    "{name} seed {seed:#x}: shard {} missed batches",
                    shard.shard
                );
            }
            store
                .heap()
                .check_integrity()
                .expect("heap left consistent");
        }
    }
}
