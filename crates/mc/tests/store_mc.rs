//! Model-checked COW install of the `solero-store` snapshot shard.
//!
//! Build with `RUSTFLAGS="--cfg solero_mc"` (see scripts/ci.sh).
//!
//! The store has one validator: the shard's strategy lock (DESIGN.md
//! §12). The writer builds copy-on-write buckets with invisible plain
//! stores, swings the directory slots, steps the shard version and frees
//! the displaced buckets, all inside one write section; the elided
//! reader loads its values inside one read section and the lock word's
//! exit validation is its only check. If the lock's validation were
//! too weak, a reader could validate a **mixed-version snapshot** —
//! bucket 0 from the new batch, bucket 1 from the old one — which is
//! precisely the torn cut a versioned store must never serve. The
//! scenarios here use one shard with **two** single-slot buckets so the
//! install window (slot 0 swung, slot 1 not yet) is a real multi-step
//! region, and a writer that installs both keys in one batch, so any
//! mixed cut is a half batch:
//!
//! * every validated `scan` is all-or-nothing — no keys or both keys,
//!   both 1, never the half-installed singleton;
//! * every validated whole-store checkpoint binds version ↔ values
//!   (version 0 ⇒ empty, version 1 ⇒ the whole batch): the version the
//!   reader reads in its section belongs to the data it saw;
//! * teardown drains: final state is version 1 with both values 1, and
//!   the abort taxonomy balances (`read_aborts == abort_reason_sum()`)
//!   — every validation abort was classified, retried and recovered.
//!
//! The space is drained three ways — bounded DFS (writer + scanning
//! reader), DPOR under TSO store buffers for the same scenario (the
//! lock's release store and the reader's exit fence are what order the
//! writer's buffered bucket stores against the validation), and DPOR
//! with a third thread taking whole-store checkpoints through the
//! install window. That the lock alone carries the guarantee is proven
//! in `mutation_kill.rs`: with the exit re-read skipped, the same
//! writer-vs-scanner search finds a mixed cut.
#![cfg(solero_mc)]

use std::sync::Arc;

use solero_mc::{spawn, Checker};

#[path = "support/store_scenario.rs"]
mod store_scenario;
use store_scenario::{store, writer_vs_scanner};

/// DFS, bounded preemptions: every interleaving of the reader's
/// enter/load/revalidate against the writer's acquire/build/swing/
/// version/free/release chain, including schedules where the reader
/// sits inside the install window. The bound is 2 — not the 3 the
/// small-section suites use — because a store section models ~40
/// heap and lock events and the unbudgeted executions cap cannot
/// exhaust bound 3; two preemptions still cover every
/// single-interruption shape (reader descheduled inside the window,
/// writer descheduled mid-swing).
#[test]
fn store_scan_never_mixes_epochs_dfs() {
    let stats = Checker::exhaustive()
        .preemption_bound(Some(2))
        .check("store_snapshot_dfs", writer_vs_scanner)
        .expect("validated scans must be single-epoch");
    assert!(
        stats.complete || solero_mc::budget_overridden(),
        "bounded space must be exhausted"
    );
}

/// TSO store buffers, under DPOR: the writer's plain bucket stores,
/// directory swings and version store may each sit in a store buffer
/// while the reader runs its section. The lock's release store and the
/// reader's exit fence and re-load are what order them against the
/// validation; a demoted ordering would surface here as a validated
/// mixed pair. Bounded DFS cannot drain this space under its execution
/// cap; DPOR drains it.
#[test]
fn store_install_window_survives_tso() {
    let stats = Checker::dpor()
        .weak_memory(true)
        .check("store_snapshot_tso", writer_vs_scanner)
        .expect("lock validation must close the store-buffer race");
    assert!(
        stats.complete || solero_mc::budget_overridden(),
        "bounded space must be exhausted"
    );
}

/// DPOR with the checkpointer in the mix: a whole-store cut taken
/// through the install window must bind version ↔ values — it either
/// validates the old version (0, no pairs) or the new one (1, the whole
/// batch), never a blend.
#[test]
fn store_checkpoint_binds_version_to_values_dpor() {
    let stats = Checker::dpor()
        .check("store_checkpoint_dpor", || {
            let store = store();

            let writer = {
                let store = Arc::clone(&store);
                spawn(move || {
                    store.put_many(&[(0, 1), (1, 1)]).expect("batch install");
                })
            };
            let scanner = {
                let store = Arc::clone(&store);
                spawn(move || {
                    let pairs = store.scan(0, 2).expect("scan must settle");
                    assert!(pairs.len() != 1, "mixed scan: {pairs:?}");
                    if pairs.len() == 2 {
                        assert_eq!(pairs[0].1, pairs[1].1, "mixed scan: {pairs:?}");
                    }
                })
            };
            let checkpointer = {
                let store = Arc::clone(&store);
                spawn(move || {
                    let cut = store.checkpoint().expect("checkpoint must settle");
                    let shard = &cut.shards[0];
                    match shard.version {
                        0 => assert!(
                            shard.pairs.is_empty(),
                            "cut of the pre-batch version shows batch data: {shard:?}"
                        ),
                        1 => assert_eq!(
                            shard.pairs,
                            vec![(0, 1), (1, 1)],
                            "cut of the post-batch version is not the whole batch"
                        ),
                        v => panic!("impossible shard version {v}"),
                    }
                })
            };
            writer.join();
            scanner.join();
            checkpointer.join();

            assert_eq!(store.version(0), 1);
            assert_eq!(store.get(0).unwrap(), Some(1));
            assert_eq!(store.get(1).unwrap(), Some(1));
            let s = store.snapshot_stats();
            assert_eq!(s.read_aborts, s.abort_reason_sum(), "{s:?}");
            store.heap().check_integrity().expect("heap left consistent");
        })
        .expect("checkpoints must be single-version cuts");
    assert!(
        stats.complete || solero_mc::budget_overridden(),
        "bounded space must be exhausted"
    );
}
