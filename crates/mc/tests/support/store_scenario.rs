//! The store scenario shared by `store_mc.rs` (the unmutated searches)
//! and `mutation_kill.rs` (the kill that proves the strategy lock alone
//! carries snapshot consistency). Included with `#[path]`; not a test
//! binary of its own.

use std::sync::Arc;

use solero::SoleroStrategy;
use solero_mc::spawn;
use solero_store::{KvStore, StoreConfig};

/// One shard, two single-slot buckets.
pub fn store() -> Arc<KvStore> {
    Arc::new(KvStore::new(
        StoreConfig::new(2).with_shards(1).with_bucket_width(1),
        SoleroStrategy::new,
    ))
}

/// Writer installs both keys in one batch into an *empty* store while a
/// reader scans the shard. Starting empty keeps the modeled event
/// stream short enough for exhaustive DFS to drain, and the mixed
/// cut is just as visible: a validated scan must be all-or-nothing —
/// either the pre-batch cut (no keys) or the post-batch one (both keys,
/// both 1), never the half-installed singleton.
pub fn writer_vs_scanner() {
    let store = store();

    let writer = {
        let store = Arc::clone(&store);
        spawn(move || {
            store.put_many(&[(0, 1), (1, 1)]).expect("batch install");
        })
    };
    let reader = {
        let store = Arc::clone(&store);
        spawn(move || {
            let pairs = store
                .scan(0, 2)
                .expect("validation aborts are artifacts; scan must settle");
            // Asserted after the section settles: a panic inside the
            // elided closure would unwind across the retry loop.
            assert!(
                pairs.len() != 1,
                "mixed-epoch snapshot validated half a batch: {pairs:?}"
            );
            if pairs.len() == 2 {
                assert_eq!(
                    pairs[0].1, pairs[1].1,
                    "mixed-epoch snapshot validated: {pairs:?}"
                );
            }
        })
    };
    writer.join();
    reader.join();

    assert_eq!(store.version(0), 1, "one batch bumps the version once");
    assert_eq!(store.get(0).unwrap(), Some(1));
    assert_eq!(store.get(1).unwrap(), Some(1));
    let s = store.snapshot_stats();
    assert_eq!(
        s.read_aborts,
        s.abort_reason_sum(),
        "every abort classified exactly once: {s:?}"
    );
    store.heap().check_integrity().expect("heap left consistent");
}
