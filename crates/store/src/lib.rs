//! `solero-store` — a sharded in-memory **MVCC snapshot store** over the
//! [`solero_heap`] shadow heap, read through **elided read-only critical
//! sections**.
//!
//! Every workload elsewhere in the workspace is one of the paper's
//! microbenches; this crate is the service-shaped one: a versioned
//! key-value store whose read path looks like production traffic
//! (point-gets, bounded range-scans, whole-store checkpoints) and whose
//! synchronization is exactly the strategy fleet under evaluation.
//!
//! # Architecture (DESIGN.md §12)
//!
//! The key space `[0, keys)` is **range-sharded**. Each shard owns
//!
//! * a [`solero::DynSyncStrategy`] lock (any fleet contender, boxed),
//! * a **version** counter (completed write batches),
//! * a directory object whose slots point at fixed-width **bucket**
//!   objects holding `[presence bitmap, v0, v1, …]`.
//!
//! Writers never mutate a live bucket. A write batch runs as one write
//! section of the shard's lock: it builds new bucket copies off to the
//! side (**copy-on-write**), swings the directory slots, steps the
//! version and frees the old buckets. Readers run as one read section
//! each, and the strategy lock is their **only** validator: a reader
//! either excludes the writer (Lock, RWLock, BRAVO) or validates a word
//! that every write section changes (SOLERO, Adaptive-SOLERO, SeqLock).
//! A speculative read that overlapped an install fails that validation
//! and is retried by the elision driver, booked as a `locked_at_entry`
//! or `word_changed_at_exit` abort (or `async_revalidation_fail` when a
//! scan's per-bucket check-point sees the word move) — the store adds no
//! recovery machinery of its own, it rides the existing taxonomy.
//!
//! A validated snapshot is therefore **single-version by
//! construction**: the version is read in the same section as the
//! pairs, so the background checkpointer calls [`KvStore::checkpoint`]
//! and gets a cut in which every shard's pairs belong to exactly the
//! version the snapshot is tagged with — never a mix of two installs.
//! The model checker drains this claim under DFS, DPOR and TSO store
//! buffers (`crates/mc/tests/store_mc.rs`), and kills a store whose
//! lock skips its exit validation (`crates/mc/tests/mutation_kill.rs`).
//!
//! # Quick start
//!
//! ```
//! use solero::SoleroStrategy;
//! use solero_store::{KvStore, StoreConfig};
//!
//! let store = KvStore::new(StoreConfig::new(1024), SoleroStrategy::new);
//! store.put(7, 70).unwrap();
//! assert_eq!(store.get(7).unwrap(), Some(70));
//!
//! // Bounded range-scan: one elided section (and one lock validation)
//! // per shard segment, not one per key.
//! assert_eq!(store.scan(0, 16).unwrap(), vec![(7, 70)]);
//!
//! // Whole-store checkpoint: every shard snapshot is version-tagged and
//! // internally single-version.
//! let cut = store.checkpoint().unwrap();
//! assert_eq!(cut.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod shard;
mod store;

pub use store::{KvStore, ShardSnapshot, StoreCheckpoint, StoreConfig};

pub use solero_heap::{Heap, ObjRef};
pub use solero_runtime::fault::Fault;
