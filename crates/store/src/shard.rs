//! One shard: a strategy lock, a version counter, and a COW bucket
//! directory. The strategy lock is the shard's only validator: every
//! read runs as one strategy read section and nothing else. All
//! cross-thread visibility flows through the `solero-sync` facade so
//! the model checker sees every step of the install.

use std::collections::BTreeMap;

use solero::{BoxedStrategy, Fault, WriteIntent};
use solero_heap::{ClassId, Heap, ObjRef};
use solero_sync::atomic::{AtomicU64, Ordering};

/// Directory object: one `ObjRef` slot per bucket.
pub(crate) const DIR_CLASS: ClassId = ClassId::new(17);
/// Bucket object: slot 0 = presence bitmap, slots `1..=width` = values.
pub(crate) const BUCKET_CLASS: ClassId = ClassId::new(18);

/// A write operation already routed to this shard: `Some` = put,
/// `None` = remove.
pub(crate) type ShardOp = (i64, Option<i64>);

pub(crate) struct Shard {
    pub(crate) strat: BoxedStrategy,
    /// Completed write batches. Written only inside the write section
    /// and read inside read sections, so the strategy lock validates
    /// it like any other datum. The writer's `Release` store pairs with
    /// the `Acquire` loads in `version` and `snapshot`, so a reader that
    /// sees a version also sees the directory swings before it.
    version: AtomicU64,
    dir: ObjRef,
    pub(crate) base: i64,
    pub(crate) keys: i64,
    width: u32,
}

impl Shard {
    /// Allocates the directory and one empty bucket per slot.
    pub(crate) fn new(
        heap: &Heap,
        strat: BoxedStrategy,
        base: i64,
        keys: i64,
        width: u32,
    ) -> Self {
        let buckets = ((keys + width as i64 - 1) / width as i64) as u32;
        let dir = heap
            .alloc(DIR_CLASS, buckets)
            .expect("store heap sized for its own directory");
        for b in 0..buckets {
            let bucket = heap
                .alloc(BUCKET_CLASS, 1 + width)
                .expect("store heap sized for its own buckets");
            // Setup-time plain stores: nothing is shared yet.
            heap.store_plain(bucket, 0, 0).expect("fresh bucket");
            heap.store_ref(dir, b, bucket).expect("fresh directory");
        }
        Shard {
            strat,
            version: AtomicU64::new(0),
            dir,
            base,
            keys,
            width,
        }
    }

    /// Completed batches. Outside a section this is a point-in-time
    /// reading; `snapshot` reads it inside the section that reads the
    /// pairs.
    pub(crate) fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    fn slot_of(&self, key: i64) -> (u32, u32) {
        debug_assert!(key >= self.base && key < self.base + self.keys);
        let off = (key - self.base) as u64;
        ((off / self.width as u64) as u32, (off % self.width as u64) as u32)
    }

    /// Speculative value load; every heap fault here can be a
    /// speculation artifact (recycled bucket) and is settled by the
    /// driver's word validation.
    fn load_value(&self, heap: &Heap, key: i64) -> Result<Option<i64>, Fault> {
        let (b, i) = self.slot_of(key);
        let bucket = heap.load_ref(self.dir, DIR_CLASS, b)?;
        let bits = heap.load(bucket, BUCKET_CLASS, 0)?;
        if bits >> i & 1 == 0 {
            return Ok(None);
        }
        Ok(Some(heap.load_i64(bucket, BUCKET_CLASS, 1 + i)?))
    }

    /// Collects the present pairs of `[lo, hi)` (shard-local bounds)
    /// in ascending key order. Runs inside a read section: one
    /// check-point per bucket bounds how stale a doomed speculation can
    /// run, without per-key cost.
    fn walk(
        &self,
        heap: &Heap,
        ck: &mut dyn WriteIntent,
        lo: i64,
        hi: i64,
    ) -> Result<Vec<(i64, i64)>, Fault> {
        let mut pairs = Vec::new();
        let mut key = lo;
        while key < hi {
            let (b, i0) = self.slot_of(key);
            let bucket = heap.load_ref(self.dir, DIR_CLASS, b)?;
            let bits = heap.load(bucket, BUCKET_CLASS, 0)?;
            let last = (self.width - 1).min((hi - 1 - self.base) as u32 - b * self.width);
            for i in i0..=last {
                if bits >> i & 1 == 1 {
                    let k = self.base + (b * self.width + i) as i64;
                    pairs.push((k, heap.load_i64(bucket, BUCKET_CLASS, 1 + i)?));
                }
            }
            ck.checkpoint()?;
            key = self.base + ((b + 1) * self.width) as i64;
        }
        Ok(pairs)
    }

    /// Elided point-get.
    pub(crate) fn get(&self, heap: &Heap, key: i64) -> Result<Option<i64>, Fault> {
        self.strat.read_with(|ck| {
            let v = self.load_value(heap, key)?;
            ck.checkpoint()?;
            Ok(v)
        })
    }

    /// Elided scan of `[lo, hi)` (shard-local bounds): one read section
    /// for the whole segment. Present pairs come in ascending key order.
    pub(crate) fn scan(&self, heap: &Heap, lo: i64, hi: i64) -> Result<Vec<(i64, i64)>, Fault> {
        debug_assert!(lo >= self.base && hi <= self.base + self.keys && lo <= hi);
        self.strat.read_with(|ck| self.walk(heap, ck, lo, hi))
    }

    /// Elided whole-shard snapshot, tagged with the version read in the
    /// same section as the pairs.
    pub(crate) fn snapshot(&self, heap: &Heap) -> Result<(u64, Vec<(i64, i64)>), Fault> {
        self.strat.read_with(|ck| {
            let version = self.version.load(Ordering::Acquire);
            let pairs = self.walk(heap, ck, self.base, self.base + self.keys)?;
            Ok((version, pairs))
        })
    }

    /// One write batch as one write section and one version step.
    pub(crate) fn apply(&self, heap: &Heap, ops: &[ShardOp]) -> Result<(), Fault> {
        self.strat.write_with(|| self.apply_locked(heap, ops))
    }

    /// Put returning the previous value (read under the same lock).
    pub(crate) fn put(&self, heap: &Heap, key: i64, val: Option<i64>) -> Result<Option<i64>, Fault> {
        self.strat.write_with(|| {
            let old = self.load_value(heap, key)?;
            self.apply_locked(heap, &[(key, val)])?;
            Ok(old)
        })
    }

    /// The COW install. Caller holds the shard's write lock (runs
    /// inside a `write_with` section), so no reader validates a section
    /// that overlaps it.
    fn apply_locked(&self, heap: &Heap, ops: &[ShardOp]) -> Result<(), Fault> {
        if ops.is_empty() {
            return Ok(());
        }
        // Route each op to its bucket; later duplicates win.
        let mut by_bucket: BTreeMap<u32, Vec<(u32, Option<i64>)>> = BTreeMap::new();
        for &(key, val) in ops {
            assert!(
                key >= self.base && key < self.base + self.keys,
                "key {key} outside shard range [{}, {})",
                self.base,
                self.base + self.keys
            );
            let (b, i) = self.slot_of(key);
            by_bucket.entry(b).or_default().push((i, val));
        }
        // Build phase: full bucket copies, invisible to readers. Plain
        // stores suffice: the lock release publishes them.
        let mut installs: Vec<(u32, ObjRef, ObjRef)> = Vec::with_capacity(by_bucket.len());
        for (b, slot_ops) in by_bucket {
            let old = heap.load_ref(self.dir, DIR_CLASS, b)?;
            let fresh = heap.alloc(BUCKET_CLASS, 1 + self.width).unwrap_or_else(|_| {
                panic!("store heap exhausted mid-write: grow StoreConfig::new(keys)")
            });
            let mut bits = heap.load(old, BUCKET_CLASS, 0)?;
            for i in 0..self.width {
                let v = heap.load_untyped(old, 1 + i)?;
                heap.store_plain(fresh, 1 + i, v)?;
            }
            for (i, val) in slot_ops {
                match val {
                    Some(v) => {
                        bits |= 1 << i;
                        heap.store_plain(fresh, 1 + i, v as u64)?;
                    }
                    None => bits &= !(1 << i),
                }
            }
            heap.store(fresh, 0, bits)?;
            installs.push((b, old, fresh));
        }
        // Install phase: swing the directory slots and step the
        // version. A reader that overlaps any of it fails the strategy's
        // validation, so no validated read mixes two versions.
        for &(b, _, fresh) in &installs {
            heap.store_ref(self.dir, b, fresh)?;
        }
        let v = self.version.load(Ordering::Relaxed);
        self.version.store(v + 1, Ordering::Release);
        // A straggling speculative reader touching an old bucket faults
        // on the recycled generation; the driver validates and retries.
        for &(_, old, _) in &installs {
            heap.free(old);
        }
        Ok(())
    }
}
