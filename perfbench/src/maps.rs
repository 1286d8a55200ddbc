//! `map-read` and `tree-writer`: one SOLERO lock guarding a 1K-entry
//! map on the shadow heap.
//!
//! The base entries sit on even keys and are never removed, so a read
//! of an even key must find it. The `tree-writer` writer churns odd
//! keys: it inserts one and removes it again on the next write, so the
//! tree rebalances on every write while the readers walk it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use solero::{Checkpoint, Fault, SoleroStrategy, SyncStrategy};
use solero_collections::{JHashMap, JTreeMap};
use solero_heap::Heap;
use solero_runtime::stats::StatsSnapshot;
use solero_testkit::rng::TestRng;
use solero_workloads::openloop::Schedule;

use crate::oracle::{self, encode, holds};
use crate::phase::{Phase, Workload, LATENCY_EVERY, TRACE_EVERY};
use crate::sched::{since, wait_until};
use crate::trace::{self, Name};

/// Base entries: small enough that the map fits in L1/L2.
const ENTRIES: i64 = 1024;
/// Room for the map plus the writer's churn; freed nodes are recycled.
const HEAP_WORDS: usize = 1 << 15;
/// Paced writes per second in `tree-writer`.
const WRITE_RATE: u64 = 100_000;

pub trait Map: Sized + Send + Sync {
    /// Whether the workload runs the paced writer beside one reader.
    const CHURN: bool;
    fn create(heap: &Heap) -> Self;
    fn get(&self, heap: &Heap, key: i64, ck: &mut dyn Checkpoint) -> Result<Option<i64>, Fault>;
    fn put(&self, heap: &Heap, key: i64, value: i64) -> Result<Option<i64>, Fault>;
    fn remove(&self, heap: &Heap, key: i64) -> Result<Option<i64>, Fault>;
    fn len(&self, heap: &Heap) -> Result<usize, Fault>;
    fn check(&self, heap: &Heap) -> Result<(), Fault>;
}

impl Map for JHashMap {
    const CHURN: bool = false;
    fn create(heap: &Heap) -> Self {
        JHashMap::new(heap, 2 * ENTRIES as usize).expect("fresh heap")
    }
    fn get(&self, heap: &Heap, key: i64, ck: &mut dyn Checkpoint) -> Result<Option<i64>, Fault> {
        JHashMap::get(self, heap, key, ck)
    }
    fn put(&self, heap: &Heap, key: i64, value: i64) -> Result<Option<i64>, Fault> {
        JHashMap::put(self, heap, key, value)
    }
    fn remove(&self, heap: &Heap, key: i64) -> Result<Option<i64>, Fault> {
        JHashMap::remove(self, heap, key)
    }
    fn len(&self, heap: &Heap) -> Result<usize, Fault> {
        JHashMap::len(self, heap)
    }
    fn check(&self, _heap: &Heap) -> Result<(), Fault> {
        Ok(())
    }
}

impl Map for JTreeMap {
    const CHURN: bool = true;
    fn create(heap: &Heap) -> Self {
        JTreeMap::new(heap).expect("fresh heap")
    }
    fn get(&self, heap: &Heap, key: i64, ck: &mut dyn Checkpoint) -> Result<Option<i64>, Fault> {
        JTreeMap::get(self, heap, key, ck)
    }
    fn put(&self, heap: &Heap, key: i64, value: i64) -> Result<Option<i64>, Fault> {
        JTreeMap::put(self, heap, key, value)
    }
    fn remove(&self, heap: &Heap, key: i64) -> Result<Option<i64>, Fault> {
        JTreeMap::remove(self, heap, key)
    }
    fn len(&self, heap: &Heap) -> Result<usize, Fault> {
        JTreeMap::len(self, heap)
    }
    fn check(&self, heap: &Heap) -> Result<(), Fault> {
        self.check_invariants(heap).map(|_| ())
    }
}

pub type MapRead = MapBench<JHashMap>;
pub type TreeWriter = MapBench<JTreeMap>;

pub struct MapBench<M> {
    heap: Heap,
    strat: SoleroStrategy,
    map: M,
    /// Writes issued, so teardown knows whether a churn key is present.
    writes: AtomicU64,
}

/// The odd key written by churn step `j`: a fixed permutation of the
/// 1024 odd keys, so consecutive writes land across the whole tree.
fn churn_key(j: u64) -> i64 {
    2 * ((j * 389) % ENTRIES as u64) as i64 + 1
}

/// A read of `key` returned `got`: base keys must be found, churn keys
/// may be absent, and any value found must encode its key.
fn read_ok(key: i64, got: Result<Option<i64>, Fault>) -> bool {
    match got {
        Ok(Some(v)) => holds(key, v),
        Ok(None) => key % 2 == 1,
        Err(_) => false,
    }
}

impl<M: Map> MapBench<M> {
    fn get<const T: bool>(&self, key: i64) -> Result<Option<i64>, Fault> {
        trace::span::<T, _>(Name::CoreRead, || {
            self.strat.read_section(|ck| {
                trace::span::<T, _>(Name::CollGet, || self.map.get(&self.heap, key, ck))
            })
        })
    }

    /// Write `g` of the churn: even steps insert a key, odd steps remove it.
    fn write<const T: bool>(&self, g: u64) -> bool {
        let key = churn_key(g / 2);
        trace::span::<T, _>(Name::CoreWrite, || {
            self.strat.write_section(|| {
                if g.is_multiple_of(2) {
                    let r = trace::span::<T, _>(Name::CollPut, || {
                        self.map.put(&self.heap, key, encode(key, g))
                    });
                    matches!(r, Ok(None))
                } else {
                    let r =
                        trace::span::<T, _>(Name::CollRemove, || self.map.remove(&self.heap, key));
                    matches!(r, Ok(Some(v)) if holds(key, v))
                }
            })
        })
    }

    fn reader<const T: bool>(&self, mut rng: TestRng, stop: &AtomicBool) -> Phase {
        let keys = if M::CHURN {
            2 * ENTRIES as u64
        } else {
            ENTRIES as u64
        };
        let mut p = Phase::default();
        let t0 = Instant::now();
        while !stop.load(Ordering::Relaxed) {
            for j in 0..LATENCY_EVERY {
                let k = rng.next_u64() % keys;
                let key = if M::CHURN { k as i64 } else { 2 * k as i64 };
                let timed = (j == 0).then(Instant::now);
                let got = trace::op::<T, _>(j % TRACE_EVERY == 1, || self.get::<T>(key));
                if let Some(t) = timed {
                    p.read.record(t.elapsed().as_nanos() as u64);
                }
                p.failed += u64::from(!read_ok(key, got));
            }
            p.ops += LATENCY_EVERY;
        }
        p.elapsed = t0.elapsed().as_secs_f64();
        p.read_rate = p.ops as f64 / p.elapsed;
        p
    }

    fn writer<const T: bool>(&self, secs: f64) -> Phase {
        let sched = Schedule::from_rate(WRITE_RATE);
        let end = (secs * 1e9) as u64;
        let mut p = Phase::default();
        let t0 = Instant::now();
        let mut i = 0;
        loop {
            let due = sched.intended_ns(i);
            if due >= end {
                break;
            }
            let start = wait_until(t0, due);
            p.late.record(due, start, sched.interval_ns());
            let ok = trace::op::<T, _>(i % TRACE_EVERY == 1, || self.write::<T>(i));
            p.write.record(since(t0) - due);
            p.failed += u64::from(!ok);
            i += 1;
        }
        self.writes.store(i, Ordering::Relaxed);
        p.ops = i;
        p.elapsed = t0.elapsed().as_secs_f64();
        p
    }
}

impl<M: Map> Workload for MapBench<M> {
    const OPEN_LOOP: bool = false;

    fn setup(seed: u64, _spanned: bool) -> Self {
        let heap = Heap::new(HEAP_WORDS);
        let strat = SoleroStrategy::new();
        let map = M::create(&heap);
        let mut keys: Vec<i64> = (0..ENTRIES).map(|i| 2 * i).collect();
        TestRng::derive(seed, 0).shuffle(&mut keys);
        strat.write_section(|| {
            for &k in &keys {
                map.put(&heap, k, encode(k, 0)).expect("populate");
            }
        });
        MapBench {
            heap,
            strat,
            map,
            writes: AtomicU64::new(0),
        }
    }

    fn run<const T: bool>(&self, seed: u64, secs: f64) -> Phase {
        let readers = if M::CHURN { 1 } else { 2 };
        let stop = AtomicBool::new(false);
        let start = Barrier::new(readers + usize::from(M::CHURN) + 1);
        std::thread::scope(|s| {
            let mut threads: Vec<_> = (0..readers)
                .map(|r| {
                    let (stop, start) = (&stop, &start);
                    s.spawn(move || {
                        let rng = TestRng::derive(seed, 1 + r as u64);
                        start.wait();
                        let mut p = self.reader::<T>(rng, stop);
                        if T {
                            p.spans = trace::take();
                        }
                        p
                    })
                })
                .collect();
            if M::CHURN {
                let start = &start;
                threads.push(s.spawn(move || {
                    start.wait();
                    let mut p = self.writer::<T>(secs);
                    if T {
                        p.spans = trace::take();
                    }
                    p
                }));
            }
            start.wait();
            std::thread::sleep(Duration::from_secs_f64(secs));
            stop.store(true, Ordering::Relaxed);
            let mut total = Phase::default();
            for t in threads {
                total.merge(&t.join().expect("workload thread panicked"));
            }
            total
        })
    }

    fn stats(&self) -> StatsSnapshot {
        self.strat.snapshot()
    }

    fn heap(&self) -> &Heap {
        &self.heap
    }

    fn teardown(&self) -> Vec<String> {
        let mut bad = oracle::teardown(&self.heap, &self.stats());
        let expect = ENTRIES as usize + (self.writes.load(Ordering::Relaxed) % 2) as usize;
        match self.map.len(&self.heap) {
            Ok(n) if n == expect => {}
            other => bad.push(format!("map size {other:?}, expected {expect}")),
        }
        if let Err(f) = self.map.check(&self.heap) {
            bad.push(format!("map invariants: {f:?}"));
        }
        let missing = (0..ENTRIES)
            .map(|i| 2 * i)
            .filter(|&k| !matches!(self.get::<false>(k), Ok(Some(v)) if holds(k, v)))
            .count();
        if missing > 0 {
            bad.push(format!("{missing} base keys missing or wrong"));
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_keys_cover_every_odd_key_once_per_cycle() {
        let mut seen: Vec<i64> = (0..ENTRIES as u64).map(churn_key).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..ENTRIES).map(|i| 2 * i + 1).collect::<Vec<_>>());
    }

    #[test]
    fn read_oracle() {
        assert!(read_ok(4, Ok(Some(encode(4, 9)))));
        assert!(!read_ok(4, Ok(Some(encode(6, 9)))));
        assert!(!read_ok(4, Ok(None)), "base keys are never removed");
        assert!(read_ok(5, Ok(None)), "churn keys come and go");
        assert!(!read_ok(4, Err(Fault::NullPointer)));
    }
}
