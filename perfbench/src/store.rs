//! `store-service`: open-loop Zipfian traffic against a 1M-key
//! `KvStore`, with a background checkpointer taking whole-store cuts.
//!
//! Every key is populated at set-up and only ever overwritten, so every
//! get and scan must find its keys and every cut must hold all of them.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use solero::{Fault, SoleroStrategy, SyncStrategy, WriteIntent};
use solero_heap::Heap;
use solero_runtime::stats::StatsSnapshot;
use solero_store::{KvStore, StoreCheckpoint, StoreConfig};
use solero_testkit::rng::TestRng;
use solero_workloads::openloop::Schedule;
use solero_workloads::zipf::Zipf;

use crate::oracle::{self, encode, holds};
use crate::phase::{Phase, Workload, TRACE_EVERY};
use crate::sched::{since, wait_until};
use crate::trace::{self, Name};

const KEYS: i64 = 1 << 20;
const SHARDS: usize = 64;
const ZIPF_THETA: f64 = 0.99;
/// Offered operations per second: well below the single generator's
/// knee, so the loop stays on schedule.
const OFFERED: u64 = 200_000;
/// Percent of operations that are gets, then scans; the rest are puts.
const GET_PCT: u64 = 90;
const SCAN_PCT: u64 = 5;
const SCAN_LEN: usize = 64;
const CHECKPOINT_PERIOD: Duration = Duration::from_millis(500);

/// The default SOLERO strategy with spans around each section the store
/// runs and around each execution of the store's section body.
#[derive(Debug, Default)]
struct Spanned(SoleroStrategy);

impl SyncStrategy for Spanned {
    fn name(&self) -> &'static str {
        SyncStrategy::name(&self.0)
    }

    fn write_section<R>(&self, f: impl FnOnce() -> R) -> R {
        trace::span::<true, _>(Name::CoreWrite, || {
            self.0
                .write_section(|| trace::span::<true, _>(Name::StoreBody, f))
        })
    }

    fn read_section<R>(
        &self,
        mut f: impl FnMut(&mut dyn WriteIntent) -> Result<R, Fault>,
    ) -> Result<R, Fault> {
        trace::span::<true, _>(Name::CoreRead, || {
            self.0
                .read_section(|w| trace::span::<true, _>(Name::StoreBody, || f(w)))
        })
    }

    fn snapshot(&self) -> StatsSnapshot {
        SyncStrategy::snapshot(&self.0)
    }

    fn reset_stats(&self) {
        SyncStrategy::reset_stats(&self.0);
    }
}

pub struct StoreService {
    store: KvStore,
}

/// A cut must hold every key exactly once, in order, each with a value
/// stored under it.
fn cut_ok(cut: &StoreCheckpoint) -> bool {
    cut.len() == KEYS as usize
        && cut
            .shards
            .iter()
            .flat_map(|s| &s.pairs)
            .enumerate()
            .all(|(i, &(k, v))| k == i as i64 && holds(k, v))
}

/// A scan from `start` must return the next `SCAN_LEN` keys (fewer at
/// the end of the key space), in order.
fn scan_ok(start: i64, got: &Result<Vec<(i64, i64)>, Fault>) -> bool {
    let want = (KEYS - start).min(SCAN_LEN as i64) as usize;
    matches!(got, Ok(pairs) if pairs.len() == want
        && pairs
            .iter()
            .enumerate()
            .all(|(i, &(k, v))| k == start + i as i64 && holds(k, v)))
}

impl StoreService {
    fn generator<const T: bool>(&self, seed: u64, secs: f64) -> Phase {
        let zipf = Zipf::new(KEYS as u64, ZIPF_THETA);
        let mut rng = TestRng::derive(seed, 1);
        let sched = Schedule::from_rate(OFFERED);
        let end = (secs * 1e9) as u64;
        let mut p = Phase::default();
        let t0 = Instant::now();
        let mut i = 0;
        loop {
            let due = sched.intended_ns(i);
            if due >= end {
                break;
            }
            let pick = rng.next_u64() % 100;
            let key = zipf.scrambled(&mut rng) as i64;
            let start = wait_until(t0, due);
            p.late.record(due, start, sched.interval_ns());
            p.queue.record(start - due);
            let traced = i % TRACE_EVERY == 1;
            let ok = if pick < GET_PCT {
                let got = trace::op::<T, _>(traced, || {
                    trace::span::<T, _>(Name::StoreGet, || self.store.get(key))
                });
                let end = since(t0);
                p.read.record(end - start);
                p.read_due.record(end - due);
                matches!(got, Ok(Some(v)) if holds(key, v))
            } else if pick < GET_PCT + SCAN_PCT {
                let got = trace::op::<T, _>(traced, || {
                    trace::span::<T, _>(Name::StoreScan, || self.store.scan(key, SCAN_LEN))
                });
                p.scan.record(since(t0) - due);
                scan_ok(key, &got)
            } else {
                let got = trace::op::<T, _>(traced, || {
                    trace::span::<T, _>(Name::StorePut, || self.store.put(key, encode(key, i)))
                });
                p.write.record(since(t0) - due);
                matches!(got, Ok(Some(v)) if holds(key, v))
            };
            p.failed += u64::from(!ok);
            i += 1;
        }
        p.ops = i;
        p.elapsed = t0.elapsed().as_secs_f64();
        p.read_rate = p.read.count() as f64 / p.elapsed;
        p
    }

    fn checkpointer(&self, secs: f64) -> Phase {
        let mut p = Phase::default();
        let t0 = Instant::now();
        let mut due = CHECKPOINT_PERIOD / 2;
        while due.as_secs_f64() < secs {
            if let Some(wait) = due.checked_sub(t0.elapsed()) {
                std::thread::sleep(wait);
            }
            let start = Instant::now();
            let cut = self.store.checkpoint();
            p.checkpoint.record(start.elapsed().as_nanos() as u64);
            p.failed += u64::from(!matches!(&cut, Ok(c) if cut_ok(c)));
            p.ops += 1;
            due += CHECKPOINT_PERIOD;
        }
        p
    }
}

impl Workload for StoreService {
    const OPEN_LOOP: bool = true;

    fn setup(_seed: u64, spanned: bool) -> Self {
        let cfg = StoreConfig::new(KEYS).with_shards(SHARDS);
        let store = if spanned {
            KvStore::new(cfg, Spanned::default)
        } else {
            KvStore::new(cfg, SoleroStrategy::new)
        };
        // One batch, and so one install, per shard.
        let span = KEYS / SHARDS as i64;
        for lo in (0..KEYS).step_by(span as usize) {
            let pairs: Vec<(i64, i64)> = (lo..lo + span).map(|k| (k, encode(k, 0))).collect();
            store.put_many(&pairs).expect("populate");
        }
        StoreService { store }
    }

    fn run<const T: bool>(&self, seed: u64, secs: f64) -> Phase {
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            let gen = s.spawn(|| {
                start.wait();
                let mut p = self.generator::<T>(seed, secs);
                if T {
                    p.spans = trace::take();
                }
                p
            });
            // Cuts run on the calling thread, so their large buffers
            // always come from, and return to, the same allocator arena
            // and peak memory does not depend on which arena a fresh
            // thread happens to pick up.
            start.wait();
            let cuts = self.checkpointer(secs);
            let mut total = gen.join().expect("generator panicked");
            total.merge(&cuts);
            total
        })
    }

    fn stats(&self) -> StatsSnapshot {
        self.store.snapshot_stats()
    }

    fn heap(&self) -> &Heap {
        self.store.heap()
    }

    fn teardown(&self) -> Vec<String> {
        let mut bad = oracle::teardown(self.store.heap(), &self.stats());
        if !matches!(self.store.checkpoint(), Ok(c) if cut_ok(&c)) {
            bad.push("final checkpoint does not hold every key".into());
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_oracle() {
        let pairs = |lo: i64, n: i64| (lo..lo + n).map(|k| (k, encode(k, 3))).collect::<Vec<_>>();
        assert!(scan_ok(10, &Ok(pairs(10, SCAN_LEN as i64))));
        assert!(
            scan_ok(KEYS - 5, &Ok(pairs(KEYS - 5, 5))),
            "clamped at the end"
        );
        assert!(
            !scan_ok(10, &Ok(pairs(10, SCAN_LEN as i64 - 1))),
            "a key is missing"
        );
        assert!(!scan_ok(10, &Ok(pairs(11, SCAN_LEN as i64))), "wrong start");
        let mut swapped = pairs(10, SCAN_LEN as i64);
        swapped[3].1 = encode(99, 0);
        assert!(!scan_ok(10, &Ok(swapped)), "a value from another key");
        assert!(!scan_ok(10, &Err(Fault::NullPointer)));
    }
}
