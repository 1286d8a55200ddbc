//! `bench_store` — the MVCC snapshot store under open-loop Zipfian
//! traffic, swept over the full strategy fleet and emitted as
//! `BENCH_store.json`.
//!
//! ```text
//! bench_store [--quick] [--out PATH]
//! ```
//!
//! Unlike every other bench in the repo this one is **open-loop**: each
//! worker fires get/scan/put operations on a fixed arrival schedule and
//! latency is measured intended-start → completion, so a stalled lock
//! is charged for every operation it displaces (no coordinated
//! omission). Keys are Zipfian (θ = 0.99 over ≥1M keys in the full
//! run), scrambled across the range shards; a background checkpointer
//! takes whole-store snapshots throughout, exactly the workload the
//! store's lock-validated snapshots exist for: the shard's strategy
//! lock is the only validator, so every store read abort is the lock's
//! own: `locked_at_entry`, `word_changed_at_exit`, or
//! `async_revalidation_fail` from a scan's per-bucket check-point.
//! Each strategy's cell reports p50/p99/p999 latency, achieved vs
//! offered throughput, and the abort taxonomy.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use solero_bench::figures::fleet;
use solero_store::{KvStore, StoreConfig};
use solero_workloads::openloop::{populate, run_open_loop, OpenLoopConfig, OpenLoopReport, OpMix};

struct Shape {
    store: StoreConfig,
    run: OpenLoopConfig,
    checkpoint_every: Duration,
}

/// The full shape targets a modest offered load on purpose: open-loop
/// latency is only meaningful when the offered rate is sustainable, and
/// CI containers may expose a single core. 2 workers × 4 kops/s keeps
/// the arrival schedule honest (mostly sleep-paced, not spin-starved)
/// while 3 × 1 s windows still collect 24 k samples per strategy.
fn shape(quick: bool) -> Shape {
    if quick {
        Shape {
            store: StoreConfig::new(4096).with_shards(8),
            run: OpenLoopConfig::quick(),
            checkpoint_every: Duration::from_millis(50),
        }
    } else {
        Shape {
            store: StoreConfig::new(1 << 20).with_shards(64),
            run: OpenLoopConfig {
                workers: 2,
                rate_per_worker: 4_000,
                window: Duration::from_secs(1),
                windows: 3,
                warmup_ops: 4_000,
                mix: OpMix::read_heavy(),
                theta: 0.99,
                seed: 0x5EED_0570,
            },
            // A full-store cut clones ~1M pairs; pace it so the
            // checkpointer contends with — not drowns — the workers.
            checkpoint_every: Duration::from_millis(250),
        }
    }
}

struct Cell {
    strategy: &'static str,
    report: OpenLoopReport,
    checkpoints: u64,
}

impl Cell {
    fn to_json(&self) -> String {
        let r = &self.report;
        let s = &r.stats;
        format!(
            "{{\"strategy\":\"{}\",\"ops\":{},\"elapsed_secs\":{:.4},\
             \"achieved_ops_per_sec\":{:.1},\"offered_ops_per_sec\":{:.1},\
             \"late_starts\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\
             \"p999_ns\":{},\"samples\":{},\"read_enters\":{},\"read_aborts\":{},\
             \"elision_success\":{},\"fallback_acquires\":{},\"checkpoints\":{}}}",
            self.strategy,
            r.ops,
            r.elapsed_secs,
            r.achieved,
            r.offered,
            r.late_starts,
            r.latency.p50,
            r.latency.p90,
            r.latency.p99,
            r.latency.p999,
            r.latency.samples,
            s.read_enters,
            s.read_aborts,
            s.elision_success,
            s.fallback_acquires,
            self.checkpoints,
        )
    }
}

/// One fleet cell: build, populate, then run the open loop with a
/// background checkpointer snapshotting the whole store throughout.
fn run_cell(sh: &Shape, strategy: &'static str, make: fn() -> solero::BoxedStrategy) -> Cell {
    let store = KvStore::new_boxed(sh.store, make);
    populate(&store, |k| k * 3 + 1);
    let stop = AtomicBool::new(false);
    let (report, checkpoints) = std::thread::scope(|s| {
        let ck = s.spawn(|| {
            let mut cuts = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let cut = store.checkpoint().expect("checkpoint cannot genuinely fault");
                assert_eq!(
                    cut.len(),
                    sh.store.keys as usize,
                    "checkpoint lost keys under load"
                );
                cuts += 1;
                std::thread::sleep(sh.checkpoint_every);
            }
            cuts
        });
        let report = run_open_loop(&store, &sh.run);
        stop.store(true, Ordering::Relaxed);
        (report, ck.join().expect("checkpointer panicked"))
    });
    eprintln!(
        "  [{strategy:>15}] {:>9.0} ops/s achieved / {:>9.0} offered, \
         p50 {:>6} ns, p99 {:>8} ns, p999 {:>9} ns, {} late, {} aborts, {} cuts",
        report.achieved,
        report.offered,
        report.latency.p50,
        report.latency.p99,
        report.latency.p999,
        report.late_starts,
        report.stats.read_aborts,
        checkpoints,
    );
    Cell {
        strategy,
        report,
        checkpoints,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_store.json"));
    let sh = shape(quick);

    eprintln!(
        "bench_store: {} keys, {} shards, theta {}, {} workers x {} ops/s, {} x {:?} windows",
        sh.store.keys,
        sh.store.shards,
        sh.run.theta,
        sh.run.workers,
        sh.run.rate_per_worker,
        sh.run.windows,
        sh.run.window,
    );

    let cells: Vec<Cell> = fleet()
        .iter()
        .map(|e| run_cell(&sh, e.name, e.make))
        .collect();
    let runs = cells.iter().map(Cell::to_json).collect::<Vec<_>>().join(",\n    ");

    // Hand-assembled like BENCH_adaptive.json / BENCH_bravo.json; must
    // stay `solero_obs::json` re-parseable (tests/bench_artifacts.rs).
    let doc = format!(
        "{{\n  \"workload\": \"store-open-loop-zipfian\",\n  \
         \"keys\": {},\n  \
         \"shards\": {},\n  \
         \"theta\": {},\n  \
         \"workers\": {},\n  \
         \"rate_per_worker\": {},\n  \
         \"window_ms\": {},\n  \
         \"windows\": {},\n  \
         \"get_pct\": {},\n  \
         \"scan_pct\": {},\n  \
         \"scan_len\": {},\n  \
         \"runs\": [\n    {runs}\n  ]\n}}\n",
        sh.store.keys,
        sh.store.shards,
        sh.run.theta,
        sh.run.workers,
        sh.run.rate_per_worker,
        sh.run.window.as_millis(),
        sh.run.windows,
        sh.run.mix.get_pct,
        sh.run.mix.scan_pct,
        sh.run.mix.scan_len,
    );
    std::fs::write(&out, &doc).unwrap_or_else(|e| panic!("write {}: {e}", out.display()));
    eprintln!("wrote {}", out.display());
}
