//! Host description, process memory, and fixed-work probes of the
//! layers below the collections: the lock's fence, a heap slot load and
//! the clock the load generator reads.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

use solero_heap::{ClassId, Heap};
use solero_runtime::fence::storeload_fence;

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One line naming the host and build this run measured.
pub fn host(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "host nproc={nproc} cpu={:?} rustc={:?} commit={} seed={seed}",
        cpu_model(),
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "--short=12", "HEAD"]),
    )
}

/// Peak resident set (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median over several batches of the per-call cost of `f`, in ns.
fn per_call_ns(mut f: impl FnMut()) -> f64 {
    const BATCH: u32 = 200_000;
    let mut batches: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..BATCH {
                f();
            }
            t.elapsed().as_nanos() as f64 / f64::from(BATCH)
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}

/// Cost of the Store→Load fence every elided read pays at entry.
pub fn fence_ns() -> f64 {
    per_call_ns(storeload_fence)
}

/// Cost of `Heap::load` on a slot already in cache.
pub fn heap_load_ns() -> f64 {
    const CLASS: ClassId = ClassId::new(90);
    let heap = Heap::new(64);
    let obj = heap.alloc(CLASS, 4).expect("probe heap");
    per_call_ns(|| {
        black_box(
            heap.load(black_box(obj), CLASS, 1)
                .expect("live probe object"),
        );
    })
}

/// Cost of one clock read, which every span and latency sample pays.
pub fn timer_ns() -> f64 {
    per_call_ns(|| {
        black_box(Instant::now());
    })
}
