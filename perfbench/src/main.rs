//! The repository benchmark: a single-process load generator over the
//! public APIs of `solero`, `solero-collections`, `solero-heap` and
//! `solero-store`, under the paper's default SOLERO configuration.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <map-read|tree-writer|store-service> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` alternates
//! untraced and traced rounds and reports the per-layer metrics. Every line before the last is for people: the
//! host, each metric with its unit and sample count, and any violation.
//! The last line is one JSON object. The exit code is 1 when any output
//! failed the oracle, 2 on bad arguments.

mod hist;
mod maps;
mod oracle;
mod phase;
mod probe;
mod sched;
mod store;
mod trace;

use std::time::Instant;

use maps::{MapRead, TreeWriter};
use phase::{Phase, Workload};
use sched::ratio;
use solero_testkit::rng::derive_seed;
use store::StoreService;
use trace::{Layer, Name, LAYERS, NAMES};

const WORKLOADS: [&str; 3] = ["map-read", "tree-writer", "store-service"];

/// The metrics the last line carries, by mode. `BENCHMARK.json` lists
/// the same names.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "read_ops_s",
    "read_p50_ns",
    "read_p99_ns",
    "peak_rss_mb",
];
const PER_LAYER: [&str; 28] = [
    "runtime.fence_ns",
    "heap.load_ns",
    "heap.used_words",
    "heap.live_objects",
    "collections.time_frac",
    "core.time_frac",
    "core.read_self_ns",
    "core.elision_rate",
    "core.retries_per_kread",
    "core.fallback_frac",
    "core.abort.locked_at_entry",
    "core.abort.word_changed_at_exit",
    "core.abort.async_revalidation_fail",
    "core.abort.retry_exhausted_fallback",
    "core.abort.inflation",
    "core.write_fast_frac",
    "core.contention_backoffs_per_write",
    "core.inflations",
    "core.flc_waits",
    "core.monitor_enters",
    "core.speculative_faults",
    "store.time_frac",
    "store.checkpoints",
    "driver.time_frac",
    "driver.late_frac",
    "driver.timer_ns",
    "driver.p999_ns",
    "trace.overhead_frac",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            val.parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {val}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = num()?,
            "--seconds" => a.seconds = num()?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {val}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(1..=3600).contains(&a.seconds) {
        return Err("--seconds must be 1 to 3600".into());
    }
    Ok(a)
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let code = match args.workload.as_str() {
        "map-read" => bench::<MapRead>(&args),
        "tree-writer" => bench::<TreeWriter>(&args),
        _ => bench::<StoreService>(&args),
    };
    std::process::exit(code);
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Sample count or ratio base, for people.
    note: String,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        note: note.into(),
    }
}

/// A run is a series of one-second rounds, each on an instance built
/// afresh from its own seed. Reporting medians over rounds damps the
/// level shifts one instance shows on a shared host (thread and page
/// placement, tree shape), and times the set-up once per round.
const ROUND_SECS: f64 = 1.0;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// What a run keeps of one round: the figures taken as medians over
/// rounds. Everything else is pooled across rounds as they finish.
struct Round {
    setup_s: f64,
    traced: bool,
    read_rate: f64,
    read_p50: f64,
    read_p99: f64,
    op_rate: f64,
}

fn measure<W: Workload, const T: bool>(w: &W, seed: u64, secs: f64) -> Phase {
    let before = w.stats();
    let mut p = w.run::<T>(seed, secs);
    p.stats = w.stats().since(&before);
    p
}

fn bench<W: Workload>(a: &Args) -> i32 {
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    println!("{}", probe::host(a.seed));
    let rounds = (a.seconds as usize).max(if a.trace { 2 } else { 1 });
    let mut done = Vec::new();
    let (mut plain, mut traced) = (Phase::default(), Phase::default());
    let mut bad = Vec::new();
    let mut heap_end = (0, 0);
    for r in 0..rounds {
        let seed = derive_seed(a.seed, r as u64);
        let tr = a.trace && r % 2 == 1;
        let t = Instant::now();
        let w = W::setup(seed, tr);
        let setup_s = t.elapsed().as_secs_f64();
        let p = if tr {
            measure::<W, true>(&w, seed, ROUND_SECS)
        } else {
            measure::<W, false>(&w, seed, ROUND_SECS)
        };
        bad.extend(w.teardown());
        if tr {
            heap_end = (w.heap().used_words(), w.heap().live_objects());
        }
        done.push(Round {
            setup_s,
            traced: tr,
            read_rate: p.read_rate,
            read_p50: p.read.quantile(0.5),
            read_p99: p.read.quantile(0.99),
            op_rate: p.ops as f64 / p.elapsed,
        });
        if tr { &mut traced } else { &mut plain }.merge(&p);
    }
    let attempted = plain.ops + traced.ops;
    let failed = plain.failed + traced.failed + bad.len() as u64;
    for b in &bad {
        println!("violation {b}");
    }
    let (metrics, wanted): (_, &[&str]) = if a.trace {
        (per_layer::<W>(&done, &plain, &traced, heap_end), &PER_LAYER)
    } else {
        (end_to_end(&done, &plain, attempted, failed), &END_TO_END)
    };
    for x in &metrics {
        let tag = if wanted.contains(&x.name.as_str()) {
            "metric"
        } else {
            "info"
        };
        println!("{tag} {} {} {} {}", x.name, x.value, x.unit, x.note);
    }
    let body: Vec<String> = wanted
        .iter()
        .map(|&name| {
            let x = metrics
                .iter()
                .find(|x| x.name == name)
                .expect("every listed metric is computed");
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
                x.value, x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        body.join(",")
    );
    i32::from(failed > 0)
}

/// Median over the rounds traced or not, as `traced` says, of `f`.
fn med(done: &[Round], traced: bool, f: impl Fn(&Round) -> f64) -> f64 {
    median(done.iter().filter(|r| r.traced == traced).map(f).collect())
}

fn n(h: &hist::Hist) -> String {
    format!("n={}", h.count())
}

fn end_to_end(done: &[Round], all: &Phase, attempted: u64, failed: u64) -> Vec<Metric> {
    let per = format!("median of {} rounds", done.len());
    let reads = format!("{} {per}", n(&all.read));
    let mut v = vec![
        m("setup_s", med(done, false, |r| r.setup_s), "s", per.clone()),
        m(
            "read_ops_s",
            med(done, false, |r| r.read_rate),
            "ops/s",
            per.clone(),
        ),
        m(
            "read_p50_ns",
            med(done, false, |r| r.read_p50),
            "ns",
            reads.clone(),
        ),
        m("read_p99_ns", med(done, false, |r| r.read_p99), "ns", reads),
        m("peak_rss_mb", probe::peak_rss_mb(), "MiB", "VmHWM"),
        m(
            "achieved_ops_s",
            med(done, false, |r| r.op_rate),
            "ops/s",
            per,
        ),
        m(
            "failed_frac",
            ratio(failed, attempted),
            "ratio",
            format!("failed={failed} attempted={attempted}"),
        ),
    ];
    if all.read_due.count() > 0 {
        let due = &all.read_due;
        v.push(m("read_due_p50_ns", due.quantile(0.5), "ns", n(due)));
        v.push(m("read_due_p99_ns", due.quantile(0.99), "ns", n(due)));
    }
    if all.write.count() > 0 {
        v.push(m(
            "write_p50_ns",
            all.write.quantile(0.5),
            "ns",
            n(&all.write),
        ));
        v.push(m(
            "write_p99_ns",
            all.write.quantile(0.99),
            "ns",
            n(&all.write),
        ));
    }
    if all.scan.count() > 0 {
        v.push(m(
            "scan_p99_ns",
            all.scan.quantile(0.99),
            "ns",
            n(&all.scan),
        ));
    }
    v
}

fn per_layer<W: Workload>(
    done: &[Round],
    plain: &Phase,
    t: &Phase,
    heap_end: (usize, u64),
) -> Vec<Metric> {
    // Open loop: reads from due → completion, where a descheduled
    // generator shows. Closed loop: sampled service time.
    let tail = if W::OPEN_LOOP {
        &plain.read_due
    } else {
        &plain.read
    };
    let s = &t.stats;
    let reads = s.read_enters;
    let per_k = |x: u64| 1000.0 * ratio(x, reads);
    let rbase = format!("read_enters={reads}");
    let wbase = format!("write_enters={}", s.write_enters);
    let op_ns = t.spans.total(Name::Op).sum() as f64;
    let frac = |l: Layer| t.spans.layer_self_ns(l) as f64 / op_ns;
    let obase = format!("traced_op_ns={op_ns}");
    let (overhead, obasis) = if W::OPEN_LOOP {
        let (u, v) = (
            med(done, false, |r| r.read_p50),
            med(done, true, |r| r.read_p50),
        );
        (
            v / u - 1.0,
            format!("median read_p50_ns untraced={u} traced={v}"),
        )
    } else {
        let (u, v) = (
            med(done, false, |r| r.read_rate),
            med(done, true, |r| r.read_rate),
        );
        (
            1.0 - v / u,
            format!("median read_ops_s untraced={u} traced={v}"),
        )
    };
    let mut v = vec![
        m(
            "runtime.fence_ns",
            probe::fence_ns(),
            "ns",
            "storeload_fence, median of 7 batches",
        ),
        m(
            "heap.load_ns",
            probe::heap_load_ns(),
            "ns",
            "warm slot, median of 7 batches",
        ),
        m(
            "heap.used_words",
            heap_end.0 as f64,
            "words",
            "end of last traced round",
        ),
        m(
            "heap.live_objects",
            heap_end.1 as f64,
            "count",
            "end of last traced round",
        ),
        m(
            "core.read_self_ns",
            t.spans.own(Name::CoreRead).mean(),
            "ns",
            n(t.spans.own(Name::CoreRead)),
        ),
        m(
            "core.elision_rate",
            ratio(s.elision_success, s.elision_success + s.elision_failure),
            "ratio",
            format!("attempts={}", s.elision_success + s.elision_failure),
        ),
        m(
            "core.retries_per_kread",
            per_k(s.elision_failure),
            "per_kread",
            rbase.clone(),
        ),
        m(
            "core.fallback_frac",
            ratio(s.fallback_acquires, reads),
            "ratio",
            rbase.clone(),
        ),
    ];
    for (reason, count) in s.abort_reasons() {
        v.push(m(
            format!("core.abort.{reason}"),
            per_k(count),
            "per_kread",
            rbase.clone(),
        ));
    }
    v.extend([
        m(
            "core.write_fast_frac",
            ratio(s.write_fast, s.write_enters),
            "ratio",
            wbase.clone(),
        ),
        m(
            "core.contention_backoffs_per_write",
            ratio(s.contention_backoffs, s.write_enters),
            "per_write",
            wbase,
        ),
        m("core.inflations", s.inflations as f64, "count", ""),
        m("core.flc_waits", s.flc_waits as f64, "count", ""),
        m("core.monitor_enters", s.monitor_enters as f64, "count", ""),
        m(
            "core.speculative_faults",
            s.speculative_faults as f64,
            "count",
            "",
        ),
        m(
            "store.checkpoints",
            t.checkpoint.count() as f64,
            "count",
            "",
        ),
        m(
            "driver.late_frac",
            t.late.late_frac(),
            "ratio",
            format!("paced_ops={}", t.late.ops),
        ),
        m(
            "driver.timer_ns",
            probe::timer_ns(),
            "ns",
            "Instant::now, median of 7 batches",
        ),
        m("driver.p999_ns", tail.quantile(0.999), "ns", n(tail)),
        m("trace.overhead_frac", overhead, "ratio", obasis),
    ]);
    for l in LAYERS {
        v.push(m(
            format!("{}.time_frac", l.label()),
            frac(l),
            "ratio",
            obase.clone(),
        ));
    }
    // Per-call span times, for the layers this workload reaches.
    for name in NAMES {
        let (total, own) = (t.spans.total(name), t.spans.own(name));
        if total.count() > 0 {
            let note = format!(
                "{} p50={} p99={} self_mean={}",
                n(total),
                total.quantile(0.5),
                total.quantile(0.99),
                own.mean()
            );
            v.push(m(format!("{}_ns", name.label()), total.mean(), "ns", note));
        }
    }
    if t.spans.own(Name::CoreWrite).count() > 0 {
        let own = t.spans.own(Name::CoreWrite);
        v.push(m("core.write_self_ns", own.mean(), "ns", n(own)));
    }
    if t.queue.count() > 0 {
        v.push(m(
            "store.queue_p50_ns",
            t.queue.quantile(0.5),
            "ns",
            n(&t.queue),
        ));
        v.push(m(
            "store.queue_p99_ns",
            t.queue.quantile(0.99),
            "ns",
            n(&t.queue),
        ));
    }
    if t.checkpoint.count() > 0 {
        let ms = t.checkpoint.quantile(0.5) / 1e6;
        v.push(m("store.checkpoint_ms", ms, "ms", n(&t.checkpoint)));
    }
    if t.late.ops > 0 {
        v.push(m(
            "driver.max_late_us",
            t.late.max_late_ns as f64 / 1e3,
            "us",
            "",
        ));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let spec = include_str!("../../BENCHMARK.json");
        let names = spec.matches("\"name\"").count();
        assert_eq!(names, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
        for name in WORKLOADS.iter().chain(&END_TO_END).chain(&PER_LAYER) {
            assert!(
                spec.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing"
            );
        }
    }

    #[test]
    fn arguments() {
        let p = |s: &str| parse(s.split_whitespace().map(String::from));
        let a = p("--workload tree-writer --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("tree-writer", 7, 3, true)
        );
        assert!(p("--workload nope").is_err());
        assert!(p("--workload map-read --trace 2").is_err());
        assert!(p("--workload map-read --seed").is_err());
        assert!(p("--workload map-read --seconds 0").is_err());
    }
}
