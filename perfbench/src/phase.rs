//! What one measured phase of a workload produced, and the interface
//! each workload offers the runner.

use solero_heap::Heap;
use solero_runtime::stats::StatsSnapshot;

use crate::hist::Hist;
use crate::sched::Lateness;
use crate::trace::SpanStats;

/// A closed-loop thread times one operation in this many.
pub const LATENCY_EVERY: u64 = 256;
/// A traced phase records spans for one operation in this many.
pub const TRACE_EVERY: u64 = 16;

#[derive(Clone, Default)]
pub struct Phase {
    /// Completed reads (gets) per second, summed over reading threads.
    pub read_rate: f64,
    /// Wall time of the phase, in seconds (longest thread).
    pub elapsed: f64,
    /// Service time of reads (call start → completion); a closed loop
    /// samples it.
    pub read: Hist,
    /// Open loop: reads from due → completion.
    pub read_due: Hist,
    /// Writes and scans from due → completion.
    pub write: Hist,
    pub scan: Hist,
    /// Operations issued: gets, scans, writes and checkpoints.
    pub ops: u64,
    /// Operations that errored or failed the oracle.
    pub failed: u64,
    /// Open loop: due → call start.
    pub queue: Hist,
    pub late: Lateness,
    pub checkpoint: Hist,
    /// Lock counters over the phase.
    pub stats: StatsSnapshot,
    pub spans: SpanStats,
}

impl Phase {
    pub fn merge(&mut self, o: &Phase) {
        self.read_rate += o.read_rate;
        self.elapsed = self.elapsed.max(o.elapsed);
        self.ops += o.ops;
        self.failed += o.failed;
        self.read.merge(&o.read);
        self.read_due.merge(&o.read_due);
        self.write.merge(&o.write);
        self.scan.merge(&o.scan);
        self.queue.merge(&o.queue);
        self.late.merge(&o.late);
        self.checkpoint.merge(&o.checkpoint);
        self.stats = self.stats.merge(&o.stats);
        self.spans.merge(&o.spans);
    }
}

pub trait Workload: Sized + Sync {
    /// Whether the reads run on a schedule (open loop) or back to back.
    const OPEN_LOOP: bool;

    /// Builds and populates the program state. `spanned` asks for
    /// spans inside the lock sections the library runs on its own.
    fn setup(seed: u64, spanned: bool) -> Self;

    /// Runs the traffic for `secs` seconds. `TRACED` records spans.
    fn run<const TRACED: bool>(&self, seed: u64, secs: f64) -> Phase;

    /// Cumulative lock counters.
    fn stats(&self) -> StatsSnapshot;

    fn heap(&self) -> &Heap;

    /// Invariant violations once all threads have stopped.
    fn teardown(&self) -> Vec<String>;
}
