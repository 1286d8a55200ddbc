//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Nothing inside the libraries is instrumented. The load generator opens a
//! root span per traced operation, spans around each call into a
//! layer's public functions, and (for the store) spans inside a wrapper
//! strategy around the section bodies the store hands to the lock. A
//! span's self time is its duration minus the part of it that its
//! direct children cover. Spans of one operation live in a thread-local
//! buffer until the operation ends, then fold into per-name histograms,
//! so memory stays bounded however long the run.
//!
//! Every entry point takes a `const ON: bool`: the untraced build of a
//! workload compiles the spans away, so end-to-end numbers pay nothing.

use std::cell::RefCell;
use std::time::Instant;

use crate::hist::Hist;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own load generator.
    Driver,
    Core,
    Collections,
    Store,
}

pub const LAYERS: [Layer; 4] = [Layer::Driver, Layer::Core, Layer::Collections, Layer::Store];

impl Layer {
    pub fn label(self) -> &'static str {
        match self {
            Layer::Driver => "driver",
            Layer::Core => "core",
            Layer::Collections => "collections",
            Layer::Store => "store",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// Root span: one whole operation as the load generator issues it.
    Op,
    /// `SyncStrategy::read_section`, retries included.
    CoreRead,
    /// `SyncStrategy::write_section`.
    CoreWrite,
    CollGet,
    CollPut,
    CollRemove,
    StoreGet,
    StoreScan,
    StorePut,
    /// One execution of a store section body inside the lock.
    StoreBody,
}

/// Every name, in declaration order: `NAMES[n as usize] == n`.
pub const NAMES: [Name; 10] = [
    Name::Op,
    Name::CoreRead,
    Name::CoreWrite,
    Name::CollGet,
    Name::CollPut,
    Name::CollRemove,
    Name::StoreGet,
    Name::StoreScan,
    Name::StorePut,
    Name::StoreBody,
];

impl Name {
    pub fn label(self) -> &'static str {
        match self {
            Name::Op => "driver.op",
            Name::CoreRead => "core.read",
            Name::CoreWrite => "core.write",
            Name::CollGet => "collections.get",
            Name::CollPut => "collections.put",
            Name::CollRemove => "collections.remove",
            Name::StoreGet => "store.get",
            Name::StoreScan => "store.scan",
            Name::StorePut => "store.put",
            Name::StoreBody => "store.body",
        }
    }

    pub fn layer(self) -> Layer {
        match self {
            Name::Op => Layer::Driver,
            Name::CoreRead | Name::CoreWrite => Layer::Core,
            Name::CollGet | Name::CollPut | Name::CollRemove => Layer::Collections,
            Name::StoreGet | Name::StoreScan | Name::StorePut | Name::StoreBody => Layer::Store,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: Name,
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids = Vec::new();
    spans
        .iter()
        .enumerate()
        .map(|(i, p)| {
            kids.clear();
            kids.extend(
                spans
                    .iter()
                    .filter(|c| c.parent == Some(i))
                    .map(|c| (c.start.max(p.start), c.end.min(p.end)))
                    .filter(|(s, e)| s < e),
            );
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, p.start);
            for &(s, e) in &kids {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            (p.end - p.start).saturating_sub(covered)
        })
        .collect()
}

/// Per-name duration and self-time histograms.
#[derive(Clone, Default)]
pub struct SpanStats {
    pub total: [Hist; NAMES.len()],
    pub own: [Hist; NAMES.len()],
}

impl SpanStats {
    pub fn merge(&mut self, other: &SpanStats) {
        for i in 0..NAMES.len() {
            self.total[i].merge(&other.total[i]);
            self.own[i].merge(&other.own[i]);
        }
    }

    pub fn total(&self, name: Name) -> &Hist {
        &self.total[name as usize]
    }

    pub fn own(&self, name: Name) -> &Hist {
        &self.own[name as usize]
    }

    /// Sum of self time over every span of `layer`, in ns.
    pub fn layer_self_ns(&self, layer: Layer) -> u128 {
        NAMES
            .iter()
            .filter(|n| n.layer() == layer)
            .map(|&n| self.own(n).sum())
            .sum()
    }

    fn fold(&mut self, spans: &[Span]) {
        for (s, own) in spans.iter().zip(self_times(spans)) {
            self.total[s.name as usize].record(s.end - s.start);
            self.own[s.name as usize].record(own);
        }
    }
}

struct Recorder {
    active: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    stats: SpanStats,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        active: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        stats: SpanStats::default(),
    });
}

/// Runs one generated operation; when `ON && traced`, records it as a root
/// span with everything `span` records beneath it.
#[inline(always)]
pub fn op<const ON: bool, R>(traced: bool, f: impl FnOnce() -> R) -> R {
    if !ON || !traced {
        return f();
    }
    REC.with(|r| r.borrow_mut().active = true);
    let out = span::<true, R>(Name::Op, f);
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let r = &mut *r;
        r.active = false;
        r.stats.fold(&r.spans);
        r.spans.clear();
    });
    out
}

/// Records `f` as a span named `name` when an operation on this thread
/// is being traced.
#[inline(always)]
pub fn span<const ON: bool, R>(name: Name, f: impl FnOnce() -> R) -> R {
    if !ON {
        return f();
    }
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.active {
            return None;
        }
        let start = r.epoch.elapsed().as_nanos() as u64;
        let parent = r.open.last().copied();
        r.spans.push(Span {
            name,
            parent,
            start,
            end: start,
        });
        let idx = r.spans.len() - 1;
        r.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            r.spans[idx].end = r.epoch.elapsed().as_nanos() as u64;
            r.open.pop();
        });
    }
    out
}

/// Takes this thread's accumulated span statistics.
pub fn take() -> SpanStats {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: Name, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn names_index_their_own_slot() {
        for (i, n) in NAMES.iter().enumerate() {
            assert_eq!(*n as usize, i, "{}", n.label());
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            s(Name::Op, None, 0, 100),
            s(Name::CoreRead, Some(0), 10, 90),
            s(Name::CollGet, Some(1), 20, 50),
        ];
        // The grandchild counts against its parent, not the root.
        assert_eq!(self_times(&spans), vec![20, 50, 30]);
    }

    #[test]
    fn self_time_with_retried_children() {
        // A section that ran its body three times (two retries).
        let spans = [
            s(Name::CoreRead, None, 0, 100),
            s(Name::CollGet, Some(0), 5, 20),
            s(Name::CollGet, Some(0), 30, 45),
            s(Name::CollGet, Some(0), 60, 80),
        ];
        assert_eq!(self_times(&spans), vec![50, 15, 15, 20]);
    }

    #[test]
    fn self_time_merges_overlap_and_clips_to_the_parent() {
        let spans = [
            s(Name::Op, None, 10, 50),
            s(Name::StoreGet, Some(0), 0, 20),
            s(Name::StoreScan, Some(0), 15, 30),
            s(Name::StorePut, Some(0), 45, 70),
        ];
        // Children cover [10, 30) and [45, 50): 25 of the root's 40 ns.
        assert_eq!(self_times(&spans)[0], 15);
    }

    #[test]
    fn recorder_nests_spans_and_folds_per_operation() {
        let _ = take();
        let got = op::<true, _>(true, || {
            span::<true, _>(Name::CoreRead, || {
                span::<true, _>(Name::CollGet, || 1) + span::<true, _>(Name::CollGet, || 2)
            })
        });
        assert_eq!(got, 3);
        // Untraced operations and spans outside an operation record nothing.
        op::<true, _>(false, || span::<true, _>(Name::CoreRead, || ()));
        span::<true, _>(Name::CoreWrite, || ());
        let stats = take();
        assert_eq!(stats.total(Name::Op).count(), 1);
        assert_eq!(stats.total(Name::CoreRead).count(), 1);
        assert_eq!(stats.total(Name::CollGet).count(), 2);
        assert_eq!(stats.total(Name::CoreWrite).count(), 0);
        let read = stats.total(Name::CoreRead).sum();
        let gets = stats.total(Name::CollGet).sum();
        assert_eq!(stats.own(Name::CoreRead).sum(), read - gets);
    }
}
