//! Compact per-object locks over the global monitor table.
//!
//! This is the Compact Java Monitors design (Dice & Kogan, arXiv
//! 2102.04188) grafted onto the SOLERO elision protocol: the per-object
//! lock state shrinks to a **single eight-byte word** — the
//! [`CompactWord`] layout keeps the sequence counter *inside* the held
//! word, so there is no out-of-band `saved_v1` cell, no per-lock config,
//! no per-lock stats — and everything inflated, contended, or waiting
//! lives in the process-global [`MonitorTable`], keyed by the word's
//! address plus an allocation generation.
//!
//! The split is deliberate: a heap of millions of mostly-uncontended
//! objects pays eight bytes per object, while the handful that actually
//! inflate pay for a monitor only while contended — deflation prunes the
//! table entry again (see [`SoleroLock`](crate::SoleroLock)'s `exit_fat`
//! for the removal-ordering argument, which this module shares).
//!
//! Shared knobs and counters live in a [`CompactSpace`], one per lock
//! *population* (a heap, a bench fleet, a test): operations go through a
//! [`CompactRef`], which borrows the space and the word.
//!
//! The space carries no adaptive policy: per-lock abort histories are
//! precisely the per-object state this layout exists to avoid. Adaptive
//! elision remains a [`SoleroLock`](crate::SoleroLock) feature.

use std::sync::Arc;

use solero_sync::atomic::{AtomicU64, Ordering};

use solero_obs::{AbortReason, EventKind, LockEvent, RecentAborts};
use solero_runtime::fault::Fault;
use solero_runtime::osmonitor::{MonitorKey, MonitorTable, OsMonitor};
use solero_runtime::spin::Probe;
use solero_runtime::stats::LockStats;
use solero_runtime::thread::ThreadId;
use solero_runtime::word::{
    CompactWord, COMPACT_CTR_STEP, SOLERO_RECURSION_MAX, SOLERO_RECURSION_STEP,
};

use crate::config::{ElisionMode, SoleroConfig};
use crate::lock::FLC_RECHECK;
use crate::read::Attempt;

/// Shared configuration and statistics for a population of compact
/// locks.
///
/// Individual locks are bare eight-byte words ([`CompactLock`], or any
/// `AtomicU64` slot such as a heap cell); a `CompactSpace` holds
/// everything that would otherwise bloat them — the [`SoleroConfig`],
/// the aggregate [`LockStats`], and the recent-abort history. All
/// counters aggregate across the population, and the taxonomy invariant
/// `read_aborts == abort_reason_sum()` holds space-wide.
///
/// # Examples
///
/// ```
/// use solero::{CompactLock, CompactSpace, Fault};
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let space = CompactSpace::new();
/// let lock = CompactLock::new();
/// let data = AtomicU64::new(0);
///
/// lock.bind(&space).write(|| data.store(42, Ordering::Release));
/// let seen = lock
///     .bind(&space)
///     .read_only(|| Ok::<_, Fault>(data.load(Ordering::Acquire)))
///     .unwrap();
/// assert_eq!(seen, 42);
/// assert_eq!(space.stats().snapshot().elision_success, 1);
/// ```
#[derive(Debug)]
pub struct CompactSpace {
    config: SoleroConfig,
    stats: LockStats,
    recent: RecentAborts,
}

impl Default for CompactSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl CompactSpace {
    /// A space with the paper's default configuration.
    pub fn new() -> Self {
        Self::with_config(SoleroConfig::default())
    }

    /// A space with explicit configuration. An `adaptive` setting is
    /// ignored — compact locks carry no per-lock policy state.
    pub fn with_config(config: SoleroConfig) -> Self {
        CompactSpace {
            config,
            stats: LockStats::default(),
            recent: RecentAborts::new(),
        }
    }

    /// The space's configuration.
    pub fn config(&self) -> &SoleroConfig {
        &self.config
    }

    /// Aggregate statistics across every lock in the space.
    pub fn stats(&self) -> &LockStats {
        &self.stats
    }

    /// Aggregate per-class recent-abort history.
    pub fn recent_aborts(&self) -> &RecentAborts {
        &self.recent
    }

    /// Binds a raw lock word to this space under `key`, yielding the
    /// operation handle. The caller owns the identity discipline: `key`
    /// must be stable for the word's lifetime and never shared by two
    /// live locks (heap cells use the slot address plus the heap
    /// allocation generation; see `solero-heap`'s `lock_key`).
    pub fn lock<'a>(&'a self, word: &'a AtomicU64, key: MonitorKey) -> CompactRef<'a> {
        CompactRef {
            space: self,
            word,
            key,
        }
    }

    /// True if the global monitor table holds an entry for `key`.
    /// Quiescent locks must read `false`.
    pub fn resident(&self, key: MonitorKey) -> bool {
        MonitorTable::global().existing(key).is_some()
    }

    /// Sweeps `key`'s monitor-table entry, if any. Call when a lock
    /// word's storage is reclaimed outside a [`CompactLock`]'s `Drop`
    /// (e.g. a heap object freed while a lingering entry exists).
    pub fn detach(&self, key: MonitorKey) {
        MonitorTable::global().remove(key);
    }
}

/// A standalone eight-byte compact lock cell.
///
/// The entire per-lock footprint is this word — `size_of::<CompactLock>()
/// == 8` — which is the measured point of `bench_compact`. All
/// operations go through [`CompactLock::bind`], which pairs the cell
/// with a [`CompactSpace`].
///
/// Heap-resident locks don't need this type at all: any `AtomicU64`
/// slot works via [`CompactSpace::lock`] with a generation-bearing key.
#[derive(Debug)]
pub struct CompactLock {
    word: AtomicU64,
}

impl Default for CompactLock {
    fn default() -> Self {
        Self::new()
    }
}

impl CompactLock {
    /// An unlocked cell (counter zero). `const`, so compact locks can
    /// be embedded in statics and arrays.
    pub const fn new() -> Self {
        CompactLock {
            word: AtomicU64::new(0),
        }
    }

    /// This cell's monitor-table identity: its address under the raw
    /// (generation 0) namespace. Stable for the cell's lifetime; `Drop`
    /// sweeps the entry, so address reuse by a *later* `CompactLock`
    /// starts fresh.
    pub fn key(&self) -> MonitorKey {
        MonitorKey::of_addr(&self.word as *const _ as usize)
    }

    /// Pairs this cell with a space for one or more operations.
    pub fn bind<'a>(&'a self, space: &'a CompactSpace) -> CompactRef<'a> {
        space.lock(&self.word, self.key())
    }
}

impl Drop for CompactLock {
    fn drop(&mut self) {
        MonitorTable::global().remove(self.key());
    }
}

/// Operation handle: a compact lock word bound to its
/// [`CompactSpace`]. Cheap to construct on every use.
#[derive(Debug, Clone, Copy)]
pub struct CompactRef<'a> {
    space: &'a CompactSpace,
    word: &'a AtomicU64,
    key: MonitorKey,
}

impl<'a> CompactRef<'a> {
    /// The current raw word (diagnostics and tests).
    pub fn raw_word(&self) -> CompactWord {
        CompactWord(self.word.load(Ordering::Acquire))
    }

    /// The monitor-table identity this handle operates under.
    pub fn key(&self) -> MonitorKey {
        self.key
    }

    /// True if the lock is currently in fat (inflated) mode.
    pub fn is_inflated(&self) -> bool {
        self.raw_word().is_inflated()
    }

    /// True if the global monitor table holds an entry for this lock.
    pub fn monitor_resident(&self) -> bool {
        self.space.resident(self.key)
    }

    /// True if any thread holds the lock (thin or fat).
    pub fn is_locked(&self) -> bool {
        let w = self.raw_word();
        if w.is_inflated() {
            self.monitor_existing().is_some_and(|m| m.is_owned())
        } else {
            w.is_held_flat()
        }
    }

    /// True if `tid` holds the lock.
    pub fn holds(&self, tid: ThreadId) -> bool {
        let w = self.raw_word();
        if w.is_inflated() {
            self.monitor_existing().is_some_and(|m| m.owned_by(tid))
        } else {
            w.tid() == Some(tid)
        }
    }

    #[inline]
    fn obs_id(&self) -> u64 {
        self.key.addr as u64
    }

    fn monitor_existing(&self) -> Option<Arc<OsMonitor>> {
        MonitorTable::global().existing(self.key)
    }

    /// Books one aborted speculative read attempt; replicates
    /// `SoleroLock::note_abort` minus the adaptive-policy hook, so the
    /// space-wide taxonomy invariant holds.
    #[cold]
    fn note_abort(&self, reason: AbortReason) {
        let stats = &self.space.stats;
        stats.read_aborts.fetch_add(1, Ordering::Relaxed);
        let counter = match reason {
            AbortReason::LockedAtEntry => &stats.abort_locked_at_entry,
            AbortReason::WordChangedAtExit => &stats.abort_word_changed_at_exit,
            AbortReason::AsyncRevalidationFail => &stats.abort_async_revalidation,
            AbortReason::RetryExhaustedFallback => &stats.abort_retry_exhausted,
            AbortReason::Inflation => &stats.abort_inflation,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.space.recent.note(reason);
        solero_obs::emit(|| LockEvent::now(self.obs_id(), EventKind::Abort(reason)));
    }

    /// Runs `f` as a writing critical section.
    pub fn write<R>(&self, f: impl FnOnce() -> R) -> R {
        let tid = ThreadId::current();
        self.enter_write(tid);
        let r = f();
        self.exit_write(tid);
        r
    }

    /// Acquires the lock for writing. Unlike
    /// [`SoleroLock::enter_write`](crate::SoleroLock::enter_write) there
    /// is no ticket: the displaced counter rides inside the held word,
    /// which is the compact layout's point.
    pub fn enter_write(&self, tid: ThreadId) {
        self.space.stats.write_enters.fetch_add(1, Ordering::Relaxed);
        let v1 = CompactWord(self.word.load(Ordering::Relaxed));
        if v1.is_elidable()
            && self
                .word
                .compare_exchange(
                    v1.raw(),
                    CompactWord::held_by(v1, tid).raw(),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                )
                .is_ok()
        {
            self.space.stats.write_fast.fetch_add(1, Ordering::Relaxed);
            solero_obs::emit(|| LockEvent::now(self.obs_id(), EventKind::WriteAcquire));
            return;
        }
        self.slow_enter_write(tid);
        solero_obs::emit(|| LockEvent::now(self.obs_id(), EventKind::WriteAcquire));
    }

    /// Releases a writing critical section.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `tid` holds the lock.
    pub fn exit_write(&self, tid: ThreadId) {
        solero_obs::emit(|| LockEvent::now(self.obs_id(), EventKind::WriteRelease));
        let v2 = CompactWord(self.word.load(Ordering::Relaxed));
        if v2.fast_releasable() {
            debug_assert_eq!(v2.tid(), Some(tid), "release by non-owner");
            self.word.store(v2.release_word().raw(), Ordering::Release);
            return;
        }
        self.slow_exit_write(tid, v2);
    }

    #[cold]
    fn slow_enter_write(&self, tid: ThreadId) {
        loop {
            let v = CompactWord(self.word.load(Ordering::Acquire));
            if v.is_inflated() {
                if self.enter_fat(tid) {
                    return;
                }
                continue;
            }
            if v.tid() == Some(tid) {
                // Recursive flat acquisition.
                if v.recursion() == SOLERO_RECURSION_MAX {
                    self.inflate_held(tid, v);
                    // The new level, on the now-tabled monitor.
                    MonitorTable::global()
                        .existing(self.key)
                        .expect("inflate_held tables the monitor")
                        .enter(tid);
                    return;
                }
                self.word.fetch_add(SOLERO_RECURSION_STEP, Ordering::Relaxed);
                self.space
                    .stats
                    .recursive_enters
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
            if v.is_elidable() {
                if self
                    .word
                    .compare_exchange(
                        v.raw(),
                        CompactWord::held_by(v, tid).raw(),
                        Ordering::AcqRel,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    return;
                }
                continue;
            }
            // Held by another thread (or FLC pending): probe under the
            // history-keyed contention manager, then park.
            let spun = self.space.config.contention.run_observed(
                || {
                    let v = CompactWord(self.word.load(Ordering::Acquire));
                    if v.is_elidable() {
                        if self
                            .word
                            .compare_exchange(
                                v.raw(),
                                CompactWord::held_by(v, tid).raw(),
                                Ordering::AcqRel,
                                Ordering::Relaxed,
                            )
                            .is_ok()
                        {
                            return Probe::Done(true);
                        }
                    } else if v.needs_monitor() {
                        return Probe::Done(false);
                    }
                    Probe::Retry
                },
                |_| {
                    self.space
                        .stats
                        .contention_backoffs
                        .fetch_add(1, Ordering::Relaxed);
                },
            );
            match spun {
                Some(true) => return,
                Some(false) | None => {
                    if self.enter_via_monitor(tid) {
                        return;
                    }
                }
            }
        }
    }

    /// Fat-mode entry with the binding check of `SoleroLock::enter_fat`:
    /// resolve the tabled monitor, take it, confirm the word still names
    /// that monitor's id.
    fn enter_fat(&self, tid: ThreadId) -> bool {
        let Some(m) = self.monitor_existing() else {
            return false;
        };
        m.enter(tid);
        let v = CompactWord(self.word.load(Ordering::Acquire));
        if v.monitor_id() == Some(m.id()) {
            self.space
                .stats
                .monitor_enters
                .fetch_add(1, Ordering::Relaxed);
            true
        } else {
            m.exit(tid);
            false
        }
    }

    /// FLC protocol under the monitor, with the staleness discipline of
    /// `SoleroLock::enter_via_monitor`: every iteration re-verifies the
    /// key→monitor binding (ownership pins it) and inflated words are
    /// only trusted when their id matches the owned monitor.
    fn enter_via_monitor(&self, tid: ThreadId) -> bool {
        let table = MonitorTable::global();
        let m = table.monitor_for(self.key);
        m.enter(tid);
        loop {
            if !table.is_current(self.key, &m) {
                m.exit(tid);
                return false;
            }
            let v = CompactWord(self.word.load(Ordering::Acquire));
            if v.is_inflated() {
                if v.monitor_id() == Some(m.id()) {
                    self.space
                        .stats
                        .monitor_enters
                        .fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                m.exit(tid);
                return false;
            }
            if !v.is_held_flat() {
                // Free counter word (FLC possibly set): inflate. The
                // displaced value advances the in-word counter one step
                // past anything a speculative reader may have captured.
                let displaced = v.release_word().raw();
                if self
                    .word
                    .compare_exchange(
                        v.raw(),
                        CompactWord::inflated(m.id()).raw(),
                        Ordering::AcqRel,
                        Ordering::Relaxed,
                    )
                    .is_ok()
                {
                    m.set_displaced(displaced);
                    self.space.stats.inflations.fetch_add(1, Ordering::Relaxed);
                    self.space
                        .stats
                        .monitor_enters
                        .fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                continue;
            }
            // Held flat by another thread: publish contention and park.
            if v.has_flc()
                || self
                    .word
                    .compare_exchange(
                        v.raw(),
                        v.with_flc().raw(),
                        Ordering::AcqRel,
                        Ordering::Relaxed,
                    )
                    .is_ok()
            {
                self.space.stats.flc_waits.fetch_add(1, Ordering::Relaxed);
                m.wait_timeout(tid, FLC_RECHECK);
            }
        }
    }

    /// Inflates while `tid` holds the flat lock (recursion saturation).
    /// The displaced counter comes straight out of the held word — the
    /// `saved_v1` side cell the [`SoleroWord`] layout needs does not
    /// exist here.
    ///
    /// [`SoleroWord`]: solero_runtime::word::SoleroWord
    fn inflate_held(&self, tid: ThreadId, v: CompactWord) {
        debug_assert_eq!(v.tid(), Some(tid));
        let m = MonitorTable::global().monitor_for(self.key);
        m.enter(tid);
        for _ in 0..v.recursion() {
            m.enter(tid);
        }
        m.set_displaced(v.release_word().raw());
        self.word
            .store(CompactWord::inflated(m.id()).raw(), Ordering::Release);
        self.space.stats.inflations.fetch_add(1, Ordering::Relaxed);
        m.notify_all();
    }

    #[cold]
    fn slow_exit_write(&self, tid: ThreadId, v: CompactWord) {
        if v.is_inflated() {
            // A fat *writing* release advances the displaced counter so
            // deflation never republishes a captured value.
            let m = self
                .monitor_existing()
                .expect("fat owner's monitor must be tabled");
            debug_assert!(m.owned_by(tid), "fat release by non-owner");
            m.bump_displaced(COMPACT_CTR_STEP);
            self.exit_fat(tid);
            return;
        }
        debug_assert_eq!(v.tid(), Some(tid), "release by non-owner");
        if v.recursion() > 0 {
            self.word.fetch_sub(SOLERO_RECURSION_STEP, Ordering::Release);
            return;
        }
        // FLC set while we held the lock: release under the monitor and
        // wake contenders; lookup-only, as in `SoleroLock`.
        debug_assert!(v.has_flc());
        match self.monitor_existing() {
            Some(m) => {
                m.enter(tid);
                self.word.store(v.release_word().raw(), Ordering::Release);
                m.notify_all();
                m.exit(tid);
            }
            None => self.word.store(v.release_word().raw(), Ordering::Release),
        }
    }

    /// Final fat release: deflate when uncontended — prune the table
    /// entry **first**, then publish the displaced counter (same
    /// ordering argument as `SoleroLock::exit_fat`).
    fn exit_fat(&self, tid: ThreadId) {
        let table = MonitorTable::global();
        let m = table
            .existing(self.key)
            .expect("fat owner's monitor must be tabled");
        debug_assert!(m.owned_by(tid), "fat release by non-owner");
        if m.depth(tid) == 1 && m.idle_for_deflation() {
            let removed = table.remove_if(self.key, &m);
            debug_assert!(removed, "deflater's binding must still be current");
            self.word.store(m.displaced(), Ordering::Release);
            self.space.stats.deflations.fetch_add(1, Ordering::Relaxed);
            m.notify_all();
        } else {
            // Handoff republish: a fat exit that does NOT deflate leaves
            // the inflated word untouched, so the next fat enterer's
            // acquire load of the word would otherwise synchronize with
            // the *inflater's* store — not with this section's writes.
            // The monitor's own mutex orders the handoff on real
            // hardware, but the release edge must also travel through
            // the word so the protocol is self-contained (and visible to
            // the model checker): republish the same inflated value as
            // an RMW before surrendering ownership.
            self.word.fetch_add(0, Ordering::AcqRel);
        }
        m.exit(tid);
    }

    /// Releases a read section that ended up holding the lock (fat,
    /// recursive, or thin with pending FLC) — the held arm of
    /// `SoleroLock::slow_read_exit`. Read releases of fat locks do not
    /// bump the displaced counter (nothing was written).
    fn exit_read_held(&self, tid: ThreadId) {
        let v = CompactWord(self.word.load(Ordering::Acquire));
        if v.is_inflated() {
            self.exit_fat(tid);
            return;
        }
        debug_assert_eq!(v.tid(), Some(tid), "read release by non-owner");
        if v.recursion() > 0 {
            self.word.fetch_sub(SOLERO_RECURSION_STEP, Ordering::Release);
            return;
        }
        match (v.has_flc(), self.monitor_existing()) {
            (true, Some(m)) => {
                m.enter(tid);
                self.word.store(v.release_word().raw(), Ordering::Release);
                m.notify_all();
                m.exit(tid);
            }
            _ => self.word.store(v.release_word().raw(), Ordering::Release),
        }
    }

    /// Runs `f` as a **read-only critical section**, eliding the lock
    /// when possible — the Figures 7–9 protocol with the same statistics
    /// semantics as [`SoleroLock::read_only`](crate::SoleroLock::read_only),
    /// booked space-wide. Compact sections are plain closures: there is
    /// no [`ReadSession`](crate::ReadSession) (no check-points, no
    /// read-mostly upgrade) — sections needing those belong on a
    /// `SoleroLock`.
    ///
    /// # Errors
    ///
    /// Returns `Err` only for *genuine* faults (raised while the reads
    /// were provably consistent); speculation artifacts are recovered by
    /// re-execution, falling back to acquisition after
    /// `fallback_threshold` failures.
    pub fn read_only<R>(&self, mut f: impl FnMut() -> Result<R, Fault>) -> Result<R, Fault> {
        let stats = &self.space.stats;
        if self.space.config.elision == ElisionMode::NoElide {
            stats.read_enters.fetch_add(1, Ordering::Relaxed);
            let tid = ThreadId::current();
            self.enter_write(tid);
            let r = f();
            self.exit_write(tid);
            return r;
        }
        // The inline first attempt. The space's stats are shared by
        // every object in it, so an elided section books itself in the
        // thread's stripe; any other outcome counts `read_enters` once.
        let v = CompactWord(self.word.load(Ordering::Acquire));
        let first = if v.is_elidable() {
            match self.attempt(&mut f, v) {
                Attempt::Elided(r) => {
                    stats.note_fast_read();
                    return Ok(r);
                }
                failed => failed,
            }
        } else {
            Attempt::Retry(0)
        };
        stats.read_enters.fetch_add(1, Ordering::Relaxed);
        self.read_slow(f, first)
    }

    /// One speculative execution of `f` against the captured elidable
    /// word `v`: exit validation and the catch-block fault triage
    /// (§3.3).
    #[inline]
    fn attempt<R>(&self, f: &mut impl FnMut() -> Result<R, Fault>, v: CompactWord) -> Attempt<R> {
        let stats = &self.space.stats;
        let config = &self.space.config;
        solero_obs::emit(|| LockEvent::now(self.obs_id(), EventKind::ElisionAttempt));
        config.barrier.read_entry_fence();
        match f() {
            Ok(r) => {
                config.barrier.read_exit_fence();
                if self.word.load(Ordering::Acquire) == v.raw() {
                    return Attempt::Elided(r);
                }
                stats.elision_failure.fetch_add(1, Ordering::Relaxed);
                self.note_abort(AbortReason::WordChangedAtExit);
                Attempt::Retry(1)
            }
            Err(fault) => {
                // Unchanged word means the reads were consistent: the
                // fault is genuine.
                if !fault.is_artifact_only() && self.word.load(Ordering::Acquire) == v.raw() {
                    return Attempt::Done(Err(fault));
                }
                stats.speculative_faults.fetch_add(1, Ordering::Relaxed);
                stats.elision_failure.fetch_add(1, Ordering::Relaxed);
                self.note_abort(if fault == Fault::Inconsistent {
                    AbortReason::AsyncRevalidationFail
                } else {
                    AbortReason::WordChangedAtExit
                });
                Attempt::Retry(1)
            }
        }
    }

    /// The read section past its first attempt: settles that attempt,
    /// then retries, waits out a busy word, or runs under the lock
    /// (recursion, fallback, or the fat monitor).
    #[cold]
    fn read_slow<R>(
        &self,
        mut f: impl FnMut() -> Result<R, Fault>,
        first: Attempt<R>,
    ) -> Result<R, Fault> {
        let stats = &self.space.stats;
        let config = &self.space.config;
        let mut failures = 0u32;
        let mut attempt = Some(first);
        loop {
            match attempt.take() {
                Some(Attempt::Elided(r)) => {
                    stats.elision_success.fetch_add(1, Ordering::Relaxed);
                    return Ok(r);
                }
                Some(Attempt::Done(res)) => return res,
                Some(Attempt::Retry(n)) => failures += n,
                None => {}
            }
            if failures >= config.fallback_threshold {
                // Starvation freedom: acquire and run non-speculatively.
                stats.fallback_acquires.fetch_add(1, Ordering::Relaxed);
                self.note_abort(AbortReason::RetryExhaustedFallback);
                let tid = ThreadId::current();
                self.slow_enter_write(tid);
                solero_obs::emit(|| LockEvent::now(self.obs_id(), EventKind::FallbackAcquire));
                let r = f();
                self.exit_read_held(tid);
                return r;
            }
            let v = CompactWord(self.word.load(Ordering::Acquire));
            if v.is_elidable() {
                attempt = Some(self.attempt(&mut f, v));
                continue;
            }
            // Busy at entry (Figure 8). Self-recursion runs under the
            // already-held flat lock.
            let tid = ThreadId::current();
            if !v.is_inflated() && v.tid() == Some(tid) {
                if v.recursion() == SOLERO_RECURSION_MAX {
                    self.inflate_held(tid, v);
                    MonitorTable::global()
                        .existing(self.key)
                        .expect("inflate_held tables the monitor")
                        .enter(tid);
                } else {
                    self.word.fetch_add(SOLERO_RECURSION_STEP, Ordering::Relaxed);
                    stats.recursive_enters.fetch_add(1, Ordering::Relaxed);
                }
                let r = f();
                self.exit_read_held(tid);
                return r;
            }
            stats.read_slow_enters.fetch_add(1, Ordering::Relaxed);
            // Three-tier wait for the word to free up.
            let spun = config.spin.run(|| {
                let w = CompactWord(self.word.load(Ordering::Acquire));
                if w.is_elidable() {
                    Probe::Done(true)
                } else if w.needs_monitor() {
                    Probe::Done(false)
                } else {
                    Probe::Retry
                }
            });
            match spun {
                Some(true) => {
                    // Freed up: speculation had to wait to (re)start.
                    self.note_abort(AbortReason::LockedAtEntry);
                    continue;
                }
                Some(false) | None => {
                    // Inflated or contended: run under the fat lock. A
                    // deflate racing us can orphan the binding we
                    // resolved; re-resolving converges (and inflates a
                    // word that went free, the contender-finds-free
                    // behaviour the protocol wants).
                    self.note_abort(AbortReason::Inflation);
                    while !self.enter_via_monitor(tid) {}
                    let r = f();
                    self.exit_read_held(tid);
                    return r;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use solero_runtime::spin::SpinConfig;
    use std::sync::atomic::AtomicU64 as StdAtomicU64;
    use std::sync::atomic::Ordering as StdOrdering;

    #[test]
    fn compact_lock_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<CompactLock>(), 8);
    }

    #[test]
    fn write_section_advances_counter() {
        let space = CompactSpace::new();
        let l = CompactLock::new();
        let c0 = l.bind(&space).raw_word().counter().unwrap();
        l.bind(&space).write(|| {});
        assert_eq!(l.bind(&space).raw_word().counter().unwrap(), c0 + 1);
        l.bind(&space).write(|| {});
        assert_eq!(l.bind(&space).raw_word().counter().unwrap(), c0 + 2);
    }

    #[test]
    fn elided_read_leaves_word_untouched() {
        let space = CompactSpace::new();
        let l = CompactLock::new();
        let before = l.bind(&space).raw_word();
        let n = l.bind(&space).read_only(|| Ok::<_, Fault>(5)).unwrap();
        assert_eq!(n, 5);
        assert_eq!(l.bind(&space).raw_word(), before);
        let s = space.stats().snapshot();
        assert_eq!(s.elision_success, 1);
        assert_eq!(s.elision_failure, 0);
    }

    #[test]
    fn recursion_roundtrip() {
        let space = CompactSpace::new();
        let l = CompactLock::new();
        let tid = ThreadId::current();
        let r = l.bind(&space);
        r.enter_write(tid);
        r.enter_write(tid);
        r.enter_write(tid);
        assert_eq!(r.raw_word().recursion(), 2);
        r.exit_write(tid);
        r.exit_write(tid);
        assert!(r.is_locked());
        r.exit_write(tid);
        assert!(!r.is_locked());
        assert_eq!(r.raw_word().counter(), Some(1));
    }

    #[test]
    fn deep_recursion_inflates_then_deflates_and_prunes() {
        let space = CompactSpace::new();
        let l = CompactLock::new();
        let tid = ThreadId::current();
        let r = l.bind(&space);
        let before = r.raw_word().counter().unwrap();
        let depth = (SOLERO_RECURSION_MAX + 4) as usize;
        for _ in 0..=depth {
            r.enter_write(tid);
        }
        assert!(r.is_inflated());
        assert!(r.holds(tid));
        assert!(r.monitor_resident(), "inflated lock is tabled");
        for _ in 0..=depth {
            r.exit_write(tid);
        }
        assert!(!r.is_locked());
        assert!(!r.is_inflated());
        assert!(!r.monitor_resident(), "deflation prunes the table entry");
        assert!(r.raw_word().counter().unwrap() > before);
        let s = space.stats().snapshot();
        assert!(s.inflations >= 1);
        assert!(s.deflations >= 1);
        assert!(s.deflations <= s.inflations);
    }

    #[test]
    fn reader_overlapping_writer_aborts_then_succeeds() {
        let space = CompactSpace::new();
        let l = CompactLock::new();
        let tid = ThreadId::current();
        let data = StdAtomicU64::new(0);
        // Simulate an overlapping writer by mutating the word mid-read.
        let mut first = true;
        let out = l.bind(&space).read_only(|| {
            if first {
                first = false;
                l.bind(&space).write(|| data.store(9, StdOrdering::Release));
            }
            Ok::<_, Fault>(data.load(StdOrdering::Acquire))
        });
        assert_eq!(out.unwrap(), 9);
        let s = space.stats().snapshot();
        assert_eq!(s.read_aborts, s.abort_reason_sum(), "taxonomy balances");
        assert!(s.elision_failure >= 1);
        assert_eq!(s.fallback_acquires, s.abort_retry_exhausted);
        let _ = tid;
    }

    #[test]
    fn genuine_fault_propagates() {
        let space = CompactSpace::new();
        let l = CompactLock::new();
        let mut runs = 0;
        let r: Result<(), Fault> = l.bind(&space).read_only(|| {
            runs += 1;
            Err(Fault::NullPointer)
        });
        assert_eq!(r, Err(Fault::NullPointer));
        assert_eq!(runs, 1, "consistent fault must not re-execute");
    }

    #[test]
    fn recursive_read_under_write_section() {
        let space = CompactSpace::new();
        let l = CompactLock::new();
        let tid = ThreadId::current();
        let r = l.bind(&space);
        r.enter_write(tid);
        let got = r.read_only(|| Ok::<_, Fault>(7)).unwrap();
        assert_eq!(got, 7);
        assert!(r.is_locked(), "read under held lock must not release it");
        r.exit_write(tid);
        assert!(!r.is_locked());
        assert!(space.stats().snapshot().recursive_enters >= 1);
    }

    #[test]
    fn contended_writes_are_mutually_exclusive() {
        use std::sync::Arc;
        let space = Arc::new(CompactSpace::with_config(SoleroConfig {
            spin: SpinConfig {
                tier1: 4,
                tier2: 8,
                tier3: 2,
            },
            ..SoleroConfig::default()
        }));
        let l = Arc::new(CompactLock::new());
        let counter = Arc::new(StdAtomicU64::new(0));
        const THREADS: usize = 8;
        const ITERS: u64 = 2_000;
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let (space, l, c) = (Arc::clone(&space), Arc::clone(&l), Arc::clone(&counter));
            handles.push(std::thread::spawn(move || {
                for _ in 0..ITERS {
                    l.bind(&space).write(|| {
                        let v = c.load(StdOrdering::Relaxed);
                        std::hint::black_box(v);
                        c.store(v + 1, StdOrdering::Relaxed);
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(StdOrdering::Relaxed), THREADS as u64 * ITERS);
        // Quiescent: any inflation must have deflated and pruned.
        let r = l.bind(&space);
        assert!(!r.is_inflated());
        assert!(!r.monitor_resident(), "quiescent lock must not be tabled");
        let s = space.stats().snapshot();
        assert!(s.deflations <= s.inflations, "{s}");
    }

    #[test]
    fn drop_sweeps_lingering_entry() {
        let space = CompactSpace::new();
        // Drop in place behind a Box that outlives the lock: a lock's
        // identity is its address, so `drop(l)` (which *moves* first)
        // would sweep the wrong key, and keeping the box allocated
        // stops a parallel test from reusing the address mid-assert.
        let mut slot: Box<Option<CompactLock>> = Box::new(Some(CompactLock::new()));
        let key = slot.as_ref().as_ref().unwrap().key();
        // Plant an entry as a lingering contender would.
        let _m = MonitorTable::global().monitor_for(key);
        assert!(space.resident(key));
        *slot = None;
        assert!(
            MonitorTable::global().existing(key).is_none(),
            "Drop must sweep the entry"
        );
    }
}
