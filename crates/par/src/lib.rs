//! # dex-par
//!
//! A deterministic worker pool for the independent-subproblem searches
//! of the engine (α-chase choice scripts, retract candidates, valuation
//! chunks, root-row splits in the homomorphism search).
//!
//! The determinism contract: every task is submitted with an index, the
//! workers claim index chunks from a shared injector (an atomic
//! counter), and the results are re-assembled **in submission order** —
//! so the value a combinator returns is a pure function of the task
//! list, independent of the thread count or scheduling. Same-seed output
//! is byte-identical for any `DEX_THREADS`.
//!
//! Two combinators cover every call site in the engine:
//!
//! - [`Pool::map`]: evaluate `f(i, &items[i])` for every item, return the
//!   results in submission order (the parallel `items.iter().map(..)`).
//! - [`Pool::find_first`]: evaluate `f(i, &items[i]) -> Option<R>` and
//!   return the success with the **smallest index** — exactly the result
//!   a sequential first-match loop produces. Workers skip indices beyond
//!   the current best, so the tail is drained cheaply once a winner is
//!   known; `f` may still be *evaluated* for indices past the final
//!   winner (speculation), so `f`'s side effects must be tolerable to
//!   run and discard.
//!
//! ## Execution model: persistent pool + calibrated inline fallback
//!
//! Combinators dispatch through a process-wide **persistent** worker set
//! ([`pool_core`]): threads are spawned lazily on the first parallel job
//! and *parked* between jobs, so a dispatch costs an unpark round-trip
//! (~10µs on the reference container) instead of the ~70µs-per-call
//! `std::thread::scope` spawn floor of the previous implementation.
//!
//! Even an unpark is not free, so every combinator takes a [`Cost`]
//! hint — item count × per-item cost class — and runs **inline on the
//! caller's stack** when the estimated total work is below the pool's
//! threshold ([`SEQ_FALLBACK_NS`], override per-pool with
//! [`Pool::with_threshold_ns`] or globally with `DEX_PAR_THRESHOLD`).
//! Paper-example-sized jobs (µs-scale core retracts, tiny hom searches)
//! therefore never touch a thread at all; inline execution returns the
//! identical value, so the fallback is invisible to everything but the
//! clock. A combinator also runs inline when the persistent core is busy
//! (e.g. a nested parallel call from inside a worker) — again identical
//! results, and nesting can never deadlock. Dispatched jobs additionally
//! cap their participant count at the machine's CPU count: requesting
//! more workers than cores buys nothing for CPU-bound searches, so the
//! excess would be pure scheduling overhead (threshold `0` lifts the
//! cap too, for tests that must exercise real workers anywhere).
//!
//! Panics in workers propagate to the caller when the job joins, exactly
//! like a panic in a sequential loop (results computed by other workers
//! for that job are leaked, not dropped).

mod pool_core;

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once};

/// The hard cap on pool width (a safety clamp for absurd `DEX_THREADS`
/// values, not a tuning knob).
pub const MAX_THREADS: usize = 256;

/// Default upper bound when sizing from `available_parallelism`.
const DEFAULT_THREAD_CAP: usize = 8;

/// The machine's CPU count, cached once (the dispatch-width cap).
fn cpus() -> usize {
    static CPUS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The calibrated sequential-fallback threshold, in estimated
/// nanoseconds of total work: jobs below it execute inline.
///
/// Calibration (see EXPERIMENTS.md "Parallel scaling"): dispatching a
/// job to the parked pool costs on the order of 10µs on the reference
/// container (`dispatch/persistent_pool` bench row). The threshold is
/// set ~20× above that, so any job the pool does accept loses at most a
/// few percent to dispatch — and everything smaller (the entire
/// paper-example regime) stays on the caller's stack.
pub const SEQ_FALLBACK_NS: u64 = 200_000;

/// Per-item cost classes for the work-size hint every combinator takes.
/// These are order-of-magnitude estimates — the fallback threshold only
/// needs to separate "micro-job, inline it" from "real work, fan out".
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Cost {
    /// ~1µs per item: small scans, cheap per-item closures.
    Light,
    /// ~50µs per item: medium searches (hom checks on mid-size
    /// instances, universality filters).
    Moderate,
    /// ~1ms per item: full chase replays, large sub-searches.
    Heavy,
    /// An explicit per-item estimate in nanoseconds, for call sites that
    /// can size their items (e.g. valuation ranges: valuations × ns).
    EstimateNs(u64),
}

impl Cost {
    /// The per-item estimate in nanoseconds.
    pub fn per_item_ns(self) -> u64 {
        match self {
            Cost::Light => 1_000,
            Cost::Moderate => 50_000,
            Cost::Heavy => 1_000_000,
            Cost::EstimateNs(ns) => ns,
        }
    }

    /// Estimated total work for `n` items, saturating.
    pub fn total_ns(self, n: usize) -> u64 {
        self.per_item_ns().saturating_mul(n as u64)
    }
}

/// A deterministic fan-out/join pool handle. Cheap to copy and to carry
/// in configuration structs; the worker threads themselves live in a
/// process-wide parked core, so a handle holds no OS resources.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
    threshold_ns: u64,
}

impl Default for Pool {
    /// [`Pool::from_env`]: honors `DEX_THREADS` / `DEX_PAR_THRESHOLD`.
    fn default() -> Pool {
        Pool::from_env()
    }
}

/// Outcome of parsing a `DEX_THREADS` value.
fn parse_threads(raw: &str) -> Result<usize, ()> {
    let n: usize = raw.trim().parse().map_err(|_| ())?;
    if n == 0 {
        return Err(());
    }
    Ok(n.min(MAX_THREADS))
}

impl Pool {
    /// A pool of exactly `threads` workers (clamped to `1..=MAX_THREADS`),
    /// with the default [`SEQ_FALLBACK_NS`] inline threshold.
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads: threads.clamp(1, MAX_THREADS),
            threshold_ns: SEQ_FALLBACK_NS,
        }
    }

    /// The sequential pool: one worker, runs inline on the caller's stack.
    pub fn seq() -> Pool {
        Pool::new(1)
    }

    /// Overrides the sequential-fallback threshold for this handle.
    /// `0` forces every multi-item job through the persistent pool —
    /// the differential tests use this to exercise real workers on
    /// paper-sized inputs.
    pub fn with_threshold_ns(mut self, ns: u64) -> Pool {
        self.threshold_ns = ns;
        self
    }

    /// Sizes the pool from the environment.
    ///
    /// - `DEX_THREADS=n` with `n` in `1..=256` selects the width
    ///   (values above 256 are clamped to 256). A malformed value —
    ///   `0`, negative, or non-numeric — is **rejected with a one-time
    ///   stderr warning** naming it, and the width falls back to
    ///   `available_parallelism` capped at 8, as if the variable were
    ///   unset.
    /// - `DEX_PAR_THRESHOLD=ns` overrides the sequential-fallback
    ///   threshold (`0` disables the fallback entirely); malformed
    ///   values warn once and keep [`SEQ_FALLBACK_NS`].
    pub fn from_env() -> Pool {
        let auto = || {
            std::thread::available_parallelism()
                .map(|n| n.get().min(DEFAULT_THREAD_CAP))
                .unwrap_or(1)
        };
        let threads = match std::env::var("DEX_THREADS") {
            Ok(raw) => parse_threads(&raw).unwrap_or_else(|()| {
                static WARN: Once = Once::new();
                WARN.call_once(|| {
                    eprintln!(
                        "dex-par: ignoring malformed DEX_THREADS={raw:?} \
                         (accepted: integer thread count in 1..=256); \
                         falling back to available parallelism"
                    );
                });
                auto()
            }),
            Err(_) => auto(),
        };
        let threshold_ns = match std::env::var("DEX_PAR_THRESHOLD") {
            Ok(raw) => raw.trim().parse().unwrap_or_else(|_| {
                static WARN: Once = Once::new();
                WARN.call_once(|| {
                    eprintln!(
                        "dex-par: ignoring malformed DEX_PAR_THRESHOLD={raw:?} \
                         (accepted: estimated-work threshold in nanoseconds); \
                         keeping the default {SEQ_FALLBACK_NS}"
                    );
                });
                SEQ_FALLBACK_NS
            }),
            Err(_) => SEQ_FALLBACK_NS,
        };
        Pool {
            threads,
            threshold_ns,
        }
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The sequential-fallback threshold in estimated nanoseconds.
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns
    }

    /// True iff combinators *may* use pool workers (jobs below the
    /// work-size threshold still execute inline).
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }

    /// True iff a job of `n` items with the given cost hint runs inline.
    fn inline(&self, n: usize, cost: Cost) -> bool {
        self.threads <= 1 || n <= 1 || cost.total_ns(n) < self.threshold_ns
    }

    /// The participant count a dispatched job actually uses: the
    /// requested width capped at the machine's CPU count. Results are
    /// width-independent by construction, so the cap never shows in
    /// output — it only stops CPU-bound work from being oversubscribed
    /// (e.g. `DEX_THREADS=8` on a 1-CPU host, where extra workers are
    /// pure scheduling overhead). A zero threshold — the explicit
    /// force-the-pool switch — also lifts the cap, so the differential
    /// suite exercises real workers on any machine.
    ///
    /// Public because work *splitting* should track it too: chunking a
    /// search into `threads × k` pieces when only `effective_threads`
    /// ever run wastes per-chunk state (e.g. the □ early-exit
    /// accumulator in `dex-query` restarts per range).
    pub fn effective_threads(&self) -> usize {
        if self.threshold_ns == 0 {
            self.threads
        } else {
            self.threads.min(cpus())
        }
    }

    fn dispatch_width(&self) -> usize {
        self.effective_threads()
    }

    /// Evaluates `f(i, &items[i])` for every item and returns the results
    /// **in submission order**. Deterministic for any thread count: the
    /// output is identical to `items.iter().enumerate().map(..).collect()`.
    ///
    /// `cost` is the work-size hint: jobs whose estimated total work
    /// falls below the pool threshold execute inline with no dispatch.
    pub fn map<T, R, F>(&self, items: &[T], cost: Cost, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let width = self.dispatch_width();
        if width > 1 && !self.inline(items.len(), cost) {
            if let Some(out) = pooled_map(width, items, &f) {
                return out;
            }
        }
        count_inline();
        items.iter().enumerate().map(|(i, t)| f(i, t)).collect()
    }

    /// Evaluates `f(i, &items[i])` until the success with the smallest
    /// index is known, and returns it as `(index, result)` — exactly the
    /// answer of a sequential first-match loop, for any thread count.
    ///
    /// Every index below the returned one is guaranteed to have been
    /// fully evaluated (and returned `None`); indices above it may or may
    /// not have been evaluated (speculation that is discarded).
    ///
    /// `cost` is the work-size hint, as for [`Pool::map`].
    pub fn find_first<T, R, F>(&self, items: &[T], cost: Cost, f: F) -> Option<(usize, R)>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> Option<R> + Sync,
    {
        let width = self.dispatch_width();
        if width > 1 && !self.inline(items.len(), cost) {
            if let Some(out) = pooled_find_first(width, items, &f) {
                return out;
            }
        }
        count_inline();
        for (i, t) in items.iter().enumerate() {
            if let Some(r) = f(i, t) {
                return Some((i, r));
            }
        }
        None
    }
}

/// Jobs dispatched to the persistent pool since process start. Inline
/// executions (below threshold, ≤1 item, busy core) do not count; the
/// spawn-floor regression tests probe this.
pub fn jobs_dispatched() -> u64 {
    pool_core::global().jobs_dispatched()
}

/// Worker threads spawned by the persistent pool so far (lazy
/// high-water mark; parked workers are reused, never respawned).
pub fn workers_spawned() -> u64 {
    pool_core::global().workers_spawned()
}

/// Combinator calls that ran inline instead of dispatching (below the
/// work threshold, ≤1 item, or the core was busy) since process
/// start. Together with [`jobs_dispatched`] this answers "is the pool
/// actually being used?" for a given workload.
pub fn jobs_inline() -> u64 {
    JOBS_INLINE.load(Ordering::Relaxed)
}

static JOBS_INLINE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

fn count_inline() {
    JOBS_INLINE.fetch_add(1, Ordering::Relaxed);
}

/// Installs the process-global pool tracer: every subsequently
/// dispatched job emits `job_dispatched` and per-worker
/// `job_completed` events into it. Off by default, and deliberately
/// *not* wired to any engine tracer automatically — pool events are
/// stamped on the pool's own real-time epoch, so deterministic
/// (`MockClock`) trace comparisons must leave this unset. Passing a
/// disabled tracer turns pool event emission back off.
pub fn set_pool_tracer(tracer: dex_obs::Tracer) {
    pool_core::set_tracer(tracer);
}

/// Folds the global pool's visibility counters into `reg`: the
/// `pool.dispatch_latency_ns`/`pool.queue_wait_ns` histograms,
/// dispatched/inline/spawned totals, and per-worker jobs/busy-ns
/// counters.
pub fn export_metrics(reg: &mut dex_obs::MetricsRegistry) {
    pool_core::global().export_metrics_into(reg);
    reg.inc("pool.jobs_inline", u128::from(jobs_inline()));
}

/// A write-once result slot. Each index is claimed by exactly one
/// participant (disjoint chunk claims), written once, and read only
/// after the job joins — no per-item lock.
struct ResultSlot<R>(UnsafeCell<MaybeUninit<R>>);

// SAFETY: disjoint indices are written by distinct threads with no
// aliasing, and reads happen only after the job's completion latch has
// drained (a happens-after edge for every write).
unsafe impl<R: Send> Sync for ResultSlot<R> {}

/// Chunk length for injector claims: oversplit each participant ~8× so
/// uneven items still balance, but claims stay far cheaper than the
/// per-item `fetch_add` + `Mutex` slot of the scoped implementation.
fn claim_chunk(len: usize, participants: usize) -> usize {
    (len / (participants * 8)).max(1)
}

/// The pooled body of [`Pool::map`]. `None` means the persistent core
/// was busy and the caller should run inline instead.
fn pooled_map<T, R, F>(threads: usize, items: &[T], f: &F) -> Option<Vec<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let len = items.len();
    let participants = threads.min(len);
    debug_assert!(participants >= 2);
    let slots: Vec<ResultSlot<R>> = (0..len)
        .map(|_| ResultSlot(UnsafeCell::new(MaybeUninit::uninit())))
        .collect();
    let next = AtomicUsize::new(0);
    let chunk = claim_chunk(len, participants);
    let body = |_slot: usize| loop {
        let start = next.fetch_add(chunk, Ordering::Relaxed);
        if start >= len {
            break;
        }
        for i in start..(start + chunk).min(len) {
            let r = f(i, &items[i]);
            // SAFETY: `i` is in this participant's exclusive claim.
            unsafe { (*slots[i].0.get()).write(r) };
        }
    };
    if !pool_core::global().run_job(participants - 1, &body) {
        return None;
    }
    // The injector ran dry and every participant joined, so every index
    // was claimed and written exactly once.
    Some(
        slots
            .into_iter()
            .map(|s| unsafe { s.0.into_inner().assume_init() })
            .collect(),
    )
}

/// The pooled body of [`Pool::find_first`]: at most one pending result
/// per participant (its smallest-index success), merged at join. `None`
/// means the core was busy — run inline.
#[allow(clippy::type_complexity)]
fn pooled_find_first<T, R, F>(threads: usize, items: &[T], f: &F) -> Option<Option<(usize, R)>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> Option<R> + Sync,
{
    let len = items.len();
    let participants = threads.min(len);
    debug_assert!(participants >= 2);
    // Smallest successful index seen so far; only ever decreases.
    let best = AtomicUsize::new(usize::MAX);
    let next = AtomicUsize::new(0);
    // One pending slot per participant — not one per item.
    let pending: Vec<Mutex<Option<(usize, R)>>> =
        (0..participants).map(|_| Mutex::new(None)).collect();
    let chunk = claim_chunk(len, participants);
    let body = |slot: usize| {
        let mut local: Option<(usize, R)> = None;
        loop {
            let start = next.fetch_add(chunk, Ordering::Relaxed);
            if start >= len {
                break;
            }
            for i in start..(start + chunk).min(len) {
                // An index above the current best cannot win; the best
                // only moves *down*, so the skip is sound. A participant
                // claims monotonically increasing indices, so its own
                // success (if any) also bounds everything later.
                if i > best.load(Ordering::Relaxed) || local.is_some() {
                    continue;
                }
                if let Some(r) = f(i, &items[i]) {
                    best.fetch_min(i, Ordering::Relaxed);
                    local = Some((i, r));
                }
            }
        }
        if local.is_some() {
            *pending[slot].lock().unwrap() = local;
        }
    };
    if !pool_core::global().run_job(participants - 1, &body) {
        return None;
    }
    let mut win: Option<(usize, R)> = None;
    for m in pending {
        if let Some((i, r)) = m.into_inner().unwrap() {
            if win.as_ref().is_none_or(|(j, _)| i < *j) {
                win = Some((i, r));
            }
        }
    }
    Some(win)
}

/// Splits `[0, total)` into at most `parts` contiguous half-open ranges
/// of near-equal length, in ascending order. Deterministic; the chunk
/// list depends only on `(total, parts)`, never on scheduling.
pub fn chunk_ranges(total: u64, parts: usize) -> Vec<(u64, u64)> {
    if total == 0 {
        return Vec::new();
    }
    let parts = (parts.max(1) as u64).min(total);
    let base = total / parts;
    let extra = total % parts;
    let mut out = Vec::with_capacity(parts as usize);
    let mut start = 0u64;
    for i in 0..parts {
        let len = base + u64::from(i < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

/// Cost hint for a batch of [`chunk_ranges`] windows processed at
/// `per_item_ns` nanoseconds per index: the widest window bounds every
/// worker's share, so the pool's sequential fallback compares that bound
/// against its dispatch threshold. Tiny index spaces (the paper's worked
/// examples) stay on the calling thread; ranges with thousands of items
/// go to the workers.
pub fn range_cost(ranges: &[(u64, u64)], per_item_ns: u64) -> Cost {
    let widest = ranges.iter().map(|&(lo, hi)| hi - lo).max().unwrap_or(0);
    Cost::EstimateNs(widest.saturating_mul(per_item_ns))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// A pool that always dispatches multi-item jobs to real workers —
    /// what the pre-threshold implementation did unconditionally.
    fn forced(threads: usize) -> Pool {
        Pool::new(threads).with_threshold_ns(0)
    }

    #[test]
    fn map_preserves_submission_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 4, 8] {
            let pool = forced(threads);
            let out = pool.map(&items, Cost::Light, |i, &x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_matches_sequential_for_any_thread_count() {
        let items: Vec<u64> = (0..37).map(|i| i * 7 % 13).collect();
        let seq: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [2, 3, 8] {
            let out = forced(threads).map(&items, Cost::Light, |_, &x| x * x + 1);
            assert_eq!(out, seq);
        }
    }

    #[test]
    fn map_on_empty_and_singleton() {
        let pool = forced(4);
        let empty: Vec<u32> = Vec::new();
        assert!(pool.map(&empty, Cost::Light, |_, &x| x).is_empty());
        assert_eq!(pool.map(&[5u32], Cost::Light, |i, &x| (i, x)), vec![(0, 5)]);
    }

    #[test]
    fn below_threshold_jobs_run_on_the_calling_thread() {
        // Estimated work: 100 × 1µs = 100µs < the 200µs threshold, so
        // the default pool must stay inline — every closure call on the
        // caller's own thread, no job dispatched.
        let items: Vec<usize> = (0..100).collect();
        let caller = std::thread::current().id();
        let out = Pool::new(8).map(&items, Cost::Light, |_, &x| {
            assert_eq!(std::thread::current().id(), caller);
            x
        });
        assert_eq!(out.len(), 100);
        let got = Pool::new(8).find_first(&items, Cost::Light, |_, &x| {
            assert_eq!(std::thread::current().id(), caller);
            (x == 99).then_some(()) // worst case: full scan
        });
        assert_eq!(got, Some((99, ())));
    }

    #[test]
    fn above_threshold_jobs_use_pool_workers() {
        // 8 × 1ms (Heavy) estimated ≫ threshold: must dispatch — unless
        // the machine has a single CPU, where the width cap (rightly)
        // keeps even heavy jobs on the caller. Probe by thread id: with
        // a 2-wide pool and items that block, the one helper must
        // execute at least one item.
        let items: Vec<usize> = (0..8).collect();
        let caller = std::thread::current().id();
        let helper_ran = std::sync::atomic::AtomicBool::new(false);
        Pool::new(2).map(&items, Cost::Heavy, |_, _| {
            if std::thread::current().id() != caller {
                helper_ran.store(true, Ordering::Relaxed);
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        assert_eq!(helper_ran.load(Ordering::Relaxed), cpus() >= 2);
    }

    #[test]
    fn dispatch_width_caps_at_the_cpu_count() {
        // Oversubscription guard: a production pool never dispatches
        // wider than the machine; the threshold-0 test switch lifts the
        // cap so differential suites get real workers on any host.
        let p = Pool::new(MAX_THREADS);
        assert!(p.dispatch_width() <= cpus());
        assert_eq!(p.with_threshold_ns(0).dispatch_width(), MAX_THREADS);
        assert_eq!(Pool::seq().dispatch_width(), 1);
    }

    #[test]
    fn explicit_estimate_controls_the_fallback() {
        assert_eq!(Cost::EstimateNs(123).per_item_ns(), 123);
        assert_eq!(Cost::EstimateNs(u64::MAX).total_ns(1000), u64::MAX);
        let p = Pool::new(4); // default threshold
        assert!(p.inline(100, Cost::EstimateNs(10))); // 1µs total
        assert!(!p.inline(100, Cost::EstimateNs(1_000_000))); // 100ms
        let p0 = p.with_threshold_ns(0);
        assert!(!p0.inline(2, Cost::EstimateNs(0)), "0 disables fallback");
        assert!(p0.inline(1, Cost::Heavy), "singletons always inline");
    }

    #[test]
    fn find_first_returns_smallest_success_index() {
        // Successes at 2 and 5; index 2 sleeps so a parallel run is
        // tempted to finish 5 first — the combinator must still pick 2.
        let items: Vec<usize> = (0..8).collect();
        for threads in [1, 2, 8] {
            let got = forced(threads).find_first(&items, Cost::Light, |_, &x| {
                if x == 2 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                (x == 2 || x == 5).then_some(x * 10)
            });
            assert_eq!(got, Some((2, 20)), "threads = {threads}");
        }
    }

    #[test]
    fn find_first_evaluates_everything_below_the_winner() {
        let items: Vec<usize> = (0..50).collect();
        for threads in [1, 4] {
            let seen = AtomicU64::new(0);
            let got = forced(threads).find_first(&items, Cost::Light, |_, &x| {
                if x < 40 {
                    seen.fetch_add(1, Ordering::Relaxed);
                }
                (x == 40).then_some(())
            });
            assert_eq!(got.map(|(i, ())| i), Some(40));
            assert!(seen.into_inner() >= 40, "threads = {threads}");
        }
    }

    #[test]
    fn find_first_winner_under_speculation_is_smallest() {
        // Many successes scattered everywhere; fast ones at high indices
        // race slow ones at low indices. The smallest successful index
        // (1) must always win, at every thread count.
        let items: Vec<usize> = (0..64).collect();
        for threads in [2, 4, 8] {
            let got = forced(threads).find_first(&items, Cost::Light, |_, &x| {
                if x % 2 == 1 {
                    if x < 8 {
                        std::thread::sleep(std::time::Duration::from_millis(3));
                    }
                    Some(x)
                } else {
                    None
                }
            });
            assert_eq!(got, Some((1, 1)), "threads = {threads}");
        }
    }

    #[test]
    fn find_first_none_when_no_success() {
        let items: Vec<u8> = (0..20).collect();
        for threads in [1, 4] {
            assert_eq!(
                forced(threads).find_first(&items, Cost::Light, |_, _| None::<()>),
                None
            );
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..16).collect();
        let res = std::panic::catch_unwind(|| {
            forced(4).map(&items, Cost::Light, |_, &x| {
                if x == 7 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(res.is_err());
        // The pool stays usable after a panicked job.
        let ok = forced(4).map(&items, Cost::Light, |_, &x| x + 1);
        assert_eq!(ok[15], 16);
    }

    #[test]
    fn pool_clamps_and_reports_threads() {
        assert_eq!(Pool::new(0).threads(), 1);
        assert_eq!(Pool::new(4).threads(), 4);
        assert_eq!(Pool::new(100_000).threads(), MAX_THREADS);
        assert!(!Pool::seq().is_parallel());
        assert!(Pool::new(2).is_parallel());
        assert_eq!(Pool::new(2).threshold_ns(), SEQ_FALLBACK_NS);
        assert_eq!(Pool::new(2).with_threshold_ns(7).threshold_ns(), 7);
    }

    #[test]
    fn malformed_dex_threads_values_are_rejected() {
        // The pure parser behind `from_env`: `0`, negatives and
        // non-numeric strings are rejected (the env path then warns once
        // and falls back to available parallelism); in-range values
        // parse, whitespace is tolerated, oversized values clamp.
        assert_eq!(parse_threads("0"), Err(()));
        assert_eq!(parse_threads("abc"), Err(()));
        assert_eq!(parse_threads("-2"), Err(()));
        assert_eq!(parse_threads(""), Err(()));
        assert_eq!(parse_threads("1.5"), Err(()));
        assert_eq!(parse_threads("4"), Ok(4));
        assert_eq!(parse_threads("  8 "), Ok(8));
        assert_eq!(parse_threads("1"), Ok(1));
        assert_eq!(parse_threads("256"), Ok(256));
        assert_eq!(parse_threads("300"), Ok(MAX_THREADS));
    }

    #[test]
    fn from_env_never_panics_and_stays_in_range() {
        // Whatever the ambient environment holds, the result is a valid
        // pool width (malformed values fall back instead of panicking).
        let p = Pool::from_env();
        assert!((1..=MAX_THREADS).contains(&p.threads()));
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for total in [0u64, 1, 7, 8, 100] {
            for parts in [1usize, 2, 3, 8, 200] {
                let chunks = chunk_ranges(total, parts);
                let covered: u64 = chunks.iter().map(|&(a, b)| b - a).sum();
                assert_eq!(covered, total, "total {total} parts {parts}");
                // Contiguous and ascending.
                let mut pos = 0;
                for &(a, b) in &chunks {
                    assert_eq!(a, pos);
                    assert!(b > a);
                    pos = b;
                }
                assert!(chunks.len() <= parts.max(1));
            }
        }
    }

    #[test]
    fn map_runs_closure_once_per_item() {
        let items: Vec<usize> = (0..200).collect();
        let calls = AtomicU64::new(0);
        let out = forced(8).map(&items, Cost::Light, |_, &x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 200);
        assert_eq!(calls.into_inner(), 200);
    }

    #[test]
    fn nested_parallel_calls_fall_back_inline() {
        // A map inside a map: the inner call finds the core busy and
        // runs inline — identical results, no deadlock.
        let outer: Vec<usize> = (0..8).collect();
        let inner: Vec<usize> = (0..8).collect();
        let pool = forced(2);
        let out = pool.map(&outer, Cost::Heavy, |_, &o| {
            pool.map(&inner, Cost::Heavy, |_, &i| o * 10 + i)
                .into_iter()
                .sum::<usize>()
        });
        let want: Vec<usize> = outer
            .iter()
            .map(|&o| inner.iter().map(|&i| o * 10 + i).sum())
            .collect();
        assert_eq!(out, want);
    }

    #[test]
    fn exported_metrics_include_pool_histograms_after_a_dispatch() {
        // Any dispatched job must leave dispatch-latency and queue-wait
        // samples behind, and the exposition must pass the in-tree
        // Prometheus grammar check. (Global counters are shared across
        // tests, so assert presence, not exact values.)
        let before = jobs_inline();
        let items: Vec<usize> = (0..8).collect();
        forced(4).map(&items, Cost::Heavy, |_, &x| x * 2);
        Pool::seq().map(&items, Cost::Light, |_, &x| x); // inline path
        assert!(jobs_inline() > before);

        let mut reg = dex_obs::MetricsRegistry::new();
        export_metrics(&mut reg);
        let text = reg.expose_text();
        dex_obs::validate_prometheus_text(&text).expect("exposition grammar");
        assert!(text.contains("# TYPE pool_dispatch_latency_ns histogram"));
        assert!(text.contains("# TYPE pool_queue_wait_ns histogram"));
        assert!(text.contains("pool_dispatch_latency_ns_count"));
        assert!(text.contains("pool_queue_wait_ns_count"));
        assert!(text.contains("pool_jobs_dispatched"));
        assert!(text.contains("pool_jobs_inline"));
    }

    #[test]
    fn pool_tracer_emits_job_events_in_deterministic_slot_order() {
        use dex_obs::{EventKind, RingRecorder, Tracer};
        use std::sync::Arc;
        let ring = Arc::new(RingRecorder::new(1 << 12));
        set_pool_tracer(Tracer::new(ring.clone() as Arc<dyn dex_obs::Collector>));
        let items: Vec<usize> = (0..8).collect();
        forced(3).map(&items, Cost::Heavy, |_, &x| x + 1);
        set_pool_tracer(Tracer::off()); // detach before other tests dispatch
        let events = ring.events();
        let dispatched: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::JobDispatched { .. }))
            .collect();
        assert!(!dispatched.is_empty(), "expected a job_dispatched event");
        // Per-job completions arrive worker-slot-ordered from the caller
        // thread; each carries the worker slot that ran the chunk.
        let mut last_job = None;
        let mut slots = Vec::new();
        for e in &events {
            if let EventKind::JobCompleted { job, worker, .. } = e.kind {
                if last_job != Some(job) {
                    slots.clear();
                    last_job = Some(job);
                }
                slots.push(worker);
                assert!(slots.windows(2).all(|w| w[0] < w[1]), "slot order");
            }
        }
        assert!(last_job.is_some(), "expected job_completed events");
    }
}
