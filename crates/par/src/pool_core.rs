//! The persistent worker machinery behind [`crate::Pool`].
//!
//! Workers are OS threads spawned **lazily** on the first parallel job
//! and then *parked* (`std::thread::park`) between jobs, so a job
//! dispatch costs an unpark + an epoch load instead of the ~70µs
//! `std::thread::scope` spawn floor the previous implementation paid on
//! every combinator call.
//!
//! ## Protocol
//!
//! One job runs at a time (the `submit` mutex). To dispatch, the caller
//!
//! 1. publishes the type-erased job body and its participant width under
//!    the `job` lock, bumps the **generation-stamped epoch counter**, and
//!    unparks the participating workers;
//! 2. runs the body itself (the caller is always a participant, so a
//!    width-`k` pool uses `k-1` pool workers plus the calling thread);
//! 3. parks until the outstanding-participant latch reaches zero, then
//!    clears the job slot and propagates the first worker panic, if any.
//!
//! Workers loop on the epoch: a changed epoch is a new job (each
//! `map` call is a new generation), an unchanged one means
//! "spurious wakeup, park again". A worker participates only when its
//! slot index is below the published width, so narrow pools leave the
//! extra workers parked. Because the caller never returns from
//! [`PoolCore::run_job`] before the latch drains, the erased borrow of
//! the job body (and everything it captures — items, result slots,
//! atomics on the caller's stack) is sound.
//!
//! Determinism is unaffected by any of this: combinators reassemble
//! results in submission order, so the value returned is a pure function
//! of the task list regardless of worker count or scheduling — the same
//! contract the scoped pool had, now without the per-call spawn cost.
//!
//! Dropping a [`PoolCore`] sets the shutdown flag, unparks everyone and
//! joins the workers; the process-wide core lives in a `OnceLock` and is
//! intentionally never dropped (parked threads cost nothing and die with
//! the process).

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::thread::{JoinHandle, Thread};

use dex_obs::{Event, EventKind, Histogram, MetricsRegistry, Tracer};

/// Nanoseconds on the pool's own monotonic epoch (first use). The pool
/// sits *below* `dex-core`, so it cannot read `govern::Clock`; its
/// latency samples are therefore always real-time, even when the
/// engines above run under `MockClock` — which is why deterministic
/// trace sweeps leave the pool tracer unset.
fn mono_ns() -> u64 {
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    EPOCH
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_nanos() as u64
}

/// The process-global pool tracer: off by default, opt-in via
/// [`crate::set_pool_tracer`]. Dispatch paths check the flag before
/// cloning, so the disabled cost is one relaxed load per job.
static POOL_TRACER_ON: AtomicBool = AtomicBool::new(false);
static POOL_TRACER: Mutex<Option<Tracer>> = Mutex::new(None);

pub(crate) fn set_tracer(tracer: Tracer) {
    let on = tracer.enabled();
    *lock_ok(&POOL_TRACER) = on.then_some(tracer);
    POOL_TRACER_ON.store(on, Ordering::SeqCst);
}

fn tracer() -> Option<Tracer> {
    if !POOL_TRACER_ON.load(Ordering::Relaxed) {
        return None;
    }
    lock_ok(&POOL_TRACER).clone()
}

/// Locks with poison recovery: a panic that unwound through `run_job`
/// (deliberate re-propagation) may have poisoned a lock even though the
/// protocol state it guards is consistent — the latch is always drained
/// before unwinding.
fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Most pool workers the core will ever spawn: enough for a
/// [`crate::MAX_THREADS`]-wide pool whose caller is one participant.
const MAX_WORKERS: usize = crate::MAX_THREADS - 1;

/// A type-erased borrow of a job body. The `run_job` caller guarantees
/// the pointee outlives the job (it blocks until the latch drains), so
/// workers may dereference it for the duration of their participation.
#[derive(Copy, Clone)]
struct JobRef(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared-referenced from many threads)
// and `run_job` keeps it alive for as long as any worker can hold this.
unsafe impl Send for JobRef {}
unsafe impl Sync for JobRef {}

/// The published job: what parked workers find after an epoch bump.
struct JobSlot {
    /// Generation stamp of this job; equals `Shared::epoch` while the
    /// job is live. Workers cross-check it so a stale wakeup can never
    /// execute a job it was not counted into.
    generation: u64,
    body: Option<JobRef>,
    /// Worker slots `0..width` participate; the caller is slot `width`.
    width: usize,
    /// The caller to unpark when the last participant finishes.
    caller: Option<Thread>,
}

/// Per-worker-slot instrumentation: cumulative totals for metrics
/// exposition plus the last job's samples, which the submitter reads
/// after the latch drains (no torn reads — the drain is the
/// happens-after edge).
#[derive(Default)]
struct SlotStat {
    /// Jobs this worker participated in (cumulative).
    jobs: AtomicU64,
    /// Total body nanoseconds (cumulative).
    busy_ns: AtomicU64,
    /// This job's body nanoseconds.
    last_busy_ns: AtomicU64,
    /// This job's publication→body-start wait.
    last_queue_ns: AtomicU64,
}

/// State shared with the worker threads (kept alive by `Arc` so a
/// dropped core cannot free it under a still-exiting worker).
struct Shared {
    job: Mutex<JobSlot>,
    /// Generation counter; a bump (always while `job` holds the matching
    /// slot) is the "new job" signal workers poll between parks.
    epoch: AtomicU64,
    /// Participants that have not yet finished the current job.
    outstanding: AtomicUsize,
    shutdown: AtomicBool,
    /// First panic payload caught in a worker this job.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// `mono_ns` at the current job's publication — what worker
    /// queue-wait is measured against.
    published_ns: AtomicU64,
    /// One entry per potential worker slot.
    stats: Vec<SlotStat>,
}

struct Worker {
    thread: Thread,
    join: JoinHandle<()>,
}

/// The persistent pool core. One per process in practice ([`global`]),
/// but self-contained so tests can construct and drop private instances.
pub(crate) struct PoolCore {
    shared: Arc<Shared>,
    /// Held for the duration of a job: one job at a time. `try_lock`
    /// failure (another job running, possibly our own caller further up
    /// the stack) makes the combinator fall back to inline execution,
    /// which returns the identical result — so nesting cannot deadlock.
    submit: Mutex<()>,
    workers: Mutex<Vec<Worker>>,
    jobs_dispatched: AtomicU64,
    workers_spawned: AtomicU64,
    /// Caller-participant body nanoseconds (cumulative; the caller is
    /// not a worker slot, so its share is tracked separately).
    caller_busy_ns: AtomicU64,
    /// Submission-entry → job-publication latency per dispatched job.
    dispatch_hist: Mutex<Histogram>,
    /// Publication → worker-body-start wait, one sample per worker
    /// participant per job.
    queue_hist: Mutex<Histogram>,
}

impl PoolCore {
    pub(crate) fn new() -> PoolCore {
        PoolCore {
            shared: Arc::new(Shared {
                job: Mutex::new(JobSlot {
                    generation: 0,
                    body: None,
                    width: 0,
                    caller: None,
                }),
                epoch: AtomicU64::new(0),
                outstanding: AtomicUsize::new(0),
                shutdown: AtomicBool::new(false),
                panic: Mutex::new(None),
                published_ns: AtomicU64::new(0),
                stats: (0..MAX_WORKERS).map(|_| SlotStat::default()).collect(),
            }),
            submit: Mutex::new(()),
            workers: Mutex::new(Vec::new()),
            jobs_dispatched: AtomicU64::new(0),
            workers_spawned: AtomicU64::new(0),
            caller_busy_ns: AtomicU64::new(0),
            dispatch_hist: Mutex::new(Histogram::new()),
            queue_hist: Mutex::new(Histogram::new()),
        }
    }

    /// Jobs dispatched to pool workers since process start. A combinator
    /// call that executed inline (below threshold, single item, busy
    /// core) does not count — the spawn-floor regression tests probe
    /// exactly this.
    pub(crate) fn jobs_dispatched(&self) -> u64 {
        self.jobs_dispatched.load(Ordering::Relaxed)
    }

    /// Worker threads spawned so far (lazily, high-water only).
    pub(crate) fn workers_spawned(&self) -> u64 {
        self.workers_spawned.load(Ordering::Relaxed)
    }

    /// Spawns missing workers so at least `want` exist (best effort:
    /// spawn failure degrades the width instead of panicking). Returns
    /// the number of workers actually available. Caller holds `submit`,
    /// so the epoch is stable while new workers record their start
    /// generation.
    fn ensure_workers(&self, want: usize) -> usize {
        let want = want.min(MAX_WORKERS);
        let mut ws = lock_ok(&self.workers);
        while ws.len() < want {
            let slot = ws.len();
            let shared = Arc::clone(&self.shared);
            let seen = self.shared.epoch.load(Ordering::SeqCst);
            let spawned = std::thread::Builder::new()
                .name(format!("dex-par-{slot}"))
                .spawn(move || worker_loop(shared, slot, seen));
            match spawned {
                Ok(join) => {
                    let thread = join.thread().clone();
                    ws.push(Worker { thread, join });
                    self.workers_spawned.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => break,
            }
        }
        ws.len().min(want)
    }

    /// Runs `body(slot)` on `helpers` pool workers (slots `0..helpers`)
    /// plus the calling thread (slot `helpers`), returning only when all
    /// participants have finished. Returns `false` without running
    /// anything if the core is busy — the caller must then execute the
    /// job inline. Worker panics are re-raised here after the join, like
    /// a panic in a sequential loop.
    pub(crate) fn run_job(&self, helpers: usize, body: &(dyn Fn(usize) + Sync)) -> bool {
        debug_assert!(helpers >= 1, "a zero-helper job should run inline");
        // A previous job that propagated a panic unwound while holding
        // the guard and poisoned the lock; the pool state is still
        // consistent (the latch was drained first), so clear the poison.
        let _guard = match self.submit.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return false,
        };
        let width = self.ensure_workers(helpers);
        if width == 0 {
            // Could not spawn a single worker: run the whole job on the
            // caller. Still a successful (inline-equivalent) execution.
            body(0);
            return true;
        }
        self.jobs_dispatched.fetch_add(1, Ordering::Relaxed);
        let t_enter = mono_ns();
        // SAFETY: erase the borrow's lifetime for storage. The slot is
        // cleared below before this function returns, and workers only
        // dereference while counted in `outstanding` — which this
        // function drains before returning — so the pointee outlives
        // every dereference.
        let erased: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(body) };
        let generation = {
            let mut job = lock_ok(&self.shared.job);
            job.generation += 1;
            job.body = Some(JobRef(erased as *const _));
            job.width = width;
            job.caller = Some(std::thread::current());
            self.shared.outstanding.store(width, Ordering::SeqCst);
            self.shared.published_ns.store(mono_ns(), Ordering::Relaxed);
            // Publish: workers that load this generation find the slot
            // above fully written (release via SeqCst store).
            self.shared.epoch.store(job.generation, Ordering::SeqCst);
            job.generation
        };
        let dispatch_ns = mono_ns().saturating_sub(t_enter);
        lock_ok(&self.dispatch_hist).record(dispatch_ns);
        let pool_tracer = tracer();
        if let Some(t) = &pool_tracer {
            t.emit_raw(Event {
                at_ns: mono_ns(),
                span_id: 0,
                parent: 0,
                kind: EventKind::JobDispatched {
                    job: generation,
                    width,
                    dispatch_ns,
                },
            });
        }
        {
            let ws = lock_ok(&self.workers);
            for w in ws.iter().take(width) {
                w.thread.unpark();
            }
        }
        // The caller is participant `width`; catch its panic so the
        // latch is always drained before unwinding past borrowed state.
        let t_caller = mono_ns();
        let caller_res = catch_unwind(AssertUnwindSafe(|| body(width)));
        self.caller_busy_ns
            .fetch_add(mono_ns().saturating_sub(t_caller), Ordering::Relaxed);
        while self.shared.outstanding.load(Ordering::SeqCst) != 0 {
            std::thread::park();
        }
        // The latch drained, so every participant's last_* samples are
        // final: fold the queue waits into the histogram and report
        // completions in slot order (deterministic, single-threaded).
        {
            let mut qh = lock_ok(&self.queue_hist);
            for slot in 0..width {
                qh.record(
                    self.shared.stats[slot]
                        .last_queue_ns
                        .load(Ordering::Relaxed),
                );
            }
        }
        if let Some(t) = &pool_tracer {
            for slot in 0..width {
                t.emit_raw(Event {
                    at_ns: mono_ns(),
                    span_id: 0,
                    parent: 0,
                    kind: EventKind::JobCompleted {
                        job: generation,
                        worker: slot,
                        busy_ns: self.shared.stats[slot].last_busy_ns.load(Ordering::Relaxed),
                        queue_ns: self.shared.stats[slot]
                            .last_queue_ns
                            .load(Ordering::Relaxed),
                    },
                });
            }
        }
        {
            // Drop the erased borrow before returning control.
            let mut job = lock_ok(&self.shared.job);
            job.body = None;
            job.caller = None;
        }
        // Take the payload *before* resuming so no guard is held while
        // unwinding.
        let worker_panic = lock_ok(&self.shared.panic).take();
        if let Err(p) = caller_res {
            resume_unwind(p);
        }
        if let Some(p) = worker_panic {
            resume_unwind(p);
        }
        true
    }

    /// Folds this core's visibility counters into `reg`: job and
    /// worker totals, the dispatch-latency and queue-wait histograms,
    /// and per-worker jobs/busy-ns counters for every slot that ever
    /// participated.
    pub(crate) fn export_metrics_into(&self, reg: &mut MetricsRegistry) {
        reg.inc(
            "pool.jobs_dispatched",
            u128::from(self.jobs_dispatched.load(Ordering::Relaxed)),
        );
        reg.inc(
            "pool.workers_spawned",
            u128::from(self.workers_spawned.load(Ordering::Relaxed)),
        );
        reg.inc(
            "pool.caller_busy_ns",
            u128::from(self.caller_busy_ns.load(Ordering::Relaxed)),
        );
        reg.merge_histogram("pool.dispatch_latency_ns", &lock_ok(&self.dispatch_hist));
        reg.merge_histogram("pool.queue_wait_ns", &lock_ok(&self.queue_hist));
        for (slot, stat) in self.shared.stats.iter().enumerate() {
            let jobs = stat.jobs.load(Ordering::Relaxed);
            if jobs == 0 {
                continue;
            }
            reg.inc(&format!("pool.worker.{slot}.jobs"), u128::from(jobs));
            reg.inc(
                &format!("pool.worker.{slot}.busy_ns"),
                u128::from(stat.busy_ns.load(Ordering::Relaxed)),
            );
        }
    }
}

impl Drop for PoolCore {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let workers = std::mem::take(&mut *lock_ok(&self.workers));
        for w in &workers {
            w.thread.unpark();
        }
        for w in workers {
            // A worker that panicked outside a job already surfaced its
            // payload through `run_job`; ignore the join result.
            let _ = w.join.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, slot: usize, mut seen: u64) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let e = shared.epoch.load(Ordering::SeqCst);
        if e == seen {
            // Nothing new; an unpark token (if one is pending) makes
            // this return immediately, otherwise we sleep until poked.
            std::thread::park();
            continue;
        }
        seen = e;
        let body = {
            let job = lock_ok(&shared.job);
            // Participate only in the job we were counted into: same
            // generation, slot inside the published width.
            if job.generation == e && slot < job.width {
                job.body
            } else {
                None
            }
        };
        let Some(JobRef(ptr)) = body else {
            continue;
        };
        let t_start = mono_ns();
        let queue_ns = t_start.saturating_sub(shared.published_ns.load(Ordering::Relaxed));
        // SAFETY: `run_job` blocks until `outstanding` drains, so the
        // pointee is alive until our decrement below.
        let res = catch_unwind(AssertUnwindSafe(|| unsafe { (*ptr)(slot) }));
        let busy_ns = mono_ns().saturating_sub(t_start);
        let stat = &shared.stats[slot];
        stat.last_busy_ns.store(busy_ns, Ordering::Relaxed);
        stat.last_queue_ns.store(queue_ns, Ordering::Relaxed);
        stat.jobs.fetch_add(1, Ordering::Relaxed);
        stat.busy_ns.fetch_add(busy_ns, Ordering::Relaxed);
        if let Err(payload) = res {
            let mut first = lock_ok(&shared.panic);
            first.get_or_insert(payload);
        }
        // Read the caller handle *before* the decrement: once the latch
        // hits zero the submitter may clear the slot and move on.
        let caller = lock_ok(&shared.job).caller.clone();
        if shared.outstanding.fetch_sub(1, Ordering::SeqCst) == 1 {
            if let Some(c) = caller {
                c.unpark();
            }
        }
    }
}

/// The process-wide core every [`crate::Pool`] dispatches through.
/// Spawns nothing until the first above-threshold parallel job.
pub(crate) fn global() -> &'static PoolCore {
    static CORE: OnceLock<PoolCore> = OnceLock::new();
    CORE.get_or_init(PoolCore::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_joins_all_workers_cleanly() {
        let core = PoolCore::new();
        let hits = AtomicUsize::new(0);
        let body = |_slot: usize| {
            hits.fetch_add(1, Ordering::SeqCst);
        };
        assert!(core.run_job(3, &body));
        // 3 workers + the caller all ran the body.
        assert_eq!(hits.load(Ordering::SeqCst), 4);
        assert_eq!(core.workers_spawned(), 3);
        drop(core); // must not hang: shutdown flag + unpark + join
    }

    #[test]
    fn workers_are_reused_across_jobs() {
        let core = PoolCore::new();
        for _ in 0..50 {
            let body = |_slot: usize| {};
            assert!(core.run_job(2, &body));
        }
        assert_eq!(core.workers_spawned(), 2, "parked workers are reused");
        assert_eq!(core.jobs_dispatched(), 50);
    }

    #[test]
    fn narrow_jobs_leave_extra_workers_parked() {
        let core = PoolCore::new();
        let wide = AtomicUsize::new(0);
        assert!(core.run_job(4, &|_| {
            wide.fetch_add(1, Ordering::SeqCst);
        }));
        assert_eq!(wide.load(Ordering::SeqCst), 5);
        let narrow = AtomicUsize::new(0);
        assert!(core.run_job(1, &|_| {
            narrow.fetch_add(1, Ordering::SeqCst);
        }));
        // Only worker 0 and the caller participate; workers 1..4 stay
        // parked and the latch still drains.
        assert_eq!(narrow.load(Ordering::SeqCst), 2);
        assert_eq!(core.workers_spawned(), 4);
    }

    #[test]
    fn worker_panic_propagates_after_join() {
        let core = PoolCore::new();
        let res = catch_unwind(AssertUnwindSafe(|| {
            core.run_job(2, &|slot| {
                if slot == 0 {
                    panic!("worker boom");
                }
            });
        }));
        assert!(res.is_err());
        // The core survives a panicked job and runs the next one.
        let ok = AtomicUsize::new(0);
        assert!(core.run_job(2, &|_| {
            ok.fetch_add(1, Ordering::SeqCst);
        }));
        assert_eq!(ok.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn busy_core_reports_false_instead_of_deadlocking() {
        let core = PoolCore::new();
        let nested_refused = AtomicBool::new(false);
        assert!(core.run_job(2, &|slot| {
            if slot == 0 {
                // A nested submission from inside a job must be refused
                // (the caller then runs it inline) — never deadlock.
                let refused = !core.run_job(1, &|_| {});
                nested_refused.store(refused, Ordering::SeqCst);
            }
        }));
        assert!(nested_refused.load(Ordering::SeqCst));
    }
}
