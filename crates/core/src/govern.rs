//! Resource governance for every potentially-unbounded computation.
//!
//! The paper is a map of where this engine can hang: existence of
//! CWA-solutions is undecidable in general (Theorem 6.2), recognition
//! rides on NP-hard homomorphism checks (Theorems 5.1/5.2), and the four
//! query semantics are coNP-hard already for ground settings (Theorem
//! 7.5). A [`Governor`] bounds such a computation by *fuel* (a step
//! budget), a wall-clock *deadline* and a cooperative *cancel* flag —
//! and reports the trip as a structured [`Interrupt`] instead of a panic
//! or silent divergence.
//!
//! The hot path is one amortized [`Governor::check`] call per unit of
//! work (a tick): an increment plus one comparison, with the expensive
//! conditions (clock read, atomic cancel load) evaluated only every
//! [`CHECK_INTERVAL`] ticks. Fuel and injected faults are compared on
//! every tick, so a 1-tick fault plan trips deterministically at tick 1.
//!
//! Time flows through a [`Clock`] — real (monotonic, process-epoch
//! nanoseconds) or mocked ([`Clock::mock`]) — shared by deadline checks
//! and the chase drivers' phase timings, so tests can fabricate
//! deadlines without sleeping.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use dex_obs::{EventKind, JsonValue, MetricsRegistry, Tracer};

/// Ticks between full (deadline/cancel) evaluations in
/// [`Governor::check`]. A power of two so the test is a mask.
pub const CHECK_INTERVAL: u64 = 1024;

const MASK: u64 = CHECK_INTERVAL - 1;

/// Why a governed computation was interrupted.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum InterruptReason {
    /// The step budget (fuel) ran out.
    Fuel,
    /// The wall-clock deadline passed.
    Deadline,
    /// A memory limit was exceeded. Only injected faults
    /// ([`Governor::with_fault`]) raise it: the governor itself limits
    /// no memory.
    Memory,
    /// The cooperative cancel flag was raised.
    Cancelled,
}

impl InterruptReason {
    /// The stable snake_case tag used in trace events and JSON.
    pub fn tag(&self) -> &'static str {
        match self {
            InterruptReason::Fuel => "fuel",
            InterruptReason::Deadline => "deadline",
            InterruptReason::Memory => "memory",
            InterruptReason::Cancelled => "cancelled",
        }
    }
}

impl fmt::Display for InterruptReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterruptReason::Fuel => write!(f, "fuel exhausted"),
            InterruptReason::Deadline => write!(f, "deadline passed"),
            InterruptReason::Memory => write!(f, "memory limit exceeded"),
            InterruptReason::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// How far a computation got before its governor tripped.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Progress {
    /// Work units consumed ([`Governor::check`] calls).
    pub ticks: u64,
    /// Full (deadline/cancel) evaluations performed.
    pub checks: u64,
}

/// A structured interruption: the reason plus the progress made.
///
/// This replaces ad-hoc budget errors and `unreachable!` arms: every
/// governed API either completes or returns one of these (possibly
/// wrapped in a domain error), never panics.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Interrupt {
    pub reason: InterruptReason,
    pub progress: Progress,
}

impl Interrupt {
    /// The interrupt as a flat JSON object (for `EnumStats` /
    /// `GovernedAnswers` exports).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .with("reason", JsonValue::str(self.reason.tag()))
            .with("ticks", JsonValue::uint(self.progress.ticks))
            .with("checks", JsonValue::uint(self.progress.checks))
    }
}

impl fmt::Display for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "interrupted ({}) after {} ticks",
            self.reason, self.progress.ticks
        )
    }
}

impl std::error::Error for Interrupt {}

/// A three-valued answer for governed decision procedures: per-tuple
/// query verdicts, solution checks, and anything else that may run out
/// of resources before deciding.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    True,
    False,
    /// Undecided: the governor tripped before this case was resolved.
    Unknown(InterruptReason),
}

impl Verdict {
    pub fn from_bool(b: bool) -> Verdict {
        if b {
            Verdict::True
        } else {
            Verdict::False
        }
    }

    pub fn is_true(&self) -> bool {
        *self == Verdict::True
    }

    pub fn is_false(&self) -> bool {
        *self == Verdict::False
    }

    pub fn is_unknown(&self) -> bool {
        matches!(self, Verdict::Unknown(_))
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::True => write!(f, "true"),
            Verdict::False => write!(f, "false"),
            Verdict::Unknown(r) => write!(f, "unknown ({r})"),
        }
    }
}

fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// A monotonic nanosecond clock: the single time source for deadline
/// checks *and* the chase drivers' phase timings, so the two can never
/// disagree — and so tests can substitute a mock.
#[derive(Clone, Debug)]
pub struct Clock {
    inner: ClockInner,
}

#[derive(Clone, Debug)]
enum ClockInner {
    Real,
    Mock(Arc<AtomicU64>),
}

impl Default for Clock {
    fn default() -> Clock {
        Clock::real()
    }
}

impl Clock {
    /// The real monotonic clock (nanoseconds since an arbitrary
    /// process-local epoch).
    pub fn real() -> Clock {
        // Touch the epoch now so the first `now_ns` is not 0 biased.
        let _ = process_epoch();
        Clock {
            inner: ClockInner::Real,
        }
    }

    /// A mock clock starting at 0 ns, advanced explicitly through the
    /// returned [`MockClock`] handle.
    pub fn mock() -> (Clock, MockClock) {
        let cell = Arc::new(AtomicU64::new(0));
        (
            Clock {
                inner: ClockInner::Mock(Arc::clone(&cell)),
            },
            MockClock(cell),
        )
    }

    /// Current time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            ClockInner::Real => process_epoch().elapsed().as_nanos() as u64,
            ClockInner::Mock(cell) => cell.load(Ordering::Relaxed),
        }
    }
}

/// The controlling handle of a [`Clock::mock`] pair.
#[derive(Clone, Debug)]
pub struct MockClock(Arc<AtomicU64>);

impl MockClock {
    /// Advances the mocked time.
    pub fn advance(&self, by: Duration) {
        self.0.fetch_add(by.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Sets the mocked time to an absolute nanosecond value.
    pub fn set_ns(&self, ns: u64) {
        self.0.store(ns, Ordering::Relaxed);
    }
}

/// A resource governor: fuel + deadline + cancel flag,
/// checked cooperatively by the governed computation.
///
/// Construction is builder-style from [`Governor::unlimited`]; every
/// limit defaults to "none", so an unlimited governor's [`check`] is a
/// counter increment and one always-false comparison.
///
/// [`check`]: Governor::check
pub struct Governor {
    clock: Clock,
    start_ns: u64,
    /// Tick count at which fuel runs out (`u64::MAX` = unlimited).
    fuel: u64,
    /// Tick count at which an injected fault trips (`u64::MAX` = none).
    fault_at: u64,
    fault_reason: InterruptReason,
    /// `min(fuel, fault_at)` — the single hot-path comparison.
    trip_at: u64,
    /// Deadline as a duration from `start_ns` (`u64::MAX` = none).
    deadline_ns: u64,
    cancel: Option<Arc<AtomicBool>>,
    tracer: Tracer,
    // Relaxed atomics, not `Cell`s, so one governor budget can be shared
    // by a `dex-par` worker pool (`&Governor` is `Sync`). Counters use
    // plain load + store — exact when single-threaded (the trip tick is
    // deterministic, which fault-plan replay relies on); under sharing,
    // concurrent increments may be lost, so the counts are approximate
    // lower bounds but each limit still trips within a bounded overshoot
    // (every worker's own increments are observed by its own checks).
    ticks: AtomicU64,
    checks: AtomicU64,
    trips: AtomicU64,
}

impl fmt::Debug for Governor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Governor")
            .field("fuel", &self.fuel)
            .field("fault_at", &self.fault_at)
            .field("deadline_ns", &self.deadline_ns)
            .field("cancelled", &self.is_cancelled())
            .field("ticks", &self.ticks())
            .finish()
    }
}

impl Default for Governor {
    fn default() -> Governor {
        Governor::unlimited()
    }
}

impl Governor {
    /// A governor with no limits at all (every check passes).
    pub fn unlimited() -> Governor {
        Governor::with_clock_now(Clock::real())
    }

    /// A governor reading time (for deadlines) from `clock`; the
    /// deadline countdown starts now (in `clock` terms).
    pub fn with_clock_now(clock: Clock) -> Governor {
        let start_ns = clock.now_ns();
        Governor {
            clock,
            start_ns,
            fuel: u64::MAX,
            fault_at: u64::MAX,
            fault_reason: InterruptReason::Fuel,
            trip_at: u64::MAX,
            deadline_ns: u64::MAX,
            cancel: None,
            tracer: Tracer::off(),
            ticks: AtomicU64::new(0),
            checks: AtomicU64::new(0),
            trips: AtomicU64::new(0),
        }
    }

    /// Limits the computation to `fuel` ticks: the `fuel`-th
    /// [`Governor::check`] call fails.
    pub fn with_fuel(mut self, fuel: u64) -> Governor {
        self.fuel = fuel;
        self.trip_at = self.fuel.min(self.fault_at);
        self
    }

    /// Sets a wall-clock deadline, measured from *now* on this
    /// governor's clock. Evaluated every [`CHECK_INTERVAL`] ticks.
    pub fn with_deadline(mut self, deadline: Duration) -> Governor {
        self.start_ns = self.clock.now_ns();
        self.deadline_ns = deadline.as_nanos() as u64;
        self
    }

    /// Attaches a cooperative cancel flag (raised by another thread).
    pub fn with_cancel(mut self, flag: Arc<AtomicBool>) -> Governor {
        self.cancel = Some(flag);
        self
    }

    /// Injects a fault: the `trip_at`-th [`Governor::check`] call fails
    /// with `reason`, regardless of the real limits. Deterministic (the
    /// fault condition is evaluated on *every* tick), which is what lets
    /// `DEX_FAULT_SEED` replay an exact trip point.
    pub fn with_fault(mut self, trip_at: u64, reason: InterruptReason) -> Governor {
        self.fault_at = trip_at;
        self.fault_reason = reason;
        self.trip_at = self.fuel.min(self.fault_at);
        self
    }

    /// Attaches a tracer: every trip emits a `GovernorTripped` event.
    pub fn with_tracer(mut self, tracer: Tracer) -> Governor {
        self.tracer = tracer;
        self
    }

    /// A governor for one unit of a search fanned out on a worker pool:
    /// it shares this governor's clock, deadline and cancel flag, traces
    /// to `tracer` (typically a private ring re-emitted after the join),
    /// and keeps its own counters with no fuel or injected fault — the
    /// owner ticks those once per unit, in submission order, so a trip
    /// point never depends on how workers interleave.
    pub fn worker(&self, tracer: Tracer) -> Governor {
        Governor {
            clock: self.clock.clone(),
            start_ns: self.start_ns,
            deadline_ns: self.deadline_ns,
            cancel: self.cancel.clone(),
            tracer,
            ..Governor::with_clock_now(self.clock.clone())
        }
    }

    /// The tracer attached to this governor (off by default). Searches
    /// that take a governor but no engine handle (hom/core) emit their
    /// events through this.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The clock this governor (and anything sharing it) reads.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Ticks consumed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Full (deadline/cancel) evaluations performed so far.
    pub fn checks(&self) -> u64 {
        self.checks.load(Ordering::Relaxed)
    }

    /// True iff an attached cancel flag is raised.
    pub fn is_cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }

    fn progress(&self) -> Progress {
        Progress {
            ticks: self.ticks(),
            checks: self.checks(),
        }
    }

    /// Interrupts constructed (trips). More than one is possible when
    /// a caller probes a tripped governor again via `force_check`.
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    /// Exports this governor's counters into a metrics registry under
    /// `prefix` (e.g. `prefix = "governor"` yields `governor.ticks`).
    pub fn export_metrics(&self, registry: &mut MetricsRegistry, prefix: &str) {
        registry.inc(&format!("{prefix}.ticks"), u128::from(self.ticks()));
        registry.inc(&format!("{prefix}.checks"), u128::from(self.checks()));
        registry.inc(&format!("{prefix}.trips"), u128::from(self.trips()));
    }

    /// Builds the [`Interrupt`] this governor would report for `reason`.
    /// This is the single construction point for interrupts, so it is
    /// also where trips are counted and the trip event is emitted.
    pub fn interrupt(&self, reason: InterruptReason) -> Interrupt {
        self.trips.fetch_add(1, Ordering::Relaxed);
        if self.tracer.enabled() {
            self.tracer.emit(
                self.clock.now_ns(),
                EventKind::GovernorTripped {
                    reason: reason.tag().to_string(),
                    ticks: self.ticks(),
                },
            );
        }
        Interrupt {
            reason,
            progress: self.progress(),
        }
    }

    /// Consumes one tick of work. Fuel and injected faults are tested on
    /// every call; deadline and cancel every [`CHECK_INTERVAL`]-th call
    /// (so a deadline can overshoot by up to `CHECK_INTERVAL - 1` ticks
    /// of work — callers tick per *cheap* unit, not per phase).
    #[inline]
    pub fn check(&self) -> Result<(), Interrupt> {
        let t = self.ticks.load(Ordering::Relaxed) + 1;
        self.ticks.store(t, Ordering::Relaxed);
        if t >= self.trip_at {
            let reason = if t >= self.fault_at {
                self.fault_reason
            } else {
                InterruptReason::Fuel
            };
            return Err(self.interrupt(reason));
        }
        if t & MASK == 0 {
            self.slow_check()
        } else {
            Ok(())
        }
    }

    /// Evaluates deadline and cancel immediately, bypassing the
    /// amortization (for phase boundaries and coarse outer loops).
    pub fn force_check(&self) -> Result<(), Interrupt> {
        if self.ticks() >= self.trip_at {
            let reason = if self.ticks() >= self.fault_at {
                self.fault_reason
            } else {
                InterruptReason::Fuel
            };
            return Err(self.interrupt(reason));
        }
        self.slow_check()
    }

    #[cold]
    fn slow_check(&self) -> Result<(), Interrupt> {
        self.checks.fetch_add(1, Ordering::Relaxed);
        if self.is_cancelled() {
            return Err(self.interrupt(InterruptReason::Cancelled));
        }
        if self.deadline_ns != u64::MAX
            && self.clock.now_ns().saturating_sub(self.start_ns) >= self.deadline_ns
        {
            return Err(self.interrupt(InterruptReason::Deadline));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let g = Governor::unlimited();
        for _ in 0..10_000 {
            g.check().unwrap();
        }
        assert_eq!(g.ticks(), 10_000);
        // The slow path ran (every CHECK_INTERVAL ticks) and passed.
        assert!(g.checks() >= 9);
    }

    #[test]
    fn worker_shares_deadline_and_cancel_but_not_fuel() {
        let (clock, mock) = Clock::mock();
        let flag = Arc::new(AtomicBool::new(false));
        let owner = Governor::with_clock_now(clock)
            .with_deadline(Duration::from_millis(5))
            .with_cancel(Arc::clone(&flag))
            .with_fuel(2);
        let w = owner.worker(Tracer::off());
        for _ in 0..10 {
            w.check().unwrap();
        }
        assert_eq!(owner.ticks(), 0);
        mock.advance(Duration::from_millis(6));
        assert_eq!(
            w.force_check().unwrap_err().reason,
            InterruptReason::Deadline
        );
        let w2 = Governor::unlimited()
            .with_cancel(Arc::clone(&flag))
            .worker(Tracer::off());
        w2.force_check().unwrap();
        flag.store(true, Ordering::Relaxed);
        assert_eq!(
            w2.force_check().unwrap_err().reason,
            InterruptReason::Cancelled
        );
    }

    #[test]
    fn fuel_trips_at_exact_tick() {
        let g = Governor::unlimited().with_fuel(100);
        for _ in 0..99 {
            g.check().unwrap();
        }
        let err = g.check().unwrap_err();
        assert_eq!(err.reason, InterruptReason::Fuel);
        assert_eq!(err.progress.ticks, 100);
    }

    #[test]
    fn one_tick_fault_trips_immediately() {
        let g = Governor::unlimited().with_fault(1, InterruptReason::Memory);
        let err = g.check().unwrap_err();
        assert_eq!(err.reason, InterruptReason::Memory);
        assert_eq!(err.progress.ticks, 1);
    }

    #[test]
    fn fault_is_deterministic_off_the_check_interval() {
        // 1000 is not a multiple of CHECK_INTERVAL: the fault must still
        // trip there (it is evaluated every tick, not amortized).
        let g = Governor::unlimited().with_fault(1000, InterruptReason::Cancelled);
        for _ in 0..999 {
            g.check().unwrap();
        }
        assert_eq!(g.check().unwrap_err().reason, InterruptReason::Cancelled);
    }

    #[test]
    fn deadline_with_mock_clock() {
        let (clock, mock) = Clock::mock();
        let g = Governor::with_clock_now(clock).with_deadline(Duration::from_millis(50));
        g.force_check().unwrap();
        mock.advance(Duration::from_millis(49));
        g.force_check().unwrap();
        mock.advance(Duration::from_millis(2));
        assert_eq!(
            g.force_check().unwrap_err().reason,
            InterruptReason::Deadline
        );
        // The amortized path sees it too, within CHECK_INTERVAL ticks.
        let err = (0..CHECK_INTERVAL + 1)
            .find_map(|_| g.check().err())
            .expect("deadline surfaces within one interval");
        assert_eq!(err.reason, InterruptReason::Deadline);
    }

    #[test]
    fn cancel_flag_trips() {
        let flag = Arc::new(AtomicBool::new(false));
        let g = Governor::unlimited().with_cancel(Arc::clone(&flag));
        g.force_check().unwrap();
        flag.store(true, Ordering::Relaxed);
        assert_eq!(
            g.force_check().unwrap_err().reason,
            InterruptReason::Cancelled
        );
    }

    #[test]
    fn mock_clock_is_shared_time_source() {
        let (clock, mock) = Clock::mock();
        let t0 = clock.now_ns();
        mock.advance(Duration::from_nanos(42));
        assert_eq!(clock.now_ns() - t0, 42);
        mock.set_ns(7);
        assert_eq!(clock.now_ns(), 7);
    }

    #[test]
    fn real_clock_is_monotonic() {
        let c = Clock::real();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn verdict_helpers() {
        assert!(Verdict::from_bool(true).is_true());
        assert!(Verdict::from_bool(false).is_false());
        let u = Verdict::Unknown(InterruptReason::Deadline);
        assert!(u.is_unknown());
        assert_eq!(format!("{u}"), "unknown (deadline passed)");
    }

    #[test]
    fn trips_are_counted_and_traced() {
        use dex_obs::RingRecorder;
        let ring = Arc::new(RingRecorder::new(8));
        let (clock, mock) = Clock::mock();
        mock.set_ns(99);
        let g = Governor::with_clock_now(clock)
            .with_tracer(Tracer::new(ring.clone()))
            .with_fuel(2);
        g.check().unwrap();
        assert_eq!(g.trips(), 0);
        g.check().unwrap_err();
        assert_eq!(g.trips(), 1);
        let events = ring.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].at_ns, 99);
        assert_eq!(
            events[0].kind,
            EventKind::GovernorTripped {
                reason: "fuel".into(),
                ticks: 2
            }
        );
        let mut reg = MetricsRegistry::new();
        g.export_metrics(&mut reg, "gov");
        assert_eq!(reg.counter("gov.ticks"), 2);
        assert_eq!(reg.counter("gov.trips"), 1);
    }

    #[test]
    fn interrupt_json_is_flat() {
        let g = Governor::unlimited().with_fuel(1);
        let err = g.check().unwrap_err();
        let j = err.to_json();
        assert_eq!(j.get("reason").unwrap().as_str(), Some("fuel"));
        assert_eq!(j.get("ticks").unwrap().as_u128(), Some(1));
    }

    #[test]
    fn interrupt_displays_reason_and_ticks() {
        let g = Governor::unlimited().with_fuel(1);
        let err = g.check().unwrap_err();
        assert_eq!(
            format!("{err}"),
            "interrupted (fuel exhausted) after 1 ticks"
        );
    }
}
