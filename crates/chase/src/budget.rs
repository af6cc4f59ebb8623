//! Step/size budgets for chase procedures.
//!
//! General settings can make any chase run forever (the paper proves
//! Existence-of-(CWA-)Solutions undecidable via exactly such settings,
//! Theorem 6.2), so every chase here takes an explicit budget and reports
//! exceeding it as a distinct outcome rather than diverging.
//!
//! Step and atom limits are enforced *exactly* (the historical
//! `BudgetExceeded` contract). A budget may additionally carry a
//! wall-clock deadline and a cooperative cancel flag; a chase run
//! without a caller's governor enforces those through a
//! [`dex_core::Governor`] built by [`ChaseBudget::governor`], and they
//! surface as `Interrupted` outcomes. Under
//! [`crate::ChaseEngine::with_governor`] the caller's governor replaces
//! them.

use dex_core::govern::{Clock, Governor};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// Limits on a chase run.
#[derive(Clone, Debug)]
pub struct ChaseBudget {
    /// Maximum number of chase steps (tgd applications + egd applications).
    pub max_steps: usize,
    /// Maximum number of atoms in the evolving instance.
    pub max_atoms: usize,
    /// Optional wall-clock deadline for the whole run.
    pub deadline: Option<Duration>,
    /// Optional cooperative cancel flag (raised by another thread).
    pub cancel: Option<Arc<AtomicBool>>,
}

impl ChaseBudget {
    pub fn new(max_steps: usize, max_atoms: usize) -> ChaseBudget {
        ChaseBudget {
            max_steps,
            max_atoms,
            deadline: None,
            cancel: None,
        }
    }

    /// A small budget for quickly probing (non-)termination.
    pub fn probe() -> ChaseBudget {
        ChaseBudget::new(400, 8_000)
    }

    /// Adds a wall-clock deadline (counted from when the chase starts).
    pub fn with_deadline(mut self, deadline: Duration) -> ChaseBudget {
        self.deadline = Some(deadline);
        self
    }

    /// Adds a cooperative cancel flag.
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> ChaseBudget {
        self.cancel = Some(cancel);
        self
    }

    /// Builds the [`Governor`] enforcing this budget's deadline and
    /// cancel flag on `clock` (the deadline countdown starts now). Step
    /// and atom limits stay with the chase drivers, which enforce them
    /// exactly rather than amortized.
    pub fn governor(&self, clock: &Clock) -> Governor {
        let mut gov = Governor::with_clock_now(clock.clone());
        if let Some(d) = self.deadline {
            gov = gov.with_deadline(d);
        }
        if let Some(c) = &self.cancel {
            gov = gov.with_cancel(Arc::clone(c));
        }
        gov
    }
}

impl Default for ChaseBudget {
    fn default() -> ChaseBudget {
        ChaseBudget::new(100_000, 1_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_core::govern::InterruptReason;
    use std::sync::atomic::Ordering;

    #[test]
    fn default_is_generous() {
        let b = ChaseBudget::default();
        assert!(b.max_steps >= 10_000);
        assert!(b.max_atoms >= b.max_steps);
        assert!(b.deadline.is_none() && b.cancel.is_none());
    }

    #[test]
    fn probe_is_small() {
        assert!(ChaseBudget::probe().max_steps < ChaseBudget::default().max_steps);
    }

    #[test]
    fn governor_carries_deadline_and_cancel() {
        let (clock, mock) = Clock::mock();
        let flag = Arc::new(AtomicBool::new(false));
        let b = ChaseBudget::default()
            .with_deadline(Duration::from_millis(5))
            .with_cancel(Arc::clone(&flag));
        let gov = b.governor(&clock);
        gov.force_check().unwrap();
        mock.advance(Duration::from_millis(6));
        assert_eq!(
            gov.force_check().unwrap_err().reason,
            InterruptReason::Deadline
        );
        let gov2 = b.governor(&clock);
        flag.store(true, Ordering::Relaxed);
        assert_eq!(
            gov2.force_check().unwrap_err().reason,
            InterruptReason::Cancelled
        );
    }

    #[test]
    fn governor_without_limits_passes() {
        let gov = ChaseBudget::probe().governor(&Clock::real());
        for _ in 0..5000 {
            gov.check().unwrap();
        }
    }
}
