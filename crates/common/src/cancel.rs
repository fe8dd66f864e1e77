//! Cooperative cancellation for long-running simulations.
//!
//! A [`CancelToken`] is a cheap, clonable handle shared between the party
//! that wants a run stopped (a serving deadline, a Ctrl-C handler, a test
//! harness) and the code that spends the time (the TOGSim engine, the
//! staged compiler, sweep workers). Cancellation is *cooperative*: the
//! running code polls the token at bounded intervals and unwinds by
//! returning [`Error::Cancelled`] through the ordinary error path, so a
//! cancelled run releases locks and compile-cache gates exactly like any
//! other failed run.
//!
//! Three triggers can fire a token, and they compose:
//!
//! - an explicit [`CancelToken::cancel`] call from any thread,
//! - an optional wall-clock deadline ([`CancelToken::with_timeout`] /
//!   [`CancelToken::with_deadline`]), observed lazily at poll time,
//! - an optional deterministic *poll budget*
//!   ([`CancelToken::with_poll_budget`]): the token fires on the N-th
//!   [`poll`](CancelToken::poll). Poll sites are deterministic for a given
//!   run, which makes budget-triggered cancellation seed-reproducible —
//!   the property the `cancel_consistency` fuzz oracle leans on.
//!
//! # Examples
//!
//! ```
//! use ptsim_common::cancel::CancelToken;
//!
//! let token = CancelToken::with_poll_budget(2);
//! assert!(token.checkpoint(0, "compile:plan").is_ok());
//! assert!(token.checkpoint(0, "compile:emit").is_ok());
//! let err = token.checkpoint(17, "togsim").unwrap_err();
//! assert_eq!(err.to_string(), "cancelled at cycle 17 during togsim");
//! ```

use crate::error::{Error, Result};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sentinel for "no poll budget"; never decremented.
const UNLIMITED: u64 = u64::MAX;

#[derive(Debug)]
struct Inner {
    /// Latched once any trigger fires; later polls are a single load.
    cancelled: AtomicBool,
    /// Optional wall-clock deadline, checked lazily at poll time.
    deadline: Option<Instant>,
    /// Remaining deterministic poll budget ([`UNLIMITED`] = none).
    budget: AtomicU64,
}

/// A shared cancellation flag with an optional wall-clock deadline and an
/// optional deterministic poll budget.
///
/// Clones share state: cancelling any clone cancels them all. The token
/// never *stops* anything by itself — simulation loops must poll it (see
/// the crate docs for the poll points).
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    fn build(deadline: Option<Instant>, budget: u64) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline,
                budget: AtomicU64::new(budget),
            }),
        }
    }

    /// A token that only fires on an explicit [`cancel`](Self::cancel).
    pub fn new() -> Self {
        Self::build(None, UNLIMITED)
    }

    /// A token that fires once `timeout` has elapsed (measured from now).
    pub fn with_timeout(timeout: Duration) -> Self {
        Self::build(Instant::now().checked_add(timeout), UNLIMITED)
    }

    /// A token that fires once the wall clock reaches `deadline`.
    pub fn with_deadline(deadline: Instant) -> Self {
        Self::build(Some(deadline), UNLIMITED)
    }

    /// A token that fires deterministically on its `polls`-th
    /// [`poll`](Self::poll) (a budget of 0 is already cancelled).
    ///
    /// Poll sites sit at fixed points of the run (compile-stage
    /// boundaries, scheduler-step multiples), so for a fixed workload,
    /// config, and backend the cancellation lands at the same simulated
    /// cycle every time.
    pub fn with_poll_budget(polls: u64) -> Self {
        Self::build(None, polls.min(UNLIMITED - 1))
    }

    /// Fires the token. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// True once any trigger has fired. Checks the wall-clock deadline
    /// (latching it) but does **not** consume poll budget, so state
    /// inspection never perturbs a deterministic budget schedule.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return true;
        }
        if self.deadline_expired() {
            self.cancel();
            return true;
        }
        false
    }

    /// True if this token carries a wall-clock deadline that has passed.
    ///
    /// Independent of the latched flag: callers use it to attribute a
    /// cancellation to the deadline rather than to an explicit
    /// [`cancel`](Self::cancel) (e.g. deadline-503 vs shutdown-503).
    pub fn deadline_expired(&self) -> bool {
        self.inner.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// One bounded-interval poll: consumes one unit of poll budget, then
    /// reports whether the token has fired.
    pub fn poll(&self) -> bool {
        if self.inner.budget.load(Ordering::Relaxed) != UNLIMITED {
            let exhausted = self
                .inner
                .budget
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
                .is_err();
            if exhausted {
                self.cancel();
                return true;
            }
        }
        self.is_cancelled()
    }

    /// [`poll`](Self::poll), packaged as the typed error a simulation
    /// layer returns: `Err(Error::Cancelled { at_cycle, phase })` once the
    /// token has fired.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Cancelled`] if the token has fired.
    pub fn checkpoint(&self, at_cycle: u64, phase: &'static str) -> Result<()> {
        if self.poll() {
            Err(Error::Cancelled { at_cycle, phase })
        } else {
            Ok(())
        }
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_not_cancelled() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(!t.poll());
        assert!(t.checkpoint(0, "test").is_ok());
    }

    #[test]
    fn explicit_cancel_is_shared_across_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        c.cancel();
        assert!(t.is_cancelled());
        assert_eq!(
            t.checkpoint(42, "togsim"),
            Err(Error::Cancelled { at_cycle: 42, phase: "togsim" })
        );
    }

    #[test]
    fn poll_budget_fires_deterministically() {
        let t = CancelToken::with_poll_budget(3);
        assert!(!t.poll());
        assert!(!t.poll());
        assert!(!t.poll());
        assert!(t.poll());
        // Latched: every later poll stays cancelled.
        assert!(t.poll());
        assert!(t.is_cancelled());
    }

    #[test]
    fn zero_budget_cancels_on_first_poll() {
        let t = CancelToken::with_poll_budget(0);
        assert!(!t.is_cancelled(), "budget only fires via poll");
        assert!(t.poll());
    }

    #[test]
    fn is_cancelled_does_not_consume_budget() {
        let t = CancelToken::with_poll_budget(1);
        for _ in 0..10 {
            assert!(!t.is_cancelled());
        }
        assert!(!t.poll());
        assert!(t.poll());
    }

    #[test]
    fn elapsed_deadline_fires_and_attributes() {
        let t = CancelToken::with_deadline(Instant::now());
        assert!(t.deadline_expired());
        assert!(t.is_cancelled());
        assert!(t.poll());
    }

    #[test]
    fn future_deadline_does_not_fire() {
        let t = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(!t.deadline_expired());
        assert!(!t.poll());
        // An explicit cancel is not attributed to the deadline.
        t.cancel();
        assert!(t.is_cancelled());
        assert!(!t.deadline_expired());
    }

    #[test]
    fn token_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CancelToken>();
    }
}
