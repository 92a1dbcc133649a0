//! Cooperative run-lifecycle control: shared cancel flag + wall-clock
//! deadline, checked at phase boundaries and per-item fan-out points.
//!
//! A [`RunControl`] is owned (behind an `Arc`) by the search context and
//! shared by every pipeline stage — discovery, cache index builds, join
//! assembly, materialization, baselines, model training. Checks are
//! **cooperative**: nothing is ever killed mid-operation; instead each
//! stage polls [`RunControl::interrupted`] at its natural granularity
//! (per candidate, per hop, per row block) and winds down, returning
//! whatever partial result it has.
//!
//! Two interrupt sources, in priority order:
//!
//! 1. **Cancellation** — [`cancel`](RunControl::cancel) from any thread
//!    stamps the request time, so the pipeline can report its cancel latency
//!    (request → return). A cancel is final: it reaches every
//!    [`scoped`](RunControl::scoped) child, born before it or after, and is
//!    never cleared; a caller that runs again over the same context gives
//!    the run a fresh control (`SearchContext::with_request_control`), as
//!    the service does per request.
//! 2. **Deadline** — an absolute wall-clock instant, fixed when the
//!    control is made: only [`scoped`](RunControl::scoped) sets one, and
//!    the child keeps the minimum of its own and its parent's, so the
//!    effective deadline is the minimum across the chain.
//!
//! ## Ambient propagation
//!
//! Deep layers (the join kernel, the index cache) have no `RunControl`
//! parameter. The run's control travels in its
//! [`RequestScope`](crate::scope::RequestScope) and is polled from anywhere
//! with [`ambient_interrupted`]; with no scope entered the poll is one
//! thread-local read.

use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Why a stage stopped early. Ordered: cancellation wins over deadline
/// when both hold, so repeated polls report a stable reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupt {
    /// [`RunControl::cancel`] was called.
    Cancelled,
    /// The effective wall-clock deadline passed.
    DeadlineExceeded,
}

impl fmt::Display for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interrupt::Cancelled => write!(f, "cancelled"),
            Interrupt::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

/// Shared cancel flag + wall-clock deadline for one discovery request.
///
/// Cheap to poll: an atomic load per link of the chain, plus a clock read
/// when a deadline is set. Clone the `Arc` into any thread that should be
/// able to cancel the run.
#[derive(Debug, Default)]
pub struct RunControl {
    /// When `cancel()` was first called — the flag, and the start of the
    /// cancel-latency clock.
    cancelled_at: OnceLock<Instant>,
    /// The effective deadline: the minimum over this control's own and its
    /// parent's, fixed at construction.
    deadline: Option<Instant>,
    /// Run-scoped controls chain to the context-wide control so either can
    /// cancel.
    parent: Option<Arc<RunControl>>,
}

impl RunControl {
    /// A fresh control: not cancelled, no deadline.
    pub fn new() -> RunControl {
        RunControl::default()
    }

    /// A child control that also honours `self`'s cancel flag and deadline:
    /// its deadline is the earlier of `deadline` and `self`'s. The one way a
    /// run gets a deadline (e.g. from `AutoFeatConfig::time_budget`),
    /// without mutating — or leaking an expired deadline into — the
    /// context-wide control.
    pub fn scoped(self: &Arc<Self>, deadline: Option<Instant>) -> Arc<RunControl> {
        let deadline = match (deadline, self.deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        Arc::new(RunControl { deadline, parent: Some(Arc::clone(self)), ..RunControl::default() })
    }

    /// Request cancellation. Idempotent; the first call stamps the
    /// cancel-latency clock. Takes effect at the next cooperative poll.
    pub fn cancel(&self) {
        self.cancelled_at.get_or_init(Instant::now);
    }

    /// Has [`cancel`](RunControl::cancel) been called (here or on a parent)?
    pub fn is_cancelled(&self) -> bool {
        self.cancelled_at.get().is_some() || self.parent.as_ref().is_some_and(|p| p.is_cancelled())
    }

    /// When cancellation was first requested (here or on a parent).
    pub(crate) fn cancelled_at(&self) -> Option<Instant> {
        let own = self.cancelled_at.get().copied();
        let parent = self.parent.as_ref().and_then(|p| p.cancelled_at());
        match (own, parent) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Elapsed time since cancellation was requested, `None` if it wasn't.
    pub fn cancel_latency(&self) -> Option<Duration> {
        self.cancelled_at().map(|at| at.elapsed())
    }

    /// The effective deadline: the minimum over this control and its
    /// parents. `None` = unbounded.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Time left before the effective deadline (`None` = unbounded,
    /// `Some(ZERO)` = already expired).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline().map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// The cooperative poll: `Some(reason)` when the run should stop.
    /// Cancellation wins over deadline expiry.
    pub fn interrupted(&self) -> Option<Interrupt> {
        if self.is_cancelled() {
            return Some(Interrupt::Cancelled);
        }
        if self.deadline().is_some_and(|d| Instant::now() >= d) {
            return Some(Interrupt::DeadlineExceeded);
        }
        None
    }
}

/// Poll the current [`RequestScope`](crate::scope::RequestScope)'s control:
/// `None` when there is none or the run may continue. One thread-local read
/// — cheap enough for per-row-block checks in the join kernel.
pub fn ambient_interrupted() -> Option<Interrupt> {
    crate::scope::with_current(|s| s.ctl.as_ref().and_then(|ctl| ctl.interrupted()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_control_is_uninterrupted() {
        let ctl = RunControl::new();
        assert_eq!(ctl.interrupted(), None);
        assert!(!ctl.is_cancelled());
        assert_eq!(ctl.remaining(), None);
        assert_eq!(ctl.cancel_latency(), None);
    }

    #[test]
    fn cancel_is_idempotent_and_stamps_once() {
        let ctl = RunControl::new();
        ctl.cancel();
        let first = ctl.cancelled_at().unwrap();
        ctl.cancel();
        assert_eq!(ctl.cancelled_at(), Some(first), "stamp not overwritten");
        assert_eq!(ctl.interrupted(), Some(Interrupt::Cancelled));
        assert!(ctl.cancel_latency().unwrap() >= Duration::ZERO);
    }

    #[test]
    fn expired_deadline_interrupts_and_cancel_wins() {
        let ctl = Arc::new(RunControl::new()).scoped(Some(Instant::now()));
        assert_eq!(ctl.interrupted(), Some(Interrupt::DeadlineExceeded));
        assert_eq!(ctl.remaining(), Some(Duration::ZERO));
        ctl.cancel();
        assert_eq!(ctl.interrupted(), Some(Interrupt::Cancelled), "cancel outranks deadline");
    }

    #[test]
    fn scoped_child_sees_parent_cancel_and_tightest_deadline() {
        let near = Instant::now() + Duration::from_secs(1);
        let far = Instant::now() + Duration::from_secs(3600);
        let parent = Arc::new(RunControl::new()).scoped(Some(far));
        let child = parent.scoped(Some(near));
        assert_eq!(child.deadline(), Some(near), "min of chain");
        assert_eq!(parent.scoped(None).deadline(), Some(far), "no own deadline: the parent's");
        assert_eq!(parent.scoped(Some(far + Duration::from_secs(1))).deadline(), Some(far));
        assert_eq!(child.interrupted(), None);
        parent.cancel();
        assert_eq!(child.interrupted(), Some(Interrupt::Cancelled));
        assert!(child.cancelled_at().is_some(), "latency clock visible through the chain");
        // Child cancellation does not leak upward.
        let other = Arc::new(RunControl::new());
        other.scoped(None).cancel();
        assert!(!other.is_cancelled());
    }

    #[test]
    fn parent_cancel_reaches_children_born_before_and_after() {
        let parent = Arc::new(RunControl::new());
        let before = parent.scoped(None);
        parent.cancel();
        let after = parent.scoped(None);
        for child in [&before, &after] {
            assert_eq!(child.interrupted(), Some(Interrupt::Cancelled));
            assert_eq!(child.cancelled_at(), parent.cancelled_at());
        }
    }

    #[test]
    fn cancel_from_another_thread_is_visible() {
        let ctl = Arc::new(RunControl::new());
        let remote = Arc::clone(&ctl);
        let h = std::thread::spawn(move || remote.cancel());
        h.join().unwrap();
        assert_eq!(ctl.interrupted(), Some(Interrupt::Cancelled));
    }
}
