//! Work budgets for pipeline stages — wall-clock deadline plus a
//! solver-call cap. (The path cap is the symbolic executor's
//! `PathLimits::max_paths`.)
//!
//! The paper's vendor workflow (§4) runs NFactor unattended over
//! arbitrary NF sources, so every stage must terminate inside a bound
//! and degrade gracefully when it can't finish: Table 2 reports the
//! un-sliced snort exploration as "> 1000 paths" precisely because the
//! run was cut off by a budget. A [`Budget`] makes that cut-off a
//! first-class input: the pipeline threads one value through slicing
//! and symbolic execution, and on exhaustion returns a *partial* model
//! stamped `Completeness::Truncated { reason }` instead of hanging or
//! aborting.
//!
//! The deadline is fixed at construction time ([`Budget::with_timeout`]
//! calls `Instant::now()`), so one `Budget` covers the whole pipeline
//! run it was built for — slicing overruns eat into the symbolic
//! execution's remaining time, exactly like a request deadline.

use std::time::{Duration, Instant};

/// Resource limits for a pipeline run. `Default`/[`Budget::unlimited`]
/// imposes nothing; each cap is opt-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budget {
    /// Absolute wall-clock deadline (set via [`Budget::with_timeout`]).
    pub deadline: Option<Instant>,
    /// Cap on SMT-lite solver invocations across the whole exploration.
    pub max_solver_calls: Option<usize>,
}

impl Budget {
    /// A budget that never exhausts.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Set a wall-clock deadline `timeout` from *now*.
    pub fn with_timeout(mut self, timeout: Duration) -> Budget {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// [`Budget::with_timeout`] in milliseconds (the CLI's `--timeout-ms`).
    pub fn with_timeout_ms(self, ms: u64) -> Budget {
        self.with_timeout(Duration::from_millis(ms))
    }

    /// Cap the number of solver calls.
    pub fn with_max_solver_calls(mut self, n: usize) -> Budget {
        self.max_solver_calls = Some(n);
        self
    }

    /// Has the wall-clock deadline passed?
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Time left before the deadline (`None` when no deadline is set).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_expires() {
        let b = Budget::unlimited();
        assert!(!b.expired());
        assert_eq!(b.remaining(), None);
    }

    #[test]
    fn zero_timeout_expires_immediately() {
        let b = Budget::unlimited().with_timeout(Duration::from_millis(0));
        assert!(b.expired());
        assert_eq!(b.remaining(), Some(Duration::from_millis(0)));
    }

    #[test]
    fn generous_timeout_not_yet_expired() {
        let b = Budget::unlimited().with_timeout(Duration::from_secs(3600));
        assert!(!b.expired());
        assert!(b.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn caps_compose() {
        let b = Budget::unlimited()
            .with_timeout(Duration::from_secs(3600))
            .with_max_solver_calls(5);
        assert_eq!(b.max_solver_calls, Some(5));
        assert!(!b.expired());
    }
}
