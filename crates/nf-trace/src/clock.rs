//! The wall-clock abstraction behind all nf-trace timing.
//!
//! Every duration the tracer reports comes from a [`Clock`], never from
//! a bare `Instant::now()`. Production code uses [`SystemClock`]; tests
//! swap in a [`MockClock`] to get byte-identical timings across runs.
//!
//! Both clocks hand out real [`std::time::Instant`] values (the mock
//! offsets a base instant captured at construction), so durations,
//! comparisons, and `Budget` deadline arithmetic work unchanged
//! whichever clock is behind the tracer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A source of monotonic time.
///
/// Implementations must be cheap to query and safe to share across
/// threads; the tracer stores one behind an `Arc<dyn Clock>`.
pub trait Clock: Send + Sync {
    /// The current instant according to this clock.
    fn now(&self) -> Instant;
}

/// The real monotonic wall clock (`Instant::now`).
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemClock;

impl Clock for SystemClock {
    fn now(&self) -> Instant {
        Instant::now()
    }
}

/// A deterministic clock for tests.
///
/// Advances by a fixed `tick_ns` on every [`Clock::now`] call (so two
/// reads are never equal, like a real clock) and can be advanced
/// explicitly with [`MockClock::advance`]. Because the same sequence of
/// `now()` calls always yields the same sequence of instants, any
/// metrics or trace output derived from a `MockClock` is byte-identical
/// across runs.
#[derive(Debug)]
pub struct MockClock {
    base: Instant,
    offset_ns: AtomicU64,
    tick_ns: u64,
}

impl MockClock {
    /// A mock clock that advances `tick_ns` nanoseconds per `now()` call.
    pub fn new(tick_ns: u64) -> MockClock {
        MockClock {
            base: Instant::now(),
            offset_ns: AtomicU64::new(0),
            tick_ns,
        }
    }

    /// Advance the clock by `d` without consuming a tick.
    pub fn advance(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.offset_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

impl Clock for MockClock {
    fn now(&self) -> Instant {
        let t = self.offset_ns.fetch_add(self.tick_ns, Ordering::Relaxed) + self.tick_ns;
        self.base + Duration::from_nanos(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mock_clock_ticks_monotonically() {
        let c = MockClock::new(100);
        let a = c.now();
        let b = c.now();
        assert!(b > a);
        assert_eq!(b.duration_since(a), Duration::from_nanos(100));
    }

    #[test]
    fn mock_clock_advance_adds_time() {
        let c = MockClock::new(1);
        let a = c.now();
        c.advance(Duration::from_micros(5));
        let b = c.now();
        assert_eq!(b.duration_since(a), Duration::from_nanos(5001));
    }

    #[test]
    fn system_clock_is_monotonic() {
        let c = SystemClock;
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }
}
