//! A bounded single-producer/single-consumer ring buffer.
//!
//! The shard runtime (`nf-shard`) feeds each worker thread through one of
//! these rings: the dispatcher is the only producer and the worker the
//! only consumer, so the ring needs no multi-producer machinery — just a
//! fixed slot array and two monotonically increasing cursors. The
//! producer alone advances `tail`, the consumer alone advances `head`;
//! each side reads the other's cursor with `Acquire` ordering, which is
//! the entire synchronisation protocol for the *cursors*.
//!
//! This crate is `#![forbid(unsafe_code)]`, so the slot array cannot be
//! the usual `UnsafeCell` construction. Each slot is instead a
//! `Mutex<Option<T>>`: the cursor protocol guarantees a slot is never
//! contended (the producer only touches slots it owns, i.e. `tail - head
//! < capacity`, and the consumer only touches published ones), so every
//! slot lock is uncontended in steady state and compiles down to one
//! atomic exchange — "lock-free-ish", which is all the shard engine
//! needs. Poisoning is impossible to observe from outside (no user code
//! runs under the lock), but is still handled without panicking.
//!
//! Blocking operations back off by spinning briefly and then yielding
//! the thread; there are no condvars, so a ring never deadlocks on a
//! lost wakeup. Dropping either endpoint disconnects the channel:
//! `recv` drains what was already published, `send` fails fast.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Error returned by [`Producer::try_send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrySendError {
    /// The ring is full; the value is handed back.
    Full,
    /// The consumer is gone; the value is handed back.
    Disconnected,
}

/// Error returned by [`Consumer::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// Nothing published right now.
    Empty,
    /// The producer is gone and everything published has been drained.
    Disconnected,
}

struct Shared<T> {
    slots: Vec<Mutex<Option<T>>>,
    /// Next sequence number the consumer will take.
    head: AtomicUsize,
    /// Next sequence number the producer will fill.
    tail: AtomicUsize,
    producer_gone: AtomicBool,
    consumer_gone: AtomicBool,
}

impl<T> Shared<T> {
    fn slot(&self, seq: usize) -> &Mutex<Option<T>> {
        &self.slots[seq % self.slots.len()]
    }
}

/// Take the slot lock, recovering from (unobservable) poisoning.
fn lock<T>(m: &Mutex<Option<T>>) -> std::sync::MutexGuard<'_, Option<T>> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Bounded exponential backoff: spin with doubling pause lengths for
/// the first few rounds, then yield the thread on every further round.
///
/// Shared by the ring's blocking `send`/`recv` loops and the shard
/// supervisor's bounded retry path (`nf-shard`): the *pause* is bounded
/// (it never grows past a thread yield, so a waiting side reacts
/// quickly once the other side makes progress), while the caller
/// decides how many rounds to spend before giving up — the ring's
/// blocking operations retry forever, the supervisor's dispatch retry
/// drops with accounting past its deadline.
#[derive(Debug, Default)]
pub struct Backoff {
    round: u32,
}

impl Backoff {
    /// A fresh backoff at round 0.
    pub fn new() -> Backoff {
        Backoff { round: 0 }
    }

    /// Rounds spent so far.
    pub fn rounds(&self) -> u32 {
        self.round
    }

    /// Wait one round: spin `2^round` times while `round <
    /// SPIN_ROUNDS`, otherwise yield.
    pub fn snooze(&mut self) {
        if self.round < SPIN_ROUNDS {
            for _ in 0..(1u32 << self.round) {
                std::hint::spin_loop();
            }
        } else {
            std::thread::yield_now();
        }
        self.round = self.round.saturating_add(1);
    }

    /// Back to round 0 (progress was made).
    pub fn reset(&mut self) {
        self.round = 0;
    }
}

/// Rounds spent spinning before [`Backoff`] switches to yielding.
const SPIN_ROUNDS: u32 = 6;

/// The sending half; exactly one per ring.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half; exactly one per ring.
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
}

/// Create a ring with room for `capacity` in-flight values
/// (`capacity` is clamped up to 1).
pub fn ring<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let capacity = capacity.max(1);
    let shared = Arc::new(Shared {
        slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
        producer_gone: AtomicBool::new(false),
        consumer_gone: AtomicBool::new(false),
    });
    (
        Producer {
            shared: Arc::clone(&shared),
        },
        Consumer { shared },
    )
}

impl<T> Producer<T> {
    /// Publish `value` if there is room, without blocking.
    pub fn try_send(&self, value: T) -> Result<(), (T, TrySendError)> {
        let s = &*self.shared;
        if s.consumer_gone.load(Ordering::Acquire) {
            return Err((value, TrySendError::Disconnected));
        }
        let tail = s.tail.load(Ordering::Relaxed);
        let head = s.head.load(Ordering::Acquire);
        if tail - head >= s.slots.len() {
            return Err((value, TrySendError::Full));
        }
        *lock(s.slot(tail)) = Some(value);
        s.tail.store(tail + 1, Ordering::Release);
        Ok(())
    }

    /// Publish `value`, blocking (spin + yield) while the ring is full.
    /// Fails only when the consumer has been dropped.
    pub fn send(&self, mut value: T) -> Result<(), T> {
        let mut backoff = Backoff::new();
        loop {
            match self.try_send(value) {
                Ok(()) => return Ok(()),
                Err((v, TrySendError::Disconnected)) => return Err(v),
                Err((v, TrySendError::Full)) => {
                    value = v;
                    backoff.snooze();
                }
            }
        }
    }

    /// In-flight values right now (racy, for metrics only).
    pub fn len(&self) -> usize {
        let s = &*self.shared;
        s.tail
            .load(Ordering::Relaxed)
            .saturating_sub(s.head.load(Ordering::Relaxed))
    }

    /// Whether the ring is currently empty (racy, for metrics only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slots.
    pub fn capacity(&self) -> usize {
        self.shared.slots.len()
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.shared.producer_gone.store(true, Ordering::Release);
    }
}

impl<T> Consumer<T> {
    /// Take the oldest published value, without blocking.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let s = &*self.shared;
        let head = s.head.load(Ordering::Relaxed);
        let tail = s.tail.load(Ordering::Acquire);
        if head == tail {
            return if s.producer_gone.load(Ordering::Acquire)
                // Re-check: the producer may have published between our
                // tail load and its drop-flag store.
                && s.tail.load(Ordering::Acquire) == head
            {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            };
        }
        let value = lock(s.slot(head)).take();
        s.head.store(head + 1, Ordering::Release);
        match value {
            Some(v) => Ok(v),
            // Unreachable under the cursor protocol; surface it as a
            // disconnect rather than panicking in a worker thread.
            None => Err(TryRecvError::Disconnected),
        }
    }

    /// Take the oldest published value, blocking (spin + yield) while
    /// the ring is empty. Returns `None` once the producer is gone and
    /// the ring is drained.
    pub fn recv(&self) -> Option<T> {
        let mut backoff = Backoff::new();
        loop {
            match self.try_recv() {
                Ok(v) => return Some(v),
                Err(TryRecvError::Disconnected) => return None,
                Err(TryRecvError::Empty) => backoff.snooze(),
            }
        }
    }

    /// In-flight values right now (racy, for metrics only).
    pub fn len(&self) -> usize {
        let s = &*self.shared;
        s.tail
            .load(Ordering::Relaxed)
            .saturating_sub(s.head.load(Ordering::Relaxed))
    }

    /// Whether the ring is currently empty (racy, for metrics only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        self.shared.consumer_gone.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_within_capacity() {
        let (tx, rx) = ring(4);
        for i in 0..4 {
            tx.try_send(i).unwrap();
        }
        assert_eq!(tx.len(), 4);
        for i in 0..4 {
            assert_eq!(rx.try_recv(), Ok(i));
        }
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn full_ring_rejects_then_accepts() {
        let (tx, rx) = ring(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(tx.try_send(3), Err((3, TrySendError::Full)));
        assert_eq!(rx.try_recv(), Ok(1));
        tx.try_send(3).unwrap();
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Ok(3));
    }

    #[test]
    fn drop_producer_drains_then_disconnects() {
        let (tx, rx) = ring(4);
        tx.try_send(7).unwrap();
        drop(tx);
        assert_eq!(rx.try_recv(), Ok(7));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn drop_consumer_fails_send() {
        let (tx, rx) = ring(4);
        drop(rx);
        assert_eq!(tx.try_send(1), Err((1, TrySendError::Disconnected)));
        assert_eq!(tx.send(2), Err(2));
    }

    #[test]
    fn capacity_clamped_to_one() {
        let (tx, rx) = ring::<u32>(0);
        assert_eq!(tx.capacity(), 1);
        tx.try_send(9).unwrap();
        assert_eq!(tx.try_send(10), Err((10, TrySendError::Full)));
        assert_eq!(rx.try_recv(), Ok(9));
    }

    #[test]
    fn cross_thread_stream_is_lossless_and_ordered() {
        const N: u64 = 50_000;
        let (tx, rx) = ring(64);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                tx.send(i).unwrap();
            }
        });
        let mut expect = 0u64;
        while let Some(v) = rx.recv() {
            assert_eq!(v, expect);
            expect += 1;
        }
        assert_eq!(expect, N);
        producer.join().unwrap();
    }

    #[test]
    fn backoff_spins_then_yields() {
        let mut b = Backoff::new();
        assert_eq!(b.rounds(), 0);
        for _ in 0..SPIN_ROUNDS {
            b.snooze();
        }
        b.snooze();
        assert_eq!(b.rounds(), SPIN_ROUNDS + 1);
        b.reset();
        assert_eq!(b.rounds(), 0);
    }

    /// A consumer that sleeps between takes must not starve the
    /// producer forever: the producer's full-ring backoff yields, the
    /// consumer eventually drains a slot, and every value arrives in
    /// order. Pinned for the supervisor's bounded-retry path, which
    /// reuses the same [`Backoff`].
    #[test]
    fn slow_consumer_never_permanently_starves_producer() {
        const N: u64 = 100;
        let (tx, rx) = ring(2);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                tx.send(i).unwrap();
            }
        });
        let mut got = Vec::new();
        while let Some(v) = rx.recv() {
            std::thread::sleep(std::time::Duration::from_micros(200));
            got.push(v);
        }
        producer.join().unwrap();
        assert_eq!(got, (0..N).collect::<Vec<_>>());
    }

    #[test]
    fn wraparound_reuses_slots() {
        let (tx, rx) = ring(3);
        for i in 0..100 {
            tx.try_send(i).unwrap();
            assert_eq!(rx.try_recv(), Ok(i));
        }
        assert!(rx.is_empty() && tx.is_empty());
    }
}
