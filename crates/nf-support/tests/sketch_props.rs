//! Property tests for the space-saving top-K sketch: the two guarantees
//! the shard hot-key profiler depends on, checked against exact counts
//! over randomized skewed streams, plus pinned regression cases.

use nf_support::check::{check, uint_range, vec_of, Config};
use nf_support::sketch::TopK;
use std::collections::BTreeMap;

fn exact_counts(stream: &[u64]) -> BTreeMap<u64, u64> {
    let mut m = BTreeMap::new();
    for &k in stream {
        *m.entry(k).or_insert(0u64) += 1;
    }
    m
}

/// Run a stream through a sketch of capacity `cap` and assert the
/// space-saving invariants against the exact counts.
fn assert_invariants(stream: &[u64], cap: usize) {
    let mut sketch = TopK::new(cap);
    for &k in stream {
        sketch.offer(k);
    }
    let truth = exact_counts(stream);
    assert_eq!(sketch.total(), stream.len() as u64);

    // Never undercounts: every tracked key's estimate is at least the
    // true count, and estimate - err never exceeds it.
    for e in sketch.entries() {
        let true_count = truth.get(&e.key).copied().unwrap_or(0);
        assert!(
            e.count >= true_count,
            "estimate {} undercounts key {} (true {})",
            e.count,
            e.key,
            true_count
        );
        assert!(
            e.count - e.err <= true_count,
            "lower bound {} overshoots key {} (true {})",
            e.count - e.err,
            e.key,
            true_count
        );
    }

    // Heavy hitters are present: any key strictly above total/cap is
    // guaranteed tracked.
    let threshold = sketch.guarantee();
    for (&k, &c) in &truth {
        if c > threshold {
            assert!(
                sketch.contains(&k),
                "key {k} with count {c} > guarantee {threshold} was evicted"
            );
        }
    }
}

#[test]
fn prop_sketch_never_undercounts_heavy_hitters() {
    // Keys drawn from a small range so eviction churn is constant; the
    // quadratic key map skews mass toward low values.
    let streams = vec_of(uint_range(0, 900), 0, 400);
    check(
        "sketch_invariants",
        &Config::with_cases(150),
        &streams,
        |raw| {
            let stream: Vec<u64> = raw.iter().map(|&v| (v * v) / 300).collect();
            for cap in [1, 2, 8] {
                assert_invariants(&stream, cap);
            }
        },
    );
}

#[test]
fn prop_sketch_is_exact_below_capacity() {
    // At most 8 distinct keys into a cap-16 sketch: no eviction ever
    // happens, so every estimate is exact with zero error.
    let streams = vec_of(uint_range(0, 7), 0, 200);
    check(
        "sketch_exact",
        &Config::with_cases(100),
        &streams,
        |stream| {
            let mut sketch = TopK::new(16);
            for &k in stream {
                sketch.offer(k);
            }
            let truth = exact_counts(stream);
            assert_eq!(sketch.len(), truth.len());
            for (&k, &c) in &truth {
                assert_eq!(sketch.estimate(&k), Some(c));
            }
            for e in sketch.entries() {
                assert_eq!(e.err, 0);
            }
        },
    );
}

/// Pinned eviction-churn case: a full rotation of distinct keys ending
/// with a returning heavy hitter. Exercises the inherit-minimum path
/// deterministically.
#[test]
fn regression_rotating_keys_keep_the_heavy_hitter() {
    let mut stream = Vec::new();
    for round in 0..50u64 {
        stream.push(7); // heavy: appears every round
        stream.push(100 + round); // 50 one-shot keys churn the slots
    }
    assert_invariants(&stream, 4);
    let mut sketch = TopK::new(4);
    for &k in &stream {
        sketch.offer(k);
    }
    assert_eq!(sketch.entries()[0].key, 7, "heavy hitter ranks first");
}

/// Pinned adversarial case for cap = 1: every key shares one slot, so
/// the single estimate must equal the stream length (pure inheritance).
#[test]
fn regression_single_slot_inherits_everything() {
    let stream: Vec<u64> = (0..30).collect();
    assert_invariants(&stream, 1);
    let mut sketch = TopK::new(1);
    for &k in &stream {
        sketch.offer(k);
    }
    let e = &sketch.entries()[0];
    assert_eq!(e.key, 29);
    assert_eq!(e.count, 30);
    assert_eq!(e.err, 29);
}
