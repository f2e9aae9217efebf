//! Property tests for bucket-interpolated histogram quantiles: monotone
//! in `q`, bounded by the edges of the bucket the rank falls in, and
//! exact at the extremes. Pinned regression cases cover the overflow
//! bucket and single-observation histograms.

use nf_support::check::{check, uint_range, vec_of, Config};
use nf_trace::{Histogram, MetricsSnapshot, DEFAULT_NS_BUCKETS};

const QS: [f64; 9] = [0.0, 0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 1.0];

fn build(obs: &[u64]) -> Histogram {
    let mut h = Histogram::new(&DEFAULT_NS_BUCKETS);
    for &v in obs {
        h.observe(v);
    }
    h
}

/// The edges of the bucket holding the observation of rank
/// `ceil(q * count)`, computed independently of `Histogram::quantile`.
fn rank_bucket_edges(h: &Histogram, q: f64) -> (u64, u64) {
    let rank = ((q * h.count as f64).ceil() as u64).clamp(1, h.count);
    let mut seen = 0u64;
    for (i, &c) in h.counts.iter().enumerate() {
        if rank <= seen + c && c > 0 {
            let lo = if i == 0 { 0 } else { h.bounds[i - 1] };
            let hi = h.bounds.get(i).copied().unwrap_or(h.max);
            return (lo, hi);
        }
        seen += c;
    }
    (0, h.max)
}

#[test]
fn prop_quantiles_monotone_in_q() {
    let obs = vec_of(uint_range(0, 20_000_000_000), 1, 60);
    check("quantile_monotone", &Config::with_cases(200), &obs, |obs| {
        let h = build(obs);
        let values: Vec<u64> = QS.iter().map(|&q| h.quantile(q)).collect();
        for w in values.windows(2) {
            assert!(w[0] <= w[1], "quantiles must be monotone in q: {values:?}");
        }
        assert_eq!(h.quantile(1.0), h.max, "q=1 is exactly the maximum");
    });
}

#[test]
fn prop_quantiles_bounded_by_bucket_edges() {
    let obs = vec_of(uint_range(0, 20_000_000_000), 1, 60);
    check("quantile_bounded", &Config::with_cases(200), &obs, |obs| {
        let h = build(obs);
        let true_max = *obs.iter().max().expect("non-empty");
        assert_eq!(h.max, true_max);
        for &q in &QS {
            let v = h.quantile(q);
            let (lo, hi) = rank_bucket_edges(&h, q);
            assert!(
                v >= lo && v <= hi,
                "quantile({q}) = {v} escapes its bucket [{lo}, {hi}]"
            );
            assert!(
                v <= true_max,
                "quantile({q}) = {v} above observed max {true_max}"
            );
        }
    });
}

#[test]
fn prop_delta_histogram_matches_interval_observations() {
    // Observing A then B: delta(after, before) must equal a histogram
    // of B alone in counts, count, and sum (max stays cumulative).
    let obs = vec_of(uint_range(0, 20_000_000_000), 2, 60);
    check("delta_interval", &Config::with_cases(150), &obs, |obs| {
        let split = obs.len() / 2;
        let (a, b) = obs.split_at(split);
        let mut before = MetricsSnapshot::default();
        before.histograms.insert("lat".into(), build(a));
        let mut after = MetricsSnapshot::default();
        after.histograms.insert("lat".into(), build(obs));
        let d = after.delta(&before);
        let got = &d.histograms["lat"];
        let want = build(b);
        assert_eq!(got.counts, want.counts);
        assert_eq!(got.count, want.count);
        assert_eq!(got.sum, want.sum);
    });
}

/// Pinned: everything in the overflow bucket interpolates against the
/// observed maximum, not infinity.
#[test]
fn regression_overflow_bucket_quantiles() {
    let top = DEFAULT_NS_BUCKETS[DEFAULT_NS_BUCKETS.len() - 1];
    let h = build(&[top + 1, top + 500, top + 1_000]);
    assert_eq!(h.quantile(1.0), top + 1_000);
    for &q in &QS {
        let v = h.quantile(q);
        assert!(v >= top && v <= top + 1_000, "quantile({q}) = {v}");
    }
}

/// Pinned: one observation pins every quantile to its bucket, with
/// q = 1 exactly the value.
#[test]
fn regression_single_observation() {
    let h = build(&[5_000]);
    assert_eq!(h.quantile(1.0), 5_000);
    assert_eq!(h.max, 5_000);
    for &q in &QS {
        let v = h.quantile(q);
        assert!(
            (1_000..=5_000).contains(&v),
            "quantile({q}) = {v} outside (1000, 5000]"
        );
    }
}
