//! The metrics registry: counters, gauges, labels, and fixed-bucket
//! histograms under stable dotted names.
//!
//! All four families live in `BTreeMap`s, so every rendering — the
//! human table and the JSON object — is sorted by name and fully
//! deterministic given deterministic inputs.

use nf_support::json::Value;
use std::collections::BTreeMap;

/// Default histogram bucket upper bounds, in nanoseconds: a geometric
/// ladder from 1 µs to 10 s. Observations above the last bound land in
/// an overflow bucket.
pub const DEFAULT_NS_BUCKETS: [u64; 8] = [
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

/// A fixed-bucket histogram of `u64` observations (typically
/// nanoseconds).
///
/// `counts[i]` is the number of observations `<= bounds[i]`; the final
/// extra slot of `counts` is the overflow bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Inclusive upper bounds of each bucket, ascending.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts; one longer than `bounds`
    /// (the last slot counts overflow).
    pub counts: Vec<u64>,
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values (saturating).
    pub sum: u64,
    /// Largest observed value (0 when empty); also the upper edge used
    /// when interpolating quantiles inside the overflow bucket.
    pub max: u64,
}

impl Histogram {
    /// An empty histogram over the given ascending bucket bounds.
    pub fn new(bounds: &[u64]) -> Histogram {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        if let Some(slot) = self.counts.get_mut(idx) {
            *slot += 1;
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Forget every observation, keeping the bucket layout and its
    /// buffers: an emptied histogram is refilled without allocating.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.count = 0;
        self.sum = 0;
        self.max = 0;
    }

    /// Fold another histogram into this one. Matching bucket bounds
    /// merge count-for-count; mismatched bounds are re-bucketed at each
    /// source bucket's upper edge (overflow at the source maximum), so
    /// the merge never loses observations either way.
    pub fn merge(&mut self, other: &Histogram) {
        if self.bounds == other.bounds {
            for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                *a += b;
            }
        } else {
            for (i, &c) in other.counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                let v = other.bounds.get(i).copied().unwrap_or(other.max);
                let idx = self
                    .bounds
                    .iter()
                    .position(|&b| v <= b)
                    .unwrap_or(self.bounds.len());
                self.counts[idx] += c;
            }
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Mean observed value, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Bucket-interpolated quantile estimate for `q` in `[0, 1]`
    /// (clamped); 0 when empty.
    ///
    /// The observation of rank `ceil(q * count)` is located in its
    /// bucket and linearly interpolated between the bucket's edges
    /// (the overflow bucket's upper edge is the observed maximum). The
    /// estimate is therefore always bounded by the edges of the bucket
    /// the rank falls in, and monotone in `q` — both pinned by property
    /// tests.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if rank <= seen + c {
                let lo = if i == 0 { 0 } else { self.bounds[i - 1] };
                let hi = self.bounds.get(i).copied().unwrap_or(self.max);
                // The true values in this bucket never exceed the
                // observed maximum, so tighten the upper edge.
                let hi = hi.min(self.max).max(lo);
                let within = (rank - seen) as f64 / c as f64;
                return lo + ((hi - lo) as f64 * within).round() as u64;
            }
            seen += c;
        }
        self.max
    }

    /// Median estimate (`quantile(0.50)`).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate (`quantile(0.90)`).
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate (`quantile(0.99)`).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// JSON summary: totals, interpolated percentiles, and the raw
    /// bucket layout (`bounds`/`counts`) for downstream tooling.
    pub fn to_json(&self) -> Value {
        let buckets = self
            .bounds
            .iter()
            .map(|b| i64::try_from(*b).unwrap_or(i64::MAX))
            .map(Value::Int)
            .collect();
        let counts = self
            .counts
            .iter()
            .map(|c| i64::try_from(*c).unwrap_or(i64::MAX))
            .map(Value::Int)
            .collect();
        Value::Object(vec![
            ("count".into(), int_json(self.count)),
            ("sum".into(), int_json(self.sum)),
            ("max".into(), int_json(self.max)),
            ("p50".into(), int_json(self.p50())),
            ("p90".into(), int_json(self.p90())),
            ("p99".into(), int_json(self.p99())),
            ("bounds".into(), Value::Array(buckets)),
            ("counts".into(), Value::Array(counts)),
        ])
    }
}

fn int_json(v: u64) -> Value {
    Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

/// An immutable snapshot of every metric a `Tracer` has recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters (`symex.paths.explored`, `*.ns` span totals, …).
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins signed gauges (`budget.remaining_ms`, …).
    pub gauges: BTreeMap<String, i64>,
    /// Last-write-wins string labels (`pipeline.truncated.reason`, …).
    pub labels: BTreeMap<String, String>,
    /// Fixed-bucket histograms (`fuzz.case.ns`, …).
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// True when no metric of any family has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.labels.is_empty()
            && self.histograms.is_empty()
    }

    /// Counter value by name, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The change since `earlier`: counters and histogram counts are
    /// subtracted (saturating), gauges and labels keep their current
    /// values (they are last-write-wins, so a delta is meaningless).
    ///
    /// This is what the live `nfactor top` view renders each poll to
    /// turn cumulative totals into interval rates. A metric absent from
    /// `earlier` — or a histogram whose bounds changed — passes through
    /// unchanged. A delta histogram's `max` keeps the cumulative
    /// maximum (the interval maximum is not recoverable from buckets).
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for (k, v) in &self.counters {
            let prev = earlier.counters.get(k).copied().unwrap_or(0);
            out.counters.insert(k.clone(), v.saturating_sub(prev));
        }
        out.gauges = self.gauges.clone();
        out.labels = self.labels.clone();
        for (k, h) in &self.histograms {
            let d = match earlier.histograms.get(k) {
                Some(p) if p.bounds == h.bounds && p.count <= h.count => {
                    let mut d = h.clone();
                    for (a, b) in d.counts.iter_mut().zip(&p.counts) {
                        *a = a.saturating_sub(*b);
                    }
                    d.count = h.count - p.count;
                    d.sum = h.sum.saturating_sub(p.sum);
                    d
                }
                _ => h.clone(),
            };
            out.histograms.insert(k.clone(), d);
        }
        out
    }

    /// Render a sorted `name  value` table, one metric per line.
    ///
    /// Histograms are flattened to `<name>.count/.mean/.p50/.p99/.max`
    /// rows so the table stays one scalar per line while still reading
    /// as a latency summary.
    pub fn render_table(&self) -> String {
        let mut rows: Vec<(String, String)> = Vec::new();
        for (k, v) in &self.counters {
            rows.push((k.clone(), v.to_string()));
        }
        for (k, v) in &self.gauges {
            rows.push((k.clone(), v.to_string()));
        }
        for (k, v) in &self.labels {
            rows.push((k.clone(), v.clone()));
        }
        for (k, h) in &self.histograms {
            rows.push((format!("{k}.count"), h.count.to_string()));
            rows.push((format!("{k}.mean"), h.mean().to_string()));
            rows.push((format!("{k}.p50"), h.p50().to_string()));
            rows.push((format!("{k}.p99"), h.p99().to_string()));
            rows.push((format!("{k}.max"), h.max.to_string()));
        }
        rows.sort();
        let width = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (k, v) in rows {
            out.push_str(&format!("{k:<width$}  {v}\n"));
        }
        out
    }

    /// Machine-readable JSON: one sorted object per metric family.
    pub fn to_json(&self) -> Value {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), int_json(*v)))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), Value::Int(*v)))
            .collect();
        let labels = self
            .labels
            .iter()
            .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.to_json()))
            .collect();
        Value::Object(vec![
            ("counters".into(), Value::Object(counters)),
            ("gauges".into(), Value::Object(gauges)),
            ("labels".into(), Value::Object(labels)),
            ("histograms".into(), Value::Object(histograms)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_inclusive_upper_bounds() {
        let mut h = Histogram::new(&[10, 100]);
        h.observe(10); // first bucket (inclusive)
        h.observe(11); // second bucket
        h.observe(100); // second bucket (inclusive)
        h.observe(101); // overflow
        assert_eq!(h.counts, vec![1, 2, 1]);
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 222);
        assert_eq!(h.mean(), 55);
    }

    #[test]
    fn a_cleared_histogram_equals_a_new_one() {
        let mut h = Histogram::new(&[10, 100]);
        for v in [3, 50, 1_000] {
            h.observe(v);
        }
        h.clear();
        assert_eq!(h, Histogram::new(&[10, 100]));
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let mut h = Histogram::new(&[100, 200]);
        for v in [50, 100, 150, 200] {
            h.observe(v);
        }
        // rank(0.5) = 2 → second of two observations in bucket (0,100]:
        // interpolation reaches the bucket's upper edge.
        assert_eq!(h.p50(), 100);
        // rank(0.99) = 4 → top of bucket (100,200].
        assert_eq!(h.p99(), 200);
        assert_eq!(h.max, 200);
        assert_eq!(h.quantile(0.0), h.quantile(0.001));
        let empty = Histogram::new(&[100]);
        assert_eq!(empty.quantile(0.5), 0);
    }

    #[test]
    fn quantile_overflow_bucket_uses_observed_max() {
        let mut h = Histogram::new(&[10]);
        h.observe(5_000); // overflow
        assert_eq!(h.p99(), 5_000);
        assert_eq!(h.p50(), 5_000);
    }

    #[test]
    fn merge_matching_bounds_adds_counts() {
        let mut a = Histogram::new(&[10, 100]);
        a.observe(5);
        let mut b = Histogram::new(&[10, 100]);
        b.observe(50);
        b.observe(500);
        a.merge(&b);
        assert_eq!(a.counts, vec![1, 1, 1]);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, 555);
        assert_eq!(a.max, 500);
    }

    #[test]
    fn merge_mismatched_bounds_rebuckets_at_upper_edges() {
        let mut a = Histogram::new(&[1_000]);
        let mut b = Histogram::new(&[10, 100]);
        b.observe(5); // folded at edge 10
        b.observe(2_000); // overflow, folded at b.max = 2000
        a.merge(&b);
        assert_eq!(a.counts, vec![1, 1]);
        assert_eq!(a.count, 2);
        assert_eq!(a.max, 2_000);
    }

    #[test]
    fn delta_subtracts_counters_and_histograms() {
        let mut before = MetricsSnapshot::default();
        before.counters.insert("pkts".into(), 10);
        let mut h0 = Histogram::new(&[100]);
        h0.observe(50);
        before.histograms.insert("lat".into(), h0);

        let mut after = before.clone();
        *after.counters.get_mut("pkts").unwrap() = 25;
        after.counters.insert("fresh".into(), 3);
        after.histograms.get_mut("lat").unwrap().observe(70);
        after.gauges.insert("depth".into(), 4);

        let d = after.delta(&before);
        assert_eq!(d.counter("pkts"), Some(15));
        assert_eq!(d.counter("fresh"), Some(3));
        assert_eq!(d.gauges.get("depth"), Some(&4));
        let lat = &d.histograms["lat"];
        assert_eq!(lat.count, 1);
        assert_eq!(lat.sum, 70);
        assert_eq!(lat.counts, vec![1, 0]);
    }

    #[test]
    fn table_is_sorted_and_aligned() {
        let mut m = MetricsSnapshot::default();
        m.counters.insert("b.count".into(), 2);
        m.counters.insert("a.count".into(), 1);
        m.gauges.insert("c.gauge".into(), -5);
        m.labels.insert("d.label".into(), "why".into());
        let t = m.render_table();
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a.count"));
        assert!(lines[1].starts_with("b.count"));
        assert!(lines[2].contains("-5"));
        assert!(lines[3].ends_with("why"));
    }

    #[test]
    fn json_shape_has_all_four_families() {
        let mut m = MetricsSnapshot::default();
        m.counters.insert("x".into(), 7);
        let mut h = Histogram::new(&DEFAULT_NS_BUCKETS);
        h.observe(500);
        m.histograms.insert("lat".into(), h);
        let rendered = m.to_json().render();
        let parsed = Value::parse(&rendered).expect("round-trip");
        let obj = match parsed {
            Value::Object(kvs) => kvs,
            other => panic!("expected object, got {other:?}"),
        };
        let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["counters", "gauges", "labels", "histograms"]);
    }
}
