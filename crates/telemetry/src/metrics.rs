//! The metrics registry: counters, gauges, and fixed-bucket histograms.
//!
//! Every instrumented process registers metrics under a `(scope, name)`
//! pair, where the scope is the process identity (`broker-0`,
//! `wordcount/split/1`, `store-h2-r1`) and the name is the signal
//! (`records_in`, `log_bytes`, `checkpoint_duration_s`). A component
//! updates its metrics through handles ([`CounterHandle`], [`GaugeHandle`],
//! [`HistogramHandle`]) it makes when it is built or attached. Registration
//! is implicit — a handle's first update creates the metric — and each
//! handle looks its metric up once, so the registry is cheap enough to
//! leave always-on.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Exact summary statistics over a raw sample set (nearest-rank
/// percentiles). This is the shared replacement for the ad-hoc
/// mean/percentile arithmetic that used to be re-derived per experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SummaryStats {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (nearest rank).
    pub p50: f64,
    /// 95th percentile (nearest rank).
    pub p95: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

/// Computes exact [`SummaryStats`] for a sample set; `None` when empty.
///
/// # Examples
///
/// ```
/// use s2g_telemetry::summarize;
///
/// let s = summarize(&[1.0, 2.0, 3.0, 4.0]).unwrap();
/// assert_eq!(s.count, 4);
/// assert!((s.mean - 2.5).abs() < 1e-12);
/// assert_eq!(s.max, 4.0);
/// ```
pub fn summarize(samples: &[f64]) -> Option<SummaryStats> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let rank = |q: f64| -> f64 {
        let idx = ((q * sorted.len() as f64).ceil() as usize).max(1) - 1;
        sorted[idx.min(sorted.len() - 1)]
    };
    Some(SummaryStats {
        count: sorted.len() as u64,
        mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        p50: rank(0.50),
        p95: rank(0.95),
        p99: rank(0.99),
        min: sorted[0],
        max: sorted[sorted.len() - 1],
    })
}

/// A fixed-bucket histogram with an explicit overflow bucket.
///
/// Bucket `i` counts samples `v <= bounds[i]` (and above `bounds[i-1]`);
/// samples above the last bound land in the overflow bucket. Quantiles are
/// estimated by linear interpolation inside the owning bucket, which keeps
/// updates O(log buckets) and memory constant — the property that lets the
/// registry stay always-on.
///
/// # Examples
///
/// ```
/// use s2g_telemetry::Histogram;
///
/// let mut h = Histogram::latency_seconds();
/// for ms in [1u64, 2, 3, 100] {
///     h.observe(ms as f64 / 1e3);
/// }
/// assert_eq!(h.count(), 4);
/// let p50 = h.quantile(0.5).unwrap();
/// assert!(p50 > 0.0005 && p50 < 0.01, "p50 {p50}");
/// ```
#[derive(Clone)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    overflow: u64,
    sum: f64,
    count: u64,
    min: f64,
    max: f64,
    /// The previous sample's bucket, tried first: consecutive samples
    /// mostly share one. A search shortcut, not part of the value, so
    /// equality and `Debug` leave it out.
    hint: usize,
}

impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        self.bounds == other.bounds
            && self.counts == other.counts
            && self.overflow == other.overflow
            && self.sum == other.sum
            && self.count == other.count
            && self.min == other.min
            && self.max == other.max
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("bounds", &self.bounds)
            .field("counts", &self.counts)
            .field("overflow", &self.overflow)
            .field("sum", &self.sum)
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish()
    }
}

impl Histogram {
    /// A histogram with explicit ascending bucket upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub(crate) fn with_bounds(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bucket bounds must be strictly ascending"
        );
        let n = bounds.len();
        Histogram {
            bounds,
            counts: vec![0; n],
            overflow: 0,
            sum: 0.0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            hint: 0,
        }
    }

    /// Log-spaced latency buckets from 1 µs to ~100 s (5 per decade).
    pub fn latency_seconds() -> Self {
        Histogram::with_bounds(log_bounds(1e-6, 8 * 5))
    }

    /// Log-spaced size buckets from 64 B to ~64 GB (5 per decade).
    pub fn bytes() -> Self {
        Histogram::with_bounds(log_bounds(64.0, 9 * 5))
    }

    /// Log-spaced count buckets from 1 to ~10M (5 per decade) — batch
    /// sizes, records per request, queue depths.
    pub fn counts() -> Self {
        Histogram::with_bounds(log_bounds(1.0, 7 * 5))
    }

    /// Records one sample.
    pub fn observe(&mut self, v: f64) {
        self.sum += v;
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let idx = self.bucket_of(v);
        self.hint = idx;
        if idx < self.counts.len() {
            self.counts[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// The index of the first bound `>= v` (past the last one for the
    /// overflow, 0 for NaN), as `partition_point` finds it. The previous
    /// sample's bucket is the answer when the bound below it is `< v` and
    /// its own is `>= v`; only otherwise is the search run.
    fn bucket_of(&self, v: f64) -> usize {
        let i = self.hint;
        let above = i == 0 || self.bounds[i - 1] < v;
        let within = i == self.bounds.len() || v <= self.bounds[i];
        if above && within {
            i
        } else {
            self.bounds.partition_point(|b| *b < v)
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Samples that exceeded the last bucket bound.
    pub fn overflow_count(&self) -> u64 {
        self.overflow
    }

    /// The bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// inside the owning bucket; `None` when the histogram is empty.
    ///
    /// Samples in the overflow bucket are attributed to the recorded
    /// maximum, so `quantile(1.0)` is exact.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            if *c == 0 {
                continue;
            }
            seen += c;
            if seen >= target {
                let hi = self.bounds[i].min(self.max);
                let lo = if i == 0 {
                    self.min.min(hi)
                } else {
                    self.bounds[i - 1].max(self.min).min(hi)
                };
                let into = (target - (seen - c)) as f64 / *c as f64;
                return Some(lo + (hi - lo) * into);
            }
        }
        // Target falls in the overflow bucket.
        Some(self.max)
    }

    /// Exact summary built from the histogram's moments plus interpolated
    /// percentiles.
    pub fn stats(&self) -> Option<SummaryStats> {
        let mean = self.mean()?;
        Some(SummaryStats {
            count: self.count,
            mean,
            p50: self.quantile(0.50).expect("non-empty"),
            p95: self.quantile(0.95).expect("non-empty"),
            p99: self.quantile(0.99).expect("non-empty"),
            min: self.min,
            max: self.max,
        })
    }
}

/// `n` log-spaced bounds starting at `first`, 5 per decade.
fn log_bounds(first: f64, n: usize) -> Vec<f64> {
    let step = 10f64.powf(0.2);
    (0..n).map(|i| first * step.powi(i as i32)).collect()
}

/// The current value of one registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotonically increasing count.
    Counter(u64),
    /// A point-in-time level.
    Gauge(f64),
    /// A fixed-bucket distribution.
    Histogram(Histogram),
}

impl MetricValue {
    /// The scalar a sampler records for this metric: the cumulative count
    /// for counters, the level for gauges, and the number of observations
    /// for histograms (distribution quantiles are surfaced separately).
    pub fn sample(&self) -> f64 {
        match self {
            MetricValue::Counter(c) => *c as f64,
            MetricValue::Gauge(g) => *g,
            MetricValue::Histogram(h) => h.count() as f64,
        }
    }
}

/// One registered metric: identity plus current value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Owning process identity (`broker-0`, `job/stage/instance`, ...).
    pub scope: String,
    /// Signal name (`records_in`, `log_bytes`, ...).
    pub name: String,
    /// Current value.
    pub value: MetricValue,
}

/// Where each `(scope, name)` sits in a first-use-ordered vector. Nested so
/// a lookup borrows both strings: the hot path allocates no key.
#[derive(Debug, Default)]
pub(crate) struct NameIndex(BTreeMap<String, BTreeMap<String, usize>>);

impl NameIndex {
    pub(crate) fn get(&self, scope: &str, name: &str) -> Option<usize> {
        self.0.get(scope)?.get(name).copied()
    }

    pub(crate) fn insert(&mut self, scope: &str, name: &str, idx: usize) {
        let names = self.0.entry(scope.to_string()).or_default();
        names.insert(name.to_string(), idx);
    }
}

/// The per-run metrics registry. Metrics are stored in first-update order,
/// which is deterministic because the whole simulation is.
///
/// Components update it through handles only: a run's registry is reached
/// through [`Telemetry::registry`](crate::Telemetry::registry), which lends
/// it read-only. The string-keyed [`counter_add`](Self::counter_add) and
/// [`observe`](Self::observe) serve code that owns a registry of its own,
/// such as a benchmark timing one lookup per update.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Vec<Metric>,
    index: NameIndex,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn slot(&mut self, scope: &str, name: &str, make: impl FnOnce() -> MetricValue) -> usize {
        if let Some(idx) = self.index.get(scope, name) {
            return idx;
        }
        let idx = self.metrics.len();
        self.metrics.push(Metric {
            scope: scope.to_string(),
            name: name.to_string(),
            value: make(),
        });
        self.index.insert(scope, name, idx);
        idx
    }

    fn add_at(&mut self, idx: usize, delta: u64) {
        let m = &mut self.metrics[idx];
        match &mut m.value {
            MetricValue::Counter(c) => *c += delta,
            other => panic!("{}/{} is not a counter: {other:?}", m.scope, m.name),
        }
    }

    fn set_at(&mut self, idx: usize, value: f64) {
        let m = &mut self.metrics[idx];
        match &mut m.value {
            MetricValue::Gauge(g) => *g = value,
            other => panic!("{}/{} is not a gauge: {other:?}", m.scope, m.name),
        }
    }

    fn observe_at(&mut self, idx: usize, value: f64) {
        let m = &mut self.metrics[idx];
        match &mut m.value {
            MetricValue::Histogram(h) => h.observe(value),
            other => panic!("{}/{} is not a histogram: {other:?}", m.scope, m.name),
        }
    }

    /// Adds `delta` to the `(scope, name)` counter, creating it at zero on
    /// first use.
    ///
    /// # Panics
    ///
    /// Panics if the metric exists with a different kind.
    pub fn counter_add(&mut self, scope: &str, name: &str, delta: u64) {
        let idx = self.slot(scope, name, || MetricValue::Counter(0));
        self.add_at(idx, delta);
    }

    /// Records a sample into the `(scope, name)` histogram, creating it
    /// with [`Histogram::latency_seconds`] buckets on first use.
    ///
    /// # Panics
    ///
    /// Panics if the metric exists with a different kind.
    pub fn observe(&mut self, scope: &str, name: &str, value: f64) {
        let make = || MetricValue::Histogram(Histogram::latency_seconds());
        let idx = self.slot(scope, name, make);
        self.observe_at(idx, value);
    }

    /// Looks up a metric; `None` when it was never registered.
    pub fn get(&self, scope: &str, name: &str) -> Option<&Metric> {
        self.index.get(scope, name).map(|i| &self.metrics[i])
    }

    /// The current counter value; `None` for unregistered or non-counter.
    pub fn counter(&self, scope: &str, name: &str) -> Option<u64> {
        match self.get(scope, name)?.value {
            MetricValue::Counter(c) => Some(c),
            _ => None,
        }
    }

    /// The current gauge level; `None` for unregistered or non-gauge.
    pub fn gauge(&self, scope: &str, name: &str) -> Option<f64> {
        match self.get(scope, name)?.value {
            MetricValue::Gauge(g) => Some(g),
            _ => None,
        }
    }

    /// The histogram; `None` for unregistered or non-histogram.
    pub fn histogram(&self, scope: &str, name: &str) -> Option<&Histogram> {
        match &self.get(scope, name)?.value {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// All metrics in first-update order.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }
}

/// A shared handle to a [`Registry`].
pub(crate) type RegistryHandle = Rc<RefCell<Registry>>;

/// What the three handle kinds share: the metric's identity, its registry,
/// and where it sits there once the first update has looked that up.
struct Lazy {
    registry: RegistryHandle,
    /// Scope, then name, in one allocation: a component makes a dozen of
    /// these when it is built.
    key: String,
    scope_len: usize,
    slot: Cell<Option<usize>>,
}

impl Lazy {
    fn new(registry: &RegistryHandle, scope: &str, name: &str) -> Self {
        let mut key = String::with_capacity(scope.len() + name.len());
        key.push_str(scope);
        key.push_str(name);
        Lazy {
            registry: Rc::clone(registry),
            key,
            scope_len: scope.len(),
            slot: Cell::new(None),
        }
    }

    /// The metric's slot, registered with `make` if this is the first
    /// update through this handle and no other site registered it yet.
    fn slot(&self, reg: &mut Registry, make: impl FnOnce() -> MetricValue) -> usize {
        self.slot.get().unwrap_or_else(|| {
            let (scope, name) = self.key.split_at(self.scope_len);
            let idx = reg.slot(scope, name, make);
            self.slot.set(Some(idx));
            idx
        })
    }
}

impl fmt::Debug for Lazy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (scope, name) = self.key.split_at(self.scope_len);
        write!(f, "{scope}/{name}")
    }
}

/// One counter, held by the site that updates it: the `(scope, name)`
/// lookup happens on the first [`add`](Self::add) and never again.
/// Creating a handle registers nothing, so a metric never updated never
/// appears. Made by [`Telemetry::counter`](crate::Telemetry::counter).
#[derive(Debug)]
pub struct CounterHandle(Lazy);

impl CounterHandle {
    pub(crate) fn new(registry: &RegistryHandle, scope: &str, name: &str) -> Self {
        CounterHandle(Lazy::new(registry, scope, name))
    }

    /// Adds `delta`, creating the counter at zero on first use.
    ///
    /// # Panics
    ///
    /// Panics if the metric exists with a different kind.
    pub fn add(&self, delta: u64) {
        let mut reg = self.0.registry.borrow_mut();
        let idx = self.0.slot(&mut reg, || MetricValue::Counter(0));
        reg.add_at(idx, delta);
    }
}

/// One gauge, held by the site that sets it (see [`CounterHandle`]). Made
/// by [`Telemetry::gauge`](crate::Telemetry::gauge).
#[derive(Debug)]
pub struct GaugeHandle(Lazy);

impl GaugeHandle {
    pub(crate) fn new(registry: &RegistryHandle, scope: &str, name: &str) -> Self {
        GaugeHandle(Lazy::new(registry, scope, name))
    }

    /// Sets the level.
    ///
    /// # Panics
    ///
    /// Panics if the metric exists with a different kind.
    pub fn set(&self, value: f64) {
        let mut reg = self.0.registry.borrow_mut();
        let idx = self.0.slot(&mut reg, || MetricValue::Gauge(0.0));
        reg.set_at(idx, value);
    }
}

/// One histogram, held by the site that feeds it (see [`CounterHandle`]),
/// with the buckets it is created with on first use. Made by
/// [`Telemetry::histogram`](crate::Telemetry::histogram).
#[derive(Debug)]
pub struct HistogramHandle(Lazy, fn() -> Histogram);

impl HistogramHandle {
    pub(crate) fn new(
        registry: &RegistryHandle,
        scope: &str,
        name: &str,
        buckets: fn() -> Histogram,
    ) -> Self {
        HistogramHandle(Lazy::new(registry, scope, name), buckets)
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if the metric exists with a different kind.
    pub fn observe(&self, value: f64) {
        let mut reg = self.0.registry.borrow_mut();
        let idx = self.0.slot(&mut reg, || MetricValue::Histogram((self.1)()));
        reg.observe_at(idx, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_percentiles_are_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = summarize(&samples).unwrap();
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p95, 95.0);
        assert_eq!(s.p99, 99.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn histogram_overflow_bucket_counts_and_quantiles() {
        let mut h = Histogram::with_bounds(vec![1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(1e6); // beyond the last bound
        assert_eq!(h.count(), 3);
        assert_eq!(h.overflow_count(), 1);
        // The top quantile is served from the overflow bucket at the
        // recorded max, not the last bound.
        assert_eq!(h.quantile(1.0), Some(1e6));
        assert!(h.quantile(0.5).unwrap() <= 10.0);
    }

    #[test]
    fn histogram_empty_has_no_quantiles() {
        let h = Histogram::latency_seconds();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        assert!(h.stats().is_none());
    }

    #[test]
    fn histogram_interpolation_tracks_exact() {
        let mut h = Histogram::latency_seconds();
        let samples: Vec<f64> = (1..=1000).map(|i| i as f64 / 1e4).collect();
        for s in &samples {
            h.observe(*s);
        }
        let exact = summarize(&samples).unwrap();
        let est = h.stats().unwrap();
        assert!((est.p50 - exact.p50).abs() / exact.p50 < 0.35);
        assert!((est.p99 - exact.p99).abs() / exact.p99 < 0.35);
        assert!((est.mean - exact.mean).abs() < 1e-9);
    }

    /// The hinted lookup puts every sample where `partition_point` does:
    /// exact bounds and their neighbours, ±∞, NaN, negative values and
    /// overflow, in a seeded order that both keeps and leaves the previous
    /// sample's bucket.
    #[test]
    fn histogram_bucket_hint_matches_partition_point() {
        let mut h = Histogram::latency_seconds();
        let bounds = h.bounds.clone();
        let mut specials = vec![f64::NEG_INFINITY, f64::INFINITY, f64::NAN, -1.0, 0.0, 1e9];
        for b in &bounds {
            let bits = b.to_bits();
            specials.extend([*b, f64::from_bits(bits - 1), f64::from_bits(bits + 1)]);
        }
        let (mut counts, mut overflow) = (vec![0u64; bounds.len()], 0u64);
        let mut state = 0x5eed_u64;
        let mut v = 1e-3;
        for step in 0..50_000 {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut r = state;
            r = (r ^ (r >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            r = (r ^ (r >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            r ^= r >> 31;
            v = match r % 4 {
                0 => specials[(r >> 8) as usize % specials.len()],
                1 => v, // the previous sample again
                _ => 10f64.powf(-7.0 + 10.0 * ((r >> 11) as f64 / (1u64 << 53) as f64)),
            };
            let want = bounds.partition_point(|b| *b < v);
            h.observe(v);
            assert_eq!(h.hint, want, "step {step}: {v}");
            match counts.get_mut(want) {
                Some(c) => *c += 1,
                None => overflow += 1,
            }
        }
        assert_eq!((h.counts, h.overflow), (counts, overflow));
    }

    #[test]
    fn histogram_equality_and_debug_ignore_the_bucket_hint() {
        let (mut a, mut b) = (Histogram::latency_seconds(), Histogram::latency_seconds());
        a.observe(1e-3);
        a.observe(2.0);
        b.observe(2.0);
        b.observe(1e-3);
        assert_ne!(a.hint, b.hint);
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(!format!("{a:?}").contains("hint"));
    }

    #[test]
    fn registry_implicit_registration_and_lookup() {
        let reg = shared();
        reg.borrow_mut().counter_add("broker-0", "produces", 2);
        reg.borrow_mut().counter_add("broker-0", "produces", 3);
        GaugeHandle::new(&reg, "store-0", "oplog_len").set(7.0);
        reg.borrow_mut()
            .observe("job/s/0", "batch_latency_s", 0.004);
        let r = reg.borrow();
        assert_eq!(r.counter("broker-0", "produces"), Some(5));
        assert_eq!(r.gauge("store-0", "oplog_len"), Some(7.0));
        assert_eq!(
            r.histogram("job/s/0", "batch_latency_s").unwrap().count(),
            1
        );
        // Unregistered metric.
        assert!(r.get("nobody", "nothing").is_none());
        assert_eq!(r.counter("nobody", "nothing"), None);
        // Wrong kind reads answer None rather than panicking.
        assert_eq!(r.counter("store-0", "oplog_len"), None);
        assert_eq!(r.metrics().len(), 3);
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn registry_kind_mismatch_update_panics() {
        let mut r = Registry::new();
        r.observe("a", "x", 1.0);
        r.counter_add("a", "x", 1);
    }

    fn shared() -> RegistryHandle {
        Rc::new(RefCell::new(Registry::new()))
    }

    #[test]
    fn handle_never_updated_registers_nothing() {
        let reg = shared();
        let _c = CounterHandle::new(&reg, "broker-0", "produces");
        let _g = GaugeHandle::new(&reg, "broker-0", "log_bytes");
        let _h = HistogramHandle::new(&reg, "broker-0", "batch_bytes", Histogram::bytes);
        assert!(reg.borrow().metrics().is_empty());
    }

    #[test]
    fn handle_and_string_updates_share_one_metric_in_first_update_order() {
        let reg = shared();
        // Handles made in one order, first updated in another: the
        // registration order is the update order.
        let produces = CounterHandle::new(&reg, "broker-0", "produces");
        let log_bytes = GaugeHandle::new(&reg, "broker-0", "log_bytes");
        let batch = HistogramHandle::new(&reg, "broker-0", "batch_records", Histogram::counts);
        reg.borrow_mut().counter_add("broker-0", "fetches", 1);
        batch.observe(3.0);
        reg.borrow_mut().counter_add("broker-0", "produces", 2);
        produces.add(5);
        log_bytes.set(9.0);
        reg.borrow_mut().observe("broker-0", "batch_records", 4.0);
        // A second handle on an existing metric joins it.
        CounterHandle::new(&reg, "broker-0", "produces").add(1);
        GaugeHandle::new(&reg, "broker-0", "log_bytes").set(11.0);
        let reg = reg.borrow();
        let names: Vec<&str> = reg.metrics().iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["fetches", "batch_records", "produces", "log_bytes"]);
        assert_eq!(reg.counter("broker-0", "produces"), Some(8));
        assert_eq!(reg.gauge("broker-0", "log_bytes"), Some(11.0));
        let h = reg.histogram("broker-0", "batch_records").unwrap();
        assert_eq!((h.count(), h.sum()), (2, 7.0));
        assert_eq!(h.bounds(), Histogram::counts().bounds());
    }

    #[test]
    fn same_name_under_two_scopes_is_two_metrics() {
        let reg = shared();
        CounterHandle::new(&reg, "a", "x").add(1);
        CounterHandle::new(&reg, "ab", "x").add(2);
        reg.borrow_mut().counter_add("a", "xy", 4);
        let reg = reg.borrow();
        assert_eq!(reg.counter("a", "x"), Some(1));
        assert_eq!(reg.counter("ab", "x"), Some(2));
        assert_eq!(reg.counter("a", "xy"), Some(4));
        assert_eq!(reg.counter("ab", "xy"), None);
    }

    #[test]
    #[should_panic(expected = "a/x is not a counter")]
    fn handle_kind_mismatch_panics_like_the_string_api() {
        let reg = shared();
        reg.borrow_mut().observe("a", "x", 1.0);
        CounterHandle::new(&reg, "a", "x").add(1);
    }

    #[test]
    #[should_panic(expected = "a/x is not a gauge")]
    fn resolved_handle_still_checks_kind() {
        let reg = shared();
        let h = HistogramHandle::new(&reg, "a", "x", Histogram::counts);
        h.observe(1.0);
        GaugeHandle::new(&reg, "a", "x").set(1.0);
    }
}
