//! Time-series sampling: the per-metric series store and the
//! scheduler-driven sampler process.
//!
//! The sampler mirrors stream2gym's monitoring tasks: a daemon that wakes
//! on a fixed interval and snapshots every runtime signal. Here the wake-up
//! is a simulation timer, so sampling is deterministic and adds zero
//! wall-clock overhead; it consumes no randomness and sends no messages,
//! which keeps same-seed runs byte-identical with telemetry enabled.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use s2g_sim::{Ctx, Message, Process, ProcessId, SimDuration, SimTime};

use crate::metrics::{GaugeHandle, NameIndex};
use crate::Telemetry;

/// One metric's sampled time series.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSeries {
    /// Owning process identity.
    pub scope: String,
    /// Signal name.
    pub name: String,
    /// `(instant, value)` samples in time order.
    pub points: Vec<(SimTime, f64)>,
}

impl MetricSeries {
    /// The series as `(seconds, value)` pairs, ready for charts and CSV.
    pub fn as_secs(&self) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .map(|(t, v)| (t.as_secs_f64(), *v))
            .collect()
    }
}

/// All sampled series for a run, keyed by `(scope, name)` and kept in
/// first-sample order.
#[derive(Debug, Default)]
pub struct SeriesStore {
    series: Vec<MetricSeries>,
    index: NameIndex,
}

impl SeriesStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        SeriesStore::default()
    }

    /// Appends a sample to the `(scope, name)` series, creating it on
    /// first use.
    pub fn record(&mut self, at: SimTime, scope: &str, name: &str, value: f64) {
        let idx = self.index.get(scope, name).unwrap_or_else(|| {
            let idx = self.series.len();
            self.series.push(MetricSeries {
                scope: scope.to_string(),
                name: name.to_string(),
                points: Vec::new(),
            });
            self.index.insert(scope, name, idx);
            idx
        });
        self.series[idx].points.push((at, value));
    }

    /// Looks up one series; `None` when the metric was never sampled.
    pub fn get(&self, scope: &str, name: &str) -> Option<&MetricSeries> {
        self.index.get(scope, name).map(|i| &self.series[i])
    }

    /// All series in first-sample order.
    pub fn all(&self) -> &[MetricSeries] {
        &self.series
    }

    /// The series themselves, in first-sample order.
    pub(crate) fn into_series(self) -> Vec<MetricSeries> {
        self.series
    }

    /// Series whose metric name equals `name`, across scopes.
    pub fn by_name<'a>(&'a self, name: &str) -> Vec<&'a MetricSeries> {
        self.series.iter().filter(|s| s.name == name).collect()
    }
}

/// Every sample of `series` as tidy CSV: one `t_s,scope,metric,value` row
/// per observation, ordered by series then time.
pub fn tidy_csv(series: &[MetricSeries]) -> String {
    let mut out = String::from("t_s,scope,metric,value\n");
    for s in series {
        for (t, v) in &s.points {
            let _ = writeln!(out, "{},{},{},{}", t.as_secs_f64(), s.scope, s.name, v);
        }
    }
    out
}

/// A shared handle to a [`SeriesStore`].
pub(crate) type SeriesHandle = Rc<RefCell<SeriesStore>>;

/// A value the sampler computes on each tick rather than one a process
/// pushes: memory in use, the CPU share of the window that just closed, a
/// port's throughput over it. `read(now, window)` is called once per tick
/// and its result recorded as the `(scope, name)` gauge.
pub struct SampledGauge {
    /// Owning scope (`server`, `host-<h>`).
    pub scope: String,
    /// Signal name.
    pub name: &'static str,
    /// Evaluated at every tick with the tick instant and the sampler's
    /// interval (the window that just closed is `[now - window, now)`).
    pub read: Box<dyn FnMut(SimTime, SimDuration) -> f64>,
}

/// The sampling daemon: a simulated process that every `interval`
/// evaluates its sampled gauges into the registry, in list order, and then
/// snapshots the registry into the series store.
pub struct TelemetrySampler {
    tele: Telemetry,
    interval: SimDuration,
    /// Each sampled gauge behind the handle its value is recorded through.
    gauges: Vec<(GaugeHandle, SampledGauge)>,
}

impl TelemetrySampler {
    /// [`Telemetry::sampler`] is the public constructor.
    pub(crate) fn new(tele: Telemetry, interval: SimDuration, gauges: Vec<SampledGauge>) -> Self {
        assert!(!interval.is_zero(), "telemetry interval must be positive");
        let gauges = gauges
            .into_iter()
            .map(|g| (tele.gauge(&g.scope, g.name), g))
            .collect();
        TelemetrySampler {
            tele,
            interval,
            gauges,
        }
    }
}

impl Process for TelemetrySampler {
    fn name(&self) -> &str {
        "telemetry-sampler"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.interval, 0);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: ProcessId, _msg: Box<dyn Message>) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        let now = ctx.now();
        // Sampled gauges first, so the snapshot includes them.
        for (handle, g) in &mut self.gauges {
            handle.set((g.read)(now, self.interval));
        }
        self.tele.snapshot(now);
        ctx.set_timer(self.interval, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_records_and_exports_tidy_csv() {
        let mut s = SeriesStore::new();
        s.record(SimTime::from_millis(500), "broker-0", "produces", 3.0);
        s.record(SimTime::from_secs(1), "broker-0", "produces", 9.0);
        s.record(SimTime::from_secs(1), "job/a/0", "records_in", 40.0);
        let csv = tidy_csv(s.all());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "t_s,scope,metric,value");
        assert_eq!(lines[1], "0.5,broker-0,produces,3");
        assert_eq!(lines.len(), 4);
        assert_eq!(s.get("broker-0", "produces").unwrap().points.len(), 2);
        assert_eq!(s.by_name("records_in").len(), 1);
    }

    #[test]
    fn store_empty_series_lookup_is_none() {
        let s = SeriesStore::new();
        assert!(s.get("x", "y").is_none());
        assert!(s.all().is_empty());
        assert_eq!(tidy_csv(s.all()), "t_s,scope,metric,value\n");
    }

    #[test]
    fn series_as_secs_converts() {
        let mut s = SeriesStore::new();
        s.record(SimTime::from_millis(250), "a", "m", 2.0);
        let pts = s.get("a", "m").unwrap().as_secs();
        assert_eq!(pts, vec![(0.25, 2.0)]);
    }
}
