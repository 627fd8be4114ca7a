//! Runtime telemetry for stream2gym-rs: a metrics registry, a
//! scheduler-driven time-series sampler, and a causal event trace.
//!
//! stream2gym's core loop "triggers a series of monitoring tasks" that
//! capture network- and application-level signals while an experiment
//! runs. This crate is that monitoring layer for the simulation: every
//! process pushes counters, gauges, and latency histograms into a shared
//! [`Registry`] through handles ([`Telemetry::counter`],
//! [`Telemetry::gauge`], [`Telemetry::histogram`]); a [`TelemetrySampler`]
//! process snapshots the registry on a fixed simulated interval into
//! per-metric [`MetricSeries`]; and a
//! [`Tracer`] collects typed spans (record lifecycle, checkpoint barriers,
//! transactions, faults, recovery phases) that export as Chrome-trace
//! JSON.
//!
//! Everything is deterministic: the sampler runs on simulation timers,
//! consumes no randomness, and sends no messages, so enabling telemetry
//! never changes what a seeded run does.
//!
//! # Examples
//!
//! ```
//! use s2g_sim::SimTime;
//! use s2g_telemetry::{Histogram, Telemetry};
//!
//! let tele = Telemetry::new();
//! // A component makes its handles once, when it is built or attached...
//! let produces = tele.counter("broker-0", "produces");
//! let oplog_len = tele.gauge("store-0", "oplog_len");
//! let latency = tele.histogram("job/map/0", "batch_latency_s", Histogram::latency_seconds);
//! // ...and updates through them per message.
//! produces.add(1);
//! oplog_len.set(12.0);
//! latency.observe(0.003);
//! tele.snapshot(SimTime::from_millis(500));
//! let csv = s2g_telemetry::tidy_csv(tele.series().all());
//! assert!(csv.starts_with("t_s,scope,metric,value"));
//! assert!(csv.contains("broker-0,produces,1"));
//! ```
#![warn(missing_docs)]

mod json;
mod metrics;
mod series;
mod trace;

use std::cell::{Ref, RefCell};
use std::rc::Rc;

use s2g_sim::{SimDuration, SimTime};

pub use json::{validate_chrome_trace, ChromeTraceSummary};
pub use metrics::{
    summarize, CounterHandle, GaugeHandle, Histogram, HistogramHandle, Metric, MetricValue,
    Registry, SummaryStats,
};
pub use series::{tidy_csv, MetricSeries, SampledGauge, SeriesStore, TelemetrySampler};
pub use trace::{TraceEvent, TracePhase, Tracer};

/// The shared telemetry handle: one registry, one series store, and one
/// tracer behind cheap `Rc` clones, so every process in a run records into
/// the same sink. Mirrors the repo-wide shared-handle idiom
/// (`CpuHandle`, `LedgerHandle`, ...).
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    registry: metrics::RegistryHandle,
    series: series::SeriesHandle,
    tracer: trace::TracerHandle,
}

impl Telemetry {
    /// Creates a fresh telemetry sink. Metrics are always-on; the tracer
    /// starts disabled (see [`Telemetry::set_trace_enabled`]).
    pub fn new() -> Self {
        Telemetry {
            registry: Rc::new(RefCell::new(Registry::new())),
            series: Rc::new(RefCell::new(SeriesStore::new())),
            tracer: Rc::new(RefCell::new(Tracer::new())),
        }
    }

    /// Turns causal event tracing on or off.
    pub fn set_trace_enabled(&self, on: bool) {
        self.tracer.borrow_mut().set_enabled(on);
    }

    /// Whether trace events are being collected.
    pub fn trace_enabled(&self) -> bool {
        self.tracer.borrow().enabled()
    }

    /// A handle on the `(scope, name)` counter. Handles are the only way a
    /// component updates a metric: it makes them when it is built or
    /// attached, and the lookup is paid on the first update only, which is
    /// also when the metric registers.
    pub fn counter(&self, scope: &str, name: &str) -> CounterHandle {
        CounterHandle::new(&self.registry, scope, name)
    }

    /// A handle on the `(scope, name)` gauge (see [`Telemetry::counter`]).
    pub fn gauge(&self, scope: &str, name: &str) -> GaugeHandle {
        GaugeHandle::new(&self.registry, scope, name)
    }

    /// A handle on the `(scope, name)` histogram (see
    /// [`Telemetry::counter`]), created with `buckets` on first use:
    /// [`Histogram::latency_seconds`], [`Histogram::bytes`] or
    /// [`Histogram::counts`].
    pub fn histogram(
        &self,
        scope: &str,
        name: &str,
        buckets: fn() -> Histogram,
    ) -> HistogramHandle {
        HistogramHandle::new(&self.registry, scope, name, buckets)
    }

    /// Records a point trace event.
    pub fn trace_instant(&self, at: SimTime, scope: &str, name: &str, cat: &'static str) {
        self.tracer.borrow_mut().instant(at, scope, name, cat);
    }

    /// Opens a trace span.
    pub fn trace_begin(&self, at: SimTime, scope: &str, name: &str, cat: &'static str) {
        self.tracer.borrow_mut().begin(at, scope, name, cat);
    }

    /// Closes a trace span.
    pub fn trace_end(&self, at: SimTime, scope: &str, name: &str, cat: &'static str) {
        self.tracer.borrow_mut().end(at, scope, name, cat);
    }

    /// Records a complete trace span.
    pub fn trace_complete(
        &self,
        at: SimTime,
        dur: SimDuration,
        scope: &str,
        name: &str,
        cat: &'static str,
    ) {
        self.tracer.borrow_mut().complete(at, dur, scope, name, cat);
    }

    /// Snapshots every registered metric into the series store at `at`
    /// (what the sampler process does on each tick, after evaluating its
    /// sampled gauges).
    pub fn snapshot(&self, at: SimTime) {
        let reg = self.registry.borrow();
        let mut series = self.series.borrow_mut();
        for m in reg.metrics() {
            series.record(at, &m.scope, &m.name, m.value.sample());
        }
    }

    /// Immutable access to the registry.
    pub fn registry(&self) -> Ref<'_, Registry> {
        self.registry.borrow()
    }

    /// Immutable access to the sampled series.
    pub fn series(&self) -> Ref<'_, SeriesStore> {
        self.series.borrow()
    }

    /// Immutable access to the tracer.
    pub fn tracer(&self) -> Ref<'_, Tracer> {
        self.tracer.borrow()
    }

    /// Builds the sampler process over this sink, evaluating `gauges` on
    /// every tick; spawn it into the sim. Panics if `interval` is zero.
    pub fn sampler(&self, interval: SimDuration, gauges: Vec<SampledGauge>) -> TelemetrySampler {
        TelemetrySampler::new(self.clone(), interval, gauges)
    }

    /// Moves the sampled series out, in first-sample order, leaving the
    /// store empty: how a run's report owns them without a second copy.
    pub fn take_series(&self) -> Vec<MetricSeries> {
        self.series.take().into_series()
    }

    /// The collected trace as Chrome trace-event JSON.
    pub fn chrome_json(&self) -> String {
        self.tracer.borrow().to_chrome_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_clones_share_state() {
        let a = Telemetry::new();
        let b = a.clone();
        b.counter("s", "c").add(4);
        assert_eq!(a.registry().counter("s", "c"), Some(4));
        a.set_trace_enabled(true);
        b.trace_instant(SimTime::ZERO, "s", "e", "test");
        assert_eq!(a.tracer().len(), 1);
    }

    #[test]
    fn snapshot_then_csv_round_trip() {
        let t = Telemetry::new();
        let cpu = t.gauge("host-h1", "cpu_occupancy");
        cpu.set(0.25);
        t.snapshot(SimTime::from_secs(1));
        cpu.set(0.5);
        t.snapshot(SimTime::from_secs(2));
        let s = t.series();
        let series = s.get("host-h1", "cpu_occupancy").unwrap();
        assert_eq!(series.points.len(), 2);
        assert_eq!(series.points[1].1, 0.5);
    }

    #[test]
    fn chrome_json_from_handle_validates() {
        let t = Telemetry::new();
        t.set_trace_enabled(true);
        t.trace_complete(
            SimTime::from_millis(1),
            SimDuration::from_micros(10),
            "job/a/0",
            "batch",
            "spe",
        );
        let summary = validate_chrome_trace(&t.chrome_json()).unwrap();
        assert_eq!(summary.spans, 1);
    }
}
