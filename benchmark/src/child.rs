//! What runs inside a child process: one repetition of one workload, or the
//! set-up loop. A child prints one `RESULT key=value ...` line (and one
//! `SPAN` line per span) for its parent and exits; the parent reads CPU time
//! and peak RSS of the whole child from `wait4`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use s2g_core::RunResult;
use s2g_net::DropCause;
use s2g_telemetry::MetricValue;

use crate::alloc;
use crate::load::{Fnv, LatencyHist};
use crate::spans::Spans;
use crate::workloads::{sim_digest, Workload};

/// How much a repetition child observes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Times only; every end-to-end number comes from this mode.
    Plain,
    /// Counting allocator on, every layer counter read after the run.
    Counted,
    /// The program's own causal tracer on (`with_telemetry_trace`).
    SimTrace,
}

impl Mode {
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Counted => "counted",
            Mode::SimTrace => "simtrace",
        }
    }

    pub fn parse(s: &str) -> Option<Mode> {
        [Mode::Plain, Mode::Counted, Mode::SimTrace]
            .into_iter()
            .find(|m| m.as_str() == s)
    }
}

/// The `key=value` pairs a child reports; sums unless noted.
#[derive(Default)]
pub struct Counters(BTreeMap<&'static str, f64>);

impl Counters {
    fn add(&mut self, key: &'static str, v: f64) {
        *self.0.entry(key).or_insert(0.0) += v;
    }

    fn max(&mut self, key: &'static str, v: f64) {
        let slot = self.0.entry(key).or_insert(0.0);
        *slot = slot.max(v);
    }

    fn to_line(&self, digest: u64) -> String {
        let mut out = format!("RESULT digest={digest:016x}");
        for (k, v) in &self.0 {
            let _ = write!(out, " {k}={v}");
        }
        out
    }
}

/// Runs one repetition: `workload.runs` scenarios back to back, each result
/// dropped before the next starts. Returns the lines to print.
pub fn rep(w: Workload, seed: u64, scale: u64, mode: Mode) -> String {
    let mut spans = Spans::new();
    let mut c = Counters::default();
    let mut digest = Fnv::new();
    let mut latency = LatencyHist::new();
    if mode == Mode::Counted {
        alloc::enable();
    }
    let root = spans.enter("rep");
    for k in 0..w.runs {
        let s = spans.enter("workload.build");
        let plan = w.plan(seed, k, scale);
        let built = w.build(&plan, seed.wrapping_add(k), true, mode == Mode::SimTrace);
        spans.exit(s);
        if mode == Mode::Counted {
            let s = spans.enter("analyze");
            let report = built.scenario.analyze();
            spans.exit(s);
            assert!(
                !report.has_deny(),
                "workload scenario is denied: {report:?}"
            );
        }

        let before = alloc::snapshot();
        let s = spans.enter("run");
        let t = Instant::now();
        let result = built.scenario.run().expect("workload scenario is valid");
        let run_s = t.elapsed().as_secs_f64();
        spans.exit(s);
        let after = alloc::snapshot();

        let s = spans.enter("check");
        let fold = built.fold.borrow();
        let failed = w.failed(&plan, &fold);
        digest.u64(sim_digest(&result.report, &fold));
        latency.merge(&fold.latency);
        c.add("attempted", plan.records as f64);
        c.add("failed", failed as f64);
        c.add("sink_duplicates", fold.duplicates as f64);
        c.add("events", result.report.sim_stats.events_processed as f64);
        if mode == Mode::Counted {
            layer_counters(&mut c, &result);
            c.add("allocs", (after.allocs - before.allocs) as f64);
            c.add("alloc_bytes", (after.bytes - before.bytes) as f64);
            c.add(
                "retained_bytes",
                after.live.saturating_sub(before.live) as f64,
            );
            c.max("peak_live_bytes", after.peak as f64);
        }
        drop(fold);
        spans.exit(s);

        let s = spans.enter("drop");
        let t = Instant::now();
        drop(result);
        let drop_s = t.elapsed().as_secs_f64();
        spans.exit(s);
        c.add("run_s", run_s);
        c.add("drop_s", drop_s);
    }
    spans.exit(root);
    c.add("latency_p50_ms", latency.quantile_ms(0.50));
    c.add("latency_p99_ms", latency.quantile_ms(0.99));
    format!("{}{}\n", spans.to_lines(), c.to_line(digest.0))
}

/// Every exact count the per-layer metrics are derived from, read through
/// the report's counter structs and the live handles of the result.
fn layer_counters(c: &mut Counters, result: &RunResult) {
    let r = &result.report;
    let sim = r.sim_stats;
    c.add("sim.timers", sim.timers_fired as f64);
    c.add("sim.messages", sim.messages_delivered as f64);
    c.add("sim.voided", sim.events_voided as f64);
    c.max("sim.max_queue_len", sim.max_queue_len as f64);

    {
        let net = result.net.borrow();
        c.add("net.packets", net.delivered_packets() as f64);
        let tx: u64 = net
            .topology()
            .nodes()
            .map(|(id, _)| net.node_tx_bytes(id))
            .sum();
        c.add("net.tx_bytes", tx as f64);
        let drops: u64 = [
            DropCause::Loss,
            DropCause::LinkDown,
            DropCause::NodeDown,
            DropCause::NoRoute,
            DropCause::Unplaced,
        ]
        .into_iter()
        .map(|cause| net.drops(cause))
        .sum();
        c.add("net.drops", drops as f64);
    }

    for b in &r.brokers {
        let s = b.stats;
        c.add("broker.produces", s.produces as f64);
        c.add("broker.fetches", s.fetches as f64);
        c.add("broker.replica_fetches", s.replica_fetches as f64);
        c.add("broker.appended", s.records_appended as f64);
        c.add("broker.truncated", s.records_truncated as f64);
        c.add("broker.duplicates", s.duplicates_filtered as f64);
        c.add("broker.isr_shrinks", s.isr_shrinks as f64);
        c.add("broker.txns_committed", s.txns_committed as f64);
        let moves = b.recovery.map_or(0, |rec| rec.leadership_moves);
        c.add("broker.leadership_moves", moves as f64);
    }
    for p in &r.producers {
        c.add("producer.retries", p.stats.retries as f64);
    }
    for cons in &r.consumers {
        c.add("consumed", cons.stats.records as f64);
    }
    for s in r.spe.values() {
        c.add("consumed", s.consumer_stats.records as f64);
        c.add("spe.records_in", s.record_counts.0 as f64);
        c.add("spe.records_out", s.record_counts.1 as f64);
        let busy = s.metrics.iter().filter(|m| m.records_in > 0);
        c.add("spe.batches", busy.count() as f64);
        let ck = s.checkpoints;
        c.add("spe.checkpoints", ck.checkpoints as f64);
        c.add("spe.delta_checkpoints", ck.delta_checkpoints as f64);
        c.add("spe.snapshot_bytes", ck.snapshot_bytes as f64);
        c.add("spe.persist_ns", ck.persist_nanos as f64);
    }
    // Stage-local counts of parallel jobs: the job-level view above only
    // has stage-0 input and last-stage output.
    for s in r.spe_instances.values() {
        c.add("spe.stage_records_in", s.record_counts.0 as f64);
        c.add("spe.stage_records_out", s.record_counts.1 as f64);
    }
    for s in r.stores.iter().filter(|s| s.is_primary) {
        c.add("store.oplog_ops", (s.oplog_len + s.oplog_truncated) as f64);
    }
    c.add("proto.shared_batch_copies", r.shared_batch_copies as f64);

    let registry = result.telemetry.registry();
    c.add("telemetry.metrics", registry.metrics().len() as f64);
    for m in registry.metrics() {
        if let MetricValue::Histogram(h) = &m.value {
            c.add("telemetry.observations", h.count() as f64);
        }
    }
    let points: usize = r.metric_series.iter().map(|s| s.points.len()).sum();
    c.add("telemetry.sampler_points", points as f64);
}

/// The set-up loop: build the workload's scenario, `analyze()` it and
/// `run()` it at duration zero (topology, routes, process construction,
/// report assembly, no traffic), `iters` times after `iters / 10` warm-ups.
/// Also times `analyze()` alone. Reports medians.
pub fn setup(w: Workload, seed: u64, scale: u64, iters: usize) -> String {
    let plan = w.plan(seed, 0, scale);
    let mut whole = Vec::with_capacity(iters);
    let mut analyze = Vec::with_capacity(iters);
    for i in 0..iters + iters / 10 {
        let t = Instant::now();
        let built = w.build(&plan, seed, false, false);
        let t_analyze = Instant::now();
        let report = black_box(built.scenario.analyze());
        let analyze_s = t_analyze.elapsed().as_secs_f64();
        assert!(
            !report.has_deny(),
            "workload scenario is denied: {report:?}"
        );
        let result = built.scenario.run().expect("workload scenario is valid");
        drop(black_box(result));
        if i >= iters / 10 {
            whole.push(t.elapsed().as_secs_f64());
            analyze.push(analyze_s);
        }
    }
    format!(
        "RESULT digest=0 setup_s={} analyze_s={} iters={iters}\n",
        crate::stats::median(&mut whole),
        crate::stats::median(&mut analyze),
    )
}
