//! Telemetry subsystem: seeded runs stay deterministic with telemetry
//! enabled (including a fault-heavy run), toggling telemetry never changes
//! what a run does, and the registry/series/histogram edge cases hold.

use stream2gym::apps::word_count::{recovery_scenario, running_count_plan, word_stream};
use stream2gym::broker::TopicSpec;
use stream2gym::core::{Scenario, SourceSpec, SpeJobSpec, SpeSinkSpec};
use stream2gym::net::{FaultPlan, LinkSpec};
use stream2gym::sim::{SimDuration, SimTime};
use stream2gym::spe::{CheckpointCfg, SpeConfig};
use stream2gym::store::StoreConfig;
use stream2gym::telemetry::{validate_chrome_trace, Histogram, Registry, SeriesStore, Telemetry};

use std::time::{Duration, Instant};

/// A checkpointed word-count run with a worker crash and restart mid-run —
/// the fault-heavy workload the determinism assertions run against.
fn fault_heavy(seed: u64) -> Scenario {
    let mut sc = recovery_scenario(
        100,
        SimDuration::from_millis(50),
        SimTime::from_secs(25),
        seed,
    );
    sc.with_checkpointing(CheckpointCfg::exactly_once(SimDuration::from_secs(1)));
    sc.telemetry_interval(SimDuration::from_millis(200));
    sc.with_telemetry_trace(true);
    sc.faults(FaultPlan::new().crash_restart(
        "wordcount",
        SimTime::from_millis(3_700),
        SimDuration::from_millis(800),
    ));
    sc
}

#[test]
fn same_seed_runs_emit_identical_telemetry() {
    let run = |seed: u64| {
        let result = fault_heavy(seed).run().expect("runs");
        (result.telemetry.tidy_csv(), result.telemetry.chrome_json())
    };
    let (csv_a, trace_a) = run(7);
    let (csv_b, trace_b) = run(7);
    assert_eq!(csv_a, csv_b, "same seed, same metric time series");
    assert_eq!(trace_a, trace_b, "same seed, same trace event sequence");
    assert!(
        csv_a.lines().count() > 50,
        "the sampler must have recorded a real series, got:\n{csv_a}"
    );
    let summary = validate_chrome_trace(&trace_a).expect("well-formed trace");
    assert!(summary.events > 0, "the tracer must have collected events");
    // The fault and every recovery phase appear in the trace.
    for marker in ["fault:crash", "fault:restart", "recovery:first_batch"] {
        assert!(trace_a.contains(marker), "trace must contain {marker}");
    }
}

#[test]
fn telemetry_toggle_does_not_change_the_run() {
    // The sampler is a pure observer spawned after every other process, so
    // switching it (or the tracer) on and off must leave the simulated
    // behavior — deliveries, recovery, checkpoints — byte-identical.
    let run = |telemetry: bool, trace: bool| {
        let mut sc = fault_heavy(11);
        sc.with_telemetry(telemetry);
        sc.with_telemetry_trace(trace);
        sc.capture_records();
        let result = sc.run().expect("runs");
        let behaviour = format!(
            "{:?}|{:?}|{:?}|{:?}",
            result.report.producers,
            result.report.spe,
            result.delivery_matrix(0),
            result.report.brokers,
        );
        (behaviour, result.report)
    };
    let (on, sampled) = run(true, true);
    assert_eq!(
        on,
        run(true, false).0,
        "tracer toggle must not shift the run"
    );
    let (off, unsampled) = run(false, false);
    assert_eq!(on, off, "sampler toggle must not shift the run");
    // The sampler is the only source of series: off, there are none, and a
    // reader of one says which knob that was rather than answering zero.
    assert!(sampled.peak_mem_bytes() > 0);
    assert!(unsampled.metric_series.is_empty());
    let refused = std::panic::catch_unwind(|| unsampled.peak_mem_bytes());
    let refused = refused.expect_err("no memory series to read");
    let msg = refused.downcast_ref::<String>().expect("a formatted panic");
    assert!(msg.contains("with_telemetry"), "{msg}");
}

#[test]
fn run_report_surfaces_sampled_series() {
    let result = fault_heavy(3).run().expect("runs");
    let series = &result.report.metric_series;
    assert!(!series.is_empty(), "report must carry the sampled series");
    let find = |name: &str| {
        series
            .iter()
            .find(|s| s.name == name || s.name.starts_with(name))
            .unwrap_or_else(|| panic!("series `{name}` missing from the report"))
    };
    // One signal per subsystem: broker, SPE worker, checkpoint
    // coordinator, consumer client, and the sampler's own gauges.
    for name in [
        "records_appended",
        "records_in",
        "checkpoints",
        "lag/",
        "cpu_occupancy",
        "mem_bytes",
        "cpu_utilization",
    ] {
        let s = find(name);
        assert!(
            !s.points.is_empty(),
            "series `{}`/`{}` sampled no points",
            s.scope,
            s.name
        );
    }
}

/// `tests/parallelism.rs`'s exactly-once scenario: a parallelism-4 keyed
/// word count over 8 partitions with checkpoint-aligned transactional
/// sinks, so one EndTxn marker resolves transactions on several partitions
/// of the one broker at once.
#[test]
fn transaction_counters_match_broker_stats() {
    let mut sc = Scenario::new("wc-par-txn");
    sc.seed(77)
        .duration(SimTime::from_secs(30))
        .default_link(LinkSpec::new().latency(SimDuration::from_millis(2)))
        .topic(TopicSpec::new("words").partitions(8))
        .topic(TopicSpec::new("counts"));
    sc.broker("h2");
    sc.producer(
        "h1",
        SourceSpec::Items {
            topic: "words".into(),
            items: word_stream(160, 77),
            interval: SimDuration::from_millis(40),
        },
        Default::default(),
    );
    let cfg = SpeConfig {
        batch_interval: SimDuration::from_millis(250),
        scheduling_overhead: SimDuration::from_millis(20),
        startup_cpu: SimDuration::from_millis(200),
        ..SpeConfig::default()
    };
    let sink = SpeSinkSpec::Topic("counts".into());
    let job = SpeJobSpec::new("wc", vec!["words".into()], running_count_plan, sink, cfg);
    sc.spe_job("h3", job.parallelism(4));
    sc.consumer("h5", Default::default(), &["counts"]);
    sc.with_checkpointing(CheckpointCfg::exactly_once(SimDuration::from_secs(1)));
    sc.with_transactional_sinks();
    let result = sc.run().expect("runs");

    let stats = result.report.brokers[0].stats;
    let registry = result.telemetry.registry();
    assert!(
        stats.txns_committed > 100,
        "the scenario must commit transactions, got {}",
        stats.txns_committed
    );
    assert_eq!(
        registry.counter("broker-0", "txns_committed"),
        Some(stats.txns_committed),
        "the telemetry counter counts every resolved (partition, txn), like the stats"
    );
    assert_eq!(
        registry.counter("broker-0", "txns_aborted").unwrap_or(0),
        stats.txns_aborted
    );
}

#[test]
fn unregistered_metrics_read_as_none() {
    let reg = Registry::new();
    assert_eq!(reg.counter("nowhere", "nothing"), None);
    assert_eq!(reg.gauge("nowhere", "nothing"), None);
    assert!(reg.histogram("nowhere", "nothing").is_none());
    assert!(reg.get("nowhere", "nothing").is_none());

    // A registered metric of one kind never answers for another.
    let tele = Telemetry::new();
    tele.counter("b", "c").add(1);
    let reg = tele.registry();
    assert_eq!(reg.counter("b", "c"), Some(1));
    assert_eq!(reg.gauge("b", "c"), None);
    assert!(reg.histogram("b", "c").is_none());
}

#[test]
fn empty_series_store_is_well_behaved() {
    let store = SeriesStore::new();
    assert!(store.get("any", "thing").is_none());
    assert!(store.all().is_empty());
    assert_eq!(
        store.to_tidy_csv().lines().next(),
        Some("t_s,scope,metric,value")
    );

    // A fresh handle exports header-only CSV and an empty (but valid)
    // Chrome trace.
    let tele = Telemetry::new();
    assert_eq!(tele.tidy_csv().lines().count(), 1);
    let summary = validate_chrome_trace(&tele.chrome_json()).expect("valid empty trace");
    assert_eq!(summary.events, 0);
}

/// Validation is linear in the size of the trace: a 2 MB trace (larger than
/// `--fig timeline`'s) takes well under a second, where a parser that
/// re-reads the rest of the document per character would take minutes.
#[test]
fn a_large_trace_validates_in_linear_time() {
    let tele = Telemetry::new();
    tele.set_trace_enabled(true);
    let mut spans = 0;
    while tele.chrome_json().len() < 2 << 20 {
        for i in 0..1_000u64 {
            let at = SimTime::from_micros(spans * 10 + i);
            let scope = format!("job/stage-{}/{}", i % 7, i % 3);
            let name = format!("batch \"é{i}\" → sink");
            tele.trace_complete(at, SimDuration::from_micros(5), &scope, &name, "spe");
            tele.trace_instant(at, &scope, "checkpoint:barrier", "checkpoint");
        }
        spans += 1_000;
    }
    let json = tele.chrome_json();
    let started = std::time::Instant::now();
    let summary = validate_chrome_trace(&json).expect("well-formed trace");
    let took = started.elapsed();
    assert_eq!(
        (summary.spans, summary.instants),
        (spans as usize, spans as usize)
    );
    assert_eq!(summary.processes, 21);
    assert!(
        took.as_secs() < 10,
        "{} B validated in {took:?}",
        json.len()
    );
}

#[test]
fn histogram_overflow_bucket_keeps_quantiles_sane() {
    let mut h = Histogram::latency_seconds();
    assert!(
        h.quantile(0.5).is_none(),
        "empty histogram has no quantiles"
    );
    assert!(h.stats().is_none(), "empty histogram has no stats");

    // 99 in-range samples plus one far beyond the last bound (~100 s).
    for _ in 0..99 {
        h.observe(0.010);
    }
    h.observe(1.0e6);
    assert_eq!(h.count(), 100);
    assert_eq!(h.overflow_count(), 1, "the straggler lands in overflow");
    let stats = h.stats().expect("non-empty");
    assert_eq!(stats.max, 1.0e6, "overflow samples still track the max");
    assert!(
        stats.p50 < 0.02,
        "median stays in range despite overflow, got {}",
        stats.p50
    );
    assert_eq!(
        h.quantile(1.0),
        Some(1.0e6),
        "the top quantile is attributed to the recorded max"
    );
}

/// A replicated store and incremental checkpoints persisted through it:
/// the metrics those components record through handles keep their kind,
/// their buckets, and the counts the run's report gives.
#[test]
fn store_and_checkpoint_metrics_keep_their_kind_and_buckets() {
    let mut sc = recovery_scenario(100, SimDuration::from_millis(50), SimTime::from_secs(12), 9);
    sc.store("h6", StoreConfig::default());
    sc.with_replicated_store(3);
    let every_second = CheckpointCfg::exactly_once(SimDuration::from_secs(1));
    sc.with_durable_checkpointing(every_second.incremental(4), "h6");
    let result = sc.run().expect("runs");
    let registry = result.telemetry.registry();

    let scopes_of = |name: &str| -> Vec<&str> {
        let metrics = registry.metrics().iter().filter(|m| m.name == name);
        metrics.map(|m| m.scope.as_str()).collect()
    };
    let members = scopes_of("oplog_len");
    assert_eq!(members.len(), 3, "one per store member: {members:?}");
    assert_eq!(scopes_of("applied_seq"), members);
    for member in &members {
        assert!(registry.gauge(member, "oplog_len").is_some(), "{member}");
        assert!(
            registry.gauge(member, "applied_seq").unwrap() > 0.0,
            "{member}"
        );
    }

    assert!(result.report.spe_instances.is_empty(), "one worker per job");
    for (worker, spe) in &result.report.spe {
        let checkpoints = spe.checkpoints.checkpoints;
        assert!(
            spe.checkpoints.delta_checkpoints > 0,
            "{worker}: incremental"
        );
        assert_eq!(registry.counter(worker, "checkpoints"), Some(checkpoints));
        let buckets = [
            ("checkpoint_duration_s", Histogram::latency_seconds()),
            ("checkpoint_bytes", Histogram::bytes()),
        ];
        for (name, want) in buckets {
            let h = registry.histogram(worker, name).expect(name);
            assert_eq!(h.bounds(), want.bounds(), "{worker}/{name}");
            assert_eq!(h.count(), checkpoints, "{worker}/{name}");
        }
    }
}

/// A trace damaged on the way to a reader is refused or accepted, never a
/// panic, and quickly: the trace of a real run cut at seeded offsets, and
/// with seeded ASCII bytes replaced by bytes JSON gives a meaning to.
#[test]
fn a_damaged_trace_is_an_answer_not_a_panic() {
    let trace = fault_heavy(5).run().expect("runs").telemetry.chrome_json();
    validate_chrome_trace(&trace).expect("the undamaged trace is valid");
    let mut state = 0xda7a_u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut r = state;
        r = (r ^ (r >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        r = (r ^ (r >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (r ^ (r >> 31)) as usize
    };
    let timed = |text: &str| {
        let started = Instant::now();
        let answer = validate_chrome_trace(text);
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "{} B took {took:?}",
            text.len()
        );
        answer
    };

    for _ in 0..100 {
        let mut cut = next() % trace.len();
        while !trace.is_char_boundary(cut) {
            cut -= 1;
        }
        if !trace[cut..].trim().is_empty() {
            assert!(timed(&trace[..cut]).is_err(), "cut at byte {cut}");
        }
    }

    let ascii: Vec<usize> = (0..trace.len())
        .filter(|i| trace.as_bytes()[*i].is_ascii())
        .collect();
    let meaningful = b"{}[]\",:\\0123456789-+.eEutfnl ";
    let mut refused = 0;
    for _ in 0..100 {
        let mut bytes = trace.clone().into_bytes();
        for _ in 0..=next() % 3 {
            bytes[ascii[next() % ascii.len()]] = meaningful[next() % meaningful.len()];
        }
        let text = String::from_utf8(bytes).expect("an ASCII byte for an ASCII byte");
        refused += usize::from(timed(&text).is_err());
    }
    assert!(refused > 0, "some damage must be refused");
}
