//! Record capture is an observer: the same seeded run with and without
//! `Scenario::capture_records()` simulates identically, the always-on folds
//! equal what the captured records recompute, and an identity accessor on
//! an uncaptured run fails loudly instead of answering from nothing.
//!
//! The scenario is the recovery pipeline (producer → stateful SPE job →
//! consumer) under at-least-once checkpointing with a mid-stream worker
//! crash: the non-transactional checkpoint barrier counts completed sink
//! records, which must not depend on whether outcomes are captured.

use std::panic::{catch_unwind, AssertUnwindSafe};

use stream2gym::apps::word_count::recovery_scenario;
use stream2gym::core::{RunResult, Scenario};
use stream2gym::net::FaultPlan;
use stream2gym::sim::{SimDuration, SimTime};
use stream2gym::spe::{CheckpointCfg, CheckpointMode};
use stream2gym::telemetry::Histogram;

const WORDS: usize = 120;

fn scenario() -> Scenario {
    let mut sc = recovery_scenario(
        WORDS,
        SimDuration::from_millis(50),
        SimTime::from_secs(30),
        23,
    );
    sc.with_checkpointing(CheckpointCfg::new(
        SimDuration::from_secs(1),
        CheckpointMode::AtLeastOnce,
    ));
    sc.faults(FaultPlan::new().crash_restart(
        "wordcount",
        SimTime::from_millis(4_300),
        SimDuration::from_secs(1),
    ));
    sc
}

fn run(capture: bool) -> RunResult {
    let mut sc = scenario();
    if capture {
        sc.capture_records();
    }
    sc.run().expect("runs")
}

/// Everything the simulation counted, as text.
fn counters(result: &RunResult) -> String {
    let r = &result.report;
    let producers: Vec<_> = r
        .producers
        .iter()
        .map(|p| (p.stats, p.ack_latency))
        .collect();
    let consumers: Vec<_> = r.consumers.iter().map(|c| c.stats).collect();
    let brokers: Vec<_> = r.brokers.iter().map(|b| b.stats).collect();
    let spe: Vec<_> = r
        .spe
        .iter()
        .map(|(name, s)| (name, s.record_counts, s.checkpoints, s.consumer_stats))
        .collect();
    format!(
        "{:?}|{producers:?}|{consumers:?}|{brokers:?}|{spe:?}|{:?}",
        r.sim_stats,
        result.monitor.borrow().clamped_latencies
    )
}

#[test]
fn capture_does_not_change_the_run() {
    let (plain, captured) = (run(false), run(true));
    assert_eq!(counters(&plain), counters(&captured));
    let spe = &plain.report.spe["wordcount"];
    assert!(spe.recovery.is_some(), "the fault fired");
    assert!(spe.checkpoints.offset_commits > 0, "the barrier released");
    // The default run kept no per-record identity anywhere.
    assert!(plain.report.producers[0].outcomes.is_empty());
    assert!(plain.report.producers[0].sent_index.is_empty());
    assert!(plain.monitor.borrow().deliveries.is_empty());
    // The captured run kept all of it.
    let p = &captured.report.producers[0];
    assert_eq!(p.sent_index.len(), WORDS);
    assert_eq!(p.outcomes.len() as u64, p.stats.acked + p.stats.failed);
}

#[test]
fn folds_equal_the_captured_records() {
    let (plain, captured) = (run(false), run(true));
    let core = captured.monitor.borrow();
    assert!(core.deliveries.len() > WORDS, "replay duplicates included");
    let lats = || core.deliveries.iter().map(|d| d.latency());
    let mean = lats().map(|l| l.as_nanos()).sum::<u64>() / core.deliveries.len() as u64;
    let mut hist = Histogram::latency_seconds();
    lats().for_each(|l| hist.observe(l.as_secs_f64()));
    for result in [&plain, &captured] {
        assert_eq!(result.total_deliveries(), core.deliveries.len());
        assert_eq!(
            result.mean_latency("counts"),
            Some(SimDuration::from_nanos(mean))
        );
        let monitor = result.monitor.borrow();
        assert_eq!(monitor.latency_stats("counts"), hist.stats());
        assert_eq!(
            monitor.delivery_count_to(0, "counts"),
            core.deliveries.len() as u64
        );
        assert_eq!(monitor.latency_stats("words"), None, "nobody consumes it");
    }
    // Producer side: the folded ack latency equals the outcomes'.
    let p = &captured.report.producers[0];
    let mut acks = Histogram::latency_seconds();
    for o in p.outcomes.iter().filter(|o| o.delivered) {
        acks.observe(o.completed.saturating_since(o.created).as_secs_f64());
    }
    assert_eq!(p.ack_latency, acks.stats());
    assert_eq!(plain.report.producers[0].ack_latency, acks.stats());
}

#[test]
fn identity_accessors_name_the_opt_in() {
    let plain = run(false);
    let err = catch_unwind(AssertUnwindSafe(|| plain.delivery_matrix(0)))
        .expect_err("a matrix of an uncaptured run must not come back empty");
    let msg = err
        .downcast_ref::<String>()
        .expect("panic carries a message");
    assert!(msg.contains("Scenario::capture_records()"), "{msg}");
    // With the opt-in the same call answers.
    let matrix = run(true).delivery_matrix(0);
    assert_eq!(matrix.messages.len(), WORDS);
}
