//! Bounded recovery: incremental checkpoints + broker log compaction.
//!
//! The same fault-heavy word-count pipeline runs twice — once with full
//! snapshots on a raw broker log, once with incremental (delta)
//! checkpointing and keyed log compaction — and both the worker and the
//! broker are crashed and restarted mid-run. The output is identical in
//! both runs (exactly-once recovery holds either way); what changes is the
//! *cost*: broker replay is bounded by live data instead of history, and
//! checkpoint captures ship deltas instead of full state. (Word count keeps
//! an 8-word vocabulary, so full snapshots are tiny here — the state-growth
//! effect that makes deltas pay shows in the `--fig compaction` sweep,
//! whose key space grows with history.)
//!
//! ```text
//! cargo run --release --example bounded_recovery
//! ```

use stream2gym::apps::word_count::{recovery_scenario, word_stream};
use stream2gym::core::{RunResult, Scenario};
use stream2gym::net::FaultPlan;
use stream2gym::sim::{SimDuration, SimTime};
use stream2gym::spe::CheckpointCfg;

const WORDS: usize = 400;
const WORD_EVERY_MS: u64 = 25;
const SEED: u64 = 77;

fn base_scenario() -> Scenario {
    let mut sc = recovery_scenario(
        WORDS,
        SimDuration::from_millis(WORD_EVERY_MS),
        SimTime::from_secs(30),
        SEED,
    );
    sc.with_recoverable_broker();
    sc.faults(
        FaultPlan::new()
            .crash_restart(
                "wordcount",
                SimTime::from_millis(4_300),
                SimDuration::from_millis(1_000),
            )
            .crash_restart_broker(0, SimTime::from_millis(12_000), SimDuration::from_secs(1)),
    );
    sc
}

fn report(label: &str, result: &RunResult) {
    let spe = &result.report.spe["wordcount"];
    let ck = spe.checkpoints;
    let rec = spe.recovery.expect("worker crash recorded");
    let brec = result.report.brokers[0]
        .recovery
        .expect("broker crash recorded");
    println!("== {label} ==");
    println!(
        "  checkpoints: {} full + {} delta | last full {} B | max delta {} B",
        ck.full_checkpoints, ck.delta_checkpoints, ck.last_full_bytes, ck.max_delta_bytes
    );
    println!(
        "  worker restore: {} B read, {} deltas applied, latency {:?}",
        rec.snapshot_bytes,
        rec.delta_chain_len,
        rec.restore_latency().unwrap_or_default()
    );
    println!(
        "  broker replay: {} records / {} B in {:?} (cleaning saved {} B)",
        brec.replayed_records,
        brec.replayed_bytes,
        brec.replay_latency().unwrap_or_default(),
        brec.replay_saved_bytes
    );
}

/// The consumer's view: highest count seen per word on the `counts` topic.
fn final_counts(result: &RunResult) -> std::collections::BTreeMap<String, i64> {
    use std::any::Any;
    use stream2gym::broker::{CollectingSink, ConsumerProcess};
    use stream2gym::core::MonitoredSink;
    let pid = result.consumer_pids[0];
    let cp = result
        .sim
        .process_ref::<ConsumerProcess>(pid)
        .expect("consumer");
    let monitored = cp.sink_as::<MonitoredSink>().expect("monitored sink");
    let sink = (monitored.inner() as &dyn Any)
        .downcast_ref::<CollectingSink>()
        .expect("collecting sink");
    let mut counts = std::collections::BTreeMap::new();
    for (_, _, rec) in &sink.deliveries {
        let e = stream2gym::spe::Event::from_bytes(&rec.value).expect("SPE output decodes");
        let word = e.key.clone().expect("keyed by word");
        let n = e.value.as_int().expect("count value");
        let entry = counts.entry(word).or_insert(0);
        *entry = (*entry).max(n);
    }
    counts
}

fn main() {
    // Baseline: full snapshots, raw log.
    let mut baseline = base_scenario();
    baseline.with_checkpointing(CheckpointCfg::exactly_once(SimDuration::from_secs(1)));
    let baseline = baseline.run().expect("baseline runs");

    // Bounded: delta chains (cap 4) + keyed compaction.
    let mut bounded = base_scenario();
    bounded
        .with_checkpointing(CheckpointCfg::exactly_once(SimDuration::from_secs(1)).incremental(4));
    bounded.with_log_compaction();
    let bounded = bounded.run().expect("bounded runs");

    report("full snapshots + raw log", &baseline);
    report("incremental + compaction", &bounded);

    // Both modes recover to the exact no-fault output.
    let truth: std::collections::BTreeMap<String, i64> = {
        let mut tally = std::collections::BTreeMap::new();
        for w in word_stream(WORDS, SEED) {
            *tally.entry(w).or_insert(0) += 1;
        }
        tally
    };
    for (label, result) in [("baseline", &baseline), ("bounded", &bounded)] {
        assert_eq!(
            final_counts(result),
            truth,
            "{label} must match the ground truth"
        );
    }
    println!("\nboth runs reproduce the exact no-fault output — only the recovery bill differs");
}
