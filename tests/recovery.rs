//! Worker crash/recovery: the checkpoint subsystem end to end.
//!
//! A producer streams single-word records through a broker into a stateful
//! running-count SPE job whose `(word, count)` updates land on a downstream
//! topic. Mid-stream the fault plan kills the worker and restarts it.
//!
//! * With **exactly-once** checkpointing the final per-word counts equal the
//!   no-fault baseline: state, buffered input, and offsets are restored from
//!   one consistent capture, and offsets are only committed after the
//!   pre-capture output is acknowledged.
//! * With **at-least-once** checkpointing the broker's committed offsets
//!   deliberately trail the persisted state, so recovery replays up to one
//!   checkpoint interval of records into state that already counted them:
//!   counts inflate by a bounded number of duplicates, and nothing is lost.
//!
//! The broker-bounce tests crash the *broker* instead: with a recoverable
//! (or store-backed durable) log the restarted broker replays its segments
//! and the exactly-once pipeline's output still equals the no-fault
//! baseline; without one, acknowledged records vanish with the process.

use std::any::Any;
use std::collections::BTreeMap;

use stream2gym::apps::word_count::{recovery_scenario, word_stream};
use stream2gym::broker::{CollectingSink, ConsumerProcess};
use stream2gym::core::{MonitoredSink, RunResult, Scenario};
use stream2gym::net::{FaultAction, FaultPlan};
use stream2gym::sim::{SimDuration, SimTime};
use stream2gym::spe::{CheckpointCfg, CheckpointMode, Event};

const WORDS: usize = 120;
const WORD_INTERVAL_MS: u64 = 50;
const CHECKPOINT_INTERVAL: SimDuration = SimDuration::from_secs(1);
const CRASH_AT_MS: u64 = 4_300;
const DOWN_FOR_MS: u64 = 1_000;
const SEED: u64 = 23;

fn build(mode: Option<CheckpointMode>, crash: bool) -> Scenario {
    let mut sc = recovery_scenario(
        WORDS,
        SimDuration::from_millis(WORD_INTERVAL_MS),
        SimTime::from_secs(30),
        SEED,
    );
    if let Some(mode) = mode {
        sc.with_checkpointing(CheckpointCfg::new(CHECKPOINT_INTERVAL, mode));
    }
    if crash {
        sc.faults(FaultPlan::new().crash_restart(
            "wordcount",
            SimTime::from_millis(CRASH_AT_MS),
            SimDuration::from_millis(DOWN_FOR_MS),
        ));
    }
    sc
}

/// The consumer's view: highest count seen per word on the `counts` topic.
fn final_counts(result: &RunResult) -> BTreeMap<String, i64> {
    let pid = result.consumer_pids[0];
    let cp = result
        .sim
        .process_ref::<ConsumerProcess>(pid)
        .expect("consumer");
    let monitored = cp.sink_as::<MonitoredSink>().expect("monitored sink");
    let sink = (monitored.inner() as &dyn Any)
        .downcast_ref::<CollectingSink>()
        .expect("collecting sink");
    let mut counts = BTreeMap::new();
    for (_, _, rec) in &sink.deliveries {
        let e = Event::from_bytes(&rec.value).expect("SPE output decodes");
        let word = e.key.clone().expect("keyed by word");
        let n = e.value.as_int().expect("count value");
        let entry = counts.entry(word).or_insert(0);
        *entry = (*entry).max(n);
    }
    counts
}

fn ground_truth() -> BTreeMap<String, i64> {
    let mut tally = BTreeMap::new();
    for w in word_stream(WORDS, SEED) {
        *tally.entry(w).or_insert(0) += 1;
    }
    tally
}

#[test]
fn baseline_counts_every_word() {
    let result = build(Some(CheckpointMode::ExactlyOnce), false)
        .run()
        .expect("runs");
    assert_eq!(final_counts(&result), ground_truth());
    let spe = &result.report.spe["wordcount"];
    assert!(spe.checkpoints.checkpoints > 0, "checkpoints were taken");
    assert!(spe.checkpoints.snapshot_bytes > 0, "snapshots have size");
    assert!(spe.recovery.is_none(), "no crash, no recovery report");
}

/// The worker is killed at 120 ms, while the broker holds its second fetch
/// (its fifth correlation id; words are 50 ms apart), and respawned 20 ms
/// later under the same process id. The next word answers the held fetch
/// over the worker's link, slowed from 2 to 100 ms for that moment, so the
/// answer lands after the respawn has drawn five ids too and holds a fetch
/// of the same partition under its fifth. Only the incarnation in the ids
/// tells the two apart: a kernel whose ids ignore it hands the old answer
/// to the new fetch, and a word is counted twice.
#[test]
fn an_exactly_once_worker_respawned_inside_a_fetch_wait_drops_the_stale_reply() {
    let mut sc = build(Some(CheckpointMode::ExactlyOnce), false);
    let worker_link = |ms| {
        let latency = SimDuration::from_millis(ms);
        FaultAction::SetLatency("h3".into(), "s1".into(), latency)
    };
    sc.faults(
        FaultPlan::new()
            .crash_restart(
                "wordcount",
                SimTime::from_millis(120),
                SimDuration::from_millis(20),
            )
            .at(SimTime::from_millis(150), worker_link(100))
            .at(SimTime::from_millis(170), worker_link(2)),
    );
    let result = sc.run().expect("runs");
    let spe = &result.report.spe["wordcount"];
    assert_eq!(spe.consumer_stats.stale_replies, 1, "counted, and dropped");
    assert_eq!(
        final_counts(&result),
        ground_truth(),
        "every word counted exactly once all the same"
    );
}

#[test]
fn exactly_once_recovery_matches_baseline() {
    let result = build(Some(CheckpointMode::ExactlyOnce), true)
        .run()
        .expect("runs");
    assert_eq!(
        final_counts(&result),
        ground_truth(),
        "exactly-once recovery must reproduce the no-fault output"
    );
    let spe = &result.report.spe["wordcount"];
    let rec = spe.recovery.expect("crash recorded");
    assert_eq!(rec.crashed_at, SimTime::from_millis(CRASH_AT_MS));
    assert_eq!(
        rec.restarted_at,
        Some(SimTime::from_millis(CRASH_AT_MS + DOWN_FOR_MS))
    );
    assert!(rec.restored_at.is_some(), "state was restored");
    assert!(rec.snapshot_bytes > 0, "a snapshot was loaded");
    let latency = rec
        .recovery_latency()
        .expect("worker processed after restart");
    assert!(latency > SimDuration::ZERO);
    assert!(
        latency < SimDuration::from_secs(5),
        "recovery latency {latency}"
    );
    // The recovering worker resumed from snapshot/committed offsets, never
    // from a high-watermark reset.
    assert_eq!(spe.consumer_stats.offset_resets, 0);
    assert!(
        spe.consumer_stats.resumed_partitions >= 1,
        "positions were seeded"
    );
    assert!(
        spe.checkpoints.checkpoints > 0,
        "post-restart checkpoints continue"
    );
}

#[test]
fn at_least_once_recovery_duplicates_are_bounded() {
    let result = build(Some(CheckpointMode::AtLeastOnce), true)
        .run()
        .expect("runs");
    let base = ground_truth();
    let alo = final_counts(&result);
    assert_eq!(
        alo.keys().collect::<Vec<_>>(),
        base.keys().collect::<Vec<_>>(),
        "no word lost"
    );
    let mut excess_total = 0;
    for (word, n) in &alo {
        let b = base[word];
        assert!(*n >= b, "word `{word}` lost occurrences: {n} < {b}");
        excess_total += n - b;
    }
    // Replay covers at most the records between the lagging commit and the
    // crash: two checkpoint intervals at one record per WORD_INTERVAL_MS,
    // plus slack for in-flight batches.
    let bound = (2 * CHECKPOINT_INTERVAL.as_millis() / WORD_INTERVAL_MS + 10) as i64;
    assert!(
        excess_total > 0,
        "crash between checkpoints must replay something"
    );
    assert!(
        excess_total <= bound,
        "duplicates {excess_total} exceed bound {bound}"
    );

    let spe = &result.report.spe["wordcount"];
    assert_eq!(
        spe.consumer_stats.offset_resets, 0,
        "resume came from committed offsets"
    );
    assert!(
        spe.consumer_stats.resumed_partitions >= 1,
        "broker offset fetch resumed positions"
    );
    assert!(spe.recovery.expect("crash recorded").restored_at.is_some());
}

#[test]
fn durable_backend_recovery_pays_restore_round_trip() {
    use stream2gym::store::{StoreConfig, StoreServer};
    let mut sc = build(None, true);
    sc.store("h6", StoreConfig::default());
    sc.with_durable_checkpointing(CheckpointCfg::exactly_once(CHECKPOINT_INTERVAL), "h6");
    let result = sc.run().expect("runs");
    assert_eq!(
        final_counts(&result),
        ground_truth(),
        "durable exactly-once recovery must reproduce the no-fault output"
    );
    let spe = &result.report.spe["wordcount"];
    let rec = spe.recovery.expect("crash recorded");
    // The durable backend restores via a store read round trip, so the
    // restore completes strictly after the restart.
    let restore = rec.restore_latency().expect("restored");
    assert!(
        restore > SimDuration::ZERO,
        "store round trip takes simulated time"
    );
    assert!(rec.snapshot_bytes > 0);
    assert_eq!(spe.consumer_stats.offset_resets, 0);
    // The snapshots live in the store: its manifest key points at them.
    let store = (result.sim).process_ref::<StoreServer>(result.store_pids["h6"]);
    assert!(store.expect("store").kv().get("ckpt/wordcount").is_some());
}

#[test]
fn durable_backend_retries_lost_store_rpcs() {
    use stream2gym::net::LinkSpec;
    use stream2gym::store::StoreConfig;
    // A 35%-lossy access link to the store host drops snapshot Puts, their
    // acks, and restore Gets; the worker's retry timer must re-issue them
    // until they land, and exactly-once recovery must still be exact.
    let mut sc = build(None, true);
    sc.store("h6", StoreConfig::default());
    sc.host_link(
        "h6",
        LinkSpec::new()
            .latency(SimDuration::from_millis(2))
            .loss_pct(35.0),
    );
    sc.with_durable_checkpointing(CheckpointCfg::exactly_once(CHECKPOINT_INTERVAL), "h6");
    let result = sc.run().expect("runs");
    assert_eq!(
        final_counts(&result),
        ground_truth(),
        "retried durable checkpointing must still recover exactly"
    );
    // The store host's link carries only checkpoint traffic, so observed
    // drops prove the retry path actually fired.
    assert!(
        result.report.sim_stats.messages_dropped > 0,
        "the lossy link must have dropped checkpoint RPCs"
    );
    let spe = &result.report.spe["wordcount"];
    assert!(
        spe.checkpoints.checkpoints > 0,
        "persists eventually succeed"
    );
    let rec = spe.recovery.expect("crash recorded");
    assert!(rec.restored_at.is_some(), "restore survives lost RPCs");
    assert!(rec.snapshot_bytes > 0);
}

const BROKER_CRASH_AT_MS: u64 = 3_700;
const BROKER_DOWN_FOR_MS: u64 = 1_500;

/// The broker-bounce scenario: exactly-once word count, broker 0 crashed
/// mid-run and restarted, with the chosen log-durability flavor.
fn build_broker_bounce(durable_store: bool, down_for_ms: u64) -> Scenario {
    use stream2gym::store::StoreConfig;
    let mut sc = build(Some(CheckpointMode::ExactlyOnce), false);
    if durable_store {
        sc.store("h6", StoreConfig::default());
        sc.with_durable_broker("h6");
    } else {
        sc.with_recoverable_broker();
    }
    sc.faults(FaultPlan::new().crash_restart_broker(
        0,
        SimTime::from_millis(BROKER_CRASH_AT_MS),
        SimDuration::from_millis(down_for_ms),
    ));
    sc
}

#[test]
fn exactly_once_survives_broker_bounce() {
    let result = build_broker_bounce(false, BROKER_DOWN_FOR_MS)
        .run()
        .expect("runs");
    assert_eq!(
        final_counts(&result),
        ground_truth(),
        "broker bounce with a recoverable log must not change the output"
    );
    let b = &result.report.brokers[0];
    let rec = b.recovery.expect("broker crash recorded");
    assert_eq!(rec.crashed_at, SimTime::from_millis(BROKER_CRASH_AT_MS));
    assert_eq!(
        rec.restarted_at,
        Some(SimTime::from_millis(
            BROKER_CRASH_AT_MS + BROKER_DOWN_FOR_MS
        ))
    );
    assert!(rec.recovered_at.is_some(), "log replay completed");
    assert!(rec.replayed_records > 0, "pre-crash records were replayed");
    let unavailability = rec.unavailability().expect("recovered");
    assert!(unavailability >= SimDuration::from_millis(BROKER_DOWN_FOR_MS));
    // The worker never crashed and never reset: it resumed against the
    // replayed log from its in-memory positions.
    let spe = &result.report.spe["wordcount"];
    assert_eq!(spe.consumer_stats.offset_resets, 0);
    // Producer retries rode out the downtime; dedup kept the log exact.
    assert_eq!(
        result.report.producers[0].stats.acked, WORDS as u64,
        "every word eventually acknowledged"
    );
}

#[test]
fn broker_bounce_past_session_timeout_recovers() {
    // Eight seconds of downtime exceeds the controller session timeout
    // (6 s): the broker is fenced, its partitions go offline (ISR keeps the
    // dead leader as the only eligible candidate), and re-registration
    // re-elects it. Output must still equal the baseline.
    let result = build_broker_bounce(false, 8_000).run().expect("runs");
    assert_eq!(final_counts(&result), ground_truth());
    let rec = result.report.brokers[0].recovery.expect("crash recorded");
    assert!(rec.recovered_at.is_some());
}

#[test]
fn durable_broker_bounce_pays_replay_round_trips() {
    let result = build_broker_bounce(true, BROKER_DOWN_FOR_MS)
        .run()
        .expect("runs");
    assert_eq!(
        final_counts(&result),
        ground_truth(),
        "store-backed durable broker log must preserve the output exactly"
    );
    let b = &result.report.brokers[0];
    assert!(b.stats.log_flushes > 0, "post-restart flushes continue");
    let rec = b.recovery.expect("broker crash recorded");
    // The durable backend replays via store read round trips, so recovery
    // completes strictly after the restart instant.
    let replay = rec.replay_latency().expect("replayed");
    assert!(replay > SimDuration::ZERO, "store round trips take time");
    assert!(rec.replayed_bytes > 0);
    assert!(rec.replayed_segments > 0);
    // Snapshot-style evidence the log really went through the store: the
    // words topic holds exactly the produced records, no loss and no dups.
    let broker = result
        .sim
        .process_ref::<stream2gym::broker::Broker>(result.broker_pids[0])
        .expect("broker");
    let words_log = broker
        .log(&stream2gym::proto::TopicPartition::new("words", 0))
        .expect("words log");
    assert_eq!(words_log.log_end().value(), WORDS as u64);
}

#[test]
fn broker_bounce_without_durability_loses_the_log() {
    // Same bounce, no log backend: the restarted broker comes back empty.
    // Records acknowledged before the crash are gone from the log, and the
    // final words log holds only what was produced (or retried) afterwards.
    let mut sc = build(Some(CheckpointMode::ExactlyOnce), false);
    sc.faults(FaultPlan::new().crash_restart_broker(
        0,
        SimTime::from_millis(BROKER_CRASH_AT_MS),
        SimDuration::from_millis(BROKER_DOWN_FOR_MS),
    ));
    let result = sc.run().expect("runs");
    let broker = result
        .sim
        .process_ref::<stream2gym::broker::Broker>(result.broker_pids[0])
        .expect("broker");
    let words_end = broker
        .log(&stream2gym::proto::TopicPartition::new("words", 0))
        .map(|l| l.log_end().value())
        .unwrap_or(0);
    assert!(
        words_end < WORDS as u64,
        "without a log backend the pre-crash suffix must be lost, got {words_end}"
    );
    let rec = result.report.brokers[0].recovery.expect("crash recorded");
    assert_eq!(rec.replayed_records, 0, "nothing to replay");
    assert!(
        rec.recovered_at.is_none(),
        "no replay phase without a backend"
    );
}

#[test]
fn exactly_once_recovery_with_incremental_checkpoints_matches_baseline() {
    // Same worker crash as `exactly_once_recovery_matches_baseline`, but
    // captures after the first base ship only dirty keys/windows. The
    // chained restore (base + deltas) must still reproduce the no-fault
    // output exactly.
    let mut sc = build(None, true);
    sc.with_checkpointing(CheckpointCfg::exactly_once(CHECKPOINT_INTERVAL).incremental(4));
    let result = sc.run().expect("runs");
    assert_eq!(
        final_counts(&result),
        ground_truth(),
        "incremental exactly-once recovery must reproduce the no-fault output"
    );
    let spe = &result.report.spe["wordcount"];
    assert!(
        spe.checkpoints.delta_checkpoints > 0,
        "deltas were persisted"
    );
    assert!(spe.checkpoints.full_checkpoints > 0, "a base exists");
    assert!(
        spe.checkpoints.delta_bytes / spe.checkpoints.delta_checkpoints
            < spe.checkpoints.last_full_bytes,
        "mean delta is smaller than a full snapshot"
    );
    let rec = spe.recovery.expect("crash recorded");
    assert!(rec.restored_at.is_some());
    assert!(rec.snapshot_bytes > 0);
    assert_eq!(spe.consumer_stats.offset_resets, 0);
}

#[test]
fn exactly_once_survives_crashes_with_compaction_and_incremental_enabled() {
    // The acceptance gate: both bounded-recovery features on, worker crash
    // AND broker bounce in one run, output still equals the baseline.
    let mut sc = build(None, false);
    sc.with_checkpointing(CheckpointCfg::exactly_once(CHECKPOINT_INTERVAL).incremental(4));
    sc.with_recoverable_broker();
    sc.with_log_compaction();
    sc.faults(
        FaultPlan::new()
            .crash_restart(
                "wordcount",
                SimTime::from_millis(CRASH_AT_MS),
                SimDuration::from_millis(DOWN_FOR_MS),
            )
            .crash_restart_broker(
                0,
                // After the 10 s cleaner pass, so the pre-crash broker has
                // compacted (and flushed) before dying.
                SimTime::from_millis(12_000),
                SimDuration::from_millis(1_200),
            ),
    );
    let result = sc.run().expect("runs");
    assert_eq!(
        final_counts(&result),
        ground_truth(),
        "compaction + incremental checkpoints must not change the output"
    );
    let spe = &result.report.spe["wordcount"];
    assert!(spe.checkpoints.delta_checkpoints > 0);
    let b = &result.report.brokers[0];
    let rec = b.recovery.expect("broker crash recorded");
    assert!(rec.recovered_at.is_some(), "broker replayed and resumed");
    // The pre-crash cleaner compacted the keyed counts topic and flushed
    // the cleaned manifest, so the restart replays live data only. (The
    // pre-crash incarnation's stats died with its process; the savings it
    // banked survive in the recovered meta blob.)
    assert!(
        rec.replay_saved_bytes > 0,
        "pre-crash cleaning reduced the replay bill"
    );
    assert!(
        rec.replayed_records < 2 * WORDS as u64,
        "replay is bounded by live data, got {}",
        rec.replayed_records
    );
}

#[test]
fn producer_stub_crash_restart_converges_without_loss_or_duplicates() {
    // Kill the producer stub itself (the open ROADMAP item): its buffered
    // records and source position die with the process. The respawn keeps
    // the same producer id and epoch and replays the source from record
    // zero; broker-side idempotent dedup acknowledges the already-appended
    // prefix without a second copy, so the pipeline output converges to the
    // no-fault baseline.
    let mut sc = build(Some(CheckpointMode::ExactlyOnce), false);
    sc.faults(FaultPlan::new().crash_restart(
        "producer-0",
        SimTime::from_millis(2_500),
        SimDuration::from_millis(1_000),
    ));
    let result = sc.run().expect("runs");
    assert_eq!(
        final_counts(&result),
        ground_truth(),
        "producer replay + broker dedup must converge to the baseline"
    );
    let p = &result.report.producers[0];
    let rec = p.recovery.expect("stub crash recorded");
    assert_eq!(rec.crashed_at, SimTime::from_millis(2_500));
    assert_eq!(rec.restarted_at, Some(SimTime::from_millis(3_500)));
    assert_eq!(
        p.stats.acked, WORDS as u64,
        "the respawned incarnation re-sent and had every word acknowledged"
    );
    // The broker filtered the replayed prefix instead of appending twice.
    let broker = result
        .sim
        .process_ref::<stream2gym::broker::Broker>(result.broker_pids[0])
        .expect("broker");
    assert!(broker.stats().duplicates_filtered > 0, "dedup engaged");
    let words_log = broker
        .log(&stream2gym::proto::TopicPartition::new("words", 0))
        .expect("words log");
    assert_eq!(
        words_log.log_end().value(),
        WORDS as u64,
        "no record lost, none duplicated"
    );
}

#[test]
fn consumer_stub_crash_restart_resumes_from_committed_offsets() {
    use stream2gym::broker::ConsumerConfig;
    // A grouped consumer stub with auto-commit is killed mid-run; the
    // respawn fetches the group's committed positions and resumes there.
    let mut sc = recovery_scenario(
        WORDS,
        SimDuration::from_millis(WORD_INTERVAL_MS),
        SimTime::from_secs(30),
        SEED,
    );
    sc.with_checkpointing(CheckpointCfg::exactly_once(CHECKPOINT_INTERVAL));
    // Replace the default consumer wiring by adding a grouped stub; the
    // scenario keeps both, and we crash the grouped one (index 1).
    sc.consumer(
        "h5",
        ConsumerConfig {
            group: Some("sink".into()),
            auto_commit_interval: SimDuration::from_millis(500),
            ..ConsumerConfig::default()
        },
        &["counts"],
    );
    sc.faults(FaultPlan::new().crash_restart(
        "consumer-1",
        SimTime::from_millis(4_000),
        SimDuration::from_millis(1_000),
    ));
    let result = sc.run().expect("runs");
    let c = &result.report.consumers[1];
    let rec = c.recovery.expect("stub crash recorded");
    assert_eq!(rec.restarted_at, Some(SimTime::from_millis(5_000)));
    assert!(
        c.stats.resumed_partitions >= 1,
        "respawn resumed from the group's committed offsets"
    );
    assert_eq!(
        c.stats.offset_resets, 0,
        "no high-watermark reset on the resume path"
    );
    // The un-crashed consumer still observed the full baseline output.
    assert_eq!(final_counts(&result), ground_truth());
}

#[test]
fn crash_without_checkpointing_replays_everything() {
    // Without checkpointing there are no committed offsets: the respawned
    // worker restarts from offset zero and re-processes the entire topic.
    // The counts eventually converge, but the downstream topic shows the
    // unbounded replay — far more duplicate emissions than the bounded
    // at-least-once window allows.
    let result = build(None, true).run().expect("runs");
    let emissions = result.monitor.borrow().delivery_count("counts") as usize;
    let alo_bound = (2 * CHECKPOINT_INTERVAL.as_millis() / WORD_INTERVAL_MS + 10) as usize;
    assert!(
        emissions > WORDS + alo_bound,
        "full replay must exceed the checkpointed duplicate bound: {emissions} emissions"
    );
    let rec = result.report.spe["wordcount"]
        .recovery
        .expect("crash recorded");
    assert_eq!(
        rec.snapshot_bytes, 0,
        "nothing to restore without checkpointing"
    );
    assert!(rec.restored_at.is_none());
    // Restart metrics are recorded even without checkpointing.
    assert_eq!(
        rec.restarted_at,
        Some(SimTime::from_millis(CRASH_AT_MS + DOWN_FOR_MS))
    );
    assert!(
        rec.recovery_latency().is_some(),
        "first post-restart batch is tracked"
    );
}
