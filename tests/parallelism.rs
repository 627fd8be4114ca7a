//! Partitioned parallel stream jobs: keyed shuffles, static key-group
//! ownership, exactly-once under instance crashes, and rescale-aware
//! restores.
//!
//! The acceptance gates:
//!
//! * a `parallelism(4)` job's merged output equals the sequential run's
//!   (keyed and windowed state);
//! * with transactional sinks, crashing one instance mid-epoch leaves the
//!   committed sink output equivalent to the fault-free parallel run —
//!   identical record-byte multiset and identical per-key update order
//!   (the global interleaving across four independent sink producers is a
//!   timing artifact, not a correctness property);
//! * a rescale N→M restart redistributes every key group: the final keyed
//!   state matches the fault-free run's exactly.

use std::collections::{BTreeMap, BTreeSet};

use stream2gym::apps::word_count::{running_count_plan, word_stream};
use stream2gym::broker::{Broker, CollectingSink, ConsumerProcess, TopicSpec};
use stream2gym::core::{MonitoredSink, RunResult, Scenario, SpeJobSpec, SpeSinkSpec};
use stream2gym::net::{FaultPlan, LinkSpec};
use stream2gym::proto::{Offset, TopicPartition};
use stream2gym::sim::{SimDuration, SimTime};
use stream2gym::spe::{CheckpointCfg, Event, Plan, SpeConfig, Value};

const WORDS: usize = 160;
const SEED: u64 = 77;

fn base_scenario(name: &str, parallelism: usize) -> Scenario {
    scenario_with(name, |job| match parallelism {
        1 => job,
        n => job.parallelism(n),
    })
}

/// The word-count scenario every test here runs, with its one job shaped
/// by `shape` (parallelism, rescale).
fn scenario_with(name: &str, shape: impl FnOnce(SpeJobSpec) -> SpeJobSpec) -> Scenario {
    let mut sc = Scenario::new(name);
    sc.seed(SEED)
        .duration(SimTime::from_secs(30))
        .default_link(LinkSpec::new().latency(SimDuration::from_millis(2)))
        .topic(TopicSpec::new("words").partitions(8))
        .topic(TopicSpec::new("counts"));
    sc.broker("h2");
    sc.producer(
        "h1",
        stream2gym::core::SourceSpec::Items {
            topic: "words".into(),
            items: word_stream(WORDS, SEED),
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
    let job = SpeJobSpec::new(
        "wc",
        vec!["words".into()],
        running_count_plan,
        SpeSinkSpec::Topic("counts".into()),
        cfg,
    );
    sc.spe_job("h3", shape(job));
    sc.consumer("h5", Default::default(), &["counts"]);
    sc
}

/// Every record value the consumer observed on the sink topic, in delivery
/// order.
fn sink_bytes(result: &RunResult) -> Vec<Vec<u8>> {
    let pid = result.consumer_pids[0];
    let cp = result
        .sim
        .process_ref::<ConsumerProcess>(pid)
        .expect("consumer");
    let monitored = cp.sink_as::<MonitoredSink>().expect("monitored sink");
    let sink = (monitored.inner() as &dyn std::any::Any)
        .downcast_ref::<CollectingSink>()
        .expect("collecting sink");
    sink.deliveries
        .iter()
        .map(|(_, _, rec)| rec.value.to_vec())
        .collect()
}

/// Highest count per word the consumer saw — the final keyed state.
fn final_counts(result: &RunResult) -> BTreeMap<String, i64> {
    let mut counts = BTreeMap::new();
    for value in sink_bytes(result) {
        let e = Event::from_bytes(&value).expect("SPE output decodes");
        let word = e.key.clone().expect("keyed by word");
        let n = e.value.as_int().expect("count value");
        let entry = counts.entry(word).or_insert(0);
        *entry = (*entry).max(n);
    }
    counts
}

/// Per-key sequences of emitted count values, preserving each key's update
/// order. Exactly-once shows as the gapless sequence `1, 2, ..., n` per
/// key: a duplicate would repeat a value, a loss would skip one.
fn per_key_count_sequences(bytes: &[Vec<u8>]) -> BTreeMap<String, Vec<i64>> {
    let mut map: BTreeMap<String, Vec<i64>> = BTreeMap::new();
    for b in bytes {
        let e = Event::from_bytes(b).expect("decodes");
        map.entry(e.key.unwrap_or_default())
            .or_default()
            .push(e.value.as_int().expect("count value"));
    }
    map
}

/// The multiset of `(key, event-time)` pairs on the sink — one entry per
/// counted input record (input times are unique), so equality across runs
/// means every record was counted exactly once. Cross-partition arrival
/// order is a timing artifact (keyless production to 8 partitions has no
/// global order), so this deliberately ignores delivery order.
fn counted_inputs(bytes: &[Vec<u8>]) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = bytes
        .iter()
        .map(|b| {
            let e = Event::from_bytes(b).expect("decodes");
            (e.key.unwrap_or_default(), e.ts.as_nanos())
        })
        .collect();
    v.sort();
    v
}

/// What exactly-once means against the same job's fault-free run.
fn assert_exactly_once(faulted: &RunResult, baseline: &RunResult, name: &str) {
    assert_eq!(final_counts(faulted), ground_truth(), "{name}");
    let (faulted, baseline) = (sink_bytes(faulted), sink_bytes(baseline));
    assert_eq!(
        counted_inputs(&faulted),
        counted_inputs(&baseline),
        "{name}: every input must be counted exactly once, fault or not"
    );
    assert_eq!(
        per_key_count_sequences(&faulted),
        per_key_count_sequences(&baseline),
        "{name}: per-key update order must survive the fault"
    );
}

fn ground_truth() -> BTreeMap<String, i64> {
    let mut tally = BTreeMap::new();
    for w in word_stream(WORDS, SEED) {
        *tally.entry(w).or_insert(0) += 1;
    }
    tally
}

#[test]
fn parallel_keyed_job_matches_sequential_output() {
    let sequential = base_scenario("wc-seq", 1).run().expect("runs");
    let parallel = base_scenario("wc-par", 4).run().expect("runs");
    assert_eq!(final_counts(&sequential), ground_truth());
    assert_eq!(
        final_counts(&parallel),
        final_counts(&sequential),
        "merged parallel output must equal the sequential run"
    );
    // Every input record counted exactly once, and per-key update order is
    // preserved through the keyed shuffle (each key's counts are gapless).
    assert_eq!(
        counted_inputs(&sink_bytes(&parallel)),
        counted_inputs(&sink_bytes(&sequential)),
    );
    assert_eq!(
        per_key_count_sequences(&sink_bytes(&parallel)),
        per_key_count_sequences(&sink_bytes(&sequential)),
    );
    // The work really was split: every last-stage instance processed some
    // records, and the report carries per-instance entries.
    let report = &parallel.report;
    let instances: Vec<&String> = report
        .spe_instances
        .keys()
        .filter(|k| k.starts_with("wc/1/"))
        .collect();
    assert_eq!(instances.len(), 4, "four keyed-stage instances reported");
    let busy = report
        .spe_instances
        .iter()
        .filter(|(k, r)| k.starts_with("wc/1/") && r.record_counts.0 > 0)
        .count();
    assert!(
        busy >= 3,
        "key groups spread across instances ({busy}/4 busy)"
    );
    // Aggregate counts match the stage totals.
    assert_eq!(
        report.spe["wc"].record_counts.0, WORDS as u64,
        "stage-0 aggregate input equals the corpus"
    );
}

#[test]
fn windowed_parallel_job_matches_sequential_output() {
    let build = |parallelism: usize| {
        let mut sc = Scenario::new("win");
        sc.seed(SEED)
            .duration(SimTime::from_secs(25))
            .topic(TopicSpec::new("words").partitions(8))
            .topic(TopicSpec::new("win-counts"));
        sc.broker("h2");
        sc.producer(
            "h1",
            stream2gym::core::SourceSpec::Items {
                topic: "words".into(),
                items: word_stream(WORDS, SEED),
                interval: SimDuration::from_millis(40),
            },
            Default::default(),
        );
        let mut job = SpeJobSpec::new(
            "win",
            vec!["words".into()],
            || {
                Plan::new()
                    .key_by("by-word", |e| e.value.as_str().unwrap_or("").to_string())
                    .window_count("w", SimDuration::from_secs(2))
            },
            SpeSinkSpec::Topic("win-counts".into()),
            SpeConfig {
                batch_interval: SimDuration::from_millis(250),
                ..SpeConfig::default()
            },
        );
        if parallelism > 1 {
            job = job.parallelism(parallelism);
        }
        sc.spe_job("h3", job);
        sc.consumer("h5", Default::default(), &["win-counts"]);
        sc.run().expect("runs")
    };
    let seq = build(1);
    let par = build(4);
    // Same windows, same per-window counts (order may interleave). A
    // window that a late record re-opens fires once more with a partial
    // count (the engine's watermark is the maximum timestamp seen), so a
    // window's count is the sum of its results.
    let collect = |r: &RunResult| -> BTreeMap<(String, u64), i64> {
        let mut m = BTreeMap::new();
        for b in sink_bytes(r) {
            let e = Event::from_bytes(&b).expect("decodes");
            *m.entry((e.key.clone().unwrap_or_default(), e.ts.as_nanos()))
                .or_default() += e.value.as_int().expect("a count");
        }
        m
    };
    let seq_windows = collect(&seq);
    assert!(!seq_windows.is_empty(), "windows fired");
    assert_eq!(collect(&par), seq_windows);
}

/// The exactly-once acceptance gate: `parallelism(4)` + transactional
/// sinks, one keyed-stage instance crashed mid-epoch — committed sink
/// output is equivalent to the fault-free parallel run (same record-byte
/// multiset, same per-key order), and the final state matches ground
/// truth.
#[test]
fn parallel_txn_sink_instance_crash_is_exactly_once() {
    let build = || {
        let mut sc = base_scenario("wc-par-txn", 4);
        sc.with_checkpointing(CheckpointCfg::exactly_once(SimDuration::from_secs(1)));
        sc.with_transactional_sinks();
        sc
    };
    let baseline = build().run().expect("baseline runs");
    let mut sc = build();
    sc.faults(FaultPlan::new().crash_restart(
        "wc/1/1",
        SimTime::from_millis(3_300),
        SimDuration::from_millis(800),
    ));
    let faulted = sc.run().expect("faulted runs");
    assert_exactly_once(&faulted, &baseline, "wc-par-txn");
    // The crashed instance restored from its chain.
    let rec = faulted.report.spe_instances["wc/1/1"]
        .recovery
        .expect("instance crash recorded");
    assert!(rec.restored_at.is_some(), "state restored");
    // The aggregate report surfaces the same recovery.
    let agg = faulted.report.spe["wc"].recovery.expect("aggregated");
    assert_eq!(agg.crashed_at, rec.crashed_at);
}

/// The rescale acceptance gate: run at 4, crash the whole job, restart at
/// 2 — every key group is redistributed and restored, so the final keyed
/// state equals the fault-free run's.
#[test]
fn rescale_4_to_2_restores_all_key_groups() {
    // Cross-stage exactly-once needs the transactional shuffle: a crashed
    // epoch's uncommitted re-emissions are aborted, so the keyed stage
    // (reading committed) never double-counts the replay — the Kafka
    // Streams EOS discipline.
    let baseline = {
        let mut sc = base_scenario("wc-rescale-base", 4);
        sc.with_checkpointing(CheckpointCfg::exactly_once(SimDuration::from_millis(500)));
        sc.with_transactional_sinks();
        sc.run().expect("baseline runs")
    };
    let mut sc2 = scenario_with("wc-rescale", |job| job.parallelism(4).rescale_on_restart(2));
    sc2.with_checkpointing(CheckpointCfg::exactly_once(SimDuration::from_millis(500)));
    sc2.with_transactional_sinks();
    sc2.faults(FaultPlan::new().crash_restart(
        "wc",
        SimTime::from_millis(3_600),
        SimDuration::from_millis(800),
    ));
    let rescaled = sc2.run().expect("rescaled runs");
    assert_eq!(
        final_counts(&rescaled),
        final_counts(&baseline),
        "rescaled final keyed state must equal the fault-free run"
    );
    assert_eq!(final_counts(&rescaled), ground_truth());
    // The job really runs at 2 after the restart: instances 2/3 of the
    // keyed stage died with the crash and never came back.
    let r = &rescaled.report;
    assert!(r.spe_instances.contains_key("wc/1/3"));
    let shrunk = &r.spe_instances["wc/1/3"];
    assert!(
        shrunk
            .recovery
            .is_some_and(|rec| rec.restarted_at.is_none()),
        "instance 3 crashed and was not part of the rescaled layout"
    );
    let survivor = &r.spe_instances["wc/1/0"];
    assert!(
        survivor
            .recovery
            .is_some_and(|rec| rec.restored_at.is_some()),
        "instance 0 restored merged key groups"
    );
}

/// What no other test combines: `parallelism(4)`, *incremental*
/// exactly-once checkpoints, transactional sinks, and a worker fault after
/// deltas are chained — every restore reads four chains of several
/// captures each through the one restore path. Three variants: one
/// instance bounced (in-memory and durable backends) and a whole-job 4→2
/// rescale. The sink must equal the fault-free run's, and the restore
/// must have replayed deltas (`delta_chain_len`), so none can pass on a
/// base-only chain.
#[test]
fn parallel_incremental_crash_and_rescale_are_exactly_once() {
    use stream2gym::store::StoreConfig;

    let cfg = CheckpointCfg::exactly_once(SimDuration::from_millis(500));
    let build = |name: &str, durable: bool, rescale: Option<usize>| {
        let mut sc = scenario_with(name, |job| match rescale {
            Some(m) => job.parallelism(4).rescale_on_restart(m),
            None => job.parallelism(4),
        });
        if durable {
            sc.store("h6", StoreConfig::default());
            sc.with_durable_checkpointing(cfg.incremental(4), "h6");
        } else {
            sc.with_checkpointing(cfg.incremental(4));
        }
        sc.with_transactional_sinks();
        sc
    };
    let baseline = build("wc-inc-base", false, None)
        .run()
        .expect("baseline runs");
    let bounce = |target: &str| {
        FaultPlan::new().crash_restart(
            target,
            SimTime::from_millis(2_400),
            SimDuration::from_millis(800),
        )
    };
    for (name, durable, rescale, target) in [
        ("wc-inc-crash", false, None, "wc/1/1"),
        ("wc-inc-durable", true, None, "wc/1/1"),
        ("wc-inc-rescale", false, Some(2), "wc"),
    ] {
        let mut sc = build(name, durable, rescale);
        sc.faults(bounce(target));
        let faulted = sc.run().expect("faulted runs");
        assert_exactly_once(&faulted, &baseline, name);
        let instance = if rescale.is_some() { "wc/1/0" } else { target };
        let rec = faulted.report.spe_instances[instance]
            .recovery
            .expect("fault recorded");
        assert!(rec.restored_at.is_some(), "{name}: state restored");
        assert!(
            rec.delta_chain_len >= 2,
            "{name}: the restore must replay chained deltas, got {}",
            rec.delta_chain_len
        );
    }
}

/// A keyed stage purges its shuffle input below what it committed after a
/// durable checkpoint, on every replica of a 3-broker, RF 3 cluster, and a
/// restore never reads below that. Three faults after purges happened: an
/// exactly-once keyed instance bounced, the exactly-once job rescaled 4 → 2,
/// and an at-least-once keyed instance bounced. The exactly-once sinks must
/// equal the fault-free run's; the at-least-once one may repeat a record
/// but must count every one.
#[test]
fn a_shuffle_purge_keeps_exactly_once_and_loses_nothing() {
    let at = SimTime::from_millis(2_400);
    let build = |name: &str, exactly_once: bool, rescale: Option<usize>, until: SimTime| {
        let mut sc = scenario_with(name, |job| match rescale {
            Some(m) => job.parallelism(4).rescale_on_restart(m),
            None => job.parallelism(4),
        });
        sc.duration(until);
        sc.broker("h7").broker("h8").with_replicated_partitions(3);
        // The keyed instances sit 60 ms from everything else, so a commit is
        // acknowledged 120 ms after its capture: by then the stage before
        // has committed its next records and they have arrived, and a purge
        // to the fetch position, not the commit, would drop them.
        for i in 0..4 {
            sc.host_link(&format!("h3-1-{i}"), LinkSpec::new().latency_ms(60));
        }
        let interval = SimDuration::from_millis(500);
        if exactly_once {
            sc.with_checkpointing(CheckpointCfg::exactly_once(interval).incremental(4));
            sc.with_transactional_sinks();
        } else {
            sc.with_checkpointing(CheckpointCfg::at_least_once(interval).incremental(4));
        }
        sc
    };
    let end = SimTime::from_secs(30);
    let baseline = |eo| build("wc-purge-base", eo, None, end).run().expect("runs");
    let (eo_baseline, alo_baseline) = (baseline(true), baseline(false));
    for (name, exactly_once, rescale, target) in [
        ("wc-purge-crash", true, None, "wc/1/1"),
        ("wc-purge-rescale", true, Some(2), "wc"),
        ("wc-purge-alo", false, None, "wc/1/1"),
    ] {
        // The run up to the fault: every replica of every shuffle partition
        // that received records has purged a prefix.
        let before = build(name, exactly_once, rescale, at).run().expect("runs");
        let mut purged = 0;
        for pid in &before.broker_pids {
            let broker = before.sim.process_ref::<Broker>(*pid).expect("live");
            for partition in 0..16 {
                let tp = TopicPartition::new("__shuffle.wc.1", partition);
                let log = broker.log(&tp).expect("every broker holds a replica");
                if log.log_end() > Offset::ZERO {
                    assert!(log.log_start() > Offset::ZERO, "{name}: {tp} on {pid:?}");
                    purged += 1;
                }
            }
        }
        assert!(purged >= 3 * 4, "{name}: {purged} purged replicas");
        let mut sc = build(name, exactly_once, rescale, end);
        sc.faults(FaultPlan::new().crash_restart(target, at, SimDuration::from_millis(800)));
        let faulted = sc.run().expect("faulted runs");
        if exactly_once {
            assert_exactly_once(&faulted, &eo_baseline, name);
        } else {
            // A replayed record counts twice, a lost one never: every key's
            // final count reaches its truth, every input shows up.
            let truth = ground_truth();
            let counts = final_counts(&faulted);
            assert!(
                truth.iter().all(|(k, n)| counts[k] >= *n),
                "{name}: {counts:?}"
            );
            let seen: BTreeSet<_> = counted_inputs(&sink_bytes(&faulted)).into_iter().collect();
            let want = counted_inputs(&sink_bytes(&alo_baseline));
            assert!(
                want.iter().all(|i| seen.contains(i)),
                "{name}: an input lost"
            );
        }
    }
}

/// Commits need not wait for one another's answer: with checkpoints every
/// 50 ms and the keyed instances 100 ms from the broker, each commit is
/// answered after the next ones were sent, and each answer still purges
/// the shuffle topic to its own commit's offsets.
#[test]
fn a_shuffle_is_purged_when_commits_outpace_their_answers() {
    let mut sc = scenario_with("wc-purge-fast", |job| job.parallelism(4));
    sc.duration(SimTime::from_secs(4));
    for i in 0..4 {
        sc.host_link(&format!("h3-1-{i}"), LinkSpec::new().latency_ms(100));
    }
    sc.with_checkpointing(CheckpointCfg::at_least_once(SimDuration::from_millis(50)));
    let result = sc.run().expect("runs");
    let broker = result.sim.process_ref::<Broker>(result.broker_pids[0]);
    let broker = broker.expect("live");
    let mut fed = 0;
    for partition in 0..16 {
        let tp = TopicPartition::new("__shuffle.wc.1", partition);
        let log = broker.log(&tp).expect("one broker holds them all");
        if log.log_end() > Offset::ZERO {
            assert!(log.log_start() > Offset::ZERO, "{tp} was never purged");
            fed += 1;
        }
    }
    assert!(fed >= 4, "{fed} shuffle partitions received records");
}

/// One instance recovers alone, on a store, while its sibling keeps
/// re-basing. It reads the sibling's chain too (keys may have moved), and
/// that chain is pruned under it: the read of the blobs the sibling's
/// manifest named is lost once and repeated after the sibling superseded
/// and deleted them. The instance owns none of those keys, so it must come
/// back with every key group it does own and the output of a run without
/// faults.
#[test]
fn lone_instance_recovery_survives_its_siblings_chain_pruned_under_it() {
    use stream2gym::store::{StoreConfig, BLOB_RETRY_INTERVAL};

    let build = |name: &str| {
        let mut sc = scenario_with(name, |job| job.parallelism(2));
        sc.store("h6", StoreConfig::default());
        // A 44 ms round trip to the store: room to lose exactly one read.
        sc.host_link("h6", LinkSpec::new().latency_ms(20));
        let cfg = CheckpointCfg::exactly_once(SimDuration::from_millis(500));
        sc.with_durable_checkpointing(cfg.incremental(2), "h6");
        sc.with_transactional_sinks();
        sc
    };
    let baseline = build("wc-sibling-base").run().expect("baseline runs");
    // `wc/1/0` restarts at 2.6 s, reads its own chain, then `wc/1/1`'s
    // manifest, and at 2.732 s asks for the blobs that names (a base of
    // 2.0 s and a delta of 2.5 s). The store is unreachable just then.
    let mut sc = build("wc-sibling-pruned");
    let ms = SimTime::from_millis;
    sc.faults(
        FaultPlan::new()
            .crash_restart("wc/1/0", ms(2_400), SimDuration::from_millis(200))
            .transient_disconnect("h6", ms(2_720), SimDuration::from_millis(30)),
    );
    let faulted = sc.run().expect("faulted runs");
    let rec = faulted.report.spe_instances["wc/1/0"]
        .recovery
        .expect("crash recorded");
    let (restarted, restored) = (rec.restarted_at.unwrap(), rec.restored_at.unwrap());
    // The read was repeated a retry interval later, after the sibling
    // re-based at 3.5 s: the restore holds nothing of the sibling's, whose
    // every capture since 2.5 s is newer than the crash.
    assert!(restored.saturating_since(restarted) >= BLOB_RETRY_INTERVAL);
    assert!(rec.snapshot_taken_at.unwrap() < rec.crashed_at);
    assert_exactly_once(&faulted, &baseline, "wc-sibling-pruned");
}

/// Parallelism 1 is a point on the axis, not a second program: the classic
/// one-worker layout and the stage machinery at one instance (a
/// single-stage plan, `rescale_on_restart(1)` being what opts a
/// parallelism-1 job into it) restore through the same path, so under the
/// same crash plan they produce the same sink bytes, the same checkpoint
/// counters — the restored chain is continued, not re-based, in both — and
/// read the same chain back. Only the worker's name differs (`p1` vs
/// `p1/0/0`), so each report is looked up under its own.
#[test]
fn parallelism_one_equals_the_non_parallel_job() {
    let run = |staged: bool| {
        let mut sc = scenario_with(if staged { "p1-staged" } else { "p1-classic" }, |job| {
            // Keyed state without a `KeyBy`, so the plan is one stage and
            // both layouts run it in one worker.
            let plan = || {
                let key = |mut e: Event| {
                    e.key = e.value.as_str().map(str::to_string);
                    e
                };
                let count = |state: &mut Value, e: &Event| {
                    let n = state.as_int().unwrap_or(0) + 1;
                    *state = Value::Int(n);
                    vec![Event {
                        value: Value::Int(n),
                        ..e.clone()
                    }]
                };
                Plan::new()
                    .map("key", key)
                    .stateful("count", Value::Int(0), count)
                    .window_count("w", SimDuration::from_secs(2))
            };
            let job = SpeJobSpec::new("p1", job.sources, plan, job.sink, job.cfg);
            if staged {
                job.parallelism(1).rescale_on_restart(1)
            } else {
                job
            }
        });
        let cfg = CheckpointCfg::exactly_once(SimDuration::from_millis(500));
        sc.with_checkpointing(cfg.incremental(4));
        sc.with_transactional_sinks();
        sc.faults(FaultPlan::new().crash_restart(
            "p1",
            SimTime::from_millis(2_400),
            SimDuration::from_millis(800),
        ));
        sc.run().expect("runs")
    };
    let (classic, staged) = (run(false), run(true));
    assert!(!sink_bytes(&classic).is_empty(), "windows fired");
    assert_eq!(sink_bytes(&staged), sink_bytes(&classic));
    let (c, s) = (
        &classic.report.spe["p1"],
        &staged.report.spe_instances["p1/0/0"],
    );
    assert_eq!(s.checkpoints, c.checkpoints);
    assert!(
        c.checkpoints.delta_checkpoints >= 4,
        "deltas before and after"
    );
    let (c, s) = (c.recovery.expect("crashed"), s.recovery.expect("crashed"));
    assert!(c.delta_chain_len >= 2, "the restore replayed deltas");
    assert_eq!(
        (s.snapshot_bytes, s.delta_chain_len),
        (c.snapshot_bytes, c.delta_chain_len)
    );
}

/// The ported word-count app at `parallelism(4)` produces exactly the
/// sequential run's output.
#[test]
fn word_count_app_parallel_matches_sequential() {
    use stream2gym::apps::word_count::parallel_recovery_scenario;
    let seq = parallel_recovery_scenario(
        120,
        SimDuration::from_millis(40),
        SimTime::from_secs(25),
        11,
        1,
    )
    .run()
    .expect("sequential runs");
    let par = parallel_recovery_scenario(
        120,
        SimDuration::from_millis(40),
        SimTime::from_secs(25),
        11,
        4,
    )
    .run()
    .expect("parallel runs");
    assert_eq!(final_counts(&par), final_counts(&seq));
    assert_eq!(
        counted_inputs(&sink_bytes(&par)),
        counted_inputs(&sink_bytes(&seq)),
    );
    assert_eq!(
        per_key_count_sequences(&sink_bytes(&par)),
        per_key_count_sequences(&sink_bytes(&seq)),
    );
}

/// The ported fraud app at `parallelism(4)` flags exactly the transactions
/// the sequential run flags.
#[test]
fn fraud_app_parallel_matches_sequential() {
    use stream2gym::apps::fraud::parallel_scenario;
    let seq = parallel_scenario(300, 800, SimTime::from_secs(25), 5, 1)
        .run()
        .expect("sequential runs");
    let par = parallel_scenario(300, 800, SimTime::from_secs(25), 5, 4)
        .run()
        .expect("parallel runs");
    let alerts = |r: &RunResult| -> Vec<Vec<u8>> {
        let mut v = sink_bytes(r);
        v.sort();
        v
    };
    let seq_alerts = alerts(&seq);
    assert!(!seq_alerts.is_empty(), "some transactions are flagged");
    assert_eq!(alerts(&par), seq_alerts);
    // The scoring work really spread across the four instances.
    let busy = par
        .report
        .spe_instances
        .values()
        .filter(|r| r.record_counts.0 > 0)
        .count();
    assert!(
        busy >= 3,
        "instances split the source partitions ({busy}/4)"
    );
}

/// Rescale in the growing direction: run at 2, restart at 4 — state
/// spreads out instead of merging, with the same final result.
#[test]
fn rescale_2_to_4_redistributes_state() {
    let mut sc = Scenario::new("wc-grow");
    sc.seed(SEED)
        .duration(SimTime::from_secs(30))
        .topic(TopicSpec::new("words").partitions(8))
        .topic(TopicSpec::new("counts"));
    sc.broker("h2");
    sc.producer(
        "h1",
        stream2gym::core::SourceSpec::Items {
            topic: "words".into(),
            items: word_stream(WORDS, SEED),
            interval: SimDuration::from_millis(40),
        },
        Default::default(),
    );
    sc.spe_job(
        "h3",
        SpeJobSpec::new(
            "wc",
            vec!["words".into()],
            running_count_plan,
            SpeSinkSpec::Topic("counts".into()),
            SpeConfig {
                batch_interval: SimDuration::from_millis(250),
                ..SpeConfig::default()
            },
        )
        .parallelism(2)
        .rescale_on_restart(4),
    );
    sc.consumer("h5", Default::default(), &["counts"]);
    sc.with_checkpointing(CheckpointCfg::exactly_once(SimDuration::from_millis(500)));
    sc.with_transactional_sinks();
    sc.faults(FaultPlan::new().crash_restart(
        "wc",
        SimTime::from_millis(3_600),
        SimDuration::from_millis(800),
    ));
    let grown = sc.run().expect("runs");
    assert_eq!(final_counts(&grown), ground_truth());
    // Instances 2 and 3 of the keyed stage exist only after the restart.
    assert!(grown.report.spe_instances.contains_key("wc/1/2"));
    assert!(grown.report.spe_instances.contains_key("wc/1/3"));
}

/// Operator-level rescale property: for each stateful operator kind
/// (keyed map, windowed aggregate, windowed join), run a keyed stream
/// split across N operator instances, snapshot them mid-stream, merge the
/// snapshots into M fresh instances under the new key-group ownership,
/// finish the stream — and the union of outputs equals the single-instance
/// run's, for several (N, M) pairs.
#[test]
fn operator_state_rescales_exactly() {
    use stream2gym::proto::{key_group, owner_of_group};
    use stream2gym::spe::{Operator, StatefulMap, WindowAggregate, WindowAssigner, WindowJoin};

    const GROUPS: u32 = 16;
    let owner = |key: &str, par: u32| -> u32 {
        owner_of_group(key_group(key.as_bytes(), GROUPS), par, GROUPS)
    };
    // A keyed two-source stream with event times marching forward.
    let events: Vec<Event> = (0..120)
        .map(|i| {
            let mut e = Event::new(
                Value::Int(i),
                stream2gym::sim::SimTime::from_millis(100 * i as u64),
            )
            .with_key(format!("k{}", i % 10));
            e.source = (i % 2) as u8;
            e
        })
        .collect();
    let (head, tail) = events.split_at(70);

    // Output normalization: sort by (key, ts, value debug).
    let norm = |mut out: Vec<Event>| -> Vec<String> {
        out.sort_by_key(|e| {
            (
                e.key.clone().unwrap_or_default(),
                e.ts.as_nanos(),
                format!("{:?}", e.value),
            )
        });
        out.iter()
            .map(|e| format!("{:?}|{:?}|{}", e.key, e.value, e.ts))
            .collect()
    };

    #[allow(clippy::type_complexity)]
    let make_ops: Vec<(&str, Box<dyn Fn() -> Box<dyn Operator>>)> = vec![
        (
            "stateful-map",
            Box::new(|| {
                Box::new(StatefulMap::new("count", Value::Int(0), |state, e| {
                    let n = state.as_int().unwrap_or(0) + 1;
                    *state = Value::Int(n);
                    vec![Event {
                        value: Value::Int(n),
                        ..e.clone()
                    }]
                }))
            }),
        ),
        (
            "window-aggregate",
            Box::new(|| {
                Box::new(WindowAggregate::count(
                    "wc",
                    WindowAssigner::Tumbling(SimDuration::from_secs(3)),
                ))
            }),
        ),
        (
            "window-join",
            Box::new(|| {
                Box::new(WindowJoin::new(
                    "j",
                    WindowAssigner::Tumbling(SimDuration::from_secs(3)),
                    |l, r| Value::List(vec![l.value.clone(), r.value.clone()]),
                ))
            }),
        ),
    ];

    for (kind, make) in &make_ops {
        // Ground truth: one instance sees everything.
        let mut truth_op = make();
        let mut truth = truth_op.process(SimTime::ZERO, events.clone());
        truth.extend(truth_op.flush(SimTime::ZERO));
        let truth = norm(truth);

        for (n, m) in [(4usize, 2usize), (2, 4), (3, 3), (1, 4)] {
            // Phase 1: N instances process the head, split by ownership.
            let mut olds: Vec<Box<dyn Operator>> = (0..n).map(|_| make()).collect();
            let mut out: Vec<Event> = Vec::new();
            for (i, op) in olds.iter_mut().enumerate() {
                let share: Vec<Event> = head
                    .iter()
                    .filter(|e| owner(e.key.as_deref().unwrap(), n as u32) == i as u32)
                    .cloned()
                    .collect();
                out.extend(op.process(SimTime::ZERO, share));
            }
            let snapshots: Vec<Option<Value>> = olds.iter().map(|op| op.snapshot_state()).collect();
            // Phase 2: M fresh instances merge the snapshots under the new
            // ownership and process the tail.
            let mut news: Vec<Box<dyn Operator>> = (0..m).map(|_| make()).collect();
            for (j, op) in news.iter_mut().enumerate() {
                let keep = |k: &str| owner(k, m as u32) == j as u32;
                for snap in snapshots.iter().flatten() {
                    op.restore(&[snap], &keep);
                }
            }
            for (j, op) in news.iter_mut().enumerate() {
                let share: Vec<Event> = tail
                    .iter()
                    .filter(|e| owner(e.key.as_deref().unwrap(), m as u32) == j as u32)
                    .cloned()
                    .collect();
                out.extend(op.process(SimTime::ZERO, share));
                out.extend(op.flush(SimTime::ZERO));
            }
            assert_eq!(
                norm(out),
                truth,
                "{kind}: rescale {n}→{m} must preserve every key group"
            );
        }
    }
}

/// A rescale merge must take the *min* watermark across the merged chains:
/// the max would fire windows restored from a less-advanced old instance
/// with only their checkpointed partial contents, and the replayed
/// remainder would then fire a re-created window a second time.
#[test]
fn merged_restore_watermark_is_min_across_chains() {
    use stream2gym::spe::{Operator, WindowAggregate, WindowAssigner};

    let width = SimDuration::from_secs(6);
    let ev =
        |key: &str, secs: u64| Event::new(Value::Int(1), SimTime::from_secs(secs)).with_key(key);
    // Old instance 0 owns key `a` and is far ahead (watermark 20s); old
    // instance 1 owns key `b` and is behind (watermark 3s) with an open
    // [0s, 6s) window of three events.
    let mut fast = WindowAggregate::count("wc", WindowAssigner::Tumbling(width));
    fast.process(SimTime::ZERO, vec![ev("a", 1), ev("a", 2), ev("a", 20)]);
    let mut slow = WindowAggregate::count("wc", WindowAssigner::Tumbling(width));
    slow.process(SimTime::ZERO, vec![ev("b", 1), ev("b", 2), ev("b", 3)]);

    // Rescale 2→1: one new instance adopts both chains.
    let mut merged = WindowAggregate::count("wc", WindowAssigner::Tumbling(width));
    let keep = |_: &str| true;
    merged.restore(&[&fast.snapshot_state().expect("state")], &keep);
    merged.restore(&[&slow.snapshot_state().expect("state")], &keep);

    // An input-less batch tick before `b`'s events replay: a max-merged
    // watermark (20s) would fire `b`'s restored window here, partial.
    let early = merged.process(SimTime::from_secs(20), Vec::new());
    assert!(
        early.is_empty(),
        "no window may fire before b's replay: {early:?}"
    );
    // With the min merge, the replayed events join the restored window and
    // it fires exactly once, complete.
    let mut out = merged.process(SimTime::from_secs(21), vec![ev("b", 4), ev("b", 5)]);
    out.extend(merged.flush(SimTime::from_secs(22)));
    let b_fires: Vec<i64> = out
        .iter()
        .filter(|e| e.key.as_deref() == Some("b"))
        .map(|e| e.value.as_int().expect("count"))
        .collect();
    assert_eq!(b_fires, vec![5], "b's window fires once, with every event");
}

/// A job-level rescale restart must bounce still-*alive* instances into
/// the new layout too: crash only one instance, then restart the whole
/// job with `rescale_on_restart(2)`. Survivors left at the old
/// parallelism would keep key-group ownership overlapping the new
/// layout's (duplicates) while orphaning the groups in between (loss).
#[test]
fn rescale_restart_after_partial_crash_rewires_survivors() {
    use stream2gym::net::FaultAction;

    let baseline = {
        let mut sc = base_scenario("wc-partial-base", 4);
        sc.with_checkpointing(CheckpointCfg::exactly_once(SimDuration::from_millis(500)));
        sc.with_transactional_sinks();
        sc.run().expect("baseline runs")
    };
    let mut sc2 = Scenario::new("wc-partial-rescale");
    sc2.seed(SEED)
        .duration(SimTime::from_secs(30))
        .default_link(LinkSpec::new().latency(SimDuration::from_millis(2)))
        .topic(TopicSpec::new("words").partitions(8))
        .topic(TopicSpec::new("counts"));
    sc2.broker("h2");
    sc2.producer(
        "h1",
        stream2gym::core::SourceSpec::Items {
            topic: "words".into(),
            items: word_stream(WORDS, SEED),
            interval: SimDuration::from_millis(40),
        },
        Default::default(),
    );
    sc2.spe_job(
        "h3",
        SpeJobSpec::new(
            "wc",
            vec!["words".into()],
            running_count_plan,
            SpeSinkSpec::Topic("counts".into()),
            SpeConfig {
                batch_interval: SimDuration::from_millis(250),
                scheduling_overhead: SimDuration::from_millis(20),
                startup_cpu: SimDuration::from_millis(200),
                ..SpeConfig::default()
            },
        )
        .parallelism(4)
        .rescale_on_restart(2),
    );
    sc2.consumer("h5", Default::default(), &["counts"]);
    sc2.with_checkpointing(CheckpointCfg::exactly_once(SimDuration::from_millis(500)));
    sc2.with_transactional_sinks();
    sc2.faults(
        FaultPlan::new()
            .crash_process("wc/1/1", SimTime::from_millis(3_000))
            .at(
                SimTime::from_millis(3_800),
                FaultAction::RestartProcess("wc".into()),
            ),
    );
    let rescaled = sc2.run().expect("rescaled runs");
    assert_eq!(
        final_counts(&rescaled),
        final_counts(&baseline),
        "partial-crash rescale must neither duplicate nor orphan key groups"
    );
    assert_eq!(final_counts(&rescaled), ground_truth());
    // The whole job really moved to the new layout: survivors of stage 1
    // beyond the shrunk parallelism were retired at the restart.
    let r = &rescaled.report;
    assert!(
        r.spe_instances["wc/1/3"]
            .recovery
            .is_some_and(|rec| rec.restarted_at.is_none()),
        "instance 3 was retired by the shrink"
    );
    assert!(
        r.spe_instances["wc/1/0"]
            .recovery
            .is_some_and(|rec| rec.restored_at.is_some()),
        "the surviving instance 0 was bounced into the rescaled layout"
    );
}
