//! Multi-broker chaos: a rolling bounce of every broker in a replicated
//! cluster under sustained parallel keyed traffic with transactional
//! sinks, plus the zombie-leader fencing regression.
//!
//! The acceptance gates:
//!
//! * with `with_replicated_partitions(3)` + `acks=all`, bouncing brokers
//!   0, 1, 2 in sequence mid-run leaves the committed sink output
//!   equivalent to the fault-free run — every input counted exactly once
//!   (identical `(key, event-time)` multiset) with identical per-key
//!   update order (end-to-end exactly-once across three leader
//!   elections);
//! * a delayed produce stamped with a deposed leader's epoch bounces off
//!   the new leader with `StaleEpoch` instead of being appended (the
//!   zombie-leader fence).

use std::collections::BTreeMap;

use stream2gym::apps::word_count::{running_count_plan, word_stream};
use stream2gym::broker::{
    Broker, BrokerConfig, CollectingSink, ConsumerProcess, ControllerConfig, CoordinationMode,
    ProducerConfig, TopicSpec, ZkController,
};
use stream2gym::core::{MonitoredSink, RunResult, Scenario, SourceSpec, SpeJobSpec, SpeSinkSpec};
use stream2gym::net::{FaultPlan, LinkSpec, NetTransport, Network, Topology};
use stream2gym::proto::{
    AckMode, BrokerId, ClientRpc, CorrelationId, ErrorCode, LeaderEpoch, Record, RecordBatch,
    TopicPartition,
};
use stream2gym::sim::{downcast, Ctx, Message, Process, ProcessId, Sim, SimDuration, SimTime};
use stream2gym::spe::{CheckpointCfg, Event, SpeConfig};

const WORDS: usize = 560;
const SEED: u64 = 41;

/// Failure detection tight enough that a 3 s outage reliably triggers an
/// election well inside the bounce window (the 6 s default session
/// timeout would sit out the whole outage), a replica-fetch interval
/// short enough that `acks=all` keeps up with the source rate, and a
/// replica lag bound short enough that surviving leaders shrink their ISR
/// during the outage instead of waiting out the 10 s default.
fn tuned_broker_cfg() -> BrokerConfig {
    BrokerConfig {
        heartbeat_interval: SimDuration::from_millis(300),
        session_timeout: SimDuration::from_secs(1),
        replica_fetch_interval: SimDuration::from_millis(10),
        replica_lag_max: SimDuration::from_secs(1),
        ..BrokerConfig::default()
    }
}

/// Three brokers, RF=3 at `acks=all`, a keyed word count at `parallelism`
/// with checkpoint-aligned transactional sinks, and a read-committed
/// consumer. The word stream spans ~28 s — the whole bounce schedule.
fn build(name: &str, parallelism: usize) -> Scenario {
    let mut sc = Scenario::new(name);
    sc.seed(SEED)
        .duration(SimTime::from_secs(45))
        .default_link(LinkSpec::new().latency(SimDuration::from_millis(2)))
        .topic(TopicSpec::new("words").partitions(4))
        .topic(TopicSpec::new("counts"));
    for h in ["h1", "h2", "h3"] {
        sc.broker_with(h, tuned_broker_cfg());
    }
    sc.controller_config(ControllerConfig {
        session_timeout: SimDuration::from_secs(1),
        session_check_interval: SimDuration::from_millis(250),
        ..ControllerConfig::default()
    });
    sc.with_replicated_partitions(3);
    sc.with_acks(AckMode::All);
    sc.producer(
        "hp",
        SourceSpec::Items {
            topic: "words".into(),
            items: word_stream(WORDS, SEED),
            interval: SimDuration::from_millis(50),
        },
        ProducerConfig {
            request_timeout: SimDuration::from_millis(500),
            ..ProducerConfig::default()
        },
    );
    let cfg = SpeConfig {
        batch_interval: SimDuration::from_millis(250),
        scheduling_overhead: SimDuration::from_millis(20),
        startup_cpu: SimDuration::from_millis(200),
        ..SpeConfig::default()
    };
    sc.spe_job(
        "h4",
        SpeJobSpec::new(
            "wc",
            vec!["words".into()],
            running_count_plan,
            SpeSinkSpec::Topic("counts".into()),
            cfg,
        )
        .parallelism(parallelism),
    );
    sc.with_checkpointing(CheckpointCfg::exactly_once(SimDuration::from_secs(1)));
    sc.with_transactional_sinks();
    sc.consumer("h5", Default::default(), &["counts"]);
    sc
}

/// Every record value the consumer observed on the sink topic, in
/// delivery order.
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

/// Per-key sequences of emitted count values, preserving each key's
/// update order. Exactly-once shows as the gapless sequence
/// `1, 2, ..., n` per key: a duplicate repeats a value, a loss skips one.
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
/// means every record was counted exactly once. Which count value a given
/// input carries depends on cross-partition arrival order at the keyed
/// stage (keyless production to 4 partitions has no global order), so
/// that axis is covered by [`per_key_count_sequences`] instead.
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

fn ground_truth() -> BTreeMap<String, i64> {
    let mut tally = BTreeMap::new();
    for w in word_stream(WORDS, SEED) {
        *tally.entry(w).or_insert(0) += 1;
    }
    tally
}

/// The chaos gate: bounce every broker in sequence (each down 3 s, one at
/// a time so a quorum always survives) while the pipeline runs. The
/// committed sink output must be equivalent to the fault-free run's and
/// the final state must match ground truth.
#[test]
fn rolling_broker_bounce_stays_exactly_once() {
    let baseline = build("cluster-bounce-baseline", 2)
        .run()
        .expect("baseline runs");
    assert_eq!(final_counts(&baseline), ground_truth());

    let mut sc = build("cluster-bounce-chaos", 2);
    sc.faults(
        FaultPlan::new()
            .crash_restart_broker(0, SimTime::from_secs(8), SimDuration::from_secs(3))
            .crash_restart_broker(1, SimTime::from_secs(15), SimDuration::from_secs(3))
            .crash_restart_broker(2, SimTime::from_secs(22), SimDuration::from_secs(3)),
    );
    let faulted = sc.run().expect("chaos run completes");

    // State-level: every word counted exactly once despite three bounces.
    assert_eq!(final_counts(&faulted), ground_truth());

    // Record-level: the committed sink holds exactly one count update per
    // input record, the same set as the fault-free run — no loss, no
    // duplicates...
    assert_eq!(
        counted_inputs(&sink_bytes(&faulted)),
        counted_inputs(&sink_bytes(&baseline)),
        "committed sink output must count the same inputs as the fault-free run"
    );
    // ...and each key's committed update order survived intact.
    assert_eq!(
        per_key_count_sequences(&sink_bytes(&faulted)),
        per_key_count_sequences(&sink_bytes(&baseline)),
    );

    // The bounce really exercised the replication machinery: leadership
    // moved off crashed brokers and the ISR shrank and re-expanded.
    let recoveries: Vec<_> = faulted
        .report
        .brokers
        .iter()
        .filter_map(|b| b.recovery)
        .collect();
    assert_eq!(recoveries.len(), 3, "all three brokers report a recovery");
    let moves: u64 = recoveries.iter().map(|r| r.leadership_moves).sum();
    assert!(moves > 0, "elections moved partition leadership");
    assert!(
        recoveries.iter().any(|r| r.isr_shrinks > 0),
        "ISR shrank while replicas were down"
    );
    assert!(
        recoveries.iter().any(|r| r.isr_expands > 0),
        "caught-up replicas re-entered the ISR"
    );
}

/// The two coordination modes differ only in when a controller's decision
/// takes effect, so a fault-free run at `parallelism` delivers the same
/// sink multiset under both: each input counted once, and each key's
/// updates in the same order.
fn assert_zk_and_kraft_agree(parallelism: usize) {
    let zk = build("cluster-zk", parallelism)
        .run()
        .expect("ZooKeeper run");
    let mut sc = build("cluster-kraft", parallelism);
    sc.coordination(CoordinationMode::Kraft);
    let kraft = sc.run().expect("KRaft run");
    assert_eq!(final_counts(&zk), ground_truth());
    assert_eq!(final_counts(&kraft), ground_truth());
    assert_eq!(
        counted_inputs(&sink_bytes(&kraft)),
        counted_inputs(&sink_bytes(&zk))
    );
    assert_eq!(
        per_key_count_sequences(&sink_bytes(&kraft)),
        per_key_count_sequences(&sink_bytes(&zk)),
    );
}

#[test]
fn zk_and_kraft_deliver_the_same_sink_multiset() {
    assert_zk_and_kraft_agree(1);
}

/// The same pair through a keyed shuffle. A producer seals a keyed batch
/// whose topic has no partition count yet onto partition 0, not onto its
/// key's partition; under KRaft no broker knows a topic until the quorum
/// has elected itself, so the first shuffle batch reaches the wrong
/// instance and a few keys count from 1 twice.
#[test]
#[ignore = "open defect: keyed records sealed before the producer's first metadata reply go to partition 0"]
fn zk_and_kraft_deliver_the_same_sink_multiset_through_a_keyed_shuffle() {
    assert_zk_and_kraft_agree(2);
}

// ---------------------------------------------------------------------------
// Zombie-leader fencing regression.
// ---------------------------------------------------------------------------

/// A produce frozen in flight during a deposed leader's reign: stamped
/// with the old epoch and released straight at the *new* leader, exactly
/// the delayed-packet shape the epoch fence exists for.
struct StaleProducer {
    target: ProcessId,
    tp: TopicPartition,
    epoch: LeaderEpoch,
    response: Option<ErrorCode>,
}

impl Process for StaleProducer {
    fn name(&self) -> &str {
        "stale-producer"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.send(
            self.target,
            ClientRpc::ProduceRequest {
                corr: CorrelationId(990_001),
                tp: self.tp.clone(),
                batch: RecordBatch::from_records(vec![Record::keyless(
                    b"zombie".to_vec(),
                    ctx.now(),
                )]),
                acks: AckMode::Leader,
                epoch: self.epoch,
                txn: None,
            },
        );
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: ProcessId, msg: Box<dyn Message>) {
        if let Ok(rpc) = downcast::<ClientRpc>(msg) {
            if let ClientRpc::ProduceResponse { error, .. } = *rpc {
                self.response = Some(error);
            }
        }
    }
}

/// Builds a bare 3-broker RF=3 cluster (no client traffic — elections run
/// on heartbeats alone) and returns the sim plus the handles the test
/// needs to steer it.
fn bare_cluster(
    seed: u64,
) -> (
    Sim,
    std::rc::Rc<std::cell::RefCell<Network>>,
    Vec<ProcessId>,
) {
    let mut topo = Topology::star(3, LinkSpec::new().latency_ms(2)).unwrap();
    for h in ["hc", "hp"] {
        topo.add_host(h).unwrap();
        topo.add_link(h, "s1", LinkSpec::new().latency_ms(2))
            .unwrap();
    }
    let net = Network::new(topo).into_handle();
    let mut sim = Sim::new(seed);
    sim.set_transport(Box::new(NetTransport(net.clone())));

    let topics = vec![TopicSpec::new("events").replication(3).primary(0)];
    let controller_pid = ProcessId(0);
    let broker_pids: Vec<ProcessId> = (1..4).map(ProcessId).collect();
    let brokers: std::collections::BTreeMap<BrokerId, ProcessId> = (0..3)
        .map(|i| (BrokerId(i), broker_pids[i as usize]))
        .collect();
    let brokers_hash: std::collections::BTreeMap<BrokerId, ProcessId> =
        brokers.iter().map(|(k, v)| (*k, *v)).collect();

    let ctrl_cfg = ControllerConfig {
        session_timeout: SimDuration::from_secs(1),
        session_check_interval: SimDuration::from_millis(250),
        ..ControllerConfig::default()
    };
    let pid = sim.spawn(Box::new(ZkController::new(
        ctrl_cfg,
        brokers.clone(),
        &topics,
    )));
    assert_eq!(pid, controller_pid);
    for i in 0..3u32 {
        let b = Broker::new(
            BrokerId(i),
            tuned_broker_cfg(),
            CoordinationMode::Zk,
            vec![controller_pid],
            brokers_hash.clone(),
        );
        let pid = sim.spawn(Box::new(b));
        assert_eq!(pid, broker_pids[i as usize]);
    }
    {
        let mut n = net.borrow_mut();
        let hc = n.topology().lookup("hc").unwrap();
        let hosts: Vec<_> = (0..3)
            .map(|i| n.topology().lookup(&format!("h{}", i + 1)).unwrap())
            .collect();
        n.place(controller_pid, hc);
        for (i, pid) in broker_pids.iter().enumerate() {
            n.place(*pid, hosts[i]);
        }
    }
    (sim, net, broker_pids)
}

/// The regression: after an election, a produce stamped with the deposed
/// leader's epoch must bounce off the new leader with `StaleEpoch` — not
/// be appended — and the rejection must show up in the broker's stats.
#[test]
fn delayed_produce_from_deposed_epoch_is_fenced() {
    let (mut sim, net, broker_pids) = bare_cluster(13);
    let tp = TopicPartition::new("events", 0);

    sim.run_until(SimTime::from_secs(5));
    let old_leader = (0..3)
        .find(|i| {
            sim.process_ref::<Broker>(broker_pids[*i as usize])
                .is_some_and(|b| b.is_leader(&tp))
        })
        .expect("initial leader elected");
    let old_epoch = sim
        .process_ref::<Broker>(broker_pids[old_leader as usize])
        .unwrap()
        .leader_epoch(&tp)
        .expect("leader knows its epoch");

    // Depose it and let the controller elect a successor.
    sim.kill(broker_pids[old_leader as usize])
        .expect("old leader was alive");
    sim.run_until(SimTime::from_secs(10));
    let new_leader = (0..3)
        .filter(|i| *i != old_leader)
        .find(|i| {
            sim.process_ref::<Broker>(broker_pids[*i as usize])
                .is_some_and(|b| b.is_leader(&tp))
        })
        .expect("successor elected");
    let new_pid = broker_pids[new_leader as usize];
    let new_epoch = sim
        .process_ref::<Broker>(new_pid)
        .unwrap()
        .leader_epoch(&tp)
        .unwrap();
    assert!(
        new_epoch > old_epoch,
        "election must advance the leader epoch ({old_epoch:?} -> {new_epoch:?})"
    );
    let rejected_before = sim
        .process_ref::<Broker>(new_pid)
        .unwrap()
        .stats()
        .rejected_stale_epoch;
    let log_before = sim
        .process_ref::<Broker>(new_pid)
        .unwrap()
        .log_fingerprint(&tp);

    // Release the zombie produce at the new leader.
    let now = sim.now();
    let probe = sim.spawn_at(
        now,
        Box::new(StaleProducer {
            target: new_pid,
            tp: tp.clone(),
            epoch: old_epoch,
            response: None,
        }),
    );
    {
        let mut n = net.borrow_mut();
        let hp = n.topology().lookup("hp").unwrap();
        n.place(probe, hp);
    }
    sim.run_until(SimTime::from_secs(12));

    let b = sim.process_ref::<Broker>(new_pid).unwrap();
    assert_eq!(
        sim.process_ref::<StaleProducer>(probe).unwrap().response,
        Some(ErrorCode::StaleEpoch),
        "the deposed-epoch produce must be answered with StaleEpoch"
    );
    assert_eq!(
        b.stats().rejected_stale_epoch,
        rejected_before + 1,
        "the fence rejection is counted"
    );
    assert_eq!(
        b.log_fingerprint(&tp),
        log_before,
        "the zombie record must not reach the log"
    );
}
