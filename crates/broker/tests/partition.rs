//! End-to-end network-partition tests: the Fig. 6 dynamics.
//!
//! A small cluster (3 brokers, star topology, 2 topics with replication 3)
//! suffers a 60-second disconnection of the host running topic A's leader,
//! with a producer and a consumer co-located on that host and a remote
//! consumer elsewhere.
//!
//! Under ZooKeeper-mode coordination the acknowledged-but-unreplicated
//! suffix is silently truncated on heal (Alquraan et al. OSDI'18, reproduced
//! by the paper's Fig. 6b). Under KRaft-mode coordination with `acks=all`
//! no acknowledged record is ever lost.

use std::collections::BTreeMap;

use s2g_broker::{
    Broker, BrokerConfig, CollectingSink, ConsumerClient, ConsumerConfig, ConsumerProcess,
    ControllerConfig, CoordinationMode, KraftController, ProducerClient, ProducerConfig,
    ProducerProcess, RandomTopicSource, TopicSpec, ZkController,
};
use s2g_net::{FaultInjector, FaultPlan, LinkSpec, NetTransport, Network, Topology};
use s2g_proto::{AckMode, BrokerId, ProducerId, TopicPartition};
use s2g_sim::{ProcessId, Sim, SimDuration, SimTime};

const N_BROKERS: u32 = 3;
const DISCONNECT_AT: u64 = 60;
const RECONNECT_AT: u64 = 120;
const RUN_FOR: u64 = 300;

struct Cluster {
    sim: Sim,
    broker_pids: Vec<ProcessId>,
    producer_pid: ProcessId,
    remote_consumer_pid: ProcessId,
    colocated_consumer_pid: ProcessId,
}

/// Builds: hosts h1..h3 (one broker each) + hc (controller(s)) on a star;
/// producer + consumer on h1 (which hosts topic-a's preferred leader),
/// remote consumer on h3. Disconnects h1 for 60 s.
fn build(mode: CoordinationMode, acks: AckMode, seed: u64) -> Cluster {
    let mut topo = Topology::star(N_BROKERS as usize, LinkSpec::new().latency_ms(2)).unwrap();
    topo.add_host("hc").unwrap();
    topo.add_link("hc", "s1", LinkSpec::new().latency_ms(2))
        .unwrap();
    let net = Network::new(topo).into_handle();
    let mut sim = Sim::new(seed);
    sim.set_transport(Box::new(NetTransport(net.clone())));

    let topics = vec![
        TopicSpec::new("topic-a").replication(3).primary(0),
        TopicSpec::new("topic-b").replication(3).primary(1),
    ];

    // Pid layout (spawn order): controllers first, then brokers, then clients.
    let n_controllers = match mode {
        CoordinationMode::Zk => 1u32,
        CoordinationMode::Kraft => 3u32,
    };
    let controller_pids: Vec<ProcessId> = (0..n_controllers).map(ProcessId).collect();
    let broker_pids: Vec<ProcessId> = (n_controllers..n_controllers + N_BROKERS)
        .map(ProcessId)
        .collect();
    let brokers_btree: BTreeMap<BrokerId, ProcessId> = (0..N_BROKERS)
        .map(|i| (BrokerId(i), broker_pids[i as usize]))
        .collect();
    let brokers_hash: BTreeMap<BrokerId, ProcessId> =
        brokers_btree.iter().map(|(k, v)| (*k, *v)).collect();

    // Controllers.
    match mode {
        CoordinationMode::Zk => {
            let c = ZkController::new(ControllerConfig::default(), brokers_btree.clone(), &topics);
            let pid = sim.spawn(Box::new(c));
            assert_eq!(pid, controller_pids[0]);
        }
        CoordinationMode::Kraft => {
            let quorum: BTreeMap<BrokerId, ProcessId> = (0..3u32)
                .map(|i| (BrokerId(1000 + i), controller_pids[i as usize]))
                .collect();
            for i in 0..3u32 {
                let cfg = ControllerConfig {
                    mode,
                    ..ControllerConfig::default()
                };
                let c = KraftController::new(
                    BrokerId(1000 + i),
                    quorum.clone(),
                    brokers_btree.clone(),
                    cfg,
                    topics.clone(),
                );
                let pid = sim.spawn(Box::new(c));
                assert_eq!(pid, controller_pids[i as usize]);
            }
        }
    }

    // Brokers.
    for i in 0..N_BROKERS {
        let b = Broker::new(
            BrokerId(i),
            BrokerConfig::default(),
            mode,
            controller_pids.clone(),
            brokers_hash.clone(),
        );
        let pid = sim.spawn(Box::new(b));
        assert_eq!(pid, broker_pids[i as usize]);
    }

    // Producer co-located with broker 0 on h1, bootstrapping from it.
    let pcfg = ProducerConfig {
        acks,
        ..ProducerConfig::default()
    };
    let mut client =
        ProducerClient::new(ProducerId(0), pcfg, broker_pids[0], brokers_hash.clone(), 0);
    // These tests match acked records against deliveries by identity.
    client.capture_records();
    let source = RandomTopicSource::new(
        vec!["topic-a".into(), "topic-b".into()],
        30,
        500,
        SimTime::from_secs(RUN_FOR - 60),
    );
    let producer_pid = sim.spawn(Box::new(ProducerProcess::new(client, Box::new(source))));

    // Remote consumer on h3 (bootstraps from broker 2).
    let ccfg = ConsumerConfig::default();
    let rc = ConsumerClient::new(
        ccfg.clone(),
        broker_pids[2],
        brokers_hash.clone(),
        vec!["topic-a".into(), "topic-b".into()],
    );
    let remote_consumer_pid = sim.spawn(Box::new(ConsumerProcess::new(
        0,
        rc,
        Box::new(CollectingSink::default()),
    )));

    // Co-located consumer on h1 (bootstraps from broker 0).
    let cc = ConsumerClient::new(
        ccfg,
        broker_pids[0],
        brokers_hash,
        vec!["topic-a".into(), "topic-b".into()],
    );
    let colocated_consumer_pid = sim.spawn(Box::new(ConsumerProcess::new(
        1,
        cc,
        Box::new(CollectingSink::default()),
    )));

    // Fault plan: disconnect h1 during [60, 120).
    let plan = FaultPlan::new().transient_disconnect(
        "h1",
        SimTime::from_secs(DISCONNECT_AT),
        SimDuration::from_secs(RECONNECT_AT - DISCONNECT_AT),
    );
    sim.spawn(Box::new(FaultInjector::new(net.clone(), plan)));

    // Placement.
    {
        let mut n = net.borrow_mut();
        let h = |name: &str| n.topology().lookup(name).unwrap();
        let (h1, h2, h3, hc) = (h("h1"), h("h2"), h("h3"), h("hc"));
        for (i, pid) in controller_pids.iter().enumerate() {
            // ZK: single controller on hc. KRaft: spread over hc, h2, h3 so a
            // majority survives h1's disconnection.
            let node = match (mode, i) {
                (CoordinationMode::Zk, _) => hc,
                (CoordinationMode::Kraft, 0) => hc,
                (CoordinationMode::Kraft, 1) => h2,
                (CoordinationMode::Kraft, _) => h3,
            };
            n.place(*pid, node);
        }
        n.place(broker_pids[0], h1);
        n.place(broker_pids[1], h2);
        n.place(broker_pids[2], h3);
        n.place(producer_pid, h1);
        n.place(remote_consumer_pid, h3);
        n.place(colocated_consumer_pid, h1);
    }

    Cluster {
        sim,
        broker_pids,
        producer_pid,
        remote_consumer_pid,
        colocated_consumer_pid,
    }
}

fn acked_seqs(sim: &Sim, pid: ProcessId, topic: &str) -> Vec<u64> {
    let p = sim.process_ref::<ProducerProcess>(pid).unwrap();
    p.client()
        .outcomes()
        .iter()
        .filter(|o| o.delivered && &*o.topic == topic)
        .map(|o| o.seq)
        .collect()
}

fn received_seqs(sim: &Sim, pid: ProcessId, topic: &str) -> Vec<u64> {
    let c = sim.process_ref::<ConsumerProcess>(pid).unwrap();
    c.sink_as::<CollectingSink>()
        .unwrap()
        .deliveries
        .iter()
        .filter(|(_, tp, _)| tp.topic == topic)
        .map(|(_, _, r)| r.producer_seq)
        .collect()
}

#[test]
fn zk_mode_silently_loses_acked_records() {
    let mut cluster = build(CoordinationMode::Zk, AckMode::Leader, 1);
    cluster.sim.run_until(SimTime::from_secs(RUN_FOR));

    // The old leader truncated its divergent suffix on rejoin.
    let b0 = cluster
        .sim
        .process_ref::<Broker>(cluster.broker_pids[0])
        .unwrap();
    assert!(
        b0.stats().records_truncated > 0,
        "healed leader must truncate its divergent suffix, stats: {:?}",
        b0.stats()
    );

    // Some topic-a records were acknowledged to the producer yet never reach
    // the remote consumer: silent loss.
    let acked = acked_seqs(&cluster.sim, cluster.producer_pid, "topic-a");
    let received = received_seqs(&cluster.sim, cluster.remote_consumer_pid, "topic-a");
    assert!(
        !acked.is_empty(),
        "producer must have acked topic-a records"
    );
    let lost: Vec<u64> = acked
        .iter()
        .copied()
        .filter(|s| !received.contains(s))
        .collect();
    assert!(
        !lost.is_empty(),
        "ZooKeeper mode must lose acknowledged records across the partition \
         (acked {}, received {})",
        acked.len(),
        received.len()
    );

    // All the losses come from the partition window.
    let p = cluster
        .sim
        .process_ref::<ProducerProcess>(cluster.producer_pid)
        .unwrap();
    for o in p
        .client()
        .outcomes()
        .iter()
        .filter(|o| o.delivered && &*o.topic == "topic-a")
    {
        if lost.contains(&o.seq) {
            let t = o.created.as_secs();
            // Records appended just before the cut but not yet replicated
            // (replica fetch interval + linger) are lost too, so allow a
            // small margin before the disconnect instant.
            assert!(
                (DISCONNECT_AT - 5..RECONNECT_AT + 10).contains(&t),
                "lost record created at {t}s, outside the partition window"
            );
        }
    }

    // Topic-b records (leader elsewhere) are delayed, not lost: every acked
    // record reaches the remote consumer.
    let acked_b = acked_seqs(&cluster.sim, cluster.producer_pid, "topic-b");
    let received_b = received_seqs(&cluster.sim, cluster.remote_consumer_pid, "topic-b");
    let lost_b: Vec<u64> = acked_b
        .iter()
        .copied()
        .filter(|s| !received_b.contains(s))
        .collect();
    assert!(
        lost_b.is_empty(),
        "topic-b acked records must all be delivered, lost {} of {}",
        lost_b.len(),
        acked_b.len()
    );
}

#[test]
fn zk_mode_colocated_consumer_saw_doomed_records() {
    let mut cluster = build(CoordinationMode::Zk, AckMode::Leader, 2);
    cluster.sim.run_until(SimTime::from_secs(RUN_FOR));
    // The co-located consumer read from the isolated leader (which locally
    // shrank its ISR and advanced the HW), so it saw records the remote
    // consumer never will.
    let colocated = received_seqs(&cluster.sim, cluster.colocated_consumer_pid, "topic-a");
    let remote = received_seqs(&cluster.sim, cluster.remote_consumer_pid, "topic-a");
    let only_local: Vec<u64> = colocated
        .iter()
        .copied()
        .filter(|s| !remote.contains(s))
        .collect();
    assert!(
        !only_local.is_empty(),
        "co-located consumer should observe records that get truncated \
         (colocated {}, remote {})",
        colocated.len(),
        remote.len()
    );
}

#[test]
fn zk_mode_preferred_leader_reelected_after_heal() {
    let mut cluster = build(CoordinationMode::Zk, AckMode::Leader, 3);
    cluster.sim.run_until(SimTime::from_secs(RUN_FOR));
    let b0 = cluster
        .sim
        .process_ref::<Broker>(cluster.broker_pids[0])
        .unwrap();
    let ta = TopicPartition::new("topic-a", 0);
    assert!(
        b0.is_leader(&ta),
        "preferred replica election must hand topic-a back to broker 0"
    );
    // The event sequence on broker 0: leader at start, stepped down (learned
    // on heal), leader again (preferred election) — Fig. 6d events 1 and 4.
    let events: Vec<bool> = b0
        .leadership_events()
        .iter()
        .filter(|(_, tp, _)| *tp == ta)
        .map(|(_, _, became)| *became)
        .collect();
    assert!(
        events.windows(3).any(|w| w == [true, false, true]) || events == [true, false, true],
        "expected lead→stepdown→lead cycle, got {events:?}"
    );
}

#[test]
fn kraft_mode_loses_nothing_acked() {
    let mut cluster = build(CoordinationMode::Kraft, AckMode::All, 4);
    cluster.sim.run_until(SimTime::from_secs(RUN_FOR));

    // The isolated broker fenced itself and rejected writes.
    let b0 = cluster
        .sim
        .process_ref::<Broker>(cluster.broker_pids[0])
        .unwrap();
    assert!(
        b0.stats().rejected_fenced > 0,
        "isolated KRaft broker must fence itself, stats: {:?}",
        b0.stats()
    );

    // Every acknowledged record (both topics) reaches the remote consumer.
    for topic in ["topic-a", "topic-b"] {
        let acked = acked_seqs(&cluster.sim, cluster.producer_pid, topic);
        let received = received_seqs(&cluster.sim, cluster.remote_consumer_pid, topic);
        assert!(
            !acked.is_empty(),
            "producer must have acked {topic} records"
        );
        let lost: Vec<u64> = acked
            .iter()
            .copied()
            .filter(|s| !received.contains(s))
            .collect();
        assert!(
            lost.is_empty(),
            "KRaft mode must not lose acked records on {topic}: lost {} of {} (received {})",
            lost.len(),
            acked.len(),
            received.len()
        );
    }
}

#[test]
fn partition_runs_are_deterministic() {
    let run = |seed: u64| {
        let mut c = build(CoordinationMode::Zk, AckMode::Leader, seed);
        c.sim.run_until(SimTime::from_secs(150));
        (
            acked_seqs(&c.sim, c.producer_pid, "topic-a"),
            received_seqs(&c.sim, c.remote_consumer_pid, "topic-a"),
            c.sim.stats().events_processed,
        )
    };
    assert_eq!(run(7), run(7), "same seed must reproduce the run exactly");
}
