//! The controller's decision log, pinned record for record in both
//! coordination modes.
//!
//! One scripted 3-broker cluster (topics `events`, led by broker 0, and
//! `audit`, led by broker 1, both at RF 3 with `acks=all` traffic) runs
//! under the ZooKeeper-style controller and again under a 3-member KRaft
//! quorum. The script:
//!
//! * 3 s: broker 2's host is cut off for 1.5 s, inside the session timeout,
//!   so both leaders shrink their ISR around the lagging follower, then
//!   grow it back once it catches up;
//! * 8 s: broker 0, leader of `events`, crashes; it returns empty at 13 s,
//!   past the session timeout, and a later preferred-replica sweep hands
//!   `events` back to it;
//! * 20 s: broker 2 crashes and returns 1 s later, inside the session
//!   timeout (the controller sees only its incarnation jump);
//! * 27 s: brokers 1 and 2 crash together (one sweep expires both
//!   sessions) and broker 0 at 32 s; 1 and 2 return at 36 s and 0 at
//!   38 s, so `events`, whose ISR had shrunk to broker 0, sits offline
//!   until broker 0 is back.
//!
//! Each test asserts the exact `decisions()` log — `(time, record)` — of
//! the ZooKeeper controller or of the active KRaft member. Any change to
//! what a controller decides, or when, fails here.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use s2g_broker::{
    Broker, BrokerConfig, ControllerConfig, CoordinationMode, DataSource, KraftController,
    ProducerClient, ProducerConfig, ProducerProcess, SourceAction, TopicSpec, ZkController,
};
use s2g_net::{FaultInjector, FaultPlan, LinkSpec, NetTransport, Network, Topology};
use s2g_proto::{AckMode, BrokerId, MetadataRecord, ProducerId};
use s2g_sim::{ProcessId, Sim, SimDuration, SimTime};

const N_BROKERS: u32 = 3;
const RUN_FOR: u64 = 45;

struct Cluster {
    sim: Sim,
    mode: CoordinationMode,
    controller_pids: Vec<ProcessId>,
    broker_pids: Vec<ProcessId>,
    brokers: BTreeMap<BrokerId, ProcessId>,
}

fn broker_cfg() -> BrokerConfig {
    BrokerConfig {
        heartbeat_interval: SimDuration::from_millis(300),
        session_timeout: SimDuration::from_secs(2),
        replica_fetch_interval: SimDuration::from_millis(10),
        replica_lag_max: SimDuration::from_secs(1),
        isr_check_interval: SimDuration::from_millis(250),
        ..BrokerConfig::default()
    }
}

fn controller_cfg() -> ControllerConfig {
    ControllerConfig {
        session_timeout: SimDuration::from_secs(2),
        preferred_election_delay: SimDuration::from_secs(5),
        ..ControllerConfig::default()
    }
}

/// Hosts h1..h3 (one broker each), hc0..hc2 (the controller or the quorum)
/// and hp (the producer) on one switch.
fn build(mode: CoordinationMode) -> Cluster {
    let mut topo = Topology::star(N_BROKERS as usize, LinkSpec::new().latency_ms(2)).unwrap();
    for h in ["hc0", "hc1", "hc2", "hp"] {
        topo.add_host(h).unwrap();
        topo.add_link(h, "s1", LinkSpec::new().latency_ms(2))
            .unwrap();
    }
    let net = Network::new(topo).into_handle();
    let mut sim = Sim::new(5);
    sim.set_transport(Box::new(NetTransport(net.clone())));

    let topics = vec![
        TopicSpec::new("events").replication(3).primary(0),
        TopicSpec::new("audit").replication(3).primary(1),
    ];
    let n_controllers = match mode {
        CoordinationMode::Zk => 1,
        CoordinationMode::Kraft => 3,
    };
    let controller_pids: Vec<ProcessId> = (0..n_controllers).map(ProcessId).collect();
    let broker_pids: Vec<ProcessId> = (n_controllers..n_controllers + N_BROKERS)
        .map(ProcessId)
        .collect();
    let brokers: BTreeMap<BrokerId, ProcessId> = (0..N_BROKERS)
        .map(|i| (BrokerId(i), broker_pids[i as usize]))
        .collect();

    match mode {
        CoordinationMode::Zk => {
            let c = ZkController::new(controller_cfg(), brokers.clone(), &topics);
            assert_eq!(sim.spawn(Box::new(c)), controller_pids[0]);
        }
        CoordinationMode::Kraft => {
            let quorum: BTreeMap<BrokerId, ProcessId> = (0..n_controllers)
                .map(|i| (BrokerId(1000 + i), controller_pids[i as usize]))
                .collect();
            for (i, me) in quorum.keys().enumerate() {
                let c = KraftController::new(
                    *me,
                    quorum.clone(),
                    brokers.clone(),
                    controller_cfg(),
                    topics.clone(),
                );
                assert_eq!(sim.spawn(Box::new(c)), controller_pids[i]);
            }
        }
    }
    for (id, pid) in &brokers {
        let b = Broker::new(
            *id,
            broker_cfg(),
            mode,
            controller_pids.clone(),
            brokers.clone(),
        );
        assert_eq!(sim.spawn(Box::new(b)), *pid);
    }

    let pcfg = ProducerConfig {
        acks: AckMode::All,
        request_timeout: SimDuration::from_millis(500),
        ..ProducerConfig::default()
    };
    let client = ProducerClient::new(ProducerId(0), pcfg, broker_pids[1], brokers.clone(), 0);
    let producer_pid = sim.spawn(Box::new(ProducerProcess::new(
        client,
        Box::new(AlternatingTopics(0)),
    )));

    let plan = FaultPlan::new().transient_disconnect(
        "h3",
        SimTime::from_secs(3),
        SimDuration::from_millis(1_500),
    );
    sim.spawn(Box::new(FaultInjector::new(net.clone(), plan)));

    {
        let mut n = net.borrow_mut();
        let host = |n: &Network, name: &str| n.topology().lookup(name).unwrap();
        for (i, pid) in controller_pids.iter().enumerate() {
            let h = host(&n, &format!("hc{i}"));
            n.place(*pid, h);
        }
        for (i, pid) in broker_pids.iter().enumerate() {
            let h = host(&n, &format!("h{}", i + 1));
            n.place(*pid, h);
        }
        let hp = host(&n, "hp");
        n.place(producer_pid, hp);
    }

    Cluster {
        sim,
        mode,
        controller_pids,
        broker_pids,
        brokers,
    }
}

/// One 64 B record every 19.69 ms (26 kbps) until `RUN_FOR`, to `events`
/// and `audit` in turn. It draws nothing from the run's RNG, so how often a
/// controller draws from it moves no other decision.
struct AlternatingTopics(u64);

impl DataSource for AlternatingTopics {
    fn next(&mut self, now: SimTime, _rng: &mut StdRng) -> SourceAction {
        if now >= SimTime::from_secs(RUN_FOR) {
            return SourceAction::Done;
        }
        let topic = ["events", "audit"][(self.0 % 2) as usize].to_string();
        self.0 += 1;
        SourceAction::Emit {
            topic,
            key: None,
            value: vec![0xa5; 64],
            next_after: SimDuration::from_nanos(64 * 8 * 1_000_000 / 26),
        }
    }
}

impl Cluster {
    fn crash(&mut self, at_ms: u64, victims: &[u32]) {
        self.sim.run_until(SimTime::from_millis(at_ms));
        for v in victims {
            let pid = self.broker_pids[*v as usize];
            assert!(self.sim.kill(pid).is_some(), "broker {v} was alive");
        }
    }

    /// Restarts each victim empty, as its next incarnation.
    fn restart(&mut self, at_ms: u64, victims: &[u32]) {
        self.sim.run_until(SimTime::from_millis(at_ms));
        for v in victims {
            let i = *v as usize;
            let b = Broker::new(
                BrokerId(*v),
                broker_cfg(),
                self.mode,
                self.controller_pids.clone(),
                self.brokers.clone(),
            );
            self.sim.respawn(self.broker_pids[i], Box::new(b));
        }
    }
}

/// Runs the script and renders the deciding controller's log, one line per
/// decision: the simulated instant in nanoseconds, then the record.
fn decisions(mode: CoordinationMode) -> Vec<String> {
    let mut c = build(mode);
    c.crash(8_000, &[0]);
    c.restart(13_000, &[0]);
    c.crash(20_000, &[2]);
    c.restart(21_000, &[2]);
    c.crash(27_000, &[1, 2]);
    c.crash(32_000, &[0]);
    c.restart(36_000, &[1, 2]);
    c.restart(38_000, &[0]);
    c.sim.run_until(SimTime::from_secs(RUN_FOR));

    let log = match mode {
        CoordinationMode::Zk => c
            .sim
            .process_ref::<ZkController>(c.controller_pids[0])
            .unwrap()
            .decisions(),
        CoordinationMode::Kraft => {
            let mut active = c
                .controller_pids
                .iter()
                .map(|pid| c.sim.process_ref::<KraftController>(*pid).unwrap())
                .filter(|k| k.is_active());
            let leader = active.next().expect("an active controller");
            assert!(active.next().is_none(), "one active controller");
            leader.decisions()
        }
    };
    log.iter()
        .map(|(t, r)| format!("{} {}", t.as_nanos(), render(r)))
        .collect()
}

fn render(r: &MetadataRecord) -> String {
    match r {
        MetadataRecord::TopicCreated { topic, .. } => format!("created {topic}"),
        MetadataRecord::BrokerRegistered { broker } => format!("registered {}", broker.0),
        MetadataRecord::BrokerFenced { broker } => format!("fenced {}", broker.0),
        MetadataRecord::PartitionChange {
            tp,
            leader,
            isr,
            epoch,
        } => {
            let leader = leader.map_or("none".to_string(), |b| b.0.to_string());
            let isr: Vec<u32> = isr.iter().map(|b| b.0).collect();
            format!(
                "{}-{} leader {leader} isr {isr:?} epoch {}",
                tp.topic, tp.partition, epoch.0
            )
        }
    }
}

#[test]
fn zk_decisions_are_pinned() {
    assert_eq!(decisions(CoordinationMode::Zk), ZK);
}

#[test]
fn kraft_decisions_are_pinned() {
    assert_eq!(decisions(CoordinationMode::Kraft), KRAFT);
}

/// Under ZooKeeper a decision applies the moment it is made. The 30 s
/// sweep fences broker 1 and moves `audit` to broker 2, then fences 2 and
/// moves `audit` on to broker 0; the heartbeat that registers broker 0 at
/// 38 s also re-elects it for both offline partitions.
const ZK: &[&str] = &[
    "0 audit-0 leader 1 isr [1, 2, 0] epoch 0",
    "0 events-0 leader 0 isr [0, 1, 2] epoch 0",
    "4254050000 events-0 leader 0 isr [0, 1] epoch 0",
    "4254050000 audit-0 leader 1 isr [1, 0] epoch 0",
    "5326338000 events-0 leader 0 isr [0, 1, 2] epoch 0",
    "5326338000 audit-0 leader 1 isr [1, 0, 2] epoch 0",
    "9254050000 audit-0 leader 1 isr [1, 2] epoch 0",
    "10000000000 fenced 0",
    "10000000000 events-0 leader 1 isr [1, 2] epoch 1",
    "13004050000 registered 0",
    "13024982000 audit-0 leader 1 isr [1, 2, 0] epoch 0",
    "13024982000 events-0 leader 1 isr [1, 2, 0] epoch 1",
    "15000000000 events-0 leader 0 isr [1, 2, 0] epoch 2",
    "21004050000 audit-0 leader 1 isr [1, 0] epoch 0",
    "21025338000 audit-0 leader 1 isr [1, 0, 2] epoch 0",
    "28254050000 events-0 leader 0 isr [0] epoch 2",
    "30000000000 fenced 1",
    "30000000000 audit-0 leader 2 isr [0, 2] epoch 1",
    "30000000000 fenced 2",
    "30000000000 audit-0 leader 0 isr [0] epoch 2",
    "34000000000 fenced 0",
    "34000000000 audit-0 leader none isr [0] epoch 3",
    "34000000000 events-0 leader none isr [0] epoch 3",
    "36004050000 registered 1",
    "36004050000 registered 2",
    "38004050000 registered 0",
    "38004050000 audit-0 leader 0 isr [0] epoch 4",
    "38004050000 events-0 leader 0 isr [0] epoch 4",
    "38016200000 audit-0 leader 0 isr [0, 1] epoch 4",
    "38016200000 audit-0 leader 0 isr [0, 1, 2] epoch 4",
    "38016200000 events-0 leader 0 isr [0, 1] epoch 4",
    "38016200000 events-0 leader 0 isr [0, 1, 2] epoch 4",
    "40000000000 audit-0 leader 1 isr [0, 1, 2] epoch 5",
];

/// Under KRaft a decision applies once the quorum commits it. The 30 s
/// sweep decides broker 2's failure against a state that has not applied
/// broker 1's yet, so `audit` stays with the fenced broker 2 until it
/// returns; offline `events` waits for the 40 s preferred sweep. The
/// followers pull the log: a decision made while their fetches are in
/// flight (broker 2's registration at 36 s, the second `AlterIsr` at 40 s)
/// commits one round trip after the one before it.
const KRAFT: &[&str] = &[
    "1595600328 registered 1002",
    "1595600328 registered 0",
    "1595600328 registered 1",
    "1595600328 registered 2",
    "1595600328 events-0 leader 0 isr [0, 1, 2] epoch 0",
    "1595600328 audit-0 leader 1 isr [1, 2, 0] epoch 0",
    "4262150000 events-0 leader 0 isr [0, 1] epoch 0",
    "4270250000 audit-0 leader 1 isr [1, 0] epoch 0",
    "5334438000 events-0 leader 0 isr [0, 1, 2] epoch 0",
    "5342538000 audit-0 leader 1 isr [1, 0, 2] epoch 0",
    "9262150000 audit-0 leader 1 isr [1, 2] epoch 0",
    "10008100000 fenced 0",
    "10008100000 events-0 leader 1 isr [1, 2] epoch 1",
    "13012150000 registered 0",
    "13033082000 audit-0 leader 1 isr [1, 2, 0] epoch 0",
    "13041182000 events-0 leader 1 isr [1, 2, 0] epoch 1",
    "15008100000 events-0 leader 0 isr [1, 2, 0] epoch 2",
    "21012150000 audit-0 leader 1 isr [1, 0] epoch 0",
    "21033436000 audit-0 leader 1 isr [1, 0, 2] epoch 0",
    "28262150000 events-0 leader 0 isr [0] epoch 2",
    "30008100000 fenced 1",
    "30008100000 audit-0 leader 2 isr [0, 2] epoch 1",
    "30008100000 fenced 2",
    "34008100000 fenced 0",
    "34008100000 events-0 leader none isr [0] epoch 3",
    "36012150000 registered 1",
    "36020250000 registered 2",
    "36028350000 audit-0 leader 2 isr [0, 2, 1] epoch 1",
    "37268850000 audit-0 leader 2 isr [2, 1] epoch 1",
    "38012150000 registered 0",
    "38032508000 audit-0 leader 2 isr [2, 1, 0] epoch 1",
    "40008100000 audit-0 leader 1 isr [2, 1, 0] epoch 2",
    "40008100000 events-0 leader 0 isr [0] epoch 4",
    "40028350000 events-0 leader 0 isr [0, 1] epoch 4",
    "40036450000 events-0 leader 0 isr [0, 2] epoch 4",
    "40056415182 events-0 leader 0 isr [0, 2, 1] epoch 4",
];
