//! `ProducerConfig::retry_backoff`: a produce that bounced or timed out is
//! sent again no sooner than the backoff later, from the head of its
//! partition's queue, while other partitions go on undisturbed.
//!
//! Checked on when a stub broker receives what. (Before the batch carried
//! the instant it may next be sent, the reply handler pumped right after
//! re-queueing it, so a bounce was retried at round-trip rate: 85 000
//! requests in the six seconds after three broker restarts of one
//! benchmark run, `docs/performance.md`.)

use std::collections::BTreeMap;

use rand::rngs::StdRng;

use s2g_broker::{DataSource, ProducerClient, ProducerConfig, ProducerProcess, SourceAction};
use s2g_proto::{
    partition_for_key, BrokerId, ClientRpc, ErrorCode, LeaderEpoch, Offset, PartitionMetadata,
    ProducerId, TopicPartition,
};
use s2g_sim::{downcast, Ctx, Message, Process, ProcessId, Sim, SimDuration, SimTime};

const TOPIC: &str = "t";
const BROKER: ProcessId = ProcessId(0);
const BACKOFF: SimDuration = SimDuration::from_millis(100);

/// Leads both partitions of the topic. Per partition, the first `bounce`
/// produces are answered `NotLeader` and the first `drop` are not answered
/// at all; everything else is acknowledged. Keeps `(when, partition, first
/// value byte)` of every produce it receives.
struct StubBroker {
    bounce: BTreeMap<u32, u32>,
    drop: BTreeMap<u32, u32>,
    produced: Vec<(SimTime, u32, u8)>,
}

impl Process for StubBroker {
    fn name(&self) -> &str {
        "stub-broker"
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, msg: Box<dyn Message>) {
        match *downcast::<ClientRpc>(msg).expect("clients speak ClientRpc") {
            ClientRpc::MetadataRequest { corr } => {
                let partitions = (0..2)
                    .map(|p| PartitionMetadata {
                        tp: TopicPartition::new(TOPIC, p),
                        leader: Some(BrokerId(0)),
                        epoch: LeaderEpoch(0),
                        isr: vec![BrokerId(0)],
                        replicas: vec![BrokerId(0)],
                    })
                    .collect();
                ctx.send(from, ClientRpc::MetadataResponse { corr, partitions });
            }
            ClientRpc::ProduceRequest {
                corr, tp, batch, ..
            } => {
                let first = batch.records()[0].value[0];
                self.produced.push((ctx.now(), tp.partition, first));
                let take = |left: &mut BTreeMap<u32, u32>| {
                    let n = left.entry(tp.partition).or_default();
                    let hit = *n > 0;
                    *n = n.saturating_sub(1);
                    hit
                };
                if take(&mut self.drop) {
                    return;
                }
                let error = if take(&mut self.bounce) {
                    ErrorCode::NotLeader
                } else {
                    ErrorCode::None
                };
                let base_offset = Offset::ZERO;
                let ack = ClientRpc::ProduceResponse {
                    corr,
                    tp,
                    base_offset,
                    error,
                };
                ctx.send(from, ack);
            }
            other => panic!("unexpected rpc {other:?}"),
        }
    }
}

/// Emits one single-byte record per `(at, partition, value)` entry, keyed
/// so that it routes to that partition.
struct Script(std::vec::IntoIter<(SimTime, u32, u8)>);

impl DataSource for Script {
    fn next(&mut self, now: SimTime, _rng: &mut StdRng) -> SourceAction {
        let Some(&(at, partition, value)) = self.0.as_slice().first() else {
            return SourceAction::Done;
        };
        if now < at {
            return SourceAction::Wait(at.saturating_since(now));
        }
        self.0.next();
        let key = (0u8..=255)
            .find(|k| partition_for_key(&[*k], 2) == partition)
            .expect("some byte routes there");
        SourceAction::Emit {
            topic: TOPIC.into(),
            key: Some(vec![key]),
            value: vec![value],
            next_after: SimDuration::ZERO,
        }
    }
}

/// Runs the script (times in ms) for a second and returns what the broker
/// received and the producer's retry count.
fn run(
    cfg: ProducerConfig,
    bounce: &[(u32, u32)],
    drop: &[(u32, u32)],
    script: &[(u64, u32, u8)],
) -> (Vec<(SimTime, u32, u8)>, u64, u64) {
    let mut sim = Sim::new(1);
    let broker = sim.spawn(Box::new(StubBroker {
        bounce: bounce.iter().copied().collect(),
        drop: drop.iter().copied().collect(),
        produced: Vec::new(),
    }));
    assert_eq!(broker, BROKER);
    let brokers: BTreeMap<BrokerId, ProcessId> = [(BrokerId(0), BROKER)].into();
    let client = ProducerClient::new(ProducerId(1), cfg, BROKER, brokers, 0);
    let script: Vec<_> = script
        .iter()
        .map(|&(ms, p, v)| (SimTime::from_millis(ms), p, v))
        .collect();
    let source = Script(script.into_iter());
    let producer = sim.spawn(Box::new(ProducerProcess::new(client, Box::new(source))));
    sim.run_until(SimTime::from_secs(1));
    let stats = sim
        .process_ref::<ProducerProcess>(producer)
        .expect("producer")
        .client()
        .stats();
    let produced = &sim
        .process_ref::<StubBroker>(BROKER)
        .expect("broker")
        .produced;
    (produced.clone(), stats.retries, stats.acked)
}

/// Every record is a batch of its own, sealed as it is sent.
fn cfg() -> ProducerConfig {
    ProducerConfig {
        batch_max_records: 1,
        retry_backoff: BACKOFF,
        ..ProducerConfig::default()
    }
}

#[test]
fn a_bounced_batch_waits_out_the_backoff_at_the_head_of_its_partition() {
    // A and B go to partition 0, which bounces three produces; C goes to
    // partition 1 while A is backing off.
    let script = [(10, 0, b'A'), (15, 0, b'B'), (20, 1, b'C')];
    let (produced, retries, acked) = run(cfg(), &[(0, 3)], &[], &script);
    let of = |p: u32| produced.iter().filter(move |(_, part, _)| *part == p);
    let values: Vec<u8> = of(0).map(|(_, _, v)| *v).collect();
    assert_eq!(values, b"AAAAB", "three bounces, then A, then B behind it");
    let sends: Vec<SimTime> = of(0).map(|(at, _, _)| *at).collect();
    for pair in sends[..4].windows(2) {
        assert!(
            pair[1] - pair[0] >= BACKOFF,
            "a bounced batch was sent again after {} (< {BACKOFF}): {sends:?}",
            pair[1] - pair[0]
        );
    }
    assert!(sends[3] < SimTime::from_millis(10) + BACKOFF * 3 + SimDuration::from_millis(1));
    // B never overtook A, and left as soon as A was acknowledged.
    assert!(sends[4] > sends[3] && sends[4] - sends[3] < SimDuration::from_millis(1));
    // The other partition was served while partition 0 backed off.
    let others: Vec<(SimTime, u8)> = of(1).map(|(at, _, v)| (*at, *v)).collect();
    assert_eq!(others.len(), 1);
    assert!(others[0].0 < SimTime::from_millis(21), "{others:?}");
    assert_eq!((retries, acked), (3, 3));
}

#[test]
fn a_timed_out_request_backs_off_too() {
    // Partition 0's first produce is never answered and times out at
    // 10 + 50 ms. A record for partition 1 right then pumps the client:
    // the timed-out batch must stay put for the backoff all the same.
    let cfg = ProducerConfig {
        request_timeout: SimDuration::from_millis(50),
        ..cfg()
    };
    let script = [(10, 0, b'A'), (61, 1, b'D')];
    let (produced, retries, acked) = run(cfg, &[], &[(0, 1)], &script);
    let sends: Vec<(u64, u8)> = produced
        .iter()
        .map(|(at, _, v)| (at.as_nanos() / 1_000_000, *v))
        .collect();
    assert_eq!(sends, [(10, b'A'), (61, b'D'), (160, b'A')]);
    assert_eq!((retries, acked), (1, 2));
}
