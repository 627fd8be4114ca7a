//! The producer's accumulation path: records are written into one buffer
//! per topic, and a flush copies each partition's share into its sealed
//! batch.
//!
//! Two properties, both checked on what a (fake) broker actually receives:
//!
//! * every sealed sub-batch carries exactly the `(key, value, timestamp,
//!   seq)` that was sent, in order, on the partition the key routes to —
//!   over a seeded sweep of keyed / keyless / mixed records on a
//!   multi-partition topic (the offline stand-in for a proptest);
//! * a record rejected by `buffer_memory` leaves no trace: its bytes appear
//!   in no later batch, the records accepted after it in the same batch are
//!   intact, and `buffer_used` returns to zero.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use s2g_broker::{
    DataSource, ProducerClient, ProducerConfig, ProducerProcess, ProducerStats, SourceAction,
};
use s2g_proto::{
    partition_for_key, BrokerId, ClientRpc, ErrorCode, LeaderEpoch, Offset, PartitionMetadata,
    ProducerId, RecordBatch, TopicPartition,
};
use s2g_sim::{downcast, Ctx, Message, Process, ProcessId, Sim, SimDuration, SimTime};

const TOPIC: &str = "t";
const BROKER: ProcessId = ProcessId(0);
const PRODUCER: ProducerId = ProducerId(9);

/// Answers metadata requests and acknowledges every produce, keeping the
/// batches. Acks are withheld until `ack_from` (then sent at once, and
/// immediately from there on).
struct FakeBroker {
    partitions: u32,
    ack_from: SimTime,
    held: Vec<(ProcessId, ClientRpc)>,
    produced: Vec<(TopicPartition, RecordBatch)>,
}

impl Process for FakeBroker {
    fn name(&self) -> &str {
        "fake-broker"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.ack_from.saturating_since(SimTime::ZERO), 0);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, msg: Box<dyn Message>) {
        match *downcast::<ClientRpc>(msg).expect("clients speak ClientRpc") {
            ClientRpc::MetadataRequest { corr } => {
                let partitions = (0..self.partitions)
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
                self.produced.push((tp.clone(), batch));
                let ack = ClientRpc::ProduceResponse {
                    corr,
                    tp,
                    base_offset: Offset::ZERO,
                    error: ErrorCode::None,
                };
                if ctx.now() < self.ack_from {
                    self.held.push((from, ack));
                } else {
                    ctx.send(from, ack);
                }
            }
            other => panic!("unexpected rpc {other:?}"),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        for (to, ack) in self.held.drain(..) {
            ctx.send(to, ack);
        }
    }
}

type Sent = (Option<Vec<u8>>, Vec<u8>, SimTime);

/// Replays a fixed script of `(key, value, gap to the next record)`, after
/// an initial wait that lets the metadata arrive, and logs each record with
/// the time it was handed to the client.
struct Script {
    records: std::vec::IntoIter<(Option<Vec<u8>>, Vec<u8>, SimDuration)>,
    started: bool,
    log: Rc<RefCell<Vec<Sent>>>,
}

impl DataSource for Script {
    fn next(&mut self, now: SimTime, _rng: &mut StdRng) -> SourceAction {
        if !std::mem::replace(&mut self.started, true) {
            return SourceAction::Wait(SimDuration::from_millis(10));
        }
        match self.records.next() {
            Some((key, value, next_after)) => {
                self.log
                    .borrow_mut()
                    .push((key.clone(), value.clone(), now));
                SourceAction::Emit {
                    topic: TOPIC.into(),
                    key,
                    value,
                    next_after,
                }
            }
            None => SourceAction::Done,
        }
    }
}

struct Outcome {
    sent: Vec<Sent>,
    produced: Vec<(TopicPartition, RecordBatch)>,
    stats: ProducerStats,
    buffer_used: usize,
}

fn run(
    cfg: ProducerConfig,
    partitions: u32,
    ack_from: SimTime,
    script: Vec<(Option<Vec<u8>>, Vec<u8>, SimDuration)>,
) -> Outcome {
    let mut sim = Sim::new(1);
    let broker = sim.spawn(Box::new(FakeBroker {
        partitions,
        ack_from,
        held: Vec::new(),
        produced: Vec::new(),
    }));
    assert_eq!(broker, BROKER);
    let brokers: BTreeMap<BrokerId, ProcessId> = [(BrokerId(0), BROKER)].into();
    let log = Rc::new(RefCell::new(Vec::new()));
    let client = ProducerClient::new(PRODUCER, cfg, BROKER, brokers, 0);
    let source = Script {
        records: script.into_iter(),
        started: false,
        log: log.clone(),
    };
    let producer = sim.spawn(Box::new(ProducerProcess::new(client, Box::new(source))));
    sim.run_until(SimTime::from_millis(10_000));
    let client = sim
        .process_ref::<ProducerProcess>(producer)
        .expect("producer")
        .client();
    let (stats, buffer_used) = (client.stats(), client.buffer_used());
    let produced = sim
        .process_ref::<FakeBroker>(BROKER)
        .expect("broker")
        .produced
        .clone();
    let sent = log.borrow().clone();
    Outcome {
        sent,
        produced,
        stats,
        buffer_used,
    }
}

fn arb_bytes(rng: &mut StdRng, max: usize) -> Vec<u8> {
    let len = rng.gen_range(0..=max);
    (0..len).map(|_| rng.gen_range(0..=255u8)).collect()
}

#[test]
fn sealed_batches_carry_what_was_sent_in_order() {
    const PARTITIONS: u32 = 3;
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xACC0 + seed);
        // A third of the runs all keyed, a third all keyless, a third mixed;
        // empty keys and empty values included.
        let mode = seed % 3;
        let n = rng.gen_range(1..400usize);
        let script: Vec<_> = (0..n)
            .map(|_| {
                let keyed = match mode {
                    0 => true,
                    1 => false,
                    _ => rng.gen_range(0..2) == 0,
                };
                let key = keyed.then(|| arb_bytes(&mut rng, 12));
                // Gaps around the 5 ms linger, so batches seal both by
                // linger and by size.
                let gap = SimDuration::from_micros(rng.gen_range(0..3_000));
                (key, arb_bytes(&mut rng, 200), gap)
            })
            .collect();
        let cfg = ProducerConfig {
            batch_max_records: 16,
            ..ProducerConfig::default()
        };
        let out = run(cfg, PARTITIONS, SimTime::ZERO, script);
        assert_eq!(out.stats.sent, n as u64, "seed {seed}");
        assert_eq!(out.stats.acked, n as u64, "seed {seed}");
        assert_eq!(out.buffer_used, 0, "seed {seed}");

        let mut seen = vec![false; n];
        for (nth, (tp, batch)) in out.produced.iter().enumerate() {
            assert_eq!(tp.topic, TOPIC);
            assert!(!batch.is_empty() && batch.len() <= 16, "seed {seed}");
            if mode == 1 {
                // Keyless flushes take the partitions in turn, whole.
                assert_eq!(tp.partition, nth as u32 % PARTITIONS, "seed {seed}");
            }
            let mut prev_seq = None;
            for r in batch.iter() {
                // In send order within the sub-batch...
                assert!(prev_seq < Some(r.producer_seq()), "seed {seed}: order");
                prev_seq = Some(r.producer_seq());
                // ...and exactly the record that was sent under that seq.
                let i = usize::try_from(r.producer_seq()).unwrap();
                let (key, value, at) = &out.sent[i];
                assert_eq!(r.key(), key.as_deref(), "seed {seed} seq {i}");
                assert_eq!(r.value(), &value[..], "seed {seed} seq {i}");
                assert_eq!(r.timestamp(), *at, "seed {seed} seq {i}");
                assert_eq!((r.producer(), r.producer_epoch()), (PRODUCER, 0));
                assert!(!std::mem::replace(&mut seen[i], true), "seq {i} twice");
                if let Some(k) = key {
                    assert_eq!(
                        tp.partition,
                        partition_for_key(k, PARTITIONS),
                        "seed {seed} seq {i}: keyed records route by key hash"
                    );
                }
            }
        }
        assert!(seen.iter().all(|s| *s), "seed {seed}: every record arrived");
    }
}

#[test]
fn a_rejected_record_is_rolled_back_out_of_the_buffer() {
    // 124 encoded bytes per record (100 B value + 24 B framing), room for
    // thirty. One record per millisecond, 20 ms linger, acks withheld until
    // t = 44.5 ms (the source starts at 10 ms):
    //
    //   10..29  batch A (20 records), flushed at 30, in flight, unacked
    //   30..39  batch B accumulates 10 records: the pool is now full
    //   40..44  five records rejected *while B is accumulating*
    //   44.5    A is acked: 20 records' worth of pool comes back
    //   45..49  five more records accepted into B, after the rejected ones
    //   50      B's linger fires
    //
    // If a rejected record's bytes stayed in B's buffer, every view built
    // after it would be shifted onto the wrong bytes.
    const VALUE: usize = 100;
    let cfg = ProducerConfig {
        buffer_memory: 30 * (VALUE + 24),
        linger: SimDuration::from_millis(20),
        ..ProducerConfig::default()
    };
    let total = 60u32;
    let script: Vec<_> = (0..total)
        .map(|i| {
            // Every payload is unique and recognisable.
            let value: Vec<u8> = (0..VALUE).map(|b| (i as u8) ^ (b as u8)).collect();
            (None, value, SimDuration::from_millis(1))
        })
        .collect();
    let out = run(cfg, 1, SimTime::from_micros(44_500), script);

    assert_eq!(out.stats.buffer_rejected, 5);
    assert_eq!(out.stats.sent, u64::from(total) - 5);
    assert_eq!(out.stats.acked, out.stats.sent);
    assert_eq!(out.stats.failed, 0);
    assert_eq!(out.buffer_used, 0, "the pool drains completely");

    // What arrived, in sequence order, is exactly what was sent minus the
    // five records offered at 40..44 ms.
    let mut arrived: Vec<(u64, Vec<u8>)> = out
        .produced
        .iter()
        .flat_map(|(_, b)| b.iter().map(|r| (r.producer_seq(), r.value().to_vec())))
        .collect();
    arrived.sort();
    let expected: Vec<Vec<u8>> = out
        .sent
        .iter()
        .filter(|(_, _, at)| !(40..45).contains(&at.as_millis()))
        .map(|(_, v, _)| v.clone())
        .collect();
    assert_eq!(arrived.len(), expected.len());
    for (i, ((seq, value), want)) in arrived.iter().zip(&expected).enumerate() {
        assert_eq!(*seq, i as u64, "sequence numbers skip no accepted record");
        assert_eq!(value, want, "record {i} carries its own bytes");
    }
    // The batch that saw the rejections holds records from both sides.
    let straddles = out.produced.iter().any(|(_, b)| {
        let at = |ms: u64| b.iter().any(|r| r.timestamp() == SimTime::from_millis(ms));
        at(39) && at(45)
    });
    assert!(
        straddles,
        "the rejections fell inside one accumulating batch"
    );
}
