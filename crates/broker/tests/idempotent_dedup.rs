//! Idempotent-producer dedup on the broker's append path.
//!
//! The broker checks a produce batch against its per-partition dedup state
//! once per *run* of records from one producer, not once per record. These
//! tests pin the per-record semantics that must survive that: a record with
//! a same-or-older `(epoch, seq)` than the highest its producer has appended
//! is a duplicate, and a later record of a batch sees the earlier records of
//! the same batch — with several producers interleaved in one batch, with
//! duplicates inside the batch, and when the whole batch is retried.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use s2g_broker::{
    Broker, BrokerConfig, ControllerConfig, CoordinationMode, TopicSpec, ZkController,
};
use s2g_proto::{
    AckMode, BrokerId, ClientRpc, CorrelationId, ErrorCode, LeaderEpoch, ProducerId, Record,
    RecordBatch, TopicPartition,
};
use s2g_sim::{downcast, Ctx, Message, Process, ProcessId, Sim, SimDuration, SimTime};

/// `(producer, producer_epoch, producer_seq)` of one record.
type Stamp = (u32, u32, u64);

/// Sends its batches to the leader, one every 10 ms.
struct RawProducer {
    target: ProcessId,
    tp: TopicPartition,
    epoch: LeaderEpoch,
    batches: Vec<RecordBatch>,
    acked: usize,
}

impl Process for RawProducer {
    fn name(&self) -> &str {
        "raw-producer"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for i in 0..self.batches.len() as u64 {
            ctx.set_timer(SimDuration::from_millis(10 * i), i);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        ctx.send(
            self.target,
            ClientRpc::ProduceRequest {
                corr: CorrelationId(tag),
                tp: self.tp.clone(),
                batch: self.batches[tag as usize].clone(),
                acks: AckMode::Leader,
                epoch: self.epoch,
                txn: None,
            },
        );
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: ProcessId, msg: Box<dyn Message>) {
        if let Ok(rpc) = downcast::<ClientRpc>(msg) {
            if let ClientRpc::ProduceResponse { error, .. } = *rpc {
                assert_eq!(error, ErrorCode::None, "duplicates are acked, not refused");
                self.acked += 1;
            }
        }
    }
}

fn batch_of(stamps: &[Stamp], tag: &mut u32) -> RecordBatch {
    stamps
        .iter()
        .map(|&(producer, epoch, seq)| {
            // A unique payload per *sent* record, so the log shows which of
            // two records with one stamp was the one appended.
            *tag += 1;
            Record::keyless(tag.to_le_bytes().to_vec(), SimTime::ZERO)
                .from_producer(ProducerId(producer), seq)
                .with_producer_epoch(epoch)
        })
        .collect()
}

/// The rule, one record at a time: a lookup and a write-back per record.
/// Returns the payloads appended, in order, and the duplicates filtered.
fn oracle(batches: &[RecordBatch]) -> (Vec<Vec<u8>>, u64) {
    let mut last: BTreeMap<u32, (u32, u64)> = BTreeMap::new();
    let (mut log, mut dups) = (Vec::new(), 0);
    for r in batches.iter().flatten() {
        let stamp = (r.producer_epoch(), r.producer_seq());
        if last.get(&r.producer().0).is_some_and(|l| stamp <= *l) {
            dups += 1;
        } else {
            last.insert(r.producer().0, stamp);
            log.push(r.value().to_vec());
        }
    }
    (log, dups)
}

/// Runs `batches` through a real single-broker cluster; returns the log's
/// payloads and `duplicates_filtered`.
fn through_the_broker(batches: Vec<RecordBatch>) -> (Vec<Vec<u8>>, u64) {
    let mut sim = Sim::new(3);
    let controller_pid = ProcessId(0);
    let broker_pid = ProcessId(1);
    let brokers: BTreeMap<BrokerId, ProcessId> = [(BrokerId(0), broker_pid)].into();
    sim.spawn(Box::new(ZkController::new(
        ControllerConfig::default(),
        brokers.clone(),
        &[TopicSpec::new("t")],
    )));
    sim.spawn(Box::new(Broker::new(
        BrokerId(0),
        BrokerConfig::default(),
        CoordinationMode::Zk,
        vec![controller_pid],
        brokers,
    )));
    let tp = TopicPartition::new("t", 0);
    sim.run_until(SimTime::from_secs(2));
    let epoch = sim
        .process_ref::<Broker>(broker_pid)
        .and_then(|b| b.leader_epoch(&tp))
        .expect("the broker leads the partition");
    let n = batches.len();
    let now = sim.now();
    let producer = sim.spawn_at(
        now,
        Box::new(RawProducer {
            target: broker_pid,
            tp: tp.clone(),
            epoch,
            batches,
            acked: 0,
        }),
    );
    sim.run_until(SimTime::from_secs(4));
    assert_eq!(sim.process_ref::<RawProducer>(producer).unwrap().acked, n);
    let broker = sim.process_ref::<Broker>(broker_pid).unwrap();
    let log = broker.log(&tp).expect("partition log");
    let payloads = log.entries().map(|(_, _, r)| r.value().to_vec()).collect();
    (payloads, broker.stats().duplicates_filtered)
}

#[test]
fn interleaved_producers_with_an_in_batch_duplicate_retried_whole() {
    let stamps: [Stamp; 8] = [
        (1, 0, 0),
        (2, 0, 0),
        (1, 0, 1),
        (1, 0, 1), // duplicate of the record just before it
        (2, 0, 1),
        (2, 0, 0), // older than producer 2's previous record
        (1, 1, 0), // bumped epoch: a respawned client, fresh
        (1, 0, 5), // the old incarnation again: stale whatever its seq
    ];
    let mut tag = 0;
    let first = batch_of(&stamps, &mut tag);
    let retry = first.clone();
    let (log, dups) = through_the_broker(vec![first.clone(), retry]);
    // Five fresh records the first time; the retry is all duplicates.
    let fresh: Vec<Vec<u8>> = [0usize, 1, 2, 4, 6]
        .iter()
        .map(|i| first.get(*i).expect("eight records").value().to_vec())
        .collect();
    assert_eq!(log, fresh);
    assert_eq!(dups, 3 + 8);
    assert_eq!(oracle(&[first.clone(), first]), (fresh, 11));
}

#[test]
fn run_wise_dedup_equals_the_per_record_rule() {
    let mut rng = StdRng::seed_from_u64(0xDED0);
    for case in 0..40 {
        // A few batches over few producers, epochs and sequence numbers, so
        // collisions, interleavings and cross-batch state are all common;
        // every batch is then retried whole at the end.
        let mut tag = 0;
        let mut batches: Vec<RecordBatch> = (0..rng.gen_range(1..5))
            .map(|_| {
                let stamps: Vec<Stamp> = (0..rng.gen_range(0..20))
                    .map(|_| {
                        (
                            rng.gen_range(0..3),
                            rng.gen_range(0..2),
                            rng.gen_range(0..6),
                        )
                    })
                    .collect();
                batch_of(&stamps, &mut tag)
            })
            .collect();
        batches.extend(batches.clone());
        let expected = oracle(&batches);
        assert_eq!(through_the_broker(batches), expected, "case {case}");
    }
}
