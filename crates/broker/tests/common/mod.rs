//! A scripted stand-in for the broker side of the fetch path, for tests of
//! the consumer client alone: it leads every partition of one topic,
//! answers metadata at once, and answers each fetch the way the test's
//! script says.

#![allow(dead_code, reason = "each test file uses its own part of this")]

use std::collections::BTreeMap;

use s2g_broker::{CollectingSink, ConsumerClient, ConsumerConfig, ConsumerProcess, ConsumerStats};
use s2g_proto::{
    BrokerId, ClientRpc, Compression, ErrorCode, LeaderEpoch, LogRun, Offset, PartitionMetadata,
    Record, TopicPartition,
};
use s2g_sim::{downcast, Ctx, Message, Process, ProcessId, Sim, SimDuration, SimTime};

pub const TOPIC: &str = "t";
pub const BROKER: ProcessId = ProcessId(0);
/// One hop of the default transport.
pub const TRANSIT: SimDuration = SimDuration::from_micros(10);

/// How the stub answers one fetch.
pub enum Answer {
    /// At this instant (now or later), with this many records.
    At(SimTime, usize),
    /// At once, with this error.
    Error(ErrorCode),
    Never,
}

pub struct StubBroker {
    partitions: u32,
    /// The answer to the `n`-th fetch (from 1), arriving now.
    script: Box<dyn FnMut(usize, SimTime) -> Answer>,
    /// When each fetch arrived.
    pub fetches: Vec<SimTime>,
    /// Replies waiting for their instant, by timer tag.
    waiting: Vec<Option<(ProcessId, ClientRpc)>>,
    /// How many of them: the stub's own timers in the event queue.
    pub held: usize,
}

impl Process for StubBroker {
    fn name(&self) -> &str {
        "stub-broker"
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, msg: Box<dyn Message>) {
        match *downcast::<ClientRpc>(msg).expect("clients speak ClientRpc") {
            ClientRpc::MetadataRequest { corr } => {
                let lead = |partition| PartitionMetadata {
                    tp: TopicPartition::new(TOPIC, partition),
                    leader: Some(BrokerId(0)),
                    epoch: LeaderEpoch(0),
                    isr: vec![BrokerId(0)],
                    replicas: vec![BrokerId(0)],
                };
                let partitions = (0..self.partitions).map(lead).collect();
                ctx.send(from, ClientRpc::MetadataResponse { corr, partitions });
            }
            ClientRpc::FetchRequest {
                corr, tp, offset, ..
            } => {
                let now = ctx.now();
                self.fetches.push(now);
                let reply = |records: usize, error| {
                    let record = |_| Record::keyless(vec![7u8], now);
                    ClientRpc::FetchResponse {
                        corr,
                        tp: tp.clone(),
                        runs: (records > 0)
                            .then(|| LogRun {
                                base: offset,
                                epoch: LeaderEpoch(0),
                                batch: (0..records).map(record).collect(),
                            })
                            .into_iter()
                            .collect(),
                        compression: Compression::None,
                        high_watermark: Offset(offset.value() + records as u64),
                        next_offset: Offset(offset.value() + records as u64),
                        error,
                    }
                };
                match (self.script)(self.fetches.len(), now) {
                    Answer::At(at, records) if at <= now => {
                        ctx.send(from, reply(records, ErrorCode::None));
                    }
                    Answer::At(at, records) => {
                        ctx.set_timer_at(at, self.waiting.len() as u64);
                        let reply = reply(records, ErrorCode::None);
                        self.waiting.push(Some((from, reply)));
                        self.held += 1;
                    }
                    Answer::Error(error) => ctx.send(from, reply(0, error)),
                    Answer::Never => {}
                }
            }
            other => panic!("unexpected rpc {other:?}"),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        let (to, reply) = self.waiting[tag as usize].take().expect("armed once");
        self.held -= 1;
        ctx.send(to, reply);
    }
}

/// A stub leading `partitions` partitions of [`TOPIC`] (pid [`BROKER`]) and
/// one consumer of the topic polling every `poll_interval`; returns the
/// consumer's pid.
pub fn cluster(
    partitions: u32,
    poll_interval: SimDuration,
    script: impl FnMut(usize, SimTime) -> Answer + 'static,
) -> (Sim, ProcessId) {
    let mut sim = Sim::new(1);
    let broker = sim.spawn(Box::new(StubBroker {
        partitions,
        script: Box::new(script),
        fetches: Vec::new(),
        waiting: Vec::new(),
        held: 0,
    }));
    assert_eq!(broker, BROKER);
    let consumer = sim.spawn(Box::new(consumer(poll_interval)));
    (sim, consumer)
}

/// The consumer [`cluster`] spawns, also for a respawn into its slot.
pub fn consumer(poll_interval: SimDuration) -> ConsumerProcess {
    let brokers: BTreeMap<BrokerId, ProcessId> = [(BrokerId(0), BROKER)].into();
    let cfg = ConsumerConfig {
        poll_interval,
        ..ConsumerConfig::default()
    };
    let client = ConsumerClient::new(cfg, BROKER, brokers, vec![TOPIC.into()]);
    ConsumerProcess::new(0, client, Box::new(CollectingSink::default()))
}

pub fn stats(sim: &Sim, consumer: ProcessId) -> ConsumerStats {
    let process = sim.process_ref::<ConsumerProcess>(consumer);
    process.expect("consumer").client().stats()
}

pub fn stub(sim: &Sim) -> &StubBroker {
    sim.process_ref::<StubBroker>(BROKER).expect("the stub")
}
