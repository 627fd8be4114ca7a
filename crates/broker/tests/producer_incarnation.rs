//! `ProducerClient::set_incarnation`: a respawn reuses the process id and a
//! fresh client numbers its requests from the start again, so a produce
//! acknowledged late — addressed to the crashed incarnation — would pass
//! for the acknowledgement of the respawn's own first produce, did the
//! incarnation not set the two apart. (The consumer's side of the same
//! case is in `long_poll.rs`.)

use std::collections::BTreeMap;

use s2g_broker::{ProducerClient, ProducerConfig, ProducerProcess, RateSource};
use s2g_proto::{
    BrokerId, ClientRpc, CorrelationId, ErrorCode, LeaderEpoch, Offset, PartitionMetadata,
    ProducerId, TopicPartition,
};
use s2g_sim::{downcast, Ctx, Message, Process, ProcessId, Sim, SimDuration, SimTime};

const BROKER: ProcessId = ProcessId(0);

/// Leads the topic's one partition and leaves every produce unanswered,
/// keeping its correlation id for the test to answer.
#[derive(Default)]
struct MuteBroker {
    produces: Vec<CorrelationId>,
}

impl Process for MuteBroker {
    fn name(&self) -> &str {
        "mute-broker"
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, msg: Box<dyn Message>) {
        match *downcast::<ClientRpc>(msg).expect("clients speak ClientRpc") {
            ClientRpc::MetadataRequest { corr } => {
                let partitions = vec![PartitionMetadata {
                    tp: TopicPartition::new("t", 0),
                    leader: Some(BrokerId(0)),
                    epoch: LeaderEpoch(0),
                    isr: vec![BrokerId(0)],
                    replicas: vec![BrokerId(0)],
                }];
                ctx.send(from, ClientRpc::MetadataResponse { corr, partitions });
            }
            ClientRpc::ProduceRequest { corr, .. } => self.produces.push(corr),
            other => panic!("unexpected rpc {other:?}"),
        }
    }
}

/// A producer of one record, as incarnation `incarnation` of its process.
fn producer(incarnation: u64) -> ProducerProcess {
    let brokers: BTreeMap<BrokerId, ProcessId> = [(BrokerId(0), BROKER)].into();
    let cfg = ProducerConfig::default();
    let mut client = ProducerClient::new(ProducerId(1), cfg, BROKER, brokers, 0);
    client.set_incarnation(incarnation);
    let source = RateSource::new("t", 1, SimDuration::from_millis(10));
    ProducerProcess::new(client, Box::new(source))
}

#[test]
fn an_ack_to_the_incarnation_before_a_respawn_completes_nothing() {
    let ms = SimTime::from_millis;
    let mut sim = Sim::new(1);
    assert_eq!(sim.spawn(Box::new(MuteBroker::default())), BROKER);
    let pid = sim.spawn(Box::new(producer(0)));
    sim.run_until(ms(100));
    sim.kill(pid).expect("alive");
    sim.respawn(pid, Box::new(producer(1)));
    sim.run_until(ms(200));
    // Each incarnation's one produce is waiting for its acknowledgement;
    // the broker gets round to them in the order they came.
    let broker = sim.process_ref::<MuteBroker>(BROKER).expect("the broker");
    let produces = broker.produces.clone();
    assert_eq!(produces.len(), 2);
    for (n, corr) in produces.into_iter().enumerate() {
        let ack = ClientRpc::ProduceResponse {
            corr,
            tp: TopicPartition::new("t", 0),
            base_offset: Offset::ZERO,
            error: ErrorCode::None,
        };
        sim.inject_at(sim.now(), pid, ack);
        sim.run_until(sim.now() + SimDuration::from_millis(1));
        let p = sim.process_ref::<ProducerProcess>(pid).expect("producer");
        let acked = p.client().stats().acked;
        assert_eq!(acked, n as u64, "only its own produce is its to complete");
    }
}
