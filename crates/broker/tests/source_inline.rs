//! An open-loop producer takes most of its source steps inline: when its
//! next step would be the run's very next event anyway, `step_source` runs
//! it at once through `Ctx::run_ahead` instead of arming a timer and
//! popping it again. The kernel counts those steps in
//! `QueueDiag::inline_steps`, outside `SimStats`.

use std::collections::BTreeMap;

use s2g_broker::{
    Broker, BrokerConfig, CollectingSink, ConsumerClient, ConsumerConfig, ConsumerProcess,
    ControllerConfig, CoordinationMode, ProducerClient, ProducerConfig, ProducerProcess,
    RateSource, TopicSpec, ZkController,
};
use s2g_proto::{BrokerId, ProducerId};
use s2g_sim::{ProcessId, Sim, SimDuration, SimTime};

/// The identity pipeline: one controller, one broker, a producer offering
/// 64 B records every 20 µs, and a consumer collecting them.
#[test]
fn most_source_steps_of_an_identity_shaped_run_skip_the_queue() {
    const RECORDS: u64 = 20_000;
    let mut sim = Sim::new(1);
    let controller = ProcessId(0);
    let broker = ProcessId(1);
    let brokers: BTreeMap<BrokerId, ProcessId> = [(BrokerId(0), broker)].into();
    let topics = [TopicSpec::new("events")];
    let zk = ZkController::new(ControllerConfig::default(), brokers.clone(), &topics);
    sim.spawn(Box::new(zk));
    sim.spawn(Box::new(Broker::new(
        BrokerId(0),
        BrokerConfig::default(),
        CoordinationMode::Zk,
        vec![controller],
        brokers.clone(),
    )));
    let client = ProducerClient::new(
        ProducerId(0),
        ProducerConfig::default(),
        broker,
        brokers.clone(),
        0,
    );
    let source = RateSource::new("events", RECORDS, SimDuration::from_micros(20)).payload_bytes(64);
    let producer = sim.spawn(Box::new(ProducerProcess::new(client, Box::new(source))));
    let consumer = ConsumerClient::new(
        ConsumerConfig::default(),
        broker,
        brokers,
        vec!["events".into()],
    );
    let sink = Box::new(CollectingSink::default());
    let consumer = sim.spawn(Box::new(ConsumerProcess::new(0, consumer, sink)));
    sim.run_until(SimTime::from_secs(5));

    let producer = sim.process_ref::<ProducerProcess>(producer).unwrap();
    assert_eq!(producer.client().stats().acked, RECORDS);
    let consumer = sim.process_ref::<ConsumerProcess>(consumer).unwrap();
    let delivered = consumer
        .sink_as::<CollectingSink>()
        .unwrap()
        .deliveries
        .len();
    assert_eq!(delivered as u64, RECORDS);
    // One step per record plus the one that finds the source done.
    let steps = RECORDS + 1;
    let inline = sim.queue_diag().inline_steps;
    assert!(
        inline * 10 >= steps * 9,
        "{inline} of {steps} source steps ran inline, fewer than 90 %"
    );
    // An inline step is a timer that fired, as far as the stats go.
    assert!(sim.stats().timers_fired > inline);
}
