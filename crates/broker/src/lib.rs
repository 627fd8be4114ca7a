//! # s2g-broker — event streaming platform
//!
//! A from-scratch, protocol-level reproduction of the Apache Kafka behaviors
//! stream2gym's experiments exercise: partitioned replicated logs with
//! leader/follower replication and ISR tracking, a ZooKeeper-style singleton
//! controller and a KRaft-style Raft quorum, preferred-replica election,
//! producer clients with bounded buffers/retries/delivery timeouts, and
//! consumer clients with CPU-gated fetch loops.
//!
//! All components are [`s2g_sim::Process`]es; wire them onto an emulated
//! network (`s2g-net`) and they exhibit the paper's Fig. 6 partition
//! dynamics end to end.
//!
//! # Example: single broker, produce and consume
//!
//! ```
//! use std::collections::BTreeMap;
//! use s2g_broker::{
//!     Broker, BrokerConfig, CollectingSink, ConsumerClient, ConsumerConfig, ConsumerProcess,
//!     ControllerConfig, CoordinationMode, ProducerClient, ProducerConfig, ProducerProcess,
//!     RateSource, TopicSpec, ZkController,
//! };
//! use s2g_proto::{BrokerId, ProducerId};
//! use s2g_sim::{ProcessId, Sim, SimDuration, SimTime};
//!
//! let mut sim = Sim::new(1);
//! // Process ids are assigned sequentially: controller=0, broker=1, ...
//! let controller_pid = ProcessId(0);
//! let broker_pid = ProcessId(1);
//! let brokers: BTreeMap<BrokerId, ProcessId> = [(BrokerId(0), broker_pid)].into();
//! let topics = vec![TopicSpec::new("events")];
//! sim.spawn(Box::new(ZkController::new(ControllerConfig::default(), brokers.clone(), &topics)));
//! sim.spawn(Box::new(Broker::new(
//!     BrokerId(0),
//!     BrokerConfig::default(),
//!     CoordinationMode::Zk,
//!     vec![controller_pid],
//!     brokers.clone(),
//! )));
//! let peer_map: BTreeMap<BrokerId, ProcessId> = brokers.iter().map(|(k, v)| (*k, *v)).collect();
//! let producer = ProducerClient::new(
//!     ProducerId(0), ProducerConfig::default(), broker_pid, peer_map.clone(), 0,
//! );
//! let source = RateSource::new("events", 100, SimDuration::from_millis(10)).payload_bytes(64);
//! sim.spawn(Box::new(ProducerProcess::new(producer, Box::new(source))));
//! let consumer = ConsumerClient::new(
//!     ConsumerConfig::default(), broker_pid, peer_map, vec!["events".into()],
//! );
//! let cons_pid = sim.spawn(Box::new(ConsumerProcess::new(0, consumer, Box::new(CollectingSink::default()))));
//! sim.run_until(SimTime::from_secs(10));
//! let cons = sim.process_ref::<ConsumerProcess>(cons_pid).unwrap();
//! assert_eq!(cons.sink_as::<CollectingSink>().unwrap().deliveries.len(), 100);
//! ```

#![warn(missing_docs)]

mod broker;
mod config;
mod consumer;
mod controller;
mod groups;
mod handover;
mod kraft;
mod log;
mod metadata;
mod partition;
mod producer;
mod sources;
mod table;

pub use broker::{Broker, BrokerRecoveryInfo, BrokerStats, LogBlob};
pub use config::{
    BrokerConfig, ConsumerConfig, ControllerConfig, CoordinationMode, ProducerConfig, TopicSpec,
};
pub use consumer::{
    CollectingSink, ConsumerClient, ConsumerProcess, ConsumerStats, DataSink, CONSUMER_TAGS,
    CONSUMER_TAGS_END,
};
pub use controller::{ClusterState, PartitionState, ZkController};
pub use groups::{GroupCoordinator, GroupCoordinatorStats};
pub use kraft::KraftController;
pub use log::{
    BrokerLogMeta, CleanOutcome, LogSegment, MetaPartitionTxns, MetaTxnEntry, PartitionLog,
    BROKER_LOG_CORR_BASE, DEFAULT_SEGMENT_MAX_RECORDS,
};
pub use metadata::{plan_assignments, plan_assignments_racked, MetadataCache};
pub use partition::FETCH_MAX_WAIT;
pub use producer::{
    DataSource, ProduceOutcome, ProducerClient, ProducerProcess, ProducerStats, SentRecord,
    SourceAction, PRODUCER_TAGS, PRODUCER_TAGS_END,
};
pub use sources::{FileLinesSource, PoissonSource, RandomTopicSource, RateSource};
