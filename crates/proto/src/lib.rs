//! # s2g-proto — shared wire types
//!
//! Records, batches, and the RPC vocabulary spoken between producers,
//! consumers, brokers, and the cluster controller. Every RPC implements
//! [`s2g_sim::Message`] with a realistic [`wire_size`](s2g_sim::Message::wire_size)
//! so the emulated network charges link bandwidth for actual payload bytes,
//! mirroring how real Kafka frames occupy stream2gym's `tc`-shaped links.

#![warn(missing_docs)]

pub mod batch;
pub mod codec;
pub mod hash;
mod record;
mod rpc;

pub use batch::{put_frame_record, read_frame_record, MIN_FRAME_RECORD};
pub use hash::{fnv1a, key_group, owner_of_group, partition_for_key};
pub use record::{
    shared_batch_copies, utf8_lossy, BatchBuilder, BatchIter, Columns, Compression, Offset,
    ProducerId, Record, RecordBatch, RecordRef, Shape, TopicName, TopicPartition, RECORD_OVERHEAD,
};
pub use rpc::{
    AckMode, BrokerId, ClientRpc, ControllerRpc, CorrelationId, ErrorCode, LeaderEpoch, LogRun,
    MetadataRecord, MirrorView, PartitionMetadata, ReplicaFetchPart, ReplicaFetchedPart,
    ReplicaRpc, RPC_OVERHEAD,
};
