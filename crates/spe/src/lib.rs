//! # s2g-spe — micro-batch stream processing engine
//!
//! The Apache Spark (Streaming) stand-in for stream2gym-rs: dynamically
//! typed [`Event`]s, an operator algebra ([`Map`], `FlatMap`, `Filter`,
//! [`KeyBy`], [`StatefulMap`], [`WindowAggregate`], [`WindowJoin`]) composed
//! into [`Plan`]s, executed by [`SpeWorker`] processes that ingest broker
//! topics, pay per-batch CPU on their emulated host, and emit to topics,
//! stores, or local collections.
//!
//! # Example: a word-split job plan
//!
//! ```
//! use s2g_spe::{Event, Plan, Value};
//! use s2g_sim::SimTime;
//!
//! let mut plan = Plan::new().flat_map("split", |e| {
//!     e.value
//!         .as_str()
//!         .unwrap_or("")
//!         .split_whitespace()
//!         .map(|w| Event { value: Value::Str(w.to_string()), ..e.clone() })
//!         .collect()
//! });
//! let out = plan.run_batch(
//!     SimTime::ZERO,
//!     vec![Event::new(Value::Str("tick tock".into()), SimTime::ZERO)],
//! );
//! assert_eq!(out.len(), 2);
//! ```

#![warn(missing_docs)]

mod checkpoint;
mod event;
mod ops;
mod plan;
mod worker;

pub use checkpoint::{
    CheckpointCfg, CheckpointMode, CheckpointPayload, CheckpointStats, DurableBackend, Recovered,
    RecoveryInfo, SnapshotChain, StateDelta, StateSnapshot, StoreRpcOutcome,
};
pub use event::{CodecError, Event, Value};
pub use ops::{KeyBy, Map, Operator, StatefulMap, WindowAggregate, WindowAssigner, WindowJoin};
pub use plan::Plan;
pub use worker::{BatchMetric, SpeConfig, SpeSink, SpeWorker, StageInstanceCfg};
