//! # s2g-bench — the evaluation harness
//!
//! One function per table/figure of the paper's evaluation, shared between
//! the `figures` regeneration binary and the tests that assert the figures'
//! shapes. Each function builds the experiment's scenario(s), runs them, and
//! returns the series the paper plots; `scale` lets tests and CI run reduced
//! versions (shorter durations, fewer points) with the same code path. How
//! fast the emulator itself runs is measured by `benchmark/`, not here.

#![warn(missing_docs)]

pub mod executor;
pub mod experiments;

pub use executor::parallel_map_with;

pub use experiments::{
    broker_recovery_sweep, broker_replication_sweep, compaction_sweep, fig5_sweep, fig6_run,
    fig7a_sweep, fig7b_sweep, fig8_sweep, fig9_sweep, group_by_component, hotpath_sweep,
    scaling_sweep, store_replication_sweep, table2_inventory, throughput_sweep, timeline_sweep,
    BrokerRecoveryPoint, BrokerReplicationPoint, CompactionPoint, Component, Fig6Data, Fig9Point,
    HotpathPoint, ReplicationPoint, Scale, ScalingPoint, ThroughputPoint, TimelineData,
};
