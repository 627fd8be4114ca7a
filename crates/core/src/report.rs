//! What a run measured: the per-component reports, the run-wide
//! [`RunReport`], and the [`RunResult`] that pairs it with live handles.

use std::collections::BTreeMap;
use std::fmt;

use s2g_broker::{BrokerStats, ConsumerStats, ProduceOutcome, ProducerStats, SentRecord};
use s2g_net::NetHandle;
use s2g_proto::{BrokerId, ProducerId, TopicPartition};
use s2g_sim::{CpuHandle, LedgerHandle, ProcessId, Sim, SimDuration, SimStats, SimTime};
use s2g_spe::{BatchMetric, CheckpointStats, Event};
use s2g_telemetry::{MetricSeries, SummaryStats, Telemetry};

use crate::monitor::{DeliveryMatrix, MonitorHandle};
use crate::resources::ServerSpec;
#[cfg(doc)]
use crate::{MonitorCore, Scenario};

/// Crash/restart bookkeeping for one client stub targeted by the fault
/// plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientRecoveryReport {
    /// When the fault plan killed the stub.
    pub crashed_at: SimTime,
    /// When the respawned stub started (`None`: never restarted).
    pub restarted_at: Option<SimTime>,
}

/// Per-producer results.
#[derive(Debug, Clone)]
pub struct ProducerReport {
    /// Producer id (declaration order).
    pub id: ProducerId,
    /// Counters. For a crashed-and-restarted stub these reflect the
    /// respawned incarnation (the pre-crash one died with its process).
    pub stats: ProducerStats,
    /// Produce-to-ack latency (seconds) over the acknowledged records,
    /// folded as acks arrived; `None` when nothing was acknowledged.
    pub ack_latency: Option<SummaryStats>,
    /// Completed record outcomes. Empty unless the scenario called
    /// [`Scenario::capture_records`].
    pub outcomes: Vec<ProduceOutcome>,
    /// All sends as `(topic, seq, created)`. Empty unless the scenario
    /// called [`Scenario::capture_records`].
    pub sent_index: Vec<SentRecord>,
    /// Crash/restart metrics; present when this stub was crashed by the
    /// fault plan.
    pub recovery: Option<ClientRecoveryReport>,
}

/// Per-consumer results.
#[derive(Debug, Clone, Copy)]
pub struct ConsumerReport {
    /// Consumer index.
    pub id: u32,
    /// Counters. For a crashed-and-restarted stub these reflect the
    /// respawned incarnation.
    pub stats: ConsumerStats,
    /// Crash/restart metrics; present when this stub was crashed by the
    /// fault plan.
    pub recovery: Option<ClientRecoveryReport>,
}

/// Per-broker results.
#[derive(Debug, Clone)]
pub struct BrokerReport {
    /// Broker id.
    pub id: BrokerId,
    /// Counters.
    pub stats: BrokerStats,
    /// Leadership transitions (time, partition, became-leader).
    pub leadership_events: Vec<(SimTime, TopicPartition, bool)>,
    /// Crash/recovery metrics; present when this broker was crashed by the
    /// fault plan.
    pub recovery: Option<BrokerRecoveryReport>,
}

/// Recovery metrics for one crashed (and possibly restarted) broker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrokerRecoveryReport {
    /// When the fault plan killed the broker.
    pub crashed_at: SimTime,
    /// When the respawned broker started (`None`: never restarted).
    pub restarted_at: Option<SimTime>,
    /// When log replay completed and the broker resumed serving.
    pub recovered_at: Option<SimTime>,
    /// Records rebuilt from persisted segments.
    pub replayed_records: u64,
    /// Encoded segment bytes read back during replay.
    pub replayed_bytes: u64,
    /// Segments read back during replay.
    pub replayed_segments: u64,
    /// Bytes compaction/retention reclaimed before the crash — replay work
    /// the restarted broker never had to do. The replay-savings half of the
    /// bounded-recovery story.
    pub replay_saved_bytes: u64,
    /// Distinct partitions some *other* broker was elected leader of at or
    /// after the crash — leadership that moved off (or shuffled around)
    /// this broker while it was down. Zero at RF=1: nobody else can take
    /// over, the partitions just go dark.
    pub leadership_moves: u64,
    /// ISR shrink events recorded cluster-wide over the run (leaders
    /// dropping a lagging or dead replica from the in-sync set).
    pub isr_shrinks: u64,
    /// ISR expand events recorded cluster-wide over the run (caught-up
    /// followers re-admitted to the in-sync set).
    pub isr_expands: u64,
}

impl BrokerRecoveryReport {
    /// Restart-to-serving latency: what durable-log replay costs.
    pub fn replay_latency(&self) -> Option<SimDuration> {
        match (self.restarted_at, self.recovered_at) {
            (Some(a), Some(b)) => Some(b.saturating_since(a)),
            _ => None,
        }
    }

    /// Crash-to-serving latency: the broker's unavailability window.
    pub fn unavailability(&self) -> Option<SimDuration> {
        self.recovered_at
            .map(|t| t.saturating_since(self.crashed_at))
    }
}

/// Per-store-replica results.
#[derive(Debug, Clone)]
pub struct StoreReport {
    /// The declared store host (the group's name).
    pub host: String,
    /// Replica index within the group (0 = initial primary).
    pub replica: u32,
    /// KV keys resident at the end of the run.
    pub kv_keys: u64,
    /// Whether this replica was the acting primary at the end of the run.
    pub is_primary: bool,
    /// Group op-log entries still retained at the end of the run (bounded
    /// by peer-acked truncation).
    pub oplog_len: u64,
    /// Ops this replica discarded as primary via peer-acked truncation.
    pub oplog_truncated: u64,
    /// Crash/recovery metrics; present when this replica was crashed by the
    /// fault plan.
    pub recovery: Option<StoreRecoveryReport>,
}

/// Recovery metrics for one crashed (and possibly restarted) store replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreRecoveryReport {
    /// When the fault plan killed the replica.
    pub crashed_at: SimTime,
    /// When the respawned replica started (`None`: never restarted).
    pub restarted_at: Option<SimTime>,
    /// When op-log catch-up completed and the replica rejoined its group.
    pub resynced_at: Option<SimTime>,
    /// Ops pulled from a peer during catch-up.
    pub sync_ops: u64,
    /// Approximate bytes transferred during catch-up.
    pub sync_bytes: u64,
}

impl StoreRecoveryReport {
    /// Crash-to-rejoined latency: how long the group ran a member short.
    pub fn unavailability(&self) -> Option<SimDuration> {
        self.resynced_at
            .map(|t| t.saturating_since(self.crashed_at))
    }
}

/// Per-SPE-job results.
#[derive(Debug, Clone)]
pub struct SpeReport {
    /// Per-batch metrics.
    pub metrics: Vec<BatchMetric>,
    /// `(records_in, records_out)` through the plan.
    pub record_counts: (u64, u64),
    /// Locally collected results (Collect sink only).
    pub collected: Vec<Event>,
    /// Mean runtime over non-empty batches.
    pub mean_busy_runtime: SimDuration,
    /// Checkpoint counters (zeros when checkpointing is disabled).
    pub checkpoints: CheckpointStats,
    /// `(accepted, durable)` instants of every persisted capture — the
    /// per-checkpoint latency series (what store replication inflates).
    pub checkpoint_log: Vec<(SimTime, SimTime)>,
    /// The worker's embedded consumer counters; `offset_resets == 0` on a
    /// recovery run means the worker resumed from committed offsets.
    pub consumer_stats: ConsumerStats,
    /// The worker's embedded producer counters (zeros without a topic
    /// sink): `retries` is where a produce storm against a stale leader
    /// shows, which no standalone producer's report does.
    pub producer_stats: ProducerStats,
    /// Crash/recovery metrics; present when this job was crashed by the
    /// fault plan.
    pub recovery: Option<RecoveryReport>,
}

/// Recovery metrics for one crashed (and possibly restarted) SPE job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// When the fault plan killed the worker.
    pub crashed_at: SimTime,
    /// When the respawned worker started (None: never restarted).
    pub restarted_at: Option<SimTime>,
    /// When state restoration completed.
    pub restored_at: Option<SimTime>,
    /// Capture time of the newest restored chain element.
    pub snapshot_taken_at: Option<SimTime>,
    /// Encoded bytes read back during restore (base + deltas).
    pub snapshot_bytes: u64,
    /// Deltas applied on top of the base during restore (0 for a full
    /// snapshot restore).
    pub delta_chain_len: u64,
    /// Completion time of the first post-restart batch with input.
    pub first_batch_at: Option<SimTime>,
}

impl RecoveryReport {
    /// Crash-to-first-processed-batch latency: the user-visible outage.
    pub fn recovery_latency(&self) -> Option<SimDuration> {
        self.first_batch_at
            .map(|t| t.saturating_since(self.crashed_at))
    }

    /// Restart-to-restore latency: what the state backend costs.
    pub fn restore_latency(&self) -> Option<SimDuration> {
        match (self.restarted_at, self.restored_at) {
            (Some(a), Some(b)) => Some(b.saturating_since(a)),
            _ => None,
        }
    }
}

/// Everything measured during a run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Scenario name.
    pub name: String,
    /// Configured duration.
    pub duration: SimTime,
    /// The modeled server.
    pub server: ServerSpec,
    /// Kernel counters.
    pub sim_stats: SimStats,
    /// Producer results, by declaration order.
    pub producers: Vec<ProducerReport>,
    /// Consumer results, by declaration order.
    pub consumers: Vec<ConsumerReport>,
    /// Broker results, by id.
    pub brokers: Vec<BrokerReport>,
    /// Store-replica results, in flattened replica order (declaration
    /// order x replication factor). Empty when no store is declared.
    pub stores: Vec<StoreReport>,
    /// SPE results, by job name. For parallel jobs this is the aggregated
    /// view (stage-0 input, last-stage output, summed counters); the
    /// per-instance breakdown is in
    /// [`spe_instances`](RunReport::spe_instances).
    pub spe: BTreeMap<String, SpeReport>,
    /// Per-instance SPE results of parallel jobs, keyed by
    /// `job/stage/instance` (empty when no job is parallel).
    pub spe_instances: BTreeMap<String, SpeReport>,
    /// Every time series of the run, as the telemetry sampler collected it
    /// (empty when sampling is disabled via [`Scenario::with_telemetry`]):
    /// consumer lag per partition, per-instance record counts, broker
    /// log/LSO gauges, checkpoint counters, store op-log lengths, and the
    /// resource model — `server/mem_bytes`, `server/cpu_utilization`,
    /// `host-<h>/cpu_occupancy`, and `host-<n>/tx_mbps`/`rx_mbps` of the
    /// nodes named to [`Scenario::watch_throughput`].
    pub metric_series: Vec<MetricSeries>,
    /// Times a shared [`RecordBatch`](s2g_proto::RecordBatch) had to be
    /// deep-copied during the run. The batch-first data plane keeps this at
    /// zero; a regression that reintroduces per-consumer record cloning
    /// shows up here (also exported as the `runtime/shared_batch_copies`
    /// telemetry counter).
    pub shared_batch_copies: u64,
}

impl RunReport {
    /// The `(scope, name)` time series; `None` when the sampler never saw
    /// that metric.
    pub fn series(&self, scope: &str, name: &str) -> Option<&MetricSeries> {
        (self.metric_series.iter()).find(|s| s.scope == scope && s.name == name)
    }

    /// A series of the resource model, which every sampled run has.
    ///
    /// # Panics
    ///
    /// Panics on an unsampled run: it has no such series, which is not the
    /// same as having used no memory or CPU.
    fn server_series(&self, name: &str) -> impl Iterator<Item = f64> + '_ {
        let series = self.series("server", name).unwrap_or_else(|| {
            panic!(
                "no `server/{name}` series: nothing sampled this run \
                 (`Scenario::with_telemetry(false)`, or it ended before the \
                 first `telemetry_interval`)"
            )
        });
        series.points.iter().map(|(_, v)| *v)
    }

    /// Peak memory observed: the maximum of `server/mem_bytes`. Panics on
    /// a run with [`Scenario::with_telemetry`] off.
    pub fn peak_mem_bytes(&self) -> u64 {
        self.server_series("mem_bytes").fold(0.0, f64::max) as u64
    }

    /// Peak memory as a fraction of the server's memory.
    pub fn peak_mem_fraction(&self) -> f64 {
        self.peak_mem_bytes() as f64 / self.server.mem_bytes as f64
    }

    /// CPU utilization samples as plain numbers (for CDFs): the
    /// `server/cpu_utilization` series. Panics as
    /// [`peak_mem_bytes`](RunReport::peak_mem_bytes) does.
    pub fn cpu_samples(&self) -> Vec<f64> {
        self.server_series("cpu_utilization").collect()
    }
}

/// A finished run: the report plus live handles for deeper inspection.
pub struct RunResult {
    /// The simulator (query processes via `process_ref`).
    pub sim: Sim,
    /// The emulated network.
    pub net: NetHandle,
    /// The delivery monitor.
    pub monitor: MonitorHandle,
    /// The memory ledger.
    pub ledger: LedgerHandle,
    /// Per-host CPU models.
    pub cpus: BTreeMap<String, CpuHandle>,
    /// Broker process ids, by broker id.
    pub broker_pids: Vec<ProcessId>,
    /// Producer process ids, by declaration order.
    pub producer_pids: Vec<ProcessId>,
    /// Consumer process ids, by declaration order.
    pub consumer_pids: Vec<ProcessId>,
    /// SPE worker process ids: by job name for classic jobs, by
    /// `job/stage/instance` for parallel jobs' instances.
    pub spe_pids: BTreeMap<String, ProcessId>,
    /// Store process ids, by host (a replicated store's replica 0).
    pub store_pids: BTreeMap<String, ProcessId>,
    /// Every store replica's process id, by declared host, in member-index
    /// order (equals `store_pids` singletons without replication).
    pub store_group_pids: BTreeMap<String, Vec<ProcessId>>,
    /// The run-wide telemetry handle: the live metrics registry, the
    /// sampled time series (`tidy_csv()`), and the causal event trace
    /// (`chrome_json()` when tracing was enabled).
    pub telemetry: Telemetry,
    /// The measurements.
    pub report: RunReport,
}

impl RunResult {
    /// Builds the Fig. 6b delivery matrix for one producer across all
    /// consumers.
    ///
    /// # Panics
    ///
    /// Panics unless the scenario called [`Scenario::capture_records`]: the
    /// matrix is made of record identities.
    pub fn delivery_matrix(&self, producer_idx: usize) -> DeliveryMatrix {
        let p = &self.report.producers[producer_idx];
        let consumers: Vec<u32> = self.report.consumers.iter().map(|c| c.id).collect();
        let core = self.monitor.borrow();
        DeliveryMatrix::build(&core, p.id, p.sent_index.clone(), &consumers)
    }

    /// Mean end-to-end latency over a topic's deliveries.
    pub fn mean_latency(&self, topic: &str) -> Option<SimDuration> {
        self.monitor.borrow().mean_latency(topic)
    }

    /// Total records delivered across all consumers.
    pub fn total_deliveries(&self) -> usize {
        self.monitor.borrow().total_deliveries() as usize
    }
}

impl fmt::Debug for RunResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunResult")
            .field("report", &self.report.name)
            .field("deliveries", &self.total_deliveries())
            .finish()
    }
}
