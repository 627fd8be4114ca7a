//! Configuration for brokers, producers, consumers, and the cluster.
//!
//! These mirror the knobs stream2gym exposes through its YAML component
//! configuration files (`brokerCfg`, `prodCfg`, `consCfg` in Table I) plus
//! the topic configuration graph attribute (`topicCfg`).

use s2g_proto::{AckMode, Compression};
use s2g_sim::SimDuration;

/// How cluster metadata and leader election are coordinated.
///
/// The §V-B partition experiment contrasts the two: the ZooKeeper-era data
/// consolidation mechanism silently discards messages on partition heal,
/// while "we were not able to observe a similar behavior in the more recent
/// Raft-based Kafka".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoordinationMode {
    /// ZooKeeper-style: session-based liveness on a singleton coordinator;
    /// isolated leaders keep serving `acks=1` writes and locally shrink
    /// their ISR, so healing truncates acknowledged records (the
    /// Alquraan et al. OSDI'18 bug reproduced by Fig. 6b).
    #[default]
    Zk,
    /// KRaft-style: a Raft quorum holds the metadata log; leaders require a
    /// fresh controller lease to serve, so an isolated leader rejects
    /// produce requests instead of accepting doomed writes.
    Kraft,
}

/// Per-broker tunables (the `brokerCfg` YAML file).
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    /// Follower replication fetch interval.
    pub replica_fetch_interval: SimDuration,
    /// Max records returned per replica fetch **request**, shared by its
    /// parts in order (one part per partition followed from that leader):
    /// Kafka's `replica.fetch.response.max.bytes`, counted in records. A
    /// reply that reaches it tells the follower to fetch again at once.
    pub replica_fetch_max_records: usize,
    /// A follower lagging longer than this is dropped from the ISR
    /// (Kafka's `replica.lag.time.max.ms`).
    pub replica_lag_max: SimDuration,
    /// How often the leader re-evaluates ISR membership.
    pub isr_check_interval: SimDuration,
    /// Broker → controller heartbeat period.
    pub heartbeat_interval: SimDuration,
    /// In KRaft mode, a broker that has not heard a heartbeat ack within
    /// this window considers itself fenced and stops serving.
    pub session_timeout: SimDuration,
    /// CPU cost per produce/fetch request, base.
    pub cpu_per_request: SimDuration,
    /// CPU cost per record handled.
    pub cpu_per_record: SimDuration,
    /// Background (JVM-style) CPU churn executed every `background_interval`.
    pub background_cpu: SimDuration,
    /// Period of the background churn.
    pub background_interval: SimDuration,
    /// One-time CPU cost of starting the broker (system setup, §VI-C notes
    /// most demand stems from setup).
    pub startup_cpu: SimDuration,
    /// Max records returned per consumer fetch.
    pub fetch_max_records: usize,
    /// Records per log segment before the partition log rolls (Kafka's
    /// `log.segment.bytes`, counted in records here); segments are the unit
    /// of durable-log persistence and restart replay.
    pub log_segment_max_records: usize,
    /// How often a broker with a log backend flushes follower appends,
    /// watermark moves, and committed offsets that are not already covered
    /// by a produce-triggered flush.
    pub log_flush_interval: SimDuration,
    /// How often the log cleaner runs compaction/retention over the
    /// partition logs (Kafka's `log.cleaner` thread). Cleaning only happens
    /// when `log_compaction`, `log_retention_age`, or
    /// `log_retention_bytes` enables a policy.
    pub log_cleanup_interval: SimDuration,
    /// Keyed compaction: keep only the latest committed record per key in
    /// sealed segments (Kafka's `cleanup.policy=compact`). Bounds restart
    /// replay by live keys instead of by history.
    pub log_compaction: bool,
    /// Time-based retention: sealed, fully committed segments whose newest
    /// record is older than this are dropped and the log start advances
    /// (Kafka's `log.retention.ms`).
    pub log_retention_age: Option<SimDuration>,
    /// Size-based retention: oldest sealed committed segments are dropped
    /// until retained bytes fit under this cap (Kafka's
    /// `log.retention.bytes`), per partition.
    pub log_retention_bytes: Option<usize>,
    /// A consumer-group member whose heartbeats stop for longer than this
    /// is evicted by the coordinator and its partitions are reassigned to
    /// the surviving members (Kafka's `group.session.timeout.ms`).
    pub group_session_timeout: SimDuration,
    /// Minimum ISR size for `acks=all` produce (Kafka's
    /// `min.insync.replicas`): when the ISR has shrunk below this, the
    /// leader rejects `acks=all` writes with
    /// [`NotEnoughReplicas`](s2g_proto::ErrorCode::NotEnoughReplicas)
    /// rather than accept records that only a rump quorum would hold.
    pub min_insync_replicas: u32,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            replica_fetch_interval: SimDuration::from_millis(50),
            replica_fetch_max_records: 1_000,
            replica_lag_max: SimDuration::from_secs(10),
            isr_check_interval: SimDuration::from_secs(1),
            heartbeat_interval: SimDuration::from_secs(2),
            session_timeout: SimDuration::from_secs(6),
            cpu_per_request: SimDuration::from_micros(20),
            cpu_per_record: SimDuration::from_micros(2),
            background_cpu: SimDuration::from_millis(5),
            background_interval: SimDuration::from_millis(100),
            startup_cpu: SimDuration::from_millis(600),
            fetch_max_records: 500,
            log_segment_max_records: 128,
            log_flush_interval: SimDuration::from_millis(500),
            log_cleanup_interval: SimDuration::from_secs(5),
            log_compaction: false,
            log_retention_age: None,
            log_retention_bytes: None,
            group_session_timeout: SimDuration::from_secs(4),
            min_insync_replicas: 1,
        }
    }
}

impl BrokerConfig {
    /// True when any cleaning policy (compaction or retention) is enabled.
    pub fn cleaning_enabled(&self) -> bool {
        self.log_compaction
            || self.log_retention_age.is_some()
            || self.log_retention_bytes.is_some()
    }
}

/// Producer client tunables (the `prodCfg` YAML file, Fig. 3a).
#[derive(Debug, Clone)]
pub struct ProducerConfig {
    /// Buffer pool for queued-but-unsent records (Kafka `buffer.memory`;
    /// the paper evaluates 16 MB vs 32 MB in Fig. 9c).
    pub buffer_memory: usize,
    /// Time to wait for more records before sending a partial batch.
    pub linger: SimDuration,
    /// Max records per produce request.
    pub batch_max_records: usize,
    /// Max accumulated record bytes before a batch is sealed and sent even
    /// if `linger` has not elapsed and `batch_max_records` is not reached
    /// (Kafka `batch.size`).
    pub batch_max_bytes: usize,
    /// Compression codec applied when a batch is sealed. Shrinks the wire
    /// footprint of every hop that carries the batch (produce, replica
    /// fetch, consumer fetch) at the price of
    /// [`compress_cpu_per_byte`](Self::compress_cpu_per_byte) here and
    /// [`decompress_cpu_per_byte`](ConsumerConfig::decompress_cpu_per_byte)
    /// on the consumer (Kafka `compression.type`).
    pub compression: Compression,
    /// CPU cost per record byte spent compressing a sealed batch. Only
    /// charged when [`compression`](Self::compression) is not `None`.
    pub compress_cpu_per_byte: SimDuration,
    /// Per-request timeout before a retry (Kafka `request.timeout.ms`,
    /// Fig. 3a shows 2000 ms).
    pub request_timeout: SimDuration,
    /// Total time a record may spend retrying before being reported lost
    /// (Kafka `delivery.timeout.ms`, default 120 s).
    pub delivery_timeout: SimDuration,
    /// How long a batch that bounced off a broker (`NotLeader` and the
    /// like) or timed out waits before it is sent again (Kafka
    /// `retry.backoff.ms`). It waits at the head of its partition's queue,
    /// so the batches behind it wait too and other partitions do not.
    pub retry_backoff: SimDuration,
    /// Acknowledgement mode.
    pub acks: AckMode,
    /// CPU cost per record produced (serialization).
    pub cpu_per_record: SimDuration,
    /// Background CPU churn per `background_interval`.
    pub background_cpu: SimDuration,
    /// Period of the background churn.
    pub background_interval: SimDuration,
    /// One-time startup CPU cost.
    pub startup_cpu: SimDuration,
}

impl Default for ProducerConfig {
    fn default() -> Self {
        ProducerConfig {
            buffer_memory: 32 * 1024 * 1024,
            linger: SimDuration::from_millis(5),
            batch_max_records: 500,
            batch_max_bytes: 64 * 1024,
            compression: Compression::None,
            compress_cpu_per_byte: SimDuration::from_nanos(2),
            request_timeout: SimDuration::from_secs(2),
            delivery_timeout: SimDuration::from_secs(120),
            retry_backoff: SimDuration::from_millis(100),
            acks: AckMode::Leader,
            cpu_per_record: SimDuration::from_micros(3),
            background_cpu: SimDuration::from_millis(2),
            background_interval: SimDuration::from_millis(100),
            startup_cpu: SimDuration::from_millis(300),
        }
    }
}

/// Consumer client tunables (the `consCfg` YAML file).
#[derive(Debug, Clone)]
pub struct ConsumerConfig {
    /// How soon a partition with nothing in flight is tried again: no
    /// leader known, an error reply, a fetch given up on, the group not
    /// joined or its offsets not restored, fresh metadata, or an empty
    /// answer that came back sooner than [`FETCH_MAX_WAIT`]. It is not how
    /// often records are asked for: a fetch that finds nothing is held by
    /// the broker, and the next one goes out when its answer arrives.
    ///
    /// [`FETCH_MAX_WAIT`]: crate::FETCH_MAX_WAIT
    pub poll_interval: SimDuration,
    /// Max records per fetch.
    pub max_poll_records: usize,
    /// CPU cost per record consumed (deserialization + app work); this is
    /// what caps aggregate throughput at the host core count in Fig. 7a.
    pub cpu_per_record: SimDuration,
    /// CPU cost per record byte spent decompressing fetched batches; only
    /// charged when a batch arrives compressed.
    pub decompress_cpu_per_byte: SimDuration,
    /// Background CPU churn per `background_interval`.
    pub background_cpu: SimDuration,
    /// Period of the background churn.
    pub background_interval: SimDuration,
    /// One-time startup CPU cost.
    pub startup_cpu: SimDuration,
    /// Consumer group for broker-side committed offsets (Kafka `group.id`).
    /// When set, the client fetches the group's committed positions before
    /// its first fetch and resumes there — the recovery path after a crash.
    /// `None` (the default) starts every partition at offset zero.
    pub group: Option<String>,
    /// When a group is set and this is non-zero, the client commits its
    /// positions to the broker on this period (Kafka's auto-commit).
    /// [`SimDuration::ZERO`] disables periodic commits; an embedding
    /// checkpoint coordinator then owns the commit schedule.
    pub auto_commit_interval: SimDuration,
    /// Read-committed isolation (Kafka's `isolation.level`): fetches are
    /// capped at the partition's last stable offset and records of aborted
    /// transactions are skipped — required to observe a transactional
    /// sink's exactly-once output.
    pub read_committed: bool,
    /// When a group is set, join the coordinator's membership protocol:
    /// the client fetches only the partitions the coordinator assigned it,
    /// heartbeats to stay admitted, rejoins on rebalance, and stamps
    /// commits with its `(member, generation)` fence. Off (the default),
    /// a grouped client fetches every partition of its subscriptions —
    /// the pre-membership behavior, still right for single-member groups
    /// and statically assigned SPE stage instances.
    pub group_membership: bool,
    /// Membership heartbeat period (only used with `group_membership`).
    pub group_heartbeat_interval: SimDuration,
    /// Stable member id for the membership protocol. Empty picks an
    /// unsticky default; orchestrators set it so a respawned stub rejoins
    /// as itself and sticky assignment gives its old partitions back.
    pub group_member_id: String,
}

impl Default for ConsumerConfig {
    fn default() -> Self {
        ConsumerConfig {
            poll_interval: SimDuration::from_millis(100),
            max_poll_records: 500,
            cpu_per_record: SimDuration::from_micros(2),
            decompress_cpu_per_byte: SimDuration::from_nanos(1),
            background_cpu: SimDuration::from_millis(2),
            background_interval: SimDuration::from_millis(100),
            startup_cpu: SimDuration::from_millis(300),
            group: None,
            auto_commit_interval: SimDuration::ZERO,
            read_committed: false,
            group_membership: false,
            group_heartbeat_interval: SimDuration::from_secs(1),
            group_member_id: String::new(),
        }
    }
}

/// A topic definition from the `topicCfg` graph attribute: name, partition
/// count, replication factor, and optionally a pinned primary (preferred
/// leader) broker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopicSpec {
    /// Topic name.
    pub name: String,
    /// Number of partitions.
    pub partitions: u32,
    /// Replication factor.
    pub replication: u32,
    /// Preferred leader broker (by index) for partition 0; remaining
    /// replicas are assigned round-robin. `None` lets the controller choose.
    pub primary: Option<u32>,
}

impl TopicSpec {
    /// A single-partition, unreplicated topic.
    pub fn new(name: impl Into<String>) -> Self {
        TopicSpec {
            name: name.into(),
            partitions: 1,
            replication: 1,
            primary: None,
        }
    }

    /// Sets the partition count.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn partitions(mut self, n: u32) -> Self {
        assert!(n > 0, "a topic needs at least one partition");
        self.partitions = n;
        self
    }

    /// Sets the replication factor.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn replication(mut self, n: u32) -> Self {
        assert!(n > 0, "replication factor must be at least 1");
        self.replication = n;
        self
    }

    /// Pins the preferred leader broker.
    pub fn primary(mut self, broker: u32) -> Self {
        self.primary = Some(broker);
        self
    }
}

/// Controller tunables.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// A broker whose heartbeat is older than this has its session expired.
    pub session_timeout: SimDuration,
    /// How often the controller scans sessions.
    pub session_check_interval: SimDuration,
    /// Delay after a preferred leader re-registers (and rejoins the ISR)
    /// before leadership is handed back (Kafka's preferred replica
    /// election, Fig. 6d event 4).
    pub preferred_election_delay: SimDuration,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            session_timeout: SimDuration::from_secs(6),
            session_check_interval: SimDuration::from_secs(1),
            preferred_election_delay: SimDuration::from_secs(30),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let b = BrokerConfig::default();
        assert!(b.replica_lag_max > b.replica_fetch_interval);
        assert!(b.session_timeout > b.heartbeat_interval);
        let p = ProducerConfig::default();
        assert!(p.delivery_timeout > p.request_timeout);
        assert_eq!(p.buffer_memory, 32 * 1024 * 1024);
    }

    #[test]
    fn topic_spec_builder() {
        let t = TopicSpec::new("events")
            .partitions(3)
            .replication(2)
            .primary(5);
        assert_eq!(t.name, "events");
        assert_eq!(t.partitions, 3);
        assert_eq!(t.replication, 2);
        assert_eq!(t.primary, Some(5));
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_panics() {
        let _ = TopicSpec::new("t").partitions(0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_replication_panics() {
        let _ = TopicSpec::new("t").replication(0);
    }
}
