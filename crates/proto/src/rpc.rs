//! RPC vocabulary: client↔broker, broker↔broker, broker↔controller, and the
//! KRaft metadata quorum.

use std::fmt;
use std::rc::Rc;

use s2g_sim::Message;

use crate::record::{
    Compression, Offset, ProducerId, RecordBatch, RecordRef, TopicPartition, BATCH_OVERHEAD,
};

/// Identifies a broker in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BrokerId(pub u32);

impl fmt::Display for BrokerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Matches a response to its request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CorrelationId(pub u64);

/// Monotonically increasing per-partition leadership epoch; fences stale
/// leaders and stale metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LeaderEpoch(pub u64);

impl LeaderEpoch {
    /// The epoch after this one.
    pub fn next(self) -> LeaderEpoch {
        LeaderEpoch(self.0 + 1)
    }
}

/// Producer acknowledgement mode (Kafka's `acks`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AckMode {
    /// Acknowledge once the leader has appended (`acks=1`, the Kafka 2.x
    /// default, and the mode under which the ZooKeeper-era partition bug
    /// silently loses data).
    #[default]
    Leader,
    /// Acknowledge once all in-sync replicas have appended (`acks=all`).
    All,
}

/// Error codes carried in responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// Success.
    None,
    /// The receiving broker is not the partition leader.
    NotLeader,
    /// Unknown topic or partition.
    UnknownTopicPartition,
    /// Fetch offset is beyond the log end (or before log start).
    OffsetOutOfRange,
    /// The broker is fenced (lost its controller session in KRaft mode).
    Fenced,
    /// Not enough in-sync replicas to satisfy `acks=all`.
    NotEnoughReplicas,
    /// The request carried a stale leader epoch.
    StaleEpoch,
    /// The consumer group's membership or assignment changed; the member
    /// must rejoin to learn the new generation and assignment.
    RebalanceInProgress,
    /// The request carried a stale group generation (or an unknown member):
    /// a fenced offset commit from an evicted member, or a heartbeat from a
    /// forgotten one. The member must rejoin.
    IllegalGeneration,
}

impl ErrorCode {
    /// True for `ErrorCode::None`.
    pub fn is_ok(self) -> bool {
        self == ErrorCode::None
    }

    /// True for errors that a client should retry against fresh metadata.
    pub fn is_retriable(self) -> bool {
        matches!(
            self,
            ErrorCode::NotLeader
                | ErrorCode::Fenced
                | ErrorCode::NotEnoughReplicas
                | ErrorCode::StaleEpoch
        )
    }

    /// True for errors that require the consumer to rejoin its group.
    pub fn needs_rejoin(self) -> bool {
        matches!(
            self,
            ErrorCode::RebalanceInProgress | ErrorCode::IllegalGeneration
        )
    }
}

/// Leadership metadata for one partition, as served to clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionMetadata {
    /// The partition described.
    pub tp: TopicPartition,
    /// Current leader, if one is elected.
    pub leader: Option<BrokerId>,
    /// Current leadership epoch.
    pub epoch: LeaderEpoch,
    /// In-sync replica set.
    pub isr: Vec<BrokerId>,
    /// Full replica assignment (first entry is the preferred leader).
    pub replicas: Vec<BrokerId>,
}

impl PartitionMetadata {
    fn encoded_len(&self) -> usize {
        self.tp.topic.len() + 16 + 6 * (self.isr.len() + self.replicas.len())
    }
}

/// Fixed per-RPC envelope overhead (API key, version, correlation, client id).
pub const RPC_OVERHEAD: usize = 38;

/// Client ↔ broker RPCs (produce, fetch, metadata).
#[derive(Debug, Clone)]
pub enum ClientRpc {
    /// Append a batch to a partition.
    ProduceRequest {
        /// Correlation id.
        corr: CorrelationId,
        /// Target partition.
        tp: TopicPartition,
        /// Records to append.
        batch: RecordBatch,
        /// Acknowledgement mode.
        acks: AckMode,
        /// The leader epoch the producer believes is current for `tp`
        /// (from its metadata cache). A broker whose leadership epoch is
        /// newer rejects the request with [`ErrorCode::StaleEpoch`] — this
        /// is the fence that bounces a delayed produce aimed at a deposed
        /// leader's reign after a new election.
        epoch: LeaderEpoch,
        /// When set, the batch is part of the producer's open transaction
        /// with this sequence number: the records are appended but withheld
        /// from read-committed consumers until an [`EndTxn`] commit marker
        /// arrives (a checkpoint-aligned transactional sink's staging
        /// write).
        ///
        /// [`EndTxn`]: ClientRpc::EndTxn
        txn: Option<u64>,
    },
    /// Result of a produce.
    ProduceResponse {
        /// Correlation id.
        corr: CorrelationId,
        /// Target partition.
        tp: TopicPartition,
        /// Offset of the first appended record (when successful).
        base_offset: Offset,
        /// Outcome.
        error: ErrorCode,
    },
    /// Read records from a partition starting at `offset`.
    FetchRequest {
        /// Correlation id.
        corr: CorrelationId,
        /// Source partition.
        tp: TopicPartition,
        /// First offset wanted.
        offset: Offset,
        /// Cap on returned records.
        max_records: usize,
        /// Read-committed isolation: records of an open transaction are
        /// withheld (the fetch is capped at the partition's last stable
        /// offset) and records of aborted transactions are skipped.
        read_committed: bool,
    },
    /// Records returned by a fetch.
    FetchResponse {
        /// Correlation id.
        corr: CorrelationId,
        /// Source partition.
        tp: TopicPartition,
        /// Records at and after the requested offset (up to the high
        /// watermark only — uncommitted records are never served), as the
        /// log's own runs: views of the batches they were produced in, so
        /// a reply copies no record however many runs it spans. They
        /// travel as one batch on the wire.
        runs: Vec<LogRun>,
        /// The codec the partition is served under.
        compression: Compression,
        /// The partition's high watermark.
        high_watermark: Offset,
        /// The offset the consumer should fetch next. On a compacted log
        /// the served records are not contiguous, so advancing by their
        /// count would re-read across the holes; the broker computes
        /// the correct next position instead. On `OffsetOutOfRange` this is
        /// the reset position (the log start below retention, the high
        /// watermark above it).
        next_offset: Offset,
        /// Outcome.
        error: ErrorCode,
    },
    /// Ask any broker for cluster metadata.
    MetadataRequest {
        /// Correlation id.
        corr: CorrelationId,
    },
    /// Cluster metadata snapshot.
    MetadataResponse {
        /// Correlation id.
        corr: CorrelationId,
        /// Per-partition leadership info.
        partitions: Vec<PartitionMetadata>,
    },
    /// Durably record a consumer group's positions on the broker, so a
    /// recovering consumer resumes where the group left off instead of
    /// resetting to the high watermark (Kafka's `OffsetCommit`).
    OffsetCommit {
        /// Correlation id.
        corr: CorrelationId,
        /// Consumer group name.
        group: String,
        /// Positions to record, one per partition.
        offsets: Vec<(TopicPartition, Offset)>,
        /// Generation fencing: `(member id, generation)` of the committing
        /// member. When present, the coordinator rejects the commit with
        /// [`ErrorCode::IllegalGeneration`] unless the member is current at
        /// exactly that generation — a zombie evicted by a rebalance can
        /// never clobber the offsets its successor is advancing. `None`
        /// (group-less or membership-less commits) skips the fence.
        member: Option<(String, u64)>,
    },
    /// Acknowledgement of an offset commit.
    OffsetCommitResponse {
        /// Correlation id.
        corr: CorrelationId,
        /// Outcome.
        error: ErrorCode,
    },
    /// Read a consumer group's committed positions (Kafka's `OffsetFetch`).
    OffsetFetch {
        /// Correlation id.
        corr: CorrelationId,
        /// Consumer group name.
        group: String,
        /// Partitions of interest.
        tps: Vec<TopicPartition>,
    },
    /// Committed positions for the requested partitions; `None` when the
    /// group has no commit recorded for a partition.
    OffsetFetchResponse {
        /// Correlation id.
        corr: CorrelationId,
        /// Per-partition committed position, aligned with the request.
        offsets: Vec<(TopicPartition, Option<Offset>)>,
    },
    /// Flip a transaction marker: commit makes the staged records visible
    /// to read-committed consumers, abort hides them forever (Kafka's
    /// `EndTxn`). Applied on every partition this broker hosts.
    EndTxn {
        /// Correlation id.
        corr: CorrelationId,
        /// The transactional producer.
        producer: ProducerId,
        /// The transaction's sequence number.
        txn: u64,
        /// True to commit, false to abort.
        commit: bool,
    },
    /// Acknowledgement of an [`EndTxn`](ClientRpc::EndTxn).
    EndTxnResponse {
        /// Correlation id.
        corr: CorrelationId,
        /// Outcome.
        error: ErrorCode,
    },
    /// Resolve every open transaction a crashed producer incarnation left
    /// behind: transactions at or below `commit_upto` are committed (their
    /// prepare completed — the matching checkpoint is durable), newer ones
    /// are aborted and will be re-staged by the recovered worker's replay.
    /// Only transactions staged under a producer epoch *below* `epoch` are
    /// touched (Kafka-style fencing), so a delayed or retried recover can
    /// never abort the new incarnation's own staged output.
    TxnRecover {
        /// Correlation id.
        corr: CorrelationId,
        /// The transactional producer being recovered.
        producer: ProducerId,
        /// Highest transaction sequence whose commit must roll forward.
        commit_upto: u64,
        /// The recovering incarnation's producer epoch; only transactions
        /// from older epochs are resolved.
        epoch: u32,
    },
    /// Acknowledgement of a [`TxnRecover`](ClientRpc::TxnRecover).
    TxnRecoverResponse {
        /// Correlation id.
        corr: CorrelationId,
    },
    /// Join (or rejoin) a consumer group on its coordinator broker
    /// (`fnv1a(group) % brokers`). The coordinator admits the member,
    /// bumps the generation when membership changed, computes a sticky
    /// partition assignment server-side (KIP-848 style), and answers with
    /// [`JoinGroupResponse`](ClientRpc::JoinGroupResponse).
    JoinGroup {
        /// Correlation id.
        corr: CorrelationId,
        /// Consumer group name.
        group: String,
        /// This member's stable id (survives rejoin; a respawned stub
        /// reuses it, which is what makes assignment sticky across its
        /// crash).
        member: String,
        /// Topics the member subscribes to.
        topics: Vec<String>,
    },
    /// The coordinator's admission + assignment answer.
    JoinGroupResponse {
        /// Correlation id.
        corr: CorrelationId,
        /// The group generation this assignment belongs to; commits and
        /// heartbeats are fenced against it.
        generation: u64,
        /// Partitions this member owns until the next rebalance.
        assigned: Vec<TopicPartition>,
        /// Outcome.
        error: ErrorCode,
    },
    /// Group-membership liveness beacon. A member whose heartbeats stop
    /// for the group session timeout is evicted and its partitions are
    /// reassigned to the survivors.
    GroupHeartbeat {
        /// Correlation id.
        corr: CorrelationId,
        /// Consumer group name.
        group: String,
        /// The heartbeating member.
        member: String,
        /// The generation the member believes is current.
        generation: u64,
    },
    /// Heartbeat answer. [`ErrorCode::RebalanceInProgress`] (stale
    /// generation) or [`ErrorCode::IllegalGeneration`] (unknown member —
    /// evicted, or the coordinator restarted) sends the member back to
    /// [`JoinGroup`](ClientRpc::JoinGroup).
    GroupHeartbeatResponse {
        /// Correlation id.
        corr: CorrelationId,
        /// Outcome.
        error: ErrorCode,
    },
    /// Purge each partition below its offset (Kafka's `DeleteRecords`): the
    /// leader advances the log start to the offset, clamped to its high
    /// watermark, and drops the whole segments below it; its followers
    /// drop the same ones once a replica fetch reply tells them the new
    /// start. Sent, one request per leader, by a partition's only reader
    /// once its commit of those offsets is acknowledged. Unanswered: the
    /// next commit supersedes a lost request.
    DeleteRecords {
        /// The partitions this broker leads, each with its new log start.
        parts: Vec<(TopicPartition, Offset)>,
    },
}

impl Message for ClientRpc {
    fn wire_size(&self) -> usize {
        RPC_OVERHEAD
            + match self {
                ClientRpc::ProduceRequest { tp, batch, .. } => {
                    tp.topic.len() + 8 + batch.wire_len()
                }
                ClientRpc::ProduceResponse { tp, .. } => tp.topic.len() + 16,
                ClientRpc::FetchRequest { tp, .. } => tp.topic.len() + 20,
                ClientRpc::FetchResponse {
                    tp,
                    runs,
                    compression,
                    ..
                } => {
                    let record_bytes = LogRun::record_bytes(runs);
                    tp.topic.len() + 24 + BATCH_OVERHEAD + compression.compressed_len(record_bytes)
                }
                ClientRpc::MetadataRequest { .. } => 4,
                ClientRpc::MetadataResponse { partitions, .. } => {
                    partitions
                        .iter()
                        .map(PartitionMetadata::encoded_len)
                        .sum::<usize>()
                        + 8
                }
                ClientRpc::OffsetCommit {
                    group,
                    offsets,
                    member,
                    ..
                } => {
                    group.len()
                        + offsets
                            .iter()
                            .map(|(tp, _)| tp.topic.len() + 12)
                            .sum::<usize>()
                        + member.as_ref().map_or(0, |(m, _)| m.len() + 8)
                }
                ClientRpc::OffsetCommitResponse { .. } => 6,
                ClientRpc::OffsetFetch { group, tps, .. } => {
                    group.len() + tps.iter().map(|tp| tp.topic.len() + 4).sum::<usize>()
                }
                ClientRpc::OffsetFetchResponse { offsets, .. } => {
                    offsets
                        .iter()
                        .map(|(tp, _)| tp.topic.len() + 13)
                        .sum::<usize>()
                        + 4
                }
                ClientRpc::EndTxn { .. } => 21,
                ClientRpc::EndTxnResponse { .. } => 6,
                ClientRpc::TxnRecover { .. } => 24,
                ClientRpc::TxnRecoverResponse { .. } => 4,
                ClientRpc::JoinGroup {
                    group,
                    member,
                    topics,
                    ..
                } => group.len() + member.len() + topics.iter().map(|t| t.len() + 2).sum::<usize>(),
                ClientRpc::JoinGroupResponse { assigned, .. } => {
                    14 + assigned.iter().map(|tp| tp.topic.len() + 4).sum::<usize>()
                }
                ClientRpc::GroupHeartbeat { group, member, .. } => group.len() + member.len() + 12,
                ClientRpc::GroupHeartbeatResponse { .. } => 6,
                ClientRpc::DeleteRecords { parts } => {
                    parts.iter().map(|(tp, _)| tp.topic.len() + 12).sum()
                }
            }
    }
}

/// The leader state every replica-fetch reply hands the follower, so that
/// transactional and idempotence state moves with leadership instead of
/// dying with the old leader. A leader builds it when the state changes,
/// not per reply: replies share one immutable value until then, and a
/// follower handed the very same value again has nothing new to learn.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct MirrorView {
    /// Ongoing (unresolved) transaction ranges on the leader, as
    /// `(producer, txn, first_offset, end_offset, producer_epoch)`
    /// tuples. Followers mirror these so that on promotion the new
    /// leader can serve read-committed fetches and resolve or fence
    /// the in-flight transactions itself.
    pub txn_ongoing: Vec<(u32, u64, Offset, Offset, u32)>,
    /// Aborted transaction ranges `(first_offset, end_offset)` still
    /// inside the leader's log, mirrored for read-committed filtering
    /// after promotion.
    pub txn_aborted: Vec<(Offset, Offset)>,
    /// Producer idempotence state `(producer, epoch, last_seq)`,
    /// mirrored so a promoted follower keeps filtering duplicate
    /// produce retries exactly where the old leader left off.
    pub producer_seqs: Vec<(u32, u32, u64)>,
}

/// One followed partition's part of a replica fetch.
#[derive(Debug, Clone)]
pub struct ReplicaFetchPart {
    /// Partition replicated.
    pub tp: TopicPartition,
    /// Follower's current log end offset.
    pub log_end: Offset,
    /// Follower's view of the leader epoch.
    pub epoch: LeaderEpoch,
}

/// A run of a partition log: records at the contiguous offsets
/// `[base, base + batch.len())`, all appended under `epoch`, held as a view
/// of the batch they were produced in. A log is a list of runs, a replica
/// fetch reply carries the leader's, and a follower stores them as they
/// come, so every replica of a record shares its one copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRun {
    /// Offset of the first record.
    pub base: Offset,
    /// Leader epoch the records were appended under.
    pub epoch: LeaderEpoch,
    /// The records.
    pub batch: RecordBatch,
}

impl LogRun {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.batch.len()
    }

    /// True when the run holds no record.
    pub fn is_empty(&self) -> bool {
        self.batch.is_empty()
    }

    /// One past the offset of the last record.
    pub fn end(&self) -> Offset {
        Offset(self.base.value() + self.batch.len() as u64)
    }

    /// The part of the run within `[from, to)`, a view of the same records;
    /// empty when the two do not overlap.
    pub fn range(&self, from: Offset, to: Offset) -> LogRun {
        let lo = from.clamp(self.base, self.end());
        let hi = to.clamp(lo, self.end());
        let index = |o: Offset| (o.value() - self.base.value()) as usize;
        LogRun {
            base: lo,
            epoch: self.epoch,
            batch: self.batch.slice(index(lo)..index(hi)),
        }
    }

    /// Record bytes of `runs`, framing included.
    pub fn record_bytes(runs: &[LogRun]) -> usize {
        runs.iter().map(|r| r.batch.record_bytes()).sum()
    }

    /// Each record with its offset and epoch, in offset order.
    pub fn entries(&self) -> impl Iterator<Item = (Offset, LeaderEpoch, RecordRef<'_>)> {
        let (base, epoch) = (self.base.value(), self.epoch);
        (self.batch.iter().enumerate()).map(move |(i, r)| (Offset(base + i as u64), epoch, r))
    }
}

/// The leader's answer to one [`ReplicaFetchPart`].
#[derive(Debug, Clone)]
pub struct ReplicaFetchedPart {
    /// Partition replicated.
    pub tp: TopicPartition,
    /// The leader's runs after the follower's log end, in offset order.
    /// Their offsets are explicit (a compacted leader log has holes, and
    /// replicas must keep the leader's offsets to stay byte-identical) and
    /// their epochs tag the follower's copy for later divergence checks.
    pub runs: Vec<LogRun>,
    /// The codec the leader serves the partition under (its sticky codec).
    pub compression: Compression,
    /// Leader's high watermark.
    pub high_watermark: Offset,
    /// Leader epoch (so stale followers learn they diverged).
    pub epoch: LeaderEpoch,
    /// When set, the follower must truncate its log to this offset
    /// before appending — the divergence-reconciliation path.
    pub truncate_to: Option<Offset>,
    /// The leader's log start, once a [`DeleteRecords`] purge has moved
    /// it: the follower purges its own log to it. `None`, and nothing on
    /// the wire, for a partition never purged.
    ///
    /// [`DeleteRecords`]: ClientRpc::DeleteRecords
    pub log_start: Option<Offset>,
    /// The leader's transactional and idempotence state, shared by
    /// every reply until it next changes.
    pub mirror: Rc<MirrorView>,
    /// Whether `mirror.producer_seqs` are part of this reply: the
    /// stamps ride along only to a fully caught-up follower (then its
    /// log covers every one of them); otherwise the follower ignores
    /// them and the wire does not carry them.
    pub seqs_ride: bool,
    /// Outcome: a part whose partition the receiver does not lead carries
    /// its own error while the request's other parts are served.
    pub error: ErrorCode,
}

impl ReplicaFetchedPart {
    /// The answer to a part the receiver cannot serve.
    pub fn rejected(tp: TopicPartition, error: ErrorCode) -> Self {
        ReplicaFetchedPart {
            tp,
            runs: Vec::new(),
            compression: Compression::None,
            high_watermark: Offset::ZERO,
            epoch: LeaderEpoch(0),
            truncate_to: None,
            log_start: None,
            mirror: Rc::default(),
            seqs_ride: false,
            error,
        }
    }

    /// Number of records the part carries.
    pub fn records(&self) -> usize {
        self.runs.iter().map(LogRun::len).sum()
    }

    /// The runs travel as one batch: one header, each record's offset, and
    /// the record bytes after the codec's ratio.
    fn wire_size(&self) -> usize {
        let seqs = if self.seqs_ride {
            self.mirror.producer_seqs.len()
        } else {
            0
        };
        let record_bytes = LogRun::record_bytes(&self.runs);
        let log_start = if self.log_start.is_some() { 8 } else { 0 };
        self.tp.topic.len()
            + 32
            + log_start
            + self.records() * 8
            + BATCH_OVERHEAD
            + self.compression.compressed_len(record_bytes)
            + self.mirror.txn_ongoing.len() * 32
            + self.mirror.txn_aborted.len() * 16
            + seqs * 16
    }
}

/// Broker ↔ broker replication RPCs (follower-driven fetch, like Kafka:
/// one fetch per leader covers every partition followed from it).
#[derive(Debug, Clone)]
pub enum ReplicaRpc {
    /// Follower asks a leader for the records after its log ends.
    Fetch {
        /// Correlation id.
        corr: CorrelationId,
        /// The requesting follower.
        from: BrokerId,
        /// One part per partition followed from this leader, in partition
        /// order.
        parts: Vec<ReplicaFetchPart>,
    },
    /// Leader's reply to a replica fetch.
    FetchResponse {
        /// Correlation id.
        corr: CorrelationId,
        /// One part per request part, in request order.
        parts: Vec<ReplicaFetchedPart>,
    },
}

impl Message for ReplicaRpc {
    fn wire_size(&self) -> usize {
        RPC_OVERHEAD
            + match self {
                ReplicaRpc::Fetch { parts, .. } => {
                    parts.iter().map(|p| p.tp.topic.len() + 24).sum::<usize>()
                }
                ReplicaRpc::FetchResponse { parts, .. } => {
                    parts.iter().map(ReplicaFetchedPart::wire_size).sum()
                }
            }
    }
}

/// A record in the cluster metadata log (KRaft) or ZooKeeper znode update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetadataRecord {
    /// A topic was created.
    TopicCreated {
        /// Topic name.
        topic: String,
        /// Number of partitions.
        partitions: u32,
        /// Replication factor.
        replication: u32,
    },
    /// Partition leadership or ISR changed.
    PartitionChange {
        /// The partition.
        tp: TopicPartition,
        /// New leader (None while a new election is pending).
        leader: Option<BrokerId>,
        /// New ISR.
        isr: Vec<BrokerId>,
        /// New epoch.
        epoch: LeaderEpoch,
    },
    /// A broker registered (or re-registered) with the controller.
    BrokerRegistered {
        /// The broker.
        broker: BrokerId,
    },
    /// A broker was fenced (session expired / heartbeats lost).
    BrokerFenced {
        /// The broker.
        broker: BrokerId,
    },
}

impl MetadataRecord {
    fn encoded_len(&self) -> usize {
        match self {
            MetadataRecord::TopicCreated { topic, .. } => topic.len() + 16,
            MetadataRecord::PartitionChange { tp, isr, .. } => tp.topic.len() + 20 + 6 * isr.len(),
            MetadataRecord::BrokerRegistered { .. } | MetadataRecord::BrokerFenced { .. } => 8,
        }
    }
}

/// Broker ↔ controller RPCs (sessions, ISR changes, metadata propagation).
#[derive(Debug, Clone)]
pub enum ControllerRpc {
    /// Periodic broker liveness heartbeat (ZooKeeper session touch / KRaft
    /// broker heartbeat).
    Heartbeat {
        /// The broker.
        broker: BrokerId,
        /// The broker process's incarnation, bumped on every respawn. A
        /// jump tells the controller the broker bounced — even within its
        /// session timeout — so it re-teaches partition roles and metadata
        /// (Kafka's broker epoch).
        incarnation: u64,
    },
    /// Heartbeat acknowledgement; carries the controller's metadata version
    /// so brokers notice staleness.
    HeartbeatAck {
        /// Controller metadata version.
        metadata_version: u64,
        /// Whether the broker is fenced and must stop serving.
        fenced: bool,
    },
    /// Leader asks the controller to record an ISR change.
    AlterIsr {
        /// The partition.
        tp: TopicPartition,
        /// Requesting leader.
        from: BrokerId,
        /// Leader's epoch (stale requests are rejected).
        epoch: LeaderEpoch,
        /// Proposed new ISR.
        new_isr: Vec<BrokerId>,
    },
    /// Controller instructs a broker about partition leadership.
    LeaderAndIsr {
        /// The partition.
        tp: TopicPartition,
        /// The leader (None = leaderless, awaiting election).
        leader: Option<BrokerId>,
        /// In-sync replicas.
        isr: Vec<BrokerId>,
        /// Leadership epoch.
        epoch: LeaderEpoch,
        /// Full replica set (first = preferred leader).
        replicas: Vec<BrokerId>,
    },
    /// Controller pushes a metadata delta to brokers/clients.
    MetadataUpdate {
        /// Changed records.
        records: Vec<MetadataRecord>,
        /// Metadata version after applying.
        metadata_version: u64,
    },
}

impl Message for ControllerRpc {
    fn wire_size(&self) -> usize {
        RPC_OVERHEAD
            + match self {
                ControllerRpc::Heartbeat { .. } => 16,
                ControllerRpc::HeartbeatAck { .. } => 12,
                ControllerRpc::AlterIsr { tp, new_isr, .. } => {
                    tp.topic.len() + 20 + 6 * new_isr.len()
                }
                ControllerRpc::LeaderAndIsr {
                    tp, isr, replicas, ..
                } => tp.topic.len() + 20 + 6 * (isr.len() + replicas.len()),
                ControllerRpc::MetadataUpdate { records, .. } => {
                    records
                        .iter()
                        .map(MetadataRecord::encoded_len)
                        .sum::<usize>()
                        + 12
                }
            }
    }
}

/// Raft RPCs for the KRaft metadata quorum.
#[derive(Debug, Clone)]
pub enum RaftRpc {
    /// Candidate solicits a vote.
    RequestVote {
        /// Candidate's term.
        term: u64,
        /// The candidate.
        candidate: BrokerId,
        /// Index of the candidate's last log entry.
        last_log_index: u64,
        /// Term of the candidate's last log entry.
        last_log_term: u64,
    },
    /// Vote reply.
    VoteResponse {
        /// Voter's current term.
        term: u64,
        /// Whether the vote was granted.
        granted: bool,
        /// The voter.
        from: BrokerId,
    },
    /// Leader replicates metadata log entries.
    AppendEntries {
        /// Leader's term.
        term: u64,
        /// The leader.
        leader: BrokerId,
        /// Index of the entry preceding `entries`.
        prev_log_index: u64,
        /// Term of that entry.
        prev_log_term: u64,
        /// New entries as `(term, record)` pairs.
        entries: Vec<(u64, MetadataRecord)>,
        /// Leader's commit index.
        leader_commit: u64,
    },
    /// Append reply.
    AppendResponse {
        /// Follower's current term.
        term: u64,
        /// Whether the entries were appended.
        success: bool,
        /// Follower's resulting log end index (for match tracking).
        match_index: u64,
        /// The follower.
        from: BrokerId,
    },
}

impl Message for RaftRpc {
    fn wire_size(&self) -> usize {
        RPC_OVERHEAD
            + match self {
                RaftRpc::RequestVote { .. } => 28,
                RaftRpc::VoteResponse { .. } => 16,
                RaftRpc::AppendEntries { entries, .. } => {
                    32 + entries
                        .iter()
                        .map(|(_, r)| 8 + r.encoded_len())
                        .sum::<usize>()
                }
                RaftRpc::AppendResponse { .. } => 24,
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Record, RECORD_OVERHEAD};
    use s2g_sim::SimTime;

    #[test]
    fn error_code_classification() {
        assert!(ErrorCode::None.is_ok());
        assert!(!ErrorCode::NotLeader.is_ok());
        assert!(ErrorCode::NotLeader.is_retriable());
        assert!(ErrorCode::Fenced.is_retriable());
        assert!(!ErrorCode::OffsetOutOfRange.is_retriable());
        assert!(!ErrorCode::UnknownTopicPartition.is_retriable());
    }

    #[test]
    fn produce_request_size_scales_with_batch() {
        let tp = TopicPartition::new("t", 0);
        let small = ClientRpc::ProduceRequest {
            corr: CorrelationId(1),
            tp: tp.clone(),
            batch: RecordBatch::from_records(vec![Record::keyless(vec![0u8; 10], SimTime::ZERO)]),
            acks: AckMode::Leader,
            epoch: LeaderEpoch(0),
            txn: None,
        };
        let big = ClientRpc::ProduceRequest {
            corr: CorrelationId(2),
            tp,
            batch: RecordBatch::from_records(vec![Record::keyless(vec![0u8; 1000], SimTime::ZERO)]),
            acks: AckMode::Leader,
            epoch: LeaderEpoch(0),
            txn: None,
        };
        assert_eq!(big.wire_size() - small.wire_size(), 990);
        assert!(small.wire_size() > RPC_OVERHEAD);
    }

    #[test]
    fn metadata_response_size_scales_with_partitions() {
        let one = ClientRpc::MetadataResponse {
            corr: CorrelationId(0),
            partitions: vec![PartitionMetadata {
                tp: TopicPartition::new("topic", 0),
                leader: Some(BrokerId(1)),
                epoch: LeaderEpoch(0),
                isr: vec![BrokerId(1)],
                replicas: vec![BrokerId(1), BrokerId(2)],
            }],
        };
        let none = ClientRpc::MetadataResponse {
            corr: CorrelationId(0),
            partitions: vec![],
        };
        assert!(one.wire_size() > none.wire_size());
    }

    #[test]
    fn raft_append_size_scales_with_entries() {
        let empty = RaftRpc::AppendEntries {
            term: 1,
            leader: BrokerId(0),
            prev_log_index: 0,
            prev_log_term: 0,
            entries: vec![],
            leader_commit: 0,
        };
        let one = RaftRpc::AppendEntries {
            term: 1,
            leader: BrokerId(0),
            prev_log_index: 0,
            prev_log_term: 0,
            entries: vec![(
                1,
                MetadataRecord::BrokerFenced {
                    broker: BrokerId(3),
                },
            )],
            leader_commit: 0,
        };
        assert!(one.wire_size() > empty.wire_size());
    }

    #[test]
    fn offset_rpc_sizes_scale_with_partitions() {
        let one = ClientRpc::OffsetCommit {
            corr: CorrelationId(0),
            group: "g".into(),
            offsets: vec![(TopicPartition::new("topic", 0), Offset(42))],
            member: None,
        };
        let none = ClientRpc::OffsetCommit {
            corr: CorrelationId(0),
            group: "g".into(),
            offsets: vec![],
            member: Some(("m0".into(), 3)),
        };
        assert!(one.wire_size() > none.wire_size());
        let fetch = ClientRpc::OffsetFetch {
            corr: CorrelationId(0),
            group: "g".into(),
            tps: vec![TopicPartition::new("topic", 0)],
        };
        assert!(fetch.wire_size() > RPC_OVERHEAD);
        let resp = ClientRpc::OffsetFetchResponse {
            corr: CorrelationId(0),
            offsets: vec![(TopicPartition::new("topic", 0), Some(Offset(7)))],
        };
        assert!(resp.wire_size() > RPC_OVERHEAD);
    }

    /// A one-part replica fetch costs what the per-partition message
    /// did; every further part adds its own size and no second overhead.
    #[test]
    fn replica_fetch_sizes_are_one_overhead_plus_the_parts() {
        let part = |topic: &str| ReplicaFetchPart {
            tp: TopicPartition::new(topic, 0),
            log_end: Offset(7),
            epoch: LeaderEpoch(1),
        };
        let fetch = |parts| ReplicaRpc::Fetch {
            corr: CorrelationId(0),
            from: BrokerId(1),
            parts,
        };
        assert_eq!(
            fetch(vec![part("topic")]).wire_size(),
            RPC_OVERHEAD + 5 + 24
        );
        assert_eq!(
            fetch(vec![part("topic"), part("ab")]).wire_size(),
            RPC_OVERHEAD + (5 + 24) + (2 + 24)
        );
        let served = |topic: &str, records: usize, seqs_ride| {
            let record = Record::keyless(vec![0u8; 10], SimTime::ZERO);
            let batch = RecordBatch::from_records(vec![record; records]);
            // Two runs of one record each: the reply is still one batch.
            let runs = (0..records).map(|i| LogRun {
                base: Offset(i as u64),
                epoch: LeaderEpoch(1),
                batch: batch.slice(i..i + 1),
            });
            ReplicaFetchedPart {
                runs: runs.collect(),
                mirror: Rc::new(MirrorView {
                    txn_ongoing: vec![(1, 1, Offset(0), Offset(1), 0)],
                    txn_aborted: vec![(Offset(0), Offset(1))],
                    producer_seqs: vec![(1, 0, 9); 3],
                }),
                seqs_ride,
                ..ReplicaFetchedPart::rejected(TopicPartition::new(topic, 0), ErrorCode::None)
            }
        };
        let reply = |parts| ReplicaRpc::FetchResponse {
            corr: CorrelationId(0),
            parts,
        };
        let batch = BATCH_OVERHEAD + 2 * (RECORD_OVERHEAD + 10);
        let one = RPC_OVERHEAD + 5 + 32 + 2 * 8 + batch + 32 + 16;
        assert_eq!(reply(vec![served("topic", 2, false)]).wire_size(), one);
        assert_eq!(
            reply(vec![served("topic", 2, true)]).wire_size(),
            one + 3 * 16,
            "dedup stamps are charged only when they ride"
        );
        let purged = ReplicaFetchedPart {
            log_start: Some(Offset(1)),
            ..served("topic", 2, false)
        };
        assert_eq!(
            reply(vec![purged]).wire_size(),
            one + 8,
            "a purged log start is charged only when there is one"
        );
        let rejected =
            ReplicaFetchedPart::rejected(TopicPartition::new("ab", 1), ErrorCode::NotLeader);
        assert_eq!(
            reply(vec![served("topic", 2, false), rejected]).wire_size(),
            one + 2 + 32 + RecordBatch::new().wire_len()
        );
    }

    #[test]
    fn epoch_next() {
        assert_eq!(LeaderEpoch(3).next(), LeaderEpoch(4));
        assert!(LeaderEpoch(3) < LeaderEpoch(4));
    }

    #[test]
    fn ack_mode_default_is_leader() {
        assert_eq!(AckMode::default(), AckMode::Leader);
    }
}
