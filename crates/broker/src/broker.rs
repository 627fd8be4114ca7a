//! The broker process: partition leadership, replication, and client serving.
//!
//! One [`Broker`] runs per broker host. It serves produce/fetch/metadata
//! requests from clients, replicates partitions follower-fetch style (like
//! Kafka), tracks in-sync replicas, heartbeats the controller, and charges
//! CPU for every request so co-located components contend realistically.
//!
//! The two coordination modes differ in exactly the ways the paper's Fig. 6
//! experiment exposes:
//!
//! * **ZooKeeper mode** — an isolated leader keeps serving `acks=1` writes,
//!   *locally* shrinks its ISR after `replica.lag.time.max`, advances its
//!   high watermark, and serves the doomed records to co-located consumers.
//!   When the partition heals it truncates to the new leader's log and the
//!   acknowledged suffix silently disappears (Fig. 6b's dark cells).
//! * **KRaft mode** — a broker whose controller heartbeats lapse considers
//!   itself fenced and rejects produce/fetch, and ISR changes only apply
//!   once the controller quorum confirms them, so the high watermark never
//!   advances past truly-replicated records.
//!
//! # Durability and restart
//!
//! With a blob client attached ([`Broker::set_durability`]) the broker
//! flushes dirty log segments and a [`BrokerLogMeta`] blob (high
//! watermarks, consumer-group offsets, segment manifest) through it;
//! produce acknowledgements are withheld until the covering flush
//! is durable, so an acknowledged record can never be lost to a broker
//! crash. A durable broker that is a respawn (`Ctx::incarnation` above 0)
//! replays the manifest — meta first, then every live segment — before
//! serving again; client and replica requests arriving during replay are
//! dropped (the process is "booting"), and the controller re-teaches
//! roles when the restarted broker's heartbeat arrives with a bumped
//! incarnation number.

use std::collections::BTreeMap;

use bytes::Bytes;
use s2g_proto::{
    AckMode, BrokerId, ClientRpc, Compression, ControllerRpc, CorrelationId, ErrorCode,
    LeaderEpoch, LogRun, Offset, PartitionMetadata, ReplicaFetchPart, ReplicaFetchedPart,
    ReplicaRpc, TopicPartition,
};
use s2g_sim::{
    corr_incarnation, downcast, Ctx, LedgerHandle, MemSlot, Message, Process, ProcessId,
    SimDuration, SimTime, Waiters,
};
use s2g_store::{BlobClient, BlobDone, StoreRpc};
use s2g_telemetry::{CounterHandle, GaugeHandle, Histogram, HistogramHandle, Telemetry};

use crate::config::{BrokerConfig, CoordinationMode};
use crate::groups::GroupCoordinator;
use crate::handover::PartitionTxns;
use crate::log::{BrokerLogMeta, CleanOutcome, LogSegment, PartitionLog};
use crate::metadata::{send_in, MetadataCache};
use crate::partition::{
    produce_response, FetchAnswer, FetchWaiter, Led, Partition, PendingProduce, FETCH_MAX_WAIT,
};

/// Timer tags used by the broker.
mod tags {
    pub(crate) const ISR_TICK: u64 = 2;
    pub(crate) const HEARTBEAT_TICK: u64 = 3;
    pub(crate) const BACKGROUND_TICK: u64 = 4;
    pub(crate) const LOG_FLUSH_TICK: u64 = 6;
    pub(crate) const LOG_CLEANUP_TICK: u64 = 8;
    /// Plus a leader's id: the end of the backoff before asking it again.
    pub(crate) const REPLICA_BACKOFF: u64 = 1 << 32;
}

/// The broker's label for a blob request: what the blob is.
#[derive(Debug)]
pub enum LogBlob {
    /// The [`BrokerLogMeta`] blob.
    Meta,
    /// One segment of this partition's log.
    Segment(TopicPartition),
}

/// Recovery metrics for one restarted broker incarnation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrokerRecoveryInfo {
    /// When the respawned broker started.
    pub restarted_at: SimTime,
    /// When log replay completed and the broker resumed serving (`None`
    /// while replay is still in flight, or when nothing was recoverable).
    pub recovered_at: Option<SimTime>,
    /// Records rebuilt from persisted segments.
    pub replayed_records: u64,
    /// Encoded segment bytes read back during replay.
    pub replayed_bytes: u64,
    /// Segments read back during replay.
    pub replayed_segments: u64,
    /// Bytes compaction/retention reclaimed before the crash — replay work
    /// the restarted broker was spared (from the recovered meta blob).
    pub replay_saved_bytes: u64,
}

impl BrokerRecoveryInfo {
    fn new(restarted_at: SimTime) -> Self {
        BrokerRecoveryInfo {
            restarted_at,
            recovered_at: None,
            replayed_records: 0,
            replayed_bytes: 0,
            replayed_segments: 0,
            replay_saved_bytes: 0,
        }
    }

    /// Restart-to-serving latency: what log replay costs.
    pub fn replay_latency(&self) -> Option<SimDuration> {
        self.recovered_at
            .map(|t| t.saturating_since(self.restarted_at))
    }
}

/// The broker's durability driver: the blob client (which tracks, matches
/// and re-issues the store I/O) plus flush and recovery policy. (Whether
/// un-flushed mutations exist is [`Host::dirty`]; each partition keeps its
/// own durable end.)
struct Durability {
    blobs: BlobClient<LogBlob>,
    /// Key prefix for this broker's blobs.
    prefix: String,
    /// A flush is awaiting store acks.
    flush_inflight: bool,
    /// A mutation arrived while a flush was in flight; flush again after.
    flush_again: bool,
    /// Dead segment blobs awaiting deletion. The cleaner and purges stage
    /// keys here and they are only deleted once the flush carrying the
    /// *cleaned* manifest is durable — deleting first would let a crash
    /// recover a stale manifest that still lists the blob, truncating the
    /// log at the artificial gap.
    pending_deletes: Vec<String>,
    /// Segments staged during recovery, per partition.
    staged: BTreeMap<TopicPartition, Vec<LogSegment>>,
    /// The recovered meta blob (manifest applied once segments arrive).
    staged_meta: Option<BrokerLogMeta>,
}

impl Durability {
    fn meta_key(&self) -> String {
        format!("{}/meta", self.prefix)
    }

    fn segment_key(&self, tp: &TopicPartition, base: u64) -> String {
        format!("{}/{}/{}", self.prefix, tp, base)
    }

    /// Stages the blob of `tp`'s dropped segment at `base`; it is deleted
    /// only after the flush that persists the manifest without it
    /// completes, so a crash in between still recovers a manifest whose
    /// blobs all exist.
    fn stage_delete(&mut self, tp: &TopicPartition, base: u64) {
        let key = self.segment_key(tp, base);
        self.pending_deletes.push(key);
    }
}

/// Counters exposed for tests and monitoring.
#[derive(Debug, Clone, Copy, Default)]
pub struct BrokerStats {
    /// Produce requests handled.
    pub produces: u64,
    /// Consumer fetch requests handled.
    pub fetches: u64,
    /// Consumer fetches that found nothing to read and were held on their
    /// partition.
    pub fetches_parked: u64,
    /// Held fetches answered empty at their deadline. Against
    /// `fetches_parked` this is the share of waits that ended with nothing
    /// to say: the wasted-work ratio of the fetch path.
    pub fetches_expired: u64,
    /// Replica fetch requests handled (as leader).
    pub replica_fetches: u64,
    /// Replica fetch replies dropped (as follower) because they answered a
    /// request of an earlier incarnation of this broker.
    pub stale_replica_replies: u64,
    /// Records appended (as leader or follower).
    pub records_appended: u64,
    /// Records a leader sent this broker, as follower, that its log already
    /// held: the work of a fetch that raced another for the same range.
    pub replica_records_redundant: u64,
    /// Records discarded by divergence truncation.
    pub records_truncated: u64,
    /// Requests rejected because the broker was fenced.
    pub rejected_fenced: u64,
    /// Requests rejected because this broker was not the leader.
    pub rejected_not_leader: u64,
    /// Produce requests bounced by leader-epoch fencing: the request was
    /// stamped with an epoch older than this leader's reign (a zombie
    /// client, or traffic delayed across an election).
    pub rejected_stale_epoch: u64,
    /// `acks=all` produce requests rejected because the ISR had shrunk
    /// below `min.insync.replicas`.
    pub rejected_not_enough_replicas: u64,
    /// Records dropped by idempotent-producer dedup: a retried batch whose
    /// `(producer, seq)` the log already holds (e.g. the ack was lost to a
    /// broker crash) is acknowledged without a second append.
    pub duplicates_filtered: u64,
    /// ISR shrink events initiated by this broker.
    pub isr_shrinks: u64,
    /// ISR expand proposals initiated by this broker.
    pub isr_expands: u64,
    /// Consumer-group offset commits recorded.
    pub offset_commits: u64,
    /// Consumer-group offset fetches served.
    pub offset_fetches: u64,
    /// Log flushes completed through the attached blob client.
    pub log_flushes: u64,
    /// Encoded segment bytes handed to the blob client.
    pub log_flushed_bytes: u64,
    /// Client/replica requests dropped because the broker was still
    /// replaying its log after a restart.
    pub dropped_recovering: u64,
    /// Log-cleaner passes that removed anything.
    pub cleaner_runs: u64,
    /// Records removed by keyed compaction.
    pub records_compacted: u64,
    /// Record bytes reclaimed by keyed compaction.
    pub compacted_bytes: u64,
    /// Whole segments dropped by time/size retention or by a purge.
    pub segments_retired: u64,
    /// Record bytes reclaimed by retention and purges.
    pub retired_bytes: u64,
    /// Transactions committed (markers flipped to visible).
    pub txns_committed: u64,
    /// Transactions aborted (their records hidden from read-committed
    /// consumers forever).
    pub txns_aborted: u64,
}

/// The metrics a broker updates per request, each looked up in the registry
/// by its first update and never again.
pub(crate) struct HostMetrics {
    pub(crate) batch_records: HistogramHandle,
    pub(crate) batch_bytes: HistogramHandle,
    pub(crate) produces: CounterHandle,
    pub(crate) records_appended: CounterHandle,
    pub(crate) log_bytes: GaugeHandle,
    fetches: CounterHandle,
    pub(crate) fetches_parked: CounterHandle,
    pub(crate) fetches_expired: CounterHandle,
    records_fetched: CounterHandle,
    txns_committed: CounterHandle,
    txns_aborted: CounterHandle,
}

impl HostMetrics {
    fn new(tele: &Telemetry, scope: &str) -> Self {
        HostMetrics {
            batch_records: tele.histogram(scope, "batch_records", Histogram::counts),
            batch_bytes: tele.histogram(scope, "batch_bytes", Histogram::bytes),
            produces: tele.counter(scope, "produces"),
            records_appended: tele.counter(scope, "records_appended"),
            log_bytes: tele.gauge(scope, "log_bytes"),
            fetches: tele.counter(scope, "fetches"),
            fetches_parked: tele.counter(scope, "fetches_parked"),
            fetches_expired: tele.counter(scope, "fetches_expired"),
            records_fetched: tele.counter(scope, "records_fetched"),
            txns_committed: tele.counter(scope, "txns_committed"),
            txns_aborted: tele.counter(scope, "txns_aborted"),
        }
    }
}

/// What a partition needs from the broker hosting it while it works: the
/// broker's identity and configuration, its counters and telemetry, its
/// endpoints, and the CPU-delayed response queue. Kept apart from
/// `Broker::partitions` so a handler can hold one resolved partition and
/// all of this at once.
pub(crate) struct Host {
    pub(crate) id: BrokerId,
    pub(crate) name: String,
    pub(crate) cfg: BrokerConfig,
    pub(crate) mode: CoordinationMode,
    controllers: Vec<ProcessId>,
    pub(crate) peers: BTreeMap<BrokerId, ProcessId>,
    /// Telemetry sink (an unshared default until the orchestrator attaches
    /// the run-wide one).
    pub(crate) tele: Telemetry,
    pub(crate) metrics: HostMetrics,
    pub(crate) stats: BrokerStats,
    /// Total record bytes retained across partition logs.
    pub(crate) retained_bytes: u64,
    mem: Option<(LedgerHandle, MemSlot)>,
    /// A log backend is attached: produce acks wait for the covering flush.
    pub(crate) durable: bool,
    /// Un-flushed mutations exist (segments, watermarks, offsets).
    pub(crate) dirty: bool,
    /// Leadership-change log for the Fig. 6d event markers: (time, partition,
    /// became_leader).
    pub(crate) leadership_events: Vec<(SimTime, TopicPartition, bool)>,
    /// A led partition changed in a way a held replica fetch may be waiting
    /// for: checked once the handler that made the change is done.
    pub(crate) news: bool,
}

impl Host {
    pub(crate) fn send_controllers(&self, ctx: &mut Ctx<'_>, rpc: ControllerRpc) {
        for pid in &self.controllers {
            ctx.send(*pid, rpc.clone());
        }
    }

    /// Answers a client request that touched no records.
    fn reply(&mut self, ctx: &mut Ctx<'_>, to: ProcessId, rpc: ClientRpc) {
        ctx.send_after_cpu(self.cfg.cpu_per_request, to, rpc);
    }

    /// Answers a client fetch of `tp`, at once or after a wait: the reply's
    /// half of the request's accounting (the arrival's is the handler's).
    pub(crate) fn answer_fetch(
        &mut self,
        ctx: &mut Ctx<'_>,
        to: ProcessId,
        corr: CorrelationId,
        tp: &TopicPartition,
        (runs, compression, high_watermark, next_offset, error): FetchAnswer,
    ) {
        let n = runs.iter().map(LogRun::len).sum();
        self.metrics.records_fetched.add(n as u64);
        if self.tele.trace_enabled() && n > 0 {
            let name = format!("fetch:{tp}");
            self.tele
                .trace_instant(ctx.now(), &self.name, &name, "broker");
        }
        let response = ClientRpc::FetchResponse {
            corr,
            tp: tp.clone(),
            runs,
            compression,
            high_watermark,
            next_offset,
            error,
        };
        ctx.send_after_cpu(self.request_cost(n), to, response);
    }

    pub(crate) fn request_cost(&self, records: usize) -> SimDuration {
        self.cfg.cpu_per_request + self.cfg.cpu_per_record * records as u64
    }

    pub(crate) fn update_mem(&self) {
        if let Some((ledger, slot)) = &self.mem {
            ledger.borrow_mut().set_dynamic(*slot, self.retained_bytes);
        }
    }

    /// Counts a client request bounced by [`Partition::admit`].
    pub(crate) fn count_rejection(&mut self, error: ErrorCode) {
        match error {
            ErrorCode::Fenced => self.stats.rejected_fenced += 1,
            ErrorCode::NotLeader => self.stats.rejected_not_leader += 1,
            ErrorCode::StaleEpoch => self.stats.rejected_stale_epoch += 1,
            ErrorCode::NotEnoughReplicas => self.stats.rejected_not_enough_replicas += 1,
            _ => {}
        }
    }
}

/// The partition's record, created on first touch. A free function so call
/// sites can hold other `Broker` borrows.
fn hosted<'p>(
    partitions: &'p mut BTreeMap<TopicPartition, Partition>,
    cfg: &BrokerConfig,
    tp: TopicPartition,
) -> &'p mut Partition {
    partitions.entry(tp).or_insert_with(|| Partition::new(cfg))
}

/// The leader view of `tp` a replica fetch is served through: no epoch to
/// check, no quorum to need ([`Partition::admit`]).
fn led<'p>(
    partitions: &'p mut BTreeMap<TopicPartition, Partition>,
    tp: &'p TopicPartition,
    fenced: bool,
) -> Result<Led<'p>, ErrorCode> {
    Partition::admit(partitions.get_mut(tp), tp, fenced, None, 0)
}

/// Whether serving `parts` of follower `from`'s fetch would tell it
/// anything new: a refused part, or one with news ([`Led::has_news`]).
fn has_news(
    partitions: &mut BTreeMap<TopicPartition, Partition>,
    from: BrokerId,
    parts: &[ReplicaFetchPart],
    fenced: bool,
) -> bool {
    let news = |p: &ReplicaFetchPart| match led(partitions, &p.tp, fenced) {
        Ok(mut l) => l.has_news(from, p.log_end, p.epoch),
        Err(_) => true,
    };
    parts.iter().any(news)
}

/// Purges `tp` below `bound` ([`Partition::purge`]) and stages the dead
/// segment blobs as the cleaner does. A free function so call sites can
/// hold other `Broker` borrows.
fn purge(
    p: &mut Partition,
    host: &mut Host,
    durability: &mut Option<Durability>,
    tp: &TopicPartition,
    bound: Offset,
) {
    p.purge(host, bound, |base| {
        if let Some(d) = durability {
            d.stage_delete(tp, base);
        }
    });
}

/// Bytes compaction, retention and purges reclaimed from the current logs.
fn reclaimed_bytes(partitions: &BTreeMap<TopicPartition, Partition>) -> u64 {
    partitions.values().map(|p| p.log().reclaimed_bytes()).sum()
}

/// The durable meta blob describing the broker's current state: per-
/// partition high watermarks, log starts, and segment manifests plus group
/// offsets and the cumulative cleaning savings.
fn build_meta(
    partitions: &BTreeMap<TopicPartition, Partition>,
    group_offsets: &BTreeMap<(String, TopicPartition), Offset>,
    reclaimed_bytes: u64,
) -> BrokerLogMeta {
    let manifest = |(tp, p): (&TopicPartition, &Partition)| {
        let log = p.log();
        let bases = log
            .segments()
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| s.base_offset().value())
            .collect();
        (tp.clone(), log.high_watermark(), log.log_start(), bases)
    };
    BrokerLogMeta {
        partitions: partitions.iter().map(manifest).collect(),
        group_offsets: group_offsets
            .iter()
            .map(|((g, tp), off)| (g.clone(), tp.clone(), *off))
            .collect(),
        reclaimed_bytes,
        txns: partitions
            .iter()
            .filter_map(|(tp, p)| p.txns_meta(tp))
            .collect(),
    }
}

/// A replica fetch held at its leader until one of its parts has something
/// new to say or [`FETCH_MAX_WAIT`] passes: who sent it, its correlation id
/// and parts, and the box it came in, which carries the reply.
struct HeldFetch {
    pid: ProcessId,
    corr: CorrelationId,
    parts: Vec<ReplicaFetchPart>,
    rpc: Box<ReplicaRpc>,
}

/// What replica fetch round trips leave emptied, kept for the next: the box
/// a reply came in (the next fetch travels in it, as a reply travels in its
/// request's), a served request's part list (the next fetch's) and an
/// applied reply's (the next reply's). A broker leads some partitions and
/// follows others, so each goes round without the allocator.
#[derive(Default)]
struct ReplicaSpares {
    rpc: Option<Box<ReplicaRpc>>,
    asked: Vec<ReplicaFetchPart>,
    served: Vec<ReplicaFetchedPart>,
}

/// A message broker process (the Kafka-broker stand-in).
pub struct Broker {
    /// Everything kept per hosted partition, one record each.
    partitions: BTreeMap<TopicPartition, Partition>,
    host: Host,
    /// Committed consumer-group positions, keyed by `(group, partition)` —
    /// the broker-side half of checkpoint/recovery. Commits survive client
    /// crashes because they live here, not in the consumer.
    group_offsets: BTreeMap<(String, TopicPartition), Offset>,
    /// Consumer-group membership + partition assignment for the groups this
    /// broker coordinates (clients route group RPCs by `fnv1a(group) %
    /// brokers`, so exactly one broker coordinates each group).
    groups: GroupCoordinator,
    metadata: MetadataCache,
    last_hb_ack: SimTime,
    /// Cleaning savings recovered from the pre-crash meta blob; per-log
    /// counters restart at zero after a replay, so this preserves the
    /// lifetime total.
    reclaimed_baseline: u64,
    /// Durable-log driver, when a backend is attached.
    durability: Option<Durability>,
    /// Replay is in flight; client/replica requests are dropped meanwhile.
    recovering: bool,
    /// Restart/replay metrics for the current incarnation.
    recovery: Option<BrokerRecoveryInfo>,
    /// As leader: the replica fetch held for each follower, at most one.
    held: Waiters<BrokerId, HeldFetch>,
    /// As follower: the fetch outstanding at each leader, by correlation
    /// id, until its give-up age. Only its reply sends the next fetch.
    fetching: Waiters<BrokerId, CorrelationId>,
    /// What the last replica fetch round trips left emptied, for the next.
    spares: ReplicaSpares,
}

impl Broker {
    /// Creates a broker.
    ///
    /// `controllers` lists the controller process(es): one for ZooKeeper
    /// mode, the Raft quorum members for KRaft mode (requests are sent to
    /// all; only the active controller answers). `peers` maps every broker
    /// id in the cluster (including this one) to its process id.
    pub fn new(
        id: BrokerId,
        cfg: BrokerConfig,
        mode: CoordinationMode,
        controllers: Vec<ProcessId>,
        peers: BTreeMap<BrokerId, ProcessId>,
    ) -> Self {
        assert!(
            !controllers.is_empty(),
            "a broker needs at least one controller endpoint"
        );
        let name = format!("broker-{}", id.0);
        let tele = Telemetry::new();
        Broker {
            partitions: BTreeMap::new(),
            host: Host {
                id,
                metrics: HostMetrics::new(&tele, &name),
                name,
                cfg,
                mode,
                controllers,
                peers,
                tele,
                stats: BrokerStats::default(),
                retained_bytes: 0,
                mem: None,
                durable: false,
                dirty: false,
                leadership_events: Vec::new(),
                news: false,
            },
            group_offsets: BTreeMap::new(),
            groups: GroupCoordinator::new(),
            metadata: MetadataCache::new(),
            last_hb_ack: SimTime::ZERO,
            reclaimed_baseline: 0,
            durability: None,
            recovering: false,
            recovery: None,
            held: Waiters::default(),
            fetching: Waiters::default(),
            spares: ReplicaSpares::default(),
        }
    }

    /// Attaches a memory-ledger slot for the resource model.
    pub fn set_mem_slot(&mut self, ledger: LedgerHandle, slot: MemSlot) {
        self.host.mem = Some((ledger, slot));
    }

    /// Attaches the run-wide telemetry sink. The broker records produce /
    /// fetch / append counters, log-size and watermark-gap gauges, and
    /// append trace events under its own name (`broker-<id>`). Attach it
    /// before the broker starts: a reign's gap gauges keep the sink they
    /// were made against.
    pub fn set_telemetry(&mut self, tele: Telemetry) {
        self.host.metrics = HostMetrics::new(&tele, &self.host.name);
        self.host.tele = tele;
    }

    /// Attaches the client the log is made durable through. Dirty segments
    /// and the meta blob are flushed through it, and produce
    /// acknowledgements wait for the covering flush (instant on
    /// [`BlobClient::shared`], a store round trip on a store group, whose
    /// retry timer's tag is [`BROKER_LOG_RETRY_TAG`]). A respawned broker
    /// replays the persisted manifest before serving.
    ///
    /// [`BROKER_LOG_RETRY_TAG`]: crate::BROKER_LOG_RETRY_TAG
    pub fn set_durability(&mut self, blobs: BlobClient<LogBlob>) {
        self.durability = Some(Durability {
            blobs,
            prefix: format!("brokerlog/b{}", self.host.id.0),
            flush_inflight: false,
            flush_again: false,
            pending_deletes: Vec::new(),
            staged: BTreeMap::new(),
            staged_meta: None,
        });
        self.host.durable = true;
    }

    /// Restart/replay metrics when this incarnation was respawned.
    pub fn recovery_info(&self) -> Option<BrokerRecoveryInfo> {
        self.recovery
    }

    /// True while the broker is replaying its persisted log after a restart
    /// (client and replica requests are dropped meanwhile).
    pub fn is_recovering(&self) -> bool {
        self.recovering
    }

    /// This broker's id.
    pub fn id(&self) -> BrokerId {
        self.host.id
    }

    /// Counters.
    pub fn stats(&self) -> BrokerStats {
        self.host.stats
    }

    /// The consumer-group coordinator hosted on this broker (generation,
    /// membership, and assignment introspection for tests and monitors).
    pub fn group_coordinator(&self) -> &GroupCoordinator {
        &self.groups
    }

    /// Read access to a partition log (tests, monitors).
    pub fn log(&self, tp: &TopicPartition) -> Option<&PartitionLog> {
        self.partitions.get(tp).map(Partition::log)
    }

    /// The committed position of a consumer group on a partition, if any.
    pub fn committed_offset(&self, group: &str, tp: &TopicPartition) -> Option<Offset> {
        self.group_offsets
            .get(&(group.to_string(), tp.clone()))
            .copied()
    }

    /// The epoch and ISR of this broker's reign over `tp`, when it leads.
    fn reign(&self, tp: &TopicPartition) -> Option<(LeaderEpoch, &[BrokerId])> {
        self.partitions.get(tp)?.reign()
    }

    /// True if this broker currently leads `tp`.
    pub fn is_leader(&self, tp: &TopicPartition) -> bool {
        self.reign(tp).is_some()
    }

    /// The leadership epoch under which this broker currently leads `tp`,
    /// or `None` if it is not the leader. Tests use this to stamp a
    /// deliberately stale produce and pin the fencing behaviour.
    pub fn leader_epoch(&self, tp: &TopicPartition) -> Option<LeaderEpoch> {
        self.reign(tp).map(|(epoch, _)| epoch)
    }

    /// The ISR as this broker (when leader) sees it.
    pub fn isr(&self, tp: &TopicPartition) -> Option<Vec<BrokerId>> {
        self.reign(tp).map(|(_, isr)| isr.to_vec())
    }

    /// Leadership transitions observed, for event-marker plots (Fig. 6d).
    pub fn leadership_events(&self) -> &[(SimTime, TopicPartition, bool)] {
        &self.host.leadership_events
    }

    /// A byte-level fingerprint of one partition log — every entry's
    /// offset, leader epoch, and full record — for replica-identity
    /// assertions: two brokers whose fingerprints match hold
    /// byte-identical logs for the partition.
    pub fn log_fingerprint(&self, tp: &TopicPartition) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for (offset, epoch, record) in self.log(tp).into_iter().flat_map(PartitionLog::entries) {
            let _ = write!(s, "{}:{}:{:?};", offset.value(), epoch.0, record);
        }
        s
    }

    /// Total record bytes retained across partition logs.
    pub fn retained_bytes(&self) -> u64 {
        self.host.retained_bytes
    }

    /// Total bytes compaction, retention and purges reclaimed so far
    /// (including the pre-crash total recovered from the meta blob).
    pub fn reclaimed_bytes(&self) -> u64 {
        self.reclaimed_baseline + reclaimed_bytes(&self.partitions)
    }

    fn is_fenced(&self, now: SimTime) -> bool {
        self.host.mode == CoordinationMode::Kraft
            && now.saturating_since(self.last_hb_ack) > self.host.cfg.session_timeout
    }

    /// The rejection, counted, when this broker is fenced — for the
    /// requests that name no partition (partition RPCs go through
    /// [`Partition::admit`]).
    fn fenced(&mut self, now: SimTime) -> Option<ErrorCode> {
        let error = self.is_fenced(now).then_some(ErrorCode::Fenced)?;
        self.host.count_rejection(error);
        Some(error)
    }

    fn handle_client(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, rpc: ClientRpc) {
        let now = ctx.now();
        let fenced = self.is_fenced(now);
        let host = &mut self.host;
        match rpc {
            ClientRpc::ProduceRequest {
                corr,
                tp,
                batch,
                acks,
                epoch,
                txn,
            } => {
                host.stats.produces += 1;
                let min_isr = match acks {
                    AckMode::All => host.cfg.min_insync_replicas as usize,
                    AckMode::Leader => 0,
                };
                let partition = self.partitions.get_mut(&tp);
                let mut led = match Partition::admit(partition, &tp, fenced, Some(epoch), min_isr) {
                    Ok(led) => led,
                    Err(error) => {
                        host.count_rejection(error);
                        let cost = host.cfg.cpu_per_request;
                        let msg = produce_response(corr, tp, Offset::ZERO, error);
                        return ctx.send_boxed_after_cpu(cost, from, msg);
                    }
                };
                let (base, n) = led.append(now, host, &batch, txn);
                let end = Offset(base.value() + n as u64);
                let need = match acks {
                    AckMode::All => end,
                    AckMode::Leader => Offset::ZERO,
                };
                // With a log backend attached, the ack additionally waits
                // for the covering flush (fsync-before-ack semantics), so an
                // acknowledged record can never be lost to a broker crash.
                let need_durable = if host.durable { end } else { Offset::ZERO };
                if need == Offset::ZERO && need_durable == Offset::ZERO {
                    // acks=1, no durable log: acknowledge immediately; the
                    // HW may advance later via replication.
                    let msg = produce_response(corr, tp.clone(), base, ErrorCode::None);
                    ctx.send_boxed_after_cpu(host.request_cost(n), from, msg);
                    led.advance_hw(ctx, host);
                } else {
                    led.pend(PendingProduce {
                        client: from,
                        corr,
                        need,
                        need_durable,
                        base,
                        records: n,
                    });
                    host.dirty = true;
                    // Watermark first so the flush persists the fresh one;
                    // the ack stays pending until the flush is durable.
                    led.advance_hw(ctx, host);
                    self.flush_logs(ctx);
                }
            }
            ClientRpc::FetchRequest {
                corr,
                tp,
                offset,
                max_records,
                read_committed,
            } => {
                host.stats.fetches += 1;
                host.metrics.fetches.add(1);
                let partition = self.partitions.get_mut(&tp);
                match Partition::admit(partition, &tp, fenced, None, 0) {
                    Ok(mut led) => {
                        let waiter = FetchWaiter {
                            client: from,
                            corr,
                            offset,
                            max_records,
                            read_committed,
                        };
                        led.fetch(ctx, host, waiter);
                    }
                    Err(error) => {
                        host.count_rejection(error);
                        let answer = (Vec::new(), Compression::None, Offset::ZERO, offset, error);
                        host.answer_fetch(ctx, from, corr, &tp, answer);
                    }
                }
            }
            ClientRpc::DeleteRecords { parts } => {
                ctx.charge(host.cfg.cpu_per_request);
                // Only the leader purges on request; its followers follow
                // the log start its replies carry.
                for (tp, offset) in parts {
                    let partition = self.partitions.get_mut(&tp);
                    let leads = Partition::admit(partition, &tp, fenced, None, 0).is_ok();
                    if let Some(p) = self.partitions.get_mut(&tp).filter(|_| leads) {
                        purge(p, host, &mut self.durability, &tp, offset);
                    }
                }
                self.flush_logs(ctx);
            }
            other => self.handle_coordination(ctx, from, other),
        }
    }

    /// The client RPCs that name no single partition: metadata, group
    /// offsets and membership, transaction markers.
    fn handle_coordination(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, rpc: ClientRpc) {
        let now = ctx.now();
        match rpc {
            ClientRpc::MetadataRequest { corr } => {
                let partitions = self.metadata.snapshot();
                let response = ClientRpc::MetadataResponse { corr, partitions };
                self.host.reply(ctx, from, response);
            }
            ClientRpc::OffsetCommit {
                corr,
                group,
                offsets,
                member,
            } => {
                self.host.stats.offset_commits += 1;
                let error = match (self.fenced(now), &member) {
                    (Some(fenced), _) => fenced,
                    // Generation fencing: a commit stamped with a member id
                    // must come from a member current at exactly that
                    // generation — an evicted zombie's commit is rejected
                    // instead of clobbering its successor's positions.
                    (None, Some((m, generation))) => {
                        self.groups.check_commit(&group, m, *generation)
                    }
                    (None, None) => ErrorCode::None,
                };
                if error.is_ok() {
                    for (tp, off) in offsets {
                        self.group_offsets.insert((group.clone(), tp), off);
                    }
                    self.host.dirty = true;
                    self.flush_logs(ctx);
                }
                let response = ClientRpc::OffsetCommitResponse { corr, error };
                self.host.reply(ctx, from, response);
            }
            ClientRpc::OffsetFetch { corr, group, tps } => {
                self.host.stats.offset_fetches += 1;
                let offsets: Vec<(TopicPartition, Option<Offset>)> = tps
                    .into_iter()
                    .map(|tp| {
                        let committed = self.committed_offset(&group, &tp);
                        (tp, committed)
                    })
                    .collect();
                let response = ClientRpc::OffsetFetchResponse { corr, offsets };
                self.host.reply(ctx, from, response);
            }
            ClientRpc::EndTxn {
                corr,
                producer,
                txn,
                commit,
            } => {
                let error = self.fenced(now).unwrap_or(ErrorCode::None);
                if error.is_ok() {
                    self.resolve_txns(ctx, producer.0, |t| t == txn, None, commit);
                }
                self.host
                    .reply(ctx, from, ClientRpc::EndTxnResponse { corr, error });
            }
            ClientRpc::TxnRecover {
                corr,
                producer,
                commit_upto,
                epoch,
            } => {
                // Roll forward every prepared transaction of the crashed
                // incarnation, abort the rest: replay re-stages them. Only
                // pre-`epoch` transactions are touched, so a retried or
                // delayed recover never aborts the new incarnation's own
                // staged output.
                self.resolve_txns(ctx, producer.0, |t| t <= commit_upto, Some(epoch), true);
                self.resolve_txns(ctx, producer.0, |t| t > commit_upto, Some(epoch), false);
                self.host
                    .reply(ctx, from, ClientRpc::TxnRecoverResponse { corr });
            }
            ClientRpc::JoinGroup {
                corr,
                group,
                member,
                topics,
            } => {
                let error = self.fenced(now).unwrap_or(ErrorCode::None);
                let (generation, assigned) = if error.is_ok() {
                    let metadata = &self.metadata;
                    let partitions_of = |t: &str| metadata.partitions_of(t).cloned().collect();
                    self.groups
                        .join(now, &group, &member, topics, &partitions_of)
                } else {
                    (0, Vec::new())
                };
                let response = ClientRpc::JoinGroupResponse {
                    corr,
                    generation,
                    assigned,
                    error,
                };
                self.host.reply(ctx, from, response);
            }
            ClientRpc::GroupHeartbeat {
                corr,
                group,
                member,
                generation,
            } => {
                let error = match self.fenced(now) {
                    Some(fenced) => fenced,
                    None => self.groups.heartbeat(now, &group, &member, generation),
                };
                let response = ClientRpc::GroupHeartbeatResponse { corr, error };
                self.host.reply(ctx, from, response);
            }
            // Partition RPCs are `handle_client`'s; responses are not
            // expected here, brokers only serve.
            _ => {}
        }
    }

    /// Resolves every open transaction of `producer` whose sequence matches
    /// `which` — and, when `below_epoch` is set, whose staging producer
    /// epoch is older than it (the fencing rule) — committing or aborting,
    /// across all hosted partitions. The updated marker state rides the
    /// next meta flush.
    fn resolve_txns(
        &mut self,
        ctx: &mut Ctx<'_>,
        producer: u32,
        which: impl Fn(u64) -> bool,
        below_epoch: Option<u32>,
        commit: bool,
    ) {
        let host = &mut self.host;
        let mut resolved = 0;
        for (tp, p) in self.partitions.iter_mut() {
            let here = p.resolve_txns(producer, &which, below_epoch, commit);
            resolved += here;
            // The last stable offset moved: held read-committed fetches
            // may have something to read, and held replica fetches a new
            // transaction state to mirror.
            if let Some(mut led) = p.led(tp).filter(|_| here > 0) {
                led.wake_waiters(ctx, host);
                host.news = true;
            }
        }
        if resolved == 0 {
            return;
        }
        let metrics = &host.metrics;
        let (count, counter, marker) = if commit {
            let count = &mut host.stats.txns_committed;
            (count, &metrics.txns_committed, "txn:commit")
        } else {
            let count = &mut host.stats.txns_aborted;
            (count, &metrics.txns_aborted, "txn:abort")
        };
        *count += resolved;
        counter.add(resolved);
        if host.tele.trace_enabled() {
            host.tele
                .trace_instant(ctx.now(), &host.name, marker, "txn");
        }
        host.dirty = true;
        self.flush_logs(ctx);
    }

    fn handle_replica(&mut self, ctx: &mut Ctx<'_>, pid: ProcessId, mut rpc: Box<ReplicaRpc>) {
        match &mut *rpc {
            ReplicaRpc::Fetch { corr, from, parts } => {
                let (corr, from, mut parts) = (*corr, *from, std::mem::take(parts));
                self.host.stats.replica_fetches += 1;
                // A newer fetch from the same follower replaces its held one
                // and, from the same incarnation, takes over the parts it
                // does not name: a follower adds a partition to its
                // outstanding fetch by naming it alone.
                if let Some(held) = self.held.take(&from) {
                    let same = corr_incarnation(held.corr.0) == corr_incarnation(corr.0);
                    let unnamed: Vec<_> = (held.parts.into_iter())
                        .filter(|h| same && parts.iter().all(|p| p.tp != h.tp))
                        .collect();
                    parts.extend(unnamed);
                    parts.sort_by(|a, b| a.tp.cmp(&b.tp));
                }
                // What each part claims is recorded once, on arrival.
                let fenced = self.is_fenced(ctx.now());
                for p in &parts {
                    if let Ok(mut l) = led(&mut self.partitions, &p.tp, fenced) {
                        l.note_progress(ctx, &mut self.host, from, p.log_end, p.epoch);
                    }
                }
                // With nothing new to say, it waits: a change to one of its
                // partitions, the end of a reign or its deadline answers it.
                let news = has_news(&mut self.partitions, from, &parts, fenced);
                let h = HeldFetch {
                    pid,
                    corr,
                    parts,
                    rpc,
                };
                if news {
                    self.serve_replica(ctx, from, h);
                } else {
                    self.held.hold(from, h, Some(ctx.now() + FETCH_MAX_WAIT));
                }
            }
            ReplicaRpc::FetchResponse { corr, .. }
                if corr_incarnation(corr.0) != ctx.incarnation() =>
            {
                self.host.stats.stale_replica_replies += 1;
            }
            ReplicaRpc::FetchResponse { corr, parts } => {
                let (corr, parts) = (*corr, std::mem::take(parts));
                self.spares.rpc = Some(rpc);
                self.apply_replica_reply(ctx, pid, corr, parts);
            }
        }
    }

    /// Serves follower `from`'s replica fetch `h` part by part under one
    /// record cap.
    fn serve_replica(&mut self, ctx: &mut Ctx<'_>, from: BrokerId, mut h: HeldFetch) {
        let fenced = self.is_fenced(ctx.now());
        let (host, partitions) = (&mut self.host, &mut self.partitions);
        // The cap is the request's: each part is served from what the parts
        // before it left.
        let cap = host.cfg.replica_fetch_max_records;
        let mut left = cap;
        let mut served = std::mem::take(&mut self.spares.served);
        for p in h.parts.drain(..) {
            served.push(match led(partitions, &p.tp, fenced) {
                Ok(mut l) => {
                    let part = l.serve_fetch(from, p.log_end, p.epoch, left);
                    left -= part.records();
                    part
                }
                Err(error) => ReplicaFetchedPart::rejected(p.tp, error),
            });
        }
        self.spares.asked = h.parts;
        let cost = host.request_cost(cap - left);
        // The reply travels in the request's box.
        *h.rpc = ReplicaRpc::FetchResponse {
            corr: h.corr,
            parts: served,
        };
        ctx.send_boxed_after_cpu(cost, h.pid, h.rpc);
    }

    /// Answers the held replica fetches that have news since a handler
    /// changed a led partition (all of them on a fenced broker), and, on
    /// the background `tick`, those past their deadline.
    fn answer_held(&mut self, ctx: &mut Ctx<'_>, tick: bool) {
        if !std::mem::take(&mut self.host.news) && !tick {
            return;
        }
        let fenced = self.is_fenced(ctx.now());
        let mut held = std::mem::take(&mut self.held);
        held.wake(|from, h| {
            if !fenced && !has_news(&mut self.partitions, *from, &h.parts, fenced) {
                return Some(h);
            }
            self.serve_replica(ctx, *from, h);
            None
        });
        // At a tick, news goes before deadlines: a handler answers the news
        // it makes itself, so only a timer's change (a cleaner pass over a
        // purged or transactional log) leaves news for the tick.
        if tick {
            held.expire(ctx.now(), |from, h| self.serve_replica(ctx, *from, h));
        }
        self.held = held;
    }

    /// As follower, applies a reply from the leader at `pid`. The reply to
    /// the fetch outstanding there sends the next fetch at once, or after
    /// the `replica_fetch_interval` backoff when a part was refused.
    fn apply_replica_reply(
        &mut self,
        ctx: &mut Ctx<'_>,
        pid: ProcessId,
        corr: CorrelationId,
        mut parts: Vec<ReplicaFetchedPart>,
    ) {
        let host = &mut self.host;
        let Some((&leader, _)) = host.peers.iter().find(|(_, p)| **p == pid) else {
            return;
        };
        let mut refused = false;
        for part in parts.drain(..) {
            let Some(p) = self.partitions.get_mut(&part.tp) else {
                continue;
            };
            match p.fetch_answered(leader, part.epoch, part.error) {
                Some(true) => {}
                refusal => {
                    refused |= refusal.is_some();
                    continue;
                }
            }
            if let Some(to) = part.truncate_to {
                p.truncate(host, to);
            }
            let hw = part.high_watermark;
            let n = p.replicate(host, part.runs, part.compression, hw);
            if let Some(start) = part.log_start {
                purge(p, host, &mut self.durability, &part.tp, start);
            }
            let txns_changed = p.mirror(&part.mirror, part.seqs_ride);
            // Follower-side log changes ride the interval flush; no client
            // ack is waiting on them.
            host.dirty |= n > 0 || part.truncate_to.is_some() || txns_changed;
        }
        self.spares.served = parts;
        host.update_mem();
        if self.fetching.get(&leader) == Some(&corr) {
            self.fetching.take(&leader);
            if refused {
                self.back_off(ctx, leader);
            } else {
                self.fetch_from(ctx, leader, None);
            }
        }
    }

    /// Sends `leader` one fetch with a part for every partition followed
    /// from it (or `only` the one named), in partition order. It becomes the
    /// fetch outstanding there: the leader merges it into the one it holds,
    /// the parts it names replacing theirs.
    fn fetch_from(&mut self, ctx: &mut Ctx<'_>, leader: BrokerId, only: Option<&TopicPartition>) {
        let host = &mut self.host;
        let Some(&leader_pid) = host.peers.get(&leader) else {
            return;
        };
        let mut parts = std::mem::take(&mut self.spares.asked);
        parts.extend(
            (self.partitions.iter())
                .filter(|(tp, _)| only.is_none_or(|o| o == *tp))
                .filter_map(|(tp, p)| p.fetch_part(tp, leader)),
        );
        if parts.is_empty() {
            self.spares.asked = parts;
            self.fetching.take(&leader);
            return;
        }
        let corr = CorrelationId(ctx.next_corr());
        let give_up = ctx.now() + host.cfg.replica_fetch_give_up();
        self.fetching.hold(leader, corr, Some(give_up));
        let fetch = ReplicaRpc::Fetch {
            corr,
            from: host.id,
            parts,
        };
        send_in(ctx, leader_pid, &mut self.spares.rpc, fetch);
    }

    /// Asks `leader` again after the `replica_fetch_interval` backoff.
    fn back_off(&mut self, ctx: &mut Ctx<'_>, leader: BrokerId) {
        let backoff = self.host.cfg.replica_fetch_interval;
        ctx.set_timer(backoff, tags::REPLICA_BACKOFF + u64::from(leader.0));
    }

    /// The background tick's look at the replica fetches: those held here
    /// past their deadline are answered, and one outstanding at a leader
    /// past its give-up age ([`BrokerConfig::replica_fetch_give_up`]) was
    /// lost, or its reply was, and is sent again after the backoff.
    fn expire_replica_fetches(&mut self, ctx: &mut Ctx<'_>) {
        self.answer_held(ctx, true);
        let mut fetching = std::mem::take(&mut self.fetching);
        fetching.expire(ctx.now(), |leader, _| self.back_off(ctx, *leader));
        self.fetching = fetching;
    }

    fn isr_tick(&mut self, ctx: &mut Ctx<'_>) {
        // A follower whose fetch is held here is at the log end.
        for (follower, h) in self.held.iter() {
            for p in &h.parts {
                if let Ok(mut l) = led(&mut self.partitions, &p.tp, false) {
                    l.held_at_log_end(*follower, ctx.now());
                }
            }
        }
        for (tp, p) in self.partitions.iter_mut() {
            if let Some(mut led) = p.led(tp) {
                led.shrink_isr(ctx, &mut self.host);
            }
        }
    }

    /// One log-cleaner pass over every hosted partition. Dead segment blobs
    /// are deleted through the backend and the manifest is re-flushed so a
    /// post-clean restart replays only live data.
    fn run_log_cleaner(&mut self, ctx: &mut Ctx<'_>) {
        if self.recovering || !self.host.cfg.cleaning_enabled() {
            return;
        }
        let now = ctx.now();
        let stats = &mut self.host.stats;
        let mut total = CleanOutcome::default();
        for (tp, p) in self.partitions.iter_mut() {
            let (retained, compacted) = p.clean(now, &self.host.cfg);
            stats.segments_retired += retained.dropped_segment_bases.len() as u64;
            stats.retired_bytes += retained.reclaimed_bytes;
            stats.records_compacted += compacted.removed_records;
            stats.compacted_bytes += compacted.reclaimed_bytes;
            if let Some(d) = &mut self.durability {
                let dropped = retained.dropped_segment_bases.iter();
                for base in dropped.chain(&compacted.dropped_segment_bases) {
                    d.stage_delete(tp, *base);
                }
            }
            total.merge(retained);
            total.merge(compacted);
        }
        if total.is_noop() {
            return;
        }
        stats.cleaner_runs += 1;
        let retained = |p: &Partition| p.log().retained_bytes() as u64;
        self.host.retained_bytes = self.partitions.values().map(retained).sum();
        self.host.update_mem();
        self.host.dirty |= self.durability.is_some();
        self.flush_logs(ctx);
    }

    /// Persists every dirty segment plus the meta blob through the attached
    /// backend. Overlapping calls coalesce: a flush requested while one is
    /// in flight runs right after it completes.
    fn flush_logs(&mut self, ctx: &mut Ctx<'_>) {
        if self.recovering {
            return;
        }
        let Some(d) = self.durability.as_mut() else {
            return;
        };
        if d.flush_inflight {
            d.flush_again = true;
            return;
        }
        let dirty_segments = |p: &Partition| p.log().has_dirty_segments();
        if !self.host.dirty && !self.partitions.values().any(dirty_segments) {
            return;
        }
        self.host.dirty = false;
        let reclaimed = self.reclaimed_baseline + reclaimed_bytes(&self.partitions);
        let meta_bytes = build_meta(&self.partitions, &self.group_offsets, reclaimed).encode();
        d.flush_inflight = true;
        for (tp, p) in self.partitions.iter_mut() {
            for (base, bytes) in p.begin_flush() {
                self.host.stats.log_flushed_bytes += bytes.len() as u64;
                let (label, key) = (LogBlob::Segment(tp.clone()), d.segment_key(tp, base));
                d.blobs.put(ctx, label, key, bytes);
            }
        }
        let key = d.meta_key();
        d.blobs.put(ctx, LogBlob::Meta, key, meta_bytes);
        self.blobs_done(ctx);
    }

    /// A flush (all its store writes) became durable: advance the durable
    /// ends, release produce acks that were waiting, and flush again if
    /// mutations piled up meanwhile.
    fn complete_flush(&mut self, ctx: &mut Ctx<'_>) {
        self.host.stats.log_flushes += 1;
        let Some(d) = self.durability.as_mut() else {
            return;
        };
        d.flush_inflight = false;
        let again = std::mem::take(&mut d.flush_again) || self.host.dirty;
        if !again {
            // No newer mutations are waiting, so the manifest that just
            // became durable reflects the cleaned state: the blobs it no
            // longer references are safe to drop. (When `again` is set the
            // completed flush may predate the clean — a coalesced flush was
            // in flight when the cleaner ran — so the deletes wait for the
            // follow-up flush's completion.)
            for key in std::mem::take(&mut d.pending_deletes) {
                d.blobs.delete(ctx, &key);
            }
        }
        for (tp, p) in self.partitions.iter_mut() {
            p.flush_done();
            if let Some(mut led) = p.led(tp) {
                led.advance_hw(ctx, &mut self.host);
            }
        }
        let dirty_segments = |p: &Partition| p.log().has_dirty_segments();
        if again || self.partitions.values().any(dirty_segments) {
            self.flush_logs(ctx);
        }
    }

    /// Starts the restart replay: read the meta blob, then every live
    /// segment it lists. Client and replica requests are dropped until
    /// replay completes.
    fn begin_recovery(&mut self, ctx: &mut Ctx<'_>) {
        self.recovering = true;
        self.recovery = Some(BrokerRecoveryInfo::new(ctx.now()));
        self.host
            .tele
            .trace_begin(ctx.now(), &self.host.name, "recovery:replay", "recovery");
        let d = self
            .durability
            .as_mut()
            .expect("recovery requires a log backend");
        let key = d.meta_key();
        d.blobs.get(ctx, LogBlob::Meta, key);
        self.blobs_done(ctx);
    }

    fn on_meta_recovered(&mut self, ctx: &mut Ctx<'_>, value: Option<Bytes>) {
        let meta = value.as_deref().and_then(BrokerLogMeta::decode);
        let Some(meta) = meta else {
            // Cold start (or unreadable blob): nothing to replay.
            self.finish_recovery(ctx);
            return;
        };
        let d = self.durability.as_mut().expect("recovering");
        for (tp, _hw, _start, bases) in &meta.partitions {
            for base in bases {
                let (label, key) = (LogBlob::Segment(tp.clone()), d.segment_key(tp, *base));
                d.blobs.get(ctx, label, key);
            }
        }
        d.staged_meta = Some(meta);
        self.maybe_finish_recovery(ctx);
    }

    fn stage_segment(&mut self, tp: TopicPartition, value: Option<Bytes>) {
        let Some(d) = self.durability.as_mut() else {
            return;
        };
        if let Some(bytes) = value {
            if let Some(r) = self.recovery.as_mut() {
                r.replayed_bytes += bytes.len() as u64;
            }
            if let Some(seg) = LogSegment::decode(&bytes) {
                d.staged.entry(tp).or_default().push(seg);
            }
        }
    }

    fn maybe_finish_recovery(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(d) = &self.durability {
            if !d.blobs.gets_left() {
                self.finish_recovery(ctx);
            }
        }
    }

    /// Rebuilds the partition logs and group offsets from the staged
    /// segments + meta, then resumes serving.
    fn finish_recovery(&mut self, ctx: &mut Ctx<'_>) {
        let cfg = &self.host.cfg;
        let staged = self
            .durability
            .as_mut()
            .and_then(|d| Some((d.staged_meta.take()?, std::mem::take(&mut d.staged))));
        if let Some((meta, mut staged)) = staged {
            self.reclaimed_baseline = meta.reclaimed_bytes;
            if let Some(r) = self.recovery.as_mut() {
                r.replay_saved_bytes = meta.reclaimed_bytes;
            }
            for (tp, hw, start, bases) in meta.partitions {
                let segs = staged.remove(&tp).unwrap_or_default();
                let max = cfg.log_segment_max_records;
                let log = PartitionLog::from_recovered_segments(segs, hw, start, &bases, max);
                if let Some(r) = self.recovery.as_mut() {
                    r.replayed_records += log.len() as u64;
                    r.replayed_segments +=
                        log.segments().iter().filter(|s| !s.is_empty()).count() as u64;
                }
                self.host.retained_bytes += log.retained_bytes() as u64;
                hosted(&mut self.partitions, cfg, tp).restore(log);
            }
            for (group, tp, off) in meta.group_offsets {
                self.group_offsets.insert((group, tp), off);
            }
            for (tp, ongoing, aborted) in meta.txns {
                let txns = PartitionTxns::from_meta(ongoing, aborted);
                hosted(&mut self.partitions, cfg, tp).restore_txns(txns);
            }
        }
        self.host.update_mem();
        self.recovering = false;
        // Nothing was fetched while replaying: ask every leader now.
        for leader in self.host.peers.keys().copied().collect::<Vec<_>>() {
            self.fetch_from(ctx, leader, None);
        }
        if let Some(r) = self.recovery.as_mut() {
            r.recovered_at = Some(ctx.now());
        }
        self.host
            .tele
            .trace_end(ctx.now(), &self.host.name, "recovery:replay", "recovery");
    }

    fn handle_store(&mut self, ctx: &mut Ctx<'_>, rpc: StoreRpc) {
        if let Some(d) = self.durability.as_mut() {
            d.blobs.on_reply(rpc);
            self.blobs_done(ctx);
        }
    }

    /// The one handler of finished blob requests, whether a store reply
    /// just completed them or the shared map answered at once.
    fn blobs_done(&mut self, ctx: &mut Ctx<'_>) {
        while let Some(d) = self.durability.as_mut() {
            match d.blobs.next_done() {
                Some(BlobDone::Put(_)) => {
                    if d.flush_inflight && !d.blobs.puts_left() {
                        self.complete_flush(ctx);
                    }
                }
                Some(BlobDone::Got(LogBlob::Meta, value)) => self.on_meta_recovered(ctx, value),
                Some(BlobDone::Got(LogBlob::Segment(tp), value)) => {
                    self.stage_segment(tp, value);
                    self.maybe_finish_recovery(ctx);
                }
                None => return,
            }
        }
    }

    fn handle_controller(&mut self, ctx: &mut Ctx<'_>, rpc: ControllerRpc) {
        match rpc {
            ControllerRpc::HeartbeatAck { .. } => {
                self.last_hb_ack = ctx.now();
            }
            ControllerRpc::MetadataUpdate {
                records,
                metadata_version,
            } => {
                self.metadata.apply(&records, metadata_version);
            }
            ControllerRpc::LeaderAndIsr {
                tp,
                leader,
                isr,
                epoch,
                replicas,
            } => {
                let host = &mut self.host;
                // A broker hosts the partitions it is a replica of. An
                // instruction that gives it no role only strips the role of
                // a partition it already hosts; the log stays.
                let p = if leader == Some(host.id) || replicas.contains(&host.id) {
                    hosted(&mut self.partitions, &host.cfg, tp.clone())
                } else if let Some(p) = self.partitions.get_mut(&tp) {
                    p
                } else {
                    return;
                };
                let m = PartitionMetadata {
                    tp: tp.clone(),
                    leader,
                    epoch,
                    isr,
                    replicas,
                };
                // A new leader is asked at once: alone, or, when a fetch is
                // outstanding there, by adding the partition to it.
                let follow = p.apply_leader_and_isr(ctx, host, m);
                host.news = true;
                if let Some(leader) = follow.filter(|_| !self.recovering) {
                    let only = self.fetching.get(&leader).is_some().then_some(&tp);
                    self.fetch_from(ctx, leader, only);
                }
            }
            // Requests brokers never receive.
            ControllerRpc::Heartbeat { .. } | ControllerRpc::AlterIsr { .. } => {}
        }
    }
}

impl Process for Broker {
    fn name(&self) -> &str {
        &self.host.name
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.last_hb_ack = ctx.now();
        if ctx.incarnation() > 0 && self.durability.is_none() {
            // A respawn without a log backend still records restart time;
            // with one, its replay does.
            self.recovery = Some(BrokerRecoveryInfo::new(ctx.now()));
        }
        let cfg = &self.host.cfg;
        ctx.charge(cfg.startup_cpu);
        ctx.set_timer(cfg.isr_check_interval, tags::ISR_TICK);
        let hb = ControllerRpc::Heartbeat {
            broker: self.host.id,
            incarnation: u64::from(ctx.incarnation()),
        };
        self.host.send_controllers(ctx, hb);
        ctx.set_timer(cfg.heartbeat_interval, tags::HEARTBEAT_TICK);
        ctx.set_timer(cfg.background_interval, tags::BACKGROUND_TICK);
        if self.durability.is_some() {
            ctx.set_timer(cfg.log_flush_interval, tags::LOG_FLUSH_TICK);
            if ctx.incarnation() > 0 {
                self.begin_recovery(ctx);
            }
        }
        if self.host.cfg.cleaning_enabled() {
            ctx.set_timer(self.host.cfg.log_cleanup_interval, tags::LOG_CLEANUP_TICK);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, msg: Box<dyn Message>) {
        let msg = match downcast::<StoreRpc>(msg) {
            Ok(rpc) => return self.handle_store(ctx, *rpc),
            Err(m) => m,
        };
        match downcast::<ClientRpc>(msg) {
            Ok(rpc) if !self.recovering => self.handle_client(ctx, from, *rpc),
            Err(msg) => match downcast::<ReplicaRpc>(msg) {
                Ok(rpc) if !self.recovering => self.handle_replica(ctx, from, rpc),
                Err(msg) => {
                    if let Ok(rpc) = downcast::<ControllerRpc>(msg) {
                        self.handle_controller(ctx, *rpc);
                    }
                }
                // Still replaying the durable log: the process is not
                // serving yet, exactly like a booting broker with no
                // listener. Timeouts and retries cover the gap.
                Ok(_) => self.host.stats.dropped_recovering += 1,
            },
            Ok(_) => self.host.stats.dropped_recovering += 1,
        };
        // The held replica fetches the handler's change has news for.
        self.answer_held(ctx, false);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        match tag {
            tags::ISR_TICK => {
                if !self.recovering {
                    self.isr_tick(ctx);
                }
                ctx.set_timer(self.host.cfg.isr_check_interval, tags::ISR_TICK);
            }
            tags::HEARTBEAT_TICK => {
                let hb = ControllerRpc::Heartbeat {
                    broker: self.host.id,
                    incarnation: u64::from(ctx.incarnation()),
                };
                self.host.send_controllers(ctx, hb);
                // Consumer-group session sweep rides the broker heartbeat:
                // members silent past the group session timeout are evicted
                // and their partitions reassigned to the survivors.
                let now = ctx.now();
                let metadata = &self.metadata;
                let partitions_of = |t: &str| metadata.partitions_of(t).cloned().collect();
                let timeout = self.host.cfg.group_session_timeout;
                self.groups.sweep_sessions(now, timeout, &partitions_of);
                ctx.set_timer(self.host.cfg.heartbeat_interval, tags::HEARTBEAT_TICK);
            }
            tags::LOG_FLUSH_TICK => {
                self.flush_logs(ctx);
                ctx.set_timer(self.host.cfg.log_flush_interval, tags::LOG_FLUSH_TICK);
            }
            tags::LOG_CLEANUP_TICK => {
                self.run_log_cleaner(ctx);
                ctx.set_timer(self.host.cfg.log_cleanup_interval, tags::LOG_CLEANUP_TICK);
            }
            tags::BACKGROUND_TICK => {
                if !self.host.cfg.background_cpu.is_zero() {
                    ctx.charge(self.host.cfg.background_cpu);
                }
                // The held fetches' deadlines ride this tick: no timer is
                // armed per request. A fenced broker answers them all.
                let fenced = self.is_fenced(ctx.now());
                for (tp, p) in self.partitions.iter_mut() {
                    if let Some(mut led) = p.led(tp) {
                        led.expire_waiters(ctx, &mut self.host, fenced);
                    }
                }
                self.expire_replica_fetches(ctx);
                ctx.set_timer(self.host.cfg.background_interval, tags::BACKGROUND_TICK);
            }
            t if (tags::REPLICA_BACKOFF..tags::REPLICA_BACKOFF << 1).contains(&t) => {
                let leader = BrokerId((t - tags::REPLICA_BACKOFF) as u32);
                if !self.recovering && self.fetching.get(&leader).is_none() {
                    self.fetch_from(ctx, leader, None);
                }
            }
            _ => {
                // No tick of the broker's own: the blob client's retry
                // timer, armed under its correlation base.
                if let Some(d) = self.durability.as_mut() {
                    d.blobs.on_timer(ctx, tag);
                }
            }
        }
    }
}

impl std::fmt::Debug for Broker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let with_role = self.partitions.values().filter(|p| p.has_role()).count();
        f.debug_struct("Broker")
            .field("id", &self.host.id)
            .field("partitions", &with_role)
            .field("stats", &self.host.stats)
            .finish()
    }
}
