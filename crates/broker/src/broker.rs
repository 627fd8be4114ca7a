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
//! With a [`LogBackend`] attached ([`Broker::set_durability`]) the broker
//! flushes dirty log segments and a [`BrokerLogMeta`] blob (high
//! watermarks, consumer-group offsets, segment manifest) through the
//! backend; produce acknowledgements are withheld until the covering flush
//! is durable, so an acknowledged record can never be lost to a broker
//! crash. A broker respawned with `recover = true` replays the manifest —
//! meta first, then every live segment — before serving again; client and
//! replica requests arriving during replay are dropped (the process is
//! "booting"), and the controller re-teaches roles when the restarted
//! broker's heartbeat arrives with a bumped incarnation number.

use std::collections::{BTreeMap, HashMap};

use s2g_proto::{
    AckMode, BrokerId, ClientRpc, Compression, ControllerRpc, CorrelationId, ErrorCode,
    LeaderEpoch, Offset, Record, RecordBatch, ReplicaRpc, TopicPartition,
};
use s2g_sim::{
    downcast, Ctx, LedgerHandle, MemSlot, Message, Process, ProcessId, SimDuration, SimTime,
};
use s2g_store::StoreRpc;
use s2g_telemetry::Telemetry;

use crate::config::{BrokerConfig, CoordinationMode};
use crate::groups::GroupCoordinator;
use crate::log::{
    BrokerLogMeta, CleanOutcome, LogBackend, LogPersist, LogRecover, LogSegment, PartitionLog,
};
use crate::metadata::MetadataCache;

/// Timer tags used by the broker.
mod tags {
    pub const STARTUP_DONE: u64 = 0;
    pub const REPLICA_TICK: u64 = 1;
    pub const ISR_TICK: u64 = 2;
    pub const HEARTBEAT_TICK: u64 = 3;
    pub const BACKGROUND_TICK: u64 = 4;
    pub const BACKGROUND_DONE: u64 = 5;
    pub const LOG_FLUSH_TICK: u64 = 6;
    pub const DURABILITY_RETRY: u64 = 7;
    pub const LOG_CLEANUP_TICK: u64 = 8;
    pub const CPU_BASE: u64 = 1 << 50;
}

/// How long the broker waits for a store response to a flush or recovery
/// RPC before re-issuing it (a lossy network can drop either direction).
const DURABILITY_RETRY_INTERVAL: SimDuration = SimDuration::from_secs(2);

#[derive(Debug)]
enum OutMsg {
    Client(ClientRpc),
    Replica(ReplicaRpc),
}

#[derive(Debug)]
struct PendingProduce {
    client: ProcessId,
    corr: CorrelationId,
    tp: TopicPartition,
    /// High watermark needed before acknowledging (`Offset::ZERO` when the
    /// ack mode does not wait for replication).
    need: Offset,
    /// Durable log end needed before acknowledging (`Offset::ZERO` when no
    /// log backend is attached).
    need_durable: Offset,
    base: Offset,
    records: usize,
}

/// What a pending durability RPC was carrying, kept so a lost request or
/// response can be re-issued verbatim under a fresh correlation id.
enum DurabilityIo {
    SegmentPut { key: String, bytes: Vec<u8> },
    MetaPut { key: String, bytes: Vec<u8> },
    MetaGet { key: String },
    SegmentGet { key: String, tp: TopicPartition },
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

/// The broker's durability driver: the pluggable backend plus flush and
/// recovery bookkeeping.
struct Durability {
    backend: Box<dyn LogBackend>,
    /// Key prefix for this broker's blobs.
    prefix: String,
    /// Whether un-flushed mutations exist (segments, watermarks, offsets).
    dirty: bool,
    /// A flush is awaiting store acks.
    flush_inflight: bool,
    /// A mutation arrived while a flush was in flight; flush again after.
    flush_again: bool,
    /// Log ends captured when the in-flight flush was issued; applied to
    /// `durable_end` on completion.
    flush_ends: BTreeMap<TopicPartition, Offset>,
    /// Per-partition durable log end — produce acks wait for this.
    durable_end: BTreeMap<TopicPartition, Offset>,
    /// Outstanding store RPCs by correlation id (ordered so retry
    /// re-issues them deterministically).
    pending: BTreeMap<u64, DurabilityIo>,
    /// The retry timer is armed.
    retry_armed: bool,
    /// Dead segment blobs awaiting deletion. The cleaner stages keys here
    /// and they are only deleted once the flush carrying the *cleaned*
    /// manifest is durable — deleting first would let a crash recover a
    /// stale manifest that still lists the blob, truncating the log at the
    /// artificial gap.
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

    fn durable_floor(&self, tp: &TopicPartition) -> Offset {
        self.durable_end.get(tp).copied().unwrap_or(Offset::ZERO)
    }
}

#[derive(Debug)]
struct LeaderState {
    epoch: LeaderEpoch,
    isr: Vec<BrokerId>,
    replicas: Vec<BrokerId>,
    follower_end: HashMap<BrokerId, Offset>,
    caught_up_at: HashMap<BrokerId, SimTime>,
    pending: Vec<PendingProduce>,
    /// The partition's `hw_gap/{tp}` and `lso_gap/{tp}` gauge names, built
    /// once per reign: every watermark move sets both gauges.
    gap_gauges: [String; 2],
}

#[derive(Debug)]
struct FollowerState {
    leader: Option<BrokerId>,
    epoch: LeaderEpoch,
    inflight: bool,
}

#[derive(Debug)]
enum Role {
    Leader(LeaderState),
    Follower(FollowerState),
}

/// One partition's highest `(producer_epoch, seq)` per producer id. Nested
/// under the partition so the per-record dedup check is an integer lookup:
/// no `(TopicPartition, producer)` key, hence no topic `String`, is built
/// per record.
type ProducerSeqs = BTreeMap<u32, (u32, u64)>;

/// Raises `producer`'s stamp to `stamp` if that is higher.
fn raise_seq(seqs: &mut ProducerSeqs, producer: u32, stamp: (u32, u64)) {
    let entry = seqs.entry(producer).or_insert(stamp);
    *entry = (*entry).max(stamp);
}

/// Transaction bookkeeping for one partition: open transactions (their
/// records are withheld from read-committed consumers) and aborted offset
/// ranges (skipped forever). Persisted in the meta blob so isolation
/// survives a broker bounce.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct PartitionTxns {
    /// `(producer, txn)` → `(first, end, producer_epoch)` offset range
    /// staged so far, tagged with the staging incarnation's epoch so a
    /// recover from a newer incarnation can fence older leftovers without
    /// ever touching its own transactions.
    ongoing: BTreeMap<(u32, u64), (u64, u64, u32)>,
    /// Aborted `[start, end)` offset ranges.
    aborted: Vec<(u64, u64)>,
}

impl PartitionTxns {
    /// The last stable offset: no record at or above it belongs to an open
    /// transaction. `None` when no transaction is open.
    fn lso(&self) -> Option<u64> {
        self.ongoing.values().map(|(first, _, _)| *first).min()
    }

    fn is_aborted(&self, offset: u64) -> bool {
        // `aborted` is kept sorted and merged, so a binary search suffices.
        let i = self.aborted.partition_point(|(s, _)| *s <= offset);
        i > 0 && offset < self.aborted[i - 1].1
    }

    /// Inserts an aborted `[start, end)` range, keeping the list sorted and
    /// coalescing overlapping/adjacent ranges so fetch-path lookups stay
    /// logarithmic and the meta blob stays small.
    fn add_aborted(&mut self, start: u64, end: u64) {
        let i = self.aborted.partition_point(|(s, _)| *s < start);
        self.aborted.insert(i, (start, end));
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.aborted.len());
        for &(s, e) in &self.aborted {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        self.aborted = merged;
    }

    /// Drops aborted ranges wholly below the retention-advanced log start:
    /// their records no longer exist, so nothing can fetch them.
    fn prune_aborted_below(&mut self, log_start: u64) {
        self.aborted.retain(|(_, e)| *e > log_start);
    }
}

/// Counters exposed for tests and monitoring.
#[derive(Debug, Clone, Copy, Default)]
pub struct BrokerStats {
    /// Produce requests handled.
    pub produces: u64,
    /// Consumer fetch requests handled.
    pub fetches: u64,
    /// Replica fetch requests handled (as leader).
    pub replica_fetches: u64,
    /// Records appended (as leader or follower).
    pub records_appended: u64,
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
    /// Log flushes completed through the attached [`LogBackend`].
    pub log_flushes: u64,
    /// Encoded segment bytes handed to the log backend.
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
    /// Whole segments dropped by time/size retention.
    pub segments_retired: u64,
    /// Record bytes reclaimed by retention.
    pub retired_bytes: u64,
    /// Transactions committed (markers flipped to visible).
    pub txns_committed: u64,
    /// Transactions aborted (their records hidden from read-committed
    /// consumers forever).
    pub txns_aborted: u64,
}

/// A message broker process (the Kafka-broker stand-in).
pub struct Broker {
    id: BrokerId,
    cfg: BrokerConfig,
    mode: CoordinationMode,
    controllers: Vec<ProcessId>,
    peers: BTreeMap<BrokerId, ProcessId>,
    logs: BTreeMap<TopicPartition, PartitionLog>,
    /// Committed consumer-group positions, keyed by `(group, partition)` —
    /// the broker-side half of checkpoint/recovery. Commits survive client
    /// crashes because they live here, not in the consumer.
    group_offsets: BTreeMap<(String, TopicPartition), Offset>,
    /// Consumer-group membership + partition assignment for the groups this
    /// broker coordinates (clients route group RPCs by `fnv1a(group) %
    /// brokers`, so exactly one broker coordinates each group).
    groups: GroupCoordinator,
    /// Highest `(producer_epoch, seq)` appended per partition and producer
    /// — the idempotent-producer dedup state. Rebuilt from the log on
    /// restart replay and after divergence truncation, so a batch retried
    /// across a broker bounce is acknowledged without duplicating records,
    /// while a respawned client (bumped epoch, sequence restarting at zero)
    /// is accepted as fresh.
    last_producer_seq: BTreeMap<TopicPartition, ProducerSeqs>,
    /// Per-partition transaction markers (transactional sinks).
    txns: BTreeMap<TopicPartition, PartitionTxns>,
    /// Producer dedup state mirrored from the leader while following,
    /// merged into `last_producer_seq` on promotion. This carries the
    /// in-memory-only knowledge a bare log replay cannot rebuild (e.g. a
    /// producer's highest sequence whose record compaction since removed),
    /// so a failover never re-admits a duplicate the old leader had
    /// filtered. Only populated from fetches made while fully caught up,
    /// so every mirrored stamp is covered by the local log.
    mirrored_seqs: BTreeMap<TopicPartition, ProducerSeqs>,
    /// Sticky per-partition compression: the codec of the last produced (or
    /// replicated) batch, stamped onto fetch responses so consumers pay the
    /// decompress cost — the broker itself never re-codes batches, exactly
    /// like Kafka's zero-copy fetch path.
    batch_compression: HashMap<TopicPartition, Compression>,
    roles: BTreeMap<TopicPartition, Role>,
    known_epoch: HashMap<TopicPartition, LeaderEpoch>,
    metadata: MetadataCache,
    last_hb_ack: SimTime,
    next_corr: u64,
    next_cpu_tag: u64,
    pending_out: HashMap<u64, Vec<(ProcessId, OutMsg)>>,
    mem: Option<(LedgerHandle, MemSlot)>,
    retained_bytes: u64,
    /// Cleaning savings recovered from the pre-crash meta blob; per-log
    /// counters restart at zero after a replay, so this preserves the
    /// lifetime total.
    reclaimed_baseline: u64,
    stats: BrokerStats,
    name: String,
    /// Leadership-change log for the Fig. 6d event markers: (time, partition,
    /// became_leader).
    leadership_events: Vec<(SimTime, TopicPartition, bool)>,
    /// Durable-log driver, when a backend is attached.
    durability: Option<Durability>,
    /// The respawned broker must replay its persisted log before serving.
    recover: bool,
    /// Replay is in flight; client/replica requests are dropped meanwhile.
    recovering: bool,
    /// Process incarnation, bumped by the orchestrator on every respawn and
    /// carried in heartbeats so the controller re-teaches roles to a broker
    /// that bounced within its session timeout.
    incarnation: u64,
    /// Restart/replay metrics for the current incarnation.
    recovery: Option<BrokerRecoveryInfo>,
    /// Telemetry sink (an unshared default until the orchestrator attaches
    /// the run-wide one).
    tele: Telemetry,
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
        Broker {
            id,
            cfg,
            mode,
            controllers,
            peers,
            logs: BTreeMap::new(),
            group_offsets: BTreeMap::new(),
            groups: GroupCoordinator::new(),
            last_producer_seq: BTreeMap::new(),
            txns: BTreeMap::new(),
            mirrored_seqs: BTreeMap::new(),
            batch_compression: HashMap::new(),
            roles: BTreeMap::new(),
            known_epoch: HashMap::new(),
            metadata: MetadataCache::new(),
            last_hb_ack: SimTime::ZERO,
            next_corr: 0,
            next_cpu_tag: 0,
            pending_out: HashMap::new(),
            mem: None,
            retained_bytes: 0,
            reclaimed_baseline: 0,
            stats: BrokerStats::default(),
            name,
            leadership_events: Vec::new(),
            durability: None,
            recover: false,
            recovering: false,
            incarnation: 0,
            recovery: None,
            tele: Telemetry::new(),
        }
    }

    /// Attaches a memory-ledger slot for the resource model.
    pub fn set_mem_slot(&mut self, ledger: LedgerHandle, slot: MemSlot) {
        self.mem = Some((ledger, slot));
    }

    /// Attaches the run-wide telemetry sink. The broker records produce /
    /// fetch / append counters, log-size and watermark-gap gauges, and
    /// append trace events under its own name (`broker-<id>`).
    pub fn set_telemetry(&mut self, tele: Telemetry) {
        self.tele = tele;
    }

    /// Refreshes this partition's watermark-gap gauges: `hw_gap` is the
    /// unreplicated suffix (log end minus high watermark) and `lso_gap` is
    /// the open-transaction window (high watermark minus last stable
    /// offset) that read-committed consumers cannot see yet.
    fn telemetry_partition_gauges(&self, tp: &TopicPartition) {
        let (Some(log), Some(Role::Leader(ls))) = (self.logs.get(tp), self.roles.get(tp)) else {
            return;
        };
        let hw = log.high_watermark().value();
        let hw_gap = log.log_end().value().saturating_sub(hw);
        let lso = self
            .txns
            .get(tp)
            .and_then(PartitionTxns::lso)
            .map_or(hw, |l| l.min(hw));
        let [hw_gap_name, lso_gap_name] = &ls.gap_gauges;
        self.tele.gauge_set(&self.name, hw_gap_name, hw_gap as f64);
        self.tele
            .gauge_set(&self.name, lso_gap_name, (hw - lso) as f64);
    }

    /// Attaches a durable-log backend. Dirty segments and the meta blob are
    /// flushed through it, and produce acknowledgements wait for the
    /// covering flush (instant for [`InMemoryLogBackend`], a store round
    /// trip for [`DurableLogBackend`]). With `recover` set the broker
    /// replays the persisted manifest before serving — the respawn path.
    ///
    /// [`InMemoryLogBackend`]: crate::InMemoryLogBackend
    /// [`DurableLogBackend`]: crate::DurableLogBackend
    pub fn set_durability(&mut self, backend: Box<dyn LogBackend>, recover: bool) {
        let prefix = format!("brokerlog/b{}", self.id.0);
        self.durability = Some(Durability {
            backend,
            prefix,
            dirty: false,
            flush_inflight: false,
            flush_again: false,
            flush_ends: BTreeMap::new(),
            durable_end: BTreeMap::new(),
            pending: BTreeMap::new(),
            retry_armed: false,
            pending_deletes: Vec::new(),
            staged: BTreeMap::new(),
            staged_meta: None,
        });
        self.recover = recover;
    }

    /// Sets the process incarnation carried in controller heartbeats. The
    /// orchestrator bumps it on every respawn so the controller can detect a
    /// bounce that happened within the session timeout.
    pub fn set_incarnation(&mut self, incarnation: u64) {
        self.incarnation = incarnation;
    }

    /// Marks this broker instance as a post-crash respawn, so restart
    /// metrics are reported even when no log backend is attached.
    pub fn mark_restarted(&mut self) {
        self.recovery = Some(BrokerRecoveryInfo::new(SimTime::ZERO));
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
        self.id
    }

    /// Counters.
    pub fn stats(&self) -> BrokerStats {
        self.stats
    }

    /// The consumer-group coordinator hosted on this broker (generation,
    /// membership, and assignment introspection for tests and monitors).
    pub fn group_coordinator(&self) -> &GroupCoordinator {
        &self.groups
    }

    /// Read access to a partition log (tests, monitors).
    pub fn log(&self, tp: &TopicPartition) -> Option<&PartitionLog> {
        self.logs.get(tp)
    }

    /// The committed position of a consumer group on a partition, if any.
    pub fn committed_offset(&self, group: &str, tp: &TopicPartition) -> Option<Offset> {
        self.group_offsets
            .get(&(group.to_string(), tp.clone()))
            .copied()
    }

    /// True if this broker currently leads `tp`.
    pub fn is_leader(&self, tp: &TopicPartition) -> bool {
        matches!(self.roles.get(tp), Some(Role::Leader(_)))
    }

    /// The leadership epoch under which this broker currently leads `tp`,
    /// or `None` if it is not the leader. Tests use this to stamp a
    /// deliberately stale produce and pin the fencing behaviour.
    pub fn leader_epoch(&self, tp: &TopicPartition) -> Option<LeaderEpoch> {
        match self.roles.get(tp) {
            Some(Role::Leader(ls)) => Some(ls.epoch),
            _ => None,
        }
    }

    /// The ISR as this broker (when leader) sees it.
    pub fn isr(&self, tp: &TopicPartition) -> Option<Vec<BrokerId>> {
        match self.roles.get(tp) {
            Some(Role::Leader(ls)) => Some(ls.isr.clone()),
            _ => None,
        }
    }

    /// Leadership transitions observed, for event-marker plots (Fig. 6d).
    pub fn leadership_events(&self) -> &[(SimTime, TopicPartition, bool)] {
        &self.leadership_events
    }

    /// A byte-level fingerprint of one partition log — every entry's
    /// offset, leader epoch, and full record — for replica-identity
    /// assertions: two brokers whose fingerprints match hold
    /// byte-identical logs for the partition.
    pub fn log_fingerprint(&self, tp: &TopicPartition) -> String {
        use std::fmt::Write;
        let Some(log) = self.logs.get(tp) else {
            return String::new();
        };
        let mut s = String::new();
        for seg in log.segments() {
            for e in seg.entries() {
                let _ = write!(s, "{}:{}:{:?};", e.offset.value(), e.epoch.0, e.record);
            }
        }
        s
    }

    /// Total record bytes retained across partition logs.
    pub fn retained_bytes(&self) -> u64 {
        self.retained_bytes
    }

    fn is_fenced(&self, now: SimTime) -> bool {
        self.mode == CoordinationMode::Kraft
            && now.saturating_since(self.last_hb_ack) > self.cfg.session_timeout
    }

    fn next_corr(&mut self) -> CorrelationId {
        self.next_corr += 1;
        CorrelationId(self.next_corr)
    }

    fn send_controllers(&mut self, ctx: &mut Ctx<'_>, rpc: ControllerRpc) {
        for pid in self.controllers.clone() {
            ctx.send(pid, rpc.clone());
        }
    }

    fn respond_after_cpu(
        &mut self,
        ctx: &mut Ctx<'_>,
        cost: SimDuration,
        to: ProcessId,
        msg: OutMsg,
    ) {
        let tag = tags::CPU_BASE + self.next_cpu_tag;
        self.next_cpu_tag += 1;
        self.pending_out.insert(tag, vec![(to, msg)]);
        ctx.exec(cost, tag);
    }

    fn request_cost(&self, records: usize) -> SimDuration {
        self.cfg.cpu_per_request + self.cfg.cpu_per_record * records as u64
    }

    fn update_mem(&mut self) {
        if let Some((ledger, slot)) = &self.mem {
            ledger.borrow_mut().set_dynamic(*slot, self.retained_bytes);
        }
    }

    /// Rebuilds the idempotent-producer dedup state of one partition from
    /// its log (after truncation or restart replay).
    fn rebuild_producer_seq(&mut self, tp: &TopicPartition) {
        self.last_producer_seq.remove(tp);
        let Some(log) = self.logs.get(tp) else {
            return;
        };
        let mut seqs = ProducerSeqs::new();
        for seg in log.segments() {
            for e in seg.entries() {
                let stamp = (e.record.producer_epoch, e.record.producer_seq);
                raise_seq(&mut seqs, e.record.producer.0, stamp);
            }
        }
        self.last_producer_seq.insert(tp.clone(), seqs);
    }

    /// The partition's log, created with the configured segment size on
    /// first touch. An associated function so call sites can hold other
    /// `self` borrows.
    fn log_mut<'l>(
        logs: &'l mut BTreeMap<TopicPartition, PartitionLog>,
        cfg: &BrokerConfig,
        tp: &TopicPartition,
    ) -> &'l mut PartitionLog {
        logs.entry(tp.clone())
            .or_insert_with(|| PartitionLog::with_segment_max(cfg.log_segment_max_records))
    }

    /// Advances the high watermark of a led partition from follower state
    /// and acknowledges pending produces whose replication and durability
    /// requirements are both met.
    fn advance_hw(&mut self, ctx: &mut Ctx<'_>, tp: &TopicPartition) {
        let Some(Role::Leader(ls)) = self.roles.get_mut(tp) else {
            return;
        };
        let log = Self::log_mut(&mut self.logs, &self.cfg, tp);
        let prev_hw = log.high_watermark();
        // The watermark is the highest offset held by "enough" of the ISR:
        // all of it with the strict default, all-but-`acks_all_slack`
        // members when slack tolerates stragglers. Equivalently, the k-th
        // highest log end where k = |ISR| - slack (at least one — the
        // leader itself). Never past the leader's own end.
        let mut ends: Vec<Offset> = ls
            .isr
            .iter()
            .map(|b| {
                if *b == self.id {
                    log.log_end()
                } else {
                    ls.follower_end.get(b).copied().unwrap_or(Offset::ZERO)
                }
            })
            .collect();
        if ends.is_empty() {
            ends.push(log.log_end());
        }
        ends.sort_unstable_by(|a, b| b.cmp(a));
        let needed = ends
            .len()
            .saturating_sub(self.cfg.acks_all_slack as usize)
            .max(1);
        let hw = ends[needed - 1].min(log.log_end());
        log.advance_high_watermark(hw);
        let hw = log.high_watermark();
        if hw != prev_hw {
            // Watermark moves are metadata; the interval flush persists them.
            if let Some(d) = &mut self.durability {
                d.dirty = true;
            }
        }
        let durable = match &self.durability {
            Some(d) => d.durable_floor(tp),
            None => Offset(u64::MAX),
        };
        // Acknowledge pending produces now covered by the HW and the
        // durable end.
        let mut still_pending = Vec::new();
        let mut to_send = Vec::new();
        for p in ls.pending.drain(..) {
            if p.need <= hw && p.need_durable <= durable {
                to_send.push((
                    p.client,
                    OutMsg::Client(ClientRpc::ProduceResponse {
                        corr: p.corr,
                        tp: p.tp.clone(),
                        base_offset: p.base,
                        error: ErrorCode::None,
                    }),
                    p.records,
                ));
            } else {
                still_pending.push(p);
            }
        }
        ls.pending = still_pending;
        for (to, msg, records) in to_send {
            let cost = self.request_cost(records);
            self.respond_after_cpu(ctx, cost, to, msg);
        }
        self.telemetry_partition_gauges(tp);
    }

    fn fail_pending(&mut self, ctx: &mut Ctx<'_>, tp: &TopicPartition, error: ErrorCode) {
        let Some(Role::Leader(ls)) = self.roles.get_mut(tp) else {
            return;
        };
        let drained: Vec<PendingProduce> = ls.pending.drain(..).collect();
        for p in drained {
            let msg = OutMsg::Client(ClientRpc::ProduceResponse {
                corr: p.corr,
                tp: p.tp.clone(),
                base_offset: p.base,
                error,
            });
            let cost = self.cfg.cpu_per_request;
            self.respond_after_cpu(ctx, cost, p.client, msg);
        }
    }

    fn handle_client(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, rpc: ClientRpc) {
        let now = ctx.now();
        match rpc {
            ClientRpc::ProduceRequest {
                corr,
                tp,
                batch,
                acks,
                epoch: req_epoch,
                txn,
            } => {
                self.stats.produces += 1;
                if self.is_fenced(now) {
                    self.stats.rejected_fenced += 1;
                    let cost = self.cfg.cpu_per_request;
                    self.respond_after_cpu(
                        ctx,
                        cost,
                        from,
                        OutMsg::Client(ClientRpc::ProduceResponse {
                            corr,
                            tp,
                            base_offset: Offset::ZERO,
                            error: ErrorCode::Fenced,
                        }),
                    );
                    return;
                }
                let is_leader = matches!(self.roles.get(&tp), Some(Role::Leader(_)));
                if !is_leader {
                    self.stats.rejected_not_leader += 1;
                    let cost = self.cfg.cpu_per_request;
                    self.respond_after_cpu(
                        ctx,
                        cost,
                        from,
                        OutMsg::Client(ClientRpc::ProduceResponse {
                            corr,
                            tp,
                            base_offset: Offset::ZERO,
                            error: ErrorCode::NotLeader,
                        }),
                    );
                    return;
                }
                // Leader-epoch fencing. A request stamped with an *older*
                // epoch is aimed at a deposed leader's reign — a delayed
                // produce released after an election, or a zombie client
                // that never refreshed — and must bounce (StaleEpoch is
                // retriable, so a live client refreshes metadata and
                // retries against the new reign). A *newer* epoch means
                // this broker is the deposed one still serving on stale
                // state: NotLeader sends the client to the real leader.
                // (Note an isolated ZK-mode leader and its co-located
                // clients share the same stale epoch, so the Fig. 6b
                // silent-loss pathology is untouched by this fence.)
                let my_epoch = match self.roles.get(&tp) {
                    Some(Role::Leader(ls)) => ls.epoch,
                    _ => unreachable!("checked leader above"),
                };
                if req_epoch != my_epoch {
                    let error = if req_epoch < my_epoch {
                        self.stats.rejected_stale_epoch += 1;
                        ErrorCode::StaleEpoch
                    } else {
                        self.stats.rejected_not_leader += 1;
                        ErrorCode::NotLeader
                    };
                    let cost = self.cfg.cpu_per_request;
                    self.respond_after_cpu(
                        ctx,
                        cost,
                        from,
                        OutMsg::Client(ClientRpc::ProduceResponse {
                            corr,
                            tp,
                            base_offset: Offset::ZERO,
                            error,
                        }),
                    );
                    return;
                }
                // acks=all needs a healthy quorum: with the ISR shrunk
                // below min.insync.replicas, reject rather than accept
                // records only a rump of the replica set would hold.
                if acks == AckMode::All {
                    let isr_len = match self.roles.get(&tp) {
                        Some(Role::Leader(ls)) => ls.isr.len(),
                        _ => 0,
                    };
                    if isr_len < self.cfg.min_insync_replicas as usize {
                        self.stats.rejected_not_enough_replicas += 1;
                        let cost = self.cfg.cpu_per_request;
                        self.respond_after_cpu(
                            ctx,
                            cost,
                            from,
                            OutMsg::Client(ClientRpc::ProduceResponse {
                                corr,
                                tp,
                                base_offset: Offset::ZERO,
                                error: ErrorCode::NotEnoughReplicas,
                            }),
                        );
                        return;
                    }
                }
                // The sticky per-partition codec: fetches of this partition
                // are served with whatever the last producer sealed.
                self.batch_compression
                    .insert(tp.clone(), batch.compression());
                self.tele
                    .observe_count(&self.name, "batch_records", batch.len() as u64);
                self.tele
                    .observe_bytes(&self.name, "batch_bytes", batch.record_bytes() as u64);
                // Idempotent-producer dedup: a record whose `(producer,
                // seq)` this partition already appended is a retry whose
                // ack was lost (timeout, broker bounce) — acknowledge it
                // without appending a second copy. The batch is borrowed,
                // not consumed: the producer still holds it for retries, so
                // taking ownership here would force a deep copy. Cloning a
                // `Record` only bumps the payload refcounts.
                let mut fresh: Vec<Record> = Vec::with_capacity(batch.len());
                let seqs = self.last_producer_seq.entry(tp.clone()).or_default();
                // One lookup and one write-back per run of records from the
                // same producer (a batch is normally a single run), with
                // the run's latest stamp carried in between so a later
                // record still sees an earlier one of its own batch.
                for run in batch.records().chunk_by(|a, b| a.producer == b.producer) {
                    let producer = run[0].producer.0;
                    let mut last = seqs.get(&producer).copied();
                    for r in run {
                        // Same-or-older (epoch, seq) is a stale retry; a
                        // bumped epoch is a respawned client restarting at
                        // seq zero.
                        let stamp = (r.producer_epoch, r.producer_seq);
                        if last.is_some_and(|last| stamp <= last) {
                            self.stats.duplicates_filtered += 1;
                        } else {
                            last = Some(stamp);
                            fresh.push(r.clone());
                        }
                    }
                    if let Some(last) = last {
                        seqs.insert(producer, last);
                    }
                }
                let n = fresh.len();
                let bytes: u64 = fresh.iter().map(|r| r.encoded_len() as u64).sum();
                let epoch = match self.roles.get(&tp) {
                    Some(Role::Leader(ls)) => ls.epoch,
                    _ => unreachable!("checked leader above"),
                };
                let producer_of_batch = fresh.first().map(|r| (r.producer.0, r.producer_epoch));
                let log = Self::log_mut(&mut self.logs, &self.cfg, &tp);
                let base = log.append_batch(epoch, fresh);
                self.retained_bytes += bytes;
                self.update_mem();
                self.stats.records_appended += n as u64;
                self.tele.counter_add(&self.name, "produces", 1);
                self.tele
                    .counter_add(&self.name, "records_appended", n as u64);
                self.tele
                    .gauge_set(&self.name, "log_bytes", self.retained_bytes as f64);
                if self.tele.trace_enabled() && n > 0 {
                    self.tele
                        .trace_instant(now, &self.name, &format!("append:{tp}"), "broker");
                }
                let end = Offset(base.value() + n as u64);
                // A transactional batch stays invisible to read-committed
                // consumers until its EndTxn marker: record (or extend) the
                // open transaction's staged offset range. A leftover entry
                // from an older producer epoch (the crashed incarnation
                // reused the txn sequence) is fenced — its range aborts and
                // the fresh epoch starts a new one.
                if let (Some(t), Some((pid, rec_epoch)), true) = (txn, producer_of_batch, n > 0) {
                    let ptx = self.txns.entry(tp.clone()).or_default();
                    let key = (pid, t);
                    match ptx.ongoing.get(&key).copied() {
                        Some((f, l, e)) if e == rec_epoch => {
                            ptx.ongoing.insert(key, (f, l.max(end.value()), e));
                        }
                        Some((f, l, _)) => {
                            ptx.ongoing
                                .insert(key, (base.value(), end.value(), rec_epoch));
                            if l > f {
                                ptx.add_aborted(f, l);
                            }
                            self.stats.txns_aborted += 1;
                        }
                        None => {
                            ptx.ongoing
                                .insert(key, (base.value(), end.value(), rec_epoch));
                        }
                    }
                    if let Some(d) = &mut self.durability {
                        d.dirty = true;
                    }
                }
                let need = match acks {
                    AckMode::All => end,
                    AckMode::Leader => Offset::ZERO,
                };
                // With a log backend attached, the ack additionally waits
                // for the covering flush (fsync-before-ack semantics), so an
                // acknowledged record can never be lost to a broker crash.
                let need_durable = if self.durability.is_some() {
                    end
                } else {
                    Offset::ZERO
                };
                if need == Offset::ZERO && need_durable == Offset::ZERO {
                    // acks=1, no durable log: acknowledge immediately; the
                    // HW may advance later via replication.
                    let cost = self.request_cost(n);
                    self.respond_after_cpu(
                        ctx,
                        cost,
                        from,
                        OutMsg::Client(ClientRpc::ProduceResponse {
                            corr,
                            tp: tp.clone(),
                            base_offset: base,
                            error: ErrorCode::None,
                        }),
                    );
                    self.advance_hw(ctx, &tp);
                } else {
                    if let Some(Role::Leader(ls)) = self.roles.get_mut(&tp) {
                        ls.pending.push(PendingProduce {
                            client: from,
                            corr,
                            tp: tp.clone(),
                            need,
                            need_durable,
                            base,
                            records: n,
                        });
                    }
                    if let Some(d) = &mut self.durability {
                        d.dirty = true;
                    }
                    // Watermark first so the flush persists the fresh one;
                    // the ack stays pending until the flush is durable.
                    self.advance_hw(ctx, &tp);
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
                self.stats.fetches += 1;
                let codec = self.batch_compression.get(&tp).copied().unwrap_or_default();
                let (batch, hw, next, error) = if self.is_fenced(now) {
                    self.stats.rejected_fenced += 1;
                    (RecordBatch::new(), Offset::ZERO, offset, ErrorCode::Fenced)
                } else {
                    match self.roles.get(&tp) {
                        Some(Role::Leader(_)) => {
                            let txns = self.txns.get(&tp);
                            let log = Self::log_mut(&mut self.logs, &self.cfg, &tp);
                            let hw = log.high_watermark();
                            let start = log.log_start();
                            // Read-committed isolation caps the read at the
                            // last stable offset: nothing of an open
                            // transaction leaks out before its marker flips.
                            let visible_end = if read_committed {
                                txns.and_then(PartitionTxns::lso)
                                    .map(Offset)
                                    .unwrap_or(hw)
                                    .min(hw)
                            } else {
                                hw
                            };
                            if offset < start {
                                // Retention dropped the requested range:
                                // reset the reader to the earliest record.
                                (RecordBatch::new(), hw, start, ErrorCode::OffsetOutOfRange)
                            } else if offset > hw {
                                (RecordBatch::new(), hw, hw, ErrorCode::OffsetOutOfRange)
                            } else {
                                let scanned = log.read_entries(
                                    offset,
                                    max_records.min(self.cfg.fetch_max_records),
                                    true,
                                );
                                let scanned: Vec<_> = scanned
                                    .into_iter()
                                    .filter(|e| e.offset < visible_end)
                                    .collect();
                                // Aborted transactions' records are holes to
                                // a read-committed reader, exactly like
                                // compacted entries.
                                let served: Vec<_> = scanned
                                    .iter()
                                    .filter(|e| {
                                        !read_committed
                                            || !txns.is_some_and(|t| t.is_aborted(e.offset.value()))
                                    })
                                    .collect();
                                // Advance past the last scanned record (so
                                // aborted suffixes are skipped), or, on an
                                // empty read below the visible end, over a
                                // fully compacted tail hole. A reader parked
                                // at the LSO simply re-polls.
                                let next = served
                                    .last()
                                    .map(|e| Offset(e.offset.value() + 1))
                                    .or_else(|| {
                                        scanned.last().map(|e| Offset(e.offset.value() + 1))
                                    })
                                    .unwrap_or(if offset < visible_end {
                                        visible_end
                                    } else {
                                        offset
                                    });
                                let recs: Vec<Record> =
                                    served.iter().map(|e| e.record.clone()).collect();
                                (
                                    RecordBatch::from_records(recs).with_compression(codec),
                                    hw,
                                    next,
                                    ErrorCode::None,
                                )
                            }
                        }
                        _ => {
                            self.stats.rejected_not_leader += 1;
                            (
                                RecordBatch::new(),
                                Offset::ZERO,
                                offset,
                                ErrorCode::NotLeader,
                            )
                        }
                    }
                };
                let n = batch.len();
                self.tele.counter_add(&self.name, "fetches", 1);
                self.tele
                    .counter_add(&self.name, "records_fetched", n as u64);
                if self.tele.trace_enabled() && n > 0 {
                    self.tele
                        .trace_instant(now, &self.name, &format!("fetch:{tp}"), "broker");
                }
                let cost = self.request_cost(n);
                self.respond_after_cpu(
                    ctx,
                    cost,
                    from,
                    OutMsg::Client(ClientRpc::FetchResponse {
                        corr,
                        tp,
                        batch,
                        high_watermark: hw,
                        next_offset: next,
                        error,
                    }),
                );
            }
            ClientRpc::MetadataRequest { corr } => {
                let cost = self.cfg.cpu_per_request;
                let partitions = self.metadata.snapshot();
                self.respond_after_cpu(
                    ctx,
                    cost,
                    from,
                    OutMsg::Client(ClientRpc::MetadataResponse { corr, partitions }),
                );
            }
            ClientRpc::OffsetCommit {
                corr,
                group,
                offsets,
                member,
            } => {
                self.stats.offset_commits += 1;
                let error = if self.is_fenced(now) {
                    self.stats.rejected_fenced += 1;
                    ErrorCode::Fenced
                } else {
                    // Generation fencing: a commit stamped with a member id
                    // must come from a member current at exactly that
                    // generation — an evicted zombie's commit is rejected
                    // instead of clobbering its successor's positions.
                    let fence = match &member {
                        Some((m, generation)) => self.groups.check_commit(&group, m, *generation),
                        None => ErrorCode::None,
                    };
                    if fence.is_ok() {
                        for (tp, off) in offsets {
                            self.group_offsets.insert((group.clone(), tp), off);
                        }
                        if let Some(d) = &mut self.durability {
                            d.dirty = true;
                        }
                        self.flush_logs(ctx);
                    }
                    fence
                };
                let cost = self.cfg.cpu_per_request;
                self.respond_after_cpu(
                    ctx,
                    cost,
                    from,
                    OutMsg::Client(ClientRpc::OffsetCommitResponse { corr, error }),
                );
            }
            ClientRpc::OffsetFetch { corr, group, tps } => {
                self.stats.offset_fetches += 1;
                let offsets: Vec<(TopicPartition, Option<Offset>)> = tps
                    .into_iter()
                    .map(|tp| {
                        let committed = self
                            .group_offsets
                            .get(&(group.clone(), tp.clone()))
                            .copied();
                        (tp, committed)
                    })
                    .collect();
                let cost = self.cfg.cpu_per_request;
                self.respond_after_cpu(
                    ctx,
                    cost,
                    from,
                    OutMsg::Client(ClientRpc::OffsetFetchResponse { corr, offsets }),
                );
            }
            ClientRpc::EndTxn {
                corr,
                producer,
                txn,
                commit,
            } => {
                let error = if self.is_fenced(now) {
                    self.stats.rejected_fenced += 1;
                    ErrorCode::Fenced
                } else {
                    self.resolve_txns(ctx, producer.0, |t| t == txn, None, commit);
                    ErrorCode::None
                };
                let cost = self.cfg.cpu_per_request;
                self.respond_after_cpu(
                    ctx,
                    cost,
                    from,
                    OutMsg::Client(ClientRpc::EndTxnResponse { corr, error }),
                );
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
                let cost = self.cfg.cpu_per_request;
                self.respond_after_cpu(
                    ctx,
                    cost,
                    from,
                    OutMsg::Client(ClientRpc::TxnRecoverResponse { corr }),
                );
            }
            ClientRpc::JoinGroup {
                corr,
                group,
                member,
                topics,
            } => {
                let (generation, assigned, error) = if self.is_fenced(now) {
                    self.stats.rejected_fenced += 1;
                    (0, Vec::new(), ErrorCode::Fenced)
                } else {
                    let metadata = &self.metadata;
                    let partitions_of = |t: &str| metadata.partitions_of(t).cloned().collect();
                    let (generation, assigned) =
                        self.groups
                            .join(now, &group, &member, topics, &partitions_of);
                    (generation, assigned, ErrorCode::None)
                };
                let cost = self.cfg.cpu_per_request;
                self.respond_after_cpu(
                    ctx,
                    cost,
                    from,
                    OutMsg::Client(ClientRpc::JoinGroupResponse {
                        corr,
                        generation,
                        assigned,
                        error,
                    }),
                );
            }
            ClientRpc::GroupHeartbeat {
                corr,
                group,
                member,
                generation,
            } => {
                let error = if self.is_fenced(now) {
                    self.stats.rejected_fenced += 1;
                    ErrorCode::Fenced
                } else {
                    self.groups.heartbeat(now, &group, &member, generation)
                };
                let cost = self.cfg.cpu_per_request;
                self.respond_after_cpu(
                    ctx,
                    cost,
                    from,
                    OutMsg::Client(ClientRpc::GroupHeartbeatResponse { corr, error }),
                );
            }
            // Responses are not expected here; brokers only serve.
            ClientRpc::ProduceResponse { .. }
            | ClientRpc::FetchResponse { .. }
            | ClientRpc::MetadataResponse { .. }
            | ClientRpc::OffsetCommitResponse { .. }
            | ClientRpc::OffsetFetchResponse { .. }
            | ClientRpc::EndTxnResponse { .. }
            | ClientRpc::TxnRecoverResponse { .. }
            | ClientRpc::JoinGroupResponse { .. }
            | ClientRpc::GroupHeartbeatResponse { .. } => {}
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
        let mut changed = false;
        for ptx in self.txns.values_mut() {
            let keys: Vec<(u32, u64)> = ptx
                .ongoing
                .iter()
                .filter(|((p, t), (_, _, e))| {
                    *p == producer && which(*t) && below_epoch.is_none_or(|fence| *e < fence)
                })
                .map(|(k, _)| *k)
                .collect();
            for k in keys {
                let (first, end, _) = ptx.ongoing.remove(&k).expect("just listed");
                changed = true;
                if commit {
                    self.stats.txns_committed += 1;
                } else {
                    self.stats.txns_aborted += 1;
                    if end > first {
                        ptx.add_aborted(first, end);
                    }
                }
            }
        }
        if changed {
            self.tele.counter_add(
                &self.name,
                if commit {
                    "txns_committed"
                } else {
                    "txns_aborted"
                },
                1,
            );
            if self.tele.trace_enabled() {
                self.tele.trace_instant(
                    ctx.now(),
                    &self.name,
                    if commit { "txn:commit" } else { "txn:abort" },
                    "txn",
                );
            }
        }
        if changed {
            if let Some(d) = &mut self.durability {
                d.dirty = true;
            }
            self.flush_logs(ctx);
        }
    }

    fn handle_replica(&mut self, ctx: &mut Ctx<'_>, from_pid: ProcessId, rpc: ReplicaRpc) {
        let now = ctx.now();
        match rpc {
            ReplicaRpc::Fetch {
                corr,
                tp,
                from,
                log_end,
                epoch,
            } => {
                self.stats.replica_fetches += 1;
                if self.is_fenced(now) || !matches!(self.roles.get(&tp), Some(Role::Leader(_))) {
                    let err = if self.is_fenced(now) {
                        ErrorCode::Fenced
                    } else {
                        ErrorCode::NotLeader
                    };
                    let cost = self.cfg.cpu_per_request;
                    self.respond_after_cpu(
                        ctx,
                        cost,
                        from_pid,
                        OutMsg::Replica(ReplicaRpc::FetchResponse {
                            corr,
                            tp,
                            batch: RecordBatch::new(),
                            epochs: Vec::new(),
                            offsets: Vec::new(),
                            high_watermark: Offset::ZERO,
                            epoch: LeaderEpoch(0),
                            truncate_to: None,
                            txn_ongoing: Vec::new(),
                            txn_aborted: Vec::new(),
                            producer_seqs: Vec::new(),
                            error: err,
                        }),
                    );
                    return;
                }
                let my_epoch = match self.roles.get(&tp) {
                    Some(Role::Leader(ls)) => ls.epoch,
                    _ => unreachable!(),
                };
                let log = Self::log_mut(&mut self.logs, &self.cfg, &tp);
                // Divergence reconciliation: a follower on an older epoch may
                // hold a conflicting suffix and must truncate first.
                let mut truncate_to = None;
                let mut start = log_end;
                if epoch < my_epoch {
                    let boundary = log.end_offset_for_epoch(epoch);
                    if boundary < log_end {
                        truncate_to = Some(boundary);
                        start = boundary;
                    }
                }
                let entries = log.read_entries(start, self.cfg.replica_fetch_max_records, false);
                let epochs: Vec<LeaderEpoch> = entries.iter().map(|e| e.epoch).collect();
                let offsets: Vec<Offset> = entries.iter().map(|e| e.offset).collect();
                let records: Vec<Record> = entries.iter().map(|e| e.record.clone()).collect();
                let hw = log.high_watermark();
                let leader_end = log.log_end();
                let n = records.len();
                // Update follower progress from its claimed log end.
                let mode = self.mode;
                let mut expand: Option<(LeaderEpoch, Vec<BrokerId>)> = None;
                if let Some(Role::Leader(ls)) = self.roles.get_mut(&tp) {
                    ls.follower_end.insert(from, start);
                    if start >= leader_end {
                        ls.caught_up_at.insert(from, now);
                        // Propose ISR expansion for recovered followers. In
                        // ZooKeeper mode the leader applies it locally first;
                        // in KRaft mode it waits for quorum confirmation.
                        if !ls.isr.contains(&from) && ls.replicas.contains(&from) {
                            let mut new_isr = ls.isr.clone();
                            new_isr.push(from);
                            if mode == CoordinationMode::Zk {
                                ls.isr = new_isr.clone();
                            }
                            expand = Some((ls.epoch, new_isr));
                        }
                    }
                }
                if let Some((epoch, new_isr)) = expand {
                    self.stats.isr_expands += 1;
                    self.send_controllers(
                        ctx,
                        ControllerRpc::AlterIsr {
                            tp: tp.clone(),
                            from: self.id,
                            epoch,
                            new_isr,
                        },
                    );
                }
                self.advance_hw(ctx, &tp);
                // Transactional-state handover: every reply mirrors the
                // leader's open/aborted transaction ranges so a promoted
                // follower can keep read-committed isolation and resolve
                // in-flight transactions itself. Producer dedup stamps ride
                // along only when the follower is fully caught up (then
                // every stamp is covered by its log and can never phantom-
                // ack a record the follower does not hold).
                let txn_ongoing: Vec<(u32, u64, Offset, Offset, u32)> = self
                    .txns
                    .get(&tp)
                    .map(|t| {
                        t.ongoing
                            .iter()
                            .map(|((p, x), (f, e, pe))| (*p, *x, Offset(*f), Offset(*e), *pe))
                            .collect()
                    })
                    .unwrap_or_default();
                let txn_aborted: Vec<(Offset, Offset)> = self
                    .txns
                    .get(&tp)
                    .map(|t| {
                        t.aborted
                            .iter()
                            .map(|(s, e)| (Offset(*s), Offset(*e)))
                            .collect()
                    })
                    .unwrap_or_default();
                let producer_seqs: Vec<(u32, u32, u64)> = if start >= leader_end {
                    self.last_producer_seq
                        .get(&tp)
                        .into_iter()
                        .flatten()
                        .map(|(p, (e, s))| (*p, *e, *s))
                        .collect()
                } else {
                    Vec::new()
                };
                let cost = self.request_cost(n);
                self.respond_after_cpu(
                    ctx,
                    cost,
                    from_pid,
                    OutMsg::Replica(ReplicaRpc::FetchResponse {
                        corr,
                        tp: tp.clone(),
                        batch: RecordBatch::from_records(records).with_compression(
                            self.batch_compression.get(&tp).copied().unwrap_or_default(),
                        ),
                        epochs,
                        offsets,
                        high_watermark: hw,
                        epoch: my_epoch,
                        truncate_to,
                        txn_ongoing,
                        txn_aborted,
                        producer_seqs,
                        error: ErrorCode::None,
                    }),
                );
            }
            ReplicaRpc::FetchResponse {
                tp,
                batch,
                epochs,
                offsets,
                high_watermark,
                epoch,
                truncate_to,
                txn_ongoing,
                txn_aborted,
                producer_seqs,
                error,
                ..
            } => {
                let Some(Role::Follower(fs)) = self.roles.get_mut(&tp) else {
                    return;
                };
                fs.inflight = false;
                if !error.is_ok() {
                    return; // wait for fresh LeaderAndIsr from the controller
                }
                fs.epoch = epoch;
                let full_batch = batch.len() >= self.cfg.replica_fetch_max_records;
                let mut truncated = false;
                {
                    let log = Self::log_mut(&mut self.logs, &self.cfg, &tp);
                    if let Some(t) = truncate_to {
                        let before = log.retained_bytes() as u64;
                        let n = log.truncate_to(t);
                        self.stats.records_truncated += n as u64;
                        let after = log.retained_bytes() as u64;
                        self.retained_bytes = self.retained_bytes + after - before;
                        truncated = true;
                    }
                }
                if truncated {
                    // Discarded entries may hold the highest seqs; rebuild
                    // the dedup state from what remains. Mirrored stamps
                    // predate the truncation and may cover discarded
                    // records — drop them; the next caught-up fetch
                    // repopulates from the new reign's leader.
                    self.rebuild_producer_seq(&tp);
                    self.mirrored_seqs.remove(&tp);
                    // The durable floor must shrink with the log: offsets
                    // beyond the truncation point are no longer covered by
                    // a valid flush, and future appends there must wait for
                    // their own flush before being acknowledged. An
                    // in-flight flush's claim is clamped too — its blobs
                    // hold the discarded divergent suffix, not the live log.
                    let new_end = self.logs.get(&tp).map_or(Offset::ZERO, |l| l.log_end());
                    if let Some(d) = &mut self.durability {
                        if let Some(e) = d.durable_end.get_mut(&tp) {
                            *e = (*e).min(new_end);
                        }
                        if let Some(e) = d.flush_ends.get_mut(&tp) {
                            *e = (*e).min(new_end);
                        }
                    }
                }
                // Remember the leader's codec so a promotion keeps serving
                // fetches with the right compression flag.
                if !batch.is_empty() {
                    self.batch_compression
                        .insert(tp.clone(), batch.compression());
                }
                let log = Self::log_mut(&mut self.logs, &self.cfg, &tp);
                let seqs = self.last_producer_seq.entry(tp.clone()).or_default();
                let mut appended = 0u64;
                // The follower is the batch's sole owner (the leader built
                // it for this reply), so this unwraps the Arc in place.
                for (i, rec) in batch.into_records().into_iter().enumerate() {
                    let e = epochs.get(i).copied().unwrap_or(epoch);
                    // Append at the leader's explicit offset: a compacted
                    // leader log serves holes, and replicas must preserve
                    // offsets to stay byte-identical.
                    let off = offsets.get(i).copied().unwrap_or_else(|| log.log_end());
                    let stamp = (rec.producer_epoch, rec.producer_seq);
                    raise_seq(seqs, rec.producer.0, stamp);
                    let bytes = rec.encoded_len() as u64;
                    if log.append_at(off, e, rec) {
                        appended += 1;
                        self.retained_bytes += bytes;
                    }
                }
                let n = appended as usize;
                self.stats.records_appended += appended;
                let end = log.log_end();
                log.advance_high_watermark(high_watermark.min(end));
                // Mirror the leader's transactional state, clamped to the
                // records this follower actually holds: ranges wholly past
                // our log end describe records that never replicated here
                // and must not be resurrected after a promotion.
                let log_end = end.value();
                let mut mirrored = PartitionTxns::default();
                for (p, x, first, range_end, pe) in txn_ongoing {
                    if first.value() < log_end {
                        mirrored
                            .ongoing
                            .insert((p, x), (first.value(), range_end.value().min(log_end), pe));
                    }
                }
                for (s, e) in txn_aborted {
                    if s.value() < log_end {
                        mirrored.add_aborted(s.value(), e.value().min(log_end));
                    }
                }
                let txns_changed = self.txns.get(&tp).cloned().unwrap_or_default() != mirrored;
                if txns_changed {
                    self.txns.insert(tp.clone(), mirrored);
                }
                // Caught-up fetches carry the leader's dedup stamps (all
                // covered by our log); stash them for promotion time.
                if !producer_seqs.is_empty() {
                    let mirrored = self.mirrored_seqs.entry(tp.clone()).or_default();
                    for (p, e, s) in producer_seqs {
                        raise_seq(mirrored, p, (e, s));
                    }
                }
                self.update_mem();
                if (n > 0 || truncate_to.is_some() || txns_changed) && self.durability.is_some() {
                    // Follower-side log changes ride the interval flush; no
                    // client ack is waiting on them.
                    if let Some(d) = &mut self.durability {
                        d.dirty = true;
                    }
                }
                // Catch-up mode: keep fetching immediately while full batches
                // arrive.
                if full_batch {
                    self.replica_fetch_one(ctx, &tp);
                }
            }
        }
    }

    fn replica_fetch_one(&mut self, ctx: &mut Ctx<'_>, tp: &TopicPartition) {
        let corr = self.next_corr();
        let id = self.id;
        let Some(Role::Follower(fs)) = self.roles.get_mut(tp) else {
            return;
        };
        let Some(leader) = fs.leader else { return };
        if fs.inflight || leader == id {
            return;
        }
        let Some(&leader_pid) = self.peers.get(&leader) else {
            return;
        };
        fs.inflight = true;
        let fallback_epoch = fs.epoch;
        let log = Self::log_mut(&mut self.logs, &self.cfg, tp);
        // Report the epoch of our log tail, not the announced leader epoch:
        // that is what lets the leader detect a divergent suffix appended
        // while we were isolated and tell us to truncate it.
        let epoch = log.last_epoch().unwrap_or(fallback_epoch);
        let log_end = log.log_end();
        ctx.send(
            leader_pid,
            ReplicaRpc::Fetch {
                corr,
                tp: tp.clone(),
                from: id,
                log_end,
                epoch,
            },
        );
    }

    fn replica_tick(&mut self, ctx: &mut Ctx<'_>) {
        let tps: Vec<TopicPartition> = self
            .roles
            .iter()
            .filter(|(_, r)| matches!(r, Role::Follower(_)))
            .map(|(tp, _)| tp.clone())
            .collect();
        for tp in tps {
            // A follower that cannot reach its leader keeps an RPC inflight
            // forever (the response was dropped). Reset staleness by allowing
            // a new fetch each tick; duplicate responses are idempotent
            // because appends start from our log end.
            if let Some(Role::Follower(fs)) = self.roles.get_mut(&tp) {
                fs.inflight = false;
            }
            self.replica_fetch_one(ctx, &tp);
        }
    }

    fn isr_tick(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let lag_max = self.cfg.replica_lag_max;
        let mode = self.mode;
        let id = self.id;
        let mut shrinks: Vec<(TopicPartition, LeaderEpoch, Vec<BrokerId>)> = Vec::new();
        for (tp, role) in self.roles.iter_mut() {
            let Role::Leader(ls) = role else { continue };
            let lagging: Vec<BrokerId> = ls
                .isr
                .iter()
                .copied()
                .filter(|b| {
                    *b != id
                        && now.saturating_since(
                            ls.caught_up_at.get(b).copied().unwrap_or(SimTime::ZERO),
                        ) > lag_max
                })
                .collect();
            if lagging.is_empty() {
                continue;
            }
            let new_isr: Vec<BrokerId> = ls
                .isr
                .iter()
                .copied()
                .filter(|b| !lagging.contains(b))
                .collect();
            if mode == CoordinationMode::Zk {
                // ZooKeeper-era behavior: apply locally first — this is what
                // lets an isolated leader advance its HW over unreplicated
                // records (the silent-loss precondition).
                ls.isr = new_isr.clone();
            }
            shrinks.push((tp.clone(), ls.epoch, new_isr));
        }
        for (tp, epoch, new_isr) in shrinks {
            self.stats.isr_shrinks += 1;
            self.send_controllers(
                ctx,
                ControllerRpc::AlterIsr {
                    tp: tp.clone(),
                    from: id,
                    epoch,
                    new_isr,
                },
            );
            if self.mode == CoordinationMode::Zk {
                self.advance_hw(ctx, &tp);
            }
        }
    }

    /// Total bytes compaction/retention reclaimed so far (including the
    /// pre-crash total recovered from the meta blob).
    pub fn reclaimed_bytes(&self) -> u64 {
        self.reclaimed_baseline
            + self
                .logs
                .values()
                .map(PartitionLog::reclaimed_bytes)
                .sum::<u64>()
    }

    /// The durable meta blob describing the broker's current state: per-
    /// partition high watermarks, log starts, and segment manifests plus
    /// group offsets and the cumulative cleaning savings.
    fn build_meta(&self) -> BrokerLogMeta {
        let partitions = self
            .logs
            .iter()
            .map(|(tp, log)| {
                let bases = log
                    .segments()
                    .iter()
                    .filter(|s| !s.is_empty())
                    .map(|s| s.base_offset().value())
                    .collect();
                (tp.clone(), log.high_watermark(), log.log_start(), bases)
            })
            .collect();
        let group_offsets = self
            .group_offsets
            .iter()
            .map(|((g, tp), off)| (g.clone(), tp.clone(), *off))
            .collect();
        let txns = self
            .txns
            .iter()
            .filter(|(_, t)| !t.ongoing.is_empty() || !t.aborted.is_empty())
            .map(|(tp, t)| {
                let ongoing = t
                    .ongoing
                    .iter()
                    .map(|((p, x), (first, end, e))| (*p, *x, *first, *end, *e))
                    .collect();
                (tp.clone(), ongoing, t.aborted.clone())
            })
            .collect();
        BrokerLogMeta {
            partitions,
            group_offsets,
            reclaimed_bytes: self.reclaimed_bytes(),
            txns,
        }
    }

    /// One log-cleaner pass: retention first (whole segments are cheapest),
    /// then keyed compaction, over every hosted partition. Dead segment
    /// blobs are deleted through the backend and the manifest is re-flushed
    /// so a post-clean restart replays only live data.
    fn run_log_cleaner(&mut self, ctx: &mut Ctx<'_>) {
        if self.recovering || !self.cfg.cleaning_enabled() {
            return;
        }
        let now = ctx.now();
        let mut total = CleanOutcome::default();
        let mut dead_keys: Vec<String> = Vec::new();
        for (tp, log) in self.logs.iter_mut() {
            let retained = log.apply_retention(
                now,
                self.cfg.log_retention_age,
                self.cfg.log_retention_bytes,
            );
            self.stats.segments_retired += retained.dropped_segment_bases.len() as u64;
            self.stats.retired_bytes += retained.reclaimed_bytes;
            let compacted = if self.cfg.log_compaction {
                log.compact()
            } else {
                CleanOutcome::default()
            };
            self.stats.records_compacted += compacted.removed_records;
            self.stats.compacted_bytes += compacted.reclaimed_bytes;
            if let Some(d) = &self.durability {
                for base in retained
                    .dropped_segment_bases
                    .iter()
                    .chain(&compacted.dropped_segment_bases)
                {
                    dead_keys.push(d.segment_key(tp, *base));
                }
            }
            total.merge(retained);
            total.merge(compacted);
        }
        // Aborted ranges wholly below the advanced log starts reference
        // vanished records; drop them so the list (and the meta blob) stays
        // bounded by live history.
        for (tp, ptx) in self.txns.iter_mut() {
            if let Some(log) = self.logs.get(tp) {
                ptx.prune_aborted_below(log.log_start().value());
            }
        }
        if total.is_noop() {
            return;
        }
        self.stats.cleaner_runs += 1;
        self.retained_bytes = self.logs.values().map(|l| l.retained_bytes() as u64).sum();
        self.update_mem();
        if let Some(d) = &mut self.durability {
            // Stage the dead blobs; they are deleted only after the flush
            // that persists the cleaned manifest completes, so a crash in
            // between still recovers a manifest whose blobs all exist.
            d.pending_deletes.extend(dead_keys);
            d.dirty = true;
        }
        self.flush_logs(ctx);
        ctx.trace_with("broker", || {
            format!(
                "{} cleaned {} records ({} B) from its logs",
                self.name, total.removed_records, total.reclaimed_bytes
            )
        });
    }

    fn arm_retry(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(d) = self.durability.as_mut() {
            if !d.retry_armed && !d.pending.is_empty() {
                d.retry_armed = true;
                ctx.set_timer(DURABILITY_RETRY_INTERVAL, tags::DURABILITY_RETRY);
            }
        }
    }

    /// Persists every dirty segment plus the meta blob through the attached
    /// backend. Overlapping calls coalesce: a flush requested while one is
    /// in flight runs right after it completes.
    fn flush_logs(&mut self, ctx: &mut Ctx<'_>) {
        if self.recovering || self.durability.is_none() {
            return;
        }
        {
            let d = self.durability.as_mut().expect("checked above");
            if d.flush_inflight {
                d.flush_again = true;
                return;
            }
            if !d.dirty && !self.logs.values().any(PartitionLog::has_dirty_segments) {
                return;
            }
            d.dirty = false;
        }
        let meta_bytes = self.build_meta().encode();
        let ends: BTreeMap<TopicPartition, Offset> = self
            .logs
            .iter()
            .map(|(tp, l)| (tp.clone(), l.log_end()))
            .collect();
        let mut seg_blobs: Vec<(TopicPartition, u64, Vec<u8>)> = Vec::new();
        for (tp, log) in self.logs.iter_mut() {
            for (base, bytes) in log.take_dirty_segments() {
                seg_blobs.push((tp.clone(), base, bytes));
            }
        }
        let d = self.durability.as_mut().expect("checked above");
        let mut pending: Vec<(u64, DurabilityIo)> = Vec::new();
        let mut flushed_bytes = 0u64;
        for (tp, base, bytes) in seg_blobs {
            let key = d.segment_key(&tp, base);
            flushed_bytes += bytes.len() as u64;
            match d.backend.persist(ctx, &key, bytes.clone()) {
                LogPersist::Done => {}
                LogPersist::Pending(corr) => {
                    pending.push((corr, DurabilityIo::SegmentPut { key, bytes }));
                }
            }
        }
        let mkey = d.meta_key();
        match d.backend.persist(ctx, &mkey, meta_bytes.clone()) {
            LogPersist::Done => {}
            LogPersist::Pending(corr) => {
                pending.push((
                    corr,
                    DurabilityIo::MetaPut {
                        key: mkey,
                        bytes: meta_bytes,
                    },
                ));
            }
        }
        self.stats.log_flushed_bytes += flushed_bytes;
        if pending.is_empty() {
            self.complete_flush(ctx, ends);
        } else {
            d.flush_inflight = true;
            d.flush_ends = ends;
            d.pending.extend(pending);
            self.arm_retry(ctx);
        }
    }

    /// A flush (all its store writes) became durable: advance the durable
    /// ends, release produce acks that were waiting, and flush again if
    /// mutations piled up meanwhile.
    fn complete_flush(&mut self, ctx: &mut Ctx<'_>, ends: BTreeMap<TopicPartition, Offset>) {
        self.stats.log_flushes += 1;
        let Some(d) = self.durability.as_mut() else {
            return;
        };
        d.flush_inflight = false;
        let again = std::mem::take(&mut d.flush_again) || d.dirty;
        if !again {
            // No newer mutations are waiting, so the manifest that just
            // became durable reflects the cleaned state: the blobs it no
            // longer references are safe to drop. (When `again` is set the
            // completed flush may predate the clean — a coalesced flush was
            // in flight when the cleaner ran — so the deletes wait for the
            // follow-up flush's completion.)
            for key in std::mem::take(&mut d.pending_deletes) {
                d.backend.remove(ctx, &key);
            }
        }
        for (tp, end) in ends {
            let e = d.durable_end.entry(tp).or_insert(Offset::ZERO);
            *e = (*e).max(end);
        }
        let led: Vec<TopicPartition> = self
            .roles
            .iter()
            .filter(|(_, r)| matches!(r, Role::Leader(_)))
            .map(|(tp, _)| tp.clone())
            .collect();
        for tp in led {
            self.advance_hw(ctx, &tp);
        }
        if again || self.logs.values().any(PartitionLog::has_dirty_segments) {
            self.flush_logs(ctx);
        }
    }

    /// Starts the restart replay: read the meta blob, then every live
    /// segment it lists. Client and replica requests are dropped until
    /// replay completes.
    fn begin_recovery(&mut self, ctx: &mut Ctx<'_>) {
        self.recovering = true;
        self.recovery = Some(BrokerRecoveryInfo::new(ctx.now()));
        self.tele
            .trace_begin(ctx.now(), &self.name, "recovery:replay", "recovery");
        let d = self
            .durability
            .as_mut()
            .expect("recovery requires a log backend");
        let key = d.meta_key();
        match d.backend.recover(ctx, &key) {
            LogRecover::Done(value) => self.on_meta_recovered(ctx, value),
            LogRecover::Pending(corr) => {
                d.pending.insert(corr, DurabilityIo::MetaGet { key });
                self.arm_retry(ctx);
            }
        }
    }

    fn on_meta_recovered(&mut self, ctx: &mut Ctx<'_>, value: Option<Vec<u8>>) {
        let meta = value.as_deref().and_then(BrokerLogMeta::decode);
        let Some(meta) = meta else {
            // Cold start (or unreadable blob): nothing to replay.
            self.finish_recovery(ctx);
            return;
        };
        let d = self.durability.as_mut().expect("recovering");
        let mut gets: Vec<(String, TopicPartition)> = Vec::new();
        for (tp, _hw, _start, bases) in &meta.partitions {
            for base in bases {
                gets.push((d.segment_key(tp, *base), tp.clone()));
            }
        }
        d.staged_meta = Some(meta);
        let mut done_now: Vec<(TopicPartition, Option<Vec<u8>>)> = Vec::new();
        for (key, tp) in gets {
            match d.backend.recover(ctx, &key) {
                LogRecover::Done(v) => done_now.push((tp, v)),
                LogRecover::Pending(corr) => {
                    d.pending.insert(corr, DurabilityIo::SegmentGet { key, tp });
                }
            }
        }
        for (tp, v) in done_now {
            self.stage_segment(tp, v);
        }
        self.arm_retry(ctx);
        self.maybe_finish_recovery(ctx);
    }

    fn stage_segment(&mut self, tp: TopicPartition, value: Option<Vec<u8>>) {
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
        let Some(d) = &self.durability else {
            return;
        };
        let reads_left = d.pending.values().any(|io| {
            matches!(
                io,
                DurabilityIo::MetaGet { .. } | DurabilityIo::SegmentGet { .. }
            )
        });
        if !reads_left {
            self.finish_recovery(ctx);
        }
    }

    /// Rebuilds the partition logs and group offsets from the staged
    /// segments + meta, then resumes serving.
    fn finish_recovery(&mut self, ctx: &mut Ctx<'_>) {
        let cfg_max = self.cfg.log_segment_max_records;
        if let Some(d) = self.durability.as_mut() {
            if let Some(meta) = d.staged_meta.take() {
                let mut staged = std::mem::take(&mut d.staged);
                self.reclaimed_baseline = meta.reclaimed_bytes;
                if let Some(r) = self.recovery.as_mut() {
                    r.replay_saved_bytes = meta.reclaimed_bytes;
                }
                for (tp, hw, start, bases) in meta.partitions {
                    let segs = staged.remove(&tp).unwrap_or_default();
                    let log =
                        PartitionLog::from_recovered_segments(segs, hw, start, &bases, cfg_max);
                    if let Some(r) = self.recovery.as_mut() {
                        r.replayed_records += log.len() as u64;
                        r.replayed_segments +=
                            log.segments().iter().filter(|s| !s.is_empty()).count() as u64;
                    }
                    d.durable_end.insert(tp.clone(), log.log_end());
                    self.retained_bytes += log.retained_bytes() as u64;
                    self.logs.insert(tp, log);
                }
                for (group, tp, off) in meta.group_offsets {
                    self.group_offsets.insert((group, tp), off);
                }
                for (tp, ongoing, aborted) in meta.txns {
                    let ptx = self.txns.entry(tp).or_default();
                    for (p, x, first, end, e) in ongoing {
                        ptx.ongoing.insert((p, x), (first, end, e));
                    }
                    ptx.aborted = aborted;
                }
            }
        }
        // Rebuild idempotent-producer dedup state from the replayed logs so
        // batches retried across the bounce are not appended twice.
        let tps: Vec<TopicPartition> = self.logs.keys().cloned().collect();
        for tp in &tps {
            self.rebuild_producer_seq(tp);
        }
        self.update_mem();
        self.recovering = false;
        if let Some(r) = self.recovery.as_mut() {
            r.recovered_at = Some(ctx.now());
        }
        self.tele
            .trace_end(ctx.now(), &self.name, "recovery:replay", "recovery");
        ctx.trace_with("broker", || {
            format!("{} replayed its durable log", self.name)
        });
    }

    fn handle_store(&mut self, ctx: &mut Ctx<'_>, rpc: StoreRpc) {
        let Some(d) = self.durability.as_mut() else {
            return;
        };
        match rpc {
            StoreRpc::PutAck { corr } => {
                // Only complete an entry of the matching kind: a delayed
                // PutAck from a previous broker incarnation must not cancel
                // a recovery read that reused the correlation id.
                let is_put = matches!(
                    d.pending.get(&corr),
                    Some(DurabilityIo::SegmentPut { .. } | DurabilityIo::MetaPut { .. })
                );
                if !is_put {
                    return; // stale or superseded (retried) write
                }
                d.pending.remove(&corr);
                let writes_left = d.pending.values().any(|io| {
                    matches!(
                        io,
                        DurabilityIo::SegmentPut { .. } | DurabilityIo::MetaPut { .. }
                    )
                });
                if d.flush_inflight && !writes_left {
                    let ends = std::mem::take(&mut d.flush_ends);
                    self.complete_flush(ctx, ends);
                }
            }
            StoreRpc::GetResult { corr, value } => {
                let is_get = matches!(
                    d.pending.get(&corr),
                    Some(DurabilityIo::MetaGet { .. } | DurabilityIo::SegmentGet { .. })
                );
                if !is_get {
                    return; // stale or superseded (retried) read
                }
                let io = d.pending.remove(&corr).expect("just matched");
                match io {
                    DurabilityIo::MetaGet { .. } => self.on_meta_recovered(ctx, value),
                    DurabilityIo::SegmentGet { tp, .. } => {
                        self.stage_segment(tp, value);
                        self.maybe_finish_recovery(ctx);
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }

    /// Re-issues every outstanding durability RPC (the request or its
    /// response was lost in the network) under fresh correlation ids.
    fn retry_durability(&mut self, ctx: &mut Ctx<'_>) {
        let Some(d) = self.durability.as_mut() else {
            return;
        };
        d.retry_armed = false;
        if d.pending.is_empty() {
            return;
        }
        // The store endpoint may be the reason nothing answered: a backend
        // over a replicated store group rotates to the next member first.
        d.backend.rotate_endpoint();
        let items: Vec<DurabilityIo> = std::mem::take(&mut d.pending).into_values().collect();
        for io in items {
            match io {
                DurabilityIo::SegmentPut { key, bytes } => {
                    if let LogPersist::Pending(corr) = d.backend.persist(ctx, &key, bytes.clone()) {
                        d.pending
                            .insert(corr, DurabilityIo::SegmentPut { key, bytes });
                    }
                }
                DurabilityIo::MetaPut { key, bytes } => {
                    if let LogPersist::Pending(corr) = d.backend.persist(ctx, &key, bytes.clone()) {
                        d.pending.insert(corr, DurabilityIo::MetaPut { key, bytes });
                    }
                }
                DurabilityIo::MetaGet { key } => {
                    if let LogRecover::Pending(corr) = d.backend.recover(ctx, &key) {
                        d.pending.insert(corr, DurabilityIo::MetaGet { key });
                    }
                }
                DurabilityIo::SegmentGet { key, tp } => {
                    if let LogRecover::Pending(corr) = d.backend.recover(ctx, &key) {
                        d.pending.insert(corr, DurabilityIo::SegmentGet { key, tp });
                    }
                }
            }
        }
        self.arm_retry(ctx);
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
                let known = self.known_epoch.get(&tp).copied().unwrap_or_default();
                if epoch < known {
                    return; // stale instruction
                }
                self.known_epoch.insert(tp.clone(), epoch);
                let now = ctx.now();
                let same_epoch_update = epoch == known;
                if leader == Some(self.id) {
                    match self.roles.get_mut(&tp) {
                        Some(Role::Leader(ls)) if same_epoch_update => {
                            // ISR confirmation/adjustment from the controller.
                            ls.isr = isr;
                            self.advance_hw(ctx, &tp);
                        }
                        _ => {
                            let mut caught_up_at = HashMap::new();
                            for b in &isr {
                                caught_up_at.insert(*b, now);
                            }
                            self.roles.insert(
                                tp.clone(),
                                Role::Leader(LeaderState {
                                    epoch,
                                    isr,
                                    replicas,
                                    follower_end: HashMap::new(),
                                    caught_up_at,
                                    pending: Vec::new(),
                                    gap_gauges: [format!("hw_gap/{tp}"), format!("lso_gap/{tp}")],
                                }),
                            );
                            Self::log_mut(&mut self.logs, &self.cfg, &tp);
                            // Promotion: fold the dedup stamps mirrored from
                            // the old leader into the live filter, so the new
                            // reign rejects exactly the duplicates the old
                            // one would have. (The mirrored transaction
                            // ranges are already installed in `txns` and
                            // carry over as-is.)
                            if let Some(mirrored) = self.mirrored_seqs.remove(&tp) {
                                let seqs = self.last_producer_seq.entry(tp.clone()).or_default();
                                for (p, stamp) in mirrored {
                                    raise_seq(seqs, p, stamp);
                                }
                            }
                            self.leadership_events.push((now, tp.clone(), true));
                            ctx.trace_with("broker", || {
                                format!("{} became leader of {tp}", self.name)
                            });
                            // A recovered log may carry a watermark below its
                            // end; as fresh leader, re-evaluate immediately.
                            self.advance_hw(ctx, &tp);
                        }
                    }
                } else if replicas.contains(&self.id) {
                    let was_leader = matches!(self.roles.get(&tp), Some(Role::Leader(_)));
                    if was_leader {
                        self.fail_pending(ctx, &tp, ErrorCode::NotLeader);
                        self.leadership_events.push((now, tp.clone(), false));
                        ctx.trace_with("broker", || {
                            format!("{} stepped down from {tp}", self.name)
                        });
                    }
                    self.roles.insert(
                        tp.clone(),
                        Role::Follower(FollowerState {
                            leader,
                            epoch,
                            inflight: false,
                        }),
                    );
                    Self::log_mut(&mut self.logs, &self.cfg, &tp);
                } else {
                    self.roles.remove(&tp);
                }
            }
            // Requests brokers never receive.
            ControllerRpc::Heartbeat { .. } | ControllerRpc::AlterIsr { .. } => {}
        }
    }
}

impl Process for Broker {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.last_hb_ack = ctx.now();
        if let Some(r) = self.recovery.as_mut() {
            // A respawn without a log backend still records restart time.
            r.restarted_at = ctx.now();
        }
        ctx.exec(self.cfg.startup_cpu, tags::STARTUP_DONE);
        ctx.set_timer(self.cfg.replica_fetch_interval, tags::REPLICA_TICK);
        ctx.set_timer(self.cfg.isr_check_interval, tags::ISR_TICK);
        let hb = ControllerRpc::Heartbeat {
            broker: self.id,
            incarnation: self.incarnation,
        };
        self.send_controllers(ctx, hb);
        ctx.set_timer(self.cfg.heartbeat_interval, tags::HEARTBEAT_TICK);
        ctx.set_timer(self.cfg.background_interval, tags::BACKGROUND_TICK);
        if self.durability.is_some() {
            ctx.set_timer(self.cfg.log_flush_interval, tags::LOG_FLUSH_TICK);
            if self.recover {
                self.begin_recovery(ctx);
            }
        }
        if self.cfg.cleaning_enabled() {
            ctx.set_timer(self.cfg.log_cleanup_interval, tags::LOG_CLEANUP_TICK);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, msg: Box<dyn Message>) {
        let msg = match downcast::<StoreRpc>(msg) {
            Ok(rpc) => return self.handle_store(ctx, *rpc),
            Err(m) => m,
        };
        let msg = match downcast::<ClientRpc>(msg) {
            Ok(rpc) => {
                if self.recovering {
                    // Still replaying the durable log: the process is not
                    // serving yet, exactly like a booting broker with no
                    // listener. Client timeouts and retries cover the gap.
                    self.stats.dropped_recovering += 1;
                    return;
                }
                return self.handle_client(ctx, from, *rpc);
            }
            Err(m) => m,
        };
        let msg = match downcast::<ReplicaRpc>(msg) {
            Ok(rpc) => {
                if self.recovering {
                    self.stats.dropped_recovering += 1;
                    return;
                }
                return self.handle_replica(ctx, from, *rpc);
            }
            Err(m) => m,
        };
        if let Ok(rpc) = downcast::<ControllerRpc>(msg) {
            self.handle_controller(ctx, *rpc);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        match tag {
            tags::REPLICA_TICK => {
                if !self.recovering {
                    self.replica_tick(ctx);
                }
                ctx.set_timer(self.cfg.replica_fetch_interval, tags::REPLICA_TICK);
            }
            tags::ISR_TICK => {
                if !self.recovering {
                    self.isr_tick(ctx);
                }
                ctx.set_timer(self.cfg.isr_check_interval, tags::ISR_TICK);
            }
            tags::HEARTBEAT_TICK => {
                let hb = ControllerRpc::Heartbeat {
                    broker: self.id,
                    incarnation: self.incarnation,
                };
                self.send_controllers(ctx, hb);
                // Consumer-group session sweep rides the broker heartbeat:
                // members silent past the group session timeout are evicted
                // and their partitions reassigned to the survivors.
                let now = ctx.now();
                let metadata = &self.metadata;
                let partitions_of = |t: &str| metadata.partitions_of(t).cloned().collect();
                self.groups
                    .sweep_sessions(now, self.cfg.group_session_timeout, &partitions_of);
                ctx.set_timer(self.cfg.heartbeat_interval, tags::HEARTBEAT_TICK);
            }
            tags::LOG_FLUSH_TICK => {
                self.flush_logs(ctx);
                ctx.set_timer(self.cfg.log_flush_interval, tags::LOG_FLUSH_TICK);
            }
            tags::DURABILITY_RETRY => {
                self.retry_durability(ctx);
            }
            tags::LOG_CLEANUP_TICK => {
                self.run_log_cleaner(ctx);
                ctx.set_timer(self.cfg.log_cleanup_interval, tags::LOG_CLEANUP_TICK);
            }
            tags::BACKGROUND_TICK => {
                if !self.cfg.background_cpu.is_zero() {
                    ctx.exec(self.cfg.background_cpu, tags::BACKGROUND_DONE);
                }
                ctx.set_timer(self.cfg.background_interval, tags::BACKGROUND_TICK);
            }
            _ => {}
        }
    }

    fn on_cpu_done(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if tag >= tags::CPU_BASE {
            if let Some(out) = self.pending_out.remove(&tag) {
                for (to, msg) in out {
                    match msg {
                        OutMsg::Client(rpc) => ctx.send(to, rpc),
                        OutMsg::Replica(rpc) => ctx.send(to, rpc),
                    }
                }
            }
        }
    }
}

impl std::fmt::Debug for Broker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Broker")
            .field("id", &self.id)
            .field("partitions", &self.roles.len())
            .field("stats", &self.stats)
            .finish()
    }
}
