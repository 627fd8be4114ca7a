//! The consumer client: subscriptions, fetch loops, and CPU-gated delivery.
//!
//! [`ConsumerClient`] is embeddable (the stream processing engine uses one
//! to ingest its source topics); [`ConsumerProcess`] pairs it with a
//! [`DataSink`] to form stream2gym's standalone consumer stubs.
//!
//! Each fetched batch is charged `cpu_per_record × n` on the host CPU before
//! the next fetch for that partition is issued. That per-consumer gating is
//! what makes aggregate transfer throughput scale with consumer count only
//! up to the host's core count and then plateau — the Ichinose et al.
//! reproduction in Fig. 7a.

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};

use s2g_proto::{ClientRpc, CorrelationId, ErrorCode, LogRun, Offset, Record, TopicPartition};
use s2g_sim::{
    downcast, Ctx, Message, Process, ProcessId, SimDuration, SimTime, TimerToken, Waiters,
};
use s2g_telemetry::{CounterHandle, GaugeHandle, Telemetry};

use crate::config::ConsumerConfig;
use crate::metadata::{in_box, send_in, MetadataSession};
use crate::partition::{FetchAnswer, FETCH_MAX_WAIT};

/// Tag namespace base for consumer-owned timers.
pub(crate) const CONSUMER_TAGS: u64 = 1 << 41;
/// End of the consumer tag namespace (exclusive).
pub(crate) const CONSUMER_TAGS_END: u64 = (1 << 41) + (1 << 40);

mod off {
    pub(crate) const POLL: u64 = 1;
    pub(crate) const META_TIMEOUT: u64 = 2;
    pub(crate) const AUTO_COMMIT: u64 = 3;
    pub(crate) const OFFSET_FETCH_TIMEOUT: u64 = 4;
    pub(crate) const GROUP_HEARTBEAT: u64 = 5;
    pub(crate) const JOIN_TIMEOUT: u64 = 6;
}

/// How many unanswered [`ConsumerClient::commit_and_purge`] commits are
/// remembered for a purge: bounds what a client keeps while its coordinator
/// is unreachable.
const MAX_PENDING_PURGES: usize = 8;

/// Where consumed records go (stream2gym's `consType` stubs implement this).
pub trait DataSink: Any {
    /// Called once per delivered batch, after the deserialization CPU cost
    /// has been paid.
    fn on_records(&mut self, now: SimTime, tp: &TopicPartition, records: &[Record]);
}

/// A sink that counts and remembers records — the "STANDARD" stub.
#[derive(Debug, Default)]
pub struct CollectingSink {
    /// Every delivered record with its delivery time.
    pub deliveries: Vec<(SimTime, TopicPartition, Record)>,
}

impl DataSink for CollectingSink {
    fn on_records(&mut self, now: SimTime, tp: &TopicPartition, records: &[Record]) {
        for r in records {
            self.deliveries.push((now, tp.clone(), r.clone()));
        }
    }
}

/// A fetched batch whose delivery CPU is paid: the message a client sends
/// itself after that CPU, which its owner hands back to it. Its runs are
/// views of the broker log's batches, so the payloads fetched are never
/// copied on the way to the owner.
#[derive(Debug)]
struct Delivery {
    tp: TopicPartition,
    runs: Vec<LogRun>,
    next_offset: Offset,
}

impl Message for Delivery {}

/// Consumer counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConsumerStats {
    /// Fetch requests issued.
    pub fetches: u64,
    /// Records delivered to the owner (a sink, or an SPE worker).
    pub records: u64,
    /// Fetches that timed out.
    pub timeouts: u64,
    /// Offset resets after `OffsetOutOfRange` (evidence of truncation!).
    pub offset_resets: u64,
    /// Offset commits sent to the group coordinator.
    pub offset_commits: u64,
    /// Partitions whose position was resumed from a broker-side committed
    /// offset at startup — the recovery-worked signal.
    pub resumed_partitions: u64,
    /// Successful group joins (membership protocol only).
    pub group_joins: u64,
    /// Rebalances observed: heartbeats or commits bounced with a
    /// rejoin-required error (membership protocol only).
    pub rebalances: u64,
    /// Fetch replies consumed and dropped: one that answers no fetch in
    /// flight (given up on, or sent by the incarnation before a respawn),
    /// and one for a partition this client no longer owns.
    pub stale_replies: u64,
}

#[derive(Debug)]
struct InflightFetch {
    tp: TopicPartition,
    /// When it was sent.
    sent: SimTime,
}

/// The metrics a client updates per fetch response, each looked up in the
/// registry by its first update and never again.
struct ConsumerMetrics {
    records_consumed: CounterHandle,
    stale_replies: CounterHandle,
    /// The `lag/<topic>-<part>` gauges, made (and their names formatted) on
    /// a partition's first fetch response.
    lag: BTreeMap<TopicPartition, GaugeHandle>,
}

impl ConsumerMetrics {
    fn new(tele: &Telemetry, scope: &str) -> Self {
        ConsumerMetrics {
            records_consumed: tele.counter(scope, "records_consumed"),
            stale_replies: tele.counter(scope, "stale_replies"),
            lag: BTreeMap::new(),
        }
    }
}

/// The embeddable consumer state machine.
pub struct ConsumerClient {
    cfg: ConsumerConfig,
    brokers: BTreeMap<s2g_proto::BrokerId, ProcessId>,
    subscriptions: Vec<String>,
    meta: MetadataSession,
    offsets: BTreeMap<TopicPartition, Offset>,
    /// Fetches awaiting their response, by correlation id: one counts as
    /// lost one request timeout after it was sent, and the poll timer
    /// armed for that instant sees it.
    inflight: Waiters<u64, InflightFetch>,
    fetching: BTreeMap<TopicPartition, bool>,
    /// The box the last reply came in, for the next fetch to travel in.
    spare: Option<Box<ClientRpc>>,
    /// Something this client should be fetching has nothing in flight (no
    /// leader known, an error or early empty reply, an expired fetch, not
    /// joined, offsets not restored, fresh metadata): the poll timer
    /// retries it one `poll_interval` on. A poll clears it, and sets it
    /// again for whatever it could not fetch.
    idle: bool,
    /// The one poll timer armed, and for when.
    poll_timer: Option<(TimerToken, SimTime)>,
    /// The box the last delivery came in, for the next one to travel in.
    spare_delivery: Option<Box<Delivery>>,
    stats: ConsumerStats,
    /// How long a request may go unanswered. Join, offset-fetch and
    /// metadata requests arm a timer for it; the poll timer stands in for
    /// the fetches' (see `arm_poll`).
    request_timeout: SimDuration,
    /// Offset-fetch state for group members: fetching is held back until the
    /// committed positions arrive, so the first fetch resumes at the commit
    /// rather than at zero.
    offsets_restored: bool,
    offset_fetch_inflight: Option<(CorrelationId, TimerToken)>,
    /// Commits sent by [`commit_and_purge`](Self::commit_and_purge) and not
    /// yet answered, oldest first, with their offsets: an OK acknowledgement
    /// purges to its own commit's offsets, whether or not a newer commit is
    /// pending, and forgets the older ones. At most [`MAX_PENDING_PURGES`].
    pending_purges: VecDeque<(CorrelationId, Vec<(TopicPartition, Offset)>)>,
    /// Static partition assignment `(instance, parallelism)`: only
    /// partitions whose contiguous-range owner is `instance` are fetched.
    /// The SPE's parallel stage instances use this — keyed state cannot
    /// migrate on a dynamic rebalance, so their partition split is fixed by
    /// the key-group formula instead of by the membership protocol.
    static_assignment: Option<(u32, u32)>,
    /// Membership-protocol state (when `cfg.group_membership` is on).
    membership: Option<Membership>,
    /// Telemetry sink (an unshared default until the owner attaches the
    /// run-wide one) and the scope its metrics and events are recorded
    /// under (`consumer-0`, `job/stage/i`, ...).
    tele: Telemetry,
    tele_scope: String,
    metrics: ConsumerMetrics,
}

/// Client-side state of the group-membership protocol.
#[derive(Debug)]
struct Membership {
    member: String,
    generation: u64,
    assigned: Vec<TopicPartition>,
    joined: bool,
    join_inflight: Option<(CorrelationId, TimerToken)>,
    hb_inflight: Option<CorrelationId>,
}

impl ConsumerClient {
    /// Creates a client subscribed to `topics`.
    pub fn new(
        cfg: ConsumerConfig,
        bootstrap: ProcessId,
        brokers: BTreeMap<s2g_proto::BrokerId, ProcessId>,
        topics: Vec<String>,
    ) -> Self {
        let request_timeout = SimDuration::from_secs(2);
        let meta_timeout_tag = CONSUMER_TAGS + off::META_TIMEOUT;
        let tele = Telemetry::new();
        ConsumerClient {
            cfg,
            meta: MetadataSession::new(bootstrap, &brokers, request_timeout, meta_timeout_tag),
            brokers,
            subscriptions: topics,
            offsets: BTreeMap::new(),
            inflight: Waiters::default(),
            fetching: BTreeMap::new(),
            spare: None,
            idle: true,
            poll_timer: None,
            spare_delivery: None,
            stats: ConsumerStats::default(),
            request_timeout,
            offsets_restored: false,
            offset_fetch_inflight: None,
            pending_purges: VecDeque::new(),
            static_assignment: None,
            membership: None,
            metrics: ConsumerMetrics::new(&tele, ""),
            tele,
            tele_scope: String::new(),
        }
    }

    /// Attaches the run-wide telemetry sink. The client records delivered
    /// record counts and a per-partition `lag/<topic>-<part>` gauge (the
    /// broker high watermark minus the local position, from every fetch
    /// response) under `scope`.
    pub fn set_telemetry(&mut self, tele: Telemetry, scope: impl Into<String>) {
        self.tele_scope = scope.into();
        self.metrics = ConsumerMetrics::new(&tele, &self.tele_scope);
        self.tele = tele;
    }

    /// Restricts fetching to the partitions instance `instance` of
    /// `parallelism` owns under the contiguous-range formula
    /// ([`s2g_proto::owner_of_group`]) — the static split parallel SPE
    /// stage instances use.
    pub fn set_static_assignment(&mut self, instance: u32, parallelism: u32) {
        assert!(parallelism > 0, "parallelism must be positive");
        assert!(instance < parallelism, "instance out of range");
        self.static_assignment = Some((instance, parallelism));
    }

    /// True when this client fetches `tp` given the partition count of its
    /// topic: statically assigned clients own a contiguous range,
    /// membership-protocol clients own what the coordinator assigned, and
    /// everyone else owns everything.
    fn owns(&self, tp: &TopicPartition, n_parts: usize) -> bool {
        if let Some((instance, parallelism)) = self.static_assignment {
            if n_parts == 0 {
                return false;
            }
            return s2g_proto::owner_of_group(tp.partition, parallelism, n_parts as u32)
                == instance;
        }
        match &self.membership {
            Some(m) => m.joined && m.assigned.contains(tp),
            None => true,
        }
    }

    /// The broker coordinating this client's group: every member hashes the
    /// group name with the shared FNV-1a helper, so they all pick the same
    /// one without any lookup round trip.
    fn coordinator(&self) -> ProcessId {
        let group = self.cfg.group.as_deref().unwrap_or("");
        let candidates = self.meta.candidates();
        if candidates.is_empty() {
            return self.meta.bootstrap();
        }
        candidates[(s2g_proto::fnv1a(group.as_bytes()) % candidates.len() as u64) as usize]
    }

    fn send_join(&mut self, ctx: &mut Ctx<'_>) {
        let Some(group) = self.cfg.group.clone() else {
            return;
        };
        if self
            .membership
            .as_ref()
            .is_none_or(|m| m.join_inflight.is_some())
        {
            return;
        }
        let corr = CorrelationId(ctx.next_corr());
        let timer = ctx.set_timer(self.request_timeout, CONSUMER_TAGS + off::JOIN_TIMEOUT);
        let coordinator = self.coordinator();
        let m = self.membership.as_mut().expect("checked above");
        m.join_inflight = Some((corr, timer));
        let member = m.member.clone();
        let topics = self.subscriptions.clone();
        ctx.send(
            coordinator,
            ClientRpc::JoinGroup {
                corr,
                group,
                member,
                topics,
            },
        );
    }

    fn send_group_heartbeat(&mut self, ctx: &mut Ctx<'_>) {
        let Some(group) = self.cfg.group.clone() else {
            return;
        };
        let coordinator = self.coordinator();
        let corr = CorrelationId(ctx.next_corr());
        let Some(m) = self.membership.as_mut() else {
            return;
        };
        if !m.joined {
            return;
        }
        m.hb_inflight = Some(corr);
        let member = m.member.clone();
        let generation = m.generation;
        ctx.send(
            coordinator,
            ClientRpc::GroupHeartbeat {
                corr,
                group,
                member,
                generation,
            },
        );
    }

    /// Drops membership back to "must rejoin": the next poll (and the
    /// armed join timer) re-runs the join, picking up the new generation
    /// and assignment.
    fn mark_rejoin(&mut self, ctx: &mut Ctx<'_>) {
        self.stats.rebalances += 1;
        self.idle = true;
        if let Some(m) = self.membership.as_mut() {
            m.joined = false;
        }
        self.send_join(ctx);
    }

    /// Counters.
    pub fn stats(&self) -> ConsumerStats {
        self.stats
    }

    /// Current fetch position for a partition.
    pub fn position(&self, tp: &TopicPartition) -> Offset {
        self.offsets.get(tp).copied().unwrap_or(Offset::ZERO)
    }

    /// Every known partition position, in deterministic order — the offsets
    /// half of a checkpoint snapshot.
    pub fn positions(&self) -> Vec<(TopicPartition, Offset)> {
        self.offsets
            .iter()
            .map(|(tp, off)| (tp.clone(), *off))
            .collect()
    }

    /// The consumer group, when configured.
    pub fn group(&self) -> Option<&str> {
        self.cfg.group.as_deref()
    }

    /// The partitions the coordinator currently assigns this member (empty
    /// without the membership protocol or before the first join).
    pub fn group_assignment(&self) -> Vec<TopicPartition> {
        self.membership
            .as_ref()
            .filter(|m| m.joined)
            .map(|m| m.assigned.clone())
            .unwrap_or_default()
    }

    /// Kicks off metadata discovery and the poll loop. Call from `on_start`.
    pub fn start(&mut self, ctx: &mut Ctx<'_>) {
        if self.cfg.group.is_some() && self.cfg.group_membership && self.membership.is_none() {
            let member = if self.cfg.group_member_id.is_empty() {
                format!("m{}", ctx.self_id().0)
            } else {
                self.cfg.group_member_id.clone()
            };
            self.membership = Some(Membership {
                member,
                generation: 0,
                assigned: Vec::new(),
                joined: false,
                join_inflight: None,
                hb_inflight: None,
            });
            self.send_join(ctx);
            ctx.set_timer(
                self.cfg.group_heartbeat_interval,
                CONSUMER_TAGS + off::GROUP_HEARTBEAT,
            );
        }
        self.meta.request(ctx);
        self.arm_poll(ctx);
        if self.cfg.group.is_some() && !self.cfg.auto_commit_interval.is_zero() {
            ctx.set_timer(
                self.cfg.auto_commit_interval,
                CONSUMER_TAGS + off::AUTO_COMMIT,
            );
        }
    }

    /// Seeds partition positions from an external source of truth (an
    /// exactly-once checkpoint snapshot) and skips the broker offset fetch:
    /// the seeded positions are, by construction, consistent with the
    /// restored state.
    pub fn seed_positions(&mut self, offsets: Vec<(TopicPartition, Offset)>) {
        self.stats.resumed_partitions += offsets.len() as u64;
        for (tp, off) in offsets {
            self.offsets.insert(tp, off);
        }
        self.offsets_restored = true;
    }

    /// Sends the group coordinator an explicit offset commit (the checkpoint
    /// coordinator path). No-op without a configured group.
    pub fn commit_offsets(&mut self, ctx: &mut Ctx<'_>, offsets: Vec<(TopicPartition, Offset)>) {
        self.send_commit(ctx, offsets);
    }

    /// Sends an offset commit, returning its correlation id; `None` without
    /// a configured group or without offsets.
    fn send_commit(
        &mut self,
        ctx: &mut Ctx<'_>,
        offsets: Vec<(TopicPartition, Offset)>,
    ) -> Option<CorrelationId> {
        let group = self.cfg.group.clone()?;
        if offsets.is_empty() {
            return None;
        }
        let corr = CorrelationId(ctx.next_corr());
        self.stats.offset_commits += 1;
        // Membership-protocol commits go to the coordinator stamped with
        // the (member, generation) fence; plain grouped commits keep the
        // original bootstrap path.
        let (to, member) = match &self.membership {
            Some(m) => (self.coordinator(), Some((m.member.clone(), m.generation))),
            None => (self.meta.bootstrap(), None),
        };
        ctx.send(
            to,
            ClientRpc::OffsetCommit {
                corr,
                group,
                offsets,
                member,
            },
        );
        Some(corr)
    }

    /// Commits `offsets` as [`commit_offsets`](Self::commit_offsets) does
    /// and, once the coordinator acknowledges the commit, asks the leader of
    /// each committed partition this client owns to purge the log below its
    /// committed offset ([`ClientRpc::DeleteRecords`]). Only for a reader
    /// that is its topic's one reader and never reads below its commits:
    /// a job stage reading its shuffle topic. Commits need not wait for one
    /// another's acknowledgement: each acknowledged one purges to its own
    /// offsets. A commit made while eight are unanswered is not purged
    /// after; an older one's answer, or a newer one's, is.
    pub fn commit_and_purge(&mut self, ctx: &mut Ctx<'_>, offsets: Vec<(TopicPartition, Offset)>) {
        let kept = offsets.clone();
        if let Some(corr) = self.send_commit(ctx, offsets) {
            if self.pending_purges.len() < MAX_PENDING_PURGES {
                self.pending_purges.push_back((corr, kept));
            }
        }
    }

    /// Takes the answer to commit `corr` off the pending purges, with every
    /// older commit still there (lost, or answered out of order), and on an
    /// OK answer purges to `corr`'s own offsets.
    fn on_commit_answered(&mut self, ctx: &mut Ctx<'_>, corr: CorrelationId, ok: bool) {
        let pending = &mut self.pending_purges;
        let answered = pending.iter().take_while(|(c, _)| c.0 <= corr.0).count();
        let last = pending.drain(..answered).next_back();
        if let Some((_, offsets)) = last.filter(|(c, _)| ok && *c == corr) {
            self.purge_committed(ctx, offsets);
        }
    }

    /// Asks the leader of each owned partition, when known, to purge below
    /// the offset just committed: one request per leader. Unanswered; a lost
    /// request is superseded by the next commit's.
    fn purge_committed(&self, ctx: &mut Ctx<'_>, offsets: Vec<(TopicPartition, Offset)>) {
        let mut by_leader: BTreeMap<ProcessId, Vec<_>> = BTreeMap::new();
        for (tp, off) in offsets {
            let n_parts = self.meta.cache().partition_count(&tp.topic);
            let broker = self.meta.cache().leader(&tp);
            let leader = broker.and_then(|b| self.brokers.get(&b).copied());
            if let Some(pid) = leader.filter(|_| self.owns(&tp, n_parts)) {
                by_leader.entry(pid).or_default().push((tp, off));
            }
        }
        for (pid, parts) in by_leader {
            ctx.send(pid, ClientRpc::DeleteRecords { parts });
        }
    }

    /// Commits the current positions of every partition (auto-commit path).
    pub(crate) fn commit_positions(&mut self, ctx: &mut Ctx<'_>) {
        let offsets = self.positions();
        self.commit_offsets(ctx, offsets);
    }

    fn count_stale_reply(&mut self) {
        self.stats.stale_replies += 1;
        self.metrics.stale_replies.add(1);
    }

    /// Arms the poll timer, the only periodic work of the fetch path, for
    /// the earlier of two instants: one `poll_interval` on while something
    /// is [`idle`](Self::idle), and the deadline of the oldest fetch in
    /// flight, so a lost one is given up on in time. No timer is armed per
    /// fetch, and never a second one: a timer already due soon enough
    /// stays, a later one is replaced.
    fn arm_poll(&mut self, ctx: &mut Ctx<'_>) {
        let at = if self.idle {
            ctx.now() + self.cfg.poll_interval
        } else {
            match self.inflight.next_deadline() {
                Some(deadline) => deadline,
                // Every owned partition is paying for a delivery, which
                // ends in the next fetch.
                None => return,
            }
        };
        if self.poll_timer.is_some_and(|(_, armed)| armed <= at) {
            return;
        }
        if let Some((late, _)) = self.poll_timer.take() {
            ctx.cancel_timer(late);
        }
        let timer = ctx.set_timer_at(at, CONSUMER_TAGS + off::POLL);
        self.poll_timer = Some((timer, at));
    }

    /// Gives up on the fetches whose deadline has passed.
    fn expire_fetches(&mut self, ctx: &mut Ctx<'_>) {
        let mut inflight = std::mem::take(&mut self.inflight);
        inflight.expire(ctx.now(), |_, fetch| {
            self.stats.timeouts += 1;
            self.fetching.insert(fetch.tp, false);
            self.meta.request(ctx);
        });
        self.inflight = inflight;
    }

    /// Fetches every owned partition that has nothing in flight; what
    /// cannot be fetched yet leaves the client [`idle`](Self::idle).
    fn poll(&mut self, ctx: &mut Ctx<'_>) {
        self.expire_fetches(ctx);
        self.idle = true;
        if self.membership.as_ref().is_some_and(|m| !m.joined) {
            // Not admitted (or bounced by a rebalance): rejoin before
            // fetching anything.
            self.send_join(ctx);
            return;
        }
        let mut tps: Vec<TopicPartition> = Vec::new();
        for topic in &self.subscriptions {
            let n = self.meta.cache().partition_count(topic);
            let parts = self.meta.cache().partitions_of(topic);
            tps.extend(parts.filter(|tp| self.owns(tp, n)).cloned());
        }
        if tps.is_empty() {
            self.meta.request(ctx);
            return;
        }
        if self.cfg.group.is_some() && !self.offsets_restored {
            // Hold fetching until the group's committed positions arrive, so
            // the first fetch resumes at the commit instead of offset zero.
            self.request_offset_fetch(ctx, tps);
            return;
        }
        self.idle = false;
        for tp in tps {
            self.fetch_one(ctx, tp);
        }
    }

    fn request_offset_fetch(&mut self, ctx: &mut Ctx<'_>, tps: Vec<TopicPartition>) {
        if self.offset_fetch_inflight.is_some() {
            return;
        }
        let corr = CorrelationId(ctx.next_corr());
        let timer = ctx.set_timer(
            self.request_timeout,
            CONSUMER_TAGS + off::OFFSET_FETCH_TIMEOUT,
        );
        self.offset_fetch_inflight = Some((corr, timer));
        let group = self.cfg.group.clone().expect("caller checked group");
        // Membership commits live on the coordinator; fetch them there.
        let to = if self.membership.is_some() {
            self.coordinator()
        } else {
            self.meta.bootstrap()
        };
        ctx.send(to, ClientRpc::OffsetFetch { corr, group, tps });
    }

    /// Sends the next fetch of `tp` unless one is in flight or being
    /// delivered, or the partition is not this client's. One that should go
    /// out and cannot leaves the client [`idle`](Self::idle).
    fn fetch_one(&mut self, ctx: &mut Ctx<'_>, tp: TopicPartition) {
        if self.fetching.get(&tp).copied().unwrap_or(false) {
            return;
        }
        let n_parts = self.meta.cache().partition_count(&tp.topic);
        if !self.owns(&tp, n_parts) {
            return;
        }
        if self.cfg.group.is_some() && !self.offsets_restored {
            self.idle = true;
            return;
        }
        let Some(leader) = self.meta.cache().leader(&tp) else {
            self.idle = true;
            self.meta.request(ctx);
            return;
        };
        let Some(&pid) = self.brokers.get(&leader) else {
            self.idle = true;
            return;
        };
        let corr = CorrelationId(ctx.next_corr());
        let offset = self.position(&tp);
        let fetch = ClientRpc::FetchRequest {
            corr,
            tp: tp.clone(),
            offset,
            max_records: self.cfg.max_poll_records,
            read_committed: self.cfg.read_committed,
        };
        send_in(ctx, pid, &mut self.spare, fetch);
        self.stats.fetches += 1;
        self.fetching.insert(tp.clone(), true);
        let sent = ctx.now();
        let deadline = sent + self.request_timeout;
        self.inflight
            .hold(corr.0, InflightFetch { tp, sent }, Some(deadline));
    }

    /// Takes delivery of the answer to `fetch`.
    fn on_fetched(
        &mut self,
        ctx: &mut Ctx<'_>,
        InflightFetch { tp, sent }: InflightFetch,
        (runs, compression, high_watermark, next_offset, error): FetchAnswer,
    ) {
        // Only clear the in-flight mark when nothing is pending for
        // this partition; for non-empty batches it stays set until
        // the delivery CPU completes, or a poll would issue a duplicate
        // fetch at the not-yet-advanced offset.
        let n: usize = runs.iter().map(LogRun::len).sum();
        let delivering = error == ErrorCode::None && n > 0;
        self.fetching.insert(tp.clone(), delivering);
        if error == ErrorCode::None {
            // Consumer lag per partition: broker high watermark
            // minus the position after this response.
            let lag = high_watermark.value().saturating_sub(next_offset.value());
            let gauge = self.metrics.lag.entry(tp.clone());
            let gauge =
                gauge.or_insert_with(|| self.tele.gauge(&self.tele_scope, &format!("lag/{tp}")));
            gauge.set(lag as f64);
            self.metrics.records_consumed.add(n as u64);
            if self.tele.trace_enabled() && n > 0 {
                self.tele.trace_instant(
                    ctx.now(),
                    &self.tele_scope,
                    &format!("fetch:{tp}"),
                    "consumer",
                );
            }
        }
        match error {
            ErrorCode::None if delivering => {
                // Pay the per-record CPU cost, then deliver and
                // immediately fetch again (pipelining). The position
                // advances to the broker-computed next offset, which
                // skips compaction holes instead of re-reading
                // across them.
                // Consumer-side half of the compression trade:
                // decompressing the fetched batch costs CPU
                // proportional to its raw record bytes.
                let mut cpu = self.cfg.cpu_per_record * n as u64;
                if !compression.is_none() {
                    let bytes = LogRun::record_bytes(&runs) as u64;
                    cpu += self.cfg.decompress_cpu_per_byte * bytes;
                }
                let delivery = Delivery {
                    tp,
                    runs,
                    next_offset,
                };
                let boxed = in_box(&mut self.spare_delivery, delivery);
                ctx.send_boxed_after_cpu(cpu, ctx.self_id(), boxed);
            }
            ErrorCode::None => {
                // Empty read. Adopt the broker's next offset, so a fully
                // compacted tail hole is skipped, and fetch again at once:
                // the broker has done the waiting. Unless it has not: an
                // empty answer that came early and moved nothing is
                // retried by the poll timer, never at round-trip rate.
                let moved = next_offset > self.position(&tp);
                if moved {
                    self.offsets.insert(tp.clone(), next_offset);
                }
                if moved || ctx.now().saturating_since(sent) >= FETCH_MAX_WAIT {
                    self.fetch_one(ctx, tp);
                } else {
                    self.idle = true;
                }
            }
            ErrorCode::OffsetOutOfRange => {
                // Truncation or retention happened under us: reset
                // to the broker-provided position (the log start
                // below retention, the high watermark above it).
                self.stats.offset_resets += 1;
                self.offsets.insert(tp, next_offset);
                self.idle = true;
            }
            e => {
                self.idle = true;
                if e.is_retriable() {
                    self.meta.request(ctx);
                }
            }
        }
    }

    /// Handles an incoming message: a reply, or a delivery this client
    /// sent its own process once the delivery CPU was paid. A delivery
    /// moves the position past its runs and sends the partition's next
    /// fetch, then hands the runs, in offset order, to `deliver`, which
    /// decodes them when it needs them. Returns the message back when it is
    /// not addressed to this client.
    pub fn handle_message(
        &mut self,
        ctx: &mut Ctx<'_>,
        msg: Box<dyn Message>,
        deliver: impl FnOnce(&TopicPartition, Vec<LogRun>),
    ) -> Option<Box<dyn Message>> {
        let mut rpc = match downcast::<ClientRpc>(msg) {
            Ok(r) => r,
            Err(m) => match downcast::<Delivery>(m) {
                Ok(delivery) => {
                    self.on_delivered(ctx, delivery, deliver);
                    return None;
                }
                Err(m) => return Some(m),
            },
        };
        // The reply leaves its box (a placeholder in its stead): one this
        // consumer handles leaves the box to carry its next fetch, and one
        // it has no part in (a co-embedded producer's) is passed on in it.
        let placeholder = ClientRpc::MetadataRequest {
            corr: CorrelationId(0),
        };
        let reply = std::mem::replace(&mut *rpc, placeholder);
        match self.handle_rpc(ctx, reply) {
            Some(other) => {
                *rpc = other;
                Some(rpc)
            }
            None => {
                self.spare = Some(rpc);
                self.arm_poll(ctx);
                None
            }
        }
    }

    fn handle_rpc(&mut self, ctx: &mut Ctx<'_>, rpc: ClientRpc) -> Option<ClientRpc> {
        match rpc {
            ClientRpc::FetchResponse {
                corr,
                tp,
                runs,
                compression,
                high_watermark,
                next_offset,
                error,
            } => {
                // Answers nothing in flight (a fetch given up on, or one
                // the incarnation before a respawn sent), or not the
                // partition asked for: consumed without acting on it.
                if self.inflight.get(&corr.0).is_none_or(|f| f.tp != tp) {
                    self.count_stale_reply();
                    return None;
                }
                let fetch = self.inflight.take(&corr.0).expect("looked up above");
                let n_parts = self.meta.cache().partition_count(&tp.topic);
                if self.owns(&tp, n_parts) {
                    let answer = (runs, compression, high_watermark, next_offset, error);
                    self.on_fetched(ctx, fetch, answer);
                } else {
                    // Rebalanced away while the fetch was held: its records
                    // are the new owner's to deliver.
                    self.count_stale_reply();
                    self.fetching.insert(tp, false);
                }
                None
            }
            ClientRpc::MetadataResponse { corr, partitions } => {
                match self.meta.on_response(ctx, corr, partitions) {
                    // Fresh metadata: what had no leader may have one now.
                    Ok(()) => {
                        self.idle = true;
                        None
                    }
                    // Not ours — may belong to a co-embedded producer client.
                    Err(partitions) => Some(ClientRpc::MetadataResponse { corr, partitions }),
                }
            }
            ClientRpc::OffsetFetchResponse { corr, offsets } => {
                match self.offset_fetch_inflight {
                    Some((c, timer)) if c == corr => {
                        ctx.cancel_timer(timer);
                        self.offset_fetch_inflight = None;
                        self.offsets_restored = true;
                        let mut tps: Vec<TopicPartition> = Vec::new();
                        for (tp, committed) in offsets {
                            if let Some(off) = committed {
                                // Never move an already-established local
                                // position backwards: a rebalance-triggered
                                // re-fetch may race ahead of the last
                                // commit.
                                if !self.offsets.contains_key(&tp) {
                                    self.stats.resumed_partitions += 1;
                                    self.offsets.insert(tp.clone(), off);
                                }
                            }
                            tps.push(tp);
                        }
                        for tp in tps {
                            self.fetch_one(ctx, tp);
                        }
                    }
                    _ => {}
                }
                None
            }
            ClientRpc::JoinGroupResponse {
                corr,
                generation,
                assigned,
                error,
            } => {
                let matches = self
                    .membership
                    .as_ref()
                    .and_then(|m| m.join_inflight)
                    .is_some_and(|(c, _)| c == corr);
                if matches {
                    let (_, timer) = self
                        .membership
                        .as_mut()
                        .expect("checked")
                        .join_inflight
                        .take()
                        .expect("checked");
                    ctx.cancel_timer(timer);
                    if error.is_ok() {
                        self.stats.group_joins += 1;
                        let newly_assigned = {
                            let m = self.membership.as_mut().expect("checked");
                            m.generation = generation;
                            m.assigned = assigned;
                            m.joined = true;
                            m.assigned.clone()
                        };
                        // Resume newly owned partitions from their group
                        // commits before fetching them.
                        if newly_assigned
                            .iter()
                            .any(|tp| !self.offsets.contains_key(tp))
                        {
                            self.offsets_restored = false;
                        }
                        self.poll(ctx);
                    }
                }
                None
            }
            ClientRpc::GroupHeartbeatResponse { corr, error } => {
                let matches = self
                    .membership
                    .as_ref()
                    .is_some_and(|m| m.hb_inflight == Some(corr));
                if matches {
                    self.membership.as_mut().expect("checked").hb_inflight = None;
                    if error.needs_rejoin() {
                        self.mark_rejoin(ctx);
                    }
                }
                None
            }
            // Commits are mostly fire-and-forget, but a generation-fenced
            // rejection means this member was rebalanced away: rejoin. The
            // acknowledgement of a commit to purge after starts the purge.
            ClientRpc::OffsetCommitResponse { corr, error } => {
                if error.needs_rejoin() && self.membership.is_some() {
                    self.mark_rejoin(ctx);
                }
                self.on_commit_answered(ctx, corr, error.is_ok());
                None
            }
            other => Some(other),
        }
    }

    /// Handles a timer tag in the consumer namespace. Returns `true` if the
    /// tag belonged to this client.
    pub fn handle_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) -> bool {
        if !(CONSUMER_TAGS..CONSUMER_TAGS_END).contains(&tag) {
            return false;
        }
        let o = tag - CONSUMER_TAGS;
        if o == off::POLL {
            self.poll_timer = None;
            self.poll(ctx);
        } else if o == off::META_TIMEOUT {
            self.meta.on_timeout();
            self.meta.request(ctx);
        } else if o == off::AUTO_COMMIT {
            self.commit_positions(ctx);
            ctx.set_timer(
                self.cfg.auto_commit_interval,
                CONSUMER_TAGS + off::AUTO_COMMIT,
            );
        } else if o == off::OFFSET_FETCH_TIMEOUT {
            // Offset fetch lost; the next poll retries it (against the next
            // endpoint, in case the group coordinator crashed).
            self.offset_fetch_inflight = None;
            self.meta.rotate();
            self.idle = true;
        } else if o == off::GROUP_HEARTBEAT {
            self.send_group_heartbeat(ctx);
            ctx.set_timer(
                self.cfg.group_heartbeat_interval,
                CONSUMER_TAGS + off::GROUP_HEARTBEAT,
            );
        } else if o == off::JOIN_TIMEOUT {
            // The join (or its answer) was lost — possibly a bounced
            // coordinator. Re-send; the coordinator address is a pure
            // function of the group name, so the retry finds the restarted
            // broker at the same endpoint.
            if let Some(m) = self.membership.as_mut() {
                if m.join_inflight.take().is_some() {
                    self.send_join(ctx);
                }
            }
        }
        self.arm_poll(ctx);
        true
    }

    /// Takes a delivery whose CPU is paid (see
    /// [`handle_message`](Self::handle_message)), keeping its box for the
    /// next one.
    fn on_delivered(
        &mut self,
        ctx: &mut Ctx<'_>,
        mut delivery: Box<Delivery>,
        deliver: impl FnOnce(&TopicPartition, Vec<LogRun>),
    ) {
        let runs = std::mem::take(&mut delivery.runs);
        let tp = &delivery.tp;
        let pos = self.position(tp);
        self.offsets
            .insert(tp.clone(), delivery.next_offset.max(pos));
        self.stats.records += runs.iter().map(LogRun::len).sum::<usize>() as u64;
        // Pipelining: fetch the next batch for this partition right away.
        self.fetching.insert(tp.clone(), false);
        self.fetch_one(ctx, tp.clone());
        self.arm_poll(ctx);
        deliver(tp, runs);
        self.spare_delivery = Some(delivery);
    }
}

impl std::fmt::Debug for ConsumerClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConsumerClient")
            .field("subscriptions", &self.subscriptions)
            .field("stats", &self.stats)
            .finish()
    }
}

/// A standalone consumer stub: a [`ConsumerClient`] delivering to a
/// [`DataSink`], with background CPU churn for the resource model.
pub struct ConsumerProcess {
    client: ConsumerClient,
    sink: Box<dyn DataSink>,
    /// The records of the delivery in progress, built from its runs to
    /// hand the sink: kept, so a delivery reuses the last one's room.
    delivery: Vec<Record>,
    name: String,
}

const BACKGROUND_TICK: u64 = 1;

impl ConsumerProcess {
    /// Creates a consumer stub with a name suffix for traces.
    pub fn new(idx: u32, client: ConsumerClient, sink: Box<dyn DataSink>) -> Self {
        ConsumerProcess {
            client,
            sink,
            delivery: Vec::new(),
            name: format!("consumer-{idx}"),
        }
    }

    /// The embedded client (stats, positions).
    pub fn client(&self) -> &ConsumerClient {
        &self.client
    }

    /// Attaches the run-wide telemetry sink under this process's name.
    pub fn set_telemetry(&mut self, tele: Telemetry) {
        let scope = self.name.clone();
        self.client.set_telemetry(tele, scope);
    }

    /// The sink, downcast to its concrete type.
    pub fn sink_as<T: DataSink>(&self) -> Option<&T> {
        (self.sink.as_ref() as &dyn Any).downcast_ref::<T>()
    }
}

impl Process for ConsumerProcess {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.charge(self.client.cfg.startup_cpu);
        self.client.start(ctx);
        ctx.set_timer(self.client.cfg.background_interval, BACKGROUND_TICK);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ProcessId, msg: Box<dyn Message>) {
        let (now, sink, delivery) = (ctx.now(), &mut self.sink, &mut self.delivery);
        self.client.handle_message(ctx, msg, |tp, runs| {
            // The sink gets owned records, built for it here and dropped
            // once it returns: their bytes are views of the log's batches,
            // and the runs hold no `Record` of their own.
            let records = runs.iter().flat_map(|run| run.batch.iter());
            delivery.extend(records.map(|r| r.to_record()));
            sink.on_records(now, tp, delivery);
            delivery.clear();
        });
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if self.client.handle_timer(ctx, tag) {
            return;
        }
        if tag == BACKGROUND_TICK {
            if !self.client.cfg.background_cpu.is_zero() {
                ctx.charge(self.client.cfg.background_cpu);
            }
            ctx.set_timer(self.client.cfg.background_interval, BACKGROUND_TICK);
        }
    }
}

impl std::fmt::Debug for ConsumerProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConsumerProcess")
            .field("client", &self.client)
            .finish()
    }
}
