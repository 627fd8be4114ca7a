//! One hosted partition: everything the broker keeps for it, in one record.
//!
//! A [`Partition`] owns the log, the role, the highest controller epoch
//! seen, the idempotent-dedup stamps and transaction ranges (with their
//! hand-over to followers, [`Handover`]), the sticky codec and the durable
//! end. Every RPC resolves its partition once and calls the methods here.
//!
//! Work only a leader may do lives on [`Led`], the view [`Partition::admit`]
//! hands out after the single admission decision (fenced → not leader →
//! stale/newer epoch → `min.insync.replicas`), so no handler re-proves
//! leadership.

use std::rc::Rc;

use s2g_proto::{
    BrokerId, ClientRpc, Compression, ControllerRpc, CorrelationId, ErrorCode, LeaderEpoch, LogRun,
    MirrorView, Offset, PartitionMetadata, Record, RecordBatch, ReplicaFetchPart,
    ReplicaFetchedPart, TopicPartition,
};
use s2g_sim::{Ctx, Message, ProcessId, SimDuration, SimTime};
use s2g_telemetry::GaugeHandle;

use crate::broker::Host;
use crate::config::{BrokerConfig, CoordinationMode};
use crate::handover::{Handover, PartitionTxns};
use crate::log::{split_run, CleanOutcome, MetaPartitionTxns, PartitionLog};
use crate::table::IntTable;

/// A produce whose acknowledgement waits for replication and/or the
/// covering flush.
#[derive(Debug)]
pub(crate) struct PendingProduce {
    pub(crate) client: ProcessId,
    pub(crate) corr: CorrelationId,
    /// High watermark needed before acknowledging (`Offset::ZERO` when the
    /// ack mode does not wait for replication).
    pub(crate) need: Offset,
    /// Durable log end needed before acknowledging (`Offset::ZERO` when no
    /// log backend is attached).
    pub(crate) need_durable: Offset,
    pub(crate) base: Offset,
    pub(crate) records: usize,
}

/// How long a client fetch that finds nothing to read is held before it is
/// answered empty: Kafka's `fetch.max.wait.ms` at its default (with
/// `fetch.min.bytes` = 1, so one readable record ends the wait). The
/// deadline is checked by the broker's background tick, so a held fetch
/// comes back between this and one `background_interval` later.
pub const FETCH_MAX_WAIT: SimDuration = SimDuration::from_millis(500);

/// What a client fetch is answered with: the batch, the high watermark, the
/// reader's next offset and the error code.
pub(crate) type FetchAnswer = (RecordBatch, Offset, Offset, ErrorCode);

/// A client fetch held on its partition until a read from `offset` has
/// something to say or `deadline` passes.
#[derive(Debug)]
pub(crate) struct FetchWaiter {
    pub(crate) client: ProcessId,
    pub(crate) corr: CorrelationId,
    pub(crate) offset: Offset,
    pub(crate) max_records: usize,
    pub(crate) read_committed: bool,
    pub(crate) deadline: SimTime,
}

/// The one constructor of a produce response.
pub(crate) fn produce_response(
    corr: CorrelationId,
    tp: TopicPartition,
    base_offset: Offset,
    error: ErrorCode,
) -> Box<dyn Message> {
    Box::new(ClientRpc::ProduceResponse {
        corr,
        tp,
        base_offset,
        error,
    })
}

/// What a follower's fetches have told its leader: the log end it claimed
/// last and when it was last fully caught up. A follower never heard from
/// reads as the default (offset zero, time zero).
#[derive(Debug, Default, Clone, Copy)]
struct FollowerProgress {
    end: Offset,
    caught_up_at: SimTime,
}

#[derive(Debug)]
struct LeaderState {
    epoch: LeaderEpoch,
    isr: Vec<BrokerId>,
    replicas: Vec<BrokerId>,
    /// By broker id.
    followers: IntTable<FollowerProgress>,
    pending: Vec<PendingProduce>,
    /// Client fetches held until there is something to read, in arrival
    /// order, which is deadline order too.
    waiters: Vec<FetchWaiter>,
    /// The partition's `hw_gap/{tp}` and `lso_gap/{tp}` gauges, made once
    /// per reign: every watermark move sets both.
    hw_gap: GaugeHandle,
    lso_gap: GaugeHandle,
}

#[derive(Debug)]
struct FollowerState {
    leader: Option<BrokerId>,
    epoch: LeaderEpoch,
    /// The latest fetch sent for this partition and when, until its reply
    /// arrives. Only that reply continues a catch-up: one that answers an
    /// earlier, superseded request is applied and ends there, so a follower
    /// runs one chain of fetches however many ticks pass while it catches
    /// up.
    awaiting: Option<(CorrelationId, SimTime)>,
}

#[derive(Debug)]
enum Role {
    /// Boxed: a reign's state is an order of magnitude larger than a
    /// follower's, and most hosted partitions are followed.
    Leader(Box<LeaderState>),
    Follower(FollowerState),
}

/// Everything the broker keeps for one hosted partition.
#[derive(Debug)]
pub(crate) struct Partition {
    log: PartitionLog,
    role: Option<Role>,
    /// The highest controller epoch seen: an older `LeaderAndIsr` is stale.
    known_epoch: LeaderEpoch,
    /// Dedup stamps and transaction ranges: what leadership hands over.
    state: Handover,
    /// Sticky compression: the codec of the last produced (or replicated)
    /// batch, stamped onto fetch responses so consumers pay the decompress
    /// cost — the broker itself never re-codes batches, exactly like
    /// Kafka's zero-copy fetch path.
    codec: Compression,
    /// The durable log end: produce acks wait for it when a log backend is
    /// attached.
    durable_end: Offset,
    /// The log end captured when the in-flight flush was issued; it becomes
    /// `durable_end` when that flush completes.
    flush_end: Offset,
}

/// A partition this broker leads, as [`Partition::admit`] or
/// [`Partition::led`] proved: the leader state beside the rest of the
/// record. Leader-only work is a method here.
pub(crate) struct Led<'p> {
    tp: &'p TopicPartition,
    ls: &'p mut LeaderState,
    log: &'p mut PartitionLog,
    state: &'p mut Handover,
    codec: &'p mut Compression,
    durable_end: Offset,
}

impl Partition {
    pub(crate) fn new(cfg: &BrokerConfig) -> Self {
        Partition {
            log: PartitionLog::with_segment_max(cfg.log_segment_max_records),
            role: None,
            known_epoch: LeaderEpoch::default(),
            state: Handover::default(),
            codec: Compression::default(),
            durable_end: Offset::ZERO,
            flush_end: Offset::ZERO,
        }
    }

    pub(crate) fn log(&self) -> &PartitionLog {
        &self.log
    }

    pub(crate) fn has_role(&self) -> bool {
        self.role.is_some()
    }

    /// The epoch and ISR of this broker's reign, when it leads.
    pub(crate) fn reign(&self) -> Option<(LeaderEpoch, &[BrokerId])> {
        match &self.role {
            Some(Role::Leader(ls)) => Some((ls.epoch, &ls.isr)),
            _ => None,
        }
    }

    /// The leader view, when this broker leads the partition.
    pub(crate) fn led<'p>(&'p mut self, tp: &'p TopicPartition) -> Option<Led<'p>> {
        let Partition {
            role: Some(Role::Leader(ls)),
            log,
            state,
            codec,
            durable_end,
            ..
        } = self
        else {
            return None;
        };
        Some(Led {
            tp,
            ls,
            log,
            state,
            codec,
            durable_end: *durable_end,
        })
    }

    /// The one admission decision for a partition RPC, in this order:
    ///
    /// 1. a fenced broker (KRaft, session lapsed) serves nothing;
    /// 2. only the leader serves;
    /// 3. leader-epoch fencing, when the request is stamped (`epoch`). An
    ///    *older* epoch is aimed at a deposed leader's reign — a delayed
    ///    produce released after an election, or a zombie client that never
    ///    refreshed — and must bounce (`StaleEpoch` is retriable, so a live
    ///    client refreshes metadata and retries against the new reign). A
    ///    *newer* epoch means this broker is the deposed one still serving
    ///    on stale state: `NotLeader` sends the client to the real leader.
    ///    (An isolated ZK-mode leader and its co-located clients share the
    ///    same stale epoch, so the Fig. 6b silent-loss pathology is
    ///    untouched by this fence.)
    /// 4. `acks=all` needs a healthy quorum (`min_isr`, zero otherwise):
    ///    with the ISR shrunk below `min.insync.replicas`, reject rather
    ///    than accept records only a rump of the replica set would hold.
    pub(crate) fn admit<'p>(
        this: Option<&'p mut Self>,
        tp: &'p TopicPartition,
        fenced: bool,
        epoch: Option<LeaderEpoch>,
        min_isr: usize,
    ) -> Result<Led<'p>, ErrorCode> {
        if fenced {
            return Err(ErrorCode::Fenced);
        }
        let led = this.and_then(|p| p.led(tp)).ok_or(ErrorCode::NotLeader)?;
        match epoch {
            Some(req) if req < led.ls.epoch => Err(ErrorCode::StaleEpoch),
            Some(req) if req > led.ls.epoch => Err(ErrorCode::NotLeader),
            _ if led.ls.isr.len() < min_isr => Err(ErrorCode::NotEnoughReplicas),
            _ => Ok(led),
        }
    }

    /// Applies a controller instruction: promotion, an ISR update to a
    /// sitting leader, step-down to follower, or loss of the role. An
    /// instruction older than the highest epoch seen is ignored.
    pub(crate) fn apply_leader_and_isr(
        &mut self,
        ctx: &mut Ctx<'_>,
        host: &mut Host,
        m: PartitionMetadata,
    ) {
        if m.epoch < self.known_epoch {
            return; // stale instruction
        }
        let same_epoch_update = m.epoch == self.known_epoch;
        self.known_epoch = m.epoch;
        let now = ctx.now();
        let tp = &m.tp;
        if m.leader == Some(host.id) {
            match &mut self.role {
                Some(Role::Leader(ls)) if same_epoch_update => {
                    // ISR confirmation/adjustment from the controller.
                    ls.isr = m.isr;
                }
                role => {
                    let mut followers: IntTable<FollowerProgress> = IntTable::default();
                    for b in &m.isr {
                        followers.get_or_default(u64::from(b.0)).caught_up_at = now;
                    }
                    // A sitting leader promoted under a newer epoch still
                    // leads: the fetches it holds carry no epoch and wait on.
                    let waiters = match role.take() {
                        Some(Role::Leader(old)) => old.waiters,
                        _ => Vec::new(),
                    };
                    *role = Some(Role::Leader(Box::new(LeaderState {
                        epoch: m.epoch,
                        followers,
                        isr: m.isr,
                        replicas: m.replicas,
                        pending: Vec::new(),
                        waiters,
                        hw_gap: host.tele.gauge(&host.name, &format!("hw_gap/{tp}")),
                        lso_gap: host.tele.gauge(&host.name, &format!("lso_gap/{tp}")),
                    })));
                    self.state.promote();
                    host.leadership_events.push((now, tp.clone(), true));
                }
            }
            // A fresh leader re-evaluates at once (a recovered log may
            // carry a watermark below its end); a sitting one, under its
            // new ISR.
            if let Some(mut led) = self.led(tp) {
                led.advance_hw(ctx, host);
            }
        } else if m.replicas.contains(&host.id) {
            if let Some(mut led) = self.led(tp) {
                led.end_reign(ctx, host);
                host.leadership_events.push((now, tp.clone(), false));
            }
            self.role = Some(Role::Follower(FollowerState {
                leader: m.leader,
                epoch: m.epoch,
                awaiting: None,
            }));
        } else {
            if let Some(mut led) = self.led(tp) {
                led.end_reign(ctx, host);
            }
            self.role = None;
        }
    }

    /// As a follower of `leader`, this partition's part of fetch `corr`,
    /// which becomes its latest; none while an earlier fetch is awaited.
    /// The periodic fetch gives up on (`give_up_after`) and supersedes one
    /// that has gone a whole fetch interval unanswered: a follower whose
    /// leader is unreachable would otherwise wait forever for a reply that
    /// was dropped. A superseded reply that does arrive is harmless,
    /// appends being idempotent. A younger one is a catch-up in progress,
    /// and asking again would only fetch its range twice.
    pub(crate) fn fetch_part(
        &mut self,
        tp: &TopicPartition,
        leader: BrokerId,
        corr: CorrelationId,
        now: SimTime,
        give_up_after: Option<SimDuration>,
    ) -> Option<ReplicaFetchPart> {
        let Some(Role::Follower(fs)) = &mut self.role else {
            return None;
        };
        let lost = |sent| give_up_after.is_some_and(|age| now.saturating_since(sent) >= age);
        if fs.leader != Some(leader) || fs.awaiting.is_some_and(|(_, sent)| !lost(sent)) {
            return None;
        }
        fs.awaiting = Some((corr, now));
        Some(ReplicaFetchPart {
            tp: tp.clone(),
            log_end: self.log.log_end(),
            // The epoch of our log tail, not the announced leader epoch:
            // that is what lets the leader detect a divergent suffix
            // appended while we were isolated and tell us to truncate it.
            epoch: self.log.last_epoch().unwrap_or(fs.epoch),
        })
    }

    /// As a follower, takes delivery of this partition's part of the reply
    /// to fetch `corr`; a successful one announces the leader's epoch.
    /// Returns whether there is anything to apply (not for a non-follower,
    /// or an error: wait for a fresh `LeaderAndIsr`) and whether this
    /// answered the latest fetch, which is then no longer awaited.
    pub(crate) fn fetch_answered(
        &mut self,
        corr: CorrelationId,
        epoch: LeaderEpoch,
        error: ErrorCode,
    ) -> (bool, bool) {
        let Some(Role::Follower(fs)) = &mut self.role else {
            return (false, false);
        };
        let latest = fs.awaiting.is_some_and(|(awaited, _)| awaited == corr);
        if latest {
            fs.awaiting = None;
        }
        if error.is_ok() {
            fs.epoch = epoch;
        }
        (error.is_ok(), latest)
    }

    /// Discards the divergent suffix at and past `to`, as the leader
    /// instructed.
    pub(crate) fn truncate(&mut self, host: &mut Host, to: Offset) {
        let before = self.log.retained_bytes() as u64;
        host.stats.records_truncated += self.log.truncate_to(to) as u64;
        host.retained_bytes = host.retained_bytes + self.log.retained_bytes() as u64 - before;
        // Discarded entries may hold the highest seqs; rebuild the dedup
        // state from what remains. Mirrored stamps predate the truncation
        // and may cover discarded records — drop them; the next caught-up
        // fetch repopulates from the new reign's leader.
        self.rebuild_seqs();
        self.state.forget_mirrored_seqs();
        // The durable floor must shrink with the log: offsets beyond the
        // truncation point are no longer covered by a valid flush, and
        // future appends there must wait for their own flush before being
        // acknowledged. An in-flight flush's claim is clamped too — its
        // blobs hold the discarded divergent suffix, not the live log.
        let new_end = self.log.log_end();
        self.durable_end = self.durable_end.min(new_end);
        self.flush_end = self.flush_end.min(new_end);
    }

    /// Stores the leader's runs at their own offsets (a compacted leader
    /// log serves holes, and replicas must preserve offsets to stay
    /// byte-identical) as the same views of the same batches, and adopts
    /// its high watermark. Returns how many records were new.
    pub(crate) fn replicate(
        &mut self,
        host: &mut Host,
        runs: Vec<LogRun>,
        compression: Compression,
        high_watermark: Offset,
    ) -> u64 {
        // Remember the leader's codec so a promotion keeps serving fetches
        // with the right compression flag.
        if !runs.is_empty() {
            self.codec = compression;
        }
        let bytes_before = self.log.retained_bytes();
        let mut appended = 0u64;
        for run in runs {
            for r in &run.batch {
                self.state
                    .raise_seq(r.producer.0, (r.producer_epoch, r.producer_seq));
            }
            let offered = run.len();
            let new = self.log.append_run(run);
            host.stats.replica_records_redundant += (offered - new) as u64;
            appended += new as u64;
        }
        host.retained_bytes += (self.log.retained_bytes() - bytes_before) as u64;
        host.stats.records_appended += appended;
        let end = self.log.log_end();
        self.log.advance_high_watermark(high_watermark.min(end));
        appended
    }

    /// Mirrors the leader's transactional state and, when they ride along,
    /// its dedup stamps ([`Handover::mirror`]), against the log as it now
    /// stands. Returns whether the transaction state changed.
    pub(crate) fn mirror(&mut self, view: &Rc<MirrorView>, seqs_ride: bool) -> bool {
        self.state.mirror(view, seqs_ride, self.log.log_end())
    }

    /// Rebuilds the idempotent-producer dedup state from the log (after
    /// truncation or restart replay).
    fn rebuild_seqs(&mut self) {
        let stamps = (self.log.entries())
            .map(|(_, _, r)| (r.producer.0, (r.producer_epoch, r.producer_seq)));
        self.state.rebuild_seqs(stamps);
    }

    /// Installs the log a restart replay rebuilt — all of it durable — and
    /// the dedup state it implies, so batches retried across the bounce are
    /// not appended twice.
    pub(crate) fn restore(&mut self, log: PartitionLog) {
        self.durable_end = log.log_end();
        self.log = log;
        self.rebuild_seqs();
    }

    /// Installs the transaction state a restart replay recovered.
    pub(crate) fn restore_txns(&mut self, txns: PartitionTxns) {
        *self.state.txns_mut() = txns;
    }

    /// The transaction state as the meta blob stores it, if there is any.
    pub(crate) fn txns_meta(&self, tp: &TopicPartition) -> Option<MetaPartitionTxns> {
        self.state.txns().to_meta(tp)
    }

    /// Resolves the matching open transactions ([`Handover::resolve_txns`]).
    pub(crate) fn resolve_txns(
        &mut self,
        producer: u32,
        which: impl Fn(u64) -> bool,
        below_epoch: Option<u32>,
        commit: bool,
    ) -> u64 {
        self.state
            .resolve_txns(producer, which, below_epoch, commit)
    }

    /// One cleaner pass: retention first (whole segments are cheapest),
    /// then keyed compaction. Aborted ranges wholly below the advanced log
    /// start reference vanished records; they are dropped so the list (and
    /// the meta blob) stays bounded by live history.
    pub(crate) fn clean(
        &mut self,
        now: SimTime,
        cfg: &BrokerConfig,
    ) -> (CleanOutcome, CleanOutcome) {
        let retained =
            self.log
                .apply_retention(now, cfg.log_retention_age, cfg.log_retention_bytes);
        let compacted = if cfg.log_compaction {
            self.log.compact()
        } else {
            CleanOutcome::default()
        };
        if self.state.txns().has_aborted() {
            let log_start = self.log.log_start().value();
            self.state.txns_mut().forget_aborted_below(log_start);
        }
        (retained, compacted)
    }

    /// Hands the dirty segments to a flush and remembers the log end that
    /// flush will make durable.
    pub(crate) fn begin_flush(&mut self) -> Vec<(u64, Vec<u8>)> {
        self.flush_end = self.log.log_end();
        self.log.take_dirty_segments()
    }

    /// The flush [`begin_flush`](Self::begin_flush) fed became durable.
    pub(crate) fn flush_done(&mut self) {
        self.durable_end = self.durable_end.max(self.flush_end);
    }
}

/// The records of a client read as one batch: the run's own view when the
/// read fell inside one run, else a fresh batch of the runs' records. This
/// is the one place a read copies records (a `Record` clone bumps its
/// payload's refcount), and the copy lives only as long as the reply.
fn one_batch(runs: &[LogRun]) -> RecordBatch {
    match runs {
        [] => RecordBatch::new(),
        [run] => run.batch.clone(),
        runs => {
            let mut records = Vec::with_capacity(runs.iter().map(LogRun::len).sum());
            for run in runs {
                records.extend_from_slice(run.batch.records());
            }
            RecordBatch::from_records(records)
        }
    }
}

impl Led<'_> {
    /// Appends the batch's fresh records and returns their base offset and
    /// count.
    ///
    /// Idempotent-producer dedup: a record whose `(producer, seq)` this
    /// partition already appended is a retry whose ack was lost (timeout,
    /// broker bounce) — it is acknowledged without a second copy. The log
    /// stores views of the producer's own batch, shared with the retry copy
    /// the producer still holds: a dropped duplicate splits the view, and
    /// no record is copied.
    ///
    /// A transactional batch (`txn`) stays invisible to read-committed
    /// consumers until its EndTxn marker: its offset range is staged.
    pub(crate) fn append(
        &mut self,
        now: SimTime,
        host: &mut Host,
        batch: &RecordBatch,
        txn: Option<u64>,
    ) -> (Offset, usize) {
        // The sticky codec: fetches of this partition are served with
        // whatever the last producer sealed.
        *self.codec = batch.compression();
        host.metrics.batch_records.observe(batch.len() as f64);
        host.metrics
            .batch_bytes
            .observe(batch.record_bytes() as f64);
        let bytes_before = self.log.retained_bytes();
        let mut staging = None;
        // One lookup and one write-back per stretch of records from the
        // same producer (a batch is normally a single stretch), with its
        // latest stamp carried in between so a later record still sees an
        // earlier one of its own batch.
        let (state, stats) = (&mut *self.state, &mut host.stats);
        let mut current: Option<(u32, Option<(u32, u64)>)> = None;
        let fresh = |r: &Record| {
            let producer = r.producer.0;
            if let Some((p, Some(last))) = current.take_if(|(p, _)| *p != producer) {
                state.raise_seq(p, last);
            }
            let (_, last) = current.get_or_insert_with(|| (producer, state.seq(producer)));
            // Same-or-older (epoch, seq) is a stale retry; a bumped epoch
            // is a respawned client restarting at seq zero.
            let stamp = (r.producer_epoch, r.producer_seq);
            if last.is_some_and(|last| stamp <= last) {
                stats.duplicates_filtered += 1;
                return false;
            }
            *last = Some(stamp);
            staging.get_or_insert((producer, r.producer_epoch));
            true
        };
        let (base, n) = self.log.append_kept(self.ls.epoch, batch, fresh);
        if let Some((p, Some(last))) = current {
            state.raise_seq(p, last);
        }
        host.retained_bytes += (self.log.retained_bytes() - bytes_before) as u64;
        host.update_mem();
        host.stats.records_appended += n as u64;
        host.metrics.produces.add(1);
        host.metrics.records_appended.add(n as u64);
        host.metrics.log_bytes.set(host.retained_bytes as f64);
        if host.tele.trace_enabled() && n > 0 {
            let name = format!("append:{}", self.tp);
            host.tele.trace_instant(now, &host.name, &name, "broker");
        }
        if let (Some(t), Some((pid, rec_epoch))) = (txn, staging) {
            let end = base.value() + n as u64;
            let txns = self.state.txns_mut();
            if txns.stage((pid, t), base.value(), end, rec_epoch) {
                host.stats.txns_aborted += 1;
            }
            host.dirty = true;
        }
        (base, n)
    }

    /// Parks a produce until the watermark and the durable end cover it.
    pub(crate) fn pend(&mut self, p: PendingProduce) {
        self.ls.pending.push(p);
    }

    /// What a consumer read from `offset` has to say, or `None` when that is
    /// nothing: no record, no error, and the reader's position stays.
    ///
    /// A reader sees the log up to the high watermark; on a broker with a
    /// durable log only up to the durable end as well, because what a flush
    /// still in flight covers is lost with a crash, and a reader that had
    /// seen it would read it again from the producer's retry.
    /// Read-committed isolation caps that at the last stable offset:
    /// nothing of an open transaction leaks out before its marker flips.
    fn read(
        &self,
        host: &Host,
        offset: Offset,
        max_records: usize,
        read_committed: bool,
    ) -> Option<FetchAnswer> {
        let hw = self.log.high_watermark();
        let start = self.log.log_start();
        if offset < start {
            // Retention dropped the requested range: reset the reader to
            // the earliest record.
            return Some((RecordBatch::new(), hw, start, ErrorCode::OffsetOutOfRange));
        }
        if offset > hw {
            return Some((RecordBatch::new(), hw, hw, ErrorCode::OffsetOutOfRange));
        }
        let end = if host.durable {
            hw.min(self.durable_end)
        } else {
            hw
        };
        let txns = self.state.txns();
        let visible_end = match txns.lso() {
            Some(lso) if read_committed => Offset(lso).min(end),
            _ => end,
        };
        if visible_end <= offset {
            return None;
        }
        let max = max_records.min(host.cfg.fetch_max_records);
        let mut runs = self.log.read_below(offset, visible_end, max);
        let scanned_end = runs.last().map(LogRun::end);
        // Aborted transactions' records are holes to a read-committed
        // reader, exactly like compacted ones.
        if read_committed && txns.has_aborted() {
            let mut committed = Vec::with_capacity(runs.len());
            for run in &runs {
                let keep = |o: Offset, _: &Record| !txns.is_aborted(o.value());
                split_run(run, keep, |part| committed.push(part));
            }
            runs = committed;
        }
        // Advance past the last served record — else past the last scanned
        // one, so an aborted stretch is skipped — or, on an empty read, over
        // a fully compacted tail hole to the visible end.
        let next = (runs.last().map(LogRun::end))
            .or(scanned_end)
            .unwrap_or(visible_end);
        let batch = one_batch(&runs).with_compression(*self.codec);
        Some((batch, hw, next, ErrorCode::None))
    }

    /// Serves a client fetch: answered at once when the read has something
    /// to say, held on the partition otherwise.
    pub(crate) fn fetch(&mut self, ctx: &mut Ctx<'_>, host: &mut Host, w: FetchWaiter) {
        match self.read(host, w.offset, w.max_records, w.read_committed) {
            Some(answer) => host.answer_fetch(ctx, w.client, w.corr, self.tp, answer),
            None => {
                host.stats.fetches_parked += 1;
                host.metrics.fetches_parked.add(1);
                self.ls.waiters.push(w);
            }
        }
    }

    /// Reads again for every held fetch, in arrival order, and answers
    /// those whose read now has something to say. Called wherever the end a
    /// reader sees can have moved: the watermark, the durable end, the last
    /// stable offset.
    pub(crate) fn wake_waiters(&mut self, ctx: &mut Ctx<'_>, host: &mut Host) {
        if self.ls.waiters.is_empty() {
            return;
        }
        let mut waiters = std::mem::take(&mut self.ls.waiters);
        waiters.retain(
            |w| match self.read(host, w.offset, w.max_records, w.read_committed) {
                Some(answer) => {
                    host.answer_fetch(ctx, w.client, w.corr, self.tp, answer);
                    false
                }
                None => true,
            },
        );
        self.ls.waiters = waiters;
    }

    /// The background tick's look at the held fetches: on a fenced broker
    /// all of them are refused, otherwise those past their deadline get the
    /// empty reply they waited to avoid.
    pub(crate) fn expire_waiters(&mut self, ctx: &mut Ctx<'_>, host: &mut Host, fenced: bool) {
        if fenced {
            return self.fail_waiters(ctx, host, ErrorCode::Fenced);
        }
        let now = ctx.now();
        let due = self.ls.waiters.partition_point(|w| w.deadline <= now);
        let hw = self.log.high_watermark();
        for w in self.ls.waiters.drain(..due) {
            host.stats.fetches_expired += 1;
            host.metrics.fetches_expired.add(1);
            let answer = (RecordBatch::new(), hw, w.offset, ErrorCode::None);
            host.answer_fetch(ctx, w.client, w.corr, self.tp, answer);
        }
    }

    fn fail_waiters(&mut self, ctx: &mut Ctx<'_>, host: &mut Host, error: ErrorCode) {
        for w in std::mem::take(&mut self.ls.waiters) {
            host.count_rejection(error);
            let answer = (RecordBatch::new(), Offset::ZERO, w.offset, error);
            host.answer_fetch(ctx, w.client, w.corr, self.tp, answer);
        }
    }

    /// Serves one part of a replica fetch from follower `from`, whose log
    /// ends at `log_end` under tail epoch `epoch`, with at most
    /// `max_records` (what the request's cap has left): records its
    /// progress (proposing an ISR expansion when it caught up), advances
    /// the watermark, and builds the part's answer.
    pub(crate) fn serve_fetch(
        &mut self,
        ctx: &mut Ctx<'_>,
        host: &mut Host,
        from: BrokerId,
        log_end: Offset,
        epoch: LeaderEpoch,
        max_records: usize,
    ) -> ReplicaFetchedPart {
        let now = ctx.now();
        // Divergence reconciliation: a follower on an older epoch may hold
        // a conflicting suffix and must truncate first.
        let mut truncate_to = None;
        let mut start = log_end;
        if epoch < self.ls.epoch {
            let boundary = self.log.end_offset_for_epoch(epoch);
            if boundary < log_end {
                truncate_to = Some(boundary);
                start = boundary;
            }
        }
        let runs = self.log.read_entries(start, max_records, false);
        let high_watermark = self.log.high_watermark();
        let caught_up = start >= self.log.log_end();
        // Update follower progress from its claimed log end.
        let progress = self.ls.followers.get_or_default(u64::from(from.0));
        progress.end = start;
        if caught_up {
            progress.caught_up_at = now;
            // Propose ISR expansion for recovered followers. In ZooKeeper
            // mode the leader applies it locally first; in KRaft mode it
            // waits for quorum confirmation.
            if !self.ls.isr.contains(&from) && self.ls.replicas.contains(&from) {
                let mut new_isr = self.ls.isr.clone();
                new_isr.push(from);
                if host.mode == CoordinationMode::Zk {
                    self.ls.isr = new_isr.clone();
                }
                host.stats.isr_expands += 1;
                self.alter_isr(ctx, host, new_isr);
            }
        }
        self.advance_hw(ctx, host);
        // Transactional-state handover: every reply mirrors the leader's
        // open/aborted transaction ranges so a promoted follower can keep
        // read-committed isolation and resolve in-flight transactions
        // itself. Producer dedup stamps ride along only when the follower
        // is fully caught up (then every stamp is covered by its log and
        // can never phantom-ack a record the follower does not hold).
        ReplicaFetchedPart {
            tp: self.tp.clone(),
            runs,
            compression: *self.codec,
            high_watermark,
            epoch: self.ls.epoch,
            truncate_to,
            mirror: self.state.view(),
            seqs_ride: caught_up,
            error: ErrorCode::None,
        }
    }

    fn alter_isr(&self, ctx: &mut Ctx<'_>, host: &Host, new_isr: Vec<BrokerId>) {
        host.send_controllers(
            ctx,
            ControllerRpc::AlterIsr {
                tp: self.tp.clone(),
                from: host.id,
                epoch: self.ls.epoch,
                new_isr,
            },
        );
    }

    /// Drops ISR members silent past `replica.lag.time.max` and proposes
    /// the shrunk ISR to the controller.
    pub(crate) fn shrink_isr(&mut self, ctx: &mut Ctx<'_>, host: &mut Host) {
        let now = ctx.now();
        let ls = &mut *self.ls;
        let lags = |b: &BrokerId| {
            let progress = ls.followers.get(u64::from(b.0));
            let caught_up = progress.map_or(SimTime::ZERO, |p| p.caught_up_at);
            *b != host.id && now.saturating_since(caught_up) > host.cfg.replica_lag_max
        };
        let new_isr: Vec<BrokerId> = ls.isr.iter().copied().filter(|b| !lags(b)).collect();
        if new_isr.len() == ls.isr.len() {
            return;
        }
        let zk = host.mode == CoordinationMode::Zk;
        if zk {
            // ZooKeeper-era behavior: apply locally first — this is what
            // lets an isolated leader advance its HW over unreplicated
            // records (the silent-loss precondition).
            ls.isr = new_isr.clone();
        }
        host.stats.isr_shrinks += 1;
        self.alter_isr(ctx, host, new_isr);
        if zk {
            self.advance_hw(ctx, host);
        }
    }

    /// Advances the high watermark from follower state and acknowledges
    /// pending produces whose replication and durability requirements are
    /// both met.
    pub(crate) fn advance_hw(&mut self, ctx: &mut Ctx<'_>, host: &mut Host) {
        let prev_hw = self.log.high_watermark();
        let log_end = self.log.log_end();
        // The watermark is the highest offset every ISR member holds: the
        // minimum log end over the ISR, never past the leader's own.
        let LeaderState { isr, followers, .. } = &*self.ls;
        let ends = isr.iter().map(|b| match followers.get(u64::from(b.0)) {
            _ if *b == host.id => log_end,
            Some(progress) => progress.end,
            None => Offset::ZERO,
        });
        let isr_end = ends.fold(log_end, Offset::min);
        self.log.advance_high_watermark(isr_end);
        let hw = self.log.high_watermark();
        // Watermark moves are metadata; the interval flush persists them.
        host.dirty |= hw != prev_hw;
        let durable = if host.durable {
            self.durable_end
        } else {
            Offset(u64::MAX)
        };
        // Acknowledge pending produces now covered by the HW and the
        // durable end, in the order they were parked.
        let tp = self.tp;
        self.ls.pending.retain(|p| {
            let ready = p.need <= hw && p.need_durable <= durable;
            if ready {
                let msg = produce_response(p.corr, tp.clone(), p.base, ErrorCode::None);
                host.respond_after_cpu(ctx, host.request_cost(p.records), p.client, msg);
            }
            !ready
        });
        // Refresh the watermark-gap gauges: `hw_gap` is the unreplicated
        // suffix (log end minus high watermark) and `lso_gap` is the
        // open-transaction window (high watermark minus last stable
        // offset) that read-committed consumers cannot see yet.
        let hw = hw.value();
        let lso = self.state.txns().lso().map_or(hw, |l| l.min(hw));
        let hw_gap = log_end.value().saturating_sub(hw);
        self.ls.hw_gap.set(hw_gap as f64);
        self.ls.lso_gap.set((hw - lso) as f64);
        self.wake_waiters(ctx, host);
    }

    /// The reign is over: every pending produce and every held fetch is
    /// answered `NotLeader`.
    fn end_reign(&mut self, ctx: &mut Ctx<'_>, host: &mut Host) {
        for p in std::mem::take(&mut self.ls.pending) {
            let msg = produce_response(p.corr, self.tp.clone(), p.base, ErrorCode::NotLeader);
            host.respond_after_cpu(ctx, host.cfg.cpu_per_request, p.client, msg);
        }
        self.fail_waiters(ctx, host, ErrorCode::NotLeader);
    }
}
