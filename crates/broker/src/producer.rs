//! The producer client: buffering, batching, retries, delivery timeouts.
//!
//! [`ProducerClient`] is an embeddable state machine (the stream processing
//! engine embeds one to emit results); [`ProducerProcess`] pairs it with a
//! pluggable [`DataSource`] to form stream2gym's standalone producer stubs.
//!
//! Faithfully modeled Kafka-producer behaviors the experiments depend on:
//!
//! * `buffer.memory` — records queue in a bounded pool (16/32 MB in Fig. 9c);
//! * `request.timeout.ms` + retries with backoff — an unreachable leader
//!   causes timed-out requests that retry until `delivery.timeout.ms`
//!   expires, which is why the disconnected producer's topic-B messages
//!   arrive with up-to-partition-length latency in Fig. 6c rather than
//!   being lost;
//! * per-partition in-flight slots — a blocked partition does not
//!   head-of-line-block the other topic.

use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use bytes::Bytes;
use rand::rngs::StdRng;

use s2g_proto::{
    ClientRpc, CorrelationId, ProducerId, Record, RecordBatch, TopicName, TopicPartition,
    RECORD_OVERHEAD,
};
use s2g_sim::{
    downcast, Ctx, LedgerHandle, MemSlot, Message, Process, ProcessId, SimDuration, SimTime,
    TimerToken,
};
use s2g_telemetry::{CounterHandle, Histogram, Telemetry};

use crate::config::ProducerConfig;
use crate::metadata::{draw_corr, MetadataSession};
use crate::table::IntTable;

/// Tag namespace base for producer-owned timers and CPU work. The embedding
/// process must forward tags in `PRODUCER_TAGS..PRODUCER_TAGS_END`.
pub const PRODUCER_TAGS: u64 = 1 << 40;
/// End of the producer tag namespace (exclusive).
pub const PRODUCER_TAGS_END: u64 = 1 << 41;

mod off {
    pub const RETRY_PUMP: u64 = 1;
    pub const META_TIMEOUT: u64 = 2;
    pub const TXN_RETRY: u64 = 4;
    pub const LINGER_BASE: u64 = 1_000;
    pub const REQ_TIMEOUT_BASE: u64 = 1_000_000;
}

/// What a data source tells its producer process to do next.
#[derive(Debug)]
pub enum SourceAction {
    /// Emit a record to `topic`, then call back after `next_after`.
    Emit {
        /// Destination topic.
        topic: String,
        /// Optional key.
        key: Option<Vec<u8>>,
        /// Payload.
        value: Vec<u8>,
        /// Delay before the next `next()` call.
        next_after: SimDuration,
    },
    /// Do nothing and call back after the given delay.
    Wait(SimDuration),
    /// The source is exhausted; stop stepping.
    Done,
}

/// A pluggable data generator for producer stubs (stream2gym's `prodType`).
pub trait DataSource {
    /// Produces the next action. `now` is the current simulated time and
    /// `rng` the run's seeded generator (for stochastic sources).
    fn next(&mut self, now: SimTime, rng: &mut StdRng) -> SourceAction;
}

/// Final outcome of one produced record. Kept only by a client that
/// [captures records](ProducerClient::capture_records).
#[derive(Debug, Clone)]
pub struct ProduceOutcome {
    /// Producer-assigned sequence number.
    pub seq: u64,
    /// Destination topic, interned per client: one allocation per topic,
    /// not per record.
    pub topic: Rc<str>,
    /// When the record entered the producer.
    pub created: SimTime,
    /// When the outcome was decided (ack received or delivery timeout).
    pub completed: SimTime,
    /// True if the broker acknowledged the record.
    pub delivered: bool,
}

/// The identity of one record accepted into a producer's buffer:
/// `(topic, seq, created)`, the topic interned like
/// [`ProduceOutcome::topic`].
pub type SentRecord = (Rc<str>, u64, SimTime);

/// Producer counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProducerStats {
    /// Records accepted into the buffer.
    pub sent: u64,
    /// Records acknowledged.
    pub acked: u64,
    /// Records that exhausted their delivery timeout.
    pub failed: u64,
    /// Records rejected because the buffer pool was full.
    pub buffer_rejected: u64,
    /// Produce request retries.
    pub retries: u64,
}

/// One accepted record's place in its topic's accumulation buffer. The key
/// bytes (when keyed) and then the value bytes follow the previous record's
/// back to back, so the lengths alone locate them.
#[derive(Debug)]
struct Pending {
    key_len: Option<usize>,
    value_len: usize,
    timestamp: SimTime,
    seq: u64,
}

/// One topic's accumulating batch, created on the topic's first record and
/// kept for the client's lifetime.
#[derive(Debug)]
struct AccumBatch {
    /// Dense id in first-send order; names the topic's linger timer tag.
    id: u64,
    /// The topic's one name: every sealed sub-batch's `TopicPartition` and
    /// every captured record identity shares it.
    topic: TopicName,
    /// Key and value bytes of every pending record. A flush freezes it into
    /// the one shared buffer the sealed records are views of: a record
    /// costs no allocation of its own between `send` and the log.
    buf: Vec<u8>,
    pending: Vec<Pending>,
    /// Length of the last frozen buffer: the next one is allocated at that
    /// size, once, instead of doubling its way up from empty.
    buf_hint: usize,
    /// Encoded (framing included) size of the pending records.
    bytes: usize,
    linger_timer: Option<TimerToken>,
    /// Round-robin cursor for keyless sub-batches.
    rr: u32,
}

#[derive(Debug)]
struct ReadyBatch {
    tp: TopicPartition,
    /// The sealed, shareable batch. Sealed once at flush time; every send
    /// and retry reuses it with a reference-count bump instead of cloning
    /// the records.
    batch: RecordBatch,
    /// Uncompressed record bytes, for buffer-pool accounting.
    bytes: usize,
    created: SimTime,
    attempts: u32,
    /// The instant the batch may next be sent: a retry waits out
    /// `retry_backoff` at the head of its partition's queue.
    not_before: SimTime,
    /// The open transaction the batch belongs to, captured at flush time.
    txn: Option<u64>,
}

/// One outstanding transaction-control RPC (EndTxn / TxnRecover), kept so a
/// lost request or response can be re-sent — a lost commit marker would
/// otherwise park read-committed consumers at the stale LSO forever.
#[derive(Debug, Clone, Copy)]
enum TxnCtl {
    End {
        broker: ProcessId,
        txn: u64,
        commit: bool,
    },
    Recover {
        broker: ProcessId,
        producer: ProducerId,
        commit_upto: u64,
        epoch: u32,
    },
}

#[derive(Debug)]
struct Inflight {
    batch: ReadyBatch,
    timer: TimerToken,
}

/// The metrics of a client with telemetry attached, each looked up in the
/// registry by its first update and never again.
struct ProducerMetrics {
    records_sent: CounterHandle,
    records_acked: CounterHandle,
    records_failed: CounterHandle,
}

/// The embeddable producer state machine.
pub struct ProducerClient {
    id: ProducerId,
    /// This client incarnation's epoch: bumped by the orchestrator when a
    /// crashed embedding process restarts, so broker-side idempotent dedup
    /// distinguishes a fresh sequence-zero stream from a stale retry.
    epoch: u32,
    cfg: ProducerConfig,
    brokers: BTreeMap<s2g_proto::BrokerId, ProcessId>,
    meta: MetadataSession,
    next_seq: u64,
    next_corr: u64,
    accum: BTreeMap<String, AccumBatch>,
    ready: BTreeMap<TopicPartition, VecDeque<ReadyBatch>>,
    inflight: BTreeMap<TopicPartition, Inflight>,
    /// The partition each in-flight produce is for, by correlation id.
    corr_to_tp: IntTable<TopicPartition>,
    buffer_used: usize,
    stats: ProducerStats,
    /// Produce-to-ack latency of every acknowledged record, in seconds.
    ack_latency: Histogram,
    /// Whether per-record identity is kept; off, the two vectors below
    /// stay empty and a run retains nothing per record here.
    capture: bool,
    outcomes: Vec<ProduceOutcome>,
    sent_index: Vec<SentRecord>,
    mem: Option<(LedgerHandle, MemSlot)>,
    /// The open transaction stamped on produced batches, when transactional.
    txn: Option<u64>,
    /// Records handed to the buffer per transaction.
    txn_sent: BTreeMap<u64, u64>,
    /// Records *acknowledged* per transaction. Failed (delivery-timeout)
    /// records deliberately do not count: a transaction whose staged batch
    /// did not fully reach the broker must never look committable — the
    /// checkpoint stalls instead of committing a hole into the sink.
    txn_done: BTreeMap<u64, u64>,
    /// Outstanding EndTxn/TxnRecover RPCs by correlation id.
    txn_ctl: BTreeMap<u64, TxnCtl>,
    /// Telemetry sink; records nothing until a scope is attached.
    tele: Telemetry,
    /// Scope metrics are recorded under; empty means detached.
    tele_scope: String,
    /// `None` while telemetry is detached.
    metrics: Option<ProducerMetrics>,
}

impl ProducerClient {
    /// Creates a client. `bootstrap` is the broker used for metadata;
    /// `brokers` maps broker ids to process ids. `corr_parity` (0 or 1)
    /// disambiguates correlation ids when a producer and consumer client
    /// share one process.
    pub fn new(
        id: ProducerId,
        cfg: ProducerConfig,
        bootstrap: ProcessId,
        brokers: BTreeMap<s2g_proto::BrokerId, ProcessId>,
        corr_parity: u64,
    ) -> Self {
        let meta_timeout_tag = PRODUCER_TAGS + off::META_TIMEOUT;
        ProducerClient {
            id,
            epoch: 0,
            meta: MetadataSession::new(bootstrap, &brokers, cfg.request_timeout, meta_timeout_tag),
            cfg,
            brokers,
            next_seq: 0,
            next_corr: corr_parity,
            accum: BTreeMap::new(),
            ready: BTreeMap::new(),
            inflight: BTreeMap::new(),
            corr_to_tp: IntTable::default(),
            buffer_used: 0,
            stats: ProducerStats::default(),
            ack_latency: Histogram::latency_seconds(),
            capture: false,
            outcomes: Vec::new(),
            sent_index: Vec::new(),
            mem: None,
            txn: None,
            txn_sent: BTreeMap::new(),
            txn_done: BTreeMap::new(),
            txn_ctl: BTreeMap::new(),
            tele: Telemetry::new(),
            tele_scope: String::new(),
            metrics: None,
        }
    }

    /// Tells a respawned client which incarnation of its process it is (0,
    /// the default, is the first). Correlation ids then start at
    /// `incarnation << 32` (on the parity given to [`new`](Self::new)), so
    /// a reply to a request of the crashed incarnation (a respawn reuses
    /// the process id) matches nothing this one sends. Call before the
    /// first request.
    pub fn set_incarnation(&mut self, incarnation: u64) {
        self.next_corr = incarnation << 32 | (self.next_corr & 1);
    }

    /// Attaches the run-wide telemetry sink. The client records sent /
    /// acked record counts, produce trace events, and transaction
    /// begin/commit instants under `scope`.
    pub fn set_telemetry(&mut self, tele: Telemetry, scope: impl Into<String>) {
        self.tele_scope = scope.into();
        self.metrics = (!self.tele_scope.is_empty()).then(|| ProducerMetrics {
            records_sent: tele.counter(&self.tele_scope, "records_sent"),
            records_acked: tele.counter(&self.tele_scope, "records_acked"),
            records_failed: tele.counter(&self.tele_scope, "records_failed"),
        });
        self.tele = tele;
    }

    /// Attaches a memory-ledger slot; dynamic usage tracks the buffer fill.
    pub fn set_mem_slot(&mut self, ledger: LedgerHandle, slot: MemSlot) {
        self.mem = Some((ledger, slot));
    }

    /// This producer's id.
    pub fn id(&self) -> ProducerId {
        self.id
    }

    /// Sets the producer epoch stamped on every record (Kafka's producer
    /// epoch). Call on a respawned client so its fresh sequence numbers are
    /// not mistaken for retries of the previous incarnation's.
    pub fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    /// Opens (or closes, with `None`) the transaction stamped on produced
    /// batches. Call [`flush_all`](Self::flush_all) first when switching
    /// transactions so accumulating records are not carried into the new
    /// one — a transactional sink flushes at every checkpoint capture.
    pub fn set_transactional(&mut self, txn: Option<u64>) {
        self.txn = txn;
    }

    /// Records of transaction `txn` not yet acknowledged by the broker —
    /// the commit barrier of a transactional sink. Failed records keep the
    /// count positive forever: committing (or durably preparing) a
    /// transaction with records missing from the log would silently break
    /// exactly-once, so the pipeline stalls instead.
    pub fn txn_outstanding(&self, txn: u64) -> u64 {
        let sent = self.txn_sent.get(&txn).copied().unwrap_or(0);
        let done = self.txn_done.get(&txn).copied().unwrap_or(0);
        sent.saturating_sub(done)
    }

    /// Sends the commit (or abort) marker for `txn` to every broker; lost
    /// markers are re-sent on the retry timer until acknowledged.
    pub fn end_txn(&mut self, ctx: &mut Ctx<'_>, txn: u64, commit: bool) {
        if !self.tele_scope.is_empty() && self.tele.trace_enabled() {
            self.tele.trace_instant(
                ctx.now(),
                &self.tele_scope,
                if commit {
                    "txn:end:commit"
                } else {
                    "txn:end:abort"
                },
                "txn",
            );
        }
        let brokers = self.broker_endpoints();
        for broker in brokers {
            let corr = self.next_corr();
            self.txn_ctl.insert(
                corr.0,
                TxnCtl::End {
                    broker,
                    txn,
                    commit,
                },
            );
            ctx.send(
                broker,
                ClientRpc::EndTxn {
                    corr,
                    producer: self.id,
                    txn,
                    commit,
                },
            );
        }
        self.arm_txn_retry(ctx);
    }

    /// Asks every broker to resolve the transactions a crashed incarnation
    /// of this producer left open: commit those at or below `commit_upto`
    /// (their checkpoint is durable), abort the rest. The recover carries
    /// this incarnation's epoch, so only older incarnations' transactions
    /// are touched even when the RPC is delayed or retried.
    pub fn recover_txns(&mut self, ctx: &mut Ctx<'_>, commit_upto: u64) {
        let id = self.id;
        self.recover_txns_for(ctx, id, commit_upto);
    }

    /// Like [`recover_txns`](Self::recover_txns) but for an arbitrary
    /// producer id — the rescale path, where a shrunk stage's surviving
    /// instance resolves the transactions of old instances that have no
    /// successor (their producer ids never come back).
    pub fn recover_txns_for(&mut self, ctx: &mut Ctx<'_>, producer: ProducerId, commit_upto: u64) {
        let brokers = self.broker_endpoints();
        let epoch = self.epoch;
        for broker in brokers {
            let corr = self.next_corr();
            self.txn_ctl.insert(
                corr.0,
                TxnCtl::Recover {
                    broker,
                    producer,
                    commit_upto,
                    epoch,
                },
            );
            ctx.send(
                broker,
                ClientRpc::TxnRecover {
                    corr,
                    producer,
                    commit_upto,
                    epoch,
                },
            );
        }
        self.arm_txn_retry(ctx);
    }

    fn broker_endpoints(&self) -> Vec<ProcessId> {
        self.brokers.values().copied().collect()
    }

    fn arm_txn_retry(&mut self, ctx: &mut Ctx<'_>) {
        if !self.txn_ctl.is_empty() {
            ctx.set_timer(self.cfg.request_timeout, PRODUCER_TAGS + off::TXN_RETRY);
        }
    }

    fn retry_txn_ctl(&mut self, ctx: &mut Ctx<'_>) {
        if self.txn_ctl.is_empty() {
            return;
        }
        let pending: Vec<TxnCtl> = std::mem::take(&mut self.txn_ctl).into_values().collect();
        for ctl in pending {
            let corr = self.next_corr();
            self.txn_ctl.insert(corr.0, ctl);
            match ctl {
                TxnCtl::End {
                    broker,
                    txn,
                    commit,
                } => ctx.send(
                    broker,
                    ClientRpc::EndTxn {
                        corr,
                        producer: self.id,
                        txn,
                        commit,
                    },
                ),
                TxnCtl::Recover {
                    broker,
                    producer,
                    commit_upto,
                    epoch,
                } => ctx.send(
                    broker,
                    ClientRpc::TxnRecover {
                        corr,
                        producer,
                        commit_upto,
                        epoch,
                    },
                ),
            }
        }
        self.arm_txn_retry(ctx);
    }

    /// Counters.
    pub fn stats(&self) -> ProducerStats {
        self.stats
    }

    /// Produce-to-ack latency (seconds) over every acknowledged record —
    /// folded as acks arrive, so it is available whether or not the client
    /// captures records.
    pub fn ack_latency(&self) -> &Histogram {
        &self.ack_latency
    }

    /// Keeps per-record identity from now on: [`outcomes`](Self::outcomes)
    /// and [`sent_index`](Self::sent_index). Off by default — a client
    /// then folds every record into [`stats`](Self::stats) and
    /// [`ack_latency`](Self::ack_latency) and retains nothing per record.
    /// Purely an observer: the client sends and retries identically.
    pub fn capture_records(&mut self) {
        self.capture = true;
    }

    /// Per-record outcomes (ack / delivery-timeout), in completion order.
    /// Empty unless the client [captures records](Self::capture_records).
    pub fn outcomes(&self) -> &[ProduceOutcome] {
        &self.outcomes
    }

    /// Every record accepted into the buffer, as `(topic, seq, created)` in
    /// production order — the message axis of delivery matrices (Fig. 6b).
    /// Empty unless the client [captures records](Self::capture_records).
    pub fn sent_index(&self) -> &[SentRecord] {
        &self.sent_index
    }

    /// Moves the captured `(outcomes, sent_index)` out of the client, so a
    /// report can own them without a second copy.
    pub fn take_captured(&mut self) -> (Vec<ProduceOutcome>, Vec<SentRecord>) {
        (
            std::mem::take(&mut self.outcomes),
            std::mem::take(&mut self.sent_index),
        )
    }

    /// Bytes currently queued in the buffer pool.
    pub fn buffer_used(&self) -> usize {
        self.buffer_used
    }

    /// Kicks off metadata discovery. Call from `on_start`.
    pub fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.request_metadata(ctx);
    }

    fn next_corr(&mut self) -> CorrelationId {
        draw_corr(&mut self.next_corr)
    }

    fn update_mem(&mut self) {
        if let Some((ledger, slot)) = &self.mem {
            ledger
                .borrow_mut()
                .set_dynamic(*slot, self.buffer_used as u64);
        }
    }

    fn request_metadata(&mut self, ctx: &mut Ctx<'_>) {
        self.meta.request(ctx, || draw_corr(&mut self.next_corr));
    }

    /// Queues one record for `topic`. Returns `false` (and counts a buffer
    /// rejection) when the buffer pool is exhausted.
    pub fn send(
        &mut self,
        ctx: &mut Ctx<'_>,
        topic: &str,
        key: Option<Vec<u8>>,
        value: Vec<u8>,
    ) -> bool {
        self.send_with(ctx, topic, key.as_deref(), |buf| {
            buf.extend_from_slice(&value);
        })
    }

    /// Queues one record for `topic` whose value `encode_value` appends to
    /// the topic's batch buffer — the form for callers that would otherwise
    /// serialize into a `Vec` of their own first. The encoder must only
    /// append. Returns `false` (and counts a buffer rejection) when the
    /// buffer pool is exhausted; the record's bytes are then rolled back
    /// out of the buffer.
    pub fn send_with(
        &mut self,
        ctx: &mut Ctx<'_>,
        topic: &str,
        key: Option<&[u8]>,
        encode_value: impl FnOnce(&mut Vec<u8>),
    ) -> bool {
        // Look up by `&str`; only a topic's first record allocates its name.
        if !self.accum.contains_key(topic) {
            let batch = AccumBatch {
                id: self.accum.len() as u64,
                topic: TopicName::from(topic),
                buf: Vec::new(),
                pending: Vec::new(),
                buf_hint: 0,
                bytes: 0,
                linger_timer: None,
                rr: 0,
            };
            self.accum.insert(topic.to_string(), batch);
        }
        let entry = self.accum.get_mut(topic).expect("inserted above");
        if entry.buf.capacity() == 0 {
            entry.buf.reserve_exact(entry.buf_hint);
        }
        let start = entry.buf.len();
        if let Some(k) = key {
            entry.buf.extend_from_slice(k);
        }
        let value_start = entry.buf.len();
        encode_value(&mut entry.buf);
        let value_len = entry
            .buf
            .len()
            .checked_sub(value_start)
            .expect("value encoders only append");
        let bytes = RECORD_OVERHEAD + (value_start - start) + value_len;
        if self.buffer_used + bytes > self.cfg.buffer_memory {
            entry.buf.truncate(start);
            self.stats.buffer_rejected += 1;
            return false;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.sent += 1;
        if let Some(t) = self.txn {
            *self.txn_sent.entry(t).or_insert(0) += 1;
        }
        self.buffer_used += bytes;
        if !self.cfg.cpu_per_record.is_zero() {
            ctx.charge(self.cfg.cpu_per_record);
        }
        if self.capture {
            self.sent_index.push((entry.topic.shared(), seq, ctx.now()));
        }
        entry.pending.push(Pending {
            key_len: key.map(<[u8]>::len),
            value_len,
            timestamp: ctx.now(),
            seq,
        });
        entry.bytes += bytes;
        if entry.linger_timer.is_none() {
            let t = ctx.set_timer(self.cfg.linger, PRODUCER_TAGS + off::LINGER_BASE + entry.id);
            entry.linger_timer = Some(t);
        }
        let sealed = entry.pending.len() >= self.cfg.batch_max_records
            || entry.bytes >= self.cfg.batch_max_bytes;
        self.update_mem();
        if sealed {
            self.flush_topic(ctx, topic);
        }
        true
    }

    /// Flushes every accumulating batch immediately.
    pub fn flush_all(&mut self, ctx: &mut Ctx<'_>) {
        let topics: Vec<String> = self.accum.keys().cloned().collect();
        for t in topics {
            self.flush_topic(ctx, &t);
        }
    }

    fn flush_topic(&mut self, ctx: &mut Ctx<'_>, topic: &str) {
        let Some(batch) = self.accum.get_mut(topic) else {
            return;
        };
        if batch.pending.is_empty() {
            return;
        }
        if let Some(t) = batch.linger_timer.take() {
            ctx.cancel_timer(t);
        }
        batch.bytes = 0;
        // Freeze the accumulated bytes into the shared buffer: the `Vec`'s
        // own allocation, trimmed of growth slack (it stays resident for as
        // long as any of its records does), not a copy.
        batch.buf_hint = batch.buf.len();
        let mut buf = std::mem::take(&mut batch.buf);
        buf.shrink_to_fit();
        let frame = Bytes::from(buf);
        // Partition selection. Keyed records route by the stable FNV-1a
        // key hash (`hash(key) % partitions`) — the same helper that
        // assigns key groups, so a keyed record always lands on the
        // partition whose downstream owner holds its state. Keyless
        // records keep the original behavior: the whole sub-batch goes to
        // the next round-robin partition. Partition 0 optimistically when
        // metadata has not arrived yet.
        let n_parts = self.meta.cache().partition_count(topic);
        let n_parts_u32 = u32::try_from(n_parts).expect("partition count fits u32");
        // First pass: route every record.
        let mut routes: Vec<u32> = Vec::with_capacity(batch.pending.len());
        let mut rr_partition: Option<u32> = None;
        let mut at = 0;
        for p in &batch.pending {
            let partition = match (p.key_len, n_parts) {
                (_, 0) => 0,
                (Some(n), _) => s2g_proto::partition_for_key(&frame[at..at + n], n_parts_u32),
                (None, _) => *rr_partition.get_or_insert_with(|| {
                    let nth = batch.rr as usize % n_parts;
                    batch.rr += 1;
                    let mut parts = self.meta.cache().partitions_of(topic);
                    parts.nth(nth).expect("nth < partition count").partition
                }),
            };
            at += p.key_len.unwrap_or(0) + p.value_len;
            routes.push(partition);
        }
        // Each partition's share, so its sub-batch is a vector sized once.
        // One map operation per run of equally routed records: a keyless or
        // single-partition batch is one run.
        let same_route = |a: &u32, b: &u32| a == b;
        let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
        for run in routes.chunk_by(same_route) {
            *counts.entry(run[0]).or_default() += run.len();
        }
        // Second pass: the records, as views of the frame, split by
        // partition number with each sub-batch's encoded bytes.
        let mut split: BTreeMap<u32, (Vec<Record>, usize)> = counts
            .into_iter()
            .map(|(partition, n)| (partition, (Vec::with_capacity(n), 0)))
            .collect();
        let mut pending = batch.pending.iter();
        let mut at = 0;
        for run in routes.chunk_by(same_route) {
            let (records, bytes) = split.get_mut(&run[0]).expect("counted above");
            for p in pending.by_ref().take(run.len()) {
                let key = p.key_len.map(|n| {
                    at += n;
                    frame.slice(at - n..at)
                });
                at += p.value_len;
                let record = Record {
                    key,
                    value: frame.slice(at - p.value_len..at),
                    timestamp: p.timestamp,
                    producer: self.id,
                    producer_epoch: self.epoch,
                    producer_seq: p.seq,
                };
                *bytes += record.encoded_len();
                records.push(record);
            }
        }
        batch.pending.clear();
        let topic = batch.topic.clone();
        for (partition, (records, bytes)) in split {
            let tp = TopicPartition::new(&topic, partition);
            let created = records
                .first()
                .map(|r| r.timestamp)
                .unwrap_or_else(|| ctx.now());
            let sealed = RecordBatch::from_records(records).with_compression(self.cfg.compression);
            if !sealed.compression().is_none() && !self.cfg.compress_cpu_per_byte.is_zero() {
                // Compressing the sealed batch costs CPU proportional to
                // the raw record bytes — the produce-side half of the
                // compression trade (the wire carries fewer bytes).
                ctx.charge(self.cfg.compress_cpu_per_byte * bytes as u64);
            }
            self.ready
                .entry(tp.clone())
                .or_default()
                .push_back(ReadyBatch {
                    tp,
                    batch: sealed,
                    bytes,
                    created,
                    attempts: 0,
                    not_before: SimTime::ZERO,
                    txn: self.txn,
                });
        }
        self.pump(ctx);
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        // A partition is served through its head batch alone, so one that
        // is backing off holds back the batches behind it (the partition's
        // order is kept) and nobody else's.
        let now = ctx.now();
        let due = |q: &VecDeque<ReadyBatch>| q.front().is_some_and(|b| b.not_before <= now);
        let tps: Vec<TopicPartition> = self
            .ready
            .iter()
            .filter(|(tp, q)| due(q) && !self.inflight.contains_key(*tp))
            .map(|(tp, _)| tp.clone())
            .collect();
        let mut need_meta = false;
        for tp in tps {
            let leader = match self.meta.cache().leader(&tp) {
                Some(l) => l,
                None => {
                    need_meta = true;
                    continue;
                }
            };
            let Some(&leader_pid) = self.brokers.get(&leader) else {
                need_meta = true;
                continue;
            };
            let mut batch = match self.ready.get_mut(&tp).and_then(VecDeque::pop_front) {
                Some(b) => b,
                None => continue,
            };
            batch.attempts += 1;
            let corr = self.next_corr();
            let timer = ctx.set_timer(
                self.cfg.request_timeout,
                PRODUCER_TAGS + off::REQ_TIMEOUT_BASE + corr.0,
            );
            ctx.send(
                leader_pid,
                ClientRpc::ProduceRequest {
                    corr,
                    tp: tp.clone(),
                    // Arc bump, not a record copy — the retry path keeps
                    // the same sealed batch alive in `inflight`.
                    batch: batch.batch.clone(),
                    acks: self.cfg.acks,
                    // Stamp the reign this produce is aimed at; a broker on
                    // a newer epoch bounces it (StaleEpoch, retriable) and
                    // the metadata refresh re-aims the retry.
                    epoch: self.meta.cache().epoch(&tp),
                    txn: batch.txn,
                },
            );
            if let Some(metrics) = &self.metrics {
                metrics.records_sent.add(batch.batch.len() as u64);
                if self.tele.trace_enabled() {
                    self.tele.trace_instant(
                        ctx.now(),
                        &self.tele_scope,
                        &format!("produce:{tp}"),
                        "producer",
                    );
                }
            }
            self.corr_to_tp.insert(corr.0, tp.clone());
            self.inflight.insert(tp, Inflight { batch, timer });
        }
        if need_meta {
            self.request_metadata(ctx);
        }
    }

    fn complete_batch(&mut self, now: SimTime, batch: ReadyBatch, delivered: bool) {
        self.buffer_used -= batch.bytes;
        self.update_mem();
        if let (Some(t), true) = (batch.txn, delivered) {
            *self.txn_done.entry(t).or_insert(0) += batch.batch.len() as u64;
        }
        if delivered {
            self.stats.acked += batch.batch.len() as u64;
        } else {
            self.stats.failed += batch.batch.len() as u64;
        }
        if let Some(metrics) = &self.metrics {
            let counter = if delivered {
                &metrics.records_acked
            } else {
                &metrics.records_failed
            };
            counter.add(batch.batch.len() as u64);
        }
        if delivered {
            for r in batch.batch.iter() {
                self.ack_latency
                    .observe(now.saturating_since(r.timestamp).as_secs_f64());
            }
        }
        if self.capture {
            self.outcomes
                .extend(batch.batch.iter().map(|r| ProduceOutcome {
                    seq: r.producer_seq,
                    topic: batch.tp.topic.shared(),
                    created: r.timestamp,
                    completed: now,
                    delivered,
                }));
        }
    }

    fn retry_or_fail(&mut self, ctx: &mut Ctx<'_>, mut batch: ReadyBatch) {
        let now = ctx.now();
        if now.saturating_since(batch.created) > self.cfg.delivery_timeout {
            self.complete_batch(now, batch, false);
            return;
        }
        self.stats.retries += 1;
        // The timer armed below resends it; no pump before then will.
        batch.not_before = now + self.cfg.retry_backoff;
        self.ready
            .entry(batch.tp.clone())
            .or_default()
            .push_front(batch);
        self.request_metadata(ctx);
        ctx.set_timer(self.cfg.retry_backoff, PRODUCER_TAGS + off::RETRY_PUMP);
    }

    /// Handles an incoming message. Returns the message back when it is not
    /// addressed to this client.
    pub fn handle_message(
        &mut self,
        ctx: &mut Ctx<'_>,
        msg: Box<dyn Message>,
    ) -> Option<Box<dyn Message>> {
        let rpc = match downcast::<ClientRpc>(msg) {
            Ok(r) => r,
            Err(m) => return Some(m),
        };
        match *rpc {
            ClientRpc::ProduceResponse { corr, error, .. } => {
                // A missing entry means a stale response for a timed-out
                // request: consume the message without acting on it.
                let tp = self.corr_to_tp.remove(corr.0)?;
                let inflight = self.inflight.remove(&tp)?;
                ctx.cancel_timer(inflight.timer);
                if error.is_ok() {
                    let now = ctx.now();
                    self.complete_batch(now, inflight.batch, true);
                } else if error.is_retriable() {
                    self.retry_or_fail(ctx, inflight.batch);
                } else {
                    let now = ctx.now();
                    self.complete_batch(now, inflight.batch, false);
                }
                self.pump(ctx);
                None
            }
            ClientRpc::MetadataResponse { corr, partitions } => {
                match self.meta.on_response(ctx, corr, partitions) {
                    Ok(()) => {
                        self.pump(ctx);
                        None
                    }
                    // Not ours — may belong to a co-embedded consumer client.
                    Err(partitions) => {
                        Some(Box::new(ClientRpc::MetadataResponse { corr, partitions }))
                    }
                }
            }
            ClientRpc::EndTxnResponse { corr, error } => {
                // A fenced (or otherwise failed) marker was NOT applied:
                // keep the entry so the retry timer re-sends it, or the LSO
                // would park read-committed consumers forever.
                if error.is_ok() {
                    self.txn_ctl.remove(&corr.0);
                }
                None
            }
            ClientRpc::TxnRecoverResponse { corr } => {
                self.txn_ctl.remove(&corr.0);
                None
            }
            other => Some(Box::new(other)),
        }
    }

    /// Handles a timer tag in the producer namespace. Returns `true` if the
    /// tag belonged to this client.
    pub fn handle_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) -> bool {
        if !(PRODUCER_TAGS..PRODUCER_TAGS_END).contains(&tag) {
            return false;
        }
        let o = tag - PRODUCER_TAGS;
        if o == off::RETRY_PUMP {
            self.pump(ctx);
        } else if o == off::TXN_RETRY {
            self.retry_txn_ctl(ctx);
        } else if o == off::META_TIMEOUT {
            self.meta.on_timeout();
            self.request_metadata(ctx);
        } else if (off::LINGER_BASE..off::REQ_TIMEOUT_BASE).contains(&o) {
            let topic_id = o - off::LINGER_BASE;
            let due = self.accum.values_mut().find(|b| b.id == topic_id);
            if let Some(batch) = due {
                batch.linger_timer = None;
                let topic = batch.topic.clone();
                self.flush_topic(ctx, &topic);
            }
        } else if o >= off::REQ_TIMEOUT_BASE {
            let corr = o - off::REQ_TIMEOUT_BASE;
            if let Some(tp) = self.corr_to_tp.remove(corr) {
                if let Some(inflight) = self.inflight.remove(&tp) {
                    self.retry_or_fail(ctx, inflight.batch);
                }
            }
        }
        true
    }
}

impl std::fmt::Debug for ProducerClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProducerClient")
            .field("id", &self.id)
            .field("buffer_used", &self.buffer_used)
            .field("stats", &self.stats)
            .finish()
    }
}

/// A standalone producer stub: a [`ProducerClient`] driven by a
/// [`DataSource`], with background CPU churn for the resource model.
pub struct ProducerProcess {
    client: ProducerClient,
    source: Box<dyn DataSource>,
    source_done: bool,
    name: String,
}

const SOURCE_STEP: u64 = 0;
const BACKGROUND_TICK: u64 = 1;

impl ProducerProcess {
    /// Attaches the run-wide telemetry sink under this process's name.
    pub fn set_telemetry(&mut self, tele: Telemetry) {
        let scope = self.name.clone();
        self.client.set_telemetry(tele, scope);
    }

    /// Creates a producer stub.
    pub fn new(client: ProducerClient, source: Box<dyn DataSource>) -> Self {
        let name = format!("producer-{}", client.id().0);
        ProducerProcess {
            client,
            source,
            source_done: false,
            name,
        }
    }

    /// The embedded client (stats, outcomes).
    pub fn client(&self) -> &ProducerClient {
        &self.client
    }

    /// Mutable access to the embedded client (post-run harvesting).
    pub fn client_mut(&mut self) -> &mut ProducerClient {
        &mut self.client
    }

    fn step_source(&mut self, ctx: &mut Ctx<'_>) {
        if self.source_done {
            return;
        }
        let now = ctx.now();
        let action = {
            let rng = ctx.rng();
            // Split borrow: rng and source are independent.
            self.source.next(now, rng)
        };
        match action {
            SourceAction::Emit {
                topic,
                key,
                value,
                next_after,
            } => {
                self.client.send(ctx, &topic, key, value);
                ctx.set_timer(next_after, SOURCE_STEP);
            }
            SourceAction::Wait(d) => {
                ctx.set_timer(d, SOURCE_STEP);
            }
            SourceAction::Done => {
                self.source_done = true;
                self.client.flush_all(ctx);
            }
        }
    }
}

impl Process for ProducerProcess {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.charge(self.client.cfg.startup_cpu);
        self.client.start(ctx);
        ctx.set_timer(SimDuration::ZERO, SOURCE_STEP);
        ctx.set_timer(self.client.cfg.background_interval, BACKGROUND_TICK);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ProcessId, msg: Box<dyn Message>) {
        self.client.handle_message(ctx, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if self.client.handle_timer(ctx, tag) {
            return;
        }
        match tag {
            SOURCE_STEP => self.step_source(ctx),
            BACKGROUND_TICK => {
                if !self.client.cfg.background_cpu.is_zero() {
                    ctx.charge(self.client.cfg.background_cpu);
                }
                ctx.set_timer(self.client.cfg.background_interval, BACKGROUND_TICK);
            }
            _ => {}
        }
    }
}

impl std::fmt::Debug for ProducerProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProducerProcess")
            .field("client", &self.client)
            .finish()
    }
}
