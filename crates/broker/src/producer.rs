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

// A truncating `as` here aliases another record's bytes in the shared batch buffer; narrow with `try_from`.
#![deny(clippy::cast_possible_truncation)]

use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use rand::rngs::StdRng;

use s2g_proto::{
    BatchBuilder, ClientRpc, Columns, CorrelationId, ProducerId, RecordBatch, Shape, TopicName,
    TopicPartition, RECORD_OVERHEAD,
};
use s2g_sim::{
    downcast, Ctx, LedgerHandle, MemSlot, Message, Process, ProcessId, SimDuration, SimTime,
    TimerToken, Waiters,
};
use s2g_telemetry::{CounterHandle, Histogram, Telemetry};

use crate::config::ProducerConfig;
use crate::metadata::{send_in, MetadataSession};

/// Tag namespace base for producer-owned timers and CPU work. The embedding
/// process must forward tags in `PRODUCER_TAGS..PRODUCER_TAGS_END`.
pub const PRODUCER_TAGS: u64 = 1 << 40;
/// End of the producer tag namespace (exclusive).
pub(crate) const PRODUCER_TAGS_END: u64 = 1 << 41;

mod off {
    pub(crate) const RETRY_PUMP: u64 = 1;
    pub(crate) const META_TIMEOUT: u64 = 2;
    pub(crate) const REQ_TIMEOUT: u64 = 3;
    pub(crate) const TXN_RETRY: u64 = 4;
    pub(crate) const LINGER_BASE: u64 = 1_000;
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

impl Pending {
    /// Key and value bytes.
    fn len(&self) -> usize {
        self.key_len.unwrap_or(0) + self.value_len
    }
}

/// What one partition's records of a flush need in their sealed batch.
#[derive(Debug, Default)]
struct Share {
    records: usize,
    /// Key and value bytes.
    bytes: usize,
    /// Whether the records share one length, one key length and evenly
    /// spaced timestamps: the row columns but the sequence.
    shape: Shape,
    /// Some record's sequence is not one above the one before it.
    out_of_sequence: bool,
    last_seq: Option<u64>,
}

impl Share {
    fn add(&mut self, p: &Pending) {
        self.records += 1;
        self.bytes += p.len();
        self.shape.add(p.key_len, p.len(), p.timestamp);
        self.out_of_sequence |= self.last_seq.is_some_and(|s| p.seq != s + 1);
        self.last_seq = Some(p.seq);
    }

    /// The row columns the records need.
    fn columns(&self) -> Columns {
        Columns {
            sequences: self.out_of_sequence,
            ..self.shape.columns()
        }
    }
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
    /// Key and value bytes of every pending record. A flush copies each
    /// partition's share into its sealed batch's frame and clears it, so
    /// the buffer is allocated once, for the client's lifetime.
    buf: Vec<u8>,
    pending: Vec<Pending>,
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

/// The metrics a client updates per batch, each looked up in the registry
/// by its first update and never again.
struct ProducerMetrics {
    records_sent: CounterHandle,
    records_acked: CounterHandle,
    records_failed: CounterHandle,
}

impl ProducerMetrics {
    fn new(tele: &Telemetry, scope: &str) -> Self {
        ProducerMetrics {
            records_sent: tele.counter(scope, "records_sent"),
            records_acked: tele.counter(scope, "records_acked"),
            records_failed: tele.counter(scope, "records_failed"),
        }
    }
}

/// The embeddable producer state machine.
pub struct ProducerClient {
    id: ProducerId,
    /// This client incarnation's epoch: set by an embedding process that
    /// restarts under a new one, so broker-side idempotent dedup
    /// distinguishes a fresh sequence-zero stream from a stale retry.
    epoch: u32,
    cfg: ProducerConfig,
    brokers: BTreeMap<s2g_proto::BrokerId, ProcessId>,
    meta: MetadataSession,
    next_seq: u64,
    accum: BTreeMap<String, AccumBatch>,
    ready: BTreeMap<TopicPartition, VecDeque<ReadyBatch>>,
    /// The batch of each produce awaiting its response, by correlation id,
    /// until its request timeout: at most one per partition.
    inflight: Waiters<u64, ReadyBatch>,
    /// The one timeout check is armed, at or before the earliest in-flight
    /// deadline: no timer is armed, nor cancelled, per request.
    timeout_armed: bool,
    /// The box the last produce response came in, for the next produce to
    /// travel in.
    spare: Option<Box<ClientRpc>>,
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
    /// Per transaction not yet ended: `(sent, acked)`, the records handed
    /// to the buffer and those *acknowledged*. Failed (delivery-timeout)
    /// records deliberately do not count as acked: a transaction whose
    /// staged batch did not fully reach the broker must never look
    /// committable — the checkpoint stalls instead of committing a hole
    /// into the sink. [`end_txn`](Self::end_txn) drops the entry.
    txn_counts: BTreeMap<u64, (u64, u64)>,
    /// Outstanding EndTxn/TxnRecover RPCs by correlation id.
    txn_ctl: BTreeMap<u64, TxnCtl>,
    /// Telemetry sink (an unshared default until the owner attaches the
    /// run-wide one) and the scope its metrics and events are recorded
    /// under.
    tele: Telemetry,
    tele_scope: String,
    metrics: ProducerMetrics,
}

impl ProducerClient {
    /// Creates a client. `bootstrap` is the broker used for metadata;
    /// `brokers` maps broker ids to process ids. Its correlation ids are
    /// its process's ([`Ctx::next_corr`]), so a reply to a request of a
    /// crashed incarnation, or of another client in the process, matches
    /// nothing it sends. `_corr_parity` is ignored: it kept a producer's
    /// and a consumer's ids apart in one process before the process drew
    /// them, and stays until the benchmark, which passes it, stops.
    pub fn new(
        id: ProducerId,
        cfg: ProducerConfig,
        bootstrap: ProcessId,
        brokers: BTreeMap<s2g_proto::BrokerId, ProcessId>,
        _corr_parity: u64,
    ) -> Self {
        let meta_timeout_tag = PRODUCER_TAGS + off::META_TIMEOUT;
        let tele = Telemetry::new();
        ProducerClient {
            id,
            epoch: 0,
            meta: MetadataSession::new(bootstrap, &brokers, cfg.request_timeout, meta_timeout_tag),
            cfg,
            brokers,
            next_seq: 0,
            accum: BTreeMap::new(),
            ready: BTreeMap::new(),
            inflight: Waiters::default(),
            timeout_armed: false,
            spare: None,
            buffer_used: 0,
            stats: ProducerStats::default(),
            ack_latency: Histogram::latency_seconds(),
            capture: false,
            outcomes: Vec::new(),
            sent_index: Vec::new(),
            mem: None,
            txn: None,
            txn_counts: BTreeMap::new(),
            txn_ctl: BTreeMap::new(),
            metrics: ProducerMetrics::new(&tele, ""),
            tele,
            tele_scope: String::new(),
        }
    }

    /// Attaches the run-wide telemetry sink. The client records sent /
    /// acked record counts, produce trace events, and transaction
    /// begin/commit instants under `scope`.
    pub fn set_telemetry(&mut self, tele: Telemetry, scope: impl Into<String>) {
        self.tele_scope = scope.into();
        self.metrics = ProducerMetrics::new(&tele, &self.tele_scope);
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
        let (sent, acked) = self.txn_counts.get(&txn).copied().unwrap_or_default();
        sent.saturating_sub(acked)
    }

    /// Sends the commit (or abort) marker for `txn` to every broker; lost
    /// markers are re-sent on the retry timer until acknowledged. The
    /// transaction's record counts are forgotten, so
    /// [`txn_outstanding`](Self::txn_outstanding) reads 0 for it from here
    /// on.
    pub fn end_txn(&mut self, ctx: &mut Ctx<'_>, txn: u64, commit: bool) {
        self.txn_counts.remove(&txn);
        if self.tele.trace_enabled() {
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
            let corr = CorrelationId(ctx.next_corr());
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
            let corr = CorrelationId(ctx.next_corr());
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
            let corr = CorrelationId(ctx.next_corr());
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
        self.meta.request(ctx);
    }

    fn update_mem(&mut self) {
        if let Some((ledger, slot)) = &self.mem {
            ledger
                .borrow_mut()
                .set_dynamic(*slot, self.buffer_used as u64);
        }
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
                bytes: 0,
                linger_timer: None,
                rr: 0,
            };
            self.accum.insert(topic.to_string(), batch);
        }
        let entry = self.accum.get_mut(topic).expect("inserted above");
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
            self.txn_counts.entry(t).or_default().0 += 1;
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
                (Some(n), _) => s2g_proto::partition_for_key(&batch.buf[at..at + n], n_parts_u32),
                (None, _) => *rr_partition.get_or_insert_with(|| {
                    let nth = batch.rr as usize % n_parts;
                    batch.rr += 1;
                    let mut parts = self.meta.cache().partitions_of(topic);
                    parts.nth(nth).expect("nth < partition count").partition
                }),
            };
            at += p.len();
            routes.push(partition);
        }
        // Each partition's records and bytes, and whether some record
        // breaks the even step of the lengths, key lengths or timestamps or
        // does not follow the one before it in sequence, so its frame and
        // rows are allocated once, at their exact size and width. One
        // map operation per run of equally routed records: a keyless or
        // single-partition batch is one run.
        let same_route = |a: &u32, b: &u32| a == b;
        let mut sizes: BTreeMap<u32, Share> = BTreeMap::new();
        let mut pending = batch.pending.iter();
        for run in routes.chunk_by(same_route) {
            let share = sizes.entry(run[0]).or_default();
            for p in pending.by_ref().take(run.len()) {
                share.add(p);
            }
        }
        // Second pass: each partition's records, copied out of the
        // accumulation buffer into its batch.
        let mut split: BTreeMap<u32, BatchBuilder> = (sizes.into_iter())
            .map(|(partition, s)| {
                let builder = BatchBuilder::with_capacity(s.records, s.bytes, s.columns());
                (partition, builder)
            })
            .collect();
        let mut pending = batch.pending.iter();
        let mut at = 0;
        for run in routes.chunk_by(same_route) {
            let records = split.get_mut(&run[0]).expect("sized above");
            for p in pending.by_ref().take(run.len()) {
                let key = p.key_len.map(|n| {
                    at += n;
                    &batch.buf[at - n..at]
                });
                at += p.value_len;
                let value = &batch.buf[at - p.value_len..at];
                records.push(key, value, p.timestamp, self.id, self.epoch, p.seq);
            }
        }
        batch.pending.clear();
        batch.buf.clear();
        let topic = batch.topic.clone();
        for (partition, records) in split {
            let tp = TopicPartition::new(&topic, partition);
            let sealed = records.finish().with_compression(self.cfg.compression);
            let created = sealed.first().map_or_else(|| ctx.now(), |r| r.timestamp());
            let bytes = sealed.record_bytes();
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
            .filter(|(tp, q)| due(q) && !self.inflight.iter().any(|(_, b)| b.tp == **tp))
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
            let corr = CorrelationId(ctx.next_corr());
            if !std::mem::replace(&mut self.timeout_armed, true) {
                ctx.set_timer(self.cfg.request_timeout, PRODUCER_TAGS + off::REQ_TIMEOUT);
            }
            let produce = ClientRpc::ProduceRequest {
                corr,
                tp: tp.clone(),
                // Arc bump, not a record copy — the retry path keeps the
                // same sealed batch alive in `inflight`.
                batch: batch.batch.clone(),
                acks: self.cfg.acks,
                // Stamp the reign this produce is aimed at; a broker on a
                // newer epoch bounces it (StaleEpoch, retriable) and the
                // metadata refresh re-aims the retry.
                epoch: self.meta.cache().epoch(&tp),
                txn: batch.txn,
            };
            send_in(ctx, leader_pid, &mut self.spare, produce);
            self.metrics.records_sent.add(batch.batch.len() as u64);
            if self.tele.trace_enabled() {
                self.tele.trace_instant(
                    ctx.now(),
                    &self.tele_scope,
                    &format!("produce:{tp}"),
                    "producer",
                );
            }
            let deadline = now + self.cfg.request_timeout;
            self.inflight.hold(corr.0, batch, Some(deadline));
        }
        if need_meta {
            self.meta.request(ctx);
        }
    }

    fn complete_batch(&mut self, now: SimTime, batch: ReadyBatch, delivered: bool) {
        self.buffer_used -= batch.bytes;
        self.update_mem();
        let counts = batch.txn.and_then(|t| self.txn_counts.get_mut(&t));
        if let (Some((_, acked)), true) = (counts, delivered) {
            *acked += batch.batch.len() as u64;
        }
        if delivered {
            self.stats.acked += batch.batch.len() as u64;
        } else {
            self.stats.failed += batch.batch.len() as u64;
        }
        let counter = if delivered {
            &self.metrics.records_acked
        } else {
            &self.metrics.records_failed
        };
        counter.add(batch.batch.len() as u64);
        if delivered {
            for r in batch.batch.iter() {
                self.ack_latency
                    .observe(now.saturating_since(r.timestamp()).as_secs_f64());
            }
        }
        if self.capture {
            self.outcomes
                .extend(batch.batch.iter().map(|r| ProduceOutcome {
                    seq: r.producer_seq(),
                    topic: batch.tp.topic.shared(),
                    created: r.timestamp(),
                    completed: now,
                    delivered,
                }));
        }
    }

    /// The timeout check: retries (or fails) every produce past its
    /// deadline, oldest first, and re-arms at the earliest deadline left.
    fn expire_requests(&mut self, ctx: &mut Ctx<'_>) {
        let mut inflight = std::mem::take(&mut self.inflight);
        inflight.expire(ctx.now(), |_, batch| self.retry_or_fail(ctx, batch));
        self.inflight = inflight;
        if let Some(next) = self.inflight.next_deadline() {
            self.timeout_armed = true;
            ctx.set_timer_at(next, PRODUCER_TAGS + off::REQ_TIMEOUT);
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
        self.meta.request(ctx);
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
                // The box carries the next produce.
                self.spare = Some(rpc);
                // A missing entry means a stale response for a timed-out
                // request: consume the message without acting on it.
                let batch = self.inflight.take(&corr.0)?;
                if error.is_ok() {
                    let now = ctx.now();
                    self.complete_batch(now, batch, true);
                } else if error.is_retriable() {
                    self.retry_or_fail(ctx, batch);
                } else {
                    let now = ctx.now();
                    self.complete_batch(now, batch, false);
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
            self.meta.request(ctx);
        } else if o == off::REQ_TIMEOUT {
            self.timeout_armed = false;
            self.expire_requests(ctx);
        } else if o >= off::LINGER_BASE {
            let topic_id = o - off::LINGER_BASE;
            let due = self.accum.values_mut().find(|b| b.id == topic_id);
            if let Some(batch) = due {
                batch.linger_timer = None;
                let topic = batch.topic.clone();
                self.flush_topic(ctx, &topic);
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

    /// Takes source steps until one has to wait: each next step runs at
    /// once when it would be the run's next event anyway
    /// ([`Ctx::run_ahead`]), and through a `SOURCE_STEP` timer otherwise.
    fn step_source(&mut self, ctx: &mut Ctx<'_>) {
        if self.source_done {
            return;
        }
        loop {
            let now = ctx.now();
            let action = {
                let rng = ctx.rng();
                // Split borrow: rng and source are independent.
                self.source.next(now, rng)
            };
            let after = match action {
                SourceAction::Emit {
                    topic,
                    key,
                    value,
                    next_after,
                } => {
                    self.client.send(ctx, &topic, key, value);
                    next_after
                }
                SourceAction::Wait(d) => d,
                SourceAction::Done => {
                    self.source_done = true;
                    self.client.flush_all(ctx);
                    return;
                }
            };
            let at = now + after;
            if !ctx.run_ahead(at) {
                ctx.set_timer_at(at, SOURCE_STEP);
                return;
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

#[cfg(test)]
mod tests {
    use super::*;
    use s2g_proto::{BrokerId, ErrorCode, LeaderEpoch, Offset, PartitionMetadata};
    use s2g_sim::Sim;

    const TOPIC: &str = "t";
    const STEP: u64 = 1;

    /// Answers metadata for one single-partition topic and acknowledges
    /// every produce and every transaction marker at once.
    struct AckAll;

    impl Process for AckAll {
        fn name(&self) -> &str {
            "broker"
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, msg: Box<dyn Message>) {
            let reply = match *downcast::<ClientRpc>(msg).expect("clients speak ClientRpc") {
                ClientRpc::MetadataRequest { corr } => ClientRpc::MetadataResponse {
                    corr,
                    partitions: vec![PartitionMetadata {
                        tp: TopicPartition::new(TOPIC, 0),
                        leader: Some(BrokerId(0)),
                        epoch: LeaderEpoch(0),
                        isr: vec![BrokerId(0)],
                        replicas: vec![BrokerId(0)],
                    }],
                },
                ClientRpc::ProduceRequest { corr, tp, .. } => ClientRpc::ProduceResponse {
                    corr,
                    tp,
                    base_offset: Offset::ZERO,
                    error: ErrorCode::None,
                },
                ClientRpc::EndTxn { corr, .. } => ClientRpc::EndTxnResponse {
                    corr,
                    error: ErrorCode::None,
                },
                other => panic!("unexpected rpc {other:?}"),
            };
            ctx.send(from, reply);
        }
    }

    /// Runs transactions `1..=last` as a transactional sink does: stage
    /// records, flush, and end the transaction once all are acked; then
    /// opens `last + 1` and stages records in it.
    struct Sink {
        client: ProducerClient,
        last: u64,
        txn: u64,
        staged: bool,
    }

    impl Process for Sink {
        fn name(&self) -> &str {
            "sink"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.client.start(ctx);
            self.client.set_transactional(Some(self.txn));
            ctx.set_timer(SimDuration::from_millis(20), STEP);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ProcessId, msg: Box<dyn Message>) {
            self.client.handle_message(ctx, msg);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
            if self.client.handle_timer(ctx, tag) {
                return;
            }
            ctx.set_timer(SimDuration::from_millis(20), STEP);
            if !self.staged {
                for i in 0..3u8 {
                    self.client.send(ctx, TOPIC, None, vec![i]);
                }
                self.client.flush_all(ctx);
                self.staged = true;
            } else if self.txn <= self.last && self.client.txn_outstanding(self.txn) == 0 {
                self.client.end_txn(ctx, self.txn, true);
                self.txn += 1;
                self.client.set_transactional(Some(self.txn));
                self.staged = false;
            }
        }
    }

    /// A flush sizes each partition's batch with a column only once a
    /// record breaks its even step: a length, a key length or a timestamp
    /// differing from what the first records set, or a sequence not one
    /// above the one before it.
    #[test]
    fn a_share_asks_for_a_column_only_when_a_record_needs_it() {
        let columns = |[ends, timestamps, key_lengths, sequences]: [bool; 4]| Columns {
            ends,
            timestamps,
            key_lengths,
            sequences,
        };
        // Each record's key length, value length, millisecond and sequence.
        type Records = &'static [(Option<usize>, usize, u64, u64)];
        let cases: [(Records, [bool; 4]); 9] = [
            (&[(None, 3, 0, 5), (None, 3, 0, 6)], [false; 4]),
            (
                &[(None, 3, 1, 5), (None, 3, 3, 6), (None, 3, 5, 7)],
                [false; 4],
            ),
            (&[(Some(2), 3, 0, 5), (Some(2), 3, 0, 6)], [false; 4]),
            (
                &[(None, 3, 0, 5), (None, 4, 0, 6)],
                [true, false, false, false],
            ),
            (
                &[(None, 3, 0, 5), (None, 3, 2, 6), (None, 3, 3, 7)],
                [false, true, false, false],
            ),
            (
                &[(Some(1), 3, 0, 5), (Some(2), 2, 0, 6)],
                [false, false, true, false],
            ),
            (
                &[(None, 5, 0, 5), (Some(2), 3, 0, 6)],
                [false, false, true, false],
            ),
            (
                &[(None, 3, 0, 5), (None, 3, 0, 9)],
                [false, false, false, true],
            ),
            (
                &[(Some(1), 3, 4, 5), (None, 2, 5, 9), (None, 2, 7, 10)],
                [true; 4],
            ),
        ];
        for (records, want) in cases {
            let records: Vec<Pending> = (records.iter())
                .map(|&(key_len, value_len, ms, seq)| Pending {
                    key_len,
                    value_len,
                    timestamp: SimTime::from_millis(ms),
                    seq,
                })
                .collect();
            let mut share = Share::default();
            records.iter().for_each(|p| share.add(p));
            let bytes: usize = records.iter().map(Pending::len).sum();
            assert_eq!(
                (share.records, share.bytes, share.columns()),
                (records.len(), bytes, columns(want)),
                "{records:?}"
            );
        }
    }

    #[test]
    fn an_ended_transaction_leaves_no_counts_behind() {
        for last in [10, 40] {
            let mut sim = Sim::new(1);
            let broker = sim.spawn(Box::new(AckAll));
            let brokers = [(BrokerId(0), broker)].into();
            let cfg = ProducerConfig::default();
            let client = ProducerClient::new(ProducerId(1), cfg, broker, brokers, 0);
            let sink = sim.spawn(Box::new(Sink {
                client,
                last,
                txn: 1,
                staged: false,
            }));
            sim.run_until(SimTime::from_secs(10));
            let sink = sim.process_ref::<Sink>(sink).expect("sink");
            assert_eq!(sink.txn, last + 1, "every transaction ended");
            assert_eq!(sink.client.stats().acked, 3 * (last + 1));
            let open: Vec<u64> = sink.client.txn_counts.keys().copied().collect();
            assert_eq!(open, [last + 1], "only the open transaction is counted");
            assert_eq!(sink.client.txn_outstanding(last + 1), 0);
        }
    }
}
