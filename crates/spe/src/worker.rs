//! The stream-processing worker process (the Spark node stand-in).
//!
//! A [`SpeWorker`] consumes one or more source topics through an embedded
//! [`ConsumerClient`], collects records into micro-batches on a fixed batch
//! interval, charges each batch's scheduling overhead plus per-record CPU on
//! its host, runs the job's [`Plan`], and emits results to a sink: another
//! topic (chained jobs, like the word-count pipeline's two stages), an
//! external [`StoreServer`](s2g_store::StoreServer), or a local collection.
//!
//! Per-batch runtimes are recorded in [`BatchMetric`]s — the quantity the
//! Ocampo et al. reproduction (Fig. 7b) reports as "Spark mean execution
//! time per one-second slot".

use std::collections::BTreeMap;

use s2g_proto::{Offset, ProducerId, Record, TopicPartition};
use s2g_sim::{Ctx, LedgerHandle, MemSlot, Message, Process, ProcessId, SimDuration, SimTime};

use s2g_broker::{ConsumerClient, ConsumerConfig, DataSink, ProducerClient, ProducerConfig};
use s2g_store::{blob_map, StoreRpc};
use s2g_telemetry::{CounterHandle, GaugeHandle, Telemetry};

use crate::checkpoint::{
    CaptureKind, CheckpointCfg, CheckpointCoordinator, CheckpointMode, CheckpointPayload,
    CheckpointStats, DurableBackend, Recovered, RecoveryInfo, SnapshotChain, StateDelta,
    StateSnapshot, StoreRpcOutcome,
};
use crate::event::{Event, Value};
use crate::plan::Plan;

/// Identity and rescale context of one parallel stage instance.
///
/// A parallel job is split at its `KeyBy` boundaries into stages; each
/// stage runs `parallelism` instances. Instance `i` statically owns the
/// contiguous range of its input partitions (and, equivalently, key
/// groups) given by [`s2g_proto::owner_of_group`], and its keyed operator
/// state covers exactly the keys hashing into its owned groups. A
/// non-parallel worker is the point "instance 0 of 1, one key group" on
/// the same axis: it owns every key.
#[derive(Debug, Clone)]
pub struct StageInstanceCfg {
    /// Stage index within the job (0 = reads the job's source topics).
    pub stage: usize,
    /// This instance's index within the stage.
    pub instance: u32,
    /// The stage's current parallelism.
    pub parallelism: u32,
    /// The job's fixed key-group count (shuffle topics have exactly this
    /// many partitions, so `partition == key group`).
    pub key_groups: u32,
    /// On a respawn: the *previous* run's instance names of this stage, in
    /// old-instance order (a non-parallel worker's own name). The restore
    /// reads every chain and keeps only the key groups this instance owns
    /// under the new parallelism — which is what makes an N→M rescale
    /// redistribute state correctly.
    pub restore_from: Vec<String>,
    /// Producer ids of the old instances, aligned with `restore_from` —
    /// instance 0 resolves the open transactions of old instances that
    /// have no successor after a shrink.
    pub old_producers: Vec<ProducerId>,
}

impl StageInstanceCfg {
    /// True when this instance owns `key` under the key-group formula.
    pub fn owns_key(&self, key: &str) -> bool {
        let group = s2g_proto::key_group(key.as_bytes(), self.key_groups);
        s2g_proto::owner_of_group(group, self.parallelism, self.key_groups) == self.instance
    }
}

/// SPE tunables (the `streamProcCfg` YAML file, Fig. 3b).
#[derive(Debug, Clone)]
pub struct SpeConfig {
    /// Micro-batch interval (1 s in the traffic-monitoring reproduction).
    pub batch_interval: SimDuration,
    /// Fixed per-batch scheduling/dispatch CPU cost (driver overhead).
    pub scheduling_overhead: SimDuration,
    /// CPU cost per input record.
    pub cpu_per_record: SimDuration,
    /// One-time startup CPU cost (JVM + context bring-up).
    pub startup_cpu: SimDuration,
    /// Background churn per interval.
    pub background_cpu: SimDuration,
    /// Background churn period.
    pub background_interval: SimDuration,
    /// After this many consecutive empty batches, flush windowed state
    /// downstream (end-of-stream heuristic); 0 disables flushing.
    pub idle_flush_batches: u32,
    /// Cap on records per micro-batch (Spark's max-rate backpressure knob).
    /// A backlogged worker otherwise forms ever-larger batches whose CPU
    /// cost can exceed the remaining run. `usize::MAX` (the default)
    /// disables the cap.
    pub max_batch_records: usize,
    /// Consumer settings for source topics.
    pub consumer: ConsumerConfig,
    /// Producer settings for the sink topic.
    pub producer: ProducerConfig,
    /// Checkpointing schedule and mode; `None` (the default) disables
    /// checkpointing, so a crashed worker restarts empty at offset zero.
    pub checkpoint: Option<CheckpointCfg>,
    /// Checkpoint-aligned transactional sink: topic-sink output is staged
    /// under a transaction marker per checkpoint epoch and only committed
    /// (made visible to read-committed consumers) once the covering
    /// checkpoint is durable — end-to-end exactly-once into the sink topic.
    /// Requires a topic sink and exactly-once checkpointing; ignored
    /// otherwise.
    pub transactional_sink: bool,
}

impl Default for SpeConfig {
    fn default() -> Self {
        SpeConfig {
            batch_interval: SimDuration::from_secs(1),
            scheduling_overhead: SimDuration::from_millis(120),
            cpu_per_record: SimDuration::from_micros(200),
            startup_cpu: SimDuration::from_secs(2),
            background_cpu: SimDuration::from_millis(4),
            background_interval: SimDuration::from_millis(100),
            idle_flush_batches: 3,
            max_batch_records: usize::MAX,
            consumer: ConsumerConfig::default(),
            producer: ProducerConfig::default(),
            checkpoint: None,
            transactional_sink: false,
        }
    }
}

/// Where a job's results go.
#[derive(Debug, Clone)]
pub enum SpeSink {
    /// Produce encoded events to a topic (chained jobs).
    Topic(String),
    /// Keep results in the worker (inspection, tests).
    Collect,
    /// Insert rows into an external store: `(store process, table name)`.
    /// Map-valued events become one row of stringified fields (sorted by
    /// field name); other values become single-cell rows.
    Store {
        /// The store server process.
        store: ProcessId,
        /// Target table.
        table: String,
    },
}

/// Metrics for one executed micro-batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchMetric {
    /// When the batch was scheduled.
    pub start: SimTime,
    /// When processing (CPU + emit) finished.
    pub end: SimTime,
    /// Input records.
    pub records_in: usize,
    /// Output events.
    pub records_out: usize,
}

impl BatchMetric {
    /// Wall-clock runtime of the batch (includes CPU queueing delay).
    pub fn runtime(&self) -> SimDuration {
        self.end - self.start
    }
}

/// Buffers records delivered by the embedded consumer until the next batch.
#[derive(Default)]
struct EventBuffer {
    /// The source topics; a topic's position is its source index.
    topics: Vec<String>,
    /// Keep the source index carried in the event encoding instead of
    /// overriding it with the topic index — set on shuffle-topic consumers,
    /// where all inputs arrive over one topic but a downstream join still
    /// needs to know which original source each event came from.
    preserve_source: bool,
    events: Vec<Event>,
}

impl DataSink for EventBuffer {
    fn on_records(&mut self, _now: SimTime, tp: &TopicPartition, records: &[Record]) {
        let source = self.topics.iter().position(|t| tp.topic == *t);
        let source = source.unwrap_or(0) as u8;
        // Each batch takes the buffer with it; size the new one per delivery
        // instead of doubling it up record by record.
        self.events.reserve(records.len());
        for r in records {
            let mut event = match Event::from_bytes(&r.value) {
                Ok(e) => e,
                // Raw payload from a producer stub: wrap as a string event
                // whose origin is the record's produce time.
                Err(_) => Event::new(Value::Str(r.value_utf8()), r.timestamp),
            };
            if !self.preserve_source {
                event.source = source;
            }
            if let (None, Some(k)) = (&event.key, &r.key) {
                event.key = Some(String::from_utf8_lossy(k).into_owned());
            }
            self.events.push(event);
        }
    }
}

mod tags {
    pub const BATCH_TICK: u64 = 1;
    pub const BATCH_DONE: u64 = 2;
    pub const BACKGROUND_TICK: u64 = 3;
    pub const CHECKPOINT_TICK: u64 = 5;
}

/// The metrics a worker updates per batch, each looked up in the registry by
/// its first update and never again.
struct WorkerMetrics {
    records_in: CounterHandle,
    records_out: CounterHandle,
    buffer_depth: GaugeHandle,
    sink_inserts: CounterHandle,
}

impl WorkerMetrics {
    fn new(tele: &Telemetry, scope: &str) -> Self {
        WorkerMetrics {
            records_in: tele.counter(scope, "records_in"),
            records_out: tele.counter(scope, "records_out"),
            buffer_depth: tele.gauge(scope, "buffer_depth"),
            sink_inserts: tele.counter(scope, "sink_inserts"),
        }
    }
}

/// The stream-processing worker process.
pub struct SpeWorker {
    name: String,
    cfg: SpeConfig,
    plan: Plan,
    sink: SpeSink,
    consumer: ConsumerClient,
    producer: Option<ProducerClient>,
    buffer: EventBuffer,
    collected: Vec<Event>,
    metrics: Vec<BatchMetric>,
    inflight: Option<(SimTime, Vec<Event>)>,
    empty_streak: u32,
    flushed: bool,
    store_corr: u64,
    store_inserts: u64,
    mem: Option<(LedgerHandle, MemSlot)>,
    coordinator: Option<CheckpointCoordinator>,
    recovery: Option<RecoveryInfo>,
    /// The open sink transaction (the next capture closes it); 0 when the
    /// sink is not transactional.
    txn_seq: u64,
    /// A capture whose closing transaction still has staged records in
    /// flight: the persist is withheld until the broker acknowledged every
    /// one, because a durable snapshot is the *prepared* marker — rolling
    /// its transaction forward on recovery is only sound once the whole
    /// staged batch provably reached the broker.
    staged_capture: Option<(CheckpointPayload, u64)>,
    /// A durable-backend restore round trip is in flight; consuming and
    /// batching are held until it completes.
    awaiting_restore: bool,
    /// Set by the orchestrator on a respawned worker so restart metrics are
    /// recorded even when checkpointing is disabled.
    restarted: bool,
    /// Stage identity; instance 0 of 1, restoring from its own chain, until
    /// [`set_instance`](SpeWorker::set_instance) says otherwise.
    instance: StageInstanceCfg,
    /// Telemetry sink (an unshared default until the orchestrator attaches
    /// the run-wide one).
    tele: Telemetry,
    tele_metrics: WorkerMetrics,
}

impl SpeWorker {
    /// Creates a worker running `plan` over `sources` (topics, in source-
    /// index order for joins) into `sink`.
    ///
    /// `bootstrap` and `brokers` configure the embedded clients exactly like
    /// standalone producer/consumer stubs.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        cfg: SpeConfig,
        sources: Vec<String>,
        plan: Plan,
        sink: SpeSink,
        bootstrap: ProcessId,
        brokers: BTreeMap<s2g_proto::BrokerId, ProcessId>,
        producer_id: ProducerId,
    ) -> Self {
        let name = name.into();
        let mut cfg = cfg;
        if cfg.checkpoint.is_some() && cfg.consumer.group.is_none() {
            // Checkpointed workers are implicitly group members: their
            // offsets are committed broker-side so a respawn resumes there.
            cfg.consumer.group = Some(format!("spe-{name}"));
        }
        let consumer = ConsumerClient::new(
            cfg.consumer.clone(),
            bootstrap,
            brokers.clone(),
            sources.clone(),
        );
        let producer = match &sink {
            SpeSink::Topic(_) => Some(ProducerClient::new(
                producer_id,
                cfg.producer.clone(),
                bootstrap,
                brokers,
                0,
            )),
            _ => None,
        };
        let buffer = EventBuffer {
            topics: sources.clone(),
            ..EventBuffer::default()
        };
        let instance = StageInstanceCfg {
            stage: 0,
            instance: 0,
            parallelism: 1,
            key_groups: 1,
            restore_from: vec![name.clone()],
            old_producers: Vec::new(),
        };
        let tele = Telemetry::new();
        SpeWorker {
            tele_metrics: WorkerMetrics::new(&tele, &name),
            name,
            cfg,
            plan,
            sink,
            consumer,
            producer,
            buffer,
            collected: Vec::new(),
            metrics: Vec::new(),
            inflight: None,
            empty_streak: 0,
            flushed: false,
            store_corr: 0,
            store_inserts: 0,
            mem: None,
            coordinator: None,
            recovery: None,
            txn_seq: 0,
            staged_capture: None,
            awaiting_restore: false,
            restarted: false,
            instance,
            tele,
        }
    }

    /// Attaches the run-wide telemetry sink under this worker's name
    /// (`job` or `job/stage/instance`): per-batch record counters, the
    /// shuffle-buffer depth gauge, checkpoint duration/size histograms,
    /// and batch/checkpoint/txn/recovery trace events. The embedded
    /// consumer and producer clients share the sink and scope, which is
    /// where per-instance consumer lag comes from.
    pub fn set_telemetry(&mut self, tele: Telemetry) {
        let scope = self.name.clone();
        self.consumer.set_telemetry(tele.clone(), scope.clone());
        if let Some(p) = self.producer.as_mut() {
            p.set_telemetry(tele.clone(), scope.clone());
        }
        if let Some(c) = self.coordinator.as_mut() {
            c.set_telemetry(tele.clone(), scope);
        }
        self.tele_metrics = WorkerMetrics::new(&tele, &self.name);
        self.tele = tele;
    }

    /// Declares this worker a parallel stage instance: its embedded
    /// consumer fetches only the contiguous partition range the instance
    /// owns, and (for stages past the first) the shuffle input's encoded
    /// source index is preserved for joins. A respawn reassembles the
    /// instance's key groups from the chains of `restore_from`.
    pub fn set_instance(&mut self, cfg: StageInstanceCfg) {
        self.consumer
            .set_static_assignment(cfg.instance, cfg.parallelism);
        if cfg.stage > 0 {
            self.buffer.preserve_source = true;
        }
        self.instance = cfg;
    }

    /// Attaches a memory-ledger slot.
    pub fn set_mem_slot(&mut self, ledger: LedgerHandle, slot: MemSlot) {
        self.mem = Some((ledger, slot));
    }

    /// Attaches a checkpoint backend. `recover` makes the worker restore
    /// the latest snapshot before consuming (the respawn path). Requires
    /// `cfg.checkpoint` to be set; without an explicit attachment a
    /// checkpointed worker falls back to a backend over a private map at
    /// start (self-contained, but lost with the worker on a crash).
    ///
    /// # Panics
    ///
    /// Panics if the worker's config has no checkpoint schedule.
    pub fn attach_checkpointing(&mut self, backend: DurableBackend, recover: bool) {
        let cfg = self
            .cfg
            .checkpoint
            .expect("attach_checkpointing requires cfg.checkpoint to be set");
        let mut coord = CheckpointCoordinator::new(cfg, backend, recover);
        coord.set_telemetry(self.tele.clone(), self.name.clone());
        self.coordinator = Some(coord);
    }

    /// Marks this worker instance as a post-crash respawn, so restart and
    /// first-batch times are reported even without checkpointing.
    pub fn mark_restarted(&mut self) {
        self.restarted = true;
    }

    /// Tells a respawned worker which incarnation of its process it is; the
    /// orchestrator bumps it per respawn. It becomes the sink producer's
    /// epoch (Kafka's producer epoch), so the broker's idempotent dedup does
    /// not mistake the fresh incarnation's sequence-zero records for
    /// retries of the crashed one's, and the base of both clients'
    /// correlation ids, so a reply to the crashed incarnation (a fetch it
    /// left held on a broker, a produce acknowledged late) is not taken for
    /// an answer to one of this one's requests.
    pub fn set_incarnation(&mut self, incarnation: u64) {
        self.consumer.set_incarnation(incarnation);
        if let Some(p) = self.producer.as_mut() {
            p.set_epoch(incarnation as u32);
            p.set_incarnation(incarnation);
        }
    }

    /// Checkpoint counters (zero when checkpointing is disabled).
    pub fn checkpoint_stats(&self) -> CheckpointStats {
        self.coordinator
            .as_ref()
            .map(CheckpointCoordinator::stats)
            .unwrap_or_default()
    }

    /// `(accepted, durable)` instants of every persisted capture — the
    /// checkpoint-latency series (empty without checkpointing).
    pub fn checkpoint_persist_log(&self) -> Vec<(SimTime, SimTime)> {
        self.coordinator
            .as_ref()
            .map(|c| c.persist_log().to_vec())
            .unwrap_or_default()
    }

    /// True when this worker stages its sink output transactionally: a
    /// configured transactional sink over a topic, under exactly-once
    /// checkpointing.
    fn txn_mode(&self) -> bool {
        self.cfg.transactional_sink
            && self.producer.is_some()
            && self
                .cfg
                .checkpoint
                .is_some_and(|c| c.mode == CheckpointMode::ExactlyOnce)
    }

    /// Recovery details when this worker incarnation was restored.
    pub fn recovery_info(&self) -> Option<RecoveryInfo> {
        self.recovery
    }

    /// The embedded consumer (positions, stats).
    pub fn consumer(&self) -> &ConsumerClient {
        &self.consumer
    }

    /// The embedded sink producer, when the sink is a topic.
    pub fn producer(&self) -> Option<&ProducerClient> {
        self.producer.as_ref()
    }

    /// Per-batch metrics, in execution order.
    pub fn metrics(&self) -> &[BatchMetric] {
        &self.metrics
    }

    /// Mean batch runtime over batches that had input.
    pub fn mean_busy_runtime(&self) -> SimDuration {
        let busy: Vec<&BatchMetric> = self.metrics.iter().filter(|m| m.records_in > 0).collect();
        if busy.is_empty() {
            return SimDuration::ZERO;
        }
        let total: u64 = busy.iter().map(|m| m.runtime().as_nanos()).sum();
        SimDuration::from_nanos(total / busy.len() as u64)
    }

    /// Results collected locally (only for [`SpeSink::Collect`]).
    pub fn collected(&self) -> &[Event] {
        &self.collected
    }

    /// Rows sent to the external store so far.
    pub fn store_inserts(&self) -> u64 {
        self.store_inserts
    }

    /// The job's plan (record counters, operator names).
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    fn start_batch(&mut self, ctx: &mut Ctx<'_>) {
        if self.inflight.is_some() {
            return; // previous batch still executing; records keep buffering
        }
        let events = if self.buffer.events.len() > self.cfg.max_batch_records {
            self.buffer
                .events
                .drain(..self.cfg.max_batch_records)
                .collect()
        } else {
            std::mem::take(&mut self.buffer.events)
        };
        if events.is_empty() {
            self.empty_streak += 1;
            if self.cfg.idle_flush_batches > 0
                && self.empty_streak >= self.cfg.idle_flush_batches
                && !self.flushed
            {
                self.flushed = true;
                let now = ctx.now();
                let out = self.plan.flush(now);
                self.emit(ctx, out);
            }
            return;
        }
        self.empty_streak = 0;
        self.flushed = false;
        let cost = self.cfg.scheduling_overhead + self.cfg.cpu_per_record * events.len() as u64;
        self.inflight = Some((ctx.now(), events));
        ctx.exec(cost, tags::BATCH_DONE);
    }

    fn finish_batch(&mut self, ctx: &mut Ctx<'_>) {
        let Some((start, events)) = self.inflight.take() else {
            return;
        };
        let now = ctx.now();
        let n_in = events.len();
        let out = self.plan.run_batch(now, events);
        let n_out = out.len();
        self.emit(ctx, out);
        self.metrics.push(BatchMetric {
            start,
            end: now,
            records_in: n_in,
            records_out: n_out,
        });
        self.tele_metrics.records_in.add(n_in as u64);
        self.tele_metrics.records_out.add(n_out as u64);
        self.tele_metrics
            .buffer_depth
            .set(self.buffer.events.len() as f64);
        self.tele.trace_complete(
            start,
            now.saturating_since(start),
            &self.name,
            "batch",
            "spe",
        );
        if let Some(r) = self.recovery.as_mut() {
            if r.first_batch_at.is_none() {
                r.first_batch_at = Some(now);
                self.tele
                    .trace_instant(now, &self.name, "recovery:first_batch", "recovery");
            }
        }
        if let Some((ledger, slot)) = &self.mem {
            // Model executor heap pressure as proportional to live state.
            let state_bytes = (self.collected.len() * 128) as u64;
            ledger.borrow_mut().set_dynamic(*slot, state_bytes);
        }
        // A checkpoint due mid-batch waits for the batch boundary: capture
        // now that the plan state is consistent with the consumed offsets.
        self.try_capture(ctx);
    }

    fn try_capture(&mut self, ctx: &mut Ctx<'_>) {
        let due = self
            .coordinator
            .as_ref()
            .is_some_and(|c| c.should_capture());
        if !due || self.inflight.is_some() || self.awaiting_restore || self.staged_capture.is_some()
        {
            return;
        }
        let kind = self
            .coordinator
            .as_ref()
            .map(CheckpointCoordinator::capture_kind)
            .expect("checked above");
        self.tele
            .trace_instant(ctx.now(), &self.name, "checkpoint:barrier", "checkpoint");
        let txn_mode = self.txn_mode();
        if txn_mode {
            // Close the transaction at the capture boundary: everything
            // accumulated so far is staged under the closing transaction
            // before the bump below opens the next one.
            if let Some(p) = self.producer.as_mut() {
                p.flush_all(ctx);
            }
        }
        let txn_seq = self.txn_seq;
        let payload = match kind {
            CaptureKind::Full => {
                let (plan_state, records_in, records_out) = self.plan.snapshot_state();
                // The full snapshot covers every pending change: reset the
                // operators' dirty tracking so the next delta starts clean.
                self.plan.mark_clean();
                CheckpointPayload::Full(StateSnapshot {
                    taken_at: ctx.now(),
                    plan_state,
                    records_in,
                    records_out,
                    buffer: self.buffer.events.clone(),
                    offsets: self.consumer.positions(),
                    txn_seq,
                })
            }
            CaptureKind::Delta => {
                let seq = self
                    .coordinator
                    .as_ref()
                    .map(CheckpointCoordinator::next_delta_seq)
                    .expect("checked above");
                let plan_delta = self.plan.snapshot_delta();
                let (records_in, records_out) = self.plan.record_counts();
                CheckpointPayload::Delta(StateDelta {
                    taken_at: ctx.now(),
                    seq,
                    plan_delta,
                    records_in,
                    records_out,
                    buffer: self.buffer.events.clone(),
                    offsets: self.consumer.positions(),
                    txn_seq,
                })
            }
        };
        let producer_sent = self.producer.as_ref().map_or(0, |p| p.stats().sent);
        if txn_mode {
            // Open the next transaction: output emitted after this capture
            // belongs to the next checkpoint epoch and only commits with it.
            self.txn_seq += 1;
            if let Some(p) = self.producer.as_mut() {
                p.set_transactional(Some(self.txn_seq));
            }
        }
        let outstanding = txn_mode
            && self
                .producer
                .as_ref()
                .is_some_and(|p| p.txn_outstanding(txn_seq) > 0);
        if outstanding {
            // Prepare ordering: the staged batch must be fully acknowledged
            // *before* the snapshot persists. If the snapshot became
            // durable first and the worker crashed with part of the batch
            // unsent, recovery would roll the transaction forward and the
            // missing records — whose inputs lie before the captured
            // offsets — would never be replayed.
            self.tele
                .trace_instant(ctx.now(), &self.name, "txn:prepare", "txn");
            self.staged_capture = Some((payload, producer_sent));
            return;
        }
        self.accept_capture(ctx, payload, producer_sent);
        self.pump_commit(ctx);
    }

    /// Hands a capture to the coordinator's persist machinery.
    fn accept_capture(&mut self, ctx: &mut Ctx<'_>, payload: CheckpointPayload, sent: u64) {
        let name = self.name.clone();
        let coord = self
            .coordinator
            .as_mut()
            .expect("capture implies coordinator");
        coord.accept(ctx, &name, payload, sent);
    }

    /// Persists a staged capture once its transaction's last staged record
    /// is acknowledged (the prepare's first half completing).
    fn try_accept_staged(&mut self, ctx: &mut Ctx<'_>) {
        let ready = match &self.staged_capture {
            Some((payload, _)) => self
                .producer
                .as_ref()
                .is_none_or(|p| p.txn_outstanding(payload.txn_seq()) == 0),
            None => return,
        };
        if ready {
            let (payload, sent) = self.staged_capture.take().expect("just checked");
            self.accept_capture(ctx, payload, sent);
        }
    }

    /// Flushes an offset commit whose persist and output barrier are both
    /// satisfied. Called after any event that can make progress: producer
    /// acks, store acks, and captures. Under a transactional sink the
    /// barrier is stricter — every record of the closing transaction must
    /// be completed — and the commit additionally flips the transaction
    /// marker on the brokers (the second phase of the checkpoint-aligned
    /// two-phase commit).
    fn pump_commit(&mut self, ctx: &mut Ctx<'_>) {
        let txn_mode = self.txn_mode();
        // Producer acks may have completed a staged capture's batch.
        self.try_accept_staged(ctx);
        let Some(coord) = self.coordinator.as_ref() else {
            return;
        };
        let completed = if txn_mode {
            match coord.pending_commit_txn() {
                // The commit barrier for transaction t: zero outstanding
                // records of t (cumulative outcome counts would let later
                // transactions' acks mask an unacked staged record).
                Some(t) if t > 0 => {
                    let clear = self
                        .producer
                        .as_ref()
                        .is_some_and(|p| p.txn_outstanding(t) == 0);
                    if clear {
                        u64::MAX
                    } else {
                        0
                    }
                }
                _ => 0,
            }
        } else {
            // Completed = acked + failed, from the always-on counters (the
            // per-record outcome list exists only under record capture).
            self.producer.as_ref().map_or(u64::MAX, |p| {
                let stats = p.stats();
                stats.acked + stats.failed
            })
        };
        let txn = coord.pending_commit_txn().unwrap_or(0);
        let coord = self.coordinator.as_mut().expect("checked above");
        if let Some(offsets) = coord.take_ready_commit(completed) {
            if txn_mode && txn > 0 {
                coord.note_txn_commit();
                if let Some(p) = self.producer.as_mut() {
                    p.end_txn(ctx, txn, true);
                }
            }
            self.consumer.commit_offsets(ctx, offsets);
        }
    }

    fn normal_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.txn_mode() && self.txn_seq == 0 {
            // Fresh start: open transaction 1 (a restore already seeded the
            // sequence past the recovered chain's).
            self.txn_seq = 1;
        }
        if self.txn_mode() {
            if let Some(p) = self.producer.as_mut() {
                p.set_transactional(Some(self.txn_seq));
            }
        }
        self.consumer.start(ctx);
        if let Some(p) = self.producer.as_mut() {
            p.start(ctx);
        }
        ctx.set_timer(self.cfg.batch_interval, tags::BATCH_TICK);
        ctx.set_timer(self.cfg.background_interval, tags::BACKGROUND_TICK);
        if let Some(c) = &self.coordinator {
            ctx.set_timer(c.interval(), tags::CHECKPOINT_TICK);
        }
    }

    fn handle_store_rpc(&mut self, ctx: &mut Ctx<'_>, rpc: StoreRpc) {
        if self.coordinator.is_none() {
            return;
        }
        let name = self.name.clone();
        let coord = self.coordinator.as_mut().expect("just checked");
        match coord.on_store_rpc(ctx, &name, rpc) {
            StoreRpcOutcome::PersistCompleted => self.pump_commit(ctx),
            StoreRpcOutcome::Recovered(recovered) => {
                self.awaiting_restore = false;
                self.apply_restore(ctx, recovered);
                self.normal_start(ctx);
            }
            StoreRpcOutcome::NotMine => {
                // Sink-insert acks and unrelated store traffic: ignored, as
                // before checkpointing existed.
            }
        }
    }

    /// The restore: merges the chains of every old instance this worker was
    /// told to read, keeping only the key groups it owns under the current
    /// parallelism. A non-parallel worker reads its own chain and owns
    /// every key. Per-key-group consistency holds because a key group, its
    /// shuffle partition, and its captured offsets all lived on exactly one
    /// old instance.
    fn apply_restore(&mut self, ctx: &mut Ctx<'_>, Recovered { chains, bytes }: Recovered) {
        let now = ctx.now();
        let inst = &self.instance;
        let (own, par) = (inst.instance as usize, inst.parallelism as usize);
        // What was persisted, with each chain's old-instance index.
        let restored: Vec<(usize, &SnapshotChain)> = chains
            .iter()
            .enumerate()
            .filter_map(|(idx, chain)| Some((idx, chain.as_ref()?)))
            .collect();
        if let Some(r) = self.recovery.as_mut() {
            r.restored_at = Some(now);
            r.snapshot_taken_at = restored.iter().map(|(_, c)| c.taken_at()).max();
            r.snapshot_bytes = bytes;
            r.delta_chain = restored
                .iter()
                .map(|(_, c)| c.chain_len())
                .max()
                .unwrap_or(0);
            self.tele
                .trace_end(now, &self.name, "recovery:restore", "recovery");
        }
        let txn_upto = |idx: usize| {
            let chain = chains.get(idx).and_then(Option::as_ref);
            chain.map_or(0, SnapshotChain::txn_seq)
        };
        if self.txn_mode() {
            // Resolve the crashed incarnation's transactions: everything at
            // or below its restored capture's transaction rolls forward
            // (its prepare — snapshot + staged batch — is durable); newer
            // ones abort, and replay from the restored offsets re-stages
            // exactly their records under fresh transactions.
            let committed = txn_upto(own);
            self.txn_seq = committed + 1;
            if let Some(p) = self.producer.as_mut() {
                p.recover_txns(ctx, committed);
                // Instance 0 also resolves the old instances that have no
                // successor under a shrunk parallelism — their staged
                // output would otherwise pin the LSO forever.
                if own == 0 {
                    for (idx, old_pid) in inst.old_producers.iter().enumerate().skip(par) {
                        p.recover_txns_for(ctx, *old_pid, txn_upto(idx));
                    }
                }
                p.set_transactional(Some(self.txn_seq));
            }
        }
        if restored.is_empty() {
            return; // cold start: nothing was ever persisted
        }
        let keep = |k: &str| inst.owns_key(k);
        let mut tail_offsets: BTreeMap<TopicPartition, Offset> = BTreeMap::new();
        let mut buffer: Vec<Event> = Vec::new();
        let (mut records_in, mut records_out) = (0, 0);
        for (idx, chain) in &restored {
            // Base first, then its deltas — the chained restore an
            // incremental checkpoint pays for its smaller captures. Chains
            // from different instances interleave safely: each key lived on
            // exactly one of them.
            self.plan.restore(&chain.plan_captures(), &keep);
            for (tp, off) in chain.offsets() {
                let e = tail_offsets.entry(tp.clone()).or_insert(*off);
                *e = (*e).max(*off);
            }
            // Keyed buffered input follows its key's owner. Keyless input
            // is pre-KeyBy and therefore stateless here: any one new
            // instance may replay it (the shuffle re-routes by key
            // afterwards), so old chain `k` goes to new instance `k mod M`
            // — every chain covered exactly once.
            let adopted = idx % par == own;
            let kept = chain.buffer().iter().filter(|ev| match &ev.key {
                Some(k) => keep(k),
                None => adopted,
            });
            buffer.extend(kept.cloned());
            // Record counters aren't keyed, so exact per-group attribution
            // is impossible after a rescale; adopting them by the same
            // `k mod M` rule keeps the job-level totals equal to what the
            // old layout actually processed.
            if adopted {
                let (chain_in, chain_out) = chain.record_counts();
                records_in += chain_in;
                records_out += chain_out;
            }
        }
        self.plan.set_record_counts(records_in, records_out);
        let offsets: Vec<(TopicPartition, Offset)> = tail_offsets.into_iter().collect();
        let coord = self
            .coordinator
            .as_mut()
            .expect("restore implies coordinator");
        match coord.mode() {
            CheckpointMode::ExactlyOnce => {
                // The chains are the source of truth: restore the unbatched
                // input and seek to the offsets captured with each chain's
                // newest element, so the replay boundary matches the state
                // exactly even if the final broker commit raced the crash.
                // The consumer's static assignment restricts fetching to
                // the partitions this instance owns.
                self.buffer.events = buffer;
                self.consumer.seed_positions(offsets.clone());
            }
            CheckpointMode::AtLeastOnce => {
                // Resume from the broker's committed offsets (which trail
                // the chains). Records in between replay into restored
                // state — duplicates, never loss; partitions that changed
                // owner replay from their new group's start.
            }
        }
        coord.seed_prev_offsets(offsets);
    }

    fn emit(&mut self, ctx: &mut Ctx<'_>, events: Vec<Event>) {
        if events.is_empty() {
            return;
        }
        match self.sink.clone() {
            SpeSink::Collect => self.collected.extend(events),
            SpeSink::Topic(topic) => {
                let producer = self.producer.as_mut().expect("topic sink has a producer");
                for e in events {
                    let key = e.key.as_deref().map(str::as_bytes);
                    producer.send_with(ctx, &topic, key, |buf| e.encode_into(buf));
                }
            }
            SpeSink::Store { store, table } => {
                self.tele_metrics.sink_inserts.add(events.len() as u64);
                self.tele
                    .trace_instant(ctx.now(), &self.name, "sink:insert", "sink");
                for e in events {
                    let mut row: Vec<String> = Vec::new();
                    if let Some(k) = &e.key {
                        row.push(k.clone());
                    }
                    match &e.value {
                        Value::Map(m) => row.extend(m.values().map(|v| v.to_string())),
                        other => row.push(other.to_string()),
                    }
                    self.store_corr += 1;
                    self.store_inserts += 1;
                    ctx.send(
                        store,
                        StoreRpc::Insert {
                            corr: self.store_corr,
                            table: table.clone(),
                            row,
                        },
                    );
                }
            }
        }
    }
}

impl Process for SpeWorker {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.charge(self.cfg.startup_cpu);
        if self.cfg.checkpoint.is_some() && self.coordinator.is_none() {
            // Self-contained default: a backend over a private map. It dies
            // with the worker, so orchestrated scenarios attach one over
            // the run's shared map or a store instead.
            self.attach_checkpointing(DurableBackend::shared(blob_map()), false);
        }
        let wants_recovery = self
            .coordinator
            .as_ref()
            .is_some_and(CheckpointCoordinator::wants_recovery);
        if self.restarted || wants_recovery {
            self.recovery = Some(RecoveryInfo {
                restarted_at: ctx.now(),
                restored_at: None,
                snapshot_taken_at: None,
                snapshot_bytes: 0,
                delta_chain: 0,
                first_batch_at: None,
            });
        }
        if wants_recovery {
            self.tele
                .trace_begin(ctx.now(), &self.name, "recovery:restore", "recovery");
            let (names, parallelism) = (
                self.instance.restore_from.clone(),
                self.instance.parallelism,
            );
            let coord = self.coordinator.as_mut().expect("checked above");
            match coord.start_recovery(ctx, &self.name, names, parallelism) {
                Some(recovered) => {
                    self.apply_restore(ctx, recovered);
                    self.normal_start(ctx);
                }
                None => {
                    // Hold consuming and batching until the backend read
                    // round trips complete — the recovery-latency cost of
                    // keeping checkpoints on a store. The blob client's
                    // retry timer covers a lost RPC.
                    self.awaiting_restore = true;
                }
            }
        } else {
            self.normal_start(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ProcessId, msg: Box<dyn Message>) {
        if self.awaiting_restore {
            // Booting: only the restore's store replies are this
            // incarnation's. A fetch reply to the one before it would set
            // the unstarted consumer polling ahead of the restored offsets.
            if let Ok(rpc) = s2g_sim::downcast::<StoreRpc>(msg) {
                self.handle_store_rpc(ctx, *rpc);
            }
            return;
        }
        let msg = match self.consumer.handle_message(ctx, msg) {
            None => return,
            Some(m) => m,
        };
        let msg = match s2g_sim::downcast::<StoreRpc>(msg) {
            Ok(rpc) => return self.handle_store_rpc(ctx, *rpc),
            Err(m) => m,
        };
        if let Some(p) = self.producer.as_mut() {
            p.handle_message(ctx, msg);
        }
        // Producer acks may have satisfied an exactly-once output barrier.
        self.pump_commit(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if self.consumer.handle_timer(ctx, tag) {
            return;
        }
        if let Some(p) = self.producer.as_mut() {
            if p.handle_timer(ctx, tag) {
                self.pump_commit(ctx);
                return;
            }
        }
        match tag {
            tags::BATCH_TICK => {
                self.start_batch(ctx);
                ctx.set_timer(self.cfg.batch_interval, tags::BATCH_TICK);
            }
            tags::BACKGROUND_TICK => {
                if !self.cfg.background_cpu.is_zero() {
                    ctx.charge(self.cfg.background_cpu);
                }
                ctx.set_timer(self.cfg.background_interval, tags::BACKGROUND_TICK);
            }
            tags::CHECKPOINT_TICK => {
                if let Some(c) = self.coordinator.as_mut() {
                    c.request_capture();
                    let interval = c.interval();
                    self.try_capture(ctx);
                    ctx.set_timer(interval, tags::CHECKPOINT_TICK);
                }
            }
            _ => {
                if let Some(c) = self.coordinator.as_mut() {
                    c.on_timer(ctx, tag);
                }
            }
        }
    }

    fn on_cpu_done(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if self.consumer.handle_cpu_done(ctx, tag, &mut self.buffer) {
            return;
        }
        if tag == tags::BATCH_DONE {
            self.finish_batch(ctx);
        }
    }
}

impl std::fmt::Debug for SpeWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpeWorker")
            .field("name", &self.name)
            .field("batches", &self.metrics.len())
            .field("plan", &self.plan)
            .finish()
    }
}
