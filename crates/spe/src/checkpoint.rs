//! Checkpointing and recovery for stream jobs.
//!
//! A crashed [`SpeWorker`](crate::SpeWorker) loses every byte of operator
//! state and its consumer positions. This module makes worker crash →
//! restore → replay an expressible scenario:
//!
//! * [`StateSnapshot`] — a consistent capture of a worker: per-operator
//!   state, buffered-but-unprocessed input, and the embedded consumer's
//!   partition offsets, taken only at batch boundaries;
//! * [`StateDelta`] — an *incremental* capture: only the per-key/per-window
//!   state that changed since the previous capture, chained onto a periodic
//!   full base snapshot. Snapshot bytes scale with churn instead of with
//!   total state, and a configurable chain cap bounds restore work by
//!   forcing a re-base;
//! * [`DurableBackend`] — the one checkpoint store: every capture is an
//!   encoded blob plus a chain manifest behind an [`s2g_store::BlobClient`].
//!   Where the blobs live is the client's medium, not a second
//!   implementation: a store group ([`DurableBackend::new`]), paying
//!   simulated CPU and network cost on every blob written and read, or the
//!   run's shared [`BlobMap`] ([`DurableBackend::shared`]), which models a
//!   job-manager heap outside the worker's failure domain (free, instant);
//! * [`CheckpointCoordinator`] — drives the interval, full-vs-delta
//!   scheduling, the output barrier, and the offset-commit schedule that
//!   distinguishes [`CheckpointMode::ExactlyOnce`] from
//!   [`CheckpointMode::AtLeastOnce`].
//!
//! # The two delivery modes
//!
//! **Exactly-once**: the capture embeds the consumer offsets taken in the
//! same instant as the operator state (Flink-style "offsets live in the
//! state"), and those offsets are only committed to the broker after (a) the
//! capture is durably persisted and (b) every output emitted before the
//! capture has been acknowledged by the broker. Recovery seeds the consumer
//! from the restored offsets, restores the input buffer, and replays
//! everything after — with an idempotent or keyed sink the post-recovery
//! output equals the no-fault run exactly.
//!
//! **At-least-once**: the capture holds operator state only, and the
//! coordinator commits the *previous* checkpoint's offsets — so the broker's
//! committed position always trails the persisted state. Recovery restores
//! the newer state and resumes from the older committed offsets, replaying
//! up to one checkpoint interval of records into state that already saw
//! them: duplicates, never loss, and bounded by the interval.
//!
//! # Incremental chains
//!
//! ```text
//!   base ──► Δ1 ──► Δ2 ──► ... ──► Δcap ──► base' ──► Δ1 ...
//!    │       │       │
//!    └───────┴───────┴── restore = base + Δ1 + Δ2 (≤ cap deltas)
//! ```
//!
//! Each delta carries the keys/windows touched since the previous capture
//! plus the windows dropped by emission, and absolute copies of the cheap
//! worker-level state (offsets, input buffer, record counters). Restore
//! applies the base then replays the deltas in sequence; the chain cap
//! bounds both restore work and the blob count a restore must read back.

use std::collections::BTreeMap;

use s2g_proto::codec::{put_u64, Cursor};
use s2g_proto::{Offset, TopicPartition};
use s2g_sim::{Ctx, ProcessId, SimDuration, SimTime};
use s2g_store::{BlobClient, BlobDone, BlobMap, StoreRpc};
use s2g_telemetry::Telemetry;

use crate::event::{CodecError, Event, Value};

/// Correlation-id base for checkpoint store RPCs, so a worker can tell its
/// snapshot traffic apart from sink inserts sharing the same store server;
/// and so the tag of the checkpoint blob client's retry timer, clear of the
/// worker's own tags and of its embedded clients' ranges.
pub const CKPT_CORR_BASE: u64 = 1 << 42;

/// When consumer offsets are committed relative to state persistence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointMode {
    /// Offsets are captured atomically with the state and committed only
    /// once the capture is persisted and all pre-capture output is acked.
    /// Recovery replays nothing that is already reflected in the state.
    ExactlyOnce,
    /// The previous checkpoint's offsets are committed with each capture;
    /// recovery replays up to one interval of already-processed records.
    AtLeastOnce,
}

/// Checkpoint tunables, carried in [`SpeConfig`](crate::SpeConfig).
#[derive(Debug, Clone, Copy)]
pub struct CheckpointCfg {
    /// Time between checkpoint attempts (a capture waits for the current
    /// micro-batch to finish, so the effective period may be longer).
    pub interval: SimDuration,
    /// Offset-commit discipline.
    pub mode: CheckpointMode,
    /// Maximum deltas chained onto one base before the next capture is
    /// forced to be a full re-base (bounds restore work). Between re-bases
    /// captures ship only dirty state ([`StateDelta`]s); 0 makes every
    /// capture a full snapshot.
    pub max_delta_chain: u32,
}

impl CheckpointCfg {
    /// Full-snapshot checkpointing on the given interval and mode.
    pub fn new(interval: SimDuration, mode: CheckpointMode) -> Self {
        CheckpointCfg {
            interval,
            mode,
            max_delta_chain: 0,
        }
    }

    /// Exactly-once checkpointing on the given interval (full snapshots).
    pub fn exactly_once(interval: SimDuration) -> Self {
        Self::new(interval, CheckpointMode::ExactlyOnce)
    }

    /// At-least-once checkpointing on the given interval (full snapshots).
    pub fn at_least_once(interval: SimDuration) -> Self {
        Self::new(interval, CheckpointMode::AtLeastOnce)
    }

    /// Switches to incremental captures with the given delta-chain cap.
    ///
    /// # Panics
    ///
    /// Panics if `max_delta_chain` is zero (a zero cap is just full
    /// snapshots — ask for that directly).
    pub fn incremental(mut self, max_delta_chain: u32) -> Self {
        assert!(max_delta_chain > 0, "delta-chain cap must be positive");
        self.max_delta_chain = max_delta_chain;
        self
    }
}

/// Encodes an event for inclusion in a snapshot value.
pub(crate) fn event_to_value(e: &Event) -> Value {
    Value::List(vec![
        e.key.clone().map_or(Value::Null, Value::Str),
        e.value.clone(),
        Value::Int(e.ts.as_nanos() as i64),
        Value::Int(e.origin.as_nanos() as i64),
        Value::Int(e.source as i64),
    ])
}

/// Decodes an event from a snapshot value.
pub(crate) fn event_from_value(v: &Value) -> Option<Event> {
    let Value::List(parts) = v else { return None };
    if parts.len() != 5 {
        return None;
    }
    let key = match &parts[0] {
        Value::Null => None,
        Value::Str(s) => Some(s.clone()),
        _ => return None,
    };
    Some(Event {
        key,
        value: parts[1].clone(),
        ts: SimTime::from_nanos(parts[2].as_int()? as u64),
        origin: SimTime::from_nanos(parts[3].as_int()? as u64),
        source: u8::try_from(parts[4].as_int()?).ok()?,
    })
}

fn offsets_to_value(offsets: &[(TopicPartition, Offset)]) -> Value {
    Value::List(
        offsets
            .iter()
            .map(|(tp, off)| {
                Value::List(vec![
                    Value::Str(tp.topic.to_string()),
                    Value::Int(tp.partition as i64),
                    Value::Int(off.value() as i64),
                ])
            })
            .collect(),
    )
}

fn offsets_from_value(v: &Value) -> Option<Vec<(TopicPartition, Offset)>> {
    let Value::List(offs) = v else { return None };
    let mut offsets = Vec::with_capacity(offs.len());
    for o in offs {
        let Value::List(parts) = o else { return None };
        if parts.len() != 3 {
            return None;
        }
        offsets.push((
            TopicPartition::new(
                parts[0].as_str()?.to_string(),
                u32::try_from(parts[1].as_int()?).ok()?,
            ),
            Offset(parts[2].as_int()? as u64),
        ));
    }
    Some(offsets)
}

fn buffer_to_value(buffer: &[Event]) -> Value {
    Value::List(buffer.iter().map(event_to_value).collect())
}

fn buffer_from_value(v: &Value) -> Option<Vec<Event>> {
    let Value::List(buf) = v else { return None };
    let buffer: Vec<Event> = buf.iter().filter_map(event_from_value).collect();
    if buffer.len() != buf.len() {
        return None;
    }
    Some(buffer)
}

/// Encodes the fields every capture carries — a [`StateDelta`] is these
/// plus its `seq`.
fn capture_to_map(
    taken_at: SimTime,
    plan: &[Option<Value>],
    records_in: u64,
    records_out: u64,
    buffer: &[Event],
    offsets: &[(TopicPartition, Offset)],
    txn_seq: u64,
) -> BTreeMap<String, Value> {
    let plan = plan.iter().map(|s| s.clone().unwrap_or(Value::Null));
    let fields = [
        ("taken_at", Value::Int(taken_at.as_nanos() as i64)),
        ("records_in", Value::Int(records_in as i64)),
        ("records_out", Value::Int(records_out as i64)),
        ("txn", Value::Int(txn_seq as i64)),
        ("plan", Value::List(plan.collect())),
        ("buffer", buffer_to_value(buffer)),
        ("offsets", offsets_to_value(offsets)),
    ];
    fields
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

/// A consistent capture of one worker, taken at a micro-batch boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct StateSnapshot {
    /// When the capture happened.
    pub taken_at: SimTime,
    /// Per-operator state, aligned with the plan's operator chain; `None`
    /// for stateless operators.
    pub plan_state: Vec<Option<Value>>,
    /// The plan's cumulative input-record counter at capture time.
    pub records_in: u64,
    /// The plan's cumulative output-record counter at capture time.
    pub records_out: u64,
    /// Records fetched (offsets already advanced past them) but not yet run
    /// through the plan. Restored under exactly-once so nothing between the
    /// offsets and the state is lost.
    pub buffer: Vec<Event>,
    /// The embedded consumer's position per partition at capture time.
    pub offsets: Vec<(TopicPartition, Offset)>,
    /// The sink transaction this capture closes (0 when the sink is not
    /// transactional). On recovery, transactions at or below this sequence
    /// roll forward; newer ones abort and are re-staged by replay.
    pub txn_seq: u64,
}

impl StateSnapshot {
    /// Encodes the snapshot as a single [`Value`] tree.
    pub fn to_value(&self) -> Value {
        Value::Map(capture_to_map(
            self.taken_at,
            &self.plan_state,
            self.records_in,
            self.records_out,
            &self.buffer,
            &self.offsets,
            self.txn_seq,
        ))
    }

    /// Decodes a snapshot from its [`Value`] tree; every field is required.
    pub fn from_value(v: &Value) -> Option<StateSnapshot> {
        let Value::List(plan) = v.field("plan")? else {
            return None;
        };
        let plan_state = plan
            .iter()
            .map(|s| Some(s.clone()).filter(|s| *s != Value::Null))
            .collect();
        Some(StateSnapshot {
            taken_at: SimTime::from_nanos(v.field("taken_at")?.as_int()? as u64),
            plan_state,
            records_in: v.field("records_in")?.as_int()? as u64,
            records_out: v.field("records_out")?.as_int()? as u64,
            buffer: buffer_from_value(v.field("buffer")?)?,
            offsets: offsets_from_value(v.field("offsets")?)?,
            txn_seq: v.field("txn")?.as_int()? as u64,
        })
    }

    /// Serializes to the compact binary format (the blob a backend stores).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_value().encode()
    }

    /// Deserializes from [`to_bytes`](StateSnapshot::to_bytes) output.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or malformed input.
    pub fn from_bytes(buf: &[u8]) -> Result<StateSnapshot, CodecError> {
        let v = Value::decode(buf)?;
        StateSnapshot::from_value(&v).ok_or(CodecError::Truncated)
    }
}

/// An incremental capture: per-operator dirty state since the previous
/// capture, plus absolute copies of the cheap worker-level state. Chained
/// onto the [`StateSnapshot`] base persisted before it.
#[derive(Debug, Clone, PartialEq)]
pub struct StateDelta {
    /// When the capture happened.
    pub taken_at: SimTime,
    /// 1-based position in the chain after its base.
    pub seq: u64,
    /// Per-operator dirty-state deltas, aligned with the plan's operator
    /// chain; `None` for stateless operators.
    pub plan_delta: Vec<Option<Value>>,
    /// The plan's cumulative input-record counter at capture time.
    pub records_in: u64,
    /// The plan's cumulative output-record counter at capture time.
    pub records_out: u64,
    /// Buffered-but-unprocessed input at capture time (absolute, usually
    /// tiny).
    pub buffer: Vec<Event>,
    /// The embedded consumer's position per partition at capture time
    /// (absolute).
    pub offsets: Vec<(TopicPartition, Offset)>,
    /// The sink transaction this capture closes (0 when not transactional).
    pub txn_seq: u64,
}

impl StateDelta {
    /// Encodes the delta as a single [`Value`] tree.
    pub fn to_value(&self) -> Value {
        let mut map = capture_to_map(
            self.taken_at,
            &self.plan_delta,
            self.records_in,
            self.records_out,
            &self.buffer,
            &self.offsets,
            self.txn_seq,
        );
        map.insert("seq".to_string(), Value::Int(self.seq as i64));
        Value::Map(map)
    }

    /// Decodes a delta from its [`Value`] tree: a snapshot's fields plus
    /// `seq`, every one required.
    pub fn from_value(v: &Value) -> Option<StateDelta> {
        let seq = v.field("seq")?.as_int()? as u64;
        let s = StateSnapshot::from_value(v)?;
        Some(StateDelta {
            taken_at: s.taken_at,
            seq,
            plan_delta: s.plan_state,
            records_in: s.records_in,
            records_out: s.records_out,
            buffer: s.buffer,
            offsets: s.offsets,
            txn_seq: s.txn_seq,
        })
    }

    /// Serializes to the compact binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_value().encode()
    }

    /// Deserializes from [`to_bytes`](StateDelta::to_bytes) output.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or malformed input.
    pub fn from_bytes(buf: &[u8]) -> Result<StateDelta, CodecError> {
        let v = Value::decode(buf)?;
        StateDelta::from_value(&v).ok_or(CodecError::Truncated)
    }
}

/// One capture handed to [`DurableBackend::persist`]: a full base snapshot
/// or a delta chained onto the current base.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointPayload {
    /// A full snapshot — starts a fresh chain.
    Full(StateSnapshot),
    /// A delta — extends the current chain.
    Delta(StateDelta),
}

impl CheckpointPayload {
    /// Capture time.
    pub fn taken_at(&self) -> SimTime {
        match self {
            CheckpointPayload::Full(s) => s.taken_at,
            CheckpointPayload::Delta(d) => d.taken_at,
        }
    }

    /// The consumer offsets captured with this payload.
    pub fn offsets(&self) -> &[(TopicPartition, Offset)] {
        match self {
            CheckpointPayload::Full(s) => &s.offsets,
            CheckpointPayload::Delta(d) => &d.offsets,
        }
    }

    /// The sink transaction this capture closes (0 when not transactional).
    pub fn txn_seq(&self) -> u64 {
        match self {
            CheckpointPayload::Full(s) => s.txn_seq,
            CheckpointPayload::Delta(d) => d.txn_seq,
        }
    }
}

/// A base snapshot plus the deltas persisted after it — what a backend
/// stores per job and what recovery replays.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotChain {
    /// The base snapshot.
    pub base: StateSnapshot,
    /// Deltas in persistence order (`seq` 1, 2, ...).
    pub deltas: Vec<StateDelta>,
}

impl SnapshotChain {
    /// A chain holding only a base.
    pub fn new(base: StateSnapshot) -> Self {
        SnapshotChain {
            base,
            deltas: Vec::new(),
        }
    }

    /// Number of deltas chained onto the base.
    pub fn chain_len(&self) -> u64 {
        self.deltas.len() as u64
    }

    /// Capture time of the newest element.
    pub fn taken_at(&self) -> SimTime {
        self.deltas
            .last()
            .map(|d| d.taken_at)
            .unwrap_or(self.base.taken_at)
    }

    /// Consumer offsets of the newest element.
    pub fn offsets(&self) -> &[(TopicPartition, Offset)] {
        self.deltas
            .last()
            .map(|d| d.offsets.as_slice())
            .unwrap_or(self.base.offsets.as_slice())
    }

    /// Input buffer of the newest element.
    pub fn buffer(&self) -> &[Event] {
        self.deltas
            .last()
            .map(|d| d.buffer.as_slice())
            .unwrap_or(self.base.buffer.as_slice())
    }

    /// Sink transaction of the newest element (0 when not transactional).
    pub fn txn_seq(&self) -> u64 {
        self.deltas
            .last()
            .map(|d| d.txn_seq)
            .unwrap_or(self.base.txn_seq)
    }

    /// Record counters of the newest element.
    pub fn record_counts(&self) -> (u64, u64) {
        self.deltas
            .last()
            .map(|d| (d.records_in, d.records_out))
            .unwrap_or((self.base.records_in, self.base.records_out))
    }

    /// Per-operator captures in restore order: the base's states, then each
    /// delta's — what [`Plan::restore`](crate::Plan::restore) takes.
    pub(crate) fn plan_captures(&self) -> Vec<&[Option<Value>]> {
        let deltas = self.deltas.iter().map(|d| d.plan_delta.as_slice());
        std::iter::once(self.base.plan_state.as_slice())
            .chain(deltas)
            .collect()
    }
}

/// A completed recovery, as [`CheckpointCoordinator::start_recovery`] or
/// [`StoreRpcOutcome::Recovered`] hands it to the worker.
#[derive(Debug, Default)]
pub struct Recovered {
    /// One chain per requested name, in order (`None` where nothing was
    /// persisted — all `None` on a cold start).
    pub chains: Vec<Option<SnapshotChain>>,
    /// Total encoded bytes of the captures read (base + deltas) across
    /// every chain.
    pub bytes: u64,
}

/// What a store message meant to checkpointing: the answer of
/// [`CheckpointCoordinator::on_store_rpc`] and, one level down, of
/// [`DurableBackend::on_store_rpc`] (whose recoveries read one chain each).
#[derive(Debug)]
pub enum StoreRpcOutcome {
    /// The message did not belong to checkpoint bookkeeping, or left its
    /// persist or recovery still waiting for other replies.
    NotMine,
    /// A pending capture persist completed.
    PersistCompleted,
    /// A pending recovery completed.
    Recovered(Recovered),
}

/// The backend's label for a blob request: what the blob is.
#[derive(Debug)]
enum CkptBlob {
    /// The chain manifest.
    Manifest,
    /// Capture number N of a chain: 0 is the base, N ≥ 1 the delta of
    /// that `seq`.
    Capture(u64),
}

/// Blobs gathered while a recovery is in flight.
#[derive(Default)]
struct RecoverAssembly {
    chain: u64,
    count: u64,
    base: Option<StateSnapshot>,
    deltas: BTreeMap<u64, StateDelta>,
    /// Encoded bytes of the capture blobs read (the manifest is a pointer,
    /// not restored state).
    bytes: u64,
}

/// Checkpoint storage: every persist writes the encoded blob and then a
/// tiny chain manifest; every recovery reads the manifest and then each
/// chained blob. Over a store group ([`new`](Self::new)) that is traffic on
/// the emulated network paying the store's CPU cost, and a recovering
/// worker waits a manifest read plus one round trip per chained blob before
/// its first post-restart batch — which is exactly why the delta-chain cap
/// bounds recovery latency. Over the run's shared map
/// ([`shared`](Self::shared)) the same requests finish at once and for
/// free.
pub struct DurableBackend {
    blobs: BlobClient<CkptBlob>,
    /// Chain counter: bumped per base snapshot so blob keys from superseded
    /// chains are never read again.
    chain: u64,
    /// Deltas persisted on the current chain.
    delta_count: u64,
    /// The manifest write of the in-flight persist, staged until the blob
    /// put is acknowledged: the manifest is the only pointer to the chain,
    /// so it must never point at a blob that is not durable yet (a lost
    /// blob put plus a delivered manifest put would turn the next recovery
    /// into a cold start even though the previous chain is intact). The
    /// same order runs the other way for a chain a re-base supersedes: its
    /// blobs are deleted only once the manifest that points past it is
    /// durable, so a crash between that manifest and the deletes (which
    /// are not re-sent) orphans at most one chain per crash and never
    /// leaves a manifest pointing at a deleted blob.
    staged_manifest: Option<(String, Vec<u8>)>,
    /// A recovery is assembling its blobs.
    recovering: Option<RecoverAssembly>,
    /// The chain `(id, deltas)` that the base being persisted supersedes.
    superseded: Option<(u64, u64)>,
}

impl DurableBackend {
    /// Creates a backend over the members of a store group (one member for
    /// an unreplicated store): unanswered RPCs rotate to the next member on
    /// the blob client's retry timer (armed in the owning process under
    /// [`CKPT_CORR_BASE`]; an [`SpeWorker`](crate::SpeWorker) forwards it),
    /// so checkpoints survive a store crash with no change above this
    /// backend. `incarnation` is the owning worker's, so a store reply
    /// delayed across a worker bounce can never complete a request of the
    /// respawn.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty.
    pub fn new(servers: Vec<ProcessId>, incarnation: u64) -> Self {
        Self::over(BlobClient::new(servers, CKPT_CORR_BASE, incarnation))
    }

    /// Creates a backend over a shared blob map: a job manager's heap,
    /// outside the worker's failure domain when the map outlives the worker
    /// (the orchestrator's does). Instant and free, but gone if the whole
    /// scenario host were to fail (which the simulation never models).
    pub fn shared(map: BlobMap) -> Self {
        Self::over(BlobClient::shared(map))
    }

    fn over(blobs: BlobClient<CkptBlob>) -> Self {
        DurableBackend {
            blobs,
            chain: 0,
            delta_count: 0,
            staged_manifest: None,
            recovering: None,
            superseded: None,
        }
    }

    fn manifest_key(job: &str) -> String {
        format!("ckpt/{job}")
    }

    fn base_key(job: &str, chain: u64) -> String {
        format!("ckpt/{job}/{chain}/base")
    }

    fn delta_key(job: &str, chain: u64, seq: u64) -> String {
        format!("ckpt/{job}/{chain}/{seq}")
    }

    fn manifest_bytes(chain: u64, count: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        put_u64(&mut out, chain);
        put_u64(&mut out, count);
        out
    }

    fn parse_manifest(buf: &[u8]) -> Option<(u64, u64)> {
        let mut cur = Cursor::new(buf);
        let chain = cur.u64()?;
        let count = cur.u64()?;
        Some((chain, count))
    }

    /// Begins persisting `payload` as the next capture of `job` and returns
    /// its encoded size. The capture is durable once the completion handler
    /// reports [`StoreRpcOutcome::PersistCompleted`]: to the coordinator as
    /// soon as it asks on the shared map, from a later
    /// [`on_store_rpc`](Self::on_store_rpc) on a store.
    pub fn persist(&mut self, ctx: &mut Ctx<'_>, job: &str, payload: &CheckpointPayload) -> u64 {
        let (blob_key, blob_bytes) = match payload {
            CheckpointPayload::Full(snapshot) => {
                self.superseded = Some((self.chain, self.delta_count));
                self.chain += 1;
                self.delta_count = 0;
                (Self::base_key(job, self.chain), snapshot.to_bytes())
            }
            CheckpointPayload::Delta(delta) => {
                self.delta_count = delta.seq;
                (
                    Self::delta_key(job, self.chain, delta.seq),
                    delta.to_bytes(),
                )
            }
        };
        let bytes = blob_bytes.len() as u64;
        let label = CkptBlob::Capture(self.delta_count);
        self.blobs.put(ctx, label, blob_key, blob_bytes);
        // The manifest only goes out once the blob it points at is durable
        // (see `staged_manifest`); until then a crash recovers the previous
        // manifest-consistent chain.
        self.staged_manifest = Some((
            Self::manifest_key(job),
            Self::manifest_bytes(self.chain, self.delta_count),
        ));
        bytes
    }

    /// Begins recovering the latest persisted chain of `job`; it arrives,
    /// the same way, as [`StoreRpcOutcome::Recovered`] holding that one
    /// chain.
    pub fn recover(&mut self, ctx: &mut Ctx<'_>, job: &str) {
        self.recovering = Some(RecoverAssembly::default());
        let key = Self::manifest_key(job);
        self.blobs.get(ctx, CkptBlob::Manifest, key);
    }

    /// Routes a store RPC to this backend's pending requests and reports
    /// what, if anything, it finished. `job` is the name the in-flight
    /// persist or recovery was begun under.
    pub fn on_store_rpc(&mut self, ctx: &mut Ctx<'_>, job: &str, rpc: StoreRpc) -> StoreRpcOutcome {
        self.blobs.on_reply(rpc);
        self.settle(ctx, job)
    }

    /// The one completion handler: takes finished requests off the client
    /// until one completes a persist or a recovery, or none is left. Run
    /// wherever a request may have finished — after a store reply, and
    /// after `persist` and `recover` themselves, because on the shared map
    /// a request finishes as it is issued (and so do the requests this
    /// handler issues in turn, which is why it loops).
    fn settle(&mut self, ctx: &mut Ctx<'_>, job: &str) -> StoreRpcOutcome {
        while let Some(done) = self.blobs.next_done() {
            let (label, value) = match done {
                BlobDone::Put(CkptBlob::Capture(_)) => {
                    // Blob durable: now (and only now) publish the manifest
                    // that points at it.
                    if let Some((key, bytes)) = self.staged_manifest.take() {
                        self.blobs.put(ctx, CkptBlob::Manifest, key, bytes);
                    }
                    continue;
                }
                BlobDone::Put(CkptBlob::Manifest) => {
                    // The manifest points at the new chain: nothing reads
                    // the one it superseded any more.
                    if let Some((chain, deltas)) = self.superseded.take() {
                        self.blobs.delete(ctx, &Self::base_key(job, chain));
                        for seq in 1..=deltas {
                            self.blobs.delete(ctx, &Self::delta_key(job, chain, seq));
                        }
                    }
                    return StoreRpcOutcome::PersistCompleted;
                }
                BlobDone::Got(label, value) => (label, value),
            };
            let Some(asm) = self.recovering.as_mut() else {
                continue;
            };
            let blob = value.as_deref();
            match label {
                CkptBlob::Manifest => {
                    let Some((chain, count)) = blob.and_then(Self::parse_manifest) else {
                        // Cold start: nothing persisted yet.
                        return self.finish_recovery();
                    };
                    asm.chain = chain;
                    asm.count = count;
                    let base = Self::base_key(job, chain);
                    self.blobs.get(ctx, CkptBlob::Capture(0), base);
                    for seq in 1..=count {
                        let delta = Self::delta_key(job, chain, seq);
                        self.blobs.get(ctx, CkptBlob::Capture(seq), delta);
                    }
                    continue;
                }
                CkptBlob::Capture(0) => {
                    asm.base = blob.and_then(|b| StateSnapshot::from_bytes(b).ok());
                }
                CkptBlob::Capture(seq) => {
                    if let Some(d) = blob.and_then(|b| StateDelta::from_bytes(b).ok()) {
                        asm.deltas.insert(seq, d);
                    }
                }
            }
            asm.bytes += blob.map_or(0, |b| b.len() as u64);
            if !self.blobs.gets_left() {
                return self.finish_recovery();
            }
        }
        StoreRpcOutcome::NotMine
    }

    fn finish_recovery(&mut self) -> StoreRpcOutcome {
        let asm = self.recovering.take().expect("recovery in flight");
        // Resume chain numbering after the recovered chain so the next base
        // lands on fresh keys. Monotone max: a multi-name rescale recovery
        // reads several manifests through this one backend, and the next
        // base must not collide with *any* chain it saw (a reused chain id
        // could overwrite a blob an old manifest still points at).
        self.chain = self.chain.max(asm.chain);
        self.delta_count = asm.count;
        // Apply deltas in seq order; a missing blob (lost before the crash)
        // truncates the usable chain at the gap — later deltas were never
        // covered by a manifest-consistent prefix.
        let mut by_seq = asm.deltas;
        let deltas = (1..=asm.count).map_while(|seq| by_seq.remove(&seq));
        let chain = asm.base.map(|base| SnapshotChain {
            base,
            deltas: deltas.collect(),
        });
        StoreRpcOutcome::Recovered(Recovered {
            chains: vec![chain],
            bytes: asm.bytes,
        })
    }
}

/// Checkpoint counters, surfaced per job in the run report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Captures successfully persisted (full + delta).
    pub checkpoints: u64,
    /// Full (base) snapshots persisted.
    pub full_checkpoints: u64,
    /// Incremental deltas persisted.
    pub delta_checkpoints: u64,
    /// Total encoded bytes persisted (full + delta).
    pub snapshot_bytes: u64,
    /// Total encoded delta bytes persisted.
    pub delta_bytes: u64,
    /// Encoded size of the most recent capture (full or delta).
    pub last_snapshot_bytes: u64,
    /// Encoded size of the most recent full snapshot.
    pub last_full_bytes: u64,
    /// Encoded size of the most recent delta.
    pub last_delta_bytes: u64,
    /// Largest delta persisted — the per-capture cost ceiling, bounded by
    /// churn per interval rather than by total state.
    pub max_delta_bytes: u64,
    /// Deltas currently chained onto the latest base.
    pub delta_chain_len: u64,
    /// Capture time of the most recent persisted capture.
    pub last_at: SimTime,
    /// Offset-commit batches issued by the coordinator.
    pub offset_commits: u64,
    /// Total accept-to-durable latency across all persisted captures, in
    /// nanoseconds (divide by `checkpoints` for the mean — the figure a
    /// replicated store's quorum round trips inflate).
    pub persist_nanos: u64,
    /// Sink transactions committed by the coordinator's commit phase.
    pub txn_commits: u64,
}

impl CheckpointStats {
    /// Folds another worker's counters into this one — the aggregation a
    /// parallel job's per-instance stats go through for its job-level
    /// report. Totals add; `last_*` follows the newer capture; maxima max.
    pub fn absorb(&mut self, other: &CheckpointStats) {
        self.checkpoints += other.checkpoints;
        self.full_checkpoints += other.full_checkpoints;
        self.delta_checkpoints += other.delta_checkpoints;
        self.snapshot_bytes += other.snapshot_bytes;
        self.delta_bytes += other.delta_bytes;
        if other.last_at >= self.last_at {
            self.last_at = other.last_at;
            self.last_snapshot_bytes = other.last_snapshot_bytes;
            self.last_full_bytes = other.last_full_bytes;
            self.last_delta_bytes = other.last_delta_bytes;
        }
        self.max_delta_bytes = self.max_delta_bytes.max(other.max_delta_bytes);
        self.delta_chain_len = self.delta_chain_len.max(other.delta_chain_len);
        self.offset_commits += other.offset_commits;
        self.persist_nanos += other.persist_nanos;
        self.txn_commits += other.txn_commits;
    }
}

/// How a worker recovered, for the run report's recovery metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// When the respawned worker started.
    pub restarted_at: SimTime,
    /// When state restoration completed (after any backend read round trip).
    pub restored_at: Option<SimTime>,
    /// Capture time of the newest restored chain element, if one existed.
    pub snapshot_taken_at: Option<SimTime>,
    /// Encoded bytes read back during restore (base + deltas).
    pub snapshot_bytes: u64,
    /// Deltas applied on top of the base during restore.
    pub delta_chain: u64,
    /// Completion time of the first post-restart batch with input — the end
    /// point of recovery latency.
    pub first_batch_at: Option<SimTime>,
}

/// Which kind of capture the coordinator wants next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureKind {
    /// A full base snapshot.
    Full,
    /// An incremental delta chained onto the current base.
    Delta,
}

#[derive(Debug)]
struct PendingCommit {
    offsets: Vec<(TopicPartition, Offset)>,
    /// Producer records that must be completed (acked or failed) before the
    /// commit may go out — the exactly-once output barrier.
    barrier: u64,
    /// The sink transaction to commit alongside the offsets (0 when the
    /// sink is not transactional).
    txn: u64,
}

struct PendingPersist {
    payload: CheckpointPayload,
    producer_sent: u64,
    bytes: u64,
    accepted_at: SimTime,
}

/// A recovery in flight: the chains of `names`, read one backend recovery
/// at a time (`read.chains.len()` is the index of the name being read).
struct Recovering {
    names: Vec<String>,
    read: Recovered,
    /// The restore reproduces exactly one stored chain, the worker's own,
    /// so the schedule may carry on from it.
    continues: bool,
}

/// Drives a worker's checkpoint schedule: interval timing, batch-boundary
/// alignment, full-vs-delta scheduling, the output barrier, persist
/// bookkeeping, and the offset-commit discipline of the configured
/// [`CheckpointMode`].
pub struct CheckpointCoordinator {
    cfg: CheckpointCfg,
    backend: DurableBackend,
    recover: bool,
    capture_requested: bool,
    /// A base snapshot has been persisted (deltas may chain onto it).
    has_base: bool,
    /// Deltas chained onto the current base.
    chain_len: u64,
    /// Offsets committed at the previous completed checkpoint (the lagging
    /// commit used by at-least-once mode).
    prev_offsets: Vec<(TopicPartition, Offset)>,
    pending_persist: Option<PendingPersist>,
    pending_commit: Option<PendingCommit>,
    recovering: Option<Recovering>,
    stats: CheckpointStats,
    /// `(accepted, durable)` instants of every persisted capture, in order
    /// — the checkpoint-latency series the replication figure plots.
    persist_log: Vec<(SimTime, SimTime)>,
    /// Telemetry sink (an unshared default until attached) and the scope —
    /// the owning worker's name — its samples are recorded under.
    tele: Telemetry,
    tele_scope: String,
}

impl CheckpointCoordinator {
    /// Creates a coordinator. `recover` makes the worker restore the
    /// latest chain before consuming (the respawn path).
    pub fn new(cfg: CheckpointCfg, backend: DurableBackend, recover: bool) -> Self {
        CheckpointCoordinator {
            cfg,
            backend,
            recover,
            capture_requested: false,
            has_base: false,
            chain_len: 0,
            prev_offsets: Vec::new(),
            pending_persist: None,
            pending_commit: None,
            recovering: None,
            stats: CheckpointStats::default(),
            persist_log: Vec::new(),
            tele: Telemetry::new(),
            tele_scope: String::new(),
        }
    }

    /// Attaches the run-wide telemetry sink; `scope` is the owning
    /// worker's name. Each persisted capture then records its duration and
    /// size histograms, a `checkpoints` counter, and a `checkpoint:persist`
    /// trace span.
    pub fn set_telemetry(&mut self, tele: Telemetry, scope: String) {
        self.tele = tele;
        self.tele_scope = scope;
    }

    /// The configured interval.
    pub fn interval(&self) -> SimDuration {
        self.cfg.interval
    }

    /// The configured mode.
    pub fn mode(&self) -> CheckpointMode {
        self.cfg.mode
    }

    /// Whether the worker must restore before consuming.
    pub fn wants_recovery(&self) -> bool {
        self.recover
    }

    /// Counters.
    pub fn stats(&self) -> CheckpointStats {
        self.stats
    }

    /// Marks that the interval elapsed; the worker calls
    /// [`should_capture`](Self::should_capture) at the next safe point.
    pub fn request_capture(&mut self) {
        self.capture_requested = true;
    }

    /// True when a capture is due and no prior checkpoint is still in
    /// flight (persist or commit pending applies backpressure).
    pub fn should_capture(&self) -> bool {
        self.capture_requested && self.pending_persist.is_none() && self.pending_commit.is_none()
    }

    /// Which kind of capture the next [`accept`](Self::accept) should carry:
    /// full before the first base and whenever the chain hit its cap (a
    /// zero cap: always) — delta otherwise.
    pub fn capture_kind(&self) -> CaptureKind {
        if !self.has_base || self.chain_len >= self.cfg.max_delta_chain as u64 {
            CaptureKind::Full
        } else {
            CaptureKind::Delta
        }
    }

    /// The `seq` the next delta capture must carry.
    pub fn next_delta_seq(&self) -> u64 {
        self.chain_len + 1
    }

    /// Accepts a capture built by the worker and begins persisting it.
    /// `producer_sent` is the worker's cumulative count of records handed to
    /// its sink producer before this capture — the exactly-once barrier.
    pub fn accept(
        &mut self,
        ctx: &mut Ctx<'_>,
        job: &str,
        payload: CheckpointPayload,
        producer_sent: u64,
    ) {
        self.capture_requested = false;
        let bytes = self.backend.persist(ctx, job, &payload);
        self.pending_persist = Some(PendingPersist {
            payload,
            producer_sent,
            bytes,
            accepted_at: ctx.now(),
        });
        // On the shared map the capture is durable already; on a store its
        // acks arrive through `on_store_rpc`.
        self.settle(ctx, job);
    }

    fn finish_persist(&mut self, persisted: PendingPersist, durable_at: SimTime) {
        let PendingPersist {
            payload,
            producer_sent,
            bytes,
            accepted_at,
        } = persisted;
        self.stats.checkpoints += 1;
        self.stats.snapshot_bytes += bytes;
        self.stats.last_snapshot_bytes = bytes;
        self.stats.last_at = payload.taken_at();
        self.stats.persist_nanos += durable_at.saturating_since(accepted_at).as_nanos();
        self.persist_log.push((accepted_at, durable_at));
        if !self.tele_scope.is_empty() {
            let scope = &self.tele_scope;
            self.tele.counter_add(scope, "checkpoints", 1);
            self.tele.observe_latency(
                scope,
                "checkpoint_duration_s",
                durable_at.saturating_since(accepted_at),
            );
            self.tele.observe_bytes(scope, "checkpoint_bytes", bytes);
            self.tele.trace_complete(
                accepted_at,
                durable_at.saturating_since(accepted_at),
                scope,
                "checkpoint:persist",
                "checkpoint",
            );
        }
        match &payload {
            CheckpointPayload::Full(_) => {
                self.stats.full_checkpoints += 1;
                self.stats.last_full_bytes = bytes;
                self.has_base = true;
                self.chain_len = 0;
            }
            CheckpointPayload::Delta(_) => {
                self.stats.delta_checkpoints += 1;
                self.stats.delta_bytes += bytes;
                self.stats.last_delta_bytes = bytes;
                self.stats.max_delta_bytes = self.stats.max_delta_bytes.max(bytes);
                self.chain_len += 1;
            }
        }
        self.stats.delta_chain_len = self.chain_len;
        let offsets = payload.offsets().to_vec();
        let txn = payload.txn_seq();
        match self.cfg.mode {
            CheckpointMode::ExactlyOnce => {
                // Commit the captured offsets once every pre-capture output
                // is acknowledged.
                self.pending_commit = Some(PendingCommit {
                    offsets: offsets.clone(),
                    barrier: producer_sent,
                    txn,
                });
                self.prev_offsets = offsets;
            }
            CheckpointMode::AtLeastOnce => {
                // Commit the previous checkpoint's offsets: the broker's
                // committed position deliberately trails the state.
                let lagging = std::mem::replace(&mut self.prev_offsets, offsets);
                if !lagging.is_empty() {
                    self.pending_commit = Some(PendingCommit {
                        offsets: lagging,
                        barrier: 0,
                        txn: 0,
                    });
                }
            }
        }
    }

    /// The sink transaction the pending commit would flip, when one is
    /// waiting (0 means the capture was not transactional).
    pub fn pending_commit_txn(&self) -> Option<u64> {
        self.pending_commit.as_ref().map(|p| p.txn)
    }

    /// `(accepted, durable)` instants of every persisted capture so far.
    pub fn persist_log(&self) -> &[(SimTime, SimTime)] {
        &self.persist_log
    }

    /// Counts a sink-transaction commit issued by the worker.
    pub fn note_txn_commit(&mut self) {
        self.stats.txn_commits += 1;
    }

    /// Returns the offsets to commit once `producer_completed` (records
    /// acked or failed by the sink producer) satisfies the barrier.
    pub fn take_ready_commit(
        &mut self,
        producer_completed: u64,
    ) -> Option<Vec<(TopicPartition, Offset)>> {
        if self
            .pending_commit
            .as_ref()
            .is_some_and(|p| producer_completed >= p.barrier)
        {
            let commit = self.pending_commit.take().expect("just checked");
            self.stats.offset_commits += 1;
            Some(commit.offsets)
        } else {
            None
        }
    }

    /// Begins the recovery of a worker named `job`, one of `parallelism`
    /// instances of its stage: reads the chain of every name in `names` —
    /// the old instances whose keys the worker may now own; its own name
    /// alone for a non-parallel job — one backend recovery at a time.
    /// Returns the chains when they are all read already (the shared map);
    /// otherwise they arrive through [`on_store_rpc`](Self::on_store_rpc)
    /// as [`StoreRpcOutcome::Recovered`].
    ///
    /// The schedule continues a restored chain (the next capture may be a
    /// delta extending it) only when the restore reproduces that stored
    /// chain exactly: the stage's single instance reading one chain, its
    /// own. Any other restore assembles state that matches no stored chain,
    /// so the first capture after it is a full re-base.
    ///
    /// # Panics
    ///
    /// Panics if `names` is empty.
    pub fn start_recovery(
        &mut self,
        ctx: &mut Ctx<'_>,
        job: &str,
        names: Vec<String>,
        parallelism: u32,
    ) -> Option<Recovered> {
        assert!(!names.is_empty(), "a recovery reads at least one chain");
        self.backend.recover(ctx, &names[0]);
        self.recovering = Some(Recovering {
            continues: parallelism == 1 && names == [job],
            names,
            read: Recovered::default(),
        });
        match self.settle(ctx, job) {
            StoreRpcOutcome::Recovered(recovered) => Some(recovered),
            _ => None,
        }
    }

    /// Folds what the backend has finished into the schedule: a durable
    /// capture completes the pending persist, a chain read moves the
    /// recovery on to its next name. Run wherever the backend may have
    /// finished something — after a store reply, and after a persist or a
    /// recovery began, which on the shared map is already its end.
    fn settle(&mut self, ctx: &mut Ctx<'_>, job: &str) -> StoreRpcOutcome {
        loop {
            // During a recovery the backend is reading the chain of one of
            // the requested names; blob keys derive from that name, which
            // need not be the restoring worker's own.
            let reading = (self.recovering.as_ref())
                .and_then(|r| r.names.get(r.read.chains.len()))
                .map_or(job, String::as_str);
            let one = match self.backend.settle(ctx, reading) {
                StoreRpcOutcome::Recovered(one) => one,
                StoreRpcOutcome::PersistCompleted => {
                    if let Some(p) = self.pending_persist.take() {
                        self.finish_persist(p, ctx.now());
                    }
                    return StoreRpcOutcome::PersistCompleted;
                }
                StoreRpcOutcome::NotMine => return StoreRpcOutcome::NotMine,
            };
            let Some(r) = self.recovering.as_mut() else {
                return StoreRpcOutcome::NotMine;
            };
            r.read.chains.extend(one.chains);
            r.read.bytes += one.bytes;
            match r.names.get(r.read.chains.len()) {
                Some(next) => self.backend.recover(ctx, next),
                None => break,
            }
        }
        let Some(r) = self.recovering.take() else {
            return StoreRpcOutcome::NotMine;
        };
        if let ([Some(chain)], true) = (r.read.chains.as_slice(), r.continues) {
            self.has_base = true;
            self.chain_len = chain.chain_len();
            self.stats.delta_chain_len = self.chain_len;
        }
        StoreRpcOutcome::Recovered(r.read)
    }

    /// Routes a store RPC to the backend's pending persist/recover
    /// bookkeeping. Returns the restored chains when a pending recovery
    /// completed.
    pub fn on_store_rpc(&mut self, ctx: &mut Ctx<'_>, job: &str, rpc: StoreRpc) -> StoreRpcOutcome {
        self.backend.blobs.on_reply(rpc);
        self.settle(ctx, job)
    }

    /// Takes a timer that is none of the worker's own: the backend's blob
    /// client's retry timer, if anything.
    pub(crate) fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        self.backend.blobs.on_timer(ctx, tag);
    }

    /// Seeds the lagging-commit baseline after a restore, so the first
    /// post-recovery checkpoint commits positions at or after the restored
    /// chain.
    pub fn seed_prev_offsets(&mut self, offsets: Vec<(TopicPartition, Offset)>) {
        self.prev_offsets = offsets;
    }
}

impl std::fmt::Debug for CheckpointCoordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointCoordinator")
            .field("mode", &self.cfg.mode)
            .field("interval", &self.cfg.interval)
            .field("max_delta_chain", &self.cfg.max_delta_chain)
            .field("chain_len", &self.chain_len)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2g_store::blob_map;

    fn sample_snapshot() -> StateSnapshot {
        StateSnapshot {
            taken_at: SimTime::from_millis(1234),
            plan_state: vec![
                None,
                Some(Value::map([("a", Value::Int(3))])),
                Some(Value::List(vec![Value::Str("x".into())])),
            ],
            records_in: 17,
            records_out: 9,
            buffer: vec![
                Event::new(Value::Str("pending".into()), SimTime::from_millis(1200)).with_key("k"),
            ],
            offsets: vec![
                (TopicPartition::new("raw", 0), Offset(41)),
                (TopicPartition::new("raw", 1), Offset(7)),
            ],
            txn_seq: 3,
        }
    }

    fn sample_delta(seq: u64) -> StateDelta {
        StateDelta {
            taken_at: SimTime::from_millis(2000 + seq),
            seq,
            plan_delta: vec![
                None,
                Some(Value::map([("set", Value::Map(Default::default()))])),
            ],
            records_in: 20 + seq,
            records_out: 11,
            buffer: Vec::new(),
            offsets: vec![(TopicPartition::new("raw", 0), Offset(44 + seq))],
            txn_seq: 3 + seq,
        }
    }

    /// Runs `f` inside a one-shot harness process so backend calls get a
    /// real `Ctx`.
    fn with_ctx(f: impl FnOnce(&mut Ctx<'_>) + 'static) {
        struct Harness {
            #[allow(clippy::type_complexity)]
            f: Option<Box<dyn FnOnce(&mut Ctx<'_>)>>,
        }
        impl s2g_sim::Process for Harness {
            fn name(&self) -> &str {
                "harness"
            }
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                (self.f.take().unwrap())(ctx);
            }
            fn on_message(
                &mut self,
                _: &mut Ctx<'_>,
                _: s2g_sim::ProcessId,
                _: Box<dyn s2g_sim::Message>,
            ) {
            }
        }
        let mut sim = s2g_sim::Sim::new(0);
        sim.spawn(Box::new(Harness {
            f: Some(Box::new(f)),
        }));
        sim.run_to_completion();
    }

    #[test]
    fn snapshot_round_trips_through_bytes() {
        let snap = sample_snapshot();
        let back = StateSnapshot::from_bytes(&snap.to_bytes()).expect("round trip");
        assert_eq!(back, snap);
    }

    #[test]
    fn delta_round_trips_through_bytes() {
        let delta = sample_delta(3);
        let back = StateDelta::from_bytes(&delta.to_bytes()).expect("round trip");
        assert_eq!(back, delta);
        assert!(StateDelta::from_bytes(&[9, 9]).is_err());
    }

    #[test]
    fn snapshot_rejects_garbage() {
        assert!(StateSnapshot::from_bytes(&[1, 2, 3]).is_err());
        assert!(StateSnapshot::from_value(&Value::Int(4)).is_none());
        // A capture with any field missing is malformed: an error, no panic.
        for missing in ["txn", "offsets"] {
            for mut capture in [sample_snapshot().to_value(), sample_delta(1).to_value()] {
                let Value::Map(fields) = &mut capture else {
                    panic!("captures encode as maps");
                };
                assert!(fields.remove(missing).is_some());
                let bytes = capture.encode();
                assert!(StateSnapshot::from_bytes(&bytes).is_err(), "{missing}");
                assert!(StateDelta::from_bytes(&bytes).is_err(), "{missing}");
            }
        }
    }

    #[test]
    fn event_value_round_trip_preserves_source() {
        let mut e = Event::new(Value::Int(5), SimTime::from_millis(10)).with_key("kk");
        e.source = 1;
        let back = event_from_value(&event_to_value(&e)).expect("round trip");
        assert_eq!(back, e);
    }

    #[test]
    fn chain_tail_accessors_prefer_the_newest_delta() {
        let mut chain = SnapshotChain::new(sample_snapshot());
        assert_eq!(chain.chain_len(), 0);
        assert_eq!(chain.record_counts(), (17, 9));
        chain.deltas.push(sample_delta(1));
        chain.deltas.push(sample_delta(2));
        assert_eq!(chain.chain_len(), 2);
        assert_eq!(chain.record_counts(), (22, 11));
        assert_eq!(chain.taken_at(), SimTime::from_millis(2002));
        assert_eq!(chain.offsets()[0].1, Offset(46));
    }

    /// What a fresh backend over `map` recovers as the chain of "job": how
    /// the tests read what a coordinator persisted.
    fn recover_job(ctx: &mut Ctx<'_>, map: &BlobMap) -> (Option<SnapshotChain>, u64) {
        let mut backend = DurableBackend::shared(map.clone());
        backend.recover(ctx, "job");
        match backend.settle(ctx, "job") {
            StoreRpcOutcome::Recovered(mut read) => (read.chains.pop().unwrap(), read.bytes),
            other => panic!("the shared map answers at once, got {other:?}"),
        }
    }

    #[test]
    fn exactly_once_commit_waits_for_barrier() {
        let map = blob_map();
        let coord_map = map.clone();
        with_ctx(move |ctx| {
            let mut coord = CheckpointCoordinator::new(
                CheckpointCfg::exactly_once(SimDuration::from_secs(1)),
                DurableBackend::shared(coord_map.clone()),
                false,
            );
            coord.request_capture();
            assert!(coord.should_capture());
            assert_eq!(coord.capture_kind(), CaptureKind::Full);
            let snap = sample_snapshot();
            coord.accept(ctx, "job", CheckpointPayload::Full(snap.clone()), 5);
            // On the shared map the capture is durable when `accept` returns.
            let (chain, bytes) = recover_job(ctx, &coord_map);
            assert_eq!(chain.map(|c| c.base), Some(snap.clone()));
            assert_eq!(bytes, snap.to_bytes().len() as u64);
            // Barrier of 5 sent records: 4 completions are not enough.
            assert!(coord.take_ready_commit(4).is_none());
            let commit = coord.take_ready_commit(5).expect("barrier satisfied");
            assert_eq!(commit, snap.offsets);
            assert!(coord.take_ready_commit(100).is_none(), "commit is one-shot");
            assert_eq!(coord.stats().checkpoints, 1);
            assert_eq!(coord.stats().full_checkpoints, 1);
            assert_eq!(coord.stats().snapshot_bytes, bytes);
        });
        assert!(!map.borrow().is_empty());
    }

    #[test]
    fn at_least_once_commits_lagging_offsets() {
        with_ctx(|ctx| {
            let mut coord = CheckpointCoordinator::new(
                CheckpointCfg::at_least_once(SimDuration::from_secs(1)),
                DurableBackend::shared(blob_map()),
                false,
            );
            let mut snap1 = sample_snapshot();
            snap1.offsets = vec![(TopicPartition::new("raw", 0), Offset(10))];
            coord.accept(ctx, "job", CheckpointPayload::Full(snap1), 0);
            // First checkpoint has no predecessor: nothing to commit.
            assert!(coord.take_ready_commit(0).is_none());
            let mut snap2 = sample_snapshot();
            snap2.offsets = vec![(TopicPartition::new("raw", 0), Offset(25))];
            coord.accept(ctx, "job", CheckpointPayload::Full(snap2), 0);
            // Second checkpoint commits the first's offsets.
            let commit = coord.take_ready_commit(0).expect("lagging commit");
            assert_eq!(commit, vec![(TopicPartition::new("raw", 0), Offset(10))]);
        });
    }

    #[test]
    fn incremental_schedule_rebases_at_the_chain_cap() {
        with_ctx(move |ctx| {
            let map = blob_map();
            let cfg = CheckpointCfg::exactly_once(SimDuration::from_secs(1)).incremental(2);
            let mut coord =
                CheckpointCoordinator::new(cfg, DurableBackend::shared(map.clone()), false);
            // No base yet: the first capture is full.
            assert_eq!(coord.capture_kind(), CaptureKind::Full);
            coord.accept(ctx, "job", CheckpointPayload::Full(sample_snapshot()), 0);
            let _ = coord.take_ready_commit(u64::MAX);
            // Two deltas fit under the cap of 2.
            for seq in 1..=2 {
                assert_eq!(coord.capture_kind(), CaptureKind::Delta);
                assert_eq!(coord.next_delta_seq(), seq);
                coord.accept(ctx, "job", CheckpointPayload::Delta(sample_delta(seq)), 0);
                let _ = coord.take_ready_commit(u64::MAX);
            }
            assert_eq!(recover_job(ctx, &map).0.map(|c| c.chain_len()), Some(2));
            // The cap forces a re-base.
            assert_eq!(coord.capture_kind(), CaptureKind::Full);
            coord.accept(ctx, "job", CheckpointPayload::Full(sample_snapshot()), 0);
            let stats = coord.stats();
            assert_eq!(stats.full_checkpoints, 2);
            assert_eq!(stats.delta_checkpoints, 2);
            assert_eq!(stats.delta_chain_len, 0, "re-base reset the chain");
            assert!(stats.delta_bytes > 0);
            // The store's current chain is the fresh one (base only).
            assert_eq!(recover_job(ctx, &map).0.map(|c| c.chain_len()), Some(0));
        });
    }

    #[test]
    fn in_memory_recovery_returns_the_chain() {
        with_ctx(move |ctx| {
            let map = blob_map();
            let backend = || DurableBackend::shared(map.clone());
            let cfg = CheckpointCfg::exactly_once(SimDuration::from_secs(1)).incremental(8);
            let mut coord = CheckpointCoordinator::new(cfg, backend(), false);
            coord.accept(ctx, "job", CheckpointPayload::Full(sample_snapshot()), 0);
            let _ = coord.take_ready_commit(u64::MAX);
            coord.accept(ctx, "job", CheckpointPayload::Delta(sample_delta(1)), 0);
            let _ = coord.take_ready_commit(u64::MAX);
            let mut rec = CheckpointCoordinator::new(cfg, backend(), true);
            let recovered = rec.start_recovery(ctx, "job", vec!["job".into()], 1);
            match recovered.as_ref().map(|r| r.chains.as_slice()) {
                Some([Some(chain)]) => {
                    assert_eq!(chain.chain_len(), 1);
                    assert_eq!(chain.record_counts(), (21, 11));
                    // What a restore read: the capture blobs, no manifest.
                    let blobs =
                        sample_snapshot().to_bytes().len() + sample_delta(1).to_bytes().len();
                    assert_eq!(recovered.as_ref().unwrap().bytes, blobs as u64);
                    assert_eq!(coord.stats().snapshot_bytes, blobs as u64);
                }
                other => panic!("expected one restored chain, got {other:?}"),
            }
            // The worker's own chain, read alone, seeds the schedule: the
            // next capture extends it.
            assert_eq!(rec.capture_kind(), CaptureKind::Delta);
            assert_eq!(rec.next_delta_seq(), 2);
            // The same chain read as one of two instances' (a 1→2 rescale
            // keeps only part of its keys) or beside another re-bases.
            for (names, parallelism) in [(vec!["job"], 2), (vec!["job", "other"], 1)] {
                let mut rec = CheckpointCoordinator::new(cfg, backend(), true);
                let names = names.into_iter().map(String::from).collect();
                let recovered = rec.start_recovery(ctx, "job", names, parallelism);
                assert!(recovered.is_some_and(|r| r.chains[0].is_some()));
                assert_eq!(rec.capture_kind(), CaptureKind::Full);
            }
        });
    }

    /// Persists `todo` one capture at a time through `backend`, then
    /// recovers "job" through `fresh`: what a worker and its respawn do,
    /// without the worker.
    struct MediumDriver {
        backend: DurableBackend,
        fresh: Option<DurableBackend>,
        todo: std::collections::VecDeque<CheckpointPayload>,
        read: Option<Recovered>,
    }

    impl MediumDriver {
        /// Moves on for as long as steps finish (on the shared map, all of
        /// them at once).
        fn advance(&mut self, ctx: &mut Ctx<'_>, mut outcome: StoreRpcOutcome) {
            loop {
                match outcome {
                    StoreRpcOutcome::NotMine => return,
                    StoreRpcOutcome::Recovered(read) => return self.read = Some(read),
                    StoreRpcOutcome::PersistCompleted => {}
                }
                if let Some(payload) = self.todo.pop_front() {
                    self.backend.persist(ctx, "job", &payload);
                } else {
                    self.backend = self.fresh.take().expect("one recovery");
                    self.backend.recover(ctx, "job");
                }
                outcome = self.backend.settle(ctx, "job");
            }
        }
    }

    impl s2g_sim::Process for MediumDriver {
        fn name(&self) -> &str {
            "medium-driver"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.advance(ctx, StoreRpcOutcome::PersistCompleted);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _: ProcessId, msg: Box<dyn s2g_sim::Message>) {
            if let Ok(rpc) = s2g_sim::downcast::<StoreRpc>(msg) {
                let outcome = self.backend.on_store_rpc(ctx, "job", *rpc);
                self.advance(ctx, outcome);
            }
        }
    }

    #[test]
    fn both_media_keep_and_recover_the_same_blobs() {
        use s2g_store::{StoreConfig, StoreServer};
        let base2 = StateSnapshot {
            records_in: 99,
            ..sample_snapshot()
        };
        let captures = [
            CheckpointPayload::Full(sample_snapshot()),
            CheckpointPayload::Delta(sample_delta(1)),
            CheckpointPayload::Delta(sample_delta(2)),
            CheckpointPayload::Full(base2.clone()),
            CheckpointPayload::Delta(sample_delta(1)),
        ];
        let mut sim = s2g_sim::Sim::new(0);
        let store = sim.spawn(Box::new(StoreServer::new(StoreConfig::default())));
        let map = blob_map();
        let media = [
            (
                DurableBackend::shared(map.clone()),
                DurableBackend::shared(map.clone()),
            ),
            (
                DurableBackend::new(vec![store], 0),
                DurableBackend::new(vec![store], 1),
            ),
        ];
        let drivers = media.map(|(backend, fresh)| {
            sim.spawn(Box::new(MediumDriver {
                backend,
                fresh: Some(fresh),
                todo: captures.iter().cloned().collect(),
                read: None,
            }))
        });
        // Not to completion: the store's background tick re-arms forever.
        sim.run_until(SimTime::from_secs(5));
        let [on_map, on_store] = drivers.map(|pid| {
            let driver = sim.process_mut::<MediumDriver>(pid).expect("driver");
            driver.read.take().expect("recovery finished")
        });
        // Equal chains: the current one, base′ + Δ1.
        let current = SnapshotChain {
            base: base2.clone(),
            deltas: vec![sample_delta(1)],
        };
        assert_eq!(on_map.chains, vec![Some(current)]);
        assert_eq!(on_store.chains, on_map.chains);
        // Equal restored bytes: the two capture blobs read, no manifest.
        let blobs = base2.to_bytes().len() + sample_delta(1).to_bytes().len();
        assert_eq!((on_map.bytes, on_store.bytes), (blobs as u64, blobs as u64));
        // Equal contents: the manifest and the current chain. Each medium
        // dropped chain 1 once its manifest pointed at chain 2.
        let server = sim.process_ref::<StoreServer>(store).expect("store");
        let stored: Vec<(String, Vec<u8>)> = (server.kv().entries())
            .map(|(key, value)| (key.clone(), value.to_vec()))
            .collect();
        let mapped: Vec<(String, Vec<u8>)> = (map.borrow().iter())
            .map(|(key, value)| (key.clone(), value.clone()))
            .collect();
        assert_eq!(stored, mapped);
        let keys: Vec<&str> = mapped.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(keys, ["ckpt/job", "ckpt/job/2/1", "ckpt/job/2/base"]);
    }
}
