//! The data-store server process (`storeType` node attribute).
//!
//! Hosts a [`KvStore`] and a [`TableStore`] behind an RPC interface, charges
//! CPU per operation, and reports resident bytes to the memory ledger —
//! exactly the role MySQL plays on its own node in the paper's pipelines.
//!
//! Beyond application sinks, the KV half doubles as the durability tier for
//! the fault-tolerance subsystems: SPE checkpoints persist snapshots under
//! `ckpt/<job>` keys (`s2g_spe`'s `DurableBackend`), and durable broker
//! logs persist segments and meta blobs under `brokerlog/<broker>/...`
//! keys (`s2g_broker::Broker::set_durability`) — both through a
//! [`BlobClient`](crate::BlobClient), paying this server's CPU cost and
//! the network path to reach it.
//!
//! # Replication
//!
//! A standalone store is a single point of failure: crash it and every
//! checkpoint and broker-log blob is gone, silently voiding the guarantees
//! built on top. [`StoreServer::set_group`] turns N servers into a
//! **store group**: one primary appends every mutation
//! (`Put`/`Delete`/`Insert`) to the group's operation log and acknowledges
//! the client only once a majority holds it, so an acknowledged write
//! survives any minority of store crashes.
//!
//! The group runs on [`s2g_sim::Quorum`], the replicated log the KRaft
//! quorum runs on too, and speaks its protocol, [`QuorumRpc`]: its election
//! and its pulled op log. The primary is elected by vote; the group epoch
//! is the election term, and each op-log entry carries the term it was
//! written in. A member votes once per term, for a candidate whose (last
//! entry term, applied sequence) is at least its own; a member still
//! recovering from a restart votes for nobody. Member 0 leads term 0 at
//! boot, so a group without faults holds no election.
//!
//! Followers pull. Each keeps exactly one fetch outstanding at the primary,
//! naming where its log ends: `after` and the term of that entry. Under the
//! primary's own term, `after` also acknowledges every op up to it. The
//! primary answers at once with the ops after `after`, or holds a fetch
//! with nothing newer until its next append, and answers it empty after
//! `group_heartbeat_interval`, so its replies are its heartbeats; each
//! carries its truncation floor. A follower whose replies stop for an
//! election timeout (`group_session_timeout` plus up to one heartbeat
//! interval, drawn at random) stands for election, and a primary that no
//! majority has fetched from for a session timeout steps down. A member
//! that knows no primary sends its fetch to every peer, and the primary
//! answers it. A member recovering from a restart is answered by every
//! peer and takes the freshest state it is sent (see
//! [`StoreServer::set_group`]).
//!
//! What only the store does stays here: an op applies to the stores as it
//! arrives; a fetch below the primary's truncated log start, or whose tail
//! diverges from its log, is answered with its full [`StateTransfer`], so
//! the fetcher is wiped and refetched in one reply; the primary truncates
//! what every live member holds; and the client acks. Non-primary members
//! proxy client requests to the primary, so a
//! [`BlobClient`](crate::BlobClient) that rotates endpoints on timeout
//! reaches the group through any live member.

use std::collections::BTreeMap;

use bytes::Bytes;
use s2g_sim::{
    downcast, Ctx, Entry, LedgerHandle, MemSlot, Message, Owner, Process, ProcessId, Quorum,
    QuorumRpc, SimDuration, SimTime, Taken,
};
use s2g_telemetry::{GaugeHandle, Telemetry};

use crate::kv::KvStore;
use crate::table::{TableError, TableStore};

/// One replicated store mutation — the unit of the group's operation log.
#[derive(Debug, Clone)]
pub enum StoreOp {
    /// Write a KV pair.
    Put {
        /// Key.
        key: String,
        /// Value bytes: the client's buffer, shared by every op log, fetch
        /// reply and map that holds the value.
        value: Bytes,
    },
    /// Remove a key.
    Delete {
        /// Key.
        key: String,
    },
    /// Insert a row (auto-creating the table on first insert).
    Insert {
        /// Table name.
        table: String,
        /// Row cells.
        row: Vec<String>,
    },
}

impl StoreOp {
    /// Approximate size of the op when replicated or synced.
    fn bytes(&self) -> usize {
        1 + match self {
            StoreOp::Put { key, value } => key.len() + value.len(),
            StoreOp::Delete { key } => key.len(),
            StoreOp::Insert { table, row } => {
                table.len() + row.iter().map(String::len).sum::<usize>()
            }
        }
    }
}

/// RPCs understood by the store server.
#[derive(Debug, Clone)]
pub enum StoreRpc {
    /// Write a KV pair.
    Put {
        /// Request id for the ack.
        corr: u64,
        /// Key.
        key: String,
        /// Value bytes.
        value: Bytes,
    },
    /// Ack for a put.
    PutAck {
        /// Request id.
        corr: u64,
    },
    /// Read a key.
    Get {
        /// Request id.
        corr: u64,
        /// Key.
        key: String,
    },
    /// Reply to a get.
    GetResult {
        /// Request id.
        corr: u64,
        /// The value, if present: the stored buffer itself.
        value: Option<Bytes>,
    },
    /// Remove a key. A [`BlobClient`](crate::BlobClient) sends it for blobs
    /// nothing references any more: the broker's dead log segments and the
    /// checkpoint chain a re-base superseded.
    Delete {
        /// Request id.
        corr: u64,
        /// Key.
        key: String,
    },
    /// Ack for a delete.
    DeleteAck {
        /// Request id.
        corr: u64,
        /// Whether the key existed.
        existed: bool,
    },
    /// Insert a row into a table (auto-creates the table with generic
    /// column names on first insert).
    Insert {
        /// Request id.
        corr: u64,
        /// Table name.
        table: String,
        /// Row cells.
        row: Vec<String>,
    },
    /// Ack for an insert.
    InsertAck {
        /// Request id.
        corr: u64,
        /// Whether the insert succeeded.
        ok: bool,
    },
    /// A non-primary group member proxies a client request to the primary,
    /// which replies directly to the original requester.
    Forward {
        /// The client the primary should answer.
        origin: ProcessId,
        /// The proxied request.
        rpc: Box<StoreRpc>,
    },
}

/// A full-state transfer for group resync below the truncated log start.
#[derive(Debug, Clone, Default)]
pub struct StateTransfer {
    /// Every KV pair, each value the responder's stored buffer.
    pub kv: Vec<(String, Bytes)>,
    /// Every table as `(name, columns, rows)`.
    pub tables: Vec<(String, Vec<String>, Vec<Vec<String>>)>,
}

impl StateTransfer {
    /// Approximate wire size of the transfer, with the term of the last op
    /// it holds, which its answer carries beside it.
    fn wire_size(&self) -> usize {
        8 + self
            .kv
            .iter()
            .map(|(k, v)| k.len() + v.len() + 8)
            .sum::<usize>()
            + self
                .tables
                .iter()
                .map(|(n, cols, rows)| {
                    n.len()
                        + cols.iter().map(String::len).sum::<usize>()
                        + rows
                            .iter()
                            .map(|r| r.iter().map(String::len).sum::<usize>() + 4)
                            .sum::<usize>()
                })
                .sum::<usize>()
    }
}

impl Message for StoreRpc {
    fn wire_size(&self) -> usize {
        38 + match self {
            StoreRpc::Put { key, value, .. } => key.len() + value.len(),
            StoreRpc::PutAck { .. } => 8,
            StoreRpc::Get { key, .. } => key.len(),
            StoreRpc::GetResult { value, .. } => 8 + value.as_ref().map_or(0, Bytes::len),
            StoreRpc::Delete { key, .. } => key.len(),
            StoreRpc::DeleteAck { .. } => 9,
            StoreRpc::Insert { table, row, .. } => {
                table.len() + row.iter().map(String::len).sum::<usize>()
            }
            StoreRpc::InsertAck { .. } => 9,
            StoreRpc::Forward { rpc, .. } => 8 + rpc.wire_size(),
        }
    }
}

/// An op in the group's log: a fetch that does not match the log is
/// answered with a [`StateTransfer`].
impl Entry for StoreOp {
    type State = StateTransfer;
    const HEADERS: [usize; 4] = [38 + 36, 38 + 13, 38 + 37, 38 + 29];
    fn wire_size(&self) -> usize {
        8 + self.bytes()
    }
    fn state_size(state: &StateTransfer) -> usize {
        state.wire_size()
    }
}

/// Store server tunables (the `storeCfg` YAML file).
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// CPU cost per operation.
    pub cpu_per_op: SimDuration,
    /// One-time startup CPU cost.
    pub startup_cpu: SimDuration,
    /// Background churn per interval.
    pub background_cpu: SimDuration,
    /// Background churn period.
    pub background_interval: SimDuration,
    /// How long the group's primary holds a follower's fetch with nothing
    /// to send before it answers it empty: the primary's heartbeat. Also
    /// how often each member re-sends a fetch left unanswered for this
    /// long, and the most the election timeout's random part adds.
    pub group_heartbeat_interval: SimDuration,
    /// The election timeout's base. A follower that hears no reply from
    /// the primary for this long plus a random part of up to one heartbeat
    /// interval stands for election; a primary that no majority has
    /// fetched from for this long steps down; and a member silent for this
    /// long no longer holds back the primary's truncation floor.
    pub group_session_timeout: SimDuration,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            cpu_per_op: SimDuration::from_micros(40),
            startup_cpu: SimDuration::from_millis(800),
            background_cpu: SimDuration::from_millis(3),
            background_interval: SimDuration::from_millis(100),
            group_heartbeat_interval: SimDuration::from_millis(250),
            group_session_timeout: SimDuration::from_millis(1_200),
        }
    }
}

mod tags {
    pub(crate) const BACKGROUND_TICK: u64 = 1;
    pub(crate) const GROUP_TICK: u64 = 3;
    pub(crate) const HOLD_EXPIRY: u64 = 4;
    pub(crate) const ELECTION: u64 = 5;
}

/// Recovery metrics for one restarted store-group member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreRecoveryInfo {
    /// When the respawned member started.
    pub restarted_at: SimTime,
    /// When the member finished syncing the op log and resumed serving.
    pub resynced_at: Option<SimTime>,
    /// Ops pulled from a peer during catch-up.
    pub sync_ops: u64,
    /// Approximate bytes transferred during catch-up.
    pub sync_bytes: u64,
}

/// A mutation the primary applied, awaiting a majority that holds it.
#[derive(Debug)]
struct PendingWrite {
    client: ProcessId,
    ack: StoreRpc,
}

/// Group-membership state of one replicated store member.
#[derive(Debug)]
struct GroupState {
    /// The election, the op log and the group's protocol: op `seq` is log
    /// index `seq`, and the group epoch is the term. The primary truncates
    /// the prefix every live member holds, and followers truncate to the
    /// primary's floor; a member needing older history is brought back by
    /// a full [`StateTransfer`] instead of replay.
    q: Quorum<StoreOp>,
    /// While primary: writes awaiting quorum, keyed by seq.
    pending_writes: BTreeMap<u64, PendingWrite>,
}

impl GroupState {
    /// Acks every pending write a majority now holds, the primary's own
    /// progress counted with every peer's.
    fn ack_held(&mut self, ctx: &mut Ctx<'_>, cpu_per_op: SimDuration) {
        if self.pending_writes.is_empty() {
            return;
        }
        let Some(held) = self.q.majority_held() else {
            return;
        };
        let waiting = self.pending_writes.split_off(&(held + 1));
        let acked = std::mem::replace(&mut self.pending_writes, waiting);
        for w in acked.into_values() {
            ctx.send_after_cpu(cpu_per_op, w.client, w.ack);
        }
    }
}

/// What the op log means to the group: ops that apply to the stores as
/// they arrive.
impl Owner<StoreOp> for Stores {
    /// Everything held, as of the log end.
    fn fallback(&self, q: &Quorum<StoreOp>) -> (u64, StateTransfer) {
        (q.log_end(), self.snapshot())
    }

    /// A fetch that counts as progress lets the primary truncate the prefix
    /// that it and every live member hold; its answers carry the floor.
    fn took_fetch(&mut self, ctx: &mut Ctx<'_>, q: &mut Quorum<StoreOp>, current: bool) {
        if current {
            q.compact(ctx.now());
        }
    }

    fn install(&mut self, q: &Quorum<StoreOp>, snap: StateTransfer) {
        let rows: usize = snap.tables.iter().map(|(_, _, rows)| rows.len()).sum();
        self.synced(q, snap.kv.len() + rows, snap.wire_size());
        self.install(snap);
    }

    fn receive(&mut self, q: &Quorum<StoreOp>, op: &StoreOp) {
        self.apply(op);
        self.synced(q, 1, op.bytes());
    }
}

/// The KV and table stores, the ledger slot their bytes go to, and, in a
/// member that rejoined its group, what it pulled into them.
struct Stores {
    kv: KvStore,
    tables: TableStore,
    mem: Option<(LedgerHandle, MemSlot)>,
    recovery: Option<StoreRecoveryInfo>,
}

impl Stores {
    /// Counts `ops` and `bytes` pulled while rejoining.
    fn synced(&mut self, q: &Quorum<StoreOp>, ops: usize, bytes: usize) {
        if let Some(r) = self.recovery.as_mut().filter(|_| !q.ready()) {
            r.sync_ops += ops as u64;
            r.sync_bytes += bytes as u64;
        }
    }

    fn update_mem(&self) {
        if let Some((ledger, slot)) = &self.mem {
            let bytes = (self.kv.resident_bytes() + self.tables.resident_bytes()) as u64;
            ledger.borrow_mut().set_dynamic(*slot, bytes);
        }
    }

    /// Applies one mutation. `Insert` races (a duplicate `CreateTable`
    /// behind a lost-RPC retry) are tolerated: an already-existing table is
    /// simply inserted into instead of panicking.
    fn apply(&mut self, op: &StoreOp) -> StoreRpcOutcomeBits {
        let mut bits = StoreRpcOutcomeBits {
            existed: false,
            ok: true,
        };
        match op {
            StoreOp::Put { key, value } => {
                self.kv.put(key.clone(), value.clone());
            }
            StoreOp::Delete { key } => {
                bits.existed = self.kv.delete(key).is_some();
            }
            StoreOp::Insert { table, row } => {
                if !self.tables.has_table(table) {
                    let cols: Vec<String> = (0..row.len()).map(|i| format!("c{i}")).collect();
                    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
                    match self.tables.create_table(table, &col_refs) {
                        // `AlreadyExists` is not a bug: a duplicate
                        // `CreateTable` can race a lost-RPC retry; fall
                        // through to the insert either way.
                        Ok(()) | Err(TableError::TableExists(_)) => {}
                        Err(_) => {
                            bits.ok = false;
                            return bits;
                        }
                    }
                }
                bits.ok = self.tables.insert(table, row.clone()).is_ok();
            }
        }
        self.update_mem();
        bits
    }

    /// Everything held. Each value is the map's buffer, shared: the
    /// transfer copies keys, not blobs.
    fn snapshot(&self) -> StateTransfer {
        StateTransfer {
            kv: (self.kv.entries())
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            tables: self.tables.dump(),
        }
    }

    /// Replaces everything held with `snap`.
    fn install(&mut self, snap: StateTransfer) {
        self.kv = KvStore::new();
        self.tables = TableStore::new();
        for (k, v) in snap.kv {
            self.kv.put(k, v);
        }
        for (name, cols, rows) in snap.tables {
            let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
            let _ = self.tables.create_table(&name, &col_refs);
            for row in rows {
                let _ = self.tables.insert(&name, row);
            }
        }
        self.update_mem();
    }
}

/// The store server process.
pub struct StoreServer {
    cfg: StoreConfig,
    db: Stores,
    group: Option<GroupState>,
    name: String,
    /// Telemetry sink (an unshared default until the orchestrator attaches
    /// the run-wide one), and the op-log gauges made in it under `name`.
    tele: Telemetry,
    oplog_len_gauge: GaugeHandle,
    applied_seq_gauge: GaugeHandle,
}

impl StoreServer {
    /// Creates a store server.
    pub fn new(cfg: StoreConfig) -> Self {
        let (tele, name) = (Telemetry::new(), "store");
        StoreServer {
            db: Stores {
                kv: KvStore::new(),
                tables: TableStore::new(),
                mem: None,
                recovery: None,
            },
            cfg,
            group: None,
            oplog_len_gauge: tele.gauge(name, "oplog_len"),
            applied_seq_gauge: tele.gauge(name, "applied_seq"),
            name: name.to_string(),
            tele,
        }
    }

    /// Names the server (distinguishes group replicas in traces and
    /// metrics).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
        self.set_telemetry(self.tele.clone());
    }

    /// Attaches the run-wide telemetry sink. The server records its op-log
    /// length and applied sequence as gauges under its own name.
    pub fn set_telemetry(&mut self, tele: Telemetry) {
        self.oplog_len_gauge = tele.gauge(&self.name, "oplog_len");
        self.applied_seq_gauge = tele.gauge(&self.name, "applied_seq");
        self.tele = tele;
    }

    /// Refreshes the op-log gauges after message/timer handling.
    fn telemetry_gauges(&self) {
        if self.group.is_some() {
            self.oplog_len_gauge.set(self.oplog_len() as f64);
            self.applied_seq_gauge.set(self.applied_seq() as f64);
        }
    }

    /// Attaches a memory-ledger slot.
    pub fn set_mem_slot(&mut self, ledger: LedgerHandle, slot: MemSlot) {
        self.db.mem = Some((ledger, slot));
    }

    /// Joins this server to a replication group. `members` lists every
    /// member's process id in index order (identical on every member);
    /// `index` is this member's slot. Member 0 leads term 0. A respawned
    /// member (`Ctx::incarnation` above 0) starts unready and knows no
    /// primary. It lost its log, and with it its share of the majority
    /// that holds each acked write, so it asks every peer for the op log
    /// and serves or votes only once all but a majority less one of them
    /// have answered: one of those holds every acked write, and the member
    /// keeps the freshest state it was sent.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_group(&mut self, members: Vec<ProcessId>, index: usize) {
        let cfg = &self.cfg;
        let (timeout, beat) = (cfg.group_session_timeout, cfg.group_heartbeat_interval);
        let hold = tags::HOLD_EXPIRY;
        self.group = Some(GroupState {
            q: Quorum::new(members, index, Some(0), timeout, beat, beat, hold),
            pending_writes: BTreeMap::new(),
        });
    }

    /// True when this server is its group's acting primary (or standalone).
    pub fn is_primary(&self) -> bool {
        match &self.group {
            None => true,
            Some(g) => g.q.ready() && g.q.leads(),
        }
    }

    /// The group epoch, its election term (0 when standalone).
    pub fn group_epoch(&self) -> u64 {
        self.group.as_ref().map_or(0, |g| g.q.term())
    }

    /// The highest contiguously applied group-log sequence (0 standalone).
    pub fn applied_seq(&self) -> u64 {
        self.group.as_ref().map_or(0, |g| g.q.log_end())
    }

    /// Op-log entries currently retained (0 standalone) — bounded on every
    /// member by peer-acked truncation instead of growing with run length.
    pub fn oplog_len(&self) -> usize {
        self.group.as_ref().map_or(0, |g| g.q.entries().len())
    }

    /// Ops this member discarded via peer-acked truncation.
    pub fn oplog_truncated(&self) -> u64 {
        self.group.as_ref().map_or(0, |g| g.q.truncated())
    }

    /// Recovery details when this member incarnation rejoined its group.
    pub fn recovery_info(&self) -> Option<StoreRecoveryInfo> {
        self.db.recovery
    }

    /// The KV store (post-run inspection).
    pub fn kv(&self) -> &KvStore {
        &self.db.kv
    }

    /// The table store (post-run inspection).
    pub fn tables(&self) -> &TableStore {
        &self.db.tables
    }

    /// Mutable table access (e.g. pre-creating schemas before a run).
    #[cfg(test)]
    fn tables_mut(&mut self) -> &mut TableStore {
        &mut self.db.tables
    }

    /// Builds the client-facing ack for request `corr`, which asked for
    /// `op`.
    fn ack_for(op: &StoreOp, corr: u64, bits: StoreRpcOutcomeBits) -> StoreRpc {
        match op {
            StoreOp::Put { .. } => StoreRpc::PutAck { corr },
            StoreOp::Delete { .. } => StoreRpc::DeleteAck {
                corr,
                existed: bits.existed,
            },
            StoreOp::Insert { .. } => StoreRpc::InsertAck { corr, ok: bits.ok },
        }
    }

    /// Primary path for a client mutation, request `corr`: apply locally,
    /// move the op into the group log under the current term, answer the
    /// fetches parked for this append, and ack once a majority holds it.
    fn primary_mutate(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, corr: u64, op: StoreOp) {
        let bits = self.db.apply(&op);
        let ack = Self::ack_for(&op, corr, bits);
        let Some(g) = self.group.as_mut() else {
            // Standalone: ack immediately (the original single-server path).
            ctx.send_after_cpu(self.cfg.cpu_per_op, from, ack);
            return;
        };
        g.q.push(g.q.term(), op);
        let write = PendingWrite { client: from, ack };
        g.pending_writes.insert(g.q.log_end(), write);
        // A single-member group holds a majority by itself.
        g.ack_held(ctx, self.cfg.cpu_per_op);
        g.q.answer_held(ctx, &self.db);
    }

    /// Handles a client-facing RPC (possibly proxied). `origin` is who gets
    /// the answer.
    fn handle_client_rpc(&mut self, ctx: &mut Ctx<'_>, origin: ProcessId, rpc: StoreRpc) {
        if let Some(g) = self.group.as_ref().filter(|g| !g.q.leads()) {
            // Proxy to the primary, which answers the origin directly. A
            // member that is recovering or knows no primary serves nothing:
            // client retries rotate onward.
            if let Some(primary) = g.q.leader().filter(|_| g.q.ready()) {
                let rpc = Box::new(rpc);
                ctx.send(primary, StoreRpc::Forward { origin, rpc });
            }
            return;
        }
        match rpc {
            StoreRpc::Get { corr, key } => {
                let value = self.db.kv.get_counted(&key);
                let reply = StoreRpc::GetResult { corr, value };
                ctx.send_after_cpu(self.cfg.cpu_per_op, origin, reply);
            }
            StoreRpc::Put { corr, key, value } => {
                self.primary_mutate(ctx, origin, corr, StoreOp::Put { key, value });
            }
            StoreRpc::Delete { corr, key } => {
                self.primary_mutate(ctx, origin, corr, StoreOp::Delete { key });
            }
            StoreRpc::Insert { corr, table, row } => {
                self.primary_mutate(ctx, origin, corr, StoreOp::Insert { table, row });
            }
            _ => {}
        }
    }

    /// Takes one of the group's messages. A new primary's writes start
    /// afresh; a rejoining member that becomes ready by an answer has
    /// resynced; and a fetch may let the primary ack writes.
    fn on_group_rpc(&mut self, ctx: &mut Ctx<'_>, rpc: QuorumRpc<StoreOp>) {
        let Some(g) = self.group.as_mut() else { return };
        match g.q.on_rpc(ctx, rpc, &mut self.db) {
            Taken::Won => g.pending_writes.clear(),
            Taken::Answer { ready: true, .. } => {
                if let Some(r) = self.db.recovery.as_mut() {
                    r.resynced_at = Some(ctx.now());
                }
                self.tele
                    .trace_end(ctx.now(), &self.name, "recovery:resync", "recovery");
            }
            Taken::Answer { .. } | Taken::Nothing => {}
        }
        g.ack_held(ctx, self.cfg.cpu_per_op);
    }

    /// The election timer: the primary steps down when no majority has
    /// fetched from it for a session timeout, and a ready member that is
    /// not the primary stands once its election deadline has passed,
    /// asking every peer for its vote. One timer is kept armed: at the
    /// deadline, which replies may have put off by the time it fires, or a
    /// session timeout on.
    fn election_timer(&mut self, ctx: &mut Ctx<'_>) {
        let Some(g) = self.group.as_mut() else { return };
        let (won, next) = g.q.tick(ctx);
        if won {
            g.pending_writes.clear();
        }
        ctx.set_timer_at(next, tags::ELECTION);
    }

    /// Keeps one fetch outstanding on every member but the primary: a new
    /// one when none is out or the one out is `stale_after` old — a fetch
    /// or reply was lost, or the primary died.
    fn refetch(&mut self, ctx: &mut Ctx<'_>, stale_after: SimDuration) {
        if let Some(g) = self.group.as_mut() {
            g.q.refetch(ctx, stale_after);
        }
    }
}

/// Per-op outcome bits threaded into client acks.
#[derive(Debug, Clone, Copy)]
struct StoreRpcOutcomeBits {
    existed: bool,
    ok: bool,
}

impl Process for StoreServer {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.charge(self.cfg.startup_cpu);
        ctx.set_timer(self.cfg.background_interval, tags::BACKGROUND_TICK);
        let Some(g) = self.group.as_mut() else { return };
        g.q.start(ctx, ctx.incarnation() > 0);
        if !g.q.ready() {
            let now = ctx.now();
            self.db.recovery = Some(StoreRecoveryInfo {
                restarted_at: now,
                resynced_at: None,
                sync_ops: 0,
                sync_bytes: 0,
            });
            self.tele
                .trace_begin(now, &self.name, "recovery:resync", "recovery");
        }
        ctx.set_timer(self.cfg.group_heartbeat_interval, tags::GROUP_TICK);
        self.election_timer(ctx);
        // A follower's first fetch, or a rejoin's to every peer.
        self.refetch(ctx, SimDuration::MAX);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, msg: Box<dyn Message>) {
        let rpc = match downcast::<StoreRpc>(msg) {
            Ok(rpc) => rpc,
            Err(msg) => {
                if let Ok(rpc) = downcast::<QuorumRpc<StoreOp>>(msg) {
                    self.on_group_rpc(ctx, *rpc);
                    self.refetch(ctx, SimDuration::MAX);
                    self.telemetry_gauges();
                }
                return;
            }
        };
        match *rpc {
            StoreRpc::Forward { origin, rpc } => {
                // Only the acting primary serves proxied requests; anything
                // else drops them (the client's retry rotates onward).
                if self.is_primary() && self.group.is_some() {
                    self.handle_client_rpc(ctx, origin, *rpc);
                }
            }
            client_rpc @ (StoreRpc::Put { .. }
            | StoreRpc::Get { .. }
            | StoreRpc::Delete { .. }
            | StoreRpc::Insert { .. }) => {
                self.handle_client_rpc(ctx, from, client_rpc);
            }
            // Responses are never received by the server.
            StoreRpc::PutAck { .. }
            | StoreRpc::GetResult { .. }
            | StoreRpc::DeleteAck { .. }
            | StoreRpc::InsertAck { .. } => {}
        }
        self.refetch(ctx, SimDuration::MAX);
        self.telemetry_gauges();
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        match tag {
            tags::BACKGROUND_TICK => {
                if !self.cfg.background_cpu.is_zero() {
                    ctx.charge(self.cfg.background_cpu);
                }
                ctx.set_timer(self.cfg.background_interval, tags::BACKGROUND_TICK);
            }
            tags::GROUP_TICK => {
                self.refetch(ctx, self.cfg.group_heartbeat_interval);
                self.telemetry_gauges();
                ctx.set_timer(self.cfg.group_heartbeat_interval, tags::GROUP_TICK);
            }
            tags::HOLD_EXPIRY => {
                if let Some(g) = self.group.as_mut() {
                    g.q.answer_held(ctx, &self.db);
                }
            }
            tags::ELECTION => self.election_timer(ctx),
            _ => {}
        }
    }
}

impl std::fmt::Debug for StoreServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreServer")
            .field("kv_keys", &self.db.kv.len())
            .field("table_rows", &self.db.tables.total_rows())
            .field("primary", &self.is_primary())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2g_sim::{Sim, SimTime};

    struct TestClient {
        store: ProcessId,
        acks: u32,
        got: Option<Option<Bytes>>,
    }

    impl Process for TestClient {
        fn name(&self) -> &str {
            "client"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(
                self.store,
                StoreRpc::Put {
                    corr: 1,
                    key: "k".into(),
                    value: Bytes::from_static(b"v"),
                },
            );
            ctx.send(
                self.store,
                StoreRpc::Insert {
                    corr: 2,
                    table: "t".into(),
                    row: vec!["a".into(), "b".into()],
                },
            );
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ProcessId, msg: Box<dyn Message>) {
            let Ok(rpc) = downcast::<StoreRpc>(msg) else {
                return;
            };
            match *rpc {
                StoreRpc::PutAck { .. } | StoreRpc::InsertAck { .. } => {
                    self.acks += 1;
                    if self.acks == 2 {
                        ctx.send(
                            self.store,
                            StoreRpc::Get {
                                corr: 3,
                                key: "k".into(),
                            },
                        );
                    }
                }
                StoreRpc::GetResult { value, .. } => self.got = Some(value),
                _ => {}
            }
        }
    }

    #[test]
    fn put_insert_get_round_trip() {
        let mut sim = Sim::new(0);
        let store = sim.spawn(Box::new(StoreServer::new(StoreConfig::default())));
        let client = sim.spawn(Box::new(TestClient {
            store,
            acks: 0,
            got: None,
        }));
        sim.run_until(SimTime::from_secs(5));
        let c = sim.process_ref::<TestClient>(client).unwrap();
        assert_eq!(c.acks, 2);
        assert_eq!(c.got, Some(Some(Bytes::from_static(b"v"))));
        let s = sim.process_ref::<StoreServer>(store).unwrap();
        assert_eq!(s.kv().len(), 1);
        assert_eq!(s.tables().total_rows(), 1);
    }

    /// A retried `Insert` whose first copy already auto-created the table
    /// (the lost-ack retry path) must not panic and must keep inserting.
    struct DuplicateInsertClient {
        store: ProcessId,
        acks_ok: u32,
    }

    impl Process for DuplicateInsertClient {
        fn name(&self) -> &str {
            "dup-client"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            // Two identical creates-via-insert in flight at once: the second
            // arrives after the first created the table.
            for corr in [1, 2] {
                ctx.send(
                    self.store,
                    StoreRpc::Insert {
                        corr,
                        table: "races".into(),
                        row: vec!["x".into()],
                    },
                );
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: ProcessId, msg: Box<dyn Message>) {
            if let Ok(rpc) = downcast::<StoreRpc>(msg) {
                if let StoreRpc::InsertAck { ok: true, .. } = *rpc {
                    self.acks_ok += 1;
                }
            }
        }
    }

    #[test]
    fn duplicate_create_table_race_returns_ok_instead_of_panicking() {
        let mut sim = Sim::new(0);
        let mut server = StoreServer::new(StoreConfig::default());
        // Pre-create the table, as a raced duplicate CreateTable would: the
        // insert handler must treat AlreadyExists as success.
        server
            .tables_mut()
            .create_table("races", &["c0"])
            .expect("fresh table");
        let store = sim.spawn(Box::new(server));
        let client = sim.spawn(Box::new(DuplicateInsertClient { store, acks_ok: 0 }));
        sim.run_until(SimTime::from_secs(5));
        let c = sim.process_ref::<DuplicateInsertClient>(client).unwrap();
        assert_eq!(c.acks_ok, 2, "both retried inserts succeed");
        let s = sim.process_ref::<StoreServer>(store).unwrap();
        assert_eq!(s.tables().total_rows(), 2);
    }

    /// The op-log gauges are recorded under the server's name whichever of
    /// `set_name` and `set_telemetry` runs last.
    #[test]
    fn gauges_follow_the_name_set_before_or_after_attaching() {
        for name_first in [true, false] {
            let tele = Telemetry::new();
            let mut s = StoreServer::new(StoreConfig::default());
            if name_first {
                s.set_name("store-a");
                s.set_telemetry(tele.clone());
            } else {
                s.set_telemetry(tele.clone());
                s.set_name("store-a");
            }
            s.set_group(vec![ProcessId(0)], 0);
            s.telemetry_gauges();
            let reg = tele.registry();
            let scopes: Vec<&str> = reg.metrics().iter().map(|m| m.scope.as_str()).collect();
            assert_eq!(scopes, ["store-a", "store-a"], "name first: {name_first}");
            assert_eq!(reg.gauge("store-a", "oplog_len"), Some(0.0));
            assert_eq!(reg.gauge("store-a", "applied_seq"), Some(0.0));
        }
    }

    /// Spawns an n-member group plus a client writing through member 0.
    fn spawn_group(sim: &mut Sim, n: usize) -> Vec<ProcessId> {
        let pids: Vec<ProcessId> = (0..n)
            .map(|i| {
                let mut s = StoreServer::new(StoreConfig::default());
                s.set_name(format!("store-{i}"));
                sim.spawn(Box::new(s))
            })
            .collect();
        for (i, pid) in pids.iter().enumerate() {
            sim.process_mut::<StoreServer>(*pid)
                .unwrap()
                .set_group(pids.clone(), i);
        }
        pids
    }

    #[test]
    fn group_replicates_writes_to_every_member() {
        let mut sim = Sim::new(0);
        let pids = spawn_group(&mut sim, 3);
        let client = sim.spawn(Box::new(TestClient {
            store: pids[0],
            acks: 0,
            got: None,
        }));
        sim.run_until(SimTime::from_secs(10));
        let c = sim.process_ref::<TestClient>(client).unwrap();
        assert_eq!(c.acks, 2, "quorum acks arrived");
        assert_eq!(c.got, Some(Some(Bytes::from_static(b"v"))));
        for pid in &pids {
            let s = sim.process_ref::<StoreServer>(*pid).unwrap();
            assert_eq!(s.kv().len(), 1, "replicated to every member");
            assert_eq!(s.tables().total_rows(), 1);
            assert_eq!(s.applied_seq(), 2);
        }
        assert!(sim
            .process_ref::<StoreServer>(pids[0])
            .unwrap()
            .is_primary());
        assert!(!sim
            .process_ref::<StoreServer>(pids[1])
            .unwrap()
            .is_primary());
    }

    #[test]
    fn replica_proxies_client_requests_to_the_primary() {
        let mut sim = Sim::new(0);
        let pids = spawn_group(&mut sim, 3);
        // Talk to member 2 (a replica): it must forward to the primary and
        // the client must still get its acks.
        let client = sim.spawn(Box::new(TestClient {
            store: pids[2],
            acks: 0,
            got: None,
        }));
        sim.run_until(SimTime::from_secs(10));
        let c = sim.process_ref::<TestClient>(client).unwrap();
        assert_eq!(c.acks, 2, "proxied writes are acknowledged");
        assert_eq!(c.got, Some(Some(Bytes::from_static(b"v"))));
    }

    #[test]
    fn failover_elects_exactly_one_live_primary_under_a_higher_term() {
        let mut sim = Sim::new(0);
        let pids = spawn_group(&mut sim, 3);
        let client = sim.spawn(Box::new(TestClient {
            store: pids[0],
            acks: 0,
            got: None,
        }));
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.process_ref::<TestClient>(client).unwrap().acks, 2);
        // Kill the primary: the survivors elect one of themselves, by vote.
        sim.kill(pids[0]);
        sim.run_until(SimTime::from_secs(10));
        let live: Vec<&StoreServer> = (pids[1..].iter())
            .map(|pid| sim.process_ref::<StoreServer>(*pid).unwrap())
            .collect();
        let primaries = live.iter().filter(|s| s.is_primary()).count();
        assert_eq!(primaries, 1, "exactly one live primary");
        assert!(live[0].group_epoch() > 0, "elected under a higher term");
        assert_eq!(live[0].group_epoch(), live[1].group_epoch(), "one term");
    }

    #[test]
    fn a_two_member_group_serves_again_after_its_primary_restarts() {
        let mut sim = Sim::new(0);
        let pids = spawn_group(&mut sim, 2);
        let writer = Writer::spawn(&mut sim, pids[1], SimTime::from_secs(10), 1, 64);
        sim.run_until(SimTime::from_secs(1));
        sim.kill(pids[0]);
        sim.run_until(SimTime::from_secs(3));
        let mut rejoin = StoreServer::new(StoreConfig::default());
        rejoin.set_group(pids.clone(), 0);
        sim.respawn(pids[0], Box::new(rejoin));
        sim.run_until(SimTime::from_secs(11));
        let rejoined = sim.process_ref::<StoreServer>(pids[0]).unwrap();
        assert!(rejoined.recovery_info().unwrap().resynced_at.is_some());
        let primaries = (pids.iter())
            .filter(|pid| sim.process_ref::<StoreServer>(**pid).unwrap().is_primary())
            .count();
        assert_eq!(primaries, 1);
        assert_eq!(acked(&sim, writer).len(), 1, "the put was acked");
    }

    /// A respawned member sends its rejoin fetch to both peers at once, and
    /// both answer it in the same instant: it takes both answers, so it is
    /// ready one round trip after it starts.
    #[test]
    fn a_rejoining_member_takes_every_peers_answer_to_its_fetch() {
        let mut sim = Sim::new(0);
        let pids = spawn_group(&mut sim, 3);
        sim.run_until(SimTime::from_secs(1));
        sim.kill(pids[2]);
        sim.run_until(SimTime::from_secs(3));
        let mut rejoin = StoreServer::new(StoreConfig::default());
        rejoin.set_group(pids.clone(), 2);
        sim.respawn(pids[2], Box::new(rejoin));
        sim.run_until(SimTime::from_secs(4));
        let rejoined = sim.process_ref::<StoreServer>(pids[2]).unwrap();
        let ready = rejoined.recovery_info().unwrap().resynced_at;
        assert_eq!(ready, Some(at_micros(3_000_000 + 2 * HOP_US)));
    }

    /// The byte totals the stores keep as they change, against a walk over
    /// everything they hold (what `resident_bytes` used to do per op).
    #[test]
    fn running_byte_totals_match_a_recomputed_walk() {
        let walk = |s: &StoreServer| -> u64 {
            let kv: usize = s.kv().entries().map(|(k, v)| k.len() + v.len()).sum();
            let cells = |rows: &Vec<Vec<String>>| -> usize {
                rows.iter().flatten().map(String::len).sum::<usize>()
            };
            let tables: usize = s.tables().dump().iter().map(|(_, _, r)| cells(r)).sum();
            (kv + tables) as u64
        };
        let ledger = s2g_sim::MemLedger::new(0).into_handle();
        let slot = ledger.borrow_mut().register("store", 0);
        let mut server = StoreServer::new(StoreConfig::default());
        server.set_mem_slot(ledger.clone(), slot);
        // A seeded mix over few keys and tables, so that overwrites,
        // deletes of missing keys and inserts into new and existing tables
        // (one pre-created, with its own arity) all occur many times.
        server.tables_mut().create_table("t0", &["a", "b"]).unwrap();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % n
        };
        let (mut overwrites, mut misses, mut rejected) = (0, 0, 0);
        for i in 0..1_000 {
            let key = format!("key-{}", next(24));
            let op = match next(4) {
                0 | 1 => StoreOp::Put {
                    key,
                    value: vec![7; next(300) as usize].into(),
                },
                2 => StoreOp::Delete { key },
                _ => StoreOp::Insert {
                    table: format!("t{}", next(5)),
                    row: (0..1 + next(3))
                        .map(|c| "x".repeat((c + next(9)) as usize))
                        .collect(),
                },
            };
            let had = matches!(&op, StoreOp::Put { key, .. } if server.kv().get(key).is_some());
            overwrites += u32::from(had);
            let bits = server.db.apply(&op);
            misses += u32::from(matches!(op, StoreOp::Delete { .. }) && !bits.existed);
            rejected += u32::from(!bits.ok);
            let dynamic = ledger.borrow().components().next().expect("one slot").2;
            assert_eq!(dynamic, walk(&server), "after op {i}: {op:?}");
        }
        assert!(overwrites > 100 && misses > 20 && rejected > 20);
        assert!(server.tables().dump().len() == 5 && walk(&server) > 0);
    }

    /// Puts `count` values of `size` bytes, keys `w0..`, at `at`, and
    /// records when each ack arrives.
    struct Writer {
        store: ProcessId,
        at: SimTime,
        count: u64,
        size: usize,
        acked: Vec<SimTime>,
    }

    impl Writer {
        fn spawn(
            sim: &mut Sim,
            store: ProcessId,
            at: SimTime,
            count: u64,
            size: usize,
        ) -> ProcessId {
            let acked = Vec::new();
            sim.spawn(Box::new(Writer {
                store,
                at,
                count,
                size,
                acked,
            }))
        }
    }

    impl Process for Writer {
        fn name(&self) -> &str {
            "writer"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer_at(self.at, 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
            for corr in 0..self.count {
                let (key, value) = (format!("w{corr}"), vec![7; self.size].into());
                ctx.send(self.store, StoreRpc::Put { corr, key, value });
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ProcessId, msg: Box<dyn Message>) {
            if let Ok(rpc) = downcast::<StoreRpc>(msg) {
                if let StoreRpc::PutAck { .. } = *rpc {
                    self.acked.push(ctx.now());
                }
            }
        }
    }

    /// A group member that never answers.
    struct Silent;

    impl Process for Silent {
        fn name(&self) -> &str {
            "silent"
        }
        fn on_message(&mut self, _: &mut Ctx<'_>, _: ProcessId, _: Box<dyn Message>) {}
    }

    fn quorum(sim: &Sim, pid: ProcessId) -> &Quorum<StoreOp> {
        let server = sim.process_ref::<StoreServer>(pid).expect("a store server");
        &server.group.as_ref().expect("a group member").q
    }

    fn at_micros(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    /// The default transport's one-way delay plus `cpu_per_op`, as the ack
    /// instants below count them.
    const HOP_US: u64 = 10;
    const CPU_US: u64 = 40;

    fn acked(sim: &Sim, writer: ProcessId) -> &[SimTime] {
        &sim.process_ref::<Writer>(writer).expect("a writer").acked
    }

    #[test]
    fn progress_under_another_term_acks_no_write() {
        let mut sim = Sim::new(0);
        let primary = sim.spawn(Box::new(StoreServer::new(StoreConfig::default())));
        let members = vec![
            primary,
            sim.spawn(Box::new(Silent)),
            sim.spawn(Box::new(Silent)),
        ];
        let server = sim.process_mut::<StoreServer>(primary).unwrap();
        server.set_group(members.clone(), 0);
        let fetch = |term: u64, after: u64, last_term: u64| {
            let (corr, from, ready) = (0, 2, true);
            let fetch = s2g_sim::Fetch {
                corr,
                after,
                last_term,
                term,
                ready,
            };
            QuorumRpc::<StoreOp>::Fetch { from, fetch }
        };
        // Member 0 leads term 0, where a write (seq 1) waits for a quorum.
        let first = Writer::spawn(&mut sim, primary, at_micros(1_000), 1, 1);
        // Member 1 stands in term 1 holding it, and member 0 votes for it:
        // it no longer leads, so member 2's report of the write under term
        // 0 acks nothing.
        let (term, from, last_term, end) = (1, 1, 0, 1);
        let vote = QuorumRpc::<StoreOp>::Vote {
            term,
            from,
            last_term,
            end,
        };
        sim.inject_at(at_micros(2_000), primary, vote);
        sim.inject_at(at_micros(3_000), primary, fetch(0, 1, 0));
        sim.run_until(at_micros(50_000));
        let server = sim.process_ref::<StoreServer>(primary).unwrap();
        assert_eq!((server.group_epoch(), server.is_primary()), (1, false));
        assert!(acked(&sim, first).is_empty(), "acked by term 0's progress");
        // Member 1 never leads, so member 0 stands in term 2 and wins it
        // with member 2's vote.
        let mut now = at_micros(50_000);
        while quorum(&sim, primary).term() < 2 {
            now += SimDuration::from_millis(10);
            assert!(now < SimTime::from_secs(5), "member 0 never stood");
            sim.run_until(now);
        }
        let (term, from, granted) = (2, 2, true);
        let granted = QuorumRpc::<StoreOp>::VoteReply {
            term,
            from,
            granted,
        };
        sim.inject_at(now + SimDuration::from_millis(1), primary, granted);
        let (acked_at, count, size) = (Vec::new(), 1, 1);
        let at = now + SimDuration::from_millis(2);
        let second = sim.spawn_at(
            now,
            Box::new(Writer {
                store: primary,
                at,
                count,
                size,
                acked: acked_at,
            }),
        );
        // Member 2, still in term 1, reports holding the write (seq 2,
        // written in term 2): progress under another term acks nothing.
        sim.inject_at(now + SimDuration::from_millis(3), primary, fetch(1, 2, 2));
        sim.run_until(now + SimDuration::from_millis(50));
        assert!(sim
            .process_ref::<StoreServer>(primary)
            .unwrap()
            .is_primary());
        assert!(acked(&sim, second).is_empty(), "acked by term 1's progress");
        // The same report under the primary's term is a quorum.
        let report = now + SimDuration::from_millis(60);
        sim.inject_at(report, primary, fetch(2, 2, 2));
        sim.run_until(now + SimDuration::from_millis(100));
        let expected = report + SimDuration::from_micros(CPU_US + HOP_US);
        assert_eq!(acked(&sim, second), &[expected]);
        assert!(acked(&sim, first).is_empty(), "a deposed term's write");
    }

    #[test]
    fn a_reply_to_an_earlier_incarnation_completes_nothing() {
        let mut sim = Sim::new(0);
        // Of a pair, one answer completes the rejoin of the first respawn.
        let a = sim.spawn(Box::new(Silent));
        let me = sim.spawn(Box::new(StoreServer::new(StoreConfig::default())));
        sim.kill(me).expect("alive");
        let mut server = StoreServer::new(StoreConfig::default());
        server.set_group(vec![a, me], 1);
        sim.respawn(me, Box::new(server));
        let reply = |corr: u64, key: &str| {
            QuorumRpc::Answer(s2g_sim::Answer {
                from: 0,
                corr,
                term: 0,
                leads: false,
                after: 0,
                entries: vec![(
                    0,
                    StoreOp::Put {
                        key: key.into(),
                        value: Bytes::from_static(b"v"),
                    },
                )],
                state: None,
                floor: 0,
                commit: 0,
            })
        };
        // The id incarnation 0 drew first, delivered to incarnation 1 while
        // its own first fetch is out.
        sim.inject_at(at_micros(100), me, reply(0, "stale"));
        sim.run_until(at_micros(1_000));
        let s = sim.process_ref::<StoreServer>(me).unwrap();
        assert_eq!(s.recovery_info().unwrap().resynced_at, None);
        assert_eq!(s.kv().len(), 0);
        // The reply to its own fetch completes the rejoin.
        sim.inject_at(at_micros(2_000), me, reply(1 << 32, "fresh"));
        sim.run_until(at_micros(3_000));
        let s = sim.process_ref::<StoreServer>(me).unwrap();
        assert_eq!(
            s.recovery_info().unwrap().resynced_at,
            Some(at_micros(2_000))
        );
        assert!(s.kv().get("fresh").is_some() && s.kv().get("stale").is_none());
    }

    /// Delivers every message after [`HOP_US`], except that it drops the
    /// first one from `from` to `to` of at least `bytes` bytes.
    struct DropOnce {
        from: ProcessId,
        to: ProcessId,
        bytes: usize,
        dropped: bool,
    }

    impl s2g_sim::Transport for DropOnce {
        fn route(
            &mut self,
            _now: SimTime,
            _rng: &mut rand::rngs::StdRng,
            from: ProcessId,
            to: ProcessId,
            bytes: usize,
        ) -> s2g_sim::Delivery {
            if !self.dropped && (from, to) == (self.from, self.to) && bytes >= self.bytes {
                self.dropped = true;
                return s2g_sim::Delivery::Drop;
            }
            s2g_sim::Delivery::After(SimDuration::from_micros(HOP_US))
        }
    }

    #[test]
    fn a_lost_fetch_reply_is_recovered_within_two_heartbeat_intervals() {
        let mut sim = Sim::new(0);
        let pids = spawn_group(&mut sim, 3);
        let (from, to) = (pids[0], pids[1]);
        let bytes = 1_000;
        let dropped = false;
        sim.set_transport(Box::new(DropOnce {
            from,
            to,
            bytes,
            dropped,
        }));
        let write = SimTime::from_millis(1_100);
        let writer = Writer::spawn(&mut sim, pids[0], write, 1, bytes);
        sim.run_until(write + SimDuration::from_millis(100));
        assert_eq!(quorum(&sim, pids[1]).log_end(), 0, "the reply was lost");
        assert_eq!(quorum(&sim, pids[2]).log_end(), 1);
        let two_intervals = StoreConfig::default().group_heartbeat_interval * 2;
        sim.run_until(write + two_intervals);
        assert_eq!(quorum(&sim, pids[1]).log_end(), 1);
        assert_eq!(sim.process_ref::<Writer>(writer).unwrap().acked.len(), 1);
    }

    #[test]
    fn a_ready_follower_keeps_exactly_one_fetch_outstanding() {
        let mut sim = Sim::new(0);
        let pids = spawn_group(&mut sim, 3);
        let burst = SimTime::from_millis(1_000);
        let writer = Writer::spawn(&mut sim, pids[0], burst, 200, 64);
        let mut t = burst - SimDuration::from_millis(100);
        while t < burst + SimDuration::from_millis(500) {
            sim.run_until(t);
            for follower in &pids[1..] {
                let out = quorum(&sim, *follower).awaiting();
                assert!(out.is_some(), "a fetch is out at {t}");
            }
            t += SimDuration::from_millis(1);
        }
        assert_eq!(sim.process_ref::<Writer>(writer).unwrap().acked.len(), 200);
        for pid in &pids {
            assert_eq!(quorum(&sim, *pid).log_end(), 200);
        }
    }

    #[test]
    fn a_parked_fetch_acks_a_write_in_one_round_trip() {
        let mut sim = Sim::new(0);
        let pids = spawn_group(&mut sim, 3);
        let write = SimTime::from_millis(1_100);
        let writer = Writer::spawn(&mut sim, pids[0], write, 1, 64);
        sim.run_until(SimTime::from_secs(2));
        // Writer → primary, primary → follower, follower → primary, the
        // ack's CPU, primary → writer.
        let expected = write + SimDuration::from_micros(4 * HOP_US + CPU_US);
        let acked = &sim.process_ref::<Writer>(writer).unwrap().acked;
        assert_eq!(acked, &[expected]);
    }

    /// Puts one blob through a [`BlobClient`](crate::BlobClient) at 2 s,
    /// reads it back at `get_at`, and keeps the address of what the get
    /// returned.
    struct BlobOwner {
        client: crate::BlobClient<()>,
        blob: Option<Vec<u8>>,
        get_at: SimTime,
        answer_addr: Option<usize>,
    }

    impl Process for BlobOwner {
        fn name(&self) -> &str {
            "blob-owner"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer_at(SimTime::from_secs(2), 0);
            ctx.set_timer_at(self.get_at, 1);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
            if self.client.on_timer(ctx, tag) {
                return;
            }
            match self.blob.take() {
                Some(blob) => self.client.put(ctx, (), "blob".into(), blob),
                None => self.client.get(ctx, (), "blob".into()),
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: ProcessId, msg: Box<dyn Message>) {
            if let Ok(rpc) = downcast::<StoreRpc>(msg) {
                self.client.on_reply(*rpc);
            }
            while let Some(done) = self.client.next_done() {
                if let crate::BlobDone::Got((), Some(value)) = done {
                    self.answer_addr = Some(value.as_ptr() as usize);
                }
            }
        }
    }

    #[test]
    fn a_blob_is_one_buffer_on_every_replica_and_in_every_answer() {
        let mut sim = Sim::new(0);
        let pids = spawn_group(&mut sim, 3);
        // Exactly as long as its capacity: the put has no slack to drop, so
        // the client keeps this very buffer.
        let blob = vec![7u8; 4_096];
        let addr = blob.as_ptr() as usize;
        let get_at = SimTime::from_secs(5);
        let owner = sim.spawn(Box::new(BlobOwner {
            client: crate::BlobClient::new(pids.clone(), 1 << 40),
            blob: Some(blob),
            get_at,
            answer_addr: None,
        }));
        // Member 2 is down for the put and long enough after it that both
        // live members truncate the op away: it comes back by a state
        // transfer, whichever answers first.
        sim.run_until(SimTime::from_millis(500));
        sim.kill(pids[2]);
        sim.run_until(SimTime::from_secs(3));
        for pid in &pids[..2] {
            assert!(quorum(&sim, *pid).log_start() >= 1, "the put was truncated");
        }
        let mut rejoin = StoreServer::new(StoreConfig::default());
        rejoin.set_group(pids.clone(), 2);
        sim.respawn(pids[2], Box::new(rejoin));
        sim.run_until(get_at + SimDuration::from_secs(1));
        assert_eq!(
            quorum(&sim, pids[2]).log_start(),
            1,
            "bootstrapped, not replayed"
        );
        for pid in &pids {
            let server = sim.process_ref::<StoreServer>(*pid).unwrap();
            let held = server.kv().get("blob").expect("replicated");
            assert_eq!(held.as_ptr() as usize, addr, "{}", server.name);
        }
        let got = sim.process_ref::<BlobOwner>(owner).unwrap().answer_addr;
        assert_eq!(got, Some(addr), "the get answers with the stored buffer");
    }
}
