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
//! A member learns what it missed one way: it asks. A ready follower keeps
//! exactly one [`StoreRpc::Fetch`] outstanding at its primary, and the
//! `after` of each fetch acknowledges everything up to it. The primary
//! answers at once when it holds ops after `after` (with a full
//! [`StateTransfer`] when `after` is below its truncated log start), and
//! otherwise parks the fetch until its next append, so an idle group still
//! acks a write in one round trip. A restarted member asks every peer and
//! takes the first answer; a member about to claim the primary role asks
//! the most advanced live peer; a deposed primary wipes its state and asks
//! from zero. Members heartbeat each other; when the primary dies, the
//! lowest-indexed live member catches up and claims the role under a
//! bumped group epoch. Non-primary members proxy client requests to the
//! primary, so a [`BlobClient`](crate::BlobClient) that rotates endpoints
//! on timeout reaches the group through any live member.

use bytes::Bytes;
use s2g_sim::{
    downcast, Ctx, LedgerHandle, MemSlot, Message, Process, ProcessId, SimDuration, SimTime,
    Waiters,
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
    /// Approximate wire size of the op when replicated or synced.
    pub fn wire_size(&self) -> usize {
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
    /// Member → member: asks for the op-log suffix after `after`. Under the
    /// receiver's own epoch, `after` also acknowledges every op up to it.
    Fetch {
        /// Request id, salted with the sender's incarnation.
        corr: u64,
        /// Sender's member index.
        from: u32,
        /// The sender's highest applied sequence.
        after: u64,
        /// Sender's group epoch.
        epoch: u64,
        /// Whether the sender has caught up and serves requests.
        ready: bool,
    },
    /// Op-log suffix transfer answering a [`StoreRpc::Fetch`];
    /// `entries[i]` carries seq `after + 1 + i`.
    FetchReply {
        /// The fetch's request id.
        corr: u64,
        /// Responder's group epoch.
        epoch: u64,
        /// Responder's view of the primary index.
        primary: u32,
        /// The sequence the suffix starts after.
        after: u64,
        /// The ops after `after`, in sequence order.
        entries: Vec<StoreOp>,
        /// Full-state bootstrap, sent when the fetch's `after` is below the
        /// responder's log start (truncated by peer-acked op-log cleaning):
        /// the responder's complete state as of `after`. The receiver
        /// installs it, adopts `after` as both its applied sequence and its
        /// log start, and applies `entries` (normally empty) on top.
        snapshot: Option<StateTransfer>,
    },
    /// Member ↔ member liveness + progress gossip.
    GroupHeartbeat {
        /// Sender's member index.
        from: u32,
        /// Sender's group epoch.
        epoch: u64,
        /// Who the sender believes is primary.
        primary: u32,
        /// Sender's highest applied sequence.
        applied_seq: u64,
        /// Whether the sender has caught up and serves requests.
        ready: bool,
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
    /// Approximate wire size of the transfer.
    pub fn wire_size(&self) -> usize {
        self.kv
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
            StoreRpc::Fetch { .. } => 29,
            StoreRpc::GroupHeartbeat { .. } => 29,
            StoreRpc::FetchReply {
                entries, snapshot, ..
            } => {
                28 + entries.iter().map(StoreOp::wire_size).sum::<usize>()
                    + snapshot.as_ref().map_or(0, StateTransfer::wire_size)
            }
        }
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
    /// Heartbeat period between store-group members.
    pub group_heartbeat_interval: SimDuration,
    /// A member silent for longer than this is considered dead; the lowest
    /// surviving member then claims the primary role.
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
    pub(crate) const GROUP_HB_TICK: u64 = 3;
    pub(crate) const CPU_BASE: u64 = 1 << 50;
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
    members: Vec<ProcessId>,
    index: usize,
    epoch: u64,
    primary: usize,
    applied_seq: u64,
    /// The retained operation log: `oplog[i]` holds seq `log_start + i + 1`.
    /// The prefix every live member has acked is truncated away
    /// (`log_start` advances); members needing older history are brought
    /// back by a full [`StateTransfer`] instead of replay.
    oplog: Vec<StoreOp>,
    /// Sequences discarded from the front of `oplog` (0 = nothing
    /// truncated yet).
    log_start: u64,
    /// Lifetime count of ops this member truncated.
    truncated_ops: u64,
    ready: bool,
    /// When each member was last heard from; any message counts.
    peer_last_seen: Vec<SimTime>,
    /// When this member started, or heard a peer again after hearing none
    /// for two heartbeat intervals. A member cut off learns nothing from
    /// its peers' silence, so none counts as dead for less than a session
    /// timeout after this.
    awake_since: SimTime,
    /// Each member's progress as it last reported it under this member's
    /// epoch: the `after` of its fetches, the `applied_seq` of its
    /// heartbeats, the end of its replies. A restarted member reports less
    /// than it once held, and that is what it holds.
    peer_seq: Vec<u64>,
    /// Whether each member's last heartbeat said it serves (assumed until
    /// one is heard).
    peer_ready: Vec<bool>,
    /// Writes awaiting quorum, keyed by seq.
    pending_writes: std::collections::BTreeMap<u64, PendingWrite>,
    /// The acting primary's held fetches, `(corr, after)` by member index,
    /// answered by the next append. They have no deadline: a follower
    /// re-sends its fetch every heartbeat interval.
    parked: Waiters<usize, (u64, u64)>,
    /// This member's one outstanding fetch: `(corr, sent_at)`.
    awaiting: Option<(u64, SimTime)>,
    /// A failover claim is waiting for catch-up from a more advanced peer.
    claim_pending: bool,
    recovery: Option<StoreRecoveryInfo>,
}

impl GroupState {
    fn quorum(&self) -> usize {
        self.members.len() / 2 + 1
    }

    fn peer_alive(&self, i: usize, now: SimTime, timeout: SimDuration) -> bool {
        let seen = self.peer_last_seen[i].max(self.awake_since);
        i == self.index || now.saturating_since(seen) <= timeout
    }

    /// True when member `i` was heard from within `window`.
    fn heard(&self, i: usize, now: SimTime, window: SimDuration) -> bool {
        i == self.index || now.saturating_since(self.peer_last_seen[i]) <= window
    }

    /// Takes a message from `pid` as word that it is alive.
    fn heard_from(&mut self, pid: ProcessId, now: SimTime, interval: SimDuration) {
        let Some(i) = self.members.iter().position(|p| *p == pid) else {
            return;
        };
        let me = self.index;
        if !(0..self.members.len()).any(|j| j != me && self.heard(j, now, interval * 2)) {
            self.awake_since = now;
        }
        self.peer_last_seen[i] = now;
    }

    /// Every other member's process id, in index order.
    fn peers(&self) -> impl Iterator<Item = ProcessId> + '_ {
        let me = self.index;
        (self.members.iter().enumerate())
            .filter(move |(i, _)| *i != me)
            .map(|(_, p)| *p)
    }

    /// Records member `i`'s progress, if reported under this member's epoch.
    fn note_progress(&mut self, i: usize, epoch: u64, seq: u64) {
        if epoch == self.epoch {
            self.peer_seq[i] = seq;
        }
    }

    /// True when no fetch is out, or the one out is an interval old.
    fn fetch_stale(&self, now: SimTime, interval: SimDuration) -> bool {
        self.awaiting
            .is_none_or(|(_, at)| now.saturating_since(at) >= interval)
    }

    /// The claim rule. `None` when this member must not claim the primary
    /// role now: it is not ready; the primary is alive and serving (one that
    /// restarted has lost its state and says it is not ready); no ready
    /// majority is in sight; or a live ready member is ordered before it.
    /// Otherwise the most advanced live peer it must first catch up from,
    /// if any is ahead of it.
    ///
    /// The majority must hold the log (a restarted member holds nothing
    /// yet, and an acked write may be on no other) and have been heard from
    /// within two heartbeat intervals, not within the session timeout: a
    /// member cut off just now last heard its peers on their own heartbeat
    /// phases, so one can still look alive after the primary no longer
    /// does, and a minority member that merely stopped *hearing* the others
    /// must never crown itself — on heal it would depose the true primary
    /// and quorum-acked writes with it. What they reported is recent, too.
    fn claim(&self, now: SimTime, cfg: &StoreConfig) -> Option<Option<usize>> {
        let alive = |i: usize| self.peer_alive(i, now, cfg.group_session_timeout);
        let heard = |i: usize| {
            let recent = self.heard(i, now, cfg.group_heartbeat_interval * 2);
            recent && (i == self.index || self.peer_ready[i])
        };
        let n = self.members.len();
        let serving = alive(self.primary) && self.peer_ready[self.primary];
        if !self.ready || self.primary == self.index || serving {
            return None;
        }
        if (0..n).filter(|i| heard(*i)).count() < self.quorum() {
            return None;
        }
        let lowest_live = (0..n).find(|i| *i == self.index || (alive(*i) && self.peer_ready[*i]));
        if lowest_live != Some(self.index) {
            return None;
        }
        let ahead = (0..n)
            .filter(|i| *i != self.index && *i != self.primary && alive(*i))
            .max_by_key(|i| self.peer_seq[*i])
            .filter(|i| self.peer_seq[*i] > self.applied_seq);
        Some(ahead)
    }
}

/// The store server process.
pub struct StoreServer {
    cfg: StoreConfig,
    kv: KvStore,
    tables: TableStore,
    pending: std::collections::HashMap<u64, (ProcessId, StoreRpc)>,
    next_tag: u64,
    mem: Option<(LedgerHandle, MemSlot)>,
    group: Option<GroupState>,
    /// The next fetch correlation id; the incarnation is its high half.
    next_corr: u64,
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
            cfg,
            kv: KvStore::new(),
            tables: TableStore::new(),
            pending: std::collections::HashMap::new(),
            next_tag: 0,
            mem: None,
            group: None,
            next_corr: 0,
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

    /// Salts this member's fetch correlation ids with its incarnation (the
    /// high half of the counter), so a reply addressed to an earlier
    /// incarnation of the slot — to a fetch it left in flight or parked at
    /// the primary — completes nothing here.
    pub fn set_incarnation(&mut self, incarnation: u64) {
        self.next_corr = incarnation << 32;
    }

    /// Attaches a memory-ledger slot.
    pub fn set_mem_slot(&mut self, ledger: LedgerHandle, slot: MemSlot) {
        self.mem = Some((ledger, slot));
    }

    /// Joins this server to a replication group. `members` lists every
    /// member's process id in index order (identical on every member);
    /// `index` is this member's slot. With `recovering` set (the respawn
    /// path) the member starts unready and fetches the op log from a peer
    /// before serving.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_group(&mut self, members: Vec<ProcessId>, index: usize, recovering: bool) {
        assert!(index < members.len(), "group index out of range");
        let n = members.len();
        self.group = Some(GroupState {
            members,
            index,
            epoch: 0,
            primary: 0,
            applied_seq: 0,
            oplog: Vec::new(),
            log_start: 0,
            truncated_ops: 0,
            ready: !recovering,
            peer_last_seen: vec![SimTime::ZERO; n],
            awake_since: SimTime::ZERO,
            peer_seq: vec![0; n],
            peer_ready: vec![true; n],
            pending_writes: std::collections::BTreeMap::new(),
            parked: Waiters::default(),
            awaiting: None,
            claim_pending: false,
            recovery: None,
        });
    }

    /// True when this server is its group's acting primary (or standalone).
    pub fn is_primary(&self) -> bool {
        match &self.group {
            None => true,
            Some(g) => g.ready && g.primary == g.index,
        }
    }

    /// The group epoch (0 when standalone).
    pub fn group_epoch(&self) -> u64 {
        self.group.as_ref().map_or(0, |g| g.epoch)
    }

    /// The highest contiguously applied group-log sequence (0 standalone).
    pub fn applied_seq(&self) -> u64 {
        self.group.as_ref().map_or(0, |g| g.applied_seq)
    }

    /// Op-log entries currently retained (0 standalone) — bounded on every
    /// member by peer-acked truncation instead of growing with run length.
    pub fn oplog_len(&self) -> usize {
        self.group.as_ref().map_or(0, |g| g.oplog.len())
    }

    /// Ops this member discarded via peer-acked truncation.
    pub fn oplog_truncated(&self) -> u64 {
        self.group.as_ref().map_or(0, |g| g.truncated_ops)
    }

    /// Recovery details when this member incarnation rejoined its group.
    pub fn recovery_info(&self) -> Option<StoreRecoveryInfo> {
        self.group.as_ref().and_then(|g| g.recovery)
    }

    /// The KV store (post-run inspection).
    pub fn kv(&self) -> &KvStore {
        &self.kv
    }

    /// The table store (post-run inspection).
    pub fn tables(&self) -> &TableStore {
        &self.tables
    }

    /// Mutable table access (e.g. pre-creating schemas before a run).
    #[cfg(test)]
    fn tables_mut(&mut self) -> &mut TableStore {
        &mut self.tables
    }

    fn update_mem(&mut self) {
        if let Some((ledger, slot)) = &self.mem {
            let bytes = (self.kv.resident_bytes() + self.tables.resident_bytes()) as u64;
            ledger.borrow_mut().set_dynamic(*slot, bytes);
        }
    }

    fn respond_after_cpu(&mut self, ctx: &mut Ctx<'_>, to: ProcessId, rpc: StoreRpc) {
        let tag = tags::CPU_BASE + self.next_tag;
        self.next_tag += 1;
        self.pending.insert(tag, (to, rpc));
        ctx.exec(self.cfg.cpu_per_op, tag);
    }

    /// Applies one mutation to the local stores. `Insert` races (a duplicate
    /// `CreateTable` behind a lost-RPC retry) are tolerated: an
    /// already-existing table is simply inserted into instead of panicking.
    fn apply_op(&mut self, op: &StoreOp) -> StoreRpcOutcomeBits {
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
    /// move the op into the group log, answer the fetches parked for this
    /// append, and ack once a majority holds it.
    fn primary_mutate(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, corr: u64, op: StoreOp) {
        let bits = self.apply_op(&op);
        let ack = Self::ack_for(&op, corr, bits);
        let Some(g) = self.group.as_mut() else {
            // Standalone: ack immediately (the original single-server path).
            self.respond_after_cpu(ctx, from, ack);
            return;
        };
        g.applied_seq += 1;
        g.oplog.push(op);
        let write = PendingWrite { client: from, ack };
        g.pending_writes.insert(g.applied_seq, write);
        // A single-member group holds a majority by itself.
        self.pump_quorum(ctx);
        let g = self.group.as_mut().expect("grouped");
        let mut parked = std::mem::take(&mut g.parked);
        for (i, (corr, after)) in parked.drain() {
            self.serve_fetch(ctx, i, corr, after);
        }
        self.group.as_mut().expect("grouped").parked = parked;
    }

    /// Acks every pending write a majority now holds, the primary's own
    /// progress counted with every peer's.
    fn pump_quorum(&mut self, ctx: &mut Ctx<'_>) {
        let Some(g) = self.group.as_mut() else { return };
        if g.pending_writes.is_empty() {
            return;
        }
        let mut progress = g.peer_seq.clone();
        progress[g.index] = g.applied_seq;
        progress.sort_unstable_by(|a, b| b.cmp(a));
        let held = progress[g.quorum() - 1];
        let waiting = g.pending_writes.split_off(&(held + 1));
        let acked = std::mem::replace(&mut g.pending_writes, waiting);
        for w in acked.into_values() {
            self.respond_after_cpu(ctx, w.client, w.ack);
        }
    }

    /// Handles a client-facing RPC (possibly proxied). `origin` is who gets
    /// the answer.
    fn handle_client_rpc(&mut self, ctx: &mut Ctx<'_>, origin: ProcessId, rpc: StoreRpc) {
        let grouped = self.group.is_some();
        if grouped && !self.group.as_ref().is_some_and(|g| g.ready) {
            // Recovering member: not serving. Client retries rotate onward.
            return;
        }
        if grouped && !self.is_primary() {
            // Proxy to the primary, which answers the origin directly.
            let primary_pid = {
                let g = self.group.as_ref().expect("grouped");
                g.members[g.primary]
            };
            ctx.send(
                primary_pid,
                StoreRpc::Forward {
                    origin,
                    rpc: Box::new(rpc),
                },
            );
            return;
        }
        match rpc {
            StoreRpc::Get { corr, key } => {
                let value = self.kv.get_counted(&key);
                self.respond_after_cpu(ctx, origin, StoreRpc::GetResult { corr, value });
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

    /// Follows a newer group epoch, or a primary of this epoch learned
    /// late. Fetches parked at this member or addressed to the old primary
    /// are dropped, and progress counted under an older epoch acks nothing
    /// under the new one.
    ///
    /// A member that was itself the *acting primary* of an older epoch may
    /// hold a divergent, never-quorum-acked tail it applied while isolated;
    /// counting it toward the new primary's quorums would fake durability.
    /// Such a member steps down hard: it discards its local state and op
    /// log, drops its pending writes (their clients retry through the
    /// group), and fetches from zero — after which it is byte-identical to
    /// replay of the canonical log. Returns whether it was deposed.
    fn follow_epoch(&mut self, ctx: &mut Ctx<'_>, epoch: u64, primary: u32) -> bool {
        let Some(g) = self.group.as_mut() else {
            return false;
        };
        let primary = primary as usize;
        if epoch < g.epoch || (epoch == g.epoch && primary == g.primary) {
            return false;
        }
        let deposed = epoch > g.epoch && g.ready && g.primary == g.index && primary != g.index;
        if epoch > g.epoch {
            g.epoch = epoch;
            g.claim_pending = false;
            g.peer_seq.fill(0);
        }
        g.primary = primary;
        g.parked.drain().for_each(drop);
        if g.ready {
            g.awaiting = None;
        }
        if deposed {
            g.ready = false;
            g.applied_seq = 0;
            g.oplog.clear();
            g.log_start = 0;
            g.pending_writes.clear();
            self.kv = KvStore::new();
            self.tables = TableStore::new();
            self.update_mem();
            self.send_fetch(ctx, None);
        }
        deposed
    }

    fn handle_heartbeat(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: u32,
        epoch: u64,
        primary: u32,
        applied_seq: u64,
        ready: bool,
    ) {
        {
            let Some(g) = self.group.as_mut() else { return };
            let i = from as usize;
            if i >= g.members.len() {
                return;
            }
            g.peer_ready[i] = ready;
        }
        // A newer primary claimed; follow it (a deposed acting primary
        // rebuilds, see `follow_epoch`).
        self.follow_epoch(ctx, epoch, primary);
        let g = self.group.as_mut().expect("grouped");
        g.note_progress(from as usize, epoch, applied_seq);
        self.pump_quorum(ctx);
    }

    /// Takes a member's fetch. Its `after` is that member's progress. Any
    /// ready member answers at once from its own log — except that the
    /// acting primary holds a ready follower's fetch under its own epoch
    /// when it has nothing after `after`, one per member (a newer fetch
    /// replaces the older), until its next append.
    fn handle_fetch(
        &mut self,
        ctx: &mut Ctx<'_>,
        corr: u64,
        from: u32,
        after: u64,
        epoch: u64,
        ready: bool,
    ) {
        let Some(g) = self.group.as_mut() else { return };
        let i = from as usize;
        if !g.ready || i >= g.members.len() {
            return; // cannot seed others while recovering ourselves
        }
        g.note_progress(i, epoch, after);
        let park = ready && epoch == g.epoch && g.primary == g.index && after >= g.applied_seq;
        if park {
            g.parked.hold(i, (corr, after), None);
        } else {
            g.parked.take(&i);
            self.serve_fetch(ctx, i, corr, after);
        }
        self.pump_quorum(ctx);
    }

    /// Sends member `to` this member's log after `after`: the suffix, or
    /// the full state when `after` is below the log start (the suffix it
    /// needs was truncated away by peer-acked cleaning).
    fn serve_fetch(&self, ctx: &mut Ctx<'_>, to: usize, corr: u64, after: u64) {
        let g = self.group.as_ref().expect("grouped");
        let (after, entries, snapshot) = if after < g.log_start {
            // Each value is the map's buffer, shared: the transfer copies
            // keys, not blobs.
            let kv = self.kv.entries();
            let snapshot = StateTransfer {
                kv: kv.map(|(k, v)| (k.clone(), v.clone())).collect(),
                tables: self.tables.dump(),
            };
            (g.applied_seq, Vec::new(), Some(snapshot))
        } else {
            let after = after.min(g.applied_seq);
            // Keys are copied; each value is the log's buffer, shared.
            let entries = g.oplog[(after - g.log_start) as usize..].to_vec();
            (after, entries, None)
        };
        let (epoch, primary) = (g.epoch, g.primary as u32);
        let reply = StoreRpc::FetchReply {
            corr,
            epoch,
            primary,
            after,
            entries,
            snapshot,
        };
        ctx.send(g.members[to], reply);
    }

    /// Applies the answer to this member's outstanding fetch, following its
    /// epoch first, and sends the next fetch at once. A reply to any other
    /// fetch (superseded, or addressed to an earlier incarnation) and one
    /// from an older epoch are ignored; ops already applied are skipped.
    fn handle_fetch_reply(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, reply: StoreRpc) {
        let StoreRpc::FetchReply {
            corr,
            epoch,
            primary,
            after,
            entries,
            snapshot,
        } = reply
        else {
            return;
        };
        {
            let Some(g) = self.group.as_mut() else { return };
            // A restarted member the group still takes for its primary
            // waits for another to claim: it holds only what it is sent.
            let own_primacy = !g.ready && primary as usize == g.index;
            if g.awaiting.map(|(c, _)| c) != Some(corr) || epoch < g.epoch || own_primacy {
                return;
            }
            g.awaiting = None;
        }
        if self.follow_epoch(ctx, epoch, primary) {
            return; // deposed: the reply answered the state just wiped
        }
        let g = self.group.as_mut().expect("grouped");
        if let Some(i) = g.members.iter().position(|p| *p == from) {
            let end = after + entries.len() as u64;
            g.note_progress(i, epoch, end);
        }
        let (mut sync_ops, mut sync_bytes) = (0u64, 0u64);
        if let Some(snap) = snapshot {
            // Bootstrap from the full state transfer: install it, adopt the
            // responder's applied sequence, and start an empty log there.
            sync_bytes += snap.wire_size() as u64;
            let rows: usize = snap.tables.iter().map(|(_, _, rows)| rows.len()).sum();
            sync_ops += (snap.kv.len() + rows) as u64;
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
            let g = self.group.as_mut().expect("grouped");
            g.oplog.clear();
            g.applied_seq = after;
            g.log_start = after;
        }
        for (seq, op) in (after + 1..).zip(entries) {
            if seq != self.applied_seq() + 1 {
                continue; // already applied
            }
            self.apply_op(&op);
            sync_ops += 1;
            sync_bytes += op.wire_size() as u64;
            let g = self.group.as_mut().expect("grouped");
            g.applied_seq = seq;
            g.oplog.push(op);
        }
        let g = self.group.as_mut().expect("grouped");
        if !g.ready {
            g.ready = true;
            if let Some(r) = g.recovery.as_mut() {
                r.resynced_at = Some(ctx.now());
                r.sync_ops += sync_ops;
                r.sync_bytes += sync_bytes;
            }
            self.tele
                .trace_end(ctx.now(), &self.name, "recovery:resync", "recovery");
        }
        if self.group.as_ref().is_some_and(|g| g.claim_pending) {
            self.try_claim_primary(ctx);
        }
        let g = self.group.as_ref().expect("grouped");
        if g.awaiting.is_none() && g.primary != g.index {
            self.send_fetch(ctx, Some(g.primary));
        }
    }

    /// Sends this member's one fetch — to member `to`, or to every peer
    /// when `None` (a rejoin: the first answer wins) — superseding any
    /// fetch still out.
    fn send_fetch(&mut self, ctx: &mut Ctx<'_>, to: Option<usize>) {
        let corr = self.next_corr;
        self.next_corr += 1;
        let Some(g) = self.group.as_mut() else { return };
        g.awaiting = Some((corr, ctx.now()));
        let fetch = StoreRpc::Fetch {
            corr,
            from: g.index as u32,
            after: g.applied_seq,
            epoch: g.epoch,
            ready: g.ready,
        };
        match to {
            Some(i) => ctx.send(g.members[i], fetch),
            None => {
                for p in g.peers() {
                    ctx.send(p, fetch.clone());
                }
            }
        }
    }

    /// The heartbeat tick's retry of a lost fetch or reply: a fetch that is
    /// an interval old (or none at all, as when the primary changed) is
    /// sent again, to every peer while rejoining and to the primary once
    /// ready. The primary may merely be holding an old fetch with nothing
    /// to send — the newer one replaces it — but a fetch lost while the
    /// group is quiet must not leave its follower detached until the next
    /// write needs it.
    fn refetch(&mut self, ctx: &mut Ctx<'_>) {
        let Some(g) = self.group.as_ref() else { return };
        if !g.fetch_stale(ctx.now(), self.cfg.group_heartbeat_interval) {
            return;
        }
        if !g.ready {
            self.send_fetch(ctx, None);
        } else if g.primary != g.index {
            self.send_fetch(ctx, Some(g.primary));
        }
    }

    /// Claims the primary role under the claim rule ([`GroupState::claim`]),
    /// after first fetching the missing suffix from the most advanced live
    /// peer, so an acked write on a surviving majority is never lost to the
    /// failover. The catch-up asks only that peer, so no less-advanced peer
    /// can answer first with nothing; it is re-sent once an interval old,
    /// to the peer chosen afresh (the one asked may have died).
    fn try_claim_primary(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let interval = self.cfg.group_heartbeat_interval;
        let Some(g) = self.group.as_mut() else { return };
        let Some(ahead) = g.claim(now, &self.cfg) else {
            g.claim_pending = false;
            return;
        };
        if let Some(ahead) = ahead {
            let asked = g.claim_pending && !g.fetch_stale(now, interval);
            g.claim_pending = true;
            if !asked {
                self.send_fetch(ctx, Some(ahead));
            }
            return;
        }
        g.claim_pending = false;
        g.awaiting = None;
        g.epoch += 1;
        g.primary = g.index;
        g.peer_seq.fill(0);
        self.send_heartbeats(ctx);
    }

    /// Op-log truncation, run by every ready member on its own log:
    /// discards the prefix this member and every *live* peer have reported
    /// applying, so long runs stop growing any member's log — and the
    /// resync cost of the next rejoin. A member asked for ops below its log
    /// start (a rejoin, or a peer behind a member that has since claimed
    /// the primary role) answers with a full [`StateTransfer`] instead of
    /// replay.
    fn truncate_acked_oplog(&mut self, now: SimTime) {
        let timeout = self.cfg.group_session_timeout;
        let Some(g) = self.group.as_mut() else { return };
        if !g.ready || g.members.len() < 2 {
            return;
        }
        let mut floor = g.applied_seq;
        for i in 0..g.members.len() {
            if i == g.index {
                continue;
            }
            if g.peer_alive(i, now, timeout) {
                // A live recovering member reports 0 until its sync lands,
                // which (correctly) freezes truncation meanwhile.
                floor = floor.min(g.peer_seq[i]);
            }
        }
        if floor <= g.log_start {
            return;
        }
        let drop = (floor - g.log_start) as usize;
        g.oplog.drain(..drop);
        g.truncated_ops += drop as u64;
        g.log_start = floor;
    }

    fn send_heartbeats(&mut self, ctx: &mut Ctx<'_>) {
        let Some(g) = self.group.as_ref() else { return };
        let hb = StoreRpc::GroupHeartbeat {
            from: g.index as u32,
            epoch: g.epoch,
            primary: g.primary as u32,
            applied_seq: g.applied_seq,
            ready: g.ready,
        };
        for p in g.peers() {
            ctx.send(p, hb.clone());
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
        // Until real heartbeats land, assume peers were alive "now" so a
        // fresh start does not immediately declare everyone dead.
        let now = ctx.now();
        g.awake_since = now;
        if !g.ready {
            g.recovery = Some(StoreRecoveryInfo {
                restarted_at: now,
                resynced_at: None,
                sync_ops: 0,
                sync_bytes: 0,
            });
            self.tele
                .trace_begin(now, &self.name, "recovery:resync", "recovery");
        }
        ctx.set_timer(self.cfg.group_heartbeat_interval, tags::GROUP_HB_TICK);
        // A follower's first fetch, or a rejoin's to every peer.
        self.refetch(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, msg: Box<dyn Message>) {
        let Ok(rpc) = downcast::<StoreRpc>(msg) else {
            return;
        };
        if let Some(g) = self.group.as_mut() {
            g.heard_from(from, ctx.now(), self.cfg.group_heartbeat_interval);
        }
        match *rpc {
            StoreRpc::Forward { origin, rpc } => {
                // Only the acting primary serves proxied requests; anything
                // else drops them (the client's retry rotates onward).
                if self.is_primary() && self.group.is_some() {
                    self.handle_client_rpc(ctx, origin, *rpc);
                }
            }
            StoreRpc::Fetch {
                corr,
                from: idx,
                after,
                epoch,
                ready,
            } => self.handle_fetch(ctx, corr, idx, after, epoch, ready),
            reply @ StoreRpc::FetchReply { .. } => self.handle_fetch_reply(ctx, from, reply),
            StoreRpc::GroupHeartbeat {
                from: idx,
                epoch,
                primary,
                applied_seq,
                ready,
            } => self.handle_heartbeat(ctx, idx, epoch, primary, applied_seq, ready),
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
            tags::GROUP_HB_TICK => {
                self.send_heartbeats(ctx);
                self.try_claim_primary(ctx);
                self.truncate_acked_oplog(ctx.now());
                self.refetch(ctx);
                self.telemetry_gauges();
                ctx.set_timer(self.cfg.group_heartbeat_interval, tags::GROUP_HB_TICK);
            }
            _ => {}
        }
    }

    fn on_cpu_done(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if tag >= tags::CPU_BASE {
            if let Some((to, rpc)) = self.pending.remove(&tag) {
                ctx.send(to, rpc);
            }
        }
    }
}

impl std::fmt::Debug for StoreServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreServer")
            .field("kv_keys", &self.kv.len())
            .field("table_rows", &self.tables.total_rows())
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
            s.set_group(vec![ProcessId(0)], 0, false);
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
                .set_group(pids.clone(), i, false);
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
    fn failover_promotes_the_next_member() {
        let mut sim = Sim::new(0);
        let pids = spawn_group(&mut sim, 3);
        let client = sim.spawn(Box::new(TestClient {
            store: pids[0],
            acks: 0,
            got: None,
        }));
        sim.run_until(SimTime::from_secs(5));
        // Kill the primary; member 1 must claim within the session timeout.
        sim.kill(pids[0]);
        sim.run_until(SimTime::from_secs(10));
        let s1 = sim.process_ref::<StoreServer>(pids[1]).unwrap();
        assert!(s1.is_primary(), "member 1 claimed after the primary died");
        assert!(s1.group_epoch() > 0, "claim bumped the group epoch");
        let s2 = sim.process_ref::<StoreServer>(pids[2]).unwrap();
        assert!(!s2.is_primary());
        assert_eq!(s2.group_epoch(), s1.group_epoch(), "epoch propagated");
        let _ = client;
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
            let bits = server.apply_op(&op);
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

    fn group(sim: &Sim, pid: ProcessId) -> &GroupState {
        let server = sim.process_ref::<StoreServer>(pid).expect("a store server");
        server.group.as_ref().expect("grouped")
    }

    fn at_micros(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    /// The default transport's one-way delay plus `cpu_per_op`, as the ack
    /// instants below count them.
    const HOP_US: u64 = 10;
    const CPU_US: u64 = 40;

    #[test]
    fn a_stale_epoch_heartbeat_acks_no_write() {
        let mut sim = Sim::new(0);
        let primary = sim.spawn(Box::new(StoreServer::new(StoreConfig::default())));
        let members = vec![
            primary,
            sim.spawn(Box::new(Silent)),
            sim.spawn(Box::new(Silent)),
        ];
        let server = sim.process_mut::<StoreServer>(primary).unwrap();
        server.set_group(members.clone(), 0, false);
        let writer = Writer::spawn(&mut sim, primary, at_micros(2_000), 1, 1);
        let hb = |from: u32, epoch: u64, primary: u32, applied_seq: u64| {
            let ready = true;
            StoreRpc::GroupHeartbeat {
                from,
                epoch,
                primary,
                applied_seq,
                ready,
            }
        };
        // Member 1 announces epoch 1 with member 0 still primary, so member
        // 0 goes on serving under it; then the write waits for a quorum.
        sim.inject_at(at_micros(1_000), primary, hb(1, 1, 0, 0));
        // Member 2, still in epoch 0, reports far more than member 0 holds:
        // progress under another epoch acks nothing.
        sim.inject_at(at_micros(5_000), primary, hb(2, 0, 2, 99));
        sim.run_until(at_micros(50_000));
        assert_eq!(group(&sim, primary).epoch, 1);
        let acked = &sim.process_ref::<Writer>(writer).unwrap().acked;
        assert!(acked.is_empty(), "acked by a stale epoch: {acked:?}");
        // The same report under the primary's epoch is a quorum.
        sim.inject_at(at_micros(60_000), primary, hb(2, 1, 0, 1));
        sim.run_until(at_micros(100_000));
        let acked = &sim.process_ref::<Writer>(writer).unwrap().acked;
        assert_eq!(acked, &[at_micros(60_000 + CPU_US + HOP_US)]);
    }

    #[test]
    fn a_reply_to_an_earlier_incarnation_completes_nothing() {
        let mut sim = Sim::new(0);
        let (a, b) = (sim.spawn(Box::new(Silent)), sim.spawn(Box::new(Silent)));
        let mut server = StoreServer::new(StoreConfig::default());
        server.set_incarnation(1);
        let me = sim.spawn(Box::new(server));
        let members = vec![a, b, me];
        (sim.process_mut::<StoreServer>(me).unwrap()).set_group(members, 2, true);
        let reply = |corr: u64, key: &str| StoreRpc::FetchReply {
            corr,
            epoch: 0,
            primary: 0,
            after: 0,
            entries: vec![StoreOp::Put {
                key: key.into(),
                value: Bytes::from_static(b"v"),
            }],
            snapshot: None,
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
        assert_eq!(group(&sim, pids[1]).applied_seq, 0, "the reply was lost");
        assert_eq!(group(&sim, pids[2]).applied_seq, 1);
        let two_intervals = StoreConfig::default().group_heartbeat_interval * 2;
        sim.run_until(write + two_intervals);
        assert_eq!(group(&sim, pids[1]).applied_seq, 1);
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
                assert!(group(&sim, *follower).awaiting.is_some(), "at {t}");
            }
            t += SimDuration::from_millis(1);
        }
        assert_eq!(sim.process_ref::<Writer>(writer).unwrap().acked.len(), 200);
        for pid in &pids {
            assert_eq!(group(&sim, *pid).applied_seq, 200);
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
            client: crate::BlobClient::new(pids.clone(), 1 << 40, 0),
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
            assert!(group(&sim, *pid).log_start >= 1, "the put was truncated");
        }
        let mut rejoin = StoreServer::new(StoreConfig::default());
        rejoin.set_incarnation(1);
        rejoin.set_group(pids.clone(), 2, true);
        sim.respawn(pids[2], Box::new(rejoin));
        sim.run_until(get_at + SimDuration::from_secs(1));
        assert_eq!(
            group(&sim, pids[2]).log_start,
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
