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
//! quorum runs on too: its election and its pulled op log. The primary is
//! elected by vote; the group epoch is the election term, and each op-log
//! entry carries the term it was written in. A member votes once per term,
//! for a candidate whose (last entry term, applied sequence) is at least
//! its own; a member still recovering from a restart votes for nobody.
//! Member 0 leads term 0 at boot, so a group without faults holds no
//! election. What only the store does stays here: the state transfer, the
//! recovering member's rule and the client acks.
//!
//! Followers pull. Each keeps exactly one [`StoreRpc::Fetch`] outstanding
//! at the primary, naming where its log ends: `after` and the term of that
//! entry. Under the primary's own term, `after` also acknowledges every op
//! up to it. The primary answers at once with the ops after `after`, or
//! with its full [`StateTransfer`] when `after` is below its truncated log
//! start or the fetcher's tail diverges from its log: the fetcher is wiped
//! and refetched in one reply. With nothing newer it holds the fetch until
//! its next append, and answers it empty after `group_heartbeat_interval`,
//! so its replies are its heartbeats; each carries its truncation floor. A
//! follower whose replies stop for an election timeout
//! (`group_session_timeout` plus up to one heartbeat interval, drawn at
//! random) stands for election, and a primary that no majority has
//! fetched from for a session timeout steps down. A member that knows no
//! primary sends its fetch to every peer, and the primary answers it. A
//! member recovering from a restart is answered by every peer and takes
//! the freshest state it is sent (see [`StoreServer::set_group`]).
//! Non-primary members proxy client requests to the primary, so a
//! [`BlobClient`](crate::BlobClient) that rotates endpoints on timeout
//! reaches the group through any live member.

use std::collections::BTreeMap;

use bytes::Bytes;
use s2g_sim::{
    downcast, Ctx, Fetch, Intake, LedgerHandle, MemSlot, Message, Process, ProcessId, Quorum,
    SimDuration, SimTime,
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
    pub(crate) fn wire_size(&self) -> usize {
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
    /// Member → member: asks for the op-log suffix after the sender's
    /// highest applied sequence (`fetch.after`, an op of `fetch.last_term`).
    /// Under the receiver's own term (`fetch.term`, the sender's group
    /// epoch), it also acknowledges every op up to it. Its request id
    /// carries the sender's incarnation ([`Ctx::next_corr`]).
    Fetch {
        /// Sender's member index.
        from: u32,
        /// Where the sender's log ends.
        fetch: Fetch,
    },
    /// Op-log suffix transfer answering a [`StoreRpc::Fetch`];
    /// `entries[i]` carries seq `after + 1 + i`.
    FetchReply {
        /// The fetch's request id.
        corr: u64,
        /// Responder's group epoch (its election term).
        epoch: u64,
        /// Whether the responder is the primary of `epoch`.
        leads: bool,
        /// The sequence the suffix starts after.
        after: u64,
        /// The ops after `after`, in sequence order, each with the term it
        /// was written in.
        entries: Vec<(u64, StoreOp)>,
        /// Full-state bootstrap, sent when the fetch's `after` is below the
        /// responder's log start (truncated by peer-acked op-log cleaning)
        /// or the fetcher's log diverges from the responder's there: the
        /// responder's complete state as of `after`. The receiver installs
        /// it in place of its own, adopts `after` as both its applied
        /// sequence and its log start, and applies `entries` (normally
        /// empty) on top.
        snapshot: Option<StateTransfer>,
        /// The responder's truncation floor (its log start): the receiver
        /// truncates its own log to it.
        floor: u64,
    },
    /// Candidate → member: asks for the member's vote in `term`.
    Vote {
        /// The term the candidate stands in.
        term: u64,
        /// Candidate's member index.
        from: u32,
        /// The term of the candidate's last op.
        last_term: u64,
        /// The candidate's highest applied sequence.
        applied: u64,
    },
    /// Member → candidate: the answer to a [`StoreRpc::Vote`].
    VoteReply {
        /// The member's term.
        term: u64,
        /// The member's index.
        from: u32,
        /// Whether the member voted for the candidate.
        granted: bool,
    },
}

/// A full-state transfer for group resync below the truncated log start.
#[derive(Debug, Clone, Default)]
pub struct StateTransfer {
    /// Every KV pair, each value the responder's stored buffer.
    pub kv: Vec<(String, Bytes)>,
    /// Every table as `(name, columns, rows)`.
    pub tables: Vec<(String, Vec<String>, Vec<Vec<String>>)>,
    /// The term of the last op the state holds.
    pub term: u64,
}

impl StateTransfer {
    /// Approximate wire size of the transfer.
    pub(crate) fn wire_size(&self) -> usize {
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
            StoreRpc::Fetch { .. } => 37,
            StoreRpc::Vote { .. } => 36,
            StoreRpc::VoteReply { .. } => 13,
            StoreRpc::FetchReply {
                entries, snapshot, ..
            } => {
                29 + entries
                    .iter()
                    .map(|(_, op)| 8 + op.wire_size())
                    .sum::<usize>()
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
    members: Vec<ProcessId>,
    index: usize,
    /// The election and the op log: op `seq` is log index `seq`, and the
    /// group epoch is the term. The primary truncates the prefix every live
    /// member holds, and followers truncate to the primary's floor; a
    /// member needing older history is brought back by a full
    /// [`StateTransfer`] instead of replay.
    q: Quorum<StoreOp>,
    /// While recovering: the peers whose answer this member took.
    answered: Vec<bool>,
    /// While primary: writes awaiting quorum, keyed by seq.
    pending_writes: BTreeMap<u64, PendingWrite>,
    recovery: Option<StoreRecoveryInfo>,
}

impl GroupState {
    /// Answers, in member order, the held fetches the log has grown past
    /// and then those whose deadline has come.
    fn answer_held(&mut self, ctx: &mut Ctx<'_>, db: &Stores) {
        let members = &self.members;
        (self.q).answer_held(ctx.now(), |q, i, f| serve(db, q, ctx, members[i], f));
    }

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

/// The KV and table stores, and the ledger slot their bytes go to.
struct Stores {
    kv: KvStore,
    tables: TableStore,
    mem: Option<(LedgerHandle, MemSlot)>,
}

impl Stores {
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

    /// Everything held, as of an op of `term`. Each value is the map's
    /// buffer, shared: the transfer copies keys, not blobs.
    fn snapshot(&self, term: u64) -> StateTransfer {
        StateTransfer {
            kv: (self.kv.entries())
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            tables: self.tables.dump(),
            term,
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
    /// `index` is this member's slot. Member 0 leads term 0. With
    /// `recovering` set (the respawn path) the member starts unready and
    /// knows no primary. It lost its log, and with it its share of the
    /// majority that holds each acked write, so it asks every peer for the
    /// op log and serves or votes only once all but a majority less one of
    /// them have answered: one of those holds every acked write, and the
    /// member keeps the freshest state it was sent.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_group(&mut self, members: Vec<ProcessId>, index: usize, recovering: bool) {
        let (n, cfg) = (members.len(), &self.cfg);
        let (timeout, beat) = (cfg.group_session_timeout, cfg.group_heartbeat_interval);
        let leader = (!recovering).then_some(0);
        self.group = Some(GroupState {
            members,
            index,
            q: Quorum::new(n, index, leader, !recovering, timeout, beat, beat),
            answered: vec![false; n],
            pending_writes: BTreeMap::new(),
            recovery: None,
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
        self.group.as_ref().and_then(|g| g.recovery)
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
        g.answer_held(ctx, &self.db);
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
                ctx.send(g.members[primary], StoreRpc::Forward { origin, rpc });
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

    /// Takes member `from`'s fetch, sent under `epoch`. A newer term
    /// deposes this member first. The primary holds a ready member's fetch
    /// that matches its log and has nothing after it until its next append
    /// or for a heartbeat interval, and answers any other at once; a fetch
    /// that matches its log under its term is that member's progress, and
    /// the primary then truncates the prefix that it and every live member
    /// hold (its replies carry the floor to its followers). Any other
    /// member answers only a member recovering from a restart, with what it
    /// holds.
    fn handle_fetch(&mut self, ctx: &mut Ctx<'_>, from: u32, fetch: Fetch) {
        let Some(g) = self.group.as_mut() else { return };
        let i = from as usize;
        if i >= g.members.len() || i == g.index {
            return;
        }
        let intake = g.q.take_fetch(ctx, i, fetch);
        if intake == Intake::Pass {
            if !fetch.ready {
                serve(&self.db, &g.q, ctx, g.members[i], fetch);
            }
            return;
        }
        if matches!(intake, Intake::Held | Intake::Answer { current: true }) {
            g.q.compact(ctx.now());
        }
        match intake {
            Intake::Held => {
                ctx.set_timer(self.cfg.group_heartbeat_interval, tags::HOLD_EXPIRY);
            }
            _ => serve(&self.db, &g.q, ctx, g.members[i], fetch),
        }
        g.ack_held(ctx, self.cfg.cpu_per_op);
    }

    /// Takes a fetch reply. The member follows a newer term, and takes the
    /// primary of its term from any reply it sends (a candidate concedes),
    /// which also puts off its election; a ready member ignores a reply of
    /// an older term. The reply to its outstanding fetch is applied, and
    /// the member truncates its log to the responder's floor.
    ///
    /// A member recovering from a restart lost, with its log, its share of
    /// the majority that holds each acked write. So it asks every peer, and
    /// takes an answer's state only if it is fresher than what it holds;
    /// it serves and votes once enough peers have answered that one of them
    /// holds every acked write (all but a majority less one), and casts no
    /// vote in the term it then has: it may have voted in it before.
    fn handle_fetch_reply(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, reply: StoreRpc) {
        let StoreRpc::FetchReply {
            corr,
            epoch,
            leads,
            after,
            entries,
            snapshot,
            floor,
        } = reply
        else {
            return;
        };
        let Some(g) = self.group.as_mut() else { return };
        let Some(i) = g.members.iter().position(|p| *p == from) else {
            return;
        };
        if !g.q.take_reply(ctx, corr, epoch, leads.then_some(i)) {
            return;
        }
        let ready = g.q.ready();
        g.answered[i] |= !ready;
        // A recovering member takes a state only if it is fresher than the
        // one an earlier answer gave it.
        let ours = (g.q.last_term(), g.q.log_end());
        let snapshot = snapshot.filter(|snap| ready || (snap.term, after) > ours);
        let (mut sync_ops, mut sync_bytes) = (0u64, 0u64);
        if let Some(snap) = snapshot {
            // Bootstrap from the full state transfer: install it, adopt the
            // responder's applied sequence, and start an empty log there.
            sync_bytes += snap.wire_size() as u64;
            let rows: usize = snap.tables.iter().map(|(_, _, rows)| rows.len()).sum();
            sync_ops += (snap.kv.len() + rows) as u64;
            g.q.restart(after, snap.term);
            self.db.install(snap);
        }
        for (seq, (term, op)) in (after + 1..).zip(entries) {
            if seq != g.q.log_end() + 1 {
                continue; // already applied
            }
            self.db.apply(&op);
            sync_ops += 1;
            sync_bytes += op.wire_size() as u64;
            g.q.push(term, op);
        }
        g.q.truncate_to(floor);
        if ready {
            return;
        }
        if let Some(r) = g.recovery.as_mut() {
            r.sync_ops += sync_ops;
            r.sync_bytes += sync_bytes;
        }
        let (n, answers) = (g.answered.len(), g.answered.iter().filter(|a| **a).count());
        if answers > n - (n / 2 + 1) {
            g.q.set_ready(ctx);
            if let Some(r) = g.recovery.as_mut() {
                r.resynced_at = Some(ctx.now());
            }
            self.tele
                .trace_end(ctx.now(), &self.name, "recovery:resync", "recovery");
        }
    }

    /// Takes a candidate's request for this member's vote. A member still
    /// recovering from a restart votes for nobody.
    fn handle_vote(&mut self, ctx: &mut Ctx<'_>, from: u32, term: u64, last_term: u64, at: u64) {
        let Some(g) = self.group.as_mut() else { return };
        let i = from as usize;
        if !g.q.ready() || i >= g.members.len() {
            return;
        }
        let granted = g.q.vote(ctx, term, i, (last_term, at));
        let (term, from) = (g.q.term(), g.index as u32);
        let reply = StoreRpc::VoteReply {
            term,
            from,
            granted,
        };
        ctx.send(g.members[i], reply);
    }

    /// The election timer: the primary steps down when no majority has
    /// fetched from it for a session timeout, and a ready member that is
    /// not the primary stands once its election deadline has passed,
    /// asking every peer for its vote. One timer is kept armed: at the
    /// deadline, which replies may have put off by the time it fires, or a
    /// session timeout on.
    fn election_timer(&mut self, ctx: &mut Ctx<'_>) {
        let Some(g) = self.group.as_mut() else { return };
        let (stood, next) = g.q.tick(ctx);
        if stood {
            let (term, from) = (g.q.term(), g.index as u32);
            let (last_term, applied) = (g.q.last_term(), g.q.log_end());
            for (_, &pid) in g.members.iter().enumerate().filter(|(j, _)| *j != g.index) {
                let vote = StoreRpc::Vote {
                    term,
                    from,
                    last_term,
                    applied,
                };
                ctx.send(pid, vote);
            }
        }
        ctx.set_timer_at(next, tags::ELECTION);
    }

    /// Keeps one fetch outstanding on every member but the primary: a new
    /// one when none is out or the one out is `stale_after` old — a fetch
    /// or reply was lost, or the primary died. It goes to the primary, or
    /// to every peer when the member knows none (the first answer wins) or
    /// is recovering (to each peer that has not answered yet).
    fn refetch(&mut self, ctx: &mut Ctx<'_>, stale_after: SimDuration) {
        let Some(g) = self.group.as_mut() else { return };
        if g.q.fetch_due_at(stale_after) > ctx.now() {
            return;
        }
        let (fetch, to) = g.q.fetch(ctx);
        let from = g.index as u32;
        let ask = |j: usize| match to {
            Some(to) => j == to,
            None => j != g.index && (fetch.ready || !g.answered[j]),
        };
        for (_, &pid) in g.members.iter().enumerate().filter(|(j, _)| ask(*j)) {
            ctx.send(pid, StoreRpc::Fetch { from, fetch });
        }
    }
}

/// Sends member `to` the log after `fetch`'s end: the suffix, or the full
/// state when this log does not hold the fetcher's last op under its term —
/// it was truncated away by peer-acked cleaning, or the fetcher's tail
/// diverges from this log.
fn serve(db: &Stores, q: &Quorum<StoreOp>, ctx: &mut Ctx<'_>, to: ProcessId, fetch: Fetch) {
    let (after, entries, snapshot) = match q.suffix(&fetch) {
        // Keys are copied; each value is the log's buffer, shared.
        Some(entries) => (fetch.after, entries.to_vec(), None),
        None => (q.log_end(), Vec::new(), Some(db.snapshot(q.last_term()))),
    };
    let reply = StoreRpc::FetchReply {
        corr: fetch.corr,
        epoch: q.term(),
        leads: q.leads(),
        after,
        entries,
        snapshot,
        floor: q.log_start(),
    };
    ctx.send(to, reply);
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
        g.q.start(ctx);
        if !g.q.ready() {
            let now = ctx.now();
            g.recovery = Some(StoreRecoveryInfo {
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
        let Ok(rpc) = downcast::<StoreRpc>(msg) else {
            return;
        };
        match *rpc {
            StoreRpc::Forward { origin, rpc } => {
                // Only the acting primary serves proxied requests; anything
                // else drops them (the client's retry rotates onward).
                if self.is_primary() && self.group.is_some() {
                    self.handle_client_rpc(ctx, origin, *rpc);
                }
            }
            StoreRpc::Fetch { from: idx, fetch } => self.handle_fetch(ctx, idx, fetch),
            reply @ StoreRpc::FetchReply { .. } => self.handle_fetch_reply(ctx, from, reply),
            StoreRpc::Vote {
                term,
                from: idx,
                last_term,
                applied,
            } => self.handle_vote(ctx, idx, term, last_term, applied),
            StoreRpc::VoteReply {
                term,
                from: idx,
                granted,
            } => {
                if let Some(g) = self.group.as_mut() {
                    // A new primary's writes start afresh.
                    if g.q.tally(ctx, term, idx as usize, granted) {
                        g.pending_writes.clear();
                    }
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
                    g.answer_held(ctx, &self.db);
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
        rejoin.set_group(pids.clone(), 0, true);
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
        server.set_group(members.clone(), 0, false);
        let fetch = |term: u64, after: u64, last_term: u64| {
            let (corr, from, ready) = (0, 2, true);
            let fetch = Fetch {
                corr,
                after,
                last_term,
                term,
                ready,
            };
            StoreRpc::Fetch { from, fetch }
        };
        // Member 0 leads term 0, where a write (seq 1) waits for a quorum.
        let first = Writer::spawn(&mut sim, primary, at_micros(1_000), 1, 1);
        // Member 1 stands in term 1 holding it, and member 0 votes for it:
        // it no longer leads, so member 2's report of the write under term
        // 0 acks nothing.
        let (term, from, last_term, applied) = (1, 1, 0, 1);
        let vote = StoreRpc::Vote {
            term,
            from,
            last_term,
            applied,
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
        let granted = StoreRpc::VoteReply {
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
        server.set_group(vec![a, me], 1, true);
        sim.respawn(me, Box::new(server));
        let reply = |corr: u64, key: &str| StoreRpc::FetchReply {
            corr,
            epoch: 0,
            leads: false,
            after: 0,
            entries: vec![(
                0,
                StoreOp::Put {
                    key: key.into(),
                    value: Bytes::from_static(b"v"),
                },
            )],
            snapshot: None,
            floor: 0,
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
                let due = quorum(&sim, *follower).fetch_due_at(SimDuration::MAX);
                assert_eq!(due, SimTime::MAX, "a fetch is out at {t}");
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
        rejoin.set_group(pids.clone(), 2, true);
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
