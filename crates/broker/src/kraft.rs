//! KRaft-mode controller: a Raft quorum replicating the metadata log.
//!
//! Each [`KraftController`] is one quorum member. The Raft leader acts as the
//! *active controller*: it tracks broker sessions, proposes metadata records
//! (fencing, leader changes, ISR updates, preferred elections) into the
//! replicated log, and only acts on them once they commit on a majority.
//! Followers replicate and apply the same records, so any member can take
//! over. This is the coordination mode under which the paper "was not able
//! to observe" the silent-loss behavior of Fig. 6b.

use std::collections::{BTreeMap, BTreeSet};

use rand::Rng;

use s2g_proto::{BrokerId, ControllerRpc, MetadataRecord, RaftRpc};
use s2g_sim::{downcast, Ctx, Message, Process, ProcessId, SimDuration, SimTime};

use crate::config::{ControllerConfig, TopicSpec};
use crate::controller::{plan_with_racks, BrokerFrontEnd, ClusterState};

mod tags {
    pub const ELECTION_CHECK: u64 = 1;
    pub const LEADER_TICK: u64 = 2;
    pub const SESSION_CHECK: u64 = 3;
    pub const PREFERRED_CHECK: u64 = 4;
}

/// How often candidates/followers check their election deadline.
const ELECTION_CHECK_EVERY: SimDuration = SimDuration::from_millis(100);
/// Base election timeout; actual deadline adds a random 0..base.
const ELECTION_TIMEOUT_BASE: SimDuration = SimDuration::from_millis(1_500);
/// Leader append/heartbeat period.
const LEADER_TICK_EVERY: SimDuration = SimDuration::from_millis(300);
/// Max entries shipped per AppendEntries.
const MAX_ENTRIES_PER_APPEND: usize = 64;

#[derive(Debug)]
enum RaftRole {
    Follower {
        /// Kept for debugging visibility in `{:?}` dumps.
        #[allow(dead_code)]
        leader: Option<BrokerId>,
    },
    Candidate {
        votes: BTreeSet<BrokerId>,
    },
    Leader {
        next_index: BTreeMap<BrokerId, usize>,
        match_index: BTreeMap<BrokerId, usize>,
    },
}

/// One member of the KRaft controller quorum.
pub struct KraftController {
    me: BrokerId,
    quorum: BTreeMap<BrokerId, ProcessId>,
    cfg: ControllerConfig,
    topics: Vec<TopicSpec>,
    /// Rack/host labels steering the bootstrap replica placement; brokers
    /// missing from the map count as a rack of their own.
    racks: BTreeMap<BrokerId, String>,

    // Raft state.
    term: u64,
    voted_for: Option<BrokerId>,
    log: Vec<(u64, MetadataRecord)>,
    commit: usize,
    applied: usize,
    role: RaftRole,
    election_deadline: SimTime,

    /// The replicated state machine plus the leader-local soft state
    /// (sessions, incarnations) the active controller serves brokers from.
    front: BrokerFrontEnd,
    bootstrapped: bool,
    name: String,
}

impl KraftController {
    /// Creates a quorum member.
    ///
    /// `quorum` maps every controller id (including `me`) to its process id;
    /// `brokers` maps the data-plane brokers. Controller ids must not
    /// collide with broker ids.
    pub fn new(
        me: BrokerId,
        quorum: BTreeMap<BrokerId, ProcessId>,
        brokers: BTreeMap<BrokerId, ProcessId>,
        cfg: ControllerConfig,
        topics: Vec<TopicSpec>,
    ) -> Self {
        Self::with_racks(me, quorum, brokers, cfg, topics, BTreeMap::new())
    }

    /// Like [`KraftController::new`], but with rack/host labels steering
    /// replica placement at bootstrap: followers land on racks not already
    /// holding a replica whenever the rack count allows it.
    pub fn with_racks(
        me: BrokerId,
        quorum: BTreeMap<BrokerId, ProcessId>,
        brokers: BTreeMap<BrokerId, ProcessId>,
        cfg: ControllerConfig,
        topics: Vec<TopicSpec>,
        racks: BTreeMap<BrokerId, String>,
    ) -> Self {
        assert!(quorum.contains_key(&me), "quorum must include this member");
        assert!(
            quorum.keys().all(|q| !brokers.contains_key(q)),
            "controller ids must not collide with broker ids"
        );
        let name = format!("kraft-{}", me.0);
        KraftController {
            me,
            quorum,
            cfg,
            topics,
            racks,
            term: 0,
            voted_for: None,
            log: Vec::new(),
            commit: 0,
            applied: 0,
            role: RaftRole::Follower { leader: None },
            election_deadline: SimTime::ZERO,
            front: BrokerFrontEnd::new(ClusterState::new(), brokers),
            bootstrapped: false,
            name,
        }
    }

    /// True if this member currently believes it is the Raft leader (the
    /// active controller).
    pub fn is_active(&self) -> bool {
        matches!(self.role, RaftRole::Leader { .. })
    }

    /// The current Raft term.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Committed log length.
    pub fn committed(&self) -> usize {
        self.commit
    }

    /// The applied cluster state.
    pub fn state(&self) -> &ClusterState {
        &self.front.state
    }

    /// Applied decisions with timestamps.
    pub fn decisions(&self) -> &[(SimTime, MetadataRecord)] {
        &self.front.decisions
    }

    /// The replicated log (term, record) — for consistency assertions.
    pub fn raft_log(&self) -> &[(u64, MetadataRecord)] {
        &self.log
    }

    fn majority(&self) -> usize {
        self.quorum.len() / 2 + 1
    }

    fn last_log_term(&self) -> u64 {
        self.log.last().map(|(t, _)| *t).unwrap_or(0)
    }

    fn reset_election_deadline(&mut self, ctx: &mut Ctx<'_>) {
        let jitter = ctx.rng().gen_range(0..=ELECTION_TIMEOUT_BASE.as_nanos());
        self.election_deadline =
            ctx.now() + ELECTION_TIMEOUT_BASE + SimDuration::from_nanos(jitter);
    }

    fn become_follower(&mut self, ctx: &mut Ctx<'_>, term: u64, leader: Option<BrokerId>) {
        self.term = term;
        self.role = RaftRole::Follower { leader };
        self.voted_for = None;
        self.reset_election_deadline(ctx);
    }

    fn start_election(&mut self, ctx: &mut Ctx<'_>) {
        self.term += 1;
        self.voted_for = Some(self.me);
        let mut votes = BTreeSet::new();
        votes.insert(self.me);
        self.role = RaftRole::Candidate { votes };
        self.reset_election_deadline(ctx);
        let req = RaftRpc::RequestVote {
            term: self.term,
            candidate: self.me,
            last_log_index: self.log.len() as u64,
            last_log_term: self.last_log_term(),
        };
        for (&id, &pid) in self.quorum.clone().iter() {
            if id != self.me {
                ctx.send(pid, req.clone());
            }
        }
        if self.quorum.len() == 1 {
            self.become_leader(ctx);
        }
    }

    fn become_leader(&mut self, ctx: &mut Ctx<'_>) {
        let mut next_index = BTreeMap::new();
        let mut match_index = BTreeMap::new();
        for &id in self.quorum.keys() {
            if id != self.me {
                next_index.insert(id, self.log.len());
                match_index.insert(id, 0usize);
            }
        }
        self.role = RaftRole::Leader {
            next_index,
            match_index,
        };
        // Term-start entry: lets the new leader commit prior-term entries
        // (Raft §5.4.2 no-op). We reuse a harmless registration record.
        let noop = MetadataRecord::BrokerRegistered { broker: self.me };
        self.propose(vec![noop]);
        if !self.bootstrapped
            && !self.front.brokers.is_empty()
            && !self.topics.is_empty()
            && self.log.iter().all(|(_, r)| !is_partition_change(r))
        {
            // First leadership over an empty metadata log: install the
            // initial topic assignment.
            let plan = plan_with_racks(&self.topics, &self.front.brokers, &self.racks);
            let mut records: Vec<MetadataRecord> = self
                .front
                .brokers
                .keys()
                .map(|b| MetadataRecord::BrokerRegistered { broker: *b })
                .collect();
            for p in &plan {
                self.front.state.install_assignment(p);
                records.push(MetadataRecord::PartitionChange {
                    tp: p.tp.clone(),
                    leader: p.leader,
                    isr: p.isr.clone(),
                    epoch: p.epoch,
                });
            }
            self.propose(records);
            self.bootstrapped = true;
        }
        self.leader_tick(ctx);
    }

    fn propose(&mut self, records: Vec<MetadataRecord>) {
        if !matches!(self.role, RaftRole::Leader { .. }) {
            return;
        }
        let term = self.term;
        for r in records {
            // Avoid duplicate uncommitted proposals (session checks repeat
            // until the failure records commit).
            let pending = self.log[self.commit..]
                .iter()
                .any(|(_, existing)| *existing == r);
            if !pending {
                self.log.push((term, r));
            }
        }
        self.maybe_commit();
    }

    fn leader_tick(&mut self, ctx: &mut Ctx<'_>) {
        let RaftRole::Leader { next_index, .. } = &self.role else {
            return;
        };
        let sends: Vec<(ProcessId, RaftRpc)> = self
            .quorum
            .iter()
            .filter(|(id, _)| **id != self.me)
            .map(|(id, pid)| {
                let ni = next_index.get(id).copied().unwrap_or(self.log.len());
                let prev_log_index = ni;
                let prev_log_term = if ni == 0 { 0 } else { self.log[ni - 1].0 };
                let entries: Vec<(u64, MetadataRecord)> = self
                    .log
                    .iter()
                    .skip(ni)
                    .take(MAX_ENTRIES_PER_APPEND)
                    .cloned()
                    .collect();
                (
                    *pid,
                    RaftRpc::AppendEntries {
                        term: self.term,
                        leader: self.me,
                        prev_log_index: prev_log_index as u64,
                        prev_log_term,
                        entries,
                        leader_commit: self.commit as u64,
                    },
                )
            })
            .collect();
        for (pid, rpc) in sends {
            ctx.send(pid, rpc);
        }
    }

    fn maybe_commit(&mut self) {
        let RaftRole::Leader { match_index, .. } = &self.role else {
            return;
        };
        let majority = self.majority();
        for n in (self.commit + 1..=self.log.len()).rev() {
            if self.log[n - 1].0 != self.term {
                continue; // only commit entries from the current term directly
            }
            let replicas = 1 + match_index.values().filter(|m| **m >= n).count();
            if replicas >= majority {
                self.commit = n;
                break;
            }
        }
    }

    fn apply_committed(&mut self, ctx: &mut Ctx<'_>) {
        if self.applied >= self.commit {
            return;
        }
        let batch: Vec<MetadataRecord> = self.log[self.applied..self.commit]
            .iter()
            .map(|(_, r)| r.clone())
            .collect();
        self.applied = self.commit;
        self.front.apply(ctx.now(), &batch);
        // Only the active controller pushes instructions to brokers.
        if self.is_active() {
            self.front.publish(ctx, &batch);
        }
    }

    /// Reconciles the local log with a leader's `entries`, which follow its
    /// entry `prev` (of term `prev_log_term`): drops a conflicting suffix,
    /// then appends what is new. Returns whether the logs were consistent
    /// at `prev`, and the index up to which they now match.
    fn append_entries(
        &mut self,
        prev: usize,
        prev_log_term: u64,
        entries: Vec<(u64, MetadataRecord)>,
    ) -> (bool, usize) {
        let consistent =
            prev <= self.log.len() && (prev == 0 || self.log[prev - 1].0 == prev_log_term);
        if !consistent {
            return (false, self.log.len().min(prev));
        }
        let mut insert_at = prev;
        for (i, e) in entries.iter().enumerate() {
            let idx = prev + i;
            if idx < self.log.len() {
                if self.log[idx].0 != e.0 {
                    self.log.truncate(idx);
                    insert_at = idx;
                    break;
                }
                insert_at = idx + 1;
            } else {
                insert_at = idx;
                break;
            }
        }
        for (i, e) in entries.into_iter().enumerate() {
            let idx = prev + i;
            if idx >= insert_at.min(self.log.len()) && idx >= self.log.len() {
                self.log.push(e);
            }
        }
        (true, self.log.len())
    }

    fn handle_raft(&mut self, ctx: &mut Ctx<'_>, rpc: RaftRpc) {
        match rpc {
            RaftRpc::RequestVote {
                term,
                candidate,
                last_log_index,
                last_log_term,
            } => {
                if term > self.term {
                    self.become_follower(ctx, term, None);
                }
                let up_to_date = (last_log_term, last_log_index)
                    >= (self.last_log_term(), self.log.len() as u64);
                let grant = term == self.term
                    && up_to_date
                    && (self.voted_for.is_none() || self.voted_for == Some(candidate));
                if grant {
                    self.voted_for = Some(candidate);
                    self.reset_election_deadline(ctx);
                }
                if let Some(&pid) = self.quorum.get(&candidate) {
                    ctx.send(
                        pid,
                        RaftRpc::VoteResponse {
                            term: self.term,
                            granted: grant,
                            from: self.me,
                        },
                    );
                }
            }
            RaftRpc::VoteResponse {
                term,
                granted,
                from,
            } => {
                if term > self.term {
                    self.become_follower(ctx, term, None);
                    return;
                }
                if term != self.term {
                    return;
                }
                let majority = self.majority();
                let won = match &mut self.role {
                    RaftRole::Candidate { votes } if granted => {
                        votes.insert(from);
                        votes.len() >= majority
                    }
                    _ => false,
                };
                if won {
                    self.become_leader(ctx);
                }
            }
            RaftRpc::AppendEntries {
                term,
                leader,
                prev_log_index,
                prev_log_term,
                entries,
                leader_commit,
            } => {
                if term < self.term {
                    if let Some(&pid) = self.quorum.get(&leader) {
                        ctx.send(
                            pid,
                            RaftRpc::AppendResponse {
                                term: self.term,
                                success: false,
                                match_index: self.log.len() as u64,
                                from: self.me,
                            },
                        );
                    }
                    return;
                }
                self.become_follower(ctx, term, Some(leader));
                let (success, match_index) =
                    self.append_entries(prev_log_index as usize, prev_log_term, entries);
                if success {
                    let new_commit = (leader_commit as usize).min(self.log.len());
                    if new_commit > self.commit {
                        self.commit = new_commit;
                        self.apply_committed(ctx);
                    }
                }
                if let Some(&pid) = self.quorum.get(&leader) {
                    ctx.send(
                        pid,
                        RaftRpc::AppendResponse {
                            term: self.term,
                            success,
                            match_index: match_index as u64,
                            from: self.me,
                        },
                    );
                }
            }
            RaftRpc::AppendResponse {
                term,
                success,
                match_index,
                from,
            } => {
                if term > self.term {
                    self.become_follower(ctx, term, None);
                    return;
                }
                let RaftRole::Leader {
                    next_index,
                    match_index: mi,
                } = &mut self.role
                else {
                    return;
                };
                if success {
                    mi.insert(from, match_index as usize);
                    next_index.insert(from, match_index as usize);
                } else {
                    let ni = next_index.entry(from).or_insert(0);
                    *ni = (match_index as usize).min(ni.saturating_sub(1));
                }
                self.maybe_commit();
                self.apply_committed(ctx);
            }
        }
    }

    fn handle_broker(&mut self, ctx: &mut Ctx<'_>, rpc: ControllerRpc) {
        if !self.is_active() {
            return; // only the active controller serves brokers
        }
        match rpc {
            ControllerRpc::Heartbeat {
                broker,
                incarnation,
            } => {
                let (was_dead, bounced) = self.front.heartbeat(ctx.now(), broker, incarnation);
                if was_dead {
                    // Re-registration goes through the quorum.
                    self.propose(vec![MetadataRecord::BrokerRegistered { broker }]);
                    self.leader_tick(ctx);
                }
                if was_dead || bounced {
                    self.front.reteach(ctx, broker);
                }
                self.front.ack_heartbeat(ctx, broker);
            }
            ControllerRpc::AlterIsr {
                tp,
                from,
                epoch,
                new_isr,
            } => {
                let state = &self.front.state;
                let records = state.changes_for_alter_isr(&tp, from, epoch, &new_isr);
                self.propose(records);
                self.leader_tick(ctx);
            }
            _ => {}
        }
    }
}

fn is_partition_change(r: &MetadataRecord) -> bool {
    matches!(r, MetadataRecord::PartitionChange { .. })
}

impl Process for KraftController {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.front.start_sessions(ctx.now());
        self.reset_election_deadline(ctx);
        ctx.set_timer(ELECTION_CHECK_EVERY, tags::ELECTION_CHECK);
        ctx.set_timer(LEADER_TICK_EVERY, tags::LEADER_TICK);
        ctx.set_timer(self.cfg.session_check_interval, tags::SESSION_CHECK);
        ctx.set_timer(self.cfg.preferred_election_delay, tags::PREFERRED_CHECK);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ProcessId, msg: Box<dyn Message>) {
        let msg = match downcast::<RaftRpc>(msg) {
            Ok(rpc) => return self.handle_raft(ctx, *rpc),
            Err(m) => m,
        };
        if let Ok(rpc) = downcast::<ControllerRpc>(msg) {
            self.handle_broker(ctx, *rpc);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        match tag {
            tags::ELECTION_CHECK => {
                if !self.is_active() && ctx.now() >= self.election_deadline {
                    self.start_election(ctx);
                }
                ctx.set_timer(ELECTION_CHECK_EVERY, tags::ELECTION_CHECK);
            }
            tags::LEADER_TICK => {
                if self.is_active() {
                    self.leader_tick(ctx);
                    self.apply_committed(ctx);
                }
                ctx.set_timer(LEADER_TICK_EVERY, tags::LEADER_TICK);
            }
            tags::SESSION_CHECK => {
                if self.is_active() {
                    let timeout = self.cfg.session_timeout;
                    for b in self.front.expired_sessions(ctx.now(), timeout) {
                        let records = self.front.state.changes_for_broker_failure(b);
                        self.propose(records);
                    }
                    self.leader_tick(ctx);
                }
                ctx.set_timer(self.cfg.session_check_interval, tags::SESSION_CHECK);
            }
            tags::PREFERRED_CHECK => {
                if self.is_active() {
                    let records = self.front.state.changes_for_preferred_election();
                    self.propose(records);
                    let recover = self.front.state.changes_for_offline_recovery();
                    self.propose(recover);
                    self.leader_tick(ctx);
                }
                ctx.set_timer(self.cfg.preferred_election_delay, tags::PREFERRED_CHECK);
            }
            _ => {}
        }
    }
}

impl std::fmt::Debug for KraftController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KraftController")
            .field("me", &self.me)
            .field("term", &self.term)
            .field("log_len", &self.log.len())
            .field("commit", &self.commit)
            .field("active", &self.is_active())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2g_sim::Sim;

    fn spawn_quorum(sim: &mut Sim, n: u32) -> Vec<ProcessId> {
        // Reserve pids first by spawning placeholders is not possible; instead
        // compute pids deterministically: they are assigned sequentially.
        let base = sim.process_count() as u32;
        let quorum: BTreeMap<BrokerId, ProcessId> = (0..n)
            .map(|i| (BrokerId(1000 + i), ProcessId(base + i)))
            .collect();
        let mut pids = Vec::new();
        for i in 0..n {
            let c = KraftController::new(
                BrokerId(1000 + i),
                quorum.clone(),
                BTreeMap::new(),
                ControllerConfig::default(),
                vec![],
            );
            pids.push(sim.spawn(Box::new(c)));
        }
        pids
    }

    #[test]
    fn quorum_elects_exactly_one_leader() {
        let mut sim = Sim::new(7);
        let pids = spawn_quorum(&mut sim, 3);
        sim.run_until(SimTime::from_secs(20));
        let active: Vec<bool> = pids
            .iter()
            .map(|p| sim.process_ref::<KraftController>(*p).unwrap().is_active())
            .collect();
        assert_eq!(
            active.iter().filter(|a| **a).count(),
            1,
            "exactly one active controller"
        );
        // All members agree on the term.
        let terms: BTreeSet<u64> = pids
            .iter()
            .map(|p| sim.process_ref::<KraftController>(*p).unwrap().term())
            .collect();
        assert_eq!(terms.len(), 1, "terms converge: {terms:?}");
    }

    #[test]
    fn committed_prefixes_agree() {
        let mut sim = Sim::new(11);
        let pids = spawn_quorum(&mut sim, 5);
        sim.run_until(SimTime::from_secs(30));
        let logs: Vec<Vec<(u64, MetadataRecord)>> = pids
            .iter()
            .map(|p| {
                let c = sim.process_ref::<KraftController>(*p).unwrap();
                c.raft_log()[..c.committed()].to_vec()
            })
            .collect();
        // Every pair of committed prefixes must be consistent (one is a
        // prefix of the other).
        for a in &logs {
            for b in &logs {
                let n = a.len().min(b.len());
                assert_eq!(&a[..n], &b[..n], "committed prefixes diverge");
            }
        }
        // Something was committed (the no-op at least).
        assert!(logs.iter().any(|l| !l.is_empty()));
    }

    #[test]
    fn single_member_quorum_self_elects() {
        let mut sim = Sim::new(3);
        let pids = spawn_quorum(&mut sim, 1);
        sim.run_until(SimTime::from_secs(10));
        assert!(sim
            .process_ref::<KraftController>(pids[0])
            .unwrap()
            .is_active());
    }

    #[test]
    fn deterministic_leader_for_fixed_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let mut sim = Sim::new(seed);
            let pids = spawn_quorum(&mut sim, 3);
            sim.run_until(SimTime::from_secs(15));
            pids.iter()
                .map(|p| sim.process_ref::<KraftController>(*p).unwrap().is_active())
                .collect()
        };
        assert_eq!(run(42), run(42));
    }
}
