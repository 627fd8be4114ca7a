//! KRaft-mode commit policy: a Raft quorum replicating the metadata log.
//!
//! Each [`KraftController`] is one quorum member. The Raft leader is the
//! *active controller*: it serves broker heartbeats and `AlterIsr`, and the
//! shared [`Controller`] handlers propose each decision (fencing, leader
//! changes, ISR updates, preferred elections) into the replicated log,
//! where it takes effect only once it commits on a majority. Followers
//! replicate and apply the same records, so any member can take over.
//!
//! The leader is elected with the shared Raft election,
//! [`s2g_sim::Election`], which the store group elects its primary with
//! too: the term, one vote per term (kept when the leader of the same term
//! is heard, cleared only when the term rises), the log-freshness rule over
//! `(last entry term, log length)` and the randomized deadline. The log is
//! pushed: the leader sends `AppendEntries` on proposals and on a 300 ms
//! tick, and tracks each follower's `next_index`/`match_index`.
//!
//! This is the coordination mode under which the paper "was not able to
//! observe" the silent-loss behavior of Fig. 6b.

use std::collections::BTreeMap;

use s2g_proto::{BrokerId, MetadataRecord, PartitionMetadata, RaftRpc};
use s2g_sim::{downcast, Ctx, Election, Message, ProcessId, SimDuration};

use crate::config::{ControllerConfig, TopicSpec};
use crate::controller::{plan_with_racks, BrokerFrontEnd, ClusterState, CommitPolicy, Controller};

/// Timer tags of the Raft member, beside the controller's own sweeps.
const ELECTION_CHECK: u64 = 3;
const LEADER_TICK: u64 = 4;

/// How often candidates/followers check their election deadline.
const ELECTION_CHECK_EVERY: SimDuration = SimDuration::from_millis(100);
/// Base election timeout; actual deadline adds a random 0..base.
const ELECTION_TIMEOUT_BASE: SimDuration = SimDuration::from_millis(1_500);
/// Leader append/heartbeat period.
const LEADER_TICK_EVERY: SimDuration = SimDuration::from_millis(300);
/// Max entries shipped per AppendEntries.
const MAX_ENTRIES_PER_APPEND: usize = 64;

/// What the leader tracks of each follower. A member that is not the
/// leader follows, or stands for election (its candidacy is the
/// [`Election`]'s).
#[derive(Debug)]
struct Leader {
    next_index: BTreeMap<BrokerId, usize>,
    match_index: BTreeMap<BrokerId, usize>,
}

/// The KRaft commit policy of one quorum member: a decision is proposed
/// into the Raft log and applied once a majority holds it, and only the
/// active member (the Raft leader) serves brokers.
#[derive(Debug)]
pub struct RaftQuorum {
    me: BrokerId,
    quorum: BTreeMap<BrokerId, ProcessId>,
    /// The initial assignment, installed by this member's first leadership
    /// over a metadata log that has none; emptied once proposed.
    plan: Vec<PartitionMetadata>,
    election: Election<BrokerId>,
    log: Vec<(u64, MetadataRecord)>,
    commit: usize,
    applied: usize,
    leader: Option<Leader>,
    name: String,
}

/// One member of the KRaft controller quorum.
pub type KraftController = Controller<RaftQuorum>;

impl Controller<RaftQuorum> {
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
        let plan = plan_with_racks(&topics, &brokers, &racks);
        let policy = RaftQuorum {
            me,
            quorum,
            plan,
            election: Election::new(ELECTION_TIMEOUT_BASE, ELECTION_TIMEOUT_BASE),
            log: Vec::new(),
            commit: 0,
            applied: 0,
            leader: None,
            name: format!("kraft-{}", me.0),
        };
        Controller {
            cfg,
            front: BrokerFrontEnd::new(ClusterState::new(), brokers),
            policy,
        }
    }

    /// True if this member currently believes it is the Raft leader (the
    /// active controller).
    pub fn is_active(&self) -> bool {
        self.policy.is_active()
    }

    /// The current Raft term.
    pub fn term(&self) -> u64 {
        self.policy.election.term()
    }

    /// Committed log length.
    pub fn committed(&self) -> usize {
        self.policy.commit
    }

    /// The replicated log (term, record) — for consistency assertions.
    #[cfg(test)]
    pub(crate) fn raft_log(&self) -> &[(u64, MetadataRecord)] {
        &self.policy.log
    }
}

impl RaftQuorum {
    fn is_active(&self) -> bool {
        self.leader.is_some()
    }

    fn majority(&self) -> usize {
        self.quorum.len() / 2 + 1
    }

    fn last_log_term(&self) -> u64 {
        self.log.last().map(|(t, _)| *t).unwrap_or(0)
    }

    /// Follows the leader or candidate of `term`, which is not older than
    /// this member's: the vote is kept unless the term rose.
    fn become_follower(&mut self, ctx: &mut Ctx<'_>, term: u64) {
        self.election.follow(term);
        self.leader = None;
        self.election.reset_deadline(ctx);
    }

    fn start_election(&mut self, front: &mut BrokerFrontEnd, ctx: &mut Ctx<'_>) {
        let term = self.election.stand(self.me);
        self.election.reset_deadline(ctx);
        let req = RaftRpc::RequestVote {
            term,
            candidate: self.me,
            last_log_index: self.log.len() as u64,
            last_log_term: self.last_log_term(),
        };
        for (&id, &pid) in self.quorum.clone().iter() {
            if id != self.me {
                ctx.send(pid, req.clone());
            }
        }
        // A quorum of one is won by the member's own vote.
        if self.election.tally(term, self.me, true, self.majority()) {
            self.become_leader(front, ctx);
        }
    }

    fn become_leader(&mut self, front: &mut BrokerFrontEnd, ctx: &mut Ctx<'_>) {
        let mut next_index = BTreeMap::new();
        let mut match_index = BTreeMap::new();
        for &id in self.quorum.keys() {
            if id != self.me {
                next_index.insert(id, self.log.len());
                match_index.insert(id, 0usize);
            }
        }
        self.leader = Some(Leader {
            next_index,
            match_index,
        });
        // Term-start entry: lets the new leader commit prior-term entries
        // (Raft §5.4.2 no-op). We reuse a harmless registration record.
        let noop = MetadataRecord::BrokerRegistered { broker: self.me };
        self.propose(vec![noop]);
        let assigns = |(_, r): &(u64, _)| matches!(r, MetadataRecord::PartitionChange { .. });
        if !self.plan.is_empty() && !self.log.iter().any(assigns) {
            // First leadership over an empty metadata log: install the
            // initial topic assignment.
            let plan = std::mem::take(&mut self.plan);
            let mut records: Vec<MetadataRecord> = front
                .brokers
                .keys()
                .map(|b| MetadataRecord::BrokerRegistered { broker: *b })
                .collect();
            for p in &plan {
                front.state.install_assignment(p);
                records.push(MetadataRecord::PartitionChange {
                    tp: p.tp.clone(),
                    leader: p.leader,
                    isr: p.isr.clone(),
                    epoch: p.epoch,
                });
            }
            self.propose(records);
        }
        self.leader_tick(ctx);
    }

    fn propose(&mut self, records: Vec<MetadataRecord>) {
        if !self.is_active() {
            return;
        }
        let term = self.election.term();
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
        let Some(Leader { next_index, .. }) = &self.leader else {
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
                        term: self.election.term(),
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
        let Some(Leader { match_index, .. }) = &self.leader else {
            return;
        };
        let majority = self.majority();
        for n in (self.commit + 1..=self.log.len()).rev() {
            if self.log[n - 1].0 != self.election.term() {
                continue; // only commit entries from the current term directly
            }
            let replicas = 1 + match_index.values().filter(|m| **m >= n).count();
            if replicas >= majority {
                self.commit = n;
                break;
            }
        }
    }

    fn apply_committed(&mut self, front: &mut BrokerFrontEnd, ctx: &mut Ctx<'_>) {
        if self.applied >= self.commit {
            return;
        }
        let batch: Vec<MetadataRecord> = self.log[self.applied..self.commit]
            .iter()
            .map(|(_, r)| r.clone())
            .collect();
        self.applied = self.commit;
        front.apply(ctx.now(), &batch);
        // Only the active controller pushes instructions to brokers.
        if self.is_active() {
            front.publish(ctx, &batch);
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

    fn handle_raft(&mut self, front: &mut BrokerFrontEnd, ctx: &mut Ctx<'_>, rpc: RaftRpc) {
        match rpc {
            RaftRpc::RequestVote {
                term,
                candidate,
                last_log_index,
                last_log_term,
            } => {
                if term > self.election.term() {
                    self.become_follower(ctx, term);
                }
                let ours = (self.last_log_term(), self.log.len() as u64);
                let theirs = (last_log_term, last_log_index);
                let grant = self.election.grant(term, candidate, theirs, ours);
                if grant {
                    self.election.reset_deadline(ctx);
                }
                if let Some(&pid) = self.quorum.get(&candidate) {
                    ctx.send(
                        pid,
                        RaftRpc::VoteResponse {
                            term: self.election.term(),
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
                if term > self.election.term() {
                    self.become_follower(ctx, term);
                    return;
                }
                if self.election.tally(term, from, granted, self.majority()) {
                    self.become_leader(front, ctx);
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
                if term < self.election.term() {
                    if let Some(&pid) = self.quorum.get(&leader) {
                        ctx.send(
                            pid,
                            RaftRpc::AppendResponse {
                                term: self.election.term(),
                                success: false,
                                match_index: self.log.len() as u64,
                                from: self.me,
                            },
                        );
                    }
                    return;
                }
                self.become_follower(ctx, term);
                let (success, match_index) =
                    self.append_entries(prev_log_index as usize, prev_log_term, entries);
                if success {
                    let new_commit = (leader_commit as usize).min(self.log.len());
                    if new_commit > self.commit {
                        self.commit = new_commit;
                        self.apply_committed(front, ctx);
                    }
                }
                if let Some(&pid) = self.quorum.get(&leader) {
                    ctx.send(
                        pid,
                        RaftRpc::AppendResponse {
                            term: self.election.term(),
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
                if term > self.election.term() {
                    self.become_follower(ctx, term);
                    return;
                }
                let Some(Leader {
                    next_index,
                    match_index: mi,
                }) = &mut self.leader
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
                self.apply_committed(front, ctx);
            }
        }
    }
}

impl CommitPolicy for RaftQuorum {
    fn name(&self) -> &str {
        &self.name
    }

    /// Only the active controller serves brokers.
    fn serves(&self) -> bool {
        self.is_active()
    }

    /// Draws the first election deadline and arms the election and
    /// leader-tick timers.
    fn start(c: &mut KraftController, ctx: &mut Ctx<'_>) {
        c.policy.election.reset_deadline(ctx);
        ctx.set_timer(ELECTION_CHECK_EVERY, ELECTION_CHECK);
        ctx.set_timer(LEADER_TICK_EVERY, LEADER_TICK);
    }

    /// Proposes the records; each applies once a majority holds it.
    fn decide(c: &mut KraftController, _ctx: &mut Ctx<'_>, records: Vec<MetadataRecord>) {
        c.policy.propose(records);
    }

    /// Ships what was proposed to the quorum.
    fn flush(c: &mut KraftController, ctx: &mut Ctx<'_>) {
        c.policy.leader_tick(ctx);
    }

    fn on_message(
        c: &mut KraftController,
        ctx: &mut Ctx<'_>,
        msg: Box<dyn Message>,
    ) -> Option<Box<dyn Message>> {
        match downcast::<RaftRpc>(msg) {
            Ok(rpc) => {
                c.policy.handle_raft(&mut c.front, ctx, *rpc);
                None
            }
            Err(msg) => Some(msg),
        }
    }

    fn on_timer(c: &mut KraftController, ctx: &mut Ctx<'_>, tag: u64) {
        let raft = &mut c.policy;
        match tag {
            ELECTION_CHECK => {
                if !raft.is_active() && ctx.now() >= raft.election.deadline() {
                    raft.start_election(&mut c.front, ctx);
                }
                ctx.set_timer(ELECTION_CHECK_EVERY, ELECTION_CHECK);
            }
            LEADER_TICK => {
                if raft.is_active() {
                    raft.leader_tick(ctx);
                    raft.apply_committed(&mut c.front, ctx);
                }
                ctx.set_timer(LEADER_TICK_EVERY, LEADER_TICK);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2g_sim::{Process, Sim, SimTime};
    use std::collections::BTreeSet;

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

    /// A quorum member that only records the vote answers it is sent.
    #[derive(Default)]
    struct Ballots(Vec<(u32, bool, u64)>);

    impl Process for Ballots {
        fn name(&self) -> &str {
            "ballots"
        }
        fn on_message(&mut self, _: &mut Ctx<'_>, _: ProcessId, msg: Box<dyn Message>) {
            if let Ok(rpc) = downcast::<RaftRpc>(msg) {
                if let RaftRpc::VoteResponse {
                    term,
                    granted,
                    from,
                } = *rpc
                {
                    self.0.push((from.0, granted, term));
                }
            }
        }
    }

    #[test]
    fn taking_the_leaders_append_keeps_the_vote_of_its_term() {
        let mut sim = Sim::new(5);
        let a = sim.spawn(Box::<Ballots>::default());
        let b = sim.spawn(Box::<Ballots>::default());
        let me = ProcessId(sim.process_count() as u32);
        let quorum = BTreeMap::from([
            (BrokerId(1000), me),
            (BrokerId(1001), a),
            (BrokerId(1002), b),
        ]);
        let cfg = ControllerConfig::default();
        let c = KraftController::new(BrokerId(1000), quorum, BTreeMap::new(), cfg, vec![]);
        assert_eq!(sim.spawn(Box::new(c)), me);
        let vote = |candidate: u32| RaftRpc::RequestVote {
            term: 1,
            candidate: BrokerId(candidate),
            last_log_index: 0,
            last_log_term: 0,
        };
        let append = RaftRpc::AppendEntries {
            term: 1,
            leader: BrokerId(1001),
            prev_log_index: 0,
            prev_log_term: 0,
            entries: vec![],
            leader_commit: 0,
        };
        let at = SimTime::from_millis;
        sim.inject_at(at(1), me, vote(1001));
        sim.inject_at(at(2), me, append);
        sim.inject_at(at(3), me, vote(1002));
        sim.run_until(at(50));
        assert_eq!(sim.process_ref::<Ballots>(a).unwrap().0, [(1000, true, 1)]);
        assert_eq!(sim.process_ref::<Ballots>(b).unwrap().0, [(1000, false, 1)]);
    }
}
