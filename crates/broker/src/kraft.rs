//! KRaft-mode commit policy: a Raft quorum replicating the metadata log.
//!
//! Each [`KraftController`] is one quorum member. The Raft leader is the
//! *active controller*: it serves broker heartbeats and `AlterIsr`, and the
//! shared [`Controller`] handlers propose each decision (fencing, leader
//! changes, ISR updates, preferred elections) into the replicated log,
//! where it takes effect only once it commits on a majority. Followers
//! replicate and apply the same records, so any member can take over.
//!
//! The quorum runs on [`s2g_sim::Quorum`], the replicated log the store
//! group runs on too: its Raft election (the term, one vote per term, kept
//! when the leader of the same term is heard, the log-freshness rule over
//! `(last entry term, log length)` and the randomized deadline), and a log
//! that followers pull, as Kafka's own KRaft does (KIP-595). Each follower
//! keeps one [`RaftRpc::Fetch`] outstanding at the leader, naming its log
//! end and that entry's term. The leader answers with what follows, or
//! holds a fetch with nothing new until its next proposal or for one hold
//! interval (300 ms). A fetch that does not match its log is answered with
//! the whole log: a metadata log is never truncated, and a follower's
//! applied prefix is committed, so it is a prefix of the leader's. The
//! leader commits what a majority has fetched once an entry of its own
//! term is among it, and every reply carries its commit index. One timer
//! per member stands a follower at its election deadline, re-sends a fetch
//! left unanswered for two hold intervals, and steps down a leader that no
//! majority has fetched from for an election timeout.
//!
//! This is the coordination mode under which the paper "was not able to
//! observe" the silent-loss behavior of Fig. 6b.

use std::collections::BTreeMap;

use s2g_proto::{BrokerId, MetadataRecord, PartitionMetadata, RaftRpc};
use s2g_sim::{downcast, Ctx, Fetch, Intake, Message, ProcessId, Quorum, SimDuration};

use crate::config::{ControllerConfig, TopicSpec};
use crate::controller::{plan_with_racks, BrokerFrontEnd, ClusterState, CommitPolicy, Controller};

/// Timer tags of the Raft member, beside the controller's own sweeps.
const ELECTION: u64 = 3;
const HOLD_EXPIRY: u64 = 4;

/// Base election timeout; actual deadline adds a random 0..base.
const ELECTION_TIMEOUT_BASE: SimDuration = SimDuration::from_millis(1_500);
/// How long the leader holds a fetch with nothing new: its heartbeat.
const HOLD: SimDuration = SimDuration::from_millis(300);
/// How long a follower waits for the answer to a fetch before it sends
/// another: two hold intervals.
const RESEND: SimDuration = SimDuration::from_millis(600);

/// The KRaft commit policy of one quorum member: a decision is proposed
/// into the Raft log and applied once a majority holds it, and only the
/// active member (the Raft leader) serves brokers.
#[derive(Debug)]
pub struct RaftQuorum {
    me: BrokerId,
    /// Every member's id and process, in member-index order; this member
    /// is `index`.
    members: Vec<(BrokerId, ProcessId)>,
    index: usize,
    /// The initial assignment, installed by this member's first leadership
    /// over a metadata log that has none; emptied once proposed.
    plan: Vec<PartitionMetadata>,
    q: Quorum<MetadataRecord>,
    commit: u64,
    applied: u64,
    next_corr: u64,
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
        assert!(
            quorum.keys().all(|q| !brokers.contains_key(q)),
            "controller ids must not collide with broker ids"
        );
        let members: Vec<(BrokerId, ProcessId)> = quorum.into_iter().collect();
        let index = members.binary_search_by_key(&me, |(id, _)| *id);
        let index = index.expect("quorum must include this member");
        let (n, timeout) = (members.len(), ELECTION_TIMEOUT_BASE);
        let policy = RaftQuorum {
            me,
            members,
            index,
            plan: plan_with_racks(&topics, &brokers, &racks),
            q: Quorum::new(n, index, None, true, timeout, timeout, HOLD),
            commit: 0,
            applied: 0,
            next_corr: 0,
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
        self.policy.q.leads()
    }

    /// The current Raft term.
    #[cfg(test)]
    pub(crate) fn term(&self) -> u64 {
        self.policy.q.term()
    }

    /// Committed log length.
    #[cfg(test)]
    pub(crate) fn committed(&self) -> usize {
        self.policy.commit as usize
    }

    /// The replicated log (term, record) — for consistency assertions.
    #[cfg(test)]
    pub(crate) fn raft_log(&self) -> &[(u64, MetadataRecord)] {
        self.policy.q.entries()
    }
}

impl RaftQuorum {
    /// The member index of quorum member `id`.
    fn index_of(&self, id: BrokerId) -> Option<usize> {
        self.members.binary_search_by_key(&id, |(id, _)| *id).ok()
    }

    /// Sends `rpc` to every member whose index `to` accepts.
    fn send(&self, ctx: &mut Ctx<'_>, to: impl Fn(usize) -> bool, rpc: &RaftRpc) {
        for (i, &(_, pid)) in self.members.iter().enumerate() {
            if to(i) {
                ctx.send(pid, rpc.clone());
            }
        }
    }

    /// Asks every peer for its vote in the term this member stood in; a
    /// quorum of one is won by the member's own.
    fn stand(&mut self, front: &mut BrokerFrontEnd, ctx: &mut Ctx<'_>) {
        let term = self.q.term();
        let req = RaftRpc::RequestVote {
            term,
            candidate: self.me,
            last_log_index: self.q.log_end(),
            last_log_term: self.q.last_term(),
        };
        self.send(ctx, |i| i != self.index, &req);
        if self.q.tally(ctx, term, self.index, true) {
            self.become_leader(front, ctx);
        }
    }

    fn become_leader(&mut self, front: &mut BrokerFrontEnd, ctx: &mut Ctx<'_>) {
        // Term-start entry: lets the new leader commit prior-term entries
        // (Raft §5.4.2 no-op). We reuse a harmless registration record.
        let noop = MetadataRecord::BrokerRegistered { broker: self.me };
        self.propose(vec![noop]);
        let assigns = |(_, r): &(u64, _)| matches!(r, MetadataRecord::PartitionChange { .. });
        if !self.plan.is_empty() && !self.q.entries().iter().any(assigns) {
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
        self.replicate(front, ctx);
    }

    fn propose(&mut self, records: Vec<MetadataRecord>) {
        if !self.q.leads() {
            return;
        }
        let term = self.q.term();
        for r in records {
            // Avoid duplicate uncommitted proposals (session checks repeat
            // until the failure records commit).
            let uncommitted = &self.q.entries()[self.commit as usize..];
            if !uncommitted.iter().any(|(_, existing)| *existing == r) {
                self.q.push(term, r);
            }
        }
    }

    /// Answers the held fetches the log has grown past, then commits and
    /// applies what a majority holds (alone, a member is one).
    fn replicate(&mut self, front: &mut BrokerFrontEnd, ctx: &mut Ctx<'_>) {
        let (now, me, commit, members) = (ctx.now(), self.me, self.commit, &self.members);
        let answer = |q: &_, i: usize, fetch| serve(q, me, commit, ctx, members[i].1, fetch);
        self.q.answer_held(now, answer);
        self.advance(front, ctx);
    }

    /// While leading: commits what a majority holds, then applies it.
    fn advance(&mut self, front: &mut BrokerFrontEnd, ctx: &mut Ctx<'_>) {
        if let Some(held) = self.q.majority_held() {
            self.commit = self.commit.max(held);
        }
        self.apply_committed(front, ctx);
    }

    fn apply_committed(&mut self, front: &mut BrokerFrontEnd, ctx: &mut Ctx<'_>) {
        if self.applied >= self.commit {
            return;
        }
        let batch: Vec<MetadataRecord> = self.q.entries()
            [self.applied as usize..self.commit as usize]
            .iter()
            .map(|(_, r)| r.clone())
            .collect();
        self.applied = self.commit;
        front.apply(ctx.now(), &batch);
        // Only the active controller pushes instructions to brokers.
        if self.q.leads() {
            front.publish(ctx, &batch);
        }
    }

    /// Keeps one fetch outstanding on every member but the leader: a new
    /// one when none is out or the one out is `stale_after` old. It goes
    /// to the leader, or to every peer when the member knows none.
    fn refetch(&mut self, ctx: &mut Ctx<'_>, stale_after: SimDuration) {
        if self.q.fetch_due_at(stale_after) > ctx.now() {
            return;
        }
        let corr = self.next_corr;
        self.next_corr += 1;
        let (fetch, to) = self.q.fetch(ctx.now(), corr);
        let rpc = RaftRpc::Fetch {
            from: self.me,
            fetch,
        };
        self.send(ctx, |i| to.map_or(i != self.index, |to| to == i), &rpc);
    }

    /// The one timer: it stands a follower at its election deadline,
    /// re-sends a fetch left unanswered for [`RESEND`], and steps down a
    /// leader that no majority has fetched from for an election timeout.
    fn on_election_timer(&mut self, front: &mut BrokerFrontEnd, ctx: &mut Ctx<'_>) {
        let (stood, next) = self.q.tick(ctx);
        if stood {
            self.stand(front, ctx);
        }
        self.refetch(ctx, RESEND);
        ctx.set_timer_at(next.min(self.q.fetch_due_at(RESEND)), ELECTION);
    }

    fn handle_raft(&mut self, front: &mut BrokerFrontEnd, ctx: &mut Ctx<'_>, rpc: RaftRpc) {
        match rpc {
            RaftRpc::RequestVote {
                term,
                candidate,
                last_log_index,
                last_log_term,
            } => {
                let Some(i) = self.index_of(candidate) else {
                    return;
                };
                let granted = self.q.vote(ctx, term, i, (last_log_term, last_log_index));
                let (term, from) = (self.q.term(), self.me);
                let reply = RaftRpc::VoteResponse {
                    term,
                    granted,
                    from,
                };
                ctx.send(self.members[i].1, reply);
            }
            RaftRpc::VoteResponse {
                term,
                granted,
                from,
            } => {
                let Some(i) = self.index_of(from) else { return };
                if self.q.tally(ctx, term, i, granted) {
                    self.become_leader(front, ctx);
                }
            }
            RaftRpc::Fetch { from, fetch } => {
                let Some(i) = self.index_of(from).filter(|i| *i != self.index) else {
                    return;
                };
                let intake = self.q.take_fetch(ctx, i, fetch);
                if intake == Intake::Pass {
                    return;
                }
                self.advance(front, ctx);
                let to = self.members[i].1;
                match intake {
                    Intake::Held => {
                        ctx.set_timer(HOLD, HOLD_EXPIRY);
                    }
                    _ => serve(&self.q, self.me, self.commit, ctx, to, fetch),
                }
            }
            RaftRpc::FetchReply {
                corr,
                term,
                leader,
                after,
                entries,
                commit,
            } => {
                let Some(i) = self.index_of(leader) else {
                    return;
                };
                if !self.q.take_reply(ctx, corr, term, Some(i)) {
                    return;
                }
                if after < self.q.log_end() {
                    // The leader sent its whole log: this member's tail
                    // diverged from it (a deposed leader's uncommitted
                    // proposals), and goes.
                    self.q.restart(0, 0);
                }
                for (term, record) in entries {
                    self.q.push(term, record);
                }
                self.commit = self.commit.max(commit.min(self.q.log_end()));
                self.apply_committed(front, ctx);
            }
        }
    }
}

/// Sends `to` the log after `fetch`'s end, or the whole log when the fetch
/// does not match it, with the commit index.
fn serve(
    q: &Quorum<MetadataRecord>,
    me: BrokerId,
    commit: u64,
    ctx: &mut Ctx<'_>,
    to: ProcessId,
    fetch: Fetch,
) {
    let (after, entries) = match q.suffix(&fetch) {
        Some(entries) => (fetch.after, entries),
        None => (0, q.entries()),
    };
    let reply = RaftRpc::FetchReply {
        corr: fetch.corr,
        term: q.term(),
        leader: me,
        after,
        entries: entries.to_vec(),
        commit,
    };
    ctx.send(to, reply);
}

impl CommitPolicy for RaftQuorum {
    fn name(&self) -> &str {
        &self.name
    }

    /// Only the active controller serves brokers.
    fn serves(&self) -> bool {
        self.q.leads()
    }

    /// Draws the first election deadline, sends the first fetch and arms
    /// the timer.
    fn start(c: &mut KraftController, ctx: &mut Ctx<'_>) {
        c.policy.q.start(ctx);
        c.policy.on_election_timer(&mut c.front, ctx);
    }

    /// Proposes the records; each applies once a majority holds it.
    fn decide(c: &mut KraftController, _ctx: &mut Ctx<'_>, records: Vec<MetadataRecord>) {
        c.policy.propose(records);
    }

    /// Ships what was proposed to the followers whose fetches it holds.
    fn flush(c: &mut KraftController, ctx: &mut Ctx<'_>) {
        c.policy.replicate(&mut c.front, ctx);
    }

    fn on_message(
        c: &mut KraftController,
        ctx: &mut Ctx<'_>,
        msg: Box<dyn Message>,
    ) -> Option<Box<dyn Message>> {
        match downcast::<RaftRpc>(msg) {
            Ok(rpc) => {
                c.policy.handle_raft(&mut c.front, ctx, *rpc);
                c.policy.refetch(ctx, SimDuration::MAX);
                None
            }
            Err(msg) => Some(msg),
        }
    }

    fn on_timer(c: &mut KraftController, ctx: &mut Ctx<'_>, tag: u64) {
        match tag {
            ELECTION => c.policy.on_election_timer(&mut c.front, ctx),
            HOLD_EXPIRY => c.policy.replicate(&mut c.front, ctx),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2g_proto::ControllerRpc;
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
    fn taking_the_leaders_fetch_reply_keeps_the_vote_of_its_term() {
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
        // Member 1001 won term 1 and answers the fetch member 1000 sent
        // every peer on voting for it (its first fetch in term 1).
        let reply = RaftRpc::FetchReply {
            corr: 1,
            term: 1,
            leader: BrokerId(1001),
            after: 0,
            entries: vec![],
            commit: 0,
        };
        let at = SimTime::from_millis;
        sim.inject_at(at(1), me, vote(1001));
        sim.inject_at(at(2), me, reply);
        sim.inject_at(at(3), me, vote(1002));
        sim.run_until(at(50));
        assert_eq!(sim.process_ref::<Ballots>(a).unwrap().0, [(1000, true, 1)]);
        assert_eq!(sim.process_ref::<Ballots>(b).unwrap().0, [(1000, false, 1)]);
    }

    #[test]
    fn a_follower_applies_only_what_the_leader_has_committed() {
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
        let registered = |broker| MetadataRecord::BrokerRegistered {
            broker: BrokerId(broker),
        };
        // Member 1001 leads term 1. It answers the member's first fetch
        // (sent in term 0) with two entries, which makes it the leader,
        // then the next with the commit of the first.
        let reply = |corr, after, entries, commit| RaftRpc::FetchReply {
            corr,
            term: 1,
            leader: BrokerId(1001),
            after,
            entries,
            commit,
        };
        let entries = vec![(1, registered(5)), (1, registered(6))];
        sim.inject_at(SimTime::from_millis(2), me, reply(0, 0, entries, 0));
        sim.run_until(SimTime::from_millis(3));
        let follower = member(&sim, me);
        assert_eq!((follower.raft_log().len(), follower.committed()), (2, 0));
        assert!(follower.decisions().is_empty(), "nothing committed yet");
        sim.inject_at(SimTime::from_millis(4), me, reply(1, 2, vec![], 1));
        sim.run_until(SimTime::from_millis(5));
        let applied: Vec<_> = member(&sim, me)
            .decisions()
            .iter()
            .map(|(_, r)| r.clone())
            .collect();
        assert_eq!(applied, [registered(5)]);
    }

    /// Delivers every message after 10 µs, except every one to or from
    /// `cut.0` before `cut.1`, and the first one from `drop.0` to `drop.1`
    /// of at least `drop.2` bytes, whose send time it records in `lost`.
    #[derive(Default)]
    struct Faults {
        cut: Option<(ProcessId, SimTime)>,
        drop: Option<(ProcessId, ProcessId, usize)>,
        lost: std::rc::Rc<std::cell::Cell<Option<SimTime>>>,
    }

    impl s2g_sim::Transport for Faults {
        fn route(
            &mut self,
            now: SimTime,
            _rng: &mut rand::rngs::StdRng,
            from: ProcessId,
            to: ProcessId,
            bytes: usize,
        ) -> s2g_sim::Delivery {
            let cut = self
                .cut
                .is_some_and(|(p, heal)| now < heal && (from == p || to == p));
            let drop = (self.drop).is_some_and(|(a, b, min)| (from, to) == (a, b) && bytes >= min);
            if drop {
                self.drop = None;
                self.lost.set(Some(now));
            }
            match cut || drop {
                true => s2g_sim::Delivery::Drop,
                false => s2g_sim::Delivery::After(SimDuration::from_micros(10)),
            }
        }
    }

    fn member(sim: &Sim, pid: ProcessId) -> &KraftController {
        sim.process_ref::<KraftController>(pid)
            .expect("a quorum member")
    }

    fn active(sim: &Sim, pids: &[ProcessId]) -> ProcessId {
        let mut active = pids.iter().filter(|p| member(sim, **p).is_active());
        let leader = *active.next().expect("an active member");
        assert!(active.next().is_none(), "one active member");
        leader
    }

    #[test]
    fn a_deposed_leader_drops_its_uncommitted_tail_and_takes_the_new_leaders_log() {
        let mut sim = Sim::new(9);
        sim.set_transport(Box::<Faults>::default());
        let pids = spawn_quorum(&mut sim, 3);
        sim.run_until(SimTime::from_secs(4));
        let old = active(&sim, &pids);
        let old_term = member(&sim, old).term();
        // Cut off from its quorum, the leader proposes a registration that
        // no other member hears of.
        let heal = SimTime::from_secs(8);
        let cut = Some((old, heal));
        sim.set_transport(Box::new(Faults {
            cut,
            ..Faults::default()
        }));
        let stray = BrokerId(7);
        let heartbeat = ControllerRpc::Heartbeat {
            broker: stray,
            incarnation: 0,
        };
        sim.inject_at(SimTime::from_millis(4_010), old, heartbeat);
        sim.run_until(heal);
        let registers_stray =
            |r: &MetadataRecord| *r == MetadataRecord::BrokerRegistered { broker: stray };
        let tail = member(&sim, old).raft_log()[member(&sim, old).committed()..].to_vec();
        assert!(
            tail.iter()
                .any(|(t, r)| *t == old_term && registers_stray(r)),
            "{tail:?}"
        );
        let new = active(&sim, &pids);
        assert!(new != old && member(&sim, new).term() > old_term);
        sim.run_until(heal + SimDuration::from_secs(4));
        let (old, new) = (member(&sim, old), member(&sim, new));
        assert!(new.is_active() && !old.is_active());
        assert_eq!(old.raft_log(), new.raft_log());
        assert!(!old.raft_log().iter().any(|(_, r)| registers_stray(r)));
        assert_eq!(old.committed(), new.committed());
        let records = |c: &KraftController| -> Vec<MetadataRecord> {
            c.decisions().iter().map(|(_, r)| r.clone()).collect()
        };
        assert_eq!(records(old), records(new), "the same records, in order");
    }

    #[test]
    fn a_follower_whose_fetch_reply_is_lost_catches_up_within_two_hold_intervals() {
        let mut sim = Sim::new(9);
        sim.set_transport(Box::<Faults>::default());
        let pids = spawn_quorum(&mut sim, 3);
        sim.run_until(SimTime::from_secs(4));
        let leader = active(&sim, &pids);
        let follower = *pids.iter().find(|p| **p != leader).unwrap();
        // The first reply to `follower` that carries an entry is lost.
        let empty = RaftRpc::FetchReply {
            corr: 0,
            term: 0,
            leader: BrokerId(0),
            after: 0,
            entries: vec![],
            commit: 0,
        };
        let faults = Faults {
            drop: Some((leader, follower, empty.wire_size() + 1)),
            ..Faults::default()
        };
        let lost = std::rc::Rc::clone(&faults.lost);
        sim.set_transport(Box::new(faults));
        let heartbeat = ControllerRpc::Heartbeat {
            broker: BrokerId(7),
            incarnation: 0,
        };
        sim.inject_at(SimTime::from_millis(4_500), leader, heartbeat);
        sim.run_until(SimTime::from_millis(4_501));
        let lost = lost.get().expect("the reply was lost");
        let log_len = |pid| member(&sim, pid).raft_log().len();
        assert!(log_len(follower) < log_len(leader), "the follower lacks it");
        sim.run_until(lost + HOLD + HOLD);
        assert_eq!(
            member(&sim, follower).raft_log(),
            member(&sim, leader).raft_log()
        );
    }
}
