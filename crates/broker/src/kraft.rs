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
//! group runs on too, and speaks its protocol, [`QuorumRpc`]: its Raft
//! election (the term, one vote per term, kept when the leader of the same
//! term is heard, the log-freshness rule over `(last entry term, log
//! length)` and the randomized deadline), and a log that followers pull, as
//! Kafka's own KRaft does (KIP-595). Each follower keeps one fetch
//! outstanding at the leader, naming its log end and that entry's term. The
//! leader answers with what follows, or holds a fetch with nothing new
//! until its next proposal or for one hold interval (300 ms). What is KRaft's
//! own stays here: a fetch that does not match the leader's log is answered
//! with the whole log (a metadata log is never truncated, and a follower's
//! applied prefix is committed, so it is a prefix of the leader's); the
//! leader commits what a majority has fetched once an entry of its own
//! term is among it, every answer carries its commit index, and a member
//! applies a record once it commits. One timer per member stands a
//! follower at its election deadline, re-sends a fetch left unanswered for
//! two hold intervals, and steps down a leader that no majority has fetched
//! from for an election timeout.
//!
//! This is the coordination mode under which the paper "was not able to
//! observe" the silent-loss behavior of Fig. 6b.

use std::collections::BTreeMap;

use s2g_proto::{BrokerId, MetadataRecord, PartitionMetadata};
use s2g_sim::{downcast, Ctx, Message, Owner, ProcessId, Quorum, QuorumRpc, SimDuration, Taken};

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
    /// The initial assignment, installed by this member's first leadership
    /// over a metadata log that has none; emptied once proposed.
    plan: Vec<PartitionMetadata>,
    q: Quorum<MetadataRecord>,
    log: Committed,
    name: String,
}

/// How far a member's metadata log is committed, and how far applied.
#[derive(Debug, Default)]
struct Committed {
    commit: u64,
    applied: u64,
}

/// What the metadata log means to its quorum: records that apply to the
/// controller's view once they commit.
struct Metadata<'a> {
    log: &'a mut Committed,
    front: &'a mut BrokerFrontEnd,
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
        let index = quorum.keys().position(|id| *id == me);
        let index = index.expect("quorum must include this member");
        let members = quorum.into_values().collect();
        let timeout = ELECTION_TIMEOUT_BASE;
        let policy = RaftQuorum {
            me,
            plan: plan_with_racks(&topics, &brokers, &racks),
            q: Quorum::new(members, index, None, timeout, timeout, HOLD, HOLD_EXPIRY),
            log: Committed::default(),
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
        self.policy.log.commit as usize
    }

    /// The replicated log (term, record) — for consistency assertions.
    #[cfg(test)]
    pub(crate) fn raft_log(&self) -> &[(u64, MetadataRecord)] {
        self.policy.q.entries()
    }
}

impl RaftQuorum {
    /// The member's quorum, and what its log means beside `front`.
    fn split<'a>(
        &'a mut self,
        front: &'a mut BrokerFrontEnd,
    ) -> (&'a mut Quorum<MetadataRecord>, Metadata<'a>) {
        let log = &mut self.log;
        (&mut self.q, Metadata { log, front })
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
            let uncommitted = &self.q.entries()[self.log.commit as usize..];
            if !uncommitted.iter().any(|(_, existing)| *existing == r) {
                self.q.push(term, r);
            }
        }
    }

    /// Answers the held fetches the log has grown past, then commits and
    /// applies what a majority holds (alone, a member is one).
    fn replicate(&mut self, front: &mut BrokerFrontEnd, ctx: &mut Ctx<'_>) {
        let (q, mut meta) = self.split(front);
        q.answer_held(ctx, &meta);
        meta.advance(q, ctx);
    }

    /// The one timer: it stands a follower at its election deadline,
    /// re-sends a fetch left unanswered for [`RESEND`], and steps down a
    /// leader that no majority has fetched from for an election timeout.
    fn on_election_timer(&mut self, front: &mut BrokerFrontEnd, ctx: &mut Ctx<'_>) {
        let (won, next) = self.q.tick(ctx);
        if won {
            self.become_leader(front, ctx);
        }
        let due = self.q.refetch(ctx, RESEND);
        ctx.set_timer_at(next.min(due), ELECTION);
    }
}

impl Metadata<'_> {
    /// While leading: commits what a majority holds, then applies it.
    fn advance(&mut self, q: &Quorum<MetadataRecord>, ctx: &mut Ctx<'_>) {
        if let Some(held) = q.majority_held() {
            self.log.commit = self.log.commit.max(held);
        }
        self.apply(q, ctx);
    }

    fn apply(&mut self, q: &Quorum<MetadataRecord>, ctx: &mut Ctx<'_>) {
        let Committed { commit, applied } = *self.log;
        if applied >= commit {
            return;
        }
        let batch: Vec<MetadataRecord> = q.entries()[applied as usize..commit as usize]
            .iter()
            .map(|(_, r)| r.clone())
            .collect();
        self.log.applied = commit;
        self.front.apply(ctx.now(), &batch);
        // Only the active controller pushes instructions to brokers.
        if q.leads() {
            self.front.publish(ctx, &batch);
        }
    }
}

impl Owner<MetadataRecord> for Metadata<'_> {
    /// The whole log: a metadata log is never truncated.
    fn fallback(&self, _q: &Quorum<MetadataRecord>) -> (u64, ()) {
        (0, ())
    }

    fn commit(&self) -> u64 {
        self.log.commit
    }

    /// A fetch may commit more: what commits is applied before the fetch is
    /// answered.
    fn took_fetch(&mut self, ctx: &mut Ctx<'_>, q: &mut Quorum<MetadataRecord>, _current: bool) {
        self.advance(q, ctx);
    }
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
        c.policy.q.start(ctx, false);
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

    /// Takes the quorum's messages: a member that wins its term starts it,
    /// and one that takes an answer commits what the leader has and
    /// applies it. Every member but the leader then keeps a fetch out.
    fn on_message(
        c: &mut KraftController,
        ctx: &mut Ctx<'_>,
        msg: Box<dyn Message>,
    ) -> Option<Box<dyn Message>> {
        let rpc = match downcast::<QuorumRpc<MetadataRecord>>(msg) {
            Ok(rpc) => rpc,
            Err(msg) => return Some(msg),
        };
        let (q, mut meta) = c.policy.split(&mut c.front);
        match q.on_rpc(ctx, *rpc, &mut meta) {
            Taken::Nothing => {}
            Taken::Won => c.policy.become_leader(&mut c.front, ctx),
            Taken::Answer { commit, .. } => {
                meta.log.commit = meta.log.commit.max(commit.min(q.log_end()));
                meta.apply(q, ctx);
            }
        }
        c.policy.q.refetch(ctx, SimDuration::MAX);
        None
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

    type Rpc = QuorumRpc<MetadataRecord>;

    /// A quorum member that only records the vote answers it is sent, each
    /// by its voter's controller id (members 1000, 1001, ...).
    #[derive(Default)]
    struct Ballots(Vec<(u32, bool, u64)>);

    impl Process for Ballots {
        fn name(&self) -> &str {
            "ballots"
        }
        fn on_message(&mut self, _: &mut Ctx<'_>, _: ProcessId, msg: Box<dyn Message>) {
            if let Ok(rpc) = downcast::<Rpc>(msg) {
                if let Rpc::VoteReply {
                    term,
                    granted,
                    from,
                } = *rpc
                {
                    self.0.push((1000 + from, granted, term));
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
        let vote = |candidate: u32| Rpc::Vote {
            term: 1,
            from: candidate - 1000,
            end: 0,
            last_term: 0,
        };
        // Member 1001 won term 1 and answers the fetch member 1000 sent
        // every peer on voting for it (its first fetch in term 1).
        let reply = leader_1001(1, 1, 0, vec![], 0);
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
        let reply = |corr, after, entries, commit| leader_1001(corr, 1, after, entries, commit);
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

    #[test]
    fn an_answer_to_the_previous_incarnations_fetch_is_ignored() {
        let mut sim = Sim::new(5);
        let a = sim.spawn(Box::<Ballots>::default());
        let b = sim.spawn(Box::<Ballots>::default());
        let me = ProcessId(sim.process_count() as u32);
        let quorum = BTreeMap::from([
            (BrokerId(1000), me),
            (BrokerId(1001), a),
            (BrokerId(1002), b),
        ]);
        let controller = || {
            let (quorum, cfg) = (quorum.clone(), ControllerConfig::default());
            KraftController::new(BrokerId(1000), quorum, BTreeMap::new(), cfg, vec![])
        };
        assert_eq!(sim.spawn(Box::new(controller())), me);
        // The first incarnation sends its first fetch and crashes; the
        // respawn, its log empty, sends its own first fetch.
        sim.run_until(SimTime::from_millis(1));
        sim.kill(me).expect("alive");
        sim.respawn(me, Box::new(controller()));
        sim.run_until(SimTime::from_millis(2));
        // Member 1001, leading term 1, answers the crashed incarnation's
        // fetch late: entries after a log of two, and a commit of three.
        let registered = MetadataRecord::BrokerRegistered {
            broker: BrokerId(7),
        };
        let stale = leader_1001(0, 1, 2, vec![(1, registered)], 3);
        sim.inject_at(SimTime::from_millis(3), me, stale);
        sim.run_until(SimTime::from_millis(4));
        let respawn = member(&sim, me);
        assert_eq!((respawn.raft_log().len(), respawn.committed()), (0, 0));
        assert!(respawn.decisions().is_empty());
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

    /// Member 1001's answer to fetch `corr` as the leader of `term`: the
    /// entries after `after`, and its commit index.
    fn leader_1001(
        corr: u64,
        term: u64,
        after: u64,
        entries: Vec<(u64, MetadataRecord)>,
        commit: u64,
    ) -> Rpc {
        Rpc::Answer(s2g_sim::Answer {
            from: 1,
            corr,
            term,
            leads: true,
            after,
            entries,
            state: None,
            floor: 0,
            commit,
        })
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
        let empty = leader_1001(0, 0, 0, vec![], 0);
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

    /// Drops each message with probability `.0`, else delivers it after
    /// 200 µs.
    struct Lossy(f64);

    impl s2g_sim::Transport for Lossy {
        fn route(
            &mut self,
            _now: SimTime,
            rng: &mut rand::rngs::StdRng,
            _from: ProcessId,
            _to: ProcessId,
            _bytes: usize,
        ) -> s2g_sim::Delivery {
            use rand::Rng;
            match rng.gen_bool(self.0) {
                true => s2g_sim::Delivery::Drop,
                false => s2g_sim::Delivery::After(SimDuration::from_micros(200)),
            }
        }
    }

    /// Runs five members for 30 s over a link that drops 30 % of what it
    /// carries, while a new broker registers every 100 ms (a proposal at
    /// whichever member is active). Sampled every 10 ms, no term has two
    /// leaders; at the end, committed prefixes agree, every member has
    /// applied exactly its committed prefix, and a registration committed.
    /// Returns the members' final terms.
    fn lossy_run(seed: u64) -> Result<Vec<u64>, String> {
        let mut sim = Sim::new(seed);
        sim.set_transport(Box::new(Lossy(0.3)));
        let pids = spawn_quorum(&mut sim, 5);
        let step = SimDuration::from_millis(10);
        let (mut now, mut broker) = (SimTime::ZERO, 0);
        let mut leader_of: BTreeMap<u64, ProcessId> = BTreeMap::new();
        while now < SimTime::from_secs(30) {
            now += step;
            if now.as_nanos() % 100_000_000 == 0 {
                broker += 1;
                for pid in &pids {
                    let incarnation = 0;
                    let heartbeat = ControllerRpc::Heartbeat {
                        broker: BrokerId(broker),
                        incarnation,
                    };
                    sim.inject_at(now, *pid, heartbeat);
                }
            }
            sim.run_until(now);
            for pid in pids.iter().filter(|p| member(&sim, **p).is_active()) {
                let term = member(&sim, *pid).term();
                let first = *leader_of.entry(term).or_insert(*pid);
                if first != *pid {
                    return Err(format!("{first:?} and {pid:?} both lead term {term}"));
                }
            }
        }
        let committed = |c: &KraftController| c.raft_log()[..c.committed()].to_vec();
        for a in &pids {
            let c = member(&sim, *a);
            let applied: Vec<_> = c.decisions().iter().map(|(_, r)| r.clone()).collect();
            let log: Vec<_> = committed(c).into_iter().map(|(_, r)| r).collect();
            if applied != log {
                return Err(format!("{a:?} applied {applied:?}, committed {log:?}"));
            }
            for b in &pids {
                let (a, b) = (committed(c), committed(member(&sim, *b)));
                let n = a.len().min(b.len());
                if a[..n] != b[..n] {
                    return Err("committed prefixes diverge".into());
                }
            }
        }
        let registered = |(_, r): &(u64, MetadataRecord)| matches!(r, MetadataRecord::BrokerRegistered { broker } if broker.0 < 1000);
        if !pids
            .iter()
            .any(|p| committed(member(&sim, *p)).iter().any(registered))
        {
            return Err("no registration committed".into());
        }
        Ok(pids.iter().map(|p| member(&sim, *p).term()).collect())
    }

    #[test]
    fn a_quorum_over_a_lossy_link_keeps_one_leader_per_term_and_agrees() {
        let mut terms = Vec::new();
        for seed in 1..=8 {
            terms.extend(lossy_run(seed).unwrap_or_else(|e| panic!("seed {seed}: {e}")));
        }
        let mean = terms.iter().sum::<u64>() as f64 / terms.len() as f64;
        println!("mean final term over 8 seeds: {mean:.1}");
    }
}
