//! One replicated group: Raft's election and a log that followers pull,
//! for every group that elects by vote, and the messages that drive it.
//!
//! A member's [`Quorum`] keeps its term, the one vote it may cast in that
//! term, the votes its own candidacy has won and its randomized election
//! deadline. Terms rise and never fall, and a vote is cleared only when the
//! term rises: hearing the leader of the current term keeps it. A vote goes
//! to a candidate whose log is at least as fresh (Raft §5.4.1: the last
//! entry's term, then the log's length).
//!
//! The log is `(term, entry)` pairs after a truncated start. The leader
//! appends; each follower keeps exactly one [`Fetch`] outstanding at it,
//! naming where its log ends (the index and term of its last entry), as
//! Kafka's KRaft does (KIP-595). A fetch that matches the leader's log
//! under the leader's term is that member's progress, and the leader may
//! commit what a majority holds, counting only entries of its own term
//! (Raft §5.4.2). A fetch with nothing newer to read is held until the log
//! grows or for one hold interval, so the leader's answers are its
//! heartbeats. A follower that hears no answer for an election timeout
//! stands, and a leader that no majority has fetched from for a timeout
//! steps down; one timer serves both.
//!
//! The quorum speaks its own protocol, [`QuorumRpc`]: it asks every peer
//! for its vote when it stands, grants or refuses a vote and replies,
//! counts the replies, keeps its one fetch out (re-sending it when the
//! owner says it is stale), holds or answers each fetch it takes, and takes
//! the answers to its own. Its owner says what an entry weighs on the wire
//! ([`Entry`]), what answers a fetch that does not match the log and what
//! an arriving entry means ([`Owner`]); it arms the timers, appends, and
//! acts on what taking a message did ([`Taken`]).

use std::collections::BTreeSet;
use std::fmt;

use rand::Rng;

use crate::{Ctx, Message, ProcessId, SimDuration, SimTime, Waiters};

/// A follower's fetch: where its log ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fetch {
    /// Request id, echoed by the answer.
    pub corr: u64,
    /// The index of the fetcher's last entry.
    pub after: u64,
    /// The term of that entry.
    pub last_term: u64,
    /// The fetcher's term.
    pub term: u64,
    /// Whether the fetcher stands, votes and serves: false while it
    /// rebuilds state it lost.
    pub ready: bool,
}

/// A log entry, as the group's messages carry it.
pub trait Entry: Clone + fmt::Debug + 'static {
    /// What answers a fetch that does not match the log, with the entries
    /// after the index it holds the log up to.
    type State: fmt::Debug + 'static;
    /// The bytes of a vote request, a vote reply, a fetch and an answer,
    /// in that order, without the entries and the state an answer carries.
    const HEADERS: [usize; 4];
    /// The bytes of this entry in an answer, its term included.
    fn wire_size(&self) -> usize;
    /// The bytes of `state` in an answer.
    fn state_size(state: &Self::State) -> usize;
}

/// The group's messages, each naming its sender's member index.
#[derive(Debug)]
pub enum QuorumRpc<E: Entry> {
    /// A candidate asks for a vote in the term it stands in.
    Vote {
        /// The candidate.
        from: u32,
        /// The term it stands in.
        term: u64,
        /// The term of its last entry.
        last_term: u64,
        /// The index of its last entry.
        end: u64,
    },
    /// A member's answer to a [`QuorumRpc::Vote`].
    VoteReply {
        /// The member.
        from: u32,
        /// Its term.
        term: u64,
        /// Whether it voted for the candidate.
        granted: bool,
    },
    /// A member's fetch: where its log ends.
    Fetch {
        /// The member.
        from: u32,
        /// Where its log ends, under its term.
        fetch: Fetch,
    },
    /// The answer to a [`QuorumRpc::Fetch`].
    Answer(Answer<E>),
}

/// The answer to a fetch: the entries after an index of the answerer's
/// log, and, when the fetch did not match that log, its owner's state as
/// of that index.
#[derive(Debug)]
pub struct Answer<E: Entry> {
    /// The member answering.
    pub from: u32,
    /// The fetch's request id.
    pub corr: u64,
    /// The answerer's term.
    pub term: u64,
    /// Whether the answerer leads that term.
    pub leads: bool,
    /// The index `entries` follow: the fetch's, or the one `state` holds
    /// the log up to.
    pub after: u64,
    /// The entries after `after`, each with its term.
    pub entries: Vec<(u64, E)>,
    /// When the fetch did not match the answerer's log: the term of the
    /// entry at `after`, and the owner's state as of it.
    pub state: Option<(u64, E::State)>,
    /// The answerer's log start: the receiver truncates its log to it.
    pub floor: u64,
    /// The answerer's commit index, as its owner counts it.
    pub commit: u64,
}

impl<E: Entry> Message for QuorumRpc<E> {
    fn wire_size(&self) -> usize {
        match self {
            QuorumRpc::Vote { .. } => E::HEADERS[0],
            QuorumRpc::VoteReply { .. } => E::HEADERS[1],
            QuorumRpc::Fetch { .. } => E::HEADERS[2],
            QuorumRpc::Answer(a) => {
                let entries = a.entries.iter().map(|(_, e)| e.wire_size()).sum::<usize>();
                E::HEADERS[3] + entries + a.state.as_ref().map_or(0, |(_, s)| E::state_size(s))
            }
        }
    }
}

/// What a member's owner does that the protocol does not. Every method but
/// [`fallback`](Owner::fallback) does nothing by default.
pub trait Owner<E: Entry> {
    /// The owner's state as of an index `q`'s log holds, which answers,
    /// with the entries after that index, a fetch that does not match the
    /// log.
    fn fallback(&self, q: &Quorum<E>) -> (u64, E::State);

    /// The commit index each answer carries (0 for an owner that applies
    /// what it takes on receipt).
    fn commit(&self) -> u64 {
        0
    }

    /// While leading: `q` took a member's fetch, counted as that member's
    /// progress when `current`, and holds or answers it next.
    fn took_fetch(&mut self, _ctx: &mut Ctx<'_>, _q: &mut Quorum<E>, _current: bool) {}

    /// Replaces what the owner holds with an answer's state; `q`'s log now
    /// starts, empty, at the index the state holds it up to.
    fn install(&mut self, _q: &Quorum<E>, _state: E::State) {}

    /// Takes an entry an answer brought, before `q`'s log holds it.
    fn receive(&mut self, _q: &Quorum<E>, _entry: &E) {}
}

/// What taking a message did that the owner acts on
/// ([`Quorum::on_rpc`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Taken {
    /// Nothing.
    Nothing,
    /// This member won its term: it leads.
    Won,
    /// An answer to this member's fetch: its state is installed and its
    /// entries are in the log.
    Answer {
        /// The answerer's commit index.
        commit: u64,
        /// Whether this member became ready by it.
        ready: bool,
    },
}

/// One member of a replicated group: its election, its log and its side
/// of the group's protocol.
///
/// Members are indices `0..n`, the same on every member, each with its
/// process id. Entry `i` of the log (1-based) is at index `i`; index 0, the
/// empty log, has term 0.
#[derive(Debug)]
pub struct Quorum<E> {
    members: Vec<ProcessId>,
    me: usize,
    term: u64,
    voted_for: Option<usize>,
    /// The votes won in `term`, while this member stands in it.
    votes: Option<BTreeSet<usize>>,
    leader: Option<usize>,
    /// False while the member rebuilds state it lost: it neither stands nor
    /// votes, and fetches from every peer.
    ready: bool,
    /// While not ready: the peers whose answer this member took.
    answered: Vec<bool>,
    /// When this member stands unless it hears from a leader first, and
    /// the election timeout last drawn: `timeout` plus up to `jitter`.
    deadline: SimTime,
    drawn: SimDuration,
    timeout: SimDuration,
    jitter: SimDuration,
    hold: SimDuration,
    /// The owner's timer tag for the end of a hold.
    hold_tag: u64,
    /// The retained log: `log[i]` is index `log_start + i + 1`.
    log: Vec<(u64, E)>,
    log_start: u64,
    /// The term of the entry at `log_start` (0 when it is 0).
    log_start_term: u64,
    /// Lifetime count of entries dropped from the front.
    truncated: u64,
    /// While leading: the log end when this member won its term. Every
    /// entry after it is of the current term.
    term_start: u64,
    /// While leading: each member's progress under this term, the end of
    /// its latest fetch that matched the log.
    progress: Vec<u64>,
    /// While leading: when each member last fetched.
    last_fetch: Vec<SimTime>,
    /// While leading: each member's held fetch, by member index.
    held: Waiters<usize, Fetch>,
    /// This member's one outstanding fetch: `(corr, sent_at)`.
    awaiting: Option<(u64, SimTime)>,
}

impl<E: Entry> Quorum<E> {
    /// Member `me` of the group whose members' process ids are `members`,
    /// in term 0 with `leader` (if it knows one), no vote cast and an empty
    /// log. Its election timeout is `timeout` plus up to `jitter`; a leader
    /// holds a fetch for up to `hold`, arming the owner's timer `hold_tag`
    /// for [`answer_held`](Self::answer_held), and steps down when no
    /// majority has fetched from it for `timeout`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is not a member.
    pub fn new(
        members: Vec<ProcessId>,
        me: usize,
        leader: Option<usize>,
        timeout: SimDuration,
        jitter: SimDuration,
        hold: SimDuration,
        hold_tag: u64,
    ) -> Self {
        let n = members.len();
        assert!(me < n, "member index out of range");
        Quorum {
            members,
            me,
            term: 0,
            voted_for: None,
            votes: None,
            leader,
            ready: true,
            answered: vec![false; n],
            deadline: SimTime::ZERO,
            drawn: timeout,
            timeout,
            jitter,
            hold,
            hold_tag,
            log: Vec::new(),
            log_start: 0,
            log_start_term: 0,
            truncated: 0,
            term_start: 0,
            progress: vec![0; n],
            last_fetch: vec![SimTime::ZERO; n],
            held: Waiters::default(),
            awaiting: None,
        }
    }

    /// The current term.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// The process of the current term's leader, when this member knows
    /// it.
    pub fn leader(&self) -> Option<ProcessId> {
        self.leader.map(|i| self.members[i])
    }

    /// Whether this member leads the current term.
    pub fn leads(&self) -> bool {
        self.leader == Some(self.me)
    }

    /// Whether this member stands, votes and serves.
    pub fn ready(&self) -> bool {
        self.ready
    }

    /// When this member's outstanding fetch was sent, while one is out.
    pub fn awaiting(&self) -> Option<SimTime> {
        self.awaiting.map(|(_, sent)| sent)
    }

    /// The index of the last entry.
    pub fn log_end(&self) -> u64 {
        self.log_start + self.log.len() as u64
    }

    /// The index before the first retained entry.
    pub fn log_start(&self) -> u64 {
        self.log_start
    }

    /// The term of the last entry.
    pub fn last_term(&self) -> u64 {
        self.log.last().map_or(self.log_start_term, |(t, _)| *t)
    }

    /// The retained entries, from `log_start() + 1`, each with its term.
    pub fn entries(&self) -> &[(u64, E)] {
        &self.log
    }

    /// How many entries were dropped from the front in all.
    pub fn truncated(&self) -> u64 {
        self.truncated
    }

    /// The term of the entry at `at`, when the log holds it or starts there.
    fn term_at(&self, at: u64) -> Option<u64> {
        match at.checked_sub(self.log_start + 1) {
            None => (at == self.log_start).then_some(self.log_start_term),
            Some(i) => self.log.get(i as usize).map(|(t, _)| *t),
        }
    }

    /// Appends `entry`, written in `term`, at the log end.
    pub fn push(&mut self, term: u64, entry: E) {
        self.log.push((term, entry));
    }

    /// Empties the log and starts it at `at`, an entry of `term`: the owner
    /// installed a state that holds everything up to `at`.
    fn restart(&mut self, at: u64, term: u64) {
        self.log.clear();
        self.log_start = at;
        self.log_start_term = term;
    }

    /// Drops the prefix up to `floor`, where this log holds it.
    fn truncate_to(&mut self, floor: u64) {
        let floor = floor.min(self.log_end());
        if floor <= self.log_start {
            return;
        }
        let drop = (floor - self.log_start) as usize;
        self.log_start_term = self.log[drop - 1].0;
        self.log.drain(..drop);
        self.truncated += drop as u64;
        self.log_start = floor;
    }

    /// While leading: drops the prefix that it and every member that
    /// fetched within the timeout hold.
    pub fn compact(&mut self, now: SimTime) {
        let live = self.live(now).filter(|j| *j != self.me);
        let floor = live.map(|j| self.progress[j]).min();
        self.truncate_to(floor.unwrap_or(self.log_end()));
    }

    /// The entries after `fetch`'s end, or `None` when this log does not
    /// hold its last entry under its term: it was truncated away, or the
    /// fetcher's log diverges from this one there.
    fn suffix(&self, fetch: &Fetch) -> Option<&[(u64, E)]> {
        let matches = self.term_at(fetch.after) == Some(fetch.last_term);
        matches.then(|| &self.log[(fetch.after - self.log_start) as usize..])
    }

    /// While leading: the highest index a majority holds (this member's log
    /// counted with every member's progress), if its entry is of the
    /// current term. An entry of an earlier term is never committed by
    /// counting (Raft §5.4.2); it commits with the first entry of this
    /// term after it.
    pub fn majority_held(&self) -> Option<u64> {
        if !self.leads() {
            return None;
        }
        let mut progress = self.progress.clone();
        progress[self.me] = self.log_end();
        progress.sort_unstable_by(|a, b| b.cmp(a));
        let held = progress[self.majority() - 1];
        (held > self.term_start).then_some(held)
    }

    fn majority(&self) -> usize {
        self.members.len() / 2 + 1
    }

    /// Itself and the members that fetched from it within the timeout.
    fn live(&self, now: SimTime) -> impl Iterator<Item = usize> + '_ {
        let seen = move |i: &usize| now.saturating_since(self.last_fetch[*i]) <= self.timeout;
        (0..self.members.len()).filter(move |i| *i == self.me || seen(i))
    }

    /// Starts the member: until they fetch, every member counts as live (a
    /// fresh leader does not step down at once, nor truncate past a
    /// member), and a ready follower draws its election deadline. A member
    /// that `rejoins` lost its state: it starts not ready and knows no
    /// leader, and becomes ready once all but a majority less one of its
    /// peers have answered it. One of those holds every entry a majority
    /// held; it keeps the freshest state it is sent, and casts no vote in
    /// the term it then has (its vote goes to itself, unless it has voted
    /// since): it may have voted in it before it lost its state.
    pub fn start(&mut self, ctx: &mut Ctx<'_>, rejoins: bool) {
        if rejoins {
            (self.ready, self.leader) = (false, None);
        }
        self.last_fetch.fill(ctx.now());
        if self.ready && !self.leads() {
            self.reset_deadline(ctx);
        }
    }

    /// Marks a member that rebuilt its state ready. Its next fetch goes to
    /// the leader at once.
    fn set_ready(&mut self, ctx: &mut Ctx<'_>) {
        (self.ready, self.awaiting) = (true, None);
        self.voted_for.get_or_insert(self.me);
        self.reset_deadline(ctx);
    }

    /// Draws a new election deadline from the run's RNG: the timeout plus
    /// up to the jitter, uniformly, from now.
    fn reset_deadline(&mut self, ctx: &mut Ctx<'_>) {
        let jitter = ctx.rng().gen_range(0..=self.jitter.as_nanos());
        self.drawn = self.timeout + SimDuration::from_nanos(jitter);
        self.deadline = ctx.now() + self.drawn;
    }

    /// Leaves the leader's role: held fetches are dropped (their members
    /// fetch again).
    fn step_down(&mut self, ctx: &mut Ctx<'_>) {
        if self.leads() {
            self.held.drain().for_each(drop);
            self.reset_deadline(ctx);
        }
        self.leader = None;
    }

    /// Follows `term` if it is newer: the member clears its vote, ends its
    /// candidacy and no longer knows the leader (a leader steps down), and
    /// a ready member sends its fetch anew.
    fn follow_newer(&mut self, ctx: &mut Ctx<'_>, term: u64) {
        if term <= self.term {
            return;
        }
        (self.term, self.voted_for, self.votes) = (term, None, None);
        self.step_down(ctx);
        if self.ready {
            self.awaiting = None;
        }
    }

    /// When a member that does not lead should send its next fetch: now if
    /// none is out, else once the one out is `stale_after` old (a fetch or
    /// its answer was lost, or the leader is gone). Never while leading.
    fn fetch_due_at(&self, stale_after: SimDuration) -> SimTime {
        match self.awaiting {
            _ if self.leads() => SimTime::MAX,
            None => SimTime::ZERO,
            Some((_, sent)) => sent.saturating_add(stale_after),
        }
    }

    /// Keeps one fetch outstanding while this member does not lead: sends
    /// a new one, under a fresh correlation id ([`Ctx::next_corr`]), when
    /// none is out or the one out is `stale_after` old. It goes to the
    /// leader, or to every peer when this member knows none, or while it is
    /// not ready to every peer whose answer it has not taken. Returns when
    /// the next one is due.
    pub fn refetch(&mut self, ctx: &mut Ctx<'_>, stale_after: SimDuration) -> SimTime {
        if self.fetch_due_at(stale_after) <= ctx.now() {
            let corr = ctx.next_corr();
            self.awaiting = Some((corr, ctx.now()));
            let fetch = Fetch {
                corr,
                after: self.log_end(),
                last_term: self.last_term(),
                term: self.term,
                ready: self.ready,
            };
            let (from, to) = (self.me as u32, self.leader.filter(|_| self.ready));
            for j in 0..self.members.len() {
                let ask = match to {
                    Some(to) => j == to,
                    None => j != self.me && (fetch.ready || !self.answered[j]),
                };
                if ask {
                    ctx.send(self.members[j], QuorumRpc::<E>::Fetch { from, fetch });
                }
            }
        }
        self.fetch_due_at(stale_after)
    }

    /// Takes one of the group's messages. One that names no other member
    /// is dropped. A vote request is granted or refused and replied to (a
    /// member that is not ready ignores it), a vote reply is counted, a
    /// fetch is held or answered, and an answer to this member's fetch is
    /// taken: its state (through [`Owner::install`]) and its entries
    /// (through [`Owner::receive`]).
    pub fn on_rpc(
        &mut self,
        ctx: &mut Ctx<'_>,
        rpc: QuorumRpc<E>,
        owner: &mut impl Owner<E>,
    ) -> Taken {
        let (QuorumRpc::Vote { from, .. }
        | QuorumRpc::VoteReply { from, .. }
        | QuorumRpc::Fetch { from, .. }
        | QuorumRpc::Answer(Answer { from, .. })) = rpc;
        let from = from as usize;
        if from >= self.members.len() || from == self.me {
            return Taken::Nothing;
        }
        match rpc {
            QuorumRpc::Vote {
                term,
                last_term,
                end,
                ..
            } => {
                if self.ready {
                    let granted = self.vote(ctx, term, from, (last_term, end));
                    let (term, me) = (self.term, self.me as u32);
                    let reply = QuorumRpc::<E>::VoteReply {
                        from: me,
                        term,
                        granted,
                    };
                    ctx.send(self.members[from], reply);
                }
            }
            QuorumRpc::VoteReply { term, granted, .. } => {
                if self.tally(ctx, term, from, granted) {
                    return Taken::Won;
                }
            }
            QuorumRpc::Fetch { fetch, .. } => self.take_fetch(ctx, from, fetch, owner),
            QuorumRpc::Answer(answer) => return self.take_answer(ctx, from, answer, owner),
        }
        Taken::Nothing
    }

    /// Takes member `from`'s fetch. A newer term deposes this member
    /// first. The leader holds a ready member's fetch of its own term that
    /// matches its log and has nothing after it, one per member (a newer
    /// fetch replaces the older), until the log grows or the hold ends; it
    /// answers every other one at once, once the owner has acted on it. A
    /// member that does not lead answers only a member that is not ready,
    /// with what it holds.
    fn take_fetch(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: usize,
        fetch: Fetch,
        owner: &mut impl Owner<E>,
    ) {
        self.follow_newer(ctx, fetch.term);
        if !self.leads() {
            if !fetch.ready {
                self.answer(ctx, &*owner, from, fetch);
            }
            return;
        }
        let now = ctx.now();
        self.last_fetch[from] = now;
        let current = fetch.term == self.term && self.suffix(&fetch).is_some();
        if current {
            self.progress[from] = fetch.after;
        }
        let hold = current && fetch.ready && fetch.after == self.log_end();
        match hold {
            true => self.held.hold(from, fetch, Some(now + self.hold)),
            false => self.held.take(&from),
        };
        owner.took_fetch(ctx, self, current);
        if hold {
            ctx.set_timer(self.hold, self.hold_tag);
        } else {
            self.answer(ctx, &*owner, from, fetch);
        }
    }

    /// Sends member `to` the log after `fetch`'s end: the entries after
    /// it, or, when this log does not hold its last entry under its term,
    /// the owner's state and the entries after it.
    fn answer(&self, ctx: &mut Ctx<'_>, owner: &impl Owner<E>, to: usize, fetch: Fetch) {
        let (after, entries, state) = match self.suffix(&fetch) {
            Some(entries) => (fetch.after, entries, None),
            None => {
                let (at, state) = owner.fallback(self);
                let term = self.term_at(at).expect("a fallback the log holds");
                let entries = &self.log[(at - self.log_start) as usize..];
                (at, entries, Some((term, state)))
            }
        };
        let answer = QuorumRpc::Answer(Answer {
            from: self.me as u32,
            corr: fetch.corr,
            term: self.term,
            leads: self.leads(),
            after,
            entries: entries.to_vec(),
            state,
            floor: self.log_start,
            commit: owner.commit(),
        });
        ctx.send(self.members[to], answer);
    }

    /// Answers every held fetch the log has grown past and then every one
    /// whose hold has ended, each in member order.
    pub fn answer_held(&mut self, ctx: &mut Ctx<'_>, owner: &impl Owner<E>) {
        self.wake_held(ctx.now(), |q, i, fetch| q.answer(ctx, owner, i, fetch));
    }

    /// Hands `answer` every held fetch the log has grown past and then
    /// every one whose deadline is at or before `now`, each in member
    /// order.
    fn wake_held(&mut self, now: SimTime, mut answer: impl FnMut(&Self, usize, Fetch)) {
        let mut held = std::mem::take(&mut self.held);
        let end = self.log_end();
        held.wake(|i, fetch| {
            if fetch.after >= end {
                return Some(fetch);
            }
            answer(self, *i, fetch);
            None
        });
        held.expire(now, |i, fetch| answer(self, *i, fetch));
        self.held = held;
    }

    /// Takes member `from`'s answer. A ready member ignores an answer of an
    /// older term and follows a newer one; it takes the leader of its term
    /// from the answer, which puts off its election without a draw. An
    /// answer to its outstanding fetch is taken, whatever the answer's term
    /// (winning a term drops the outstanding fetch, so the log it was asked
    /// after has not moved since): its state, when this member takes it (a
    /// member that is not ready takes only a state fresher than what it
    /// holds), then the entries it does not hold yet, then its floor. The
    /// answer completes a ready member's fetch. A member that is not ready
    /// takes one answer from each peer it asked, and keeps its fetch out
    /// until it is stale; it becomes ready once all but a majority less one
    /// of its peers have answered it.
    fn take_answer(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: usize,
        a: Answer<E>,
        owner: &mut impl Owner<E>,
    ) -> Taken {
        let ready = self.ready;
        if ready && a.term < self.term {
            return Taken::Nothing;
        }
        // A member that is not ready takes each peer's answer once.
        let fresh = ready || !self.answered[from];
        let outstanding = fresh && self.awaiting.is_some_and(|(c, _)| c == a.corr);
        self.follow_newer(ctx, a.term);
        if a.leads && a.term == self.term {
            // A candidate concedes; the deadline is put off as far as it
            // was drawn, without a draw per answer.
            (self.votes, self.leader) = (None, Some(from));
            self.deadline = ctx.now() + self.drawn;
        }
        if !outstanding {
            return Taken::Nothing;
        }
        match ready {
            true => self.awaiting = None,
            false => self.answered[from] = true,
        }
        let ours = (self.last_term(), self.log_end());
        let fresher = |(term, _): &(u64, _)| ready || (*term, a.after) > ours;
        if let Some((term, state)) = a.state.filter(fresher) {
            self.restart(a.after, term);
            owner.install(self, state);
        }
        for (at, (term, entry)) in (a.after + 1..).zip(a.entries) {
            // One at or below the log end is held already.
            if at == self.log_end() + 1 {
                owner.receive(self, &entry);
                self.push(term, entry);
            }
        }
        self.truncate_to(a.floor);
        let answers = self.answered.iter().filter(|a| **a).count();
        let now_ready = !ready && answers > self.members.len() - self.majority();
        if now_ready {
            self.set_ready(ctx);
        }
        let commit = a.commit;
        Taken::Answer {
            commit,
            ready: now_ready,
        }
    }

    /// Decides `candidate`'s request for this member's vote in `term`, the
    /// candidate's log ending at an entry of `end.0` at index `end.1`. A
    /// newer term is followed first. The vote is granted only in the
    /// current term, to a candidate whose log is at least as fresh, and to
    /// one candidate per term; a granted vote puts off this member's own
    /// election.
    fn vote(&mut self, ctx: &mut Ctx<'_>, term: u64, candidate: usize, end: (u64, u64)) -> bool {
        self.follow_newer(ctx, term);
        let fresh = end >= (self.last_term(), self.log_end());
        let free = self.voted_for.is_none_or(|v| v == candidate);
        let granted = term == self.term && fresh && free;
        if granted {
            self.voted_for = Some(candidate);
            self.reset_deadline(ctx);
        }
        granted
    }

    /// Counts `from`'s answer to this member's candidacy in `term`. True
    /// once the votes reach a majority: it wins the term, leads it, counts
    /// progress afresh and takes every member as live until it has had a
    /// timeout to hear from it.
    fn tally(&mut self, ctx: &mut Ctx<'_>, term: u64, from: usize, granted: bool) -> bool {
        self.follow_newer(ctx, term);
        let majority = self.majority();
        let Some(votes) = self.votes.as_mut().filter(|_| term == self.term) else {
            return false;
        };
        if granted {
            votes.insert(from);
        }
        if votes.len() < majority {
            return false;
        }
        (self.votes, self.leader) = (None, Some(self.me));
        self.awaiting = None;
        self.term_start = self.log_end();
        self.progress.fill(0);
        self.last_fetch.fill(ctx.now());
        true
    }

    /// The election timer. The leader steps down when no majority has
    /// fetched from it for a timeout; a ready member that does not lead
    /// stands once its deadline has passed: the next term, its own vote, a
    /// new deadline and a vote request to every peer. Returns whether it
    /// won by its own vote (a group of one) and when the timer fires next:
    /// at the deadline for a ready follower (which answers may have put
    /// off by then), else a timeout on.
    pub fn tick(&mut self, ctx: &mut Ctx<'_>) -> (bool, SimTime) {
        let now = ctx.now();
        let mut stood = false;
        if self.leads() && self.live(now).count() < self.majority() {
            self.step_down(ctx);
        } else if self.ready && !self.leads() && now >= self.deadline {
            self.term += 1;
            self.voted_for = Some(self.me);
            self.votes = Some(BTreeSet::from([self.me]));
            self.leader = None;
            self.reset_deadline(ctx);
            let (from, term) = (self.me as u32, self.term);
            let (last_term, end) = (self.last_term(), self.log_end());
            for (_, &pid) in self
                .members
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != self.me)
            {
                let vote = QuorumRpc::<E>::Vote {
                    from,
                    term,
                    last_term,
                    end,
                };
                ctx.send(pid, vote);
            }
            stood = true;
        }
        let next = match self.ready && !self.leads() {
            true => self.deadline,
            false => now + self.timeout,
        };
        (stood && self.tally(ctx, self.term, self.me, true), next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Message, Process, ProcessId, Sim};

    /// Runs `f` once with a [`Ctx`], at the start of a one-process run.
    fn with_ctx(f: impl FnOnce(&mut Ctx<'_>) + 'static) {
        struct Once<F>(Option<F>);
        impl<F: FnOnce(&mut Ctx<'_>) + 'static> Process for Once<F> {
            fn name(&self) -> &str {
                "once"
            }
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                (self.0.take().expect("started once"))(ctx);
            }
            fn on_message(&mut self, _: &mut Ctx<'_>, _: ProcessId, _: Box<dyn Message>) {}
        }
        let mut sim = Sim::new(1);
        sim.spawn(Box::new(Once(Some(f))));
        sim.run_until(SimTime::from_secs(1));
    }

    fn ms(ms: u64) -> SimDuration {
        SimDuration::from_millis(ms)
    }

    impl Entry for char {
        type State = ();
        const HEADERS: [usize; 4] = [1; 4];
        fn wire_size(&self) -> usize {
            1
        }
        fn state_size(_: &()) -> usize {
            0
        }
    }

    /// Member 0 of three, knowing `leader`. Every member is the one process
    /// [`with_ctx`] runs, which drops what it is sent.
    fn member(leader: Option<usize>) -> Quorum<char> {
        Quorum::new(
            vec![ProcessId(0); 3],
            0,
            leader,
            ms(1_000),
            ms(100),
            ms(100),
            9,
        )
    }

    /// Stands `q` for election now.
    fn stand(q: &mut Quorum<char>, ctx: &mut Ctx<'_>) {
        let term = q.term();
        q.deadline = ctx.now();
        q.tick(ctx);
        assert_eq!(q.term(), term + 1, "stood");
    }

    #[test]
    fn one_vote_per_term_kept_while_following_the_leader_of_that_term() {
        with_ctx(|ctx| {
            let mut q = member(None);
            assert!(q.vote(ctx, 1, 1, (0, 0)));
            assert!(q.vote(ctx, 1, 1, (0, 0)), "the same candidate again");
            // Hearing term 1's leader keeps the vote.
            hear(&mut q, ctx, 0, 1, Some(1));
            assert!(!q.vote(ctx, 1, 2, (0, 0)));
            // A newer term frees it.
            assert!(q.vote(ctx, 2, 2, (0, 0)));
            assert!(!q.vote(ctx, 1, 1, (9, 9)), "an old term gets no vote");
        });
    }

    #[test]
    fn a_vote_goes_only_to_a_log_at_least_as_fresh() {
        with_ctx(|ctx| {
            let mut q = member(None);
            for term in [1, 1, 2, 2, 2] {
                q.push(term, 'x');
            }
            assert!(!q.vote(ctx, 3, 1, (1, 9)), "older last term");
            assert!(!q.vote(ctx, 3, 1, (2, 4)), "same term, shorter");
            assert!(q.vote(ctx, 3, 1, (2, 5)));
        });
    }

    #[test]
    fn a_candidacy_wins_at_a_majority_of_its_own_term_only() {
        with_ctx(|ctx| {
            let mut q = member(None);
            stand(&mut q, ctx);
            assert_eq!(q.term(), 1);
            assert!(!q.vote(ctx, 1, 1, (9, 9)), "voted for itself");
            assert!(!q.tally(ctx, 0, 1, true), "an answer from another term");
            assert!(!q.tally(ctx, 1, 1, false), "refused");
            assert!(q.tally(ctx, 1, 2, true) && q.leads());
            assert!(!q.tally(ctx, 1, 1, true), "already won");
            // Deposed by term 2's leader, it stands in term 3; hearing that
            // term's leader ends the candidacy.
            hear(&mut q, ctx, 0, 2, Some(2));
            stand(&mut q, ctx);
            hear(&mut q, ctx, 0, 3, Some(1));
            assert!(!q.tally(ctx, 3, 2, true), "following ends the candidacy");
        });
    }

    /// Hears an answer to fetch `corr` of `term` from the `leader` of that
    /// term (from member 1, leading nothing, when `None`): true when it was
    /// to the fetch out.
    fn hear(
        q: &mut Quorum<char>,
        ctx: &mut Ctx<'_>,
        corr: u64,
        term: u64,
        leader: Option<usize>,
    ) -> bool {
        let answer = Answer {
            from: leader.unwrap_or(1) as u32,
            corr,
            term,
            leads: leader.is_some(),
            after: q.log_end(),
            entries: vec![],
            state: None,
            floor: 0,
            commit: 0,
        };
        let taken = q.on_rpc(ctx, QuorumRpc::Answer(answer), &mut Probe::default());
        taken != Taken::Nothing
    }

    /// Sends `q`'s fetch anew, superseding any out, and returns its id.
    fn fetch_anew(q: &mut Quorum<char>, ctx: &mut Ctx<'_>) -> u64 {
        q.awaiting = None;
        q.refetch(ctx, SimDuration::MAX);
        q.awaiting.expect("a fetch out").0
    }

    /// Takes member `i`'s fetch; true when `q` holds it.
    fn held(q: &mut Quorum<char>, ctx: &mut Ctx<'_>, i: usize, f: Fetch) -> bool {
        q.take_fetch(ctx, i, f, &mut Probe::default());
        q.held.get(&i).is_some()
    }

    #[test]
    fn an_answer_of_a_newer_term_still_completes_the_outstanding_fetch() {
        with_ctx(|ctx| {
            let mut q = member(Some(1));
            let first = fetch_anew(&mut q, ctx);
            assert!(
                !hear(&mut q, ctx, first + 1, 2, Some(2)),
                "not the fetch out"
            );
            let corr = fetch_anew(&mut q, ctx);
            // Member 2 leads term 3 and answers the fetch sent in term 2.
            assert!(hear(&mut q, ctx, corr, 3, Some(2)));
            assert_eq!((q.term(), q.leader), (3, Some(2)));
            assert!(!hear(&mut q, ctx, corr, 3, Some(2)), "completed once");
        });
    }

    #[test]
    fn a_ready_member_ignores_an_answer_of_an_older_term() {
        with_ctx(|ctx| {
            let mut q = member(Some(1));
            q.push(1, 'a');
            hear(&mut q, ctx, 0, 2, Some(1));
            let corr = fetch_anew(&mut q, ctx);
            let (log, awaiting) = (q.entries().to_vec(), q.awaiting);
            // Term 1's leader answers the fetch out: an entry to append, a
            // floor to truncate to and a commit.
            let stale = Answer {
                from: 2,
                corr,
                term: 1,
                leads: true,
                after: q.log_end(),
                entries: vec![(1, 'b')],
                state: Some((1, ())),
                floor: 1,
                commit: 2,
            };
            let mut owner = Probe::default();
            let taken = q.on_rpc(ctx, QuorumRpc::Answer(stale), &mut owner);
            assert_eq!(taken, Taken::Nothing, "no commit taken");
            assert_eq!((q.entries(), q.log_start()), (&log[..], 0));
            assert_eq!(q.awaiting, awaiting, "the fetch is still out");
            assert_eq!((q.term(), q.leader), (2, Some(1)));
            assert_eq!(owner.0, 0, "nothing installed or received");
        });
    }

    #[test]
    fn a_member_made_ready_casts_no_vote_in_its_term_but_keeps_one_cast() {
        with_ctx(|ctx| {
            let mut q: Quorum<char> =
                Quorum::new(vec![ProcessId(0); 3], 0, None, ms(1), ms(1), ms(1), 9);
            q.start(ctx, true);
            hear(&mut q, ctx, 0, 4, None);
            q.set_ready(ctx);
            assert!(!q.vote(ctx, 4, 1, (0, 0)));
            assert!(q.vote(ctx, 5, 1, (0, 0)));
            q.set_ready(ctx);
            assert!(q.vote(ctx, 5, 1, (0, 0)), "the vote cast stays");
        });
    }

    /// A fetch by a ready member in term `term`.
    fn fetch(corr: u64, after: u64, last_term: u64, term: u64) -> Fetch {
        let ready = true;
        Fetch {
            corr,
            after,
            last_term,
            term,
            ready,
        }
    }

    #[test]
    fn the_majority_held_index_never_counts_an_entry_of_an_earlier_term() {
        with_ctx(|ctx| {
            let mut q = member(None);
            q.push(1, 'a');
            q.push(1, 'b');
            // Member 0 wins term 2 over a log of term 1.
            hear(&mut q, ctx, 0, 1, None);
            stand(&mut q, ctx);
            assert!(q.tally(ctx, 2, 1, true) && q.leads());
            // A majority holds both term-1 entries: not committed by count.
            assert!(held(&mut q, ctx, 1, fetch(0, 2, 1, 2)));
            assert_eq!(q.majority_held(), None);
            q.push(2, 'c');
            assert_eq!(q.majority_held(), None, "only the leader holds 'c'");
            // The first term-2 entry a majority holds commits all three.
            assert!(held(&mut q, ctx, 1, fetch(1, 3, 2, 2)));
            assert_eq!(q.majority_held(), Some(3));
            // A fetch of another term is no progress.
            q.push(2, 'd');
            assert!(!held(&mut q, ctx, 2, fetch(2, 4, 2, 1)));
            assert_eq!(q.progress[2], 0);
            assert_eq!(q.majority_held(), Some(3));
        });
    }

    #[test]
    fn term_at_and_truncate_to_hold_at_the_log_start() {
        let mut q = member(Some(0));
        for (term, entry) in [(1, 'a'), (1, 'b'), (2, 'c'), (2, 'd')] {
            q.push(term, entry);
        }
        q.truncate_to(2);
        assert_eq!((q.log_start(), q.truncated(), q.log_end()), (2, 2, 4));
        let terms: Vec<_> = (0..=5).map(|at| q.term_at(at)).collect();
        assert_eq!(terms, [None, None, Some(1), Some(2), Some(2), None]);
        assert_eq!(
            q.suffix(&fetch(0, 2, 1, 0)),
            Some(&[(2, 'c'), (2, 'd')][..])
        );
        assert_eq!(q.suffix(&fetch(0, 2, 2, 0)), None, "diverges at the start");
        assert_eq!(q.suffix(&fetch(0, 1, 1, 0)), None, "truncated away");
        q.truncate_to(1);
        assert_eq!(q.log_start(), 2, "below the start: no-op");
        q.truncate_to(9);
        assert_eq!((q.log_start(), q.entries().len(), q.truncated()), (4, 0, 4));
        assert_eq!((q.term_at(4), q.last_term()), (Some(2), 2));
        assert_eq!(q.suffix(&fetch(0, 4, 2, 0)), Some(&[][..]));
        q.restart(7, 3);
        assert_eq!(
            (q.log_end(), q.term_at(7), q.term_at(6)),
            (7, Some(3), None)
        );
        assert_eq!(q.truncated(), 4, "a restart truncates nothing");
    }

    #[test]
    fn a_held_fetch_is_answered_by_an_append_or_empty_at_its_deadline() {
        with_ctx(|ctx| {
            let mut q = member(Some(0));
            q.start(ctx, false);
            let now = ctx.now();
            let answered = |q: &mut Quorum<char>, at: SimTime| {
                let mut out = Vec::new();
                q.wake_held(at, |q, i, f| {
                    out.push((i, f.corr, q.suffix(&f).unwrap().to_vec()))
                });
                out
            };
            for i in [2, 1] {
                assert!(held(&mut q, ctx, i, fetch(i as u64, 0, 0, 0)));
            }
            assert_eq!(answered(&mut q, now), []);
            q.push(0, 'x');
            let both = [(1, 1, vec![(0, 'x')]), (2, 2, vec![(0, 'x')])];
            assert_eq!(answered(&mut q, now), both, "in member order");
            assert_eq!(answered(&mut q, now + ms(100)), [], "answered once");
            assert!(held(&mut q, ctx, 1, fetch(3, 1, 0, 0)));
            assert_eq!(answered(&mut q, now + ms(99)), []);
            assert_eq!(answered(&mut q, now + ms(100)), [(1, 3, vec![])]);
            // A member that is not ready is answered at once.
            let unready = Fetch {
                ready: false,
                ..fetch(4, 1, 0, 0)
            };
            assert!(!held(&mut q, ctx, 2, unready));
            assert_eq!(q.progress[2], 1, "counted as progress");
        });
    }

    /// Answers a fetch that does not match with the empty state at the log
    /// start, and counts every call it gets.
    #[derive(Debug, Default)]
    struct Probe(usize);

    impl Owner<char> for Probe {
        fn fallback(&self, q: &Quorum<char>) -> (u64, ()) {
            (q.log_start(), ())
        }
        fn took_fetch(&mut self, _: &mut Ctx<'_>, _: &mut Quorum<char>, _: bool) {
            self.0 += 1;
        }
        fn install(&mut self, _: &Quorum<char>, _: ()) {
            self.0 += 1;
        }
        fn receive(&mut self, _: &Quorum<char>, _: &char) {
            self.0 += 1;
        }
    }

    /// Member 0 of three standing in term 1 with a fetch out, which the
    /// message `rpc(from)` of any kind changes when `from` is a peer: it
    /// drops the message from an index out of range or its own, with no
    /// panic and no change to the member or a call to its owner.
    fn dropped(rpc: impl Fn(u32) -> QuorumRpc<char> + 'static) {
        with_ctx(move |ctx| {
            let mut q = member(None);
            q.start(ctx, false);
            q.refetch(ctx, SimDuration::MAX);
            stand(&mut q, ctx);
            let before = format!("{q:?}");
            let mut owner = Probe::default();
            for from in [0, 3, u32::MAX] {
                assert_eq!(q.on_rpc(ctx, rpc(from), &mut owner), Taken::Nothing);
                assert_eq!(format!("{q:?}"), before, "from {from}");
            }
            assert_eq!(owner.0, 0);
            q.on_rpc(ctx, rpc(1), &mut owner);
            assert_ne!(format!("{q:?}"), before, "from a peer");
        });
    }

    #[test]
    fn a_vote_naming_no_peer_is_dropped() {
        dropped(|from| QuorumRpc::Vote {
            from,
            term: 5,
            last_term: 0,
            end: 0,
        });
    }

    #[test]
    fn a_vote_reply_naming_no_peer_is_dropped() {
        dropped(|from| QuorumRpc::VoteReply {
            from,
            term: 1,
            granted: true,
        });
    }

    #[test]
    fn a_fetch_naming_no_peer_is_dropped() {
        dropped(|from| QuorumRpc::Fetch {
            from,
            fetch: fetch(0, 0, 0, 5),
        });
    }

    #[test]
    fn an_answer_naming_no_peer_is_dropped() {
        dropped(|from| {
            QuorumRpc::Answer(Answer {
                from,
                corr: 0,
                term: 5,
                leads: true,
                after: 0,
                entries: vec![(5, 'x')],
                state: None,
                floor: 0,
                commit: 0,
            })
        });
    }
}
