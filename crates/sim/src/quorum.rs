//! One replicated group: Raft's election and a log that followers pull,
//! for every group that elects by vote.
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
//! The owner keeps its own messages and what only it does: it builds the
//! requests and answers from what the quorum hands it, and decides what an
//! entry means and what to answer a member whose log diverges.

use std::collections::BTreeSet;

use rand::Rng;

use crate::{Ctx, SimDuration, SimTime, Waiters};

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

/// What the leader does with a member's fetch ([`Quorum::take_fetch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intake {
    /// The member taking it does not lead.
    Pass,
    /// Held until the log grows or the hold interval passes: the owner arms
    /// a timer for [`Quorum::answer_held`].
    Held,
    /// To be answered now. `current` when it matched the leader's log under
    /// the leader's term, and so counted as the member's progress.
    Answer {
        /// Whether the fetch counted as progress.
        current: bool,
    },
}

/// One member's view of a replicated group: its election and its log.
///
/// Members are indices `0..n`, the same on every member; the owner maps
/// them to process ids. Entry `i` of the log (1-based) is at index `i`;
/// index 0, the empty log, has term 0.
#[derive(Debug)]
pub struct Quorum<E> {
    me: usize,
    term: u64,
    voted_for: Option<usize>,
    /// The votes won in `term`, while this member stands in it.
    votes: Option<BTreeSet<usize>>,
    leader: Option<usize>,
    /// False while the member rebuilds state it lost: it neither stands nor
    /// votes, and fetches from every peer.
    ready: bool,
    /// When this member stands unless it hears from a leader first, and
    /// the election timeout last drawn: `timeout` plus up to `jitter`.
    deadline: SimTime,
    drawn: SimDuration,
    timeout: SimDuration,
    jitter: SimDuration,
    hold: SimDuration,
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

impl<E> Quorum<E> {
    /// Member `me` of a group of `n`, in term 0 with `leader` (if it knows
    /// one), no vote cast and an empty log. Its election timeout is
    /// `timeout` plus up to `jitter`; a leader holds a fetch for up to
    /// `hold` and steps down when no majority has fetched from it for
    /// `timeout`. A member that is not `ready` neither stands nor votes
    /// until [`set_ready`](Self::set_ready).
    ///
    /// # Panics
    ///
    /// Panics if `me` is not a member.
    pub fn new(
        n: usize,
        me: usize,
        leader: Option<usize>,
        ready: bool,
        timeout: SimDuration,
        jitter: SimDuration,
        hold: SimDuration,
    ) -> Self {
        assert!(me < n, "member index out of range");
        Quorum {
            me,
            term: 0,
            voted_for: None,
            votes: None,
            leader,
            ready,
            deadline: SimTime::ZERO,
            drawn: timeout,
            timeout,
            jitter,
            hold,
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

    /// The leader of the current term, when this member knows it.
    pub fn leader(&self) -> Option<usize> {
        self.leader
    }

    /// Whether this member leads the current term.
    pub fn leads(&self) -> bool {
        self.leader == Some(self.me)
    }

    /// Whether this member stands, votes and serves.
    pub fn ready(&self) -> bool {
        self.ready
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
    /// installed a state that holds everything up to `at`, or took a log
    /// that replaces this one.
    pub fn restart(&mut self, at: u64, term: u64) {
        self.log.clear();
        self.log_start = at;
        self.log_start_term = term;
    }

    /// Drops the prefix up to `floor`, where this log holds it.
    pub fn truncate_to(&mut self, floor: u64) {
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
    pub fn suffix(&self, fetch: &Fetch) -> Option<&[(u64, E)]> {
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
        self.progress.len() / 2 + 1
    }

    /// Itself and the members that fetched from it within the timeout.
    fn live(&self, now: SimTime) -> impl Iterator<Item = usize> + '_ {
        let seen = move |i: &usize| now.saturating_since(self.last_fetch[*i]) <= self.timeout;
        (0..self.progress.len()).filter(move |i| *i == self.me || seen(i))
    }

    /// Starts the member: until they fetch, every member counts as live (a
    /// fresh leader does not step down at once, nor truncate past a
    /// member), and a ready follower draws its election deadline.
    pub fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.last_fetch.fill(ctx.now());
        if self.ready && !self.leads() {
            self.reset_deadline(ctx);
        }
    }

    /// Marks a member that rebuilt its state ready. It casts no vote in the
    /// term it has (its vote goes to itself, unless it has voted since): it
    /// may have voted in it before it lost its state.
    pub fn set_ready(&mut self, ctx: &mut Ctx<'_>) {
        self.ready = true;
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

    /// Starts this member's one outstanding fetch under a fresh correlation
    /// id ([`Ctx::next_corr`]), superseding any still out. Returns it and
    /// whom to send it: the leader, or every peer (`None`) when it knows
    /// none or is not ready.
    pub fn fetch(&mut self, ctx: &mut Ctx<'_>) -> (Fetch, Option<usize>) {
        let corr = ctx.next_corr();
        self.awaiting = Some((corr, ctx.now()));
        let fetch = Fetch {
            corr,
            after: self.log_end(),
            last_term: self.last_term(),
            term: self.term,
            ready: self.ready,
        };
        (fetch, self.leader.filter(|_| self.ready))
    }

    /// When a member that does not lead should send its next fetch: now if
    /// none is out, else once the one out is `stale_after` old (a fetch or
    /// its answer was lost, or the leader is gone). Never while leading.
    pub fn fetch_due_at(&self, stale_after: SimDuration) -> SimTime {
        match self.awaiting {
            _ if self.leads() => SimTime::MAX,
            None => SimTime::ZERO,
            Some((_, sent)) => sent.saturating_add(stale_after),
        }
    }

    /// Takes member `from`'s fetch. A newer term deposes this member
    /// first. The leader holds a ready member's fetch of its own term that
    /// matches its log and has nothing after it, one per member (a newer
    /// fetch replaces the older); it answers every other one at once.
    pub fn take_fetch(&mut self, ctx: &mut Ctx<'_>, from: usize, fetch: Fetch) -> Intake {
        self.follow_newer(ctx, fetch.term);
        if !self.leads() {
            return Intake::Pass;
        }
        let now = ctx.now();
        self.last_fetch[from] = now;
        let matches = self.term_at(fetch.after) == Some(fetch.last_term);
        let current = fetch.term == self.term && matches;
        if current {
            self.progress[from] = fetch.after;
        }
        if current && fetch.ready && fetch.after == self.log_end() {
            self.held.hold(from, fetch, Some(now + self.hold));
            Intake::Held
        } else {
            self.held.take(&from);
            Intake::Answer { current }
        }
    }

    /// Answers, through `answer`, every held fetch the log has grown past
    /// and then every one whose deadline is at or before `now`, each in
    /// member order.
    pub fn answer_held(&mut self, now: SimTime, mut answer: impl FnMut(&Self, usize, Fetch)) {
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

    /// Takes an answer to fetch `corr`, of `term`, sent by the `leader` of
    /// that term (`None` from a member that does not lead it). A ready
    /// member ignores an answer of an older term and follows a newer one;
    /// it takes the leader of its term from the answer, which puts off its
    /// election without a draw. Returns whether the answer is to its
    /// outstanding fetch, which it completes, whatever the answer's term:
    /// winning a term drops the outstanding fetch, so the log it was asked
    /// after has not moved since.
    pub fn take_reply(
        &mut self,
        ctx: &mut Ctx<'_>,
        corr: u64,
        term: u64,
        leader: Option<usize>,
    ) -> bool {
        if self.ready && term < self.term {
            return false;
        }
        let outstanding = self.awaiting.is_some_and(|(c, _)| c == corr);
        self.follow_newer(ctx, term);
        if let Some(leader) = leader.filter(|_| term == self.term) {
            // A candidate concedes; the deadline is put off as far as it
            // was drawn, without a draw per answer.
            (self.votes, self.leader) = (None, Some(leader));
            self.deadline = ctx.now() + self.drawn;
        }
        if outstanding {
            self.awaiting = None;
        }
        outstanding
    }

    /// Decides `candidate`'s request for this member's vote in `term`, the
    /// candidate's log ending at an entry of `end.0` at index `end.1`. A
    /// newer term is followed first. The vote is granted only in the
    /// current term, to a candidate whose log is at least as fresh, and to
    /// one candidate per term; a granted vote puts off this member's own
    /// election.
    pub fn vote(
        &mut self,
        ctx: &mut Ctx<'_>,
        term: u64,
        candidate: usize,
        end: (u64, u64),
    ) -> bool {
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
    pub fn tally(&mut self, ctx: &mut Ctx<'_>, term: u64, from: usize, granted: bool) -> bool {
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
    /// stands once its deadline has passed: the next term, its own vote
    /// and a new deadline. Returns whether it stood (the owner then asks
    /// every peer for its vote, and counts its own) and when the timer
    /// fires next: at the deadline for a ready follower (which answers may
    /// have put off by then), else a timeout on.
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
            stood = true;
        }
        match self.ready && !self.leads() {
            true => (stood, self.deadline),
            false => (stood, now + self.timeout),
        }
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

    /// Member 0 of three, knowing `leader`.
    fn member(leader: Option<usize>) -> Quorum<char> {
        Quorum::new(3, 0, leader, true, ms(1_000), ms(100), ms(100))
    }

    /// Stands `q` for election now.
    fn stand(q: &mut Quorum<char>, ctx: &mut Ctx<'_>) {
        q.deadline = ctx.now();
        assert!(q.tick(ctx).0, "stood");
    }

    #[test]
    fn one_vote_per_term_kept_while_following_the_leader_of_that_term() {
        with_ctx(|ctx| {
            let mut q = member(None);
            assert!(q.vote(ctx, 1, 1, (0, 0)));
            assert!(q.vote(ctx, 1, 1, (0, 0)), "the same candidate again");
            // Hearing term 1's leader keeps the vote.
            q.take_reply(ctx, 0, 1, Some(1));
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
            q.take_reply(ctx, 0, 2, Some(2));
            stand(&mut q, ctx);
            q.take_reply(ctx, 0, 3, Some(1));
            assert!(!q.tally(ctx, 3, 2, true), "following ends the candidacy");
        });
    }

    #[test]
    fn an_answer_of_a_newer_term_still_completes_the_outstanding_fetch() {
        with_ctx(|ctx| {
            let mut q = member(Some(1));
            let first = q.fetch(ctx).0.corr;
            assert!(
                !q.take_reply(ctx, first + 1, 2, Some(2)),
                "not the fetch out"
            );
            let corr = q.fetch(ctx).0.corr;
            // Member 2 leads term 3 and answers the fetch sent in term 2.
            assert!(q.take_reply(ctx, corr, 3, Some(2)));
            assert_eq!((q.term(), q.leader()), (3, Some(2)));
            assert!(!q.take_reply(ctx, corr, 3, Some(2)), "completed once");
        });
    }

    #[test]
    fn a_member_made_ready_casts_no_vote_in_its_term_but_keeps_one_cast() {
        with_ctx(|ctx| {
            let mut q: Quorum<char> = Quorum::new(3, 0, None, false, ms(1), ms(1), ms(1));
            q.take_reply(ctx, 0, 4, None);
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
            q.take_reply(ctx, 0, 1, None);
            stand(&mut q, ctx);
            assert!(q.tally(ctx, 2, 1, true) && q.leads());
            // A majority holds both term-1 entries: not committed by count.
            let intake = q.take_fetch(ctx, 1, fetch(0, 2, 1, 2));
            assert_eq!(intake, Intake::Held);
            assert_eq!(q.majority_held(), None);
            q.push(2, 'c');
            assert_eq!(q.majority_held(), None, "only the leader holds 'c'");
            // The first term-2 entry a majority holds commits all three.
            let intake = q.take_fetch(ctx, 1, fetch(1, 3, 2, 2));
            assert_eq!(intake, Intake::Held);
            assert_eq!(q.majority_held(), Some(3));
            // A fetch of another term is no progress.
            q.push(2, 'd');
            let intake = q.take_fetch(ctx, 2, fetch(2, 4, 2, 1));
            assert_eq!(intake, Intake::Answer { current: false });
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
            q.start(ctx);
            let now = ctx.now();
            let answered = |q: &mut Quorum<char>, at: SimTime| {
                let mut out = Vec::new();
                q.answer_held(at, |q, i, f| {
                    out.push((i, f.corr, q.suffix(&f).unwrap().to_vec()))
                });
                out
            };
            for i in [2, 1] {
                assert_eq!(q.take_fetch(ctx, i, fetch(i as u64, 0, 0, 0)), Intake::Held);
            }
            assert_eq!(answered(&mut q, now), []);
            q.push(0, 'x');
            let both = [(1, 1, vec![(0, 'x')]), (2, 2, vec![(0, 'x')])];
            assert_eq!(answered(&mut q, now), both, "in member order");
            assert_eq!(answered(&mut q, now + ms(100)), [], "answered once");
            assert_eq!(q.take_fetch(ctx, 1, fetch(3, 1, 0, 0)), Intake::Held);
            assert_eq!(answered(&mut q, now + ms(99)), []);
            assert_eq!(answered(&mut q, now + ms(100)), [(1, 3, vec![])]);
            // A member that is not ready is answered at once.
            let unready = Fetch {
                ready: false,
                ..fetch(4, 1, 0, 0)
            };
            let intake = q.take_fetch(ctx, 2, unready);
            assert_eq!(intake, Intake::Answer { current: true });
        });
    }
}
