//! Raft's leader election, for every replicated group that elects by vote.
//!
//! A member's [`Election`] keeps its term, the one vote it may cast in that
//! term, the votes its own candidacy has won and its randomized election
//! deadline. The group decides what a log is and how it replicates; the
//! election only compares two logs' freshness keys (Raft §5.4.1: the last
//! entry's term, then the log's length) and counts votes to a majority.
//! Terms rise and never fall, and a vote is cleared only when the term
//! rises: hearing the leader of the current term keeps it.

use std::collections::BTreeSet;

use rand::Rng;

use crate::{Ctx, SimDuration, SimTime};

/// One member's term, vote, candidacy and election deadline.
#[derive(Debug)]
pub struct Election<Id> {
    term: u64,
    voted_for: Option<Id>,
    /// The votes won in `term`, while this member stands in it.
    votes: Option<BTreeSet<Id>>,
    timeout: SimDuration,
    jitter: SimDuration,
    /// The timeout last drawn.
    drawn: SimDuration,
    deadline: SimTime,
}

impl<Id: Ord + Copy> Election<Id> {
    /// A member in term 0 that has voted for nobody, whose election
    /// timeout is `timeout` plus a random part of up to `jitter`.
    pub fn new(timeout: SimDuration, jitter: SimDuration) -> Self {
        Election {
            term: 0,
            voted_for: None,
            votes: None,
            timeout,
            jitter,
            drawn: timeout,
            deadline: SimTime::ZERO,
        }
    }

    /// The current term.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Follows a leader or candidate of `term`: adopts it if it is newer,
    /// which clears the vote, and ends this member's own candidacy.
    pub fn follow(&mut self, term: u64) {
        if term > self.term {
            self.term = term;
            self.voted_for = None;
        }
        self.votes = None;
    }

    /// Decides `candidate`'s request for a vote in `term`, given the
    /// freshness keys of its log and of this member's. The vote is granted
    /// only in the current term, to a candidate whose log is at least as
    /// fresh, and to one candidate per term.
    pub fn grant<L: Ord>(&mut self, term: u64, candidate: Id, theirs: L, ours: L) -> bool {
        let grant =
            term == self.term && theirs >= ours && self.voted_for.is_none_or(|v| v == candidate);
        if grant {
            self.voted_for = Some(candidate);
        }
        grant
    }

    /// Casts this term's vote for `me`, so no other candidate gets it: for
    /// a member that may have voted in this term before it lost its state.
    pub fn abstain(&mut self, me: Id) {
        self.voted_for.get_or_insert(me);
    }

    /// Stands for election: moves to the next term and votes for `me`.
    /// Returns the new term.
    pub fn stand(&mut self, me: Id) -> u64 {
        self.term += 1;
        self.voted_for = Some(me);
        self.votes = Some(BTreeSet::from([me]));
        self.term
    }

    /// Counts `from`'s answer to this member's candidacy in `term`. True
    /// once the votes reach `majority`, which ends the candidacy: the
    /// member has won the term.
    pub fn tally(&mut self, term: u64, from: Id, granted: bool, majority: usize) -> bool {
        let Some(votes) = self.votes.as_mut().filter(|_| term == self.term) else {
            return false;
        };
        if granted {
            votes.insert(from);
        }
        let won = votes.len() >= majority;
        if won {
            self.votes = None;
        }
        won
    }

    /// Draws a new election deadline from the run's RNG: the timeout plus
    /// up to the jitter, uniformly, from now.
    pub fn reset_deadline(&mut self, ctx: &mut Ctx<'_>) {
        let jitter = ctx.rng().gen_range(0..=self.jitter.as_nanos());
        self.drawn = self.timeout + SimDuration::from_nanos(jitter);
        self.deadline = ctx.now() + self.drawn;
    }

    /// Puts the deadline off to `now` plus the timeout last drawn, drawing
    /// nothing: a follower that hears its leader again waits as long again
    /// without a draw from the run's RNG per heartbeat.
    pub fn hold_off(&mut self, now: SimTime) {
        self.deadline = now + self.drawn;
    }

    /// When the member stands for election unless the deadline is reset
    /// first.
    pub fn deadline(&self) -> SimTime {
        self.deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_vote_per_term_kept_while_following_the_same_term() {
        let mut e = Election::new(SimDuration::from_millis(10), SimDuration::from_millis(10));
        e.follow(1);
        assert!(e.grant(1, 'a', 0, 0));
        assert!(e.grant(1, 'a', 0, 0), "the same candidate again");
        // Hearing term 1's leader keeps the vote.
        e.follow(1);
        assert!(!e.grant(1, 'b', 0, 0));
        // A newer term frees it.
        e.follow(2);
        assert!(e.grant(2, 'b', 0, 0));
        assert!(!e.grant(1, 'c', 0, 0), "an old term gets no vote");
    }

    #[test]
    fn a_vote_goes_only_to_a_log_at_least_as_fresh() {
        let mut e = Election::new(SimDuration::from_millis(10), SimDuration::from_millis(10));
        e.follow(3);
        assert!(!e.grant(3, 'a', (1, 9), (2, 0)), "older last term");
        assert!(!e.grant(3, 'a', (2, 4), (2, 5)), "same term, shorter");
        assert!(e.grant(3, 'a', (2, 5), (2, 5)));
    }

    #[test]
    fn a_candidacy_wins_at_a_majority_of_its_own_term_only() {
        let mut e = Election::new(SimDuration::from_millis(10), SimDuration::from_millis(10));
        assert_eq!(e.stand('a'), 1);
        assert!(!e.grant(1, 'b', 9, 0), "voted for itself");
        assert!(!e.tally(0, 'b', true, 2), "an answer from another term");
        assert!(!e.tally(1, 'b', false, 2), "refused");
        assert!(e.tally(1, 'c', true, 2));
        assert!(!e.tally(1, 'b', true, 2), "already won");
        e.stand('a');
        e.follow(2);
        assert!(!e.tally(2, 'b', true, 2), "following ends the candidacy");
    }

    #[test]
    fn abstaining_keeps_a_vote_already_cast() {
        let mut e = Election::new(SimDuration::from_millis(10), SimDuration::from_millis(10));
        e.follow(4);
        e.abstain('z');
        assert!(!e.grant(4, 'a', 0, 0));
        e.follow(5);
        assert!(e.grant(5, 'a', 0, 0));
        e.abstain('z');
        assert!(e.grant(5, 'a', 0, 0), "the vote cast stays");
    }
}
