//! A consumer fetch's timeout is the poll timer's business; nothing is
//! armed per fetch.
//!
//! * A fetch whose reply never comes is counted once in `stats.timeouts`,
//!   at `sent + 2 s` (the one poll timer is armed for the oldest deadline
//!   in flight), and that poll fetches the partition again; the reply,
//!   arriving later still, is dropped and counted in `stale_replies`.
//! * Answered fetches leave nothing behind in the event queue. (When every
//!   fetch armed a 2 s timer and cancelled it a millisecond later, each
//!   left a tombstone that sat in the queue's overflow heap for 2 s and was
//!   then popped as an event: 280 000 of the 2.5 M events of one benchmark
//!   run, `docs/performance.md`.)
//!
//! The stub broker holds a fetch that finds nothing for `FETCH_MAX_WAIT`,
//! as the real one does, so the client refetches as each answer arrives.

mod common;

use common::{cluster, stats, stub, Answer, TRANSIT};
use s2g_broker::FETCH_MAX_WAIT;
use s2g_sim::{SimDuration, SimTime};

#[test]
fn a_lost_fetch_times_out_at_its_deadline() {
    let ms = SimTime::from_millis;
    // The second fetch is answered at 3.5 s, with a record; every other one
    // empty, after the wait.
    let script = move |nth, now| match nth {
        2 => Answer::At(ms(3_500), 1),
        _ => Answer::At(now + FETCH_MAX_WAIT, 0),
    };
    let (mut sim, consumer) = cluster(1, SimDuration::from_millis(300), script);
    // The first poll (300 ms) sends the first fetch; its answer, 500 ms on,
    // sends the second, which is overdue 2 s after that.
    let second = ms(800) + TRANSIT * 2;
    sim.run_until(second + SimDuration::from_secs(2) - TRANSIT);
    assert_eq!(stub(&sim).fetches, [ms(300) + TRANSIT, second + TRANSIT]);
    assert_eq!(stats(&sim, consumer).timeouts, 0, "not overdue yet");
    sim.run_until(second + SimDuration::from_secs(2) + TRANSIT);
    assert_eq!(stats(&sim, consumer).timeouts, 1);
    // The poll that gave up on it fetched the partition again.
    let third = second + SimDuration::from_secs(2);
    assert_eq!(stub(&sim).fetches[2..], [third + TRANSIT]);
    // The reply to the fetch given up on arrives at 3.5 s with a record in
    // it, and is dropped: no delivery, no second timeout, fetching goes on.
    sim.run_until(ms(4_000));
    let s = stats(&sim, consumer);
    assert_eq!((s.timeouts, s.records, s.stale_replies), (1, 0, 1));
    assert_eq!(stub(&sim).fetches.len(), 5);
    assert_eq!(s.fetches, 5);
}

#[test]
fn answered_fetches_leave_no_residue_in_the_queue() {
    let hold = |_, now| Answer::At(now + FETCH_MAX_WAIT, 0);
    let (mut sim, consumer) = cluster(64, SimDuration::from_millis(1), hold);
    // From 3 s on, the tombstone of the one metadata request's timeout has
    // been popped too.
    for secs in [3, 7, 11] {
        sim.run_until(SimTime::from_secs(secs));
        assert_eq!(sim.queue_diag().residue, 0, "at {secs} s");
    }
    let s = stats(&sim, consumer);
    assert!(s.fetches >= 64 * 21, "{s:?}");
    assert_eq!(s.timeouts, 0);
    assert_eq!(
        sim.stats().timers_cancelled,
        1,
        "the metadata timeout alone"
    );
}
