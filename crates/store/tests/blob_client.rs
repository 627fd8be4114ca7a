//! `BlobClient` where it lives: request tracking, reply matching and the
//! retry timer against a store stand-in that never answers, the round trip
//! against a real `StoreServer`, and the shared-map medium.

use bytes::Bytes;
use s2g_sim::{downcast, Ctx, Message, Process, ProcessId, Sim, SimDuration, SimTime};
use s2g_store::{blob_map, BlobClient, BlobDone, StoreConfig, StoreRpc, StoreServer};

/// The client's retry-timer tag, clear of the owner's step tags.
const RETRY: u64 = 1 << 40;

type Step = Box<dyn FnMut(&mut BlobClient<u32>, &mut Ctx<'_>)>;

/// Owns a client: runs `steps[i]` at `i + 1` seconds, feeds it every store
/// reply and every timer that is not a step, and logs every completion it
/// hands back and every firing of the client's timer.
struct Owner {
    client: BlobClient<u32>,
    steps: Vec<Step>,
    done: Vec<BlobDone<u32>>,
    retry_fired_at: Vec<SimTime>,
}

impl Owner {
    fn new(client: BlobClient<u32>, steps: Vec<Step>) -> Box<Self> {
        Box::new(Owner {
            client,
            steps,
            done: Vec::new(),
            retry_fired_at: Vec::new(),
        })
    }

    fn spawn(sim: &mut Sim, client: BlobClient<u32>, steps: Vec<Step>) -> ProcessId {
        sim.spawn(Self::new(client, steps))
    }

    fn drain(&mut self) {
        while let Some(done) = self.client.next_done() {
            self.done.push(done);
        }
    }
}

impl Process for Owner {
    fn name(&self) -> &str {
        "owner"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for i in 0..self.steps.len() as u64 {
            ctx.set_timer(SimDuration::from_secs(i + 1), i);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if self.client.on_timer(ctx, tag) {
            self.retry_fired_at.push(ctx.now());
        } else {
            (self.steps[tag as usize])(&mut self.client, ctx);
        }
        self.drain();
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: ProcessId, msg: Box<dyn Message>) {
        if let Ok(rpc) = downcast::<StoreRpc>(msg) {
            self.client.on_reply(*rpc);
            self.drain();
        }
    }
}

/// A store stand-in that records what it is asked and answers nothing.
#[derive(Default)]
struct Blackhole {
    seen: Vec<(u64, &'static str, String)>,
}

impl Process for Blackhole {
    fn name(&self) -> &str {
        "blackhole"
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: ProcessId, msg: Box<dyn Message>) {
        match downcast::<StoreRpc>(msg).map(|rpc| *rpc) {
            Ok(StoreRpc::Put { corr, key, .. }) => self.seen.push((corr, "put", key)),
            Ok(StoreRpc::Get { corr, key }) => self.seen.push((corr, "get", key)),
            Ok(StoreRpc::Delete { corr, key }) => self.seen.push((corr, "delete", key)),
            _ => {}
        }
    }
}

fn seen(sim: &Sim, hole: ProcessId) -> Vec<(u64, &'static str, String)> {
    sim.process_ref::<Blackhole>(hole)
        .expect("blackhole")
        .seen
        .clone()
}

fn owner(sim: &Sim, pid: ProcessId) -> &Owner {
    sim.process_ref::<Owner>(pid).expect("owner")
}

fn secs(at: &[u64]) -> Vec<SimTime> {
    at.iter().map(|s| SimTime::from_secs(*s)).collect()
}

/// A step that only lets a second pass.
fn idle() -> Step {
    Box::new(|_, _| {})
}

/// One get (id 0, the owner's first) and one put (id 1) to a store that
/// never answers.
fn issue_get_and_put() -> Step {
    Box::new(|c, ctx| {
        c.get(ctx, 1, "k".into());
        c.put(ctx, 2, "k2".into(), b"v".to_vec());
    })
}

#[test]
fn a_reply_completes_only_a_pending_request_of_its_kind() {
    let mut sim = Sim::new(1);
    let hole = sim.spawn(Box::new(Blackhole::default()));
    let steps: Vec<Step> = vec![
        issue_get_and_put(),
        Box::new(|c, _| {
            // The get's id on a put ack, the put's id on a get result, and
            // an id nobody drew: nothing completes, nothing is consumed.
            c.on_reply(StoreRpc::PutAck { corr: 0 });
            let value = Some(Bytes::from_static(b"stale"));
            c.on_reply(StoreRpc::GetResult { corr: 1, value });
            c.on_reply(StoreRpc::PutAck { corr: 99 });
            assert_eq!(c.next_done(), None);
            assert!(c.gets_left() && c.puts_left());
            // The right kinds complete them, in reply order.
            c.on_reply(StoreRpc::PutAck { corr: 1 });
            assert!(c.puts_left(), "a completion not yet taken is still left");
            assert_eq!(c.next_done(), Some(BlobDone::Put(2)));
            assert!(!c.puts_left() && c.gets_left());
            let value = Some(Bytes::from_static(b"blob"));
            c.on_reply(StoreRpc::GetResult { corr: 0, value });
            // A second reply to an answered id finds nothing pending.
            c.on_reply(StoreRpc::GetResult {
                corr: 0,
                value: None,
            });
        }),
    ];
    let pid = Owner::spawn(&mut sim, BlobClient::new(vec![hole], RETRY), steps);
    sim.run_until(SimTime::from_secs(5));
    let o = owner(&sim, pid);
    assert_eq!(
        o.done,
        [BlobDone::Got(1, Some(Bytes::from_static(b"blob")))]
    );
    assert!(!o.client.gets_left() && !o.client.puts_left());
    // The timer the two requests armed found both answered: nothing was
    // re-sent and it was not armed again.
    assert_eq!(o.retry_fired_at, secs(&[3]));
    assert_eq!(seen(&sim, hole).len(), 2);
}

#[test]
fn retry_rotates_and_reissues_in_order_under_fresh_ids() {
    let mut sim = Sim::new(1);
    let a = sim.spawn(Box::new(Blackhole::default()));
    let b = sim.spawn(Box::new(Blackhole::default()));
    // Three requests and a delete at 1 s arm one timer: it fires at 3 s
    // and, armed again because something was unanswered, at 5 s.
    let steps: Vec<Step> = vec![
        Box::new(|c, ctx| {
            c.put(ctx, 1, "a".into(), b"1".to_vec());
            c.get(ctx, 2, "b".into());
            c.delete(ctx, "dead");
            c.put(ctx, 3, "c".into(), b"3".to_vec());
        }),
        idle(),
        idle(),
        Box::new(|c, _| {
            // A reply to a superseded (pre-retry) id is ignored; the id the
            // retry drew completes the request, which is then not re-sent.
            c.on_reply(StoreRpc::PutAck { corr: 0 });
            assert_eq!(c.next_done(), None);
            c.on_reply(StoreRpc::PutAck { corr: 4 });
            assert_eq!(c.next_done(), Some(BlobDone::Put(1)));
        }),
    ];
    let pid = Owner::spawn(&mut sim, BlobClient::new(vec![a, b], RETRY), steps);
    sim.run_until(SimTime::from_secs(6));
    assert_eq!(owner(&sim, pid).retry_fired_at, secs(&[3, 5]));
    let (put, get, delete) = ("put", "get", "delete");
    let key = String::from;
    assert_eq!(
        seen(&sim, a),
        [
            (0, put, key("a")),
            (1, get, key("b")),
            // Deletes draw an id but are not tracked: never re-issued.
            (2, delete, key("dead")),
            (3, put, key("c")),
            // Second firing: back to member 0, without the answered put.
            (7, get, key("b")),
            (8, put, key("c")),
        ]
    );
    assert_eq!(
        seen(&sim, b),
        [(4, put, key("a")), (5, get, key("b")), (6, put, key("c")),],
        "the first firing moves to member 1"
    );

    // A one-member client has nowhere to rotate to: same endpoint, fresh
    // ids; and they are its process's, the incarnation their high half.
    let mut sim = Sim::new(1);
    let only = sim.spawn(Box::new(Blackhole::default()));
    let client = || BlobClient::new(vec![only], RETRY);
    let pid = Owner::spawn(&mut sim, client(), Vec::new());
    for steps in [Vec::new(), vec![issue_get_and_put()]] {
        sim.kill(pid).expect("alive");
        sim.respawn(pid, Owner::new(client(), steps));
    }
    sim.run_until(SimTime::from_secs(4));
    let first = 2 << 32;
    assert_eq!(
        seen(&sim, only),
        [
            (first, get, key("k")),
            (first + 1, put, key("k2")),
            (first + 2, get, key("k")),
            (first + 3, put, key("k2")),
        ]
    );
}

#[test]
fn put_get_delete_round_trip_through_a_real_store() {
    let mut sim = Sim::new(1);
    let store = sim.spawn(Box::new(StoreServer::new(StoreConfig::default())));
    let steps: Vec<Step> = vec![
        Box::new(|c, ctx| c.put(ctx, 1, "k".into(), b"blob".to_vec())),
        Box::new(|c, ctx| {
            c.get(ctx, 2, "k".into());
            c.get(ctx, 3, "never-written".into());
        }),
        Box::new(|c, ctx| c.delete(ctx, "k")),
        Box::new(|c, ctx| c.get(ctx, 4, "k".into())),
    ];
    let pid = Owner::spawn(&mut sim, BlobClient::new(vec![store], RETRY), steps);
    sim.run_until(SimTime::from_secs(10));
    let o = owner(&sim, pid);
    assert_eq!(
        o.done,
        [
            BlobDone::Put(1),
            BlobDone::Got(2, Some(Bytes::from_static(b"blob"))),
            BlobDone::Got(3, None),
            BlobDone::Got(4, None),
        ]
    );
    // The put armed the timer for 3 s and the last get for 6 s; both found
    // their requests answered. The delete at 3 s armed none: its ack is
    // not awaited.
    assert_eq!(o.retry_fired_at, secs(&[3, 6]));
}

#[test]
fn shared_map_answers_at_once_and_outlives_its_owner() {
    let map = blob_map();
    let mut sim = Sim::new(1);
    let steps: Vec<Step> = vec![Box::new(|c, ctx| {
        c.put(ctx, 1, "k".into(), b"blob".to_vec());
        c.put(ctx, 2, "dead".into(), b"x".to_vec());
        c.delete(ctx, "dead");
        c.get(ctx, 3, "k".into());
        c.get(ctx, 4, "dead".into());
        // Answered already — but still "left" until the owner has taken
        // the completions.
        assert!(c.puts_left() && c.gets_left());
    })];
    let pid = Owner::spawn(&mut sim, BlobClient::shared(map.clone()), steps);
    sim.run_until(SimTime::from_secs(2));
    let o = owner(&sim, pid);
    assert_eq!(
        o.done,
        [
            BlobDone::Put(1),
            BlobDone::Put(2),
            BlobDone::Got(3, Some(Bytes::from_static(b"blob"))),
            BlobDone::Got(4, None),
        ]
    );
    assert!(!o.client.puts_left() && !o.client.gets_left());
    assert_eq!(sim.stats().messages_delivered, 0, "the shared map is free");
    // With nothing on the wire to retry it arms no timer: the step's alone
    // fired.
    assert_eq!(sim.stats().timers_fired, 1);

    // The owner's process dies; the blob does not.
    assert!(sim.kill(pid).is_some());
    let steps: Vec<Step> = vec![Box::new(|c, ctx| c.get(ctx, 9, "k".into()))];
    sim.respawn(pid, Owner::new(BlobClient::shared(map), steps));
    sim.run_until(SimTime::from_secs(5));
    let got = BlobDone::Got(9, Some(Bytes::from_static(b"blob")));
    assert_eq!(owner(&sim, pid).done, [got]);
}
