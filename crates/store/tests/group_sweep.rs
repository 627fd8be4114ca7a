//! A seeded fault sweep over a three-member store group.
//!
//! A client writes puts and deletes through a `BlobClient` while, per seed,
//! members crash and restart one at a time, one member's link drops up to
//! 20 % of what crosses it, and one member's link goes down and comes back.
//! Once the faults end and the group settles, every acked put's latest
//! value is on every member and all members hold equal contents. Sampled
//! every 10 ms throughout: no member's group epoch decreases within an
//! incarnation, and no epoch ever has two members acting as primary.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use s2g_sim::{
    downcast, Ctx, Delivery, Message, Process, ProcessId, Sim, SimDuration, SimTime, Transport,
};
use s2g_store::{BlobClient, BlobDone, StoreConfig, StoreRpc, StoreServer};

const SEEDS: u64 = 64;
const MEMBERS: usize = 3;
const KEYS: usize = 12;
/// Loss starts at `LOSSY_FROM` and ends at `WRITES_UNTIL`, when the client
/// stops issuing operations; the last outage ends by 16.5 s, and the group
/// is checked at `SETTLED`.
const LOSSY_FROM: SimTime = SimTime::from_secs(1);
const WRITES_UNTIL: SimTime = SimTime::from_secs(16);
const SETTLED: SimTime = SimTime::from_secs(22);
const SAMPLE: SimDuration = SimDuration::from_millis(10);
const HOP: SimDuration = SimDuration::from_micros(200);
const RETRY_TAG: u64 = 1 << 40;
const STEP_TAG: u64 = 1;

/// Each member's access link: one that is down carries nothing, a lossy
/// one drops each message crossing it with its probability.
#[derive(Default)]
struct Links {
    member_of: HashMap<ProcessId, usize>,
    down: [bool; MEMBERS],
    loss: [f64; MEMBERS],
}

struct Net(Rc<RefCell<Links>>);

impl Transport for Net {
    fn route(
        &mut self,
        _now: SimTime,
        rng: &mut StdRng,
        from: ProcessId,
        to: ProcessId,
        _bytes: usize,
    ) -> Delivery {
        let links = self.0.borrow();
        for pid in [from, to] {
            if let Some(&i) = links.member_of.get(&pid) {
                if links.down[i] || rng.gen_bool(links.loss[i]) {
                    return Delivery::Drop;
                }
            }
        }
        Delivery::After(HOP)
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Put { key: usize, value: u64 },
    Delete { key: usize },
}

/// Issues `ops` in order, one every `step` and each only once the put
/// before it is acked (a delete is not awaited), until `WRITES_UNTIL`.
struct Puppet {
    client: BlobClient<usize>,
    ops: Vec<Op>,
    issued: usize,
    acked: Vec<bool>,
    step: SimDuration,
}

impl Process for Puppet {
    fn name(&self) -> &str {
        "puppet"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.step, STEP_TAG);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if self.client.on_timer(ctx, tag) {
            return;
        }
        if ctx.now() >= WRITES_UNTIL {
            return;
        }
        ctx.set_timer(self.step, STEP_TAG);
        if self.client.puts_left() || self.issued == self.ops.len() {
            return;
        }
        match self.ops[self.issued] {
            Op::Put { key, value } => {
                let value = value.to_le_bytes().to_vec();
                self.client.put(ctx, self.issued, format!("k{key}"), value);
            }
            Op::Delete { key } => self.client.delete(ctx, &format!("k{key}")),
        }
        self.issued += 1;
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: ProcessId, msg: Box<dyn Message>) {
        if let Ok(rpc) = downcast::<StoreRpc>(msg) {
            self.client.on_reply(*rpc);
        }
        while let Some(done) = self.client.next_done() {
            if let BlobDone::Put(op) = done {
                self.acked[op] = true;
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Fault {
    Crash(usize),
    Restart(usize),
    LinkDown(usize),
    LinkUp(usize),
    Loss(usize, f64),
}

/// The seed's fault schedule: one or two crash/restart cycles and one link
/// outage, in random order, each of one member for 0.3–2.5 s and each
/// 2–3 s after the one before ended — time for the group to replicate
/// again what the outage cost it, since a crashed member restarts empty;
/// and loss of 0–20 % on one member's link throughout.
fn schedule(rng: &mut StdRng) -> Vec<(SimTime, Fault)> {
    let mut outages: Vec<bool> = vec![true; rng.gen_range(1..=2usize)];
    outages.insert(rng.gen_range(0..=outages.len()), false);
    let lossy = rng.gen_range(0..MEMBERS);
    let mut plan = vec![(LOSSY_FROM, Fault::Loss(lossy, rng.gen_range(0.0..0.2)))];
    let mut at = SimTime::ZERO;
    for crash in outages {
        at += SimDuration::from_millis(rng.gen_range(2_000..3_000u64));
        let member = rng.gen_range(0..MEMBERS);
        let back = at + SimDuration::from_millis(rng.gen_range(300..2_500u64));
        let (down, up) = match crash {
            true => (Fault::Crash(member), Fault::Restart(member)),
            false => (Fault::LinkDown(member), Fault::LinkUp(member)),
        };
        plan.extend([(at, down), (back, up)]);
        at = back;
    }
    plan.push((WRITES_UNTIL, Fault::Loss(lossy, 0.0)));
    plan.sort_by_key(|(at, _)| *at);
    plan
}

fn member(i: usize, members: &[ProcessId], recovering: bool) -> StoreServer {
    let mut server = StoreServer::new(StoreConfig::default());
    server.set_name(format!("store-{i}"));
    server.set_group(members.to_vec(), i, recovering);
    server
}

/// Runs one seed and returns what it broke, if anything.
fn run(seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let links = Rc::new(RefCell::new(Links::default()));
    let mut sim = Sim::new(seed);
    sim.set_transport(Box::new(Net(links.clone())));
    let members: Vec<ProcessId> = (0..MEMBERS)
        .map(|_| sim.spawn(Box::new(StoreServer::new(StoreConfig::default()))))
        .collect();
    for (i, pid) in members.iter().enumerate() {
        links.borrow_mut().member_of.insert(*pid, i);
        let server = sim.process_mut::<StoreServer>(*pid).expect("a member");
        *server = member(i, &members, false);
    }
    let ops: Vec<Op> = (0..2_000u64)
        .map(|value| {
            let key = rng.gen_range(0..KEYS);
            match rng.gen_bool(0.2) {
                true => Op::Delete { key },
                false => Op::Put { key, value },
            }
        })
        .collect();
    let puppet = sim.spawn(Box::new(Puppet {
        client: BlobClient::new(members.clone(), RETRY_TAG),
        acked: vec![false; ops.len()],
        ops,
        issued: 0,
        step: SimDuration::from_millis(rng.gen_range(5..40u64)),
    }));
    let mut plan = schedule(&mut rng).into_iter().peekable();
    let mut last_epoch: [Option<u64>; MEMBERS] = [Some(0); MEMBERS];
    let mut primary_of: HashMap<u64, usize> = HashMap::new();
    let mut now = SimTime::ZERO;
    while now < SETTLED {
        now += SAMPLE;
        sim.run_until(now);
        while let Some((_, fault)) = plan.next_if(|(at, _)| *at <= now) {
            match fault {
                Fault::Crash(i) => {
                    sim.kill(members[i]);
                    last_epoch[i] = None;
                }
                Fault::Restart(i) => {
                    let server = member(i, &members, true);
                    sim.respawn(members[i], Box::new(server));
                }
                Fault::LinkDown(i) => links.borrow_mut().down[i] = true,
                Fault::LinkUp(i) => links.borrow_mut().down[i] = false,
                Fault::Loss(i, p) => links.borrow_mut().loss[i] = p,
            }
        }
        for (i, pid) in members.iter().enumerate() {
            let Some(server) = sim.process_ref::<StoreServer>(*pid) else {
                continue;
            };
            let epoch = server.group_epoch();
            if last_epoch[i].is_some_and(|last| epoch < last) {
                return Err(format!("member {i}'s epoch fell to {epoch} at {now}"));
            }
            last_epoch[i] = Some(epoch);
            if server.is_primary() {
                let first = *primary_of.entry(epoch).or_insert(i);
                if first != i {
                    return Err(format!(
                        "members {first} and {i} both primary in epoch {epoch}"
                    ));
                }
            }
        }
    }
    let p = sim.process_ref::<Puppet>(puppet).expect("the puppet");
    if p.client.puts_left() {
        return Err("a put was never acked".into());
    }
    let contents: Vec<Vec<(String, Vec<u8>)>> = members
        .iter()
        .map(|pid| {
            let kv = sim.process_ref::<StoreServer>(*pid).expect("live").kv();
            let mut entries: Vec<(String, Vec<u8>)> =
                kv.entries().map(|(k, v)| (k.clone(), v.to_vec())).collect();
            entries.sort();
            entries
        })
        .collect();
    let applied: Vec<u64> = (members.iter())
        .map(|pid| {
            sim.process_ref::<StoreServer>(*pid)
                .expect("live")
                .applied_seq()
        })
        .collect();
    if applied.iter().any(|a| *a != applied[0]) {
        return Err(format!("members stopped at sequences {applied:?}"));
    }
    if contents.iter().any(|c| *c != contents[0]) {
        return Err("members hold different contents".into());
    }
    for key in 0..KEYS {
        let touching = (p.ops[..p.issued].iter().enumerate()).filter(|(_, op)| match op {
            Op::Put { key: k, .. } | Op::Delete { key: k } => *k == key,
        });
        let mut latest_put = None;
        let mut deleted_since = false;
        for (i, op) in touching {
            match op {
                Op::Put { value, .. } if p.acked[i] => {
                    (latest_put, deleted_since) = (Some(*value), false)
                }
                Op::Put { .. } => unreachable!("every put was acked"),
                Op::Delete { .. } => deleted_since = true,
            }
        }
        let held = contents[0].iter().find(|(k, _)| *k == format!("k{key}"));
        let held = held.map(|(_, v)| u64::from_le_bytes(v[..].try_into().expect("8 bytes")));
        let fine = match (latest_put, deleted_since) {
            (latest, false) => held == latest,
            // A delete is not acked: it may have been lost.
            (latest, true) => held.is_none() || held == latest,
        };
        if !fine {
            return Err(format!(
                "k{key} holds {held:?}, latest acked put {latest_put:?}"
            ));
        }
    }
    Ok(())
}

/// Runs seeds `1..=seeds` and fails naming every seed that broke something.
fn sweep(seeds: u64) {
    let failed: Vec<String> = (1..=seeds)
        .filter_map(|seed| run(seed).err().map(|e| format!("seed {seed}: {e}")))
        .collect();
    assert!(failed.is_empty(), "{failed:#?}");
}

#[test]
fn a_faulted_store_group_keeps_every_acked_write_and_one_primary_per_epoch() {
    sweep(SEEDS);
}

/// The long sweep, by hand: `cargo test --release -p s2g-store --test
/// group_sweep -- --ignored twenty_thousand` (about 90 s).
#[test]
#[ignore = "long: 20 000 seeds, about 90 s in release"]
fn twenty_thousand_seeds() {
    sweep(20_000);
}

/// A seed on which a new primary that did not fence the old one lost
/// acked writes: the members ended with different contents.
#[test]
fn seed_14005_store_claim_does_not_fence_the_old_primary() {
    run(14_005).unwrap();
}

/// As seed 14 005.
#[test]
fn seed_17821_store_claim_does_not_fence_the_old_primary() {
    run(17_821).unwrap();
}
