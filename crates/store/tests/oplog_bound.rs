//! Every member of a store group truncates its own op log.
//!
//! A client writes K puts, one at a time, through the primary of a
//! three-member group with no faults. Sampled every 10 ms throughout, no
//! member, primary or follower, holds more op-log entries than a bound
//! set by the write rate and the heartbeat interval, not by K: run at K and
//! at 4K, the largest log any member held is the same size.

use bytes::Bytes;
use s2g_sim::{downcast, Ctx, Message, Process, ProcessId, Sim, SimDuration, SimTime};
use s2g_store::{StoreConfig, StoreRpc, StoreServer};

const MEMBERS: usize = 3;
/// When the first put is sent: after the members' start-up CPU.
const START: SimDuration = SimDuration::from_secs(1);
/// One put is sent this long after the one before was acked.
const STEP: SimDuration = SimDuration::from_millis(10);
const SAMPLE: SimDuration = SimDuration::from_millis(10);
/// How long the group runs on after the last ack.
const SETTLE: SimDuration = SimDuration::from_secs(1);
/// The most entries any member may hold: a put about every `STEP` for two
/// heartbeat intervals (250 ms each), one for a member to hear how far a
/// follower has applied (from its heartbeat) and one until it next
/// truncates (on its own heartbeat tick), with some slack. A follower held
/// 49 when this was written; one that never truncates holds every put.
const BOUND: usize = 64;

/// Sends `left` puts to `store`, each `STEP` after the last one's ack.
struct Writer {
    store: ProcessId,
    left: u64,
    acked: u64,
}

impl Writer {
    fn put(&mut self, ctx: &mut Ctx<'_>) {
        let corr = self.acked;
        let key = format!("k{}", corr % 16);
        let value = Bytes::from(corr.to_le_bytes().to_vec());
        ctx.send(self.store, StoreRpc::Put { corr, key, value });
    }
}

impl Process for Writer {
    fn name(&self) -> &str {
        "writer"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(START, 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        if self.left > 0 {
            self.left -= 1;
            self.put(ctx);
        }
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ProcessId, msg: Box<dyn Message>) {
        if let Ok(rpc) = downcast::<StoreRpc>(msg) {
            if let StoreRpc::PutAck { corr, .. } = *rpc {
                if corr == self.acked {
                    self.acked += 1;
                    ctx.set_timer(STEP, 0);
                }
            }
        }
    }
}

/// Writes `puts` puts, then runs on for `SETTLE`, and returns the most
/// op-log entries each member held at any sample, and each member's
/// applied sequence at the end. Fails if the puts are not all acked by
/// four `STEP`s a put: the writer never retries, so a lost put or ack
/// would otherwise keep it waiting for ever.
fn run(puts: u64) -> (Vec<usize>, Vec<u64>) {
    let mut sim = Sim::new(1);
    let members: Vec<ProcessId> = (0..MEMBERS)
        .map(|i| {
            let mut server = StoreServer::new(StoreConfig::default());
            server.set_name(format!("store-{i}"));
            sim.spawn(Box::new(server))
        })
        .collect();
    for (i, pid) in members.iter().enumerate() {
        let server = sim.process_mut::<StoreServer>(*pid).expect("a member");
        server.set_group(members.clone(), i);
    }
    let writer = sim.spawn(Box::new(Writer {
        store: members[0],
        left: puts,
        acked: 0,
    }));
    let mut most = vec![0; MEMBERS];
    let mut now = SimTime::ZERO;
    let deadline = now + START + STEP * (4 * puts);
    let mut settled = None;
    while settled.is_none_or(|at| now < at) {
        if settled.is_none() {
            let acked = sim.process_ref::<Writer>(writer).expect("writer").acked;
            if acked == puts {
                settled = Some(now + SETTLE);
            }
            assert!(
                now < deadline,
                "{puts} puts: only {acked} acked by {deadline}"
            );
        }
        now += SAMPLE;
        sim.run_until(now);
        for (i, pid) in members.iter().enumerate() {
            let len = sim
                .process_ref::<StoreServer>(*pid)
                .expect("live")
                .oplog_len();
            most[i] = most[i].max(len);
        }
    }
    let applied = (members.iter())
        .map(|pid| sim.process_ref::<StoreServer>(*pid).expect("live"))
        .map(StoreServer::applied_seq)
        .collect();
    (most, applied)
}

#[test]
fn no_member_holds_more_of_the_op_log_at_four_times_the_puts() {
    const K: u64 = 300;
    for puts in [K, 4 * K] {
        let (most, applied) = run(puts);
        assert_eq!(
            applied, [puts; MEMBERS],
            "{puts} puts: every member applied each"
        );
        assert!(
            most.iter().all(|m| *m <= BOUND),
            "{puts} puts: members held at most {most:?} op-log entries (bound {BOUND})"
        );
    }
}
