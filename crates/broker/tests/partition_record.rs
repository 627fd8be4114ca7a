//! The per-partition record, driven through one bare `Broker`.
//!
//! * The admission ladder, row by row: which `ErrorCode` a produce is
//!   answered with and which `rejected_*` counter moves, including the
//!   precedence between rungs (fenced → not leader → stale/newer epoch →
//!   `min.insync.replicas`).
//! * `LeaderAndIsr` against the highest epoch seen: a stale instruction is
//!   ignored, an equal-epoch one only replaces a sitting leader's ISR, and a
//!   partition that loses its role keeps its log for when it regains one.
//!
//! A [`Driver`] process stands in for the controller and a client: it plays
//! a script of messages at the broker and records every produce response.

use std::collections::BTreeMap;

use s2g_broker::{Broker, BrokerConfig, BrokerStats, CoordinationMode};
use s2g_proto::{
    AckMode, BrokerId, ClientRpc, ControllerRpc, CorrelationId, ErrorCode, LeaderEpoch, Offset,
    Record, RecordBatch, TopicPartition,
};
use s2g_sim::{downcast, Ctx, Message, Process, ProcessId, Sim, SimDuration, SimTime};

const ME: BrokerId = BrokerId(0);
const OTHER: BrokerId = BrokerId(1);

enum Step {
    Controller(ControllerRpc),
    Client(ClientRpc),
}

struct Driver {
    broker: ProcessId,
    script: Vec<(SimTime, Step)>,
    /// `(when, correlation id, base offset, error)` of every produce response.
    responses: Vec<(SimTime, u64, Offset, ErrorCode)>,
}

impl Process for Driver {
    fn name(&self) -> &str {
        "driver"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (i, (at, _)) in self.script.iter().enumerate() {
            ctx.set_timer(at.saturating_since(SimTime::ZERO), i as u64);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        match &self.script[tag as usize].1 {
            Step::Controller(rpc) => ctx.send(self.broker, rpc.clone()),
            Step::Client(rpc) => ctx.send(self.broker, rpc.clone()),
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ProcessId, msg: Box<dyn Message>) {
        // Heartbeats and replica fetches from the broker are ignored: the
        // broker never hears from a controller or a peer unless scripted.
        if let Ok(rpc) = downcast::<ClientRpc>(msg) {
            if let ClientRpc::ProduceResponse {
                corr,
                base_offset,
                error,
                ..
            } = *rpc
            {
                self.responses.push((ctx.now(), corr.0, base_offset, error));
            }
        }
    }
}

fn tp() -> TopicPartition {
    TopicPartition::new("events", 0)
}

fn leader_and_isr(leader: BrokerId, epoch: u64, isr: &[BrokerId], replicas: &[BrokerId]) -> Step {
    Step::Controller(ControllerRpc::LeaderAndIsr {
        tp: tp(),
        leader: Some(leader),
        isr: isr.to_vec(),
        epoch: LeaderEpoch(epoch),
        replicas: replicas.to_vec(),
    })
}

fn produce(corr: u64, acks: AckMode, epoch: u64) -> Step {
    let mut record = Record::keyless(format!("r{corr}").into_bytes(), SimTime::ZERO);
    // A sequence number of its own, or idempotent dedup drops the record.
    record.producer_seq = corr;
    Step::Client(ClientRpc::ProduceRequest {
        corr: CorrelationId(corr),
        tp: tp(),
        batch: RecordBatch::from_records(vec![record]),
        acks,
        epoch: LeaderEpoch(epoch),
        txn: None,
    })
}

/// Runs `script` against one fresh broker until `until`; the driver is both
/// its controller endpoint and its only peer.
fn run(
    mode: CoordinationMode,
    cfg: BrokerConfig,
    script: Vec<(SimTime, Step)>,
    until: SimTime,
) -> (Sim, ProcessId, ProcessId) {
    let mut sim = Sim::new(5);
    let driver_pid = ProcessId(0);
    let broker_pid = ProcessId(1);
    let peers: BTreeMap<BrokerId, ProcessId> = [(ME, broker_pid), (OTHER, driver_pid)].into();
    let driver = Driver {
        broker: broker_pid,
        script,
        responses: Vec::new(),
    };
    assert_eq!(sim.spawn(Box::new(driver)), driver_pid);
    let broker = Broker::new(ME, cfg, mode, vec![driver_pid], peers);
    assert_eq!(sim.spawn(Box::new(broker)), broker_pid);
    sim.run_until(until);
    (sim, driver_pid, broker_pid)
}

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// `[fenced, not_leader, stale_epoch, not_enough_replicas]`.
fn rejections(s: BrokerStats) -> [u64; 4] {
    [
        s.rejected_fenced,
        s.rejected_not_leader,
        s.rejected_stale_epoch,
        s.rejected_not_enough_replicas,
    ]
}

/// One rung of the ladder: the broker's role when the produce arrives, the
/// produce, and the answer.
struct Row {
    name: &'static str,
    mode: CoordinationMode,
    /// The `LeaderAndIsr` taught at t=0: `(leader, epoch, isr)` over
    /// replicas `[ME, OTHER]`.
    role: (BrokerId, u64, &'static [BrokerId]),
    /// When the produce arrives; a KRaft broker that never hears a
    /// heartbeat ack is fenced once its 6 s session timeout lapsed.
    at: SimTime,
    acks: AckMode,
    epoch: u64,
    expect: ErrorCode,
    rejected: [u64; 4],
}

#[test]
fn admission_ladder() {
    use AckMode::{All, Leader};
    use CoordinationMode::{Kraft, Zk};
    const BOTH: &[BrokerId] = &[ME, OTHER];
    const ALONE: &[BrokerId] = &[ME];
    let row = |name, mode, role, at, acks, epoch, expect, rejected| Row {
        name,
        mode,
        role,
        at,
        acks,
        epoch,
        expect,
        rejected,
    };
    #[rustfmt::skip]
    let rows = [
        row("kraft session lapsed", Kraft, (ME, 3, BOTH), secs(10), Leader, 3, ErrorCode::Fenced, [1, 0, 0, 0]),
        row("kraft session live", Kraft, (ME, 3, BOTH), secs(1), Leader, 3, ErrorCode::None, [0, 0, 0, 0]),
        row("follower", Zk, (OTHER, 3, BOTH), secs(1), Leader, 3, ErrorCode::NotLeader, [0, 1, 0, 0]),
        row("older epoch", Zk, (ME, 3, BOTH), secs(1), Leader, 2, ErrorCode::StaleEpoch, [0, 0, 1, 0]),
        row("newer epoch", Zk, (ME, 3, BOTH), secs(1), Leader, 4, ErrorCode::NotLeader, [0, 1, 0, 0]),
        row("acks=all, short isr", Zk, (ME, 3, ALONE), secs(1), All, 3, ErrorCode::NotEnoughReplicas, [0, 0, 0, 1]),
        row("acks=1, short isr", Zk, (ME, 3, ALONE), secs(1), Leader, 3, ErrorCode::None, [0, 0, 0, 0]),
        // Precedence.
        row("fenced and not leader", Kraft, (OTHER, 3, BOTH), secs(10), Leader, 3, ErrorCode::Fenced, [1, 0, 0, 0]),
        row("not leader and newer epoch", Zk, (OTHER, 3, BOTH), secs(1), Leader, 4, ErrorCode::NotLeader, [0, 1, 0, 0]),
        row("stale epoch and short isr", Zk, (ME, 3, ALONE), secs(1), All, 2, ErrorCode::StaleEpoch, [0, 0, 1, 0]),
    ];
    for r in rows {
        let cfg = BrokerConfig {
            min_insync_replicas: 2,
            ..BrokerConfig::default()
        };
        let (leader, epoch, isr) = r.role;
        let script = vec![
            (SimTime::ZERO, leader_and_isr(leader, epoch, isr, BOTH)),
            (r.at, produce(7, r.acks, r.epoch)),
        ];
        let (sim, driver, broker) = run(r.mode, cfg, script, r.at + SimDuration::from_secs(1));
        let responses = &sim.process_ref::<Driver>(driver).unwrap().responses;
        let errors: Vec<ErrorCode> = responses.iter().map(|(_, _, _, e)| *e).collect();
        assert_eq!(errors, vec![r.expect], "{}: the answer", r.name);
        let b = sim.process_ref::<Broker>(broker).unwrap();
        assert_eq!(
            rejections(b.stats()),
            r.rejected,
            "{}: which rejected_* counter moved",
            r.name
        );
        let appended = u64::from(r.expect == ErrorCode::None);
        assert_eq!(
            b.stats().records_appended,
            appended,
            "{}: only an admitted produce reaches the log",
            r.name
        );
    }
}

#[test]
fn stale_and_same_epoch_leader_and_isr() {
    let at = SimTime::from_millis;
    let script = vec![
        // Promotion at epoch 3 over ISR {ME, OTHER}.
        (at(0), leader_and_isr(ME, 3, &[ME, OTHER], &[ME, OTHER])),
        // acks=all: pending, OTHER never fetches.
        (at(1_000), produce(1, AckMode::All, 3)),
        // Stale (epoch 2 < 3): would depose us if it were honoured.
        (at(2_000), leader_and_isr(OTHER, 2, &[OTHER], &[ME, OTHER])),
        // Equal epoch to the sitting leader: only the ISR is replaced.
        (at(3_000), leader_and_isr(ME, 3, &[ME], &[ME, OTHER])),
        // Epoch 4 names us in no role: the role goes, the log stays.
        (at(4_000), leader_and_isr(OTHER, 4, &[OTHER], &[OTHER])),
        // Epoch 5 gives the role back.
        (at(5_000), leader_and_isr(ME, 5, &[ME], &[ME, OTHER])),
        (at(6_000), produce(2, AckMode::Leader, 5)),
    ];
    let cfg = BrokerConfig::default();
    let (mut sim, driver, broker) = run(CoordinationMode::Zk, cfg, script, at(1_500));
    let tp = tp();
    let b = |sim: &Sim| {
        let b = sim.process_ref::<Broker>(broker).unwrap();
        (
            b.is_leader(&tp),
            b.leader_epoch(&tp),
            b.isr(&tp),
            b.leadership_events().len(),
        )
    };
    let answered = |sim: &Sim| sim.process_ref::<Driver>(driver).unwrap().responses.len();

    let promoted = (true, Some(LeaderEpoch(3)), Some(vec![ME, OTHER]), 1);
    assert_eq!(b(&sim), promoted);
    assert_eq!(answered(&sim), 0, "the acks=all produce waits for OTHER");

    sim.run_until(at(2_500));
    assert_eq!(
        b(&sim),
        promoted,
        "a stale instruction changes nothing: role, epoch, ISR, events"
    );
    assert_eq!(answered(&sim), 0);

    sim.run_until(at(3_500));
    assert_eq!(
        b(&sim),
        (true, Some(LeaderEpoch(3)), Some(vec![ME]), 1),
        "an equal-epoch instruction replaces the ISR and is no leadership event"
    );
    let responses = sim.process_ref::<Driver>(driver).unwrap().responses.clone();
    assert_eq!(
        responses,
        vec![(responses[0].0, 1, Offset(0), ErrorCode::None)],
        "the pending produce survived and is acknowledged under the new ISR"
    );
    assert!(responses[0].0 >= at(3_000));

    sim.run_until(at(4_500));
    assert_eq!(b(&sim), (false, None, None, 1), "the role is gone");
    let log_len = |sim: &Sim| {
        sim.process_ref::<Broker>(broker)
            .unwrap()
            .log(&tp)
            .map(|l| l.len())
    };
    assert_eq!(log_len(&sim), Some(1), "the log outlives the role");

    sim.run_until(at(7_000));
    assert_eq!(b(&sim), (true, Some(LeaderEpoch(5)), Some(vec![ME]), 2));
    assert_eq!(log_len(&sim), Some(2), "the regained role reuses the log");
    let responses = &sim.process_ref::<Driver>(driver).unwrap().responses;
    let (_, corr, base, error) = responses[1];
    assert_eq!(
        (corr, base, error),
        (2, Offset(1), ErrorCode::None),
        "the second produce lands after the first record"
    );
}

#[test]
fn a_leader_promoted_again_under_a_newer_epoch_acknowledges_the_produces_it_held() {
    let at = SimTime::from_millis;
    let script = vec![
        // Promotion at epoch 3 over ISR {ME, OTHER}.
        (at(0), leader_and_isr(ME, 3, &[ME, OTHER], &[ME, OTHER])),
        // acks=all: pending, OTHER never fetches.
        (at(1_000), produce(1, AckMode::All, 3)),
        // The same broker leads again, under epoch 4 and alone in the ISR.
        (at(2_000), leader_and_isr(ME, 4, &[ME], &[ME, OTHER])),
    ];
    let cfg = BrokerConfig::default();
    let (mut sim, driver, broker) = run(CoordinationMode::Zk, cfg, script, at(1_500));
    assert_eq!(sim.process_ref::<Driver>(driver).unwrap().responses, []);
    sim.run_until(at(3_000));
    let b = sim.process_ref::<Broker>(broker).unwrap();
    assert_eq!(b.leader_epoch(&tp()), Some(LeaderEpoch(4)));
    let responses = &sim.process_ref::<Driver>(driver).unwrap().responses;
    let answers: Vec<(u64, Offset, ErrorCode)> =
        responses.iter().map(|(_, c, o, e)| (*c, *o, *e)).collect();
    assert_eq!(
        answers,
        [(1, Offset(0), ErrorCode::None)],
        "the held produce is acknowledged under the new reign"
    );
    assert!(responses[0].0 >= at(2_000));
}
