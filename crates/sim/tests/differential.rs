//! Differential property tests: the calendar-queue scheduler must be
//! observably identical to the reference `BinaryHeap` scheduler.
//!
//! A randomized fault-heavy workload (timers at mixed horizons, message
//! chatter, cancellations, CPU slices, kills and respawns) runs once under
//! each [`SchedulerKind`]; the full trace (every handler invocation, in
//! order, with its timestamp), the final [`SimStats`], and the clock must
//! match exactly.

use s2g_sim::{
    downcast, Ctx, HostCpu, Message, Process, ProcessId, QueueDiag, SchedulerKind, Sim,
    SimDuration, SimStats, SimTime, TimerToken,
};

#[derive(Debug)]
struct Note {
    ttl: u64,
}
impl Message for Note {
    fn wire_size(&self) -> usize {
        32
    }
}

/// Deterministic splitmix64; the workload must not depend on anything that
/// differs between schedulers (like token values), only on this stream.
struct Mix(u64);
impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

struct Chaos {
    id: u32,
    peers: u32,
    rng: Mix,
    tokens: Vec<TimerToken>,
    fires: u64,
}

impl Chaos {
    fn new(id: u32, peers: u32, seed: u64) -> Self {
        Chaos {
            id,
            peers,
            rng: Mix(seed ^ (u64::from(id) << 32) ^ 0xabcd_ef01),
            tokens: Vec::new(),
            fires: 0,
        }
    }

    /// Delays spanning in-bucket (< 65 µs), in-wheel (< 134 ms), and
    /// overflow-heap (up to ~800 ms) distances.
    fn delay(&mut self) -> SimDuration {
        match self.rng.below(10) {
            0..=3 => SimDuration::from_micros(1 + self.rng.below(60)),
            4..=7 => SimDuration::from_micros(100 + self.rng.below(100_000)),
            _ => SimDuration::from_millis(150 + self.rng.below(650)),
        }
    }

    fn peer(&mut self) -> ProcessId {
        ProcessId(self.rng.below(u64::from(self.peers)) as u32)
    }
}

impl Process for Chaos {
    fn name(&self) -> &str {
        "chaos"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.trace_with("chaos", || format!("start {}", self.id));
        for tag in 0..3 {
            let d = self.delay();
            let t = ctx.set_timer(d, tag);
            self.tokens.push(t);
        }
        let to = self.peer();
        ctx.send(to, Note { ttl: 2 });
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, msg: Box<dyn Message>) {
        let note = downcast::<Note>(msg).expect("note");
        ctx.trace_with("chaos", || format!("msg ttl={} from={from}", note.ttl));
        if note.ttl > 0 {
            let to = self.peer();
            ctx.send(to, Note { ttl: note.ttl - 1 });
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        self.fires += 1;
        ctx.trace_with("chaos", || format!("timer tag={tag} fire={}", self.fires));
        match self.rng.below(10) {
            0..=4 => {
                let d = self.delay();
                let t = ctx.set_timer(d, tag);
                self.tokens.push(t);
            }
            5..=6 => {
                // Cancel a random stored token — possibly already fired or
                // cancelled, which must be a no-op on both schedulers.
                if !self.tokens.is_empty() {
                    let i = self.rng.below(self.tokens.len() as u64) as usize;
                    ctx.cancel_timer(self.tokens[i]);
                }
                let d = self.delay();
                let t = ctx.set_timer(d, tag);
                self.tokens.push(t);
            }
            7..=8 => {
                let to = self.peer();
                ctx.send(to, Note { ttl: 1 });
                let d = self.delay();
                self.tokens.push(ctx.set_timer(d, tag));
            }
            _ => {
                ctx.exec(SimDuration::from_micros(1 + self.rng.below(500)), tag);
            }
        }
    }

    fn on_cpu_done(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        ctx.trace_with("chaos", || format!("cpu tag={tag}"));
        let d = self.delay();
        self.tokens.push(ctx.set_timer(d, tag));
    }
}

/// Runs the chaos workload under `kind`, returning the full observable
/// surface: trace, stats, final clock, and queue diagnostics.
fn run(kind: SchedulerKind, seed: u64) -> (Vec<(u64, u32, String)>, SimStats, SimTime, QueueDiag) {
    const PROCS: u32 = 12;
    let mut sim = Sim::with_scheduler(seed, kind);
    sim.set_tracing(true);
    sim.set_event_limit(2_000_000);
    for i in 0..PROCS {
        sim.spawn(Box::new(Chaos::new(i, PROCS, seed)));
    }
    let mut driver = Mix(seed ^ 0x5eed);
    let mut t = SimTime::ZERO;
    for step in 0..30u64 {
        t += SimDuration::from_millis(60);
        sim.run_until(t);
        // Fault schedule: rotate kills and respawns, deterministically.
        let victim = ProcessId((step % u64::from(PROCS)) as u32);
        if sim.is_alive(victim) && driver.below(3) != 0 {
            sim.kill(victim).expect("alive");
        } else if !sim.is_alive(victim) {
            sim.respawn(victim, Box::new(Chaos::new(victim.0, PROCS, seed ^ step)));
        }
    }
    // Respawn everything and drain the far-future tail.
    for i in 0..PROCS {
        let pid = ProcessId(i);
        if !sim.is_alive(pid) {
            sim.respawn(pid, Box::new(Chaos::new(i, PROCS, seed ^ 0x77)));
        }
    }
    sim.run_until(t + SimDuration::from_secs(3));
    let trace: Vec<(u64, u32, String)> = sim
        .trace()
        .iter()
        .map(|e| (e.at.as_nanos(), e.pid.0, e.text.clone()))
        .collect();
    (trace, sim.stats(), sim.now(), sim.queue_diag())
}

#[test]
fn calendar_matches_reference_on_randomized_fault_sweeps() {
    for seed in 0..12u64 {
        let (cal_trace, cal_stats, cal_now, cal_diag) = run(SchedulerKind::Calendar, seed);
        let (ref_trace, ref_stats, ref_now, ref_diag) = run(SchedulerKind::Reference, seed);
        assert!(
            cal_stats.events_processed > 1_000,
            "seed {seed}: workload too small to be meaningful ({} events)",
            cal_stats.events_processed
        );
        assert_eq!(
            cal_trace.len(),
            ref_trace.len(),
            "seed {seed}: trace length diverged"
        );
        for (i, (c, r)) in cal_trace.iter().zip(&ref_trace).enumerate() {
            assert_eq!(c, r, "seed {seed}: traces diverge at entry {i}");
        }
        assert_eq!(cal_stats, ref_stats, "seed {seed}: stats diverged");
        assert_eq!(cal_now, ref_now, "seed {seed}: clocks diverged");
        assert_eq!(
            cal_diag.live_events, ref_diag.live_events,
            "seed {seed}: live accounting diverged"
        );
        // Cancel bookkeeping must stay bounded by what is actually pending.
        for (kind, diag) in [("calendar", cal_diag), ("reference", ref_diag)] {
            assert!(
                diag.residue <= diag.queue_len,
                "seed {seed} {kind}: residue {} exceeds queue {}",
                diag.residue,
                diag.queue_len
            );
        }
    }
}

/// With `receivers > 0`, the hub: it sends to every receiver from one
/// handler, a few rounds in a row; with 0, a receiver. The default transport
/// delays each message by the same 10 µs, so a round puts `receivers` events
/// on one instant, ordered by nothing but their sequence numbers: the shape
/// `Chaos`, with its microsecond-random delays, never builds.
struct Burst {
    receivers: u32,
}

impl Process for Burst {
    fn name(&self) -> &str {
        "burst"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.receivers > 0 {
            ctx.set_timer(SimDuration::from_micros(500), 1);
        }
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, _: ProcessId, msg: Box<dyn Message>) {
        let round = downcast::<Note>(msg).expect("note").ttl;
        ctx.trace_with("burst", || format!("round={round}"));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, round: u64) {
        for r in 1..=self.receivers {
            ctx.send(ProcessId(r), Note { ttl: round });
        }
        if round < 5 {
            ctx.set_timer(SimDuration::from_micros(500), round + 1);
        }
    }
}

#[test]
fn calendar_matches_reference_on_a_same_instant_burst() {
    const RECEIVERS: u32 = 200;
    let run = |kind| {
        let mut sim = Sim::with_scheduler(7, kind);
        sim.set_tracing(true);
        let receivers = RECEIVERS;
        sim.spawn(Box::new(Burst { receivers }));
        for _ in 0..RECEIVERS {
            sim.spawn(Box::new(Burst { receivers: 0 }));
        }
        sim.run_to_completion();
        let served = sim.trace().iter().map(|e| (e.at, e.pid.0, e.text.clone()));
        (served.collect::<Vec<_>>(), sim.stats(), sim.now())
    };
    let (trace, stats, now) = run(SchedulerKind::Calendar);
    assert_eq!((trace.clone(), stats, now), run(SchedulerKind::Reference));
    assert_eq!(stats.messages_delivered, 5 * u64::from(RECEIVERS));
    // Each round really is one instant, and is served in send order.
    for round in trace.chunks(RECEIVERS as usize) {
        assert!(round.iter().all(|e| e.0 == round[0].0), "{round:?}");
        let served: Vec<u32> = round.iter().map(|e| e.1).collect();
        assert_eq!(served, (1..=RECEIVERS).collect::<Vec<_>>());
    }
}

#[test]
fn same_seed_same_scheduler_is_reproducible() {
    let a = run(SchedulerKind::Calendar, 99);
    let b = run(SchedulerKind::Calendar, 99);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
}

/// Every popped event is counted under exactly one kind, so the kinds add
/// up to `events_processed` — kills, respawns and cancellations included.
#[test]
fn processed_events_add_up_by_kind() {
    for kind in [SchedulerKind::Calendar, SchedulerKind::Reference] {
        for seed in [3u64, 8] {
            let (trace, stats, _, _) = run(kind, seed);
            let starts = trace.iter().filter(|e| e.2.starts_with("start ")).count() as u64;
            assert!(stats.timers_cancelled > 0 && stats.events_voided > 0 && starts > 12);
            assert_eq!(
                stats.events_processed,
                starts
                    + stats.messages_delivered
                    + stats.timers_fired
                    + stats.timers_cancelled
                    + stats.cpu_completions
                    + stats.events_voided,
                "{kind:?} seed {seed}: {stats:?}"
            );
        }
    }
}

/// Two processes on one single-core host. The first books a slice of work
/// every millisecond whose completion it ignores; the second runs slices it
/// waits for. With `charge` set the first books its work with
/// [`Ctx::charge`] instead of [`Ctx::exec`].
struct Churn {
    charge: bool,
    waits: bool,
    left: u32,
    done: Vec<(SimTime, u64)>,
}

impl Process for Churn {
    fn name(&self) -> &str {
        "churn"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_millis(1), 0);
    }
    fn on_message(&mut self, _: &mut Ctx<'_>, _: ProcessId, _: Box<dyn Message>) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        let cost = SimDuration::from_micros(300 + 150 * u64::from(self.left % 5));
        if self.waits {
            ctx.exec(cost, u64::from(self.left));
        } else if self.charge {
            ctx.charge(cost);
        } else {
            ctx.exec(cost, 999);
        }
        self.left -= 1;
        if self.left > 0 {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
    }
    fn on_cpu_done(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if self.waits {
            self.done.push((ctx.now(), tag));
        }
    }
}

/// `charge` books the same work as an `exec` nobody handles: the work that
/// is waited for completes at the same instants, the host CPU reads the
/// same, and the run is one event shorter per charge.
#[test]
fn charge_books_what_exec_books_without_the_completion() {
    const SLICES: u32 = 40;
    type Waited = Vec<(SimTime, u64)>;
    fn run(kind: SchedulerKind, charge: bool) -> (Waited, u64, SimDuration, SimStats) {
        let mut sim = Sim::with_scheduler(5, kind);
        let cpu = HostCpu::shared("h", 1, 1.0, SimDuration::from_millis(500));
        let mut spawn = |waits| {
            let pid = sim.spawn(Box::new(Churn {
                charge,
                waits,
                left: SLICES,
                done: Vec::new(),
            }));
            sim.attach_cpu(pid, cpu.clone());
            pid
        };
        let (_, waiter) = (spawn(false), spawn(true));
        sim.run_to_completion();
        let done = sim.process_ref::<Churn>(waiter).unwrap().done.clone();
        let cpu = cpu.borrow();
        (done, cpu.jobs(), cpu.total_busy(), sim.stats())
    }
    for kind in [SchedulerKind::Calendar, SchedulerKind::Reference] {
        let (exec_done, exec_jobs, exec_busy, exec_stats) = run(kind, false);
        let (done, jobs, busy, stats) = run(kind, true);
        assert_eq!(exec_done.len(), SLICES as usize);
        assert!(
            exec_done
                .windows(2)
                .any(|w| w[1].0 - w[0].0 > SimDuration::from_millis(1)),
            "{kind:?}: the two processes must contend for the core"
        );
        assert_eq!(done, exec_done, "{kind:?}: completion instants");
        assert_eq!((jobs, busy), (exec_jobs, exec_busy), "{kind:?}: host CPU");
        assert_eq!(jobs, 2 * u64::from(SLICES));
        assert_eq!(
            stats.events_processed + u64::from(SLICES),
            exec_stats.events_processed,
            "{kind:?}: one event fewer per charge"
        );
        assert_eq!(stats.cpu_completions, u64::from(SLICES));
        assert_eq!(exec_stats.cpu_completions, 2 * u64::from(SLICES));
    }
}
