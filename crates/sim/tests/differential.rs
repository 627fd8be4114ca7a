//! Differential property tests: the calendar-queue scheduler must be
//! observably identical to the reference `BinaryHeap` scheduler.
//!
//! A randomized fault-heavy workload (timers at mixed horizons, message
//! chatter, cancellations, CPU slices, kills and respawns) runs once under
//! each [`SchedulerKind`]; the full log (every handler invocation, in
//! order, with its timestamp), the final [`SimStats`], and the clock must
//! match exactly.

use std::cell::RefCell;
use std::rc::Rc;

use rand::RngCore;

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

/// The end of a slice of CPU work: the message a process sends itself
/// when the slice is done.
#[derive(Debug)]
struct Slice(u64);
impl Message for Slice {}

/// What the processes of one run did, in order: `(time in ns, process,
/// text)`, shared by every process of the run.
type Log = Rc<RefCell<Vec<(u64, u32, String)>>>;

fn log(log: &Log, ctx: &Ctx<'_>, text: String) {
    let entry = (ctx.now().as_nanos(), ctx.self_id().0, text);
    log.borrow_mut().push(entry);
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
    log: Log,
}

impl Chaos {
    fn new(id: u32, peers: u32, seed: u64, log: &Log) -> Self {
        Chaos {
            id,
            peers,
            rng: Mix(seed ^ (u64::from(id) << 32) ^ 0xabcd_ef01),
            tokens: Vec::new(),
            fires: 0,
            log: log.clone(),
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
        log(&self.log, ctx, format!("start {}", self.id));
        for tag in 0..3 {
            let d = self.delay();
            let t = ctx.set_timer(d, tag);
            self.tokens.push(t);
        }
        let to = self.peer();
        ctx.send(to, Note { ttl: 2 });
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, msg: Box<dyn Message>) {
        let note = match downcast::<Slice>(msg) {
            Ok(slice) => {
                log(&self.log, ctx, format!("cpu tag={}", slice.0));
                let d = self.delay();
                self.tokens.push(ctx.set_timer(d, slice.0));
                return;
            }
            Err(msg) => downcast::<Note>(msg).expect("note"),
        };
        log(&self.log, ctx, format!("msg ttl={} from={from}", note.ttl));
        if note.ttl > 0 {
            let to = self.peer();
            ctx.send(to, Note { ttl: note.ttl - 1 });
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        self.fires += 1;
        log(
            &self.log,
            ctx,
            format!("timer tag={tag} fire={}", self.fires),
        );
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
                let cost = SimDuration::from_micros(1 + self.rng.below(500));
                let me = ctx.self_id();
                ctx.send_after_cpu(cost, me, Slice(tag));
            }
        }
    }
}

/// Steps a source incarnation takes before it goes quiet.
const SOURCE_STEPS: u32 = 2_000;

/// A source-like process: it steps every few microseconds and now and then
/// pauses for up to 5 ms. Each step draws from the run's RNG, books CPU on
/// the host it shares with `Chaos` process 0, and now and then sends to a
/// `Chaos` peer. With `inline` it takes its next step through
/// [`Ctx::run_ahead`] whenever the kernel allows; otherwise it arms a timer
/// for every step.
struct Source {
    inline: bool,
    peers: u32,
    steps: u32,
    log: Log,
}

impl Process for Source {
    fn name(&self) -> &str {
        "source"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        log(&self.log, ctx, "start source".into());
        ctx.set_timer(SimDuration::from_micros(3), 0);
    }

    fn on_message(&mut self, _: &mut Ctx<'_>, _: ProcessId, _: Box<dyn Message>) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        loop {
            self.steps += 1;
            let draw = ctx.rng().next_u64();
            log(&self.log, ctx, format!("step {} {draw:016x}", self.steps));
            ctx.charge(SimDuration::from_micros(1 + draw % 4));
            if draw.is_multiple_of(16) {
                let to = ProcessId((draw >> 32) as u32 % self.peers);
                ctx.send(to, Note { ttl: 1 });
            }
            if self.steps == SOURCE_STEPS {
                return;
            }
            let gap = if (draw >> 8).is_multiple_of(16) {
                SimDuration::from_micros(100 + (draw >> 12) % 5_000)
            } else {
                SimDuration::from_micros(1 + (draw >> 12) % 6)
            };
            let at = ctx.now() + gap;
            if !(self.inline && ctx.run_ahead(at)) {
                ctx.set_timer_at(at, 0);
                return;
            }
        }
    }
}

/// A run's full observable surface: log, stats, final clock, and queue
/// diagnostics.
type Outcome = (Vec<(u64, u32, String)>, SimStats, SimTime, QueueDiag);

/// Runs the chaos workload under `kind`.
fn run(kind: SchedulerKind, seed: u64) -> Outcome {
    run_with(kind, seed, None)
}

/// Runs the chaos workload under `kind`; with `source`, a [`Source`]
/// stepping inline (`Some(true)`) or through timers (`Some(false)`) joins
/// it as the last process, shares a one-core host with process 0, and is
/// killed and respawned in the rotation like the others.
fn run_with(kind: SchedulerKind, seed: u64, source: Option<bool>) -> Outcome {
    const PROCS: u32 = 12;
    let trace = Log::default();
    let mut sim = Sim::with_scheduler(seed, kind);
    sim.set_event_limit(2_000_000);
    let cpu = HostCpu::shared("h", 1, 1.0, SimDuration::from_millis(500));
    let fresh = |sim: &mut Sim, pid: ProcessId, chaos_seed: u64| {
        let proc: Box<dyn Process> = match source {
            Some(inline) if pid.0 == PROCS => Box::new(Source {
                inline,
                peers: PROCS,
                steps: 0,
                log: trace.clone(),
            }),
            _ => Box::new(Chaos::new(pid.0, PROCS, chaos_seed, &trace)),
        };
        if sim.process_count() > pid.index() {
            sim.respawn(pid, proc);
        } else {
            assert_eq!(sim.spawn(proc), pid);
        }
        if source.is_some() && (pid.0 == 0 || pid.0 == PROCS) {
            sim.attach_cpu(pid, cpu.clone());
        }
    };
    let procs = PROCS + u32::from(source.is_some());
    for i in 0..procs {
        fresh(&mut sim, ProcessId(i), seed);
    }
    let mut driver = Mix(seed ^ 0x5eed);
    let mut t = SimTime::ZERO;
    for step in 0..30u64 {
        t += SimDuration::from_millis(60);
        sim.run_until(t);
        // Fault schedule: rotate kills and respawns, deterministically.
        let victim = ProcessId((step % u64::from(procs)) as u32);
        if sim.is_alive(victim) && driver.below(3) != 0 {
            sim.kill(victim).expect("alive");
        } else if !sim.is_alive(victim) {
            fresh(&mut sim, victim, seed ^ step);
        }
    }
    // Respawn everything and drain the far-future tail.
    for i in 0..procs {
        if !sim.is_alive(ProcessId(i)) {
            fresh(&mut sim, ProcessId(i), seed ^ 0x77);
        }
    }
    sim.run_until(t + SimDuration::from_secs(3));
    let trace = trace.take();
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

/// A source that takes its steps through `Ctx::run_ahead` cannot be told
/// from one that arms a timer for every step: the same trace (its RNG draws
/// included, and the CPU completions of the process it shares a core with),
/// stats, clock and live events, under the chaos mix, kills and respawns,
/// over twelve seeds on both schedulers.
#[test]
fn run_ahead_matches_arming_every_timer() {
    for seed in 0..12u64 {
        let mut inline_runs = Vec::new();
        for kind in [SchedulerKind::Calendar, SchedulerKind::Reference] {
            let (trace, stats, now, diag) = run_with(kind, seed, Some(true));
            let (armed_trace, armed_stats, armed_now, armed_diag) =
                run_with(kind, seed, Some(false));
            let at = format!("{kind:?} seed {seed}");
            assert_eq!(trace.len(), armed_trace.len(), "{at}: trace length");
            for (i, (c, r)) in trace.iter().zip(&armed_trace).enumerate() {
                assert_eq!(c, r, "{at}: traces diverge at entry {i}");
            }
            assert_eq!(stats, armed_stats, "{at}: stats diverged");
            assert_eq!(now, armed_now, "{at}: clocks diverged");
            assert_eq!(diag.live_events, armed_diag.live_events, "{at}");
            assert_eq!(armed_diag.inline_steps, 0, "{at}");
            let steps = trace.iter().filter(|e| e.2.starts_with("step ")).count() as u64;
            assert!(
                steps >= u64::from(SOURCE_STEPS) && diag.inline_steps * 2 > steps,
                "{at}: {} of {steps} steps inline",
                diag.inline_steps
            );
            let starts = trace.iter().filter(|e| e.2.starts_with("start ")).count() as u64;
            assert_eq!(
                stats.events_processed,
                starts
                    + stats.messages_delivered
                    + stats.timers_fired
                    + stats.timers_cancelled
                    + stats.cpu_completions
                    + stats.events_voided,
                "{at}: an inline step counts as one fired timer"
            );
            inline_runs.push((trace, stats, now));
        }
        assert!(
            inline_runs[0] == inline_runs[1],
            "seed {seed}: the schedulers diverge"
        );
    }
}

/// With `receivers > 0`, the hub: it sends to every receiver from one
/// handler, a few rounds in a row; with 0, a receiver. The default transport
/// delays each message by the same 10 µs, so a round puts `receivers` events
/// on one instant, ordered by nothing but their sequence numbers: the shape
/// `Chaos`, with its microsecond-random delays, never builds.
struct Burst {
    receivers: u32,
    log: Log,
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
        log(&self.log, ctx, format!("round={round}"));
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
        let log = Log::default();
        let mut sim = Sim::with_scheduler(7, kind);
        for receivers in std::iter::once(RECEIVERS).chain([0; RECEIVERS as usize]) {
            let log = log.clone();
            sim.spawn(Box::new(Burst { receivers, log }));
        }
        sim.run_to_completion();
        let served = log.take();
        (served, sim.stats(), sim.now())
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
/// waits for. Each slice ends in a [`Slice`] its process sends itself, but
/// with `charge` set the first books its work with [`Ctx::charge`], which
/// sends nothing.
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
    fn on_message(&mut self, ctx: &mut Ctx<'_>, _: ProcessId, msg: Box<dyn Message>) {
        let slice = downcast::<Slice>(msg).expect("a slice");
        if self.waits {
            self.done.push((ctx.now(), slice.0));
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        let cost = SimDuration::from_micros(300 + 150 * u64::from(self.left % 5));
        let me = ctx.self_id();
        if self.waits {
            ctx.send_after_cpu(cost, me, Slice(u64::from(self.left)));
        } else if self.charge {
            ctx.charge(cost);
        } else {
            ctx.send_after_cpu(cost, me, Slice(999));
        }
        self.left -= 1;
        if self.left > 0 {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
    }
}

/// `charge` books the same work as a message sent after CPU that nothing
/// waits for: the work that is waited for completes at the same instants,
/// the host CPU reads the same, and the run is one event shorter per charge.
#[test]
fn charge_books_what_send_after_cpu_books_without_the_completion() {
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
        let (sent_done, sent_jobs, sent_busy, sent_stats) = run(kind, false);
        let (done, jobs, busy, stats) = run(kind, true);
        assert_eq!(sent_done.len(), SLICES as usize);
        assert!(
            sent_done
                .windows(2)
                .any(|w| w[1].0 - w[0].0 > SimDuration::from_millis(1)),
            "{kind:?}: the two processes must contend for the core"
        );
        assert_eq!(done, sent_done, "{kind:?}: completion instants");
        assert_eq!((jobs, busy), (sent_jobs, sent_busy), "{kind:?}: host CPU");
        assert_eq!(jobs, 2 * u64::from(SLICES));
        assert_eq!(
            stats.events_processed + u64::from(SLICES),
            sent_stats.events_processed,
            "{kind:?}: one event fewer per charge"
        );
        assert_eq!(stats.cpu_completions, u64::from(SLICES));
        assert_eq!(sent_stats.cpu_completions, 2 * u64::from(SLICES));
    }
}
