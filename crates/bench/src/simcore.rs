//! Simulation-kernel micro-benchmarks (`--bench simcore`).
//!
//! Three synthetic workloads stress the event queue itself — not the
//! protocol stacks built on top of it — and run each one under both the
//! calendar-queue scheduler and the reference `BinaryHeap` scheduler with
//! the same seed:
//!
//! * **timer-churn** — thousands of processes each keeping dozens of
//!   timers armed, re-arming on fire and cancelling a slice of them. This
//!   is the queue-dominated regime the calendar queue exists for: O(1)
//!   bucket filing versus O(log n) sift plus a token hash-map on the
//!   reference heap.
//! * **fan-out** — one hub broadcasting to hundreds of receivers every
//!   round, so most events land in a handful of near-identical timestamps.
//!   This is the calendar queue's worst alignment; the floor only asserts
//!   it stays within a constant factor of the heap.
//! * **kill-respawn** — a worker pool with armed timers while an external
//!   driver kills and respawns batches between steps, exercising
//!   incarnation bumps and voided-event draining.
//!
//! Every workload asserts the two schedulers agree on [`SimStats`] and the
//! final clock before any rate is reported, so the benchmark doubles as a
//! coarse differential check; [`simcore_gate`] holds the reported ratios
//! to their floors.

use std::time::Instant;

use s2g_sim::{
    downcast, Ctx, Message, Process, ProcessId, SchedulerKind, Sim, SimDuration, SimStats, SimTime,
    TimerToken,
};

use crate::experiments::Scale;

const SEED: u64 = 0xC0FFEE;

/// One row of the `--bench simcore` output: a workload measured under both
/// schedulers.
#[derive(Debug, Clone)]
pub struct SimcorePoint {
    /// Workload label (`timer-churn`, `fan-out`, `kill-respawn`).
    pub workload: &'static str,
    /// Events the calendar run processed (identical to the reference run
    /// whenever `stats_match` holds).
    pub events: u64,
    /// Calendar-queue scheduler throughput, events per wall-clock second.
    pub calendar_events_per_sec: f64,
    /// Reference `BinaryHeap` scheduler throughput.
    pub reference_events_per_sec: f64,
    /// `calendar_events_per_sec / reference_events_per_sec`.
    pub ratio: f64,
    /// Whether both schedulers produced identical [`SimStats`] and final
    /// clocks — a cheap differential check riding along with the numbers.
    pub stats_match: bool,
}

/// A small multiplicative LCG; the workloads must be cheap enough that the
/// queue dominates, so they avoid `StdRng` in their own logic.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

// ---------------------------------------------------------------------------
// Workload: timer-churn
// ---------------------------------------------------------------------------

struct ChurnProc {
    rng: Lcg,
    tokens: Vec<TimerToken>,
    timers: u32,
    fires: u64,
}

impl ChurnProc {
    fn new(id: u32, timers: u32) -> Self {
        ChurnProc {
            rng: Lcg(u64::from(id).wrapping_mul(0x9e37_79b9) ^ SEED),
            tokens: Vec::with_capacity(64),
            timers,
            fires: 0,
        }
    }

    /// Mostly in-wheel delays (1–120 ms); every sixteenth draw lands in the
    /// overflow heap (200–500 ms) so far-future migration stays exercised.
    fn delay(&mut self) -> SimDuration {
        if self.rng.below(16) == 0 {
            SimDuration::from_millis(200 + self.rng.below(300))
        } else {
            SimDuration::from_micros(1_000 + self.rng.below(119_000))
        }
    }

    fn remember(&mut self, token: TimerToken) {
        if self.tokens.len() >= 64 {
            let i = (self.fires % 64) as usize;
            self.tokens[i] = token;
        } else {
            self.tokens.push(token);
        }
    }
}

impl Process for ChurnProc {
    fn name(&self) -> &str {
        "churn"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for tag in 0..u64::from(self.timers) {
            let d = self.delay();
            let t = ctx.set_timer(d, tag);
            self.remember(t);
        }
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: ProcessId, _msg: Box<dyn Message>) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        self.fires += 1;
        // Every eighth fire cancels a remembered token (often stale — the
        // cancel path must stay cheap either way).
        if self.fires.is_multiple_of(8) && !self.tokens.is_empty() {
            let i = self.rng.below(self.tokens.len() as u64) as usize;
            ctx.cancel_timer(self.tokens[i]);
        }
        let d = self.delay();
        let t = ctx.set_timer(d, tag);
        self.remember(t);
    }
}

fn run_timer_churn(kind: SchedulerKind, scale: Scale) -> (SimStats, SimTime) {
    // The live-timer population (procs × timers) is what separates the two
    // schedulers — the heap pays O(log n) per op, the calendar O(1) — so
    // even Smoke keeps tens of thousands of timers in flight and scales
    // down the simulated duration instead.
    let (procs, timers, run_ms) = match scale {
        Scale::Full => (2_500u32, 96u32, 1_500u64),
        Scale::Quick => (2_000, 64, 800),
        Scale::Smoke => (2_000, 48, 500),
    };
    let mut sim = Sim::with_scheduler(SEED, kind);
    for i in 0..procs {
        sim.spawn(Box::new(ChurnProc::new(i, timers)));
    }
    sim.run_until(SimTime::from_millis(run_ms));
    (sim.stats(), sim.now())
}

// ---------------------------------------------------------------------------
// Workload: fan-out
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Ping {
    round: u64,
}

impl Message for Ping {
    fn wire_size(&self) -> usize {
        16
    }
}

struct Hub {
    receivers: u32,
    rounds: u64,
    max_rounds: u64,
}

impl Process for Hub {
    fn name(&self) -> &str {
        "hub"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_micros(500), 0);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: ProcessId, _msg: Box<dyn Message>) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        self.rounds += 1;
        for r in 1..=self.receivers {
            ctx.send(ProcessId(r), Ping { round: self.rounds });
        }
        if self.rounds < self.max_rounds {
            ctx.set_timer(SimDuration::from_micros(500), 0);
        }
    }
}

struct Receiver {
    seen: u64,
}

impl Process for Receiver {
    fn name(&self) -> &str {
        "receiver"
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ProcessId, msg: Box<dyn Message>) {
        let ping = downcast::<Ping>(msg).expect("ping");
        self.seen += 1;
        // Every fourth round each receiver arms a short timer, mixing a
        // trickle of timer traffic into the delivery-dominated stream.
        if ping.round.is_multiple_of(4) {
            ctx.set_timer(SimDuration::from_micros(50 + (self.seen % 97)), ping.round);
        }
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _tag: u64) {}
}

fn run_fan_out(kind: SchedulerKind, scale: Scale) -> (SimStats, SimTime) {
    let (receivers, rounds) = match scale {
        Scale::Full => (512u32, 1_000u64),
        Scale::Quick => (256, 500),
        Scale::Smoke => (128, 300),
    };
    let mut sim = Sim::with_scheduler(SEED, kind);
    sim.spawn(Box::new(Hub {
        receivers,
        rounds: 0,
        max_rounds: rounds,
    }));
    for _ in 0..receivers {
        sim.spawn(Box::new(Receiver { seen: 0 }));
    }
    sim.run_until(SimTime::from_millis(rounds + 100));
    (sim.stats(), sim.now())
}

// ---------------------------------------------------------------------------
// Workload: kill-respawn storm
// ---------------------------------------------------------------------------

struct Worker {
    rng: Lcg,
}

impl Worker {
    fn new(id: u32, epoch: u64) -> Self {
        Worker {
            rng: Lcg(u64::from(id) ^ (epoch << 32) ^ SEED),
        }
    }
}

impl Process for Worker {
    fn name(&self) -> &str {
        "worker"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for tag in 0..8u64 {
            let d = SimDuration::from_micros(1_000 + self.rng.below(49_000));
            ctx.set_timer(d, tag);
        }
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: ProcessId, _msg: Box<dyn Message>) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        let d = SimDuration::from_micros(1_000 + self.rng.below(49_000));
        ctx.set_timer(d, tag);
    }
}

fn run_kill_respawn(kind: SchedulerKind, scale: Scale) -> (SimStats, SimTime) {
    let (workers, steps) = match scale {
        Scale::Full => (256u32, 50u64),
        Scale::Quick => (128, 25),
        Scale::Smoke => (64, 12),
    };
    let mut sim = Sim::with_scheduler(SEED, kind);
    for i in 0..workers {
        sim.spawn(Box::new(Worker::new(i, 0)));
    }
    let mut driver = Lcg(SEED ^ 0x5707);
    let mut t = SimTime::ZERO;
    for step in 1..=steps {
        t += SimDuration::from_millis(20);
        sim.run_until(t);
        // Kill roughly a quarter of the live pool, respawn everything that
        // is down — each respawn voids the victim's in-flight timers and
        // arms a fresh set under a bumped incarnation.
        for i in 0..workers {
            let pid = ProcessId(i);
            if sim.is_alive(pid) {
                if driver.below(4) == 0 {
                    sim.kill(pid);
                }
            } else {
                sim.respawn(pid, Box::new(Worker::new(i, step)));
            }
        }
    }
    sim.run_until(t + SimDuration::from_millis(100));
    (sim.stats(), sim.now())
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// Runs `work` under `kind` twice and keeps the faster wall-clock pass —
/// the first pass also warms allocator and cache state.
fn measure(
    kind: SchedulerKind,
    work: &dyn Fn(SchedulerKind) -> (SimStats, SimTime),
) -> (SimStats, SimTime, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..2 {
        // s2g-lint: allow(wall-clock) — benchmark harness timing host throughput, outside the sim
        let start = Instant::now();
        let (stats, now) = work(kind);
        let secs = start.elapsed().as_secs_f64();
        if secs < best {
            best = secs;
        }
        out = Some((stats, now));
    }
    let (stats, now) = out.expect("at least one pass");
    (stats, now, best)
}

fn bench_one(
    workload: &'static str,
    work: &dyn Fn(SchedulerKind) -> (SimStats, SimTime),
) -> SimcorePoint {
    let (cal_stats, cal_now, cal_secs) = measure(SchedulerKind::Calendar, work);
    let (ref_stats, ref_now, ref_secs) = measure(SchedulerKind::Reference, work);
    let stats_match = cal_stats == ref_stats && cal_now == ref_now;
    let events = cal_stats.events_processed;
    let calendar_events_per_sec = events as f64 / cal_secs.max(1e-9);
    let reference_events_per_sec = ref_stats.events_processed as f64 / ref_secs.max(1e-9);
    SimcorePoint {
        workload,
        events,
        calendar_events_per_sec,
        reference_events_per_sec,
        ratio: calendar_events_per_sec / reference_events_per_sec.max(1e-9),
        stats_match,
    }
}

/// **Simcore** — the `--bench simcore` sweep: each kernel workload timed
/// under both schedulers at the given [`Scale`].
pub fn simcore_sweep(scale: Scale) -> Vec<SimcorePoint> {
    vec![
        bench_one("timer-churn", &|kind| run_timer_churn(kind, scale)),
        bench_one("fan-out", &|kind| run_fan_out(kind, scale)),
        bench_one("kill-respawn", &|kind| run_kill_respawn(kind, scale)),
    ]
}

/// Per workload at `--smoke`: the least calendar/reference ratio, and the
/// least event count. Ratios are wall-clock but same-machine and
/// best-of-two, so they gate robustly; event counts are simulated and
/// exact. Update on purposeful scheduler or workload changes only.
const SIMCORE_SMOKE_FLOOR: [(&str, f64, u64); 3] = [
    ("timer-churn", 3.0, 400_000),
    ("fan-out", 0.8, 40_000),
    ("kill-respawn", 1.3, 5_000),
];

/// The `--bench simcore` gate: one `(held, what was checked)` row per
/// check. The floors were recorded at `--smoke`, the scale CI runs, and
/// apply there; the schedulers must agree on `SimStats` at every scale.
pub fn simcore_gate(points: &[SimcorePoint], scale: Scale) -> Vec<(bool, String)> {
    let mut rows = Vec::new();
    let floors: &[_] = match scale {
        Scale::Smoke => &SIMCORE_SMOKE_FLOOR,
        _ => &[],
    };
    for (workload, min_ratio, min_events) in floors {
        let Some(p) = points.iter().find(|p| p.workload == *workload) else {
            rows.push((false, format!("{workload}: missing from the sweep")));
            continue;
        };
        // A workload that shrank makes its ratio meaningless.
        rows.push((
            p.events >= *min_events,
            format!("{workload}: {} events (floor {min_events})", p.events),
        ));
        let ratio = format!(
            "{workload}: calendar/reference ratio {:.2} (required {min_ratio})",
            p.ratio
        );
        rows.push((p.ratio >= *min_ratio, ratio));
    }
    // A disagreement is an ordering bug, not a perf issue.
    let agree = points.iter().all(|p| p.stats_match);
    rows.push((agree, "both schedulers report the same SimStats".into()));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_reports_matching_stats() {
        let points = simcore_sweep(Scale::Smoke);
        assert_eq!(points.len(), 3);
        for p in &points {
            assert!(p.stats_match, "{}: schedulers disagreed", p.workload);
            assert!(p.events > 1_000, "{}: only {} events", p.workload, p.events);
            assert!(p.ratio.is_finite() && p.ratio > 0.0, "{}", p.workload);
        }
    }
}
