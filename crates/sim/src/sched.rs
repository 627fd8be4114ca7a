//! The deterministic event scheduler.
//!
//! [`Sim`] owns every process, a seeded RNG, and an event queue ordered by
//! `(time, sequence-number)`, so two runs with the same seed and task
//! description produce byte-identical runs. The queue is a bucketed
//! calendar queue by default (see [`crate::queue`]); the original binary
//! heap survives as [`SchedulerKind::Reference`] for differential testing.
//! Message transport is pluggable via the [`Transport`] trait: the default
//! delivers instantly, while `s2g-net` installs the emulated network
//! (links, switches, faults).

use std::any::Any;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cpu::CpuHandle;
use crate::process::{Message, Process, ProcessId, TimerToken};
use crate::queue::{EventKind, EventQueue, Popped};
use crate::time::{SimDuration, SimTime};

pub use crate::queue::SchedulerKind;

/// The outcome of routing a message through a [`Transport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Deliver the message after this delay.
    After(SimDuration),
    /// Silently drop the message (packet loss, link down, partition).
    Drop,
}

/// Computes how (and whether) a message travels between two processes.
///
/// `s2g-net` implements this over an emulated topology; the default
/// [`InstantTransport`] applies a fixed delay, which is convenient for unit
/// tests of protocol logic.
pub trait Transport {
    /// Routes `bytes` from `from` to `to` at time `now`, returning the
    /// delivery outcome. Implementations may consume randomness (for loss)
    /// and account bytes against port counters.
    fn route(
        &mut self,
        now: SimTime,
        rng: &mut StdRng,
        from: ProcessId,
        to: ProcessId,
        bytes: usize,
    ) -> Delivery;
}

/// A transport that delivers every message after a fixed delay.
#[derive(Debug, Clone, Copy)]
pub struct InstantTransport {
    /// Delay applied to every message.
    pub delay: SimDuration,
}

impl Default for InstantTransport {
    fn default() -> Self {
        InstantTransport {
            delay: SimDuration::from_micros(10),
        }
    }
}

impl Transport for InstantTransport {
    fn route(
        &mut self,
        _now: SimTime,
        _rng: &mut StdRng,
        _from: ProcessId,
        _to: ProcessId,
        _bytes: usize,
    ) -> Delivery {
        Delivery::After(self.delay)
    }
}

/// Counters describing a finished (or in-progress) run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Events popped from the queue.
    pub events_processed: u64,
    /// Messages handed to `on_message`, except those a process sends itself
    /// after CPU (counted in [`cpu_completions`](SimStats::cpu_completions)).
    pub messages_delivered: u64,
    /// Messages the transport dropped.
    pub messages_dropped: u64,
    /// Timers that fired (cancelled timers excluded).
    pub timers_fired: u64,
    /// Cancelled-timer tombstones popped: a cancelled timer stays queued
    /// until its instant and still counts as a processed event.
    pub timers_cancelled: u64,
    /// CPU completions: messages sent through [`Ctx::send_after_cpu`]
    /// leaving when their work ends, those to the sender itself handed to
    /// its `on_message` then; work booked with [`Ctx::charge`] has no
    /// completion.
    pub cpu_completions: u64,
    /// Events voided because their target process was killed after they
    /// were scheduled.
    pub events_voided: u64,
    /// Processes killed via [`Sim::kill`].
    pub processes_killed: u64,
    /// Processes respawned via [`Sim::respawn`].
    pub processes_respawned: u64,
    /// High-water mark of *live* scheduled events — entries that will still
    /// dispatch, excluding cancelled-timer tombstones and events voided by
    /// a kill/respawn incarnation bump.
    pub max_queue_len: usize,
}

/// Diagnostic view of the event queue; see [`Sim::queue_diag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueDiag {
    /// Events that will still dispatch (excludes cancelled and voided
    /// entries).
    pub live_events: usize,
    /// Entries physically held by the queue (live plus lazy-deletion
    /// residue not yet popped).
    pub queue_len: usize,
    /// Bookkeeping retained purely for lazy deletion: cancelled-timer
    /// tombstones (calendar) or the cancelled-token set (reference). Must
    /// stay bounded by the number of pending timers.
    pub residue: usize,
    /// Timer steps that ran inline through [`Ctx::run_ahead`] instead of
    /// through the queue. They count in [`SimStats`] as the timers they
    /// stand for; this count is kept apart so the stats do not change.
    pub inline_steps: u64,
}

/// Per-process scheduler bookkeeping, kept in one struct so the per-event
/// hot path (incarnation check + live accounting) touches a single cache
/// line per target instead of two parallel vectors.
#[derive(Clone, Copy, Default)]
struct ProcAccount {
    /// Incarnation counter, bumped on kill and respawn. An event scheduled
    /// for an older incarnation of its target is voided — a crashed process
    /// never receives its old incarnation's timers, CPU completions, or
    /// in-flight messages. A live process has been bumped twice per
    /// respawn, so `inc / 2` is [`Ctx::incarnation`].
    inc: u32,
    /// Count of live (still-dispatching) scheduled events.
    pending: u32,
    /// Correlation ids drawn by this incarnation ([`Ctx::next_corr`]).
    corrs: u32,
}

/// Everything the scheduler owns except the process table; split out so a
/// dispatched process can borrow it mutably through [`Ctx`] while the
/// process itself stays borrowed from the table.
pub(crate) struct SimCore {
    now: SimTime,
    seq: u64,
    queue: EventQueue,
    rng: StdRng,
    transport: Box<dyn Transport>,
    /// Per-process incarnation + live-event accounting, indexed by pid.
    accounts: Vec<ProcAccount>,
    /// Total live scheduled events; drives the `max_queue_len` high-water
    /// mark, so residue (cancelled/voided entries) is not counted.
    live: usize,
    stats: SimStats,
    /// The limit of the current [`Sim::run_until`]: nothing past it runs
    /// before that call returns.
    run_limit: SimTime,
    /// Events a run may process before it panics as livelocked.
    event_limit: u64,
    /// Timer steps taken through [`Ctx::run_ahead`].
    inline_steps: u64,
}

impl SimCore {
    fn push(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        let target = kind.target();
        let inc = self.incarnation_of(target);
        self.queue.push(at, seq, inc, kind);
        self.note_scheduled(target);
    }

    fn push_timer(&mut self, at: SimTime, pid: ProcessId, tag: u64) -> TimerToken {
        let seq = self.seq;
        self.seq += 1;
        let inc = self.incarnation_of(pid);
        let token = self.queue.push_timer(at, seq, inc, pid, tag);
        self.note_scheduled(pid);
        token
    }

    fn incarnation_of(&self, pid: ProcessId) -> u32 {
        self.accounts.get(pid.index()).map_or(0, |a| a.inc)
    }

    /// Accounts a newly scheduled live event against its target.
    fn note_scheduled(&mut self, target: ProcessId) {
        let idx = target.index();
        if idx >= self.accounts.len() {
            self.accounts.resize(idx + 1, ProcAccount::default());
        }
        self.accounts[idx].pending += 1;
        self.live += 1;
        self.stats.max_queue_len = self.stats.max_queue_len.max(self.live);
    }

    /// Accounts a live event leaving the queue (dispatched or cancelled).
    fn note_retired(&mut self, target: ProcessId) {
        self.accounts[target.index()].pending -= 1;
        self.live -= 1;
    }

    /// Bumps a process's incarnation, voiding all its live events at once.
    fn bump_incarnation(&mut self, pid: ProcessId) {
        let idx = pid.index();
        if idx >= self.accounts.len() {
            self.accounts.resize(idx + 1, ProcAccount::default());
        }
        let account = &mut self.accounts[idx];
        account.inc += 1;
        self.live -= account.pending as usize;
        account.pending = 0;
        account.corrs = 0;
    }

    /// Routes `msg` from `from` to `to` through the transport, now.
    fn send(&mut self, from: ProcessId, to: ProcessId, msg: Box<dyn Message>) {
        let bytes = msg.wire_size();
        match (self.transport).route(self.now, &mut self.rng, from, to, bytes) {
            Delivery::After(d) => {
                let at = self.now + d;
                self.push(at, EventKind::Deliver { from, to, msg });
            }
            Delivery::Drop => {
                self.stats.messages_dropped += 1;
            }
        }
    }
}

/// The incarnation of the process that drew correlation id `corr` through
/// [`Ctx::next_corr`].
pub fn corr_incarnation(corr: u64) -> u32 {
    (corr >> 32) as u32
}

/// The per-dispatch context handed to process handlers.
///
/// Provides simulated time, the seeded RNG, message sending, timers, and
/// CPU execution on the process's host.
pub struct Ctx<'a> {
    core: &'a mut SimCore,
    self_id: ProcessId,
    cpu: Option<&'a CpuHandle>,
}

impl<'a> Ctx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// This process's id.
    pub fn self_id(&self) -> ProcessId {
        self.self_id
    }

    /// The run's seeded RNG. All randomness must come from here.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.core.rng
    }

    /// Sends `msg` to `to` through the installed transport.
    pub fn send<M: Message>(&mut self, to: ProcessId, msg: M) {
        self.send_boxed(to, Box::new(msg));
    }

    /// Sends an already-boxed message to `to`.
    pub fn send_boxed(&mut self, to: ProcessId, msg: Box<dyn Message>) {
        self.core.send(self.self_id, to, msg);
    }

    /// Which incarnation of its process this is: 0 from its spawn, one more
    /// for each [`Sim::respawn`] into its slot.
    pub fn incarnation(&self) -> u32 {
        self.core.incarnation_of(self.self_id) / 2
    }

    /// A correlation id no other incarnation of this process draws, and
    /// this one draws once: `incarnation << 32 | n` for its `n`th draw
    /// (see [`corr_incarnation`]). A respawn reuses the process id, so a
    /// reply to a request of the crashed incarnation, answered late, is
    /// told from one to the respawn's own by its id alone.
    pub fn next_corr(&mut self) -> u64 {
        let account = &mut self.core.accounts[self.self_id.index()];
        let n = account.corrs;
        account.corrs += 1;
        u64::from(account.inc / 2) << 32 | u64::from(n)
    }

    /// Schedules `on_timer(tag)` to fire after `after`.
    pub fn set_timer(&mut self, after: SimDuration, tag: u64) -> TimerToken {
        self.set_timer_at(self.core.now + after, tag)
    }

    /// Schedules `on_timer(tag)` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn set_timer_at(&mut self, at: SimTime, tag: u64) -> TimerToken {
        assert!(
            at >= self.core.now,
            "timer scheduled in the past: {at} < {}",
            self.core.now
        );
        self.core.push_timer(at, self.self_id, tag)
    }

    /// Cancels a pending timer. Cancelling an already-fired timer is a no-op.
    pub fn cancel_timer(&mut self, token: TimerToken) {
        if let Some((pid, inc)) = self.core.queue.cancel(token) {
            // Only un-account the event if it was still live: a timer set by
            // an incarnation that has since been killed was already voided
            // in bulk by the incarnation bump.
            if inc == self.core.incarnation_of(pid) {
                self.core.note_retired(pid);
            }
        }
    }

    /// Takes this process's next timer step inline, when a timer armed now
    /// for `at` would be the run's very next event anyway. On `true` the
    /// kernel has done what that timer's push and pop would have done (one
    /// sequence number, one processed event, one fired timer) and moved the
    /// clock to `at`; the caller then does what its `on_timer` would have
    /// done. On `false` nothing changed, and the caller arms the timer.
    ///
    /// The step is next when `at` is not in the past, lies within the
    /// current [`Sim::run_until`] limit, the event limit has room for one
    /// more event, and every queued entry (cancelled and voided ones
    /// included) is strictly later than `at`: an entry at the same instant
    /// was scheduled first and keeps its precedence. No
    /// other process runs between two such steps, so a run that takes them
    /// is the run that arms every timer.
    pub fn run_ahead(&mut self, at: SimTime) -> bool {
        let core = &mut *self.core;
        let next = at >= core.now
            && at <= core.run_limit
            && core.stats.events_processed < core.event_limit
            && !matches!(core.queue.next_at(), Some(queued) if queued <= at);
        if next {
            core.seq += 1;
            core.note_scheduled(self.self_id);
            core.note_retired(self.self_id);
            core.stats.events_processed += 1;
            core.stats.timers_fired += 1;
            core.inline_steps += 1;
            core.now = at;
        }
        next
    }

    /// Sends `msg` to `to` once `cost` of CPU work on this process's host
    /// CPU is done; without an attached CPU the work takes exactly `cost`
    /// (no contention). Bookings complete in the order the host CPU
    /// finishes them, and the message then leaves through the transport,
    /// or, sent to this process itself, is handed to its `on_message` at
    /// that instant: the one way a process resumes work that waited on its
    /// CPU. It is voided if this process dies first, and its completion
    /// counts in [`SimStats::cpu_completions`] (a message to itself counts
    /// there only, not in `messages_delivered`).
    pub fn send_after_cpu<M: Message>(&mut self, cost: SimDuration, to: ProcessId, msg: M) {
        self.send_boxed_after_cpu(cost, to, Box::new(msg));
    }

    /// [`send_after_cpu`](Ctx::send_after_cpu) for an already-boxed message.
    pub fn send_boxed_after_cpu(
        &mut self,
        cost: SimDuration,
        to: ProcessId,
        msg: Box<dyn Message>,
    ) {
        let at = self.core.now + self.book(cost);
        let from = self.self_id;
        self.core.push(at, EventKind::Depart { from, to, msg });
    }

    /// Books `cost` on the host CPU; returns when the work completes.
    fn book(&mut self, cost: SimDuration) -> SimDuration {
        match self.cpu {
            Some(cpu) => cpu.borrow_mut().execute(self.core.now, cost),
            None => cost,
        }
    }

    /// Books `cost` of CPU work on this process's host CPU exactly as
    /// [`send_after_cpu`](Ctx::send_after_cpu) does (same core, busy
    /// interval and job count) but schedules no completion: for work
    /// nothing waits on, such as start-up, background churn and per-record
    /// bookkeeping. Without an attached CPU there is nothing to book.
    pub fn charge(&mut self, cost: SimDuration) {
        if let Some(cpu) = self.cpu {
            cpu.borrow_mut().execute(self.core.now, cost);
        }
    }
}

struct ProcEntry {
    proc: Box<dyn Process>,
    cpu: Option<CpuHandle>,
}

/// The deterministic discrete-event scheduler.
///
/// # Examples
///
/// ```
/// use s2g_sim::{Ctx, Message, Process, ProcessId, Sim, SimDuration, SimTime};
///
/// #[derive(Debug)]
/// struct Tick;
/// impl Message for Tick {}
///
/// struct Counter { seen: u32 }
/// impl Process for Counter {
///     fn name(&self) -> &str { "counter" }
///     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
///         let me = ctx.self_id();
///         ctx.send(me, Tick);
///     }
///     fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ProcessId, _msg: Box<dyn Message>) {
///         self.seen += 1;
///         if self.seen < 5 {
///             let me = ctx.self_id();
///             ctx.send(me, Tick);
///         }
///     }
/// }
///
/// let mut sim = Sim::new(42);
/// let pid = sim.spawn(Box::new(Counter { seen: 0 }));
/// sim.run_until(SimTime::from_secs(1));
/// assert_eq!(sim.process_ref::<Counter>(pid).unwrap().seen, 5);
/// ```
pub struct Sim {
    core: SimCore,
    processes: Vec<Option<ProcEntry>>,
}

impl Sim {
    /// Creates a scheduler seeded with `seed`, on the calendar queue.
    pub fn new(seed: u64) -> Self {
        Sim::with_scheduler(seed, SchedulerKind::Calendar)
    }

    /// Creates a scheduler seeded with `seed` on an explicit queue
    /// implementation. Both kinds produce identical event orders; the
    /// reference exists for differential tests and benchmarks.
    pub fn with_scheduler(seed: u64, kind: SchedulerKind) -> Self {
        Sim {
            core: SimCore {
                now: SimTime::ZERO,
                seq: 0,
                queue: EventQueue::new(kind),
                rng: StdRng::seed_from_u64(seed),
                transport: Box::new(InstantTransport::default()),
                accounts: Vec::new(),
                live: 0,
                stats: SimStats::default(),
                run_limit: SimTime::ZERO,
                event_limit: u64::MAX,
                inline_steps: 0,
            },
            processes: Vec::new(),
        }
    }

    /// Which event-queue implementation this scheduler runs on.
    #[cfg(test)]
    fn scheduler_kind(&self) -> SchedulerKind {
        self.core.queue.kind()
    }

    /// Diagnostic counters for the event queue (live events, physical
    /// length, lazy-deletion residue).
    pub fn queue_diag(&self) -> QueueDiag {
        QueueDiag {
            live_events: self.core.live,
            queue_len: self.core.queue.len(),
            residue: self.core.queue.residue(),
            inline_steps: self.core.inline_steps,
        }
    }

    /// Installs a transport (e.g. the emulated network).
    pub fn set_transport(&mut self, transport: Box<dyn Transport>) {
        self.core.transport = transport;
    }

    /// Caps the number of events a run may process — a runaway-loop guard.
    pub fn set_event_limit(&mut self, limit: u64) {
        self.core.event_limit = limit;
    }

    /// Registers `proc` and schedules its `on_start` at time zero.
    pub fn spawn(&mut self, proc: Box<dyn Process>) -> ProcessId {
        self.spawn_at(SimTime::ZERO, proc)
    }

    /// Registers `proc` and schedules its `on_start` at `start`.
    pub fn spawn_at(&mut self, start: SimTime, proc: Box<dyn Process>) -> ProcessId {
        let pid = ProcessId(self.processes.len() as u32);
        self.processes.push(Some(ProcEntry { proc, cpu: None }));
        self.core.push(start, EventKind::Start(pid));
        pid
    }

    /// Kills a process: its slot is vacated and every event scheduled for the
    /// old incarnation — pending timers, CPU completions, and in-flight
    /// messages — is voided, exactly as an OS process crash drops its
    /// runtime state and open connections. Returns the dead process for
    /// post-mortem inspection, or `None` when the slot was already empty.
    ///
    /// The slot (and therefore the [`ProcessId`]) can be reused via
    /// [`respawn`](Sim::respawn), so network placements keyed by pid stay
    /// valid across a crash/restart cycle.
    pub fn kill(&mut self, pid: ProcessId) -> Option<Box<dyn Process>> {
        let entry = self.processes.get_mut(pid.index())?.take()?;
        self.core.bump_incarnation(pid);
        self.core.stats.processes_killed += 1;
        Some(entry.proc)
    }

    /// Respawns a process into a previously [`kill`](Sim::kill)ed slot and
    /// schedules its `on_start` at the current simulated time. Messages
    /// addressed to the dead period (sent between kill and respawn) are
    /// voided too.
    ///
    /// The respawn is the slot's next incarnation ([`Ctx::incarnation`]),
    /// and draws correlation ids no earlier one drew ([`Ctx::next_corr`]):
    /// a protocol tells a late reply to a crashed incarnation's request by
    /// its id, and a broker stamps its incarnation into controller
    /// heartbeats so its roles are re-taught after a bounce faster than the
    /// session timeout.
    ///
    /// # Panics
    ///
    /// Panics if the slot is still occupied or was never allocated.
    pub fn respawn(&mut self, pid: ProcessId, proc: Box<dyn Process>) {
        let slot = self
            .processes
            .get_mut(pid.index())
            .unwrap_or_else(|| panic!("respawn of unknown process {pid}"));
        assert!(slot.is_none(), "respawn into occupied slot {pid}");
        *slot = Some(ProcEntry { proc, cpu: None });
        self.core.bump_incarnation(pid);
        self.core.stats.processes_respawned += 1;
        let now = self.core.now;
        self.core.push(now, EventKind::Start(pid));
    }

    /// True while the process slot holds a live process.
    pub fn is_alive(&self, pid: ProcessId) -> bool {
        self.processes.get(pid.index()).is_some_and(Option::is_some)
    }

    /// Attaches a host CPU to a process; the work it books from then on
    /// ([`Ctx::send_after_cpu`], [`Ctx::charge`]) contends on it.
    pub fn attach_cpu(&mut self, pid: ProcessId, cpu: CpuHandle) {
        let entry = self.processes[pid.index()]
            .as_mut()
            .expect("process exists");
        entry.cpu = Some(cpu);
    }

    /// Injects a message from "outside the world" (e.g. the orchestrator) to
    /// be delivered to `to` at absolute time `at`. Bypasses the transport.
    pub fn inject_at<M: Message>(&mut self, at: SimTime, to: ProcessId, msg: M) {
        self.core.push(
            at,
            EventKind::Deliver {
                from: to,
                to,
                msg: Box::new(msg),
            },
        );
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Run statistics so far.
    pub fn stats(&self) -> SimStats {
        self.core.stats
    }

    /// Number of registered processes.
    pub fn process_count(&self) -> usize {
        self.processes.len()
    }

    /// Immutable access to a process, downcast to its concrete type.
    /// Returns `None` if the type does not match.
    pub fn process_ref<T: Process + 'static>(&self, pid: ProcessId) -> Option<&T> {
        let entry = self.processes.get(pid.index())?.as_ref()?;
        (entry.proc.as_ref() as &dyn Any).downcast_ref::<T>()
    }

    /// Mutable access to a process, downcast to its concrete type.
    pub fn process_mut<T: Process + 'static>(&mut self, pid: ProcessId) -> Option<&mut T> {
        let entry = self.processes.get_mut(pid.index())?.as_mut()?;
        (entry.proc.as_mut() as &mut dyn Any).downcast_mut::<T>()
    }

    /// Runs until the queue drains or `limit` is reached; the clock is left
    /// at `limit` (or the last event time if the queue drained first).
    /// Returns the number of events processed by this call, steps taken
    /// through [`Ctx::run_ahead`] included.
    ///
    /// # Panics
    ///
    /// Panics if the configured event limit is exceeded, which almost always
    /// indicates a livelocked protocol.
    pub fn run_until(&mut self, limit: SimTime) -> u64 {
        let before = self.core.stats.events_processed;
        self.core.run_limit = limit;
        loop {
            let Some(Popped {
                at,
                inc,
                cancelled,
                kind,
                ..
            }) = self.core.queue.pop_at_most(limit)
            else {
                break;
            };
            debug_assert!(at >= self.core.now, "time went backwards");
            self.core.now = at;
            self.core.stats.events_processed += 1;
            if self.core.stats.events_processed > self.core.event_limit {
                panic!(
                    "event limit {} exceeded at {} — livelocked protocol?",
                    self.core.event_limit, self.core.now
                );
            }
            let target = kind.target();
            if inc != self.core.incarnation_of(target) {
                // Scheduled for a dead incarnation of the target process;
                // un-accounted in bulk when the incarnation bumped.
                self.core.stats.events_voided += 1;
                continue;
            }
            if cancelled {
                // Cancelled timer tombstone; un-accounted at cancel time.
                self.core.stats.timers_cancelled += 1;
                continue;
            }
            self.core.note_retired(target);
            self.dispatch(kind);
        }
        if self.core.now < limit {
            self.core.now = limit;
        }
        self.core.stats.events_processed - before
    }

    /// Runs until the event queue is completely drained.
    pub fn run_to_completion(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Start(pid) => self.with_process(pid, |proc, ctx| proc.on_start(ctx)),
            EventKind::Deliver { from, to, msg } => {
                self.core.stats.messages_delivered += 1;
                self.with_process(to, |proc, ctx| proc.on_message(ctx, from, msg));
            }
            EventKind::Timer { pid, tag, .. } => {
                self.core.stats.timers_fired += 1;
                self.with_process(pid, |proc, ctx| proc.on_timer(ctx, tag));
            }
            EventKind::Depart { from, to, msg } => {
                self.core.stats.cpu_completions += 1;
                if from == to {
                    self.with_process(to, |proc, ctx| proc.on_message(ctx, from, msg));
                } else {
                    self.core.send(from, to, msg);
                }
            }
        }
    }

    fn with_process<F>(&mut self, pid: ProcessId, f: F)
    where
        F: FnOnce(&mut dyn Process, &mut Ctx<'_>),
    {
        // The process slot may be legitimately empty if the event targets
        // a process that was never registered (stale id) — drop silently.
        let Some(Some(entry)) = self.processes.get_mut(pid.index()) else {
            return;
        };
        // Disjoint-field borrows: the handler holds the process (from
        // `self.processes`) while `Ctx` borrows `self.core` — no need to
        // vacate the slot and write it back around every dispatch.
        let ProcEntry { proc, cpu } = entry;
        let mut ctx = Ctx {
            core: &mut self.core,
            self_id: pid,
            cpu: cpu.as_ref(),
        };
        f(proc.as_mut(), &mut ctx);
    }
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.core.now)
            .field("processes", &self.processes.len())
            .field("queue_len", &self.core.queue.len())
            .field("stats", &self.core.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::HostCpu;

    #[derive(Debug)]
    struct Note(u64);
    impl Message for Note {
        fn wire_size(&self) -> usize {
            16
        }
    }

    struct Echo {
        peer: Option<ProcessId>,
        received: Vec<(SimTime, u64)>,
        bounce: bool,
    }

    impl Echo {
        fn new(bounce: bool) -> Self {
            Echo {
                peer: None,
                received: Vec::new(),
                bounce,
            }
        }
    }

    impl Process for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, msg: Box<dyn Message>) {
            let note = crate::process::downcast::<Note>(msg).expect("note");
            self.received.push((ctx.now(), note.0));
            self.peer = Some(from);
            if self.bounce && note.0 > 0 {
                ctx.send(from, Note(note.0 - 1));
            }
        }
    }

    #[test]
    fn ping_pong_terminates() {
        let mut sim = Sim::new(1);
        let a = sim.spawn(Box::new(Echo::new(true)));
        let b = sim.spawn(Box::new(Echo::new(true)));
        sim.inject_at(SimTime::ZERO, a, Note(5));
        // inject_at uses from == to, so seed the peer manually via message flow:
        // a receives Note(5) "from a", bounces Note(4) to a... to make a real
        // ping-pong, inject to a with the note then manually send to b.
        sim.run_to_completion();
        // a received the injected 5, bounced 4 to itself, etc.
        let echo_a = sim.process_ref::<Echo>(a).unwrap();
        assert_eq!(
            echo_a.received.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            vec![5, 4, 3, 2, 1, 0]
        );
        let echo_b = sim.process_ref::<Echo>(b).unwrap();
        assert!(echo_b.received.is_empty());
    }

    #[test]
    fn deterministic_across_runs() {
        fn run(seed: u64) -> Vec<(SimTime, u64)> {
            let mut sim = Sim::new(seed);
            let a = sim.spawn(Box::new(Echo::new(true)));
            sim.inject_at(SimTime::from_millis(3), a, Note(10));
            sim.run_to_completion();
            sim.process_ref::<Echo>(a).unwrap().received.clone()
        }
        assert_eq!(run(7), run(7));
    }

    struct TimerProc {
        fired: Vec<(SimTime, u64)>,
        cancel_second: bool,
    }

    impl Process for TimerProc {
        fn name(&self) -> &str {
            "timer"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_millis(10), 1);
            let t2 = ctx.set_timer(SimDuration::from_millis(20), 2);
            ctx.set_timer(SimDuration::from_millis(30), 3);
            if self.cancel_second {
                ctx.cancel_timer(t2);
            }
        }
        fn on_message(&mut self, _: &mut Ctx<'_>, _: ProcessId, _: Box<dyn Message>) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
            self.fired.push((ctx.now(), tag));
        }
    }

    #[test]
    fn timers_fire_in_order() {
        let mut sim = Sim::new(0);
        let p = sim.spawn(Box::new(TimerProc {
            fired: vec![],
            cancel_second: false,
        }));
        sim.run_to_completion();
        let fired = &sim.process_ref::<TimerProc>(p).unwrap().fired;
        assert_eq!(fired.len(), 3);
        assert_eq!(fired[0], (SimTime::from_millis(10), 1));
        assert_eq!(fired[1], (SimTime::from_millis(20), 2));
        assert_eq!(fired[2], (SimTime::from_millis(30), 3));
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        let mut sim = Sim::new(0);
        let p = sim.spawn(Box::new(TimerProc {
            fired: vec![],
            cancel_second: true,
        }));
        sim.run_to_completion();
        let fired = &sim.process_ref::<TimerProc>(p).unwrap().fired;
        assert_eq!(
            fired.iter().map(|(_, t)| *t).collect::<Vec<_>>(),
            vec![1, 3]
        );
        assert_eq!(sim.stats().timers_fired, 2);
    }

    /// Books two 10 ms slices at start, each ending in a `Note` it sends
    /// itself, and records when each arrives.
    struct Worker {
        done: Vec<(SimTime, u64)>,
    }

    impl Process for Worker {
        fn name(&self) -> &str {
            "worker"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let me = ctx.self_id();
            ctx.send_after_cpu(SimDuration::from_millis(10), me, Note(100));
            ctx.send_after_cpu(SimDuration::from_millis(10), me, Note(101));
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _: ProcessId, msg: Box<dyn Message>) {
            let note = crate::process::downcast::<Note>(msg).expect("note");
            self.done.push((ctx.now(), note.0));
        }
    }

    #[test]
    fn cpu_contention_serializes_on_one_core() {
        let mut sim = Sim::new(0);
        let p = sim.spawn(Box::new(Worker { done: vec![] }));
        sim.attach_cpu(
            p,
            HostCpu::shared("h", 1, 1.0, SimDuration::from_millis(500)),
        );
        sim.run_to_completion();
        let done = &sim.process_ref::<Worker>(p).unwrap().done;
        assert_eq!(done[0], (SimTime::from_millis(10), 100));
        assert_eq!(done[1], (SimTime::from_millis(20), 101));
    }

    #[test]
    fn cpu_without_handle_is_uncontended() {
        let mut sim = Sim::new(0);
        let p = sim.spawn(Box::new(Worker { done: vec![] }));
        sim.run_to_completion();
        let done = &sim.process_ref::<Worker>(p).unwrap().done;
        assert_eq!(done[0].0, SimTime::from_millis(10));
        assert_eq!(done[1].0, SimTime::from_millis(10));
    }

    #[test]
    fn run_until_advances_clock_to_limit() {
        let mut sim = Sim::new(0);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    #[test]
    fn stats_count_messages() {
        let mut sim = Sim::new(0);
        let a = sim.spawn(Box::new(Echo::new(false)));
        sim.inject_at(SimTime::ZERO, a, Note(1));
        sim.inject_at(SimTime::ZERO, a, Note(2));
        sim.run_to_completion();
        assert_eq!(sim.stats().messages_delivered, 2);
        assert_eq!(sim.stats().messages_dropped, 0);
    }

    struct DropAll;
    impl Transport for DropAll {
        fn route(
            &mut self,
            _: SimTime,
            _: &mut StdRng,
            _: ProcessId,
            _: ProcessId,
            _: usize,
        ) -> Delivery {
            Delivery::Drop
        }
    }

    #[test]
    fn transport_can_drop() {
        let mut sim = Sim::new(0);
        let a = sim.spawn(Box::new(Echo::new(false)));
        let b = sim.spawn(Box::new(Echo::new(true)));
        sim.set_transport(Box::new(DropAll));
        sim.inject_at(SimTime::ZERO, b, Note(3)); // inject bypasses transport
        sim.run_to_completion();
        // b bounced a reply, but the transport dropped it.
        assert_eq!(sim.stats().messages_dropped, 1);
        assert!(sim.process_ref::<Echo>(a).unwrap().received.is_empty());
    }

    #[test]
    #[should_panic(expected = "event limit")]
    fn event_limit_catches_livelock() {
        struct Spin;
        impl Process for Spin {
            fn name(&self) -> &str {
                "spin"
            }
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let me = ctx.self_id();
                ctx.send(me, Note(0));
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _: ProcessId, _: Box<dyn Message>) {
                let me = ctx.self_id();
                ctx.send(me, Note(0));
            }
        }
        let mut sim = Sim::new(0);
        sim.spawn(Box::new(Spin));
        sim.set_event_limit(1_000);
        sim.run_to_completion();
    }

    #[test]
    fn killed_process_receives_nothing_more() {
        struct Ticker {
            ticks: u32,
        }
        impl Process for Ticker {
            fn name(&self) -> &str {
                "ticker"
            }
            fn on_message(&mut self, _: &mut Ctx<'_>, _: ProcessId, _: Box<dyn Message>) {}
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_millis(10), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
                self.ticks += 1;
                ctx.set_timer(SimDuration::from_millis(10), 0);
            }
        }
        let mut sim = Sim::new(0);
        let p = sim.spawn(Box::new(Ticker { ticks: 0 }));
        sim.run_until(SimTime::from_millis(35));
        let dead = sim.kill(p).expect("was alive");
        assert!(!sim.is_alive(p));
        let dead_ticks = (dead.as_ref() as &dyn Any)
            .downcast_ref::<Ticker>()
            .unwrap()
            .ticks;
        assert_eq!(dead_ticks, 3);
        // The pending timer for the old incarnation is voided, not delivered.
        sim.run_until(SimTime::from_millis(100));
        assert!(sim.stats().events_voided >= 1);
        assert_eq!(sim.stats().processes_killed, 1);
    }

    #[test]
    fn respawn_reuses_pid_with_fresh_state() {
        let mut sim = Sim::new(0);
        let p = sim.spawn(Box::new(Echo::new(false)));
        sim.inject_at(SimTime::from_millis(1), p, Note(1));
        sim.run_until(SimTime::from_millis(5));
        assert_eq!(sim.process_ref::<Echo>(p).unwrap().received.len(), 1);
        // A message in flight across the crash must not reach the respawn.
        sim.inject_at(SimTime::from_millis(20), p, Note(2));
        sim.kill(p).expect("alive");
        sim.run_until(SimTime::from_millis(10));
        sim.respawn(p, Box::new(Echo::new(false)));
        assert!(sim.is_alive(p));
        sim.inject_at(SimTime::from_millis(30), p, Note(3));
        sim.run_to_completion();
        let echo = sim.process_ref::<Echo>(p).unwrap();
        let values: Vec<u64> = echo.received.iter().map(|(_, v)| *v).collect();
        assert_eq!(values, vec![3], "only post-respawn messages arrive");
        assert_eq!(sim.stats().processes_respawned, 1);
    }

    #[test]
    #[should_panic(expected = "occupied slot")]
    fn respawn_into_live_slot_panics() {
        let mut sim = Sim::new(0);
        let p = sim.spawn(Box::new(Echo::new(false)));
        sim.respawn(p, Box::new(Echo::new(false)));
    }

    #[test]
    fn default_scheduler_is_calendar() {
        let sim = Sim::new(0);
        assert_eq!(sim.scheduler_kind(), SchedulerKind::Calendar);
        let r = Sim::with_scheduler(0, SchedulerKind::Reference);
        assert_eq!(r.scheduler_kind(), SchedulerKind::Reference);
    }

    /// Regression for the cancelled-timer leak: cancel bookkeeping must not
    /// grow with the number of set/cancel cycles — on either scheduler.
    #[test]
    fn cancel_bookkeeping_stays_bounded() {
        for kind in [SchedulerKind::Calendar, SchedulerKind::Reference] {
            struct Churner {
                cycles: u32,
            }
            impl Process for Churner {
                fn name(&self) -> &str {
                    "churner"
                }
                fn on_message(&mut self, _: &mut Ctx<'_>, _: ProcessId, _: Box<dyn Message>) {}
                fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                    ctx.set_timer(SimDuration::from_millis(1), 0);
                }
                fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
                    self.cycles += 1;
                    if self.cycles < 2_000 {
                        // Set-and-cancel plus a live driver timer per cycle.
                        let doomed = ctx.set_timer(SimDuration::from_millis(5), 1);
                        ctx.cancel_timer(doomed);
                        ctx.cancel_timer(doomed); // double cancel is a no-op
                        ctx.set_timer(SimDuration::from_millis(1), 0);
                    }
                }
            }
            let mut sim = Sim::with_scheduler(3, kind);
            sim.spawn(Box::new(Churner { cycles: 0 }));
            sim.run_to_completion();
            let diag = sim.queue_diag();
            assert_eq!(diag.queue_len, 0, "{kind:?}: queue drained");
            assert_eq!(
                diag.residue, 0,
                "{kind:?}: cancel bookkeeping leaked after 2000 set/cancel cycles"
            );
            assert_eq!(diag.live_events, 0, "{kind:?}");
        }
    }

    /// Regression for `max_queue_len`: the high-water mark counts live
    /// events only, not cancelled tombstones sitting in the queue.
    #[test]
    fn max_queue_len_ignores_cancelled_residue() {
        for kind in [SchedulerKind::Calendar, SchedulerKind::Reference] {
            struct Canceller;
            impl Process for Canceller {
                fn name(&self) -> &str {
                    "canceller"
                }
                fn on_message(&mut self, _: &mut Ctx<'_>, _: ProcessId, _: Box<dyn Message>) {}
                fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                    // Ten timers live at once (the true high-water mark),
                    // then nine cancelled before anything more is scheduled.
                    let tokens: Vec<_> = (0..10)
                        .map(|i| ctx.set_timer(SimDuration::from_millis(10 + i), i))
                        .collect();
                    for t in &tokens[..9] {
                        ctx.cancel_timer(*t);
                    }
                    // Two more live timers: 1 survivor + 2 = 3 < 10, but the
                    // physical queue still holds 12 entries here.
                    ctx.set_timer(SimDuration::from_millis(40), 100);
                    ctx.set_timer(SimDuration::from_millis(50), 101);
                }
            }
            let mut sim = Sim::with_scheduler(0, kind);
            sim.spawn(Box::new(Canceller));
            sim.run_to_completion();
            assert_eq!(
                sim.stats().max_queue_len,
                10,
                "{kind:?}: high-water mark must count live events, not residue"
            );
            assert_eq!(sim.stats().timers_fired, 3, "{kind:?}");
        }
    }

    /// Kill must void its process's pending events in the live accounting,
    /// so post-kill pushes don't inflate the high-water mark.
    #[test]
    fn max_queue_len_ignores_voided_events() {
        struct Sleeper;
        impl Process for Sleeper {
            fn name(&self) -> &str {
                "sleeper"
            }
            fn on_message(&mut self, _: &mut Ctx<'_>, _: ProcessId, _: Box<dyn Message>) {}
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for i in 0..8 {
                    ctx.set_timer(SimDuration::from_millis(100 + i), i);
                }
            }
        }
        for kind in [SchedulerKind::Calendar, SchedulerKind::Reference] {
            let mut sim = Sim::with_scheduler(0, kind);
            let p = sim.spawn(Box::new(Sleeper));
            sim.run_until(SimTime::from_millis(50));
            assert_eq!(sim.queue_diag().live_events, 8, "{kind:?}");
            sim.kill(p).expect("alive");
            assert_eq!(
                sim.queue_diag().live_events,
                0,
                "{kind:?}: kill voids pending events"
            );
            // Eight voided entries still sit in the queue; the high-water
            // mark must not re-count them against new arrivals.
            sim.respawn(p, Box::new(Sleeper));
            sim.run_to_completion();
            assert_eq!(sim.stats().max_queue_len, 8, "{kind:?}");
            assert_eq!(sim.stats().events_voided, 8, "{kind:?}");
        }
    }

    /// Records its incarnation and draws three correlation ids at start.
    #[derive(Default)]
    struct Drawer {
        incarnation: u32,
        ids: Vec<u64>,
    }

    impl Process for Drawer {
        fn name(&self) -> &str {
            "drawer"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.incarnation = ctx.incarnation();
            self.ids = (0..3).map(|_| ctx.next_corr()).collect();
        }
        fn on_message(&mut self, _: &mut Ctx<'_>, _: ProcessId, _: Box<dyn Message>) {}
    }

    #[test]
    fn two_incarnations_of_a_process_draw_disjoint_ids() {
        let mut sim = Sim::new(0);
        let p = sim.spawn(Box::new(Drawer::default()));
        sim.run_until(SimTime::from_millis(1));
        let dead = sim.kill(p).expect("alive");
        let first = (dead.as_ref() as &dyn Any)
            .downcast_ref::<Drawer>()
            .unwrap();
        assert_eq!(first.incarnation, 0);
        sim.respawn(p, Box::new(Drawer::default()));
        sim.run_until(SimTime::from_millis(2));
        let second = sim.process_ref::<Drawer>(p).unwrap();
        assert_eq!(second.incarnation, 1);
        assert!(first.ids.iter().all(|id| !second.ids.contains(id)));
        for (ids, inc) in [(&first.ids, 0), (&second.ids, 1)] {
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
            assert!(ids.iter().all(|id| corr_incarnation(*id) == inc));
        }
    }

    /// Sends `Note(base + i)` after `costs[i]` µs of CPU at start: to its
    /// peer directly, or to itself, forwarding the note to its peer when it
    /// arrives. Between them it sends `Note(base + 100 + i)` at once.
    struct Replier {
        to: ProcessId,
        base: u64,
        costs: Vec<u64>,
        direct: bool,
    }

    impl Process for Replier {
        fn name(&self) -> &str {
            "replier"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let me = ctx.self_id();
            for (i, micros) in self.costs.iter().enumerate() {
                let cost = SimDuration::from_micros(*micros);
                let note = self.base + i as u64;
                let to = if self.direct { self.to } else { me };
                ctx.send_after_cpu(cost, to, Note(note));
                ctx.send(self.to, Note(note + 100));
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _: ProcessId, msg: Box<dyn Message>) {
            ctx.send_boxed(self.to, msg);
        }
    }

    /// What `Replier`s on a two-core host delivered, and the run's stats.
    fn replies(
        kind: SchedulerKind,
        direct: bool,
        kill_at: Option<SimTime>,
    ) -> (Vec<(SimTime, u64)>, SimStats) {
        let mut sim = Sim::with_scheduler(0, kind);
        let to = sim.spawn(Box::new(Echo::new(false)));
        let cpu = HostCpu::shared("h", 2, 1.0, SimDuration::from_millis(500));
        let costs = [vec![30, 10, 10, 20], vec![10, 20, 5]];
        let pids: Vec<_> = (costs.into_iter().zip([0, 1_000]))
            .map(|(costs, base)| {
                let replier = Replier {
                    to,
                    base,
                    costs,
                    direct,
                };
                sim.spawn(Box::new(replier))
            })
            .collect();
        for pid in &pids {
            sim.attach_cpu(*pid, cpu.clone());
        }
        if let Some(at) = kill_at {
            sim.run_until(at);
            sim.kill(pids[0]).expect("alive");
        }
        sim.run_to_completion();
        let received = sim.process_ref::<Echo>(to).unwrap().received.clone();
        (received, sim.stats())
    }

    #[test]
    fn a_reply_sent_after_cpu_arrives_as_a_forwarded_message_to_itself_does() {
        for kind in [SchedulerKind::Calendar, SchedulerKind::Reference] {
            let (received, stats) = replies(kind, true, None);
            assert_eq!(
                (received.clone(), stats),
                replies(kind, false, None),
                "{kind:?}"
            );
            assert_eq!(received.len(), 14, "{kind:?}");
            assert_eq!(stats.cpu_completions, 7, "{kind:?}");
        }
    }

    #[test]
    fn a_reply_of_a_process_killed_before_its_cpu_work_ends_is_voided() {
        let at = SimTime::from_micros(5);
        for kind in [SchedulerKind::Calendar, SchedulerKind::Reference] {
            let (received, stats) = replies(kind, true, Some(at));
            assert_eq!(
                (received.clone(), stats),
                replies(kind, false, Some(at)),
                "{kind:?}"
            );
            // The victim's four replies are voided; its immediate notes and
            // the other replier's seven messages arrive.
            assert_eq!(received.len(), 10, "{kind:?}");
            assert!(received.iter().all(|(_, v)| *v >= 100), "{received:?}");
            assert_eq!(stats.events_voided, 4, "{kind:?}");
            assert_eq!(stats.cpu_completions, 3, "{kind:?}");
        }
    }

    /// Books `Note(i)` to itself after `COSTS[i]` µs of CPU at start, and
    /// records when each arrives.
    #[derive(Default)]
    struct SelfBooker {
        received: Vec<(SimTime, u64)>,
    }

    impl SelfBooker {
        const COSTS: [u64; 5] = [30, 10, 10, 20, 5];
    }

    impl Process for SelfBooker {
        fn name(&self) -> &str {
            "self-booker"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let me = ctx.self_id();
            for (i, micros) in Self::COSTS.iter().enumerate() {
                ctx.send_after_cpu(SimDuration::from_micros(*micros), me, Note(i as u64));
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: ProcessId, msg: Box<dyn Message>) {
            assert_eq!(from, ctx.self_id());
            let note = crate::process::downcast::<Note>(msg).expect("note");
            self.received.push((ctx.now(), note.0));
        }
    }

    /// A `SelfBooker` alone on a two-core host, killed at `kill_at` if
    /// given: what it received (its corpse's, when killed) and the stats.
    fn self_booked(
        kind: SchedulerKind,
        kill_at: Option<SimTime>,
    ) -> (Vec<(SimTime, u64)>, SimStats) {
        let mut sim = Sim::with_scheduler(0, kind);
        let pid = sim.spawn(Box::new(SelfBooker::default()));
        sim.attach_cpu(
            pid,
            HostCpu::shared("h", 2, 1.0, SimDuration::from_millis(500)),
        );
        let received = match kill_at {
            Some(at) => {
                sim.run_until(at);
                let corpse = sim.kill(pid).expect("alive");
                let booker = (corpse.as_ref() as &dyn Any).downcast_ref::<SelfBooker>();
                booker.expect("a self-booker").received.clone()
            }
            None => Vec::new(),
        };
        sim.run_to_completion();
        let received = match sim.process_ref::<SelfBooker>(pid) {
            Some(booker) => booker.received.clone(),
            None => received,
        };
        (received, sim.stats())
    }

    #[test]
    fn a_message_to_itself_after_cpu_arrives_when_its_booking_completes() {
        let us = SimTime::from_micros;
        for kind in [SchedulerKind::Calendar, SchedulerKind::Reference] {
            let (received, stats) = self_booked(kind, None);
            // Two cores, earliest free first: 30 on core 0; 10, 10 and 20
            // on core 1; 5 on core 0 once its 30 is done.
            let want = [
                (us(10), 1),
                (us(20), 2),
                (us(30), 0),
                (us(35), 4),
                (us(40), 3),
            ];
            assert_eq!(received, want, "{kind:?}");
            assert_eq!(stats.cpu_completions, 5, "{kind:?}");
            assert_eq!(stats.messages_delivered, 0, "{kind:?}");
            assert_eq!(
                stats.events_processed, 6,
                "{kind:?}: a start and five completions"
            );
        }
    }

    #[test]
    fn a_message_to_itself_after_cpu_is_voided_when_its_process_dies_first() {
        let at = SimTime::from_micros(15);
        for kind in [SchedulerKind::Calendar, SchedulerKind::Reference] {
            let (received, stats) = self_booked(kind, Some(at));
            assert_eq!(received, [(SimTime::from_micros(10), 1)], "{kind:?}");
            assert_eq!(stats.cpu_completions, 1, "{kind:?}");
            assert_eq!(stats.events_voided, 4, "{kind:?}");
            assert_eq!(stats.messages_delivered, 0, "{kind:?}");
        }
    }

    /// Steps every millisecond until `left` runs out: through
    /// [`Ctx::run_ahead`] when `inline`, through an armed timer otherwise.
    /// Records each step's instant, each instant `run_ahead` refused, and how
    /// many steps had run when a message arrived.
    struct Stepper {
        inline: bool,
        left: u32,
        steps: Vec<SimTime>,
        refused: Vec<SimTime>,
        messages_after: Vec<usize>,
    }

    impl Stepper {
        fn new(inline: bool, left: u32) -> Self {
            Stepper {
                inline,
                left,
                steps: Vec::new(),
                refused: Vec::new(),
                messages_after: Vec::new(),
            }
        }
    }

    impl Process for Stepper {
        fn name(&self) -> &str {
            "stepper"
        }
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
        fn on_message(&mut self, _: &mut Ctx<'_>, _: ProcessId, _: Box<dyn Message>) {
            self.messages_after.push(self.steps.len());
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
            loop {
                self.steps.push(ctx.now());
                self.left -= 1;
                if self.left == 0 {
                    return;
                }
                let at = ctx.now() + SimDuration::from_millis(1);
                if self.inline && ctx.run_ahead(at) {
                    continue;
                }
                if self.inline {
                    self.refused.push(at);
                }
                ctx.set_timer_at(at, 0);
                return;
            }
        }
    }

    /// What a stepper run left behind.
    struct Stepped {
        steps: Vec<SimTime>,
        refused: Vec<SimTime>,
        messages_after: Vec<usize>,
        stats: SimStats,
        now: SimTime,
        diag: QueueDiag,
    }

    /// Runs `make(inline)` with a message injected at `message_at`, calling
    /// `run_until` at each of `limits`, both ways on both schedulers; checks
    /// that the inline run is the armed one and returns the inline run.
    fn inline_matches_armed(
        make: impl Fn(bool) -> Stepper,
        message_at: Option<SimTime>,
        limits: &[SimTime],
    ) -> Stepped {
        let run = |kind, inline| {
            let mut sim = Sim::with_scheduler(0, kind);
            let pid = sim.spawn(Box::new(make(inline)));
            if let Some(at) = message_at {
                sim.inject_at(at, pid, Note(0));
            }
            for &limit in limits {
                sim.run_until(limit);
            }
            let s = sim.process_ref::<Stepper>(pid).unwrap();
            Stepped {
                steps: s.steps.clone(),
                refused: s.refused.clone(),
                messages_after: s.messages_after.clone(),
                stats: sim.stats(),
                now: sim.now(),
                diag: sim.queue_diag(),
            }
        };
        let mut last = None;
        for kind in [SchedulerKind::Calendar, SchedulerKind::Reference] {
            let (armed, inline) = (run(kind, false), run(kind, true));
            assert_eq!(inline.steps, armed.steps, "{kind:?}");
            assert_eq!(inline.messages_after, armed.messages_after, "{kind:?}");
            assert_eq!(inline.stats, armed.stats, "{kind:?}");
            assert_eq!(inline.now, armed.now, "{kind:?}");
            assert_eq!(inline.diag.live_events, armed.diag.live_events, "{kind:?}");
            assert_eq!(armed.diag.inline_steps, 0, "{kind:?}");
            last = Some(inline);
        }
        last.expect("two schedulers ran")
    }

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    #[test]
    fn run_ahead_yields_to_an_event_queued_at_the_same_instant() {
        let run = inline_matches_armed(|inline| Stepper::new(inline, 5), Some(ms(3)), &[ms(60)]);
        assert_eq!(run.steps, [1, 2, 3, 4, 5].map(ms));
        // The message at 3 ms was queued first, so it runs before that step.
        assert_eq!(run.messages_after, [2]);
        assert_eq!(run.refused, [ms(3)]);
        assert_eq!(run.diag.inline_steps, 3);
    }

    #[test]
    fn run_ahead_stops_at_the_run_limit() {
        let limits = [ms(3), SimTime::from_micros(4_500), ms(60)];
        let run = inline_matches_armed(|inline| Stepper::new(inline, 8), None, &limits);
        assert_eq!(run.steps, [1, 2, 3, 4, 5, 6, 7, 8].map(ms));
        // A step at the limit itself runs; one past it waits for the next call.
        assert_eq!(run.refused, [ms(4), ms(5)]);
        assert_eq!(run.diag.inline_steps, 5);
    }

    #[test]
    fn the_event_limit_panics_at_the_same_event_with_run_ahead() {
        let panic_of = |kind, inline| {
            let mut sim = Sim::with_scheduler(0, kind);
            sim.spawn(Box::new(Stepper::new(inline, 1_000)));
            sim.set_event_limit(50);
            let run = std::panic::AssertUnwindSafe(|| sim.run_until(ms(2_000)));
            let payload = std::panic::catch_unwind(run).expect_err("the limit is passed");
            *payload.downcast::<String>().expect("a formatted message")
        };
        for kind in [SchedulerKind::Calendar, SchedulerKind::Reference] {
            let message = panic_of(kind, true);
            assert_eq!(message, panic_of(kind, false), "{kind:?}");
            assert!(
                message.starts_with("event limit 50 exceeded at "),
                "{message}"
            );
        }
    }
}
