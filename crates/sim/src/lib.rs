//! # s2g-sim — deterministic discrete-event kernel
//!
//! The foundation of stream2gym-rs. The original stream2gym runs real
//! processes inside Mininet network namespaces; this crate provides the
//! equivalent substrate as a deterministic discrete-event simulation:
//!
//! * [`SimTime`] / [`SimDuration`] — virtual nanosecond clock,
//! * [`Process`] — event-driven application components (brokers, producers,
//!   consumers, stream processors, monitors),
//! * [`Sim`] — the scheduler, with a seeded RNG and a total event order,
//! * [`Transport`] — pluggable message routing (the `s2g-net` crate installs
//!   the emulated network here),
//! * [`HostCpu`] — a multi-core CPU model so co-located components contend
//!   for cycles exactly like they do on stream2gym's single server,
//! * [`Waiters`] — the one queue a server holds requests in until their
//!   answer can change,
//! * [`Quorum`] — one replicated log that followers pull, with Raft's
//!   leader election (term, one vote per term, log freshness, randomized
//!   deadline), for every group that elects by vote.
//!
//! # Example
//!
//! ```
//! use s2g_sim::{Ctx, Message, Process, ProcessId, Sim, SimDuration, SimTime};
//!
//! #[derive(Debug)]
//! struct Hello;
//! impl Message for Hello {}
//!
//! struct Greeter { greeted: bool }
//! impl Process for Greeter {
//!     fn name(&self) -> &str { "greeter" }
//!     fn on_message(&mut self, _ctx: &mut Ctx<'_>, _from: ProcessId, _msg: Box<dyn Message>) {
//!         self.greeted = true;
//!     }
//! }
//!
//! let mut sim = Sim::new(7);
//! let pid = sim.spawn(Box::new(Greeter { greeted: false }));
//! sim.inject_at(SimTime::from_millis(5), pid, Hello);
//! sim.run_until(SimTime::from_secs(1));
//! assert!(sim.process_ref::<Greeter>(pid).unwrap().greeted);
//! ```

#![warn(missing_docs)]

mod cpu;
mod process;
pub(crate) mod queue;
mod quorum;
mod resources;
mod sched;
mod time;
mod waiters;

pub use cpu::{CpuHandle, HostCpu};
pub use process::{downcast, downcast_ref, Message, Process, ProcessId, TimerToken};
pub use quorum::{Answer, Entry, Fetch, Owner, Quorum, QuorumRpc, Taken};
pub use resources::{LedgerHandle, MemLedger, MemSlot};
pub use sched::{
    corr_incarnation, Ctx, Delivery, InstantTransport, QueueDiag, SchedulerKind, Sim, SimStats,
    Transport,
};
pub use time::{SimDuration, SimTime};
pub use waiters::Waiters;
