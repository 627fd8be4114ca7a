//! # s2g-net — emulated network substrate
//!
//! The Rust stand-in for Mininet in stream2gym-rs. Provides:
//!
//! * [`Topology`] — hosts, switches, and links with the paper's Table I
//!   attributes (`lat`, `bw`, `loss`, `st`, `dt`),
//! * [`Network`] — the live network: proactive shortest-path routing,
//!   FIFO bandwidth shaping, Bernoulli loss, per-port OpenFlow-style
//!   counters, and administrative link/node state,
//! * [`NetTransport`] — the [`s2g_sim::Transport`] adapter,
//! * [`FaultPlan`] / [`FaultInjector`] — scheduled failure injection
//!   (link failures, host disconnections, crashes, gray loss).
//!
//! # Example
//!
//! ```
//! use s2g_net::{LinkSpec, Network, NetTransport, Topology};
//! use s2g_sim::{Sim, SimTime};
//!
//! let topo = Topology::one_big_switch(["h1", "h2"], LinkSpec::new().latency_ms(10))?;
//! let net = Network::new(topo).into_handle();
//! let mut sim = Sim::new(1);
//! sim.set_transport(Box::new(NetTransport(net.clone())));
//! // ... spawn processes, place them with net.borrow_mut().place(pid, node) ...
//! sim.run_until(SimTime::from_secs(1));
//! # Ok::<(), s2g_net::TopologyError>(())
//! ```

#![warn(missing_docs)]

mod faults;
mod network;
mod topology;

pub use faults::{FaultAction, FaultInjector, FaultPlan};
pub use network::{DropCause, Hop, NetHandle, NetTransport, Network, NetworkConfig, PortCounters};
pub use topology::{
    Link, LinkId, LinkSpec, Node, NodeId, NodeKind, PortNo, Topology, TopologyError,
};
