//! Failure injection.
//!
//! The paper's `faultCfg` graph attribute describes reliability tests: link
//! failures, transient failures, and system crashes. [`FaultPlan`] is the
//! schedule of such events, and [`FaultInjector`] is a simulated process that
//! applies them to the live [`Network`] at the right instants (§V-B network
//! partitioning experiment).

use s2g_sim::{Ctx, Message, Process, ProcessId, SimDuration, SimTime};

use crate::network::NetHandle;
use crate::topology::NodeId;

/// One scheduled fault (or repair) action.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Bring the link between two named nodes down.
    LinkDown(String, String),
    /// Bring the link between two named nodes back up.
    LinkUp(String, String),
    /// Disconnect a host: all adjacent links go down (Fig. 6 failure).
    Disconnect(String),
    /// Reconnect a host: all adjacent links come back up.
    Reconnect(String),
    /// Crash a node entirely (it stops sending/receiving/forwarding).
    NodeDown(String),
    /// Restore a crashed node.
    NodeUp(String),
    /// Set the loss percentage of the link between two nodes (gray failure).
    SetLoss(String, String, f64),
    /// Set the one-way latency of the link between two nodes.
    SetLatency(String, String, SimDuration),
    /// Recompute routes (model a control plane reacting to failures).
    RecomputeRoutes,
    /// Kill a named application process (an SPE worker by job name): its
    /// in-memory state, timers, and in-flight messages are lost. Applied by
    /// the scenario orchestrator, which owns the process table — the
    /// network-level [`FaultInjector`] records it without touching links.
    CrashProcess(String),
    /// Respawn a previously crashed process fresh; with checkpointing
    /// enabled it restores the latest snapshot and resumes from committed
    /// offsets.
    RestartProcess(String),
    /// Kill a broker process (by declaration index): its partition logs,
    /// group offsets, roles, timers, and in-flight messages are lost.
    /// Applied by the scenario orchestrator, like [`CrashProcess`].
    ///
    /// [`CrashProcess`]: FaultAction::CrashProcess
    CrashBroker(u32),
    /// Respawn a previously crashed broker with a bumped incarnation; with
    /// a durable broker log attached it replays persisted segments, rebuilds
    /// its high watermarks and consumer-group offsets, and re-registers with
    /// the controller before serving again.
    RestartBroker(u32),
    /// Kill a store-server replica (by flattened replica index across the
    /// scenario's store declarations): its KV blobs, tables, and group
    /// op log are lost with the process. With a replicated store
    /// (`Scenario::with_replicated_store`) the surviving members fail over;
    /// standalone, the durability tier is simply gone. Applied by the
    /// scenario orchestrator, like [`CrashProcess`].
    ///
    /// [`CrashProcess`]: FaultAction::CrashProcess
    CrashStore(u32),
    /// Respawn a previously crashed store replica in a recovering state: it
    /// pulls the op log from a ready group member, applies it, and only
    /// then rejoins (a standalone store restarts empty).
    RestartStore(u32),
}

impl FaultAction {
    /// True for actions that target an application process rather than the
    /// network; these are applied by the scenario orchestrator.
    pub(crate) fn is_process_action(&self) -> bool {
        matches!(
            self,
            FaultAction::CrashProcess(_)
                | FaultAction::RestartProcess(_)
                | FaultAction::CrashBroker(_)
                | FaultAction::RestartBroker(_)
                | FaultAction::CrashStore(_)
                | FaultAction::RestartStore(_)
        )
    }
}

/// A time-ordered schedule of fault actions.
///
/// # Examples
///
/// ```
/// use s2g_net::{FaultAction, FaultPlan};
/// use s2g_sim::{SimDuration, SimTime};
///
/// // The Fig. 6 partition: disconnect h3 at t=180s for 120 seconds.
/// let plan = FaultPlan::new()
///     .at(SimTime::from_secs(180), FaultAction::Disconnect("h3".into()))
///     .at(SimTime::from_secs(300), FaultAction::Reconnect("h3".into()));
/// assert_eq!(plan.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    events: Vec<(SimTime, FaultAction)>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `action` at absolute time `at`. Events are kept sorted by
    /// time regardless of insertion order; same-instant events keep their
    /// insertion order, so `at(t, down).at(t, up)` still means down-then-up.
    pub fn at(mut self, at: SimTime, action: FaultAction) -> Self {
        let idx = self.events.partition_point(|(t, _)| *t <= at);
        self.events.insert(idx, (at, action));
        self
    }

    /// Schedules a transient host disconnection: down at `start`, back up
    /// after `duration`.
    pub fn transient_disconnect(self, host: &str, start: SimTime, duration: SimDuration) -> Self {
        self.at(start, FaultAction::Disconnect(host.into()))
            .at(start + duration, FaultAction::Reconnect(host.into()))
    }

    /// Schedules `n` link flaps of `down_for` each, spaced `period` apart.
    pub fn flapping_link(
        mut self,
        a: &str,
        b: &str,
        first: SimTime,
        down_for: SimDuration,
        period: SimDuration,
        n: usize,
    ) -> Self {
        for i in 0..n {
            let t0 = first + period * i as u64;
            self = self
                .at(t0, FaultAction::LinkDown(a.into(), b.into()))
                .at(t0 + down_for, FaultAction::LinkUp(a.into(), b.into()));
        }
        self
    }

    /// Schedules a process crash at `at`, restarted `down_for` later — the
    /// worker crash/recover scenario in one call.
    pub fn crash_restart(self, process: &str, at: SimTime, down_for: SimDuration) -> Self {
        self.at(at, FaultAction::CrashProcess(process.into()))
            .at(at + down_for, FaultAction::RestartProcess(process.into()))
    }

    /// Schedules a process crash with no restart.
    pub fn crash_process(self, process: &str, at: SimTime) -> Self {
        self.at(at, FaultAction::CrashProcess(process.into()))
    }

    /// Schedules a broker crash (by declaration index) at `at`, restarted
    /// `down_for` later — the broker-bounce scenario in one call.
    ///
    /// # Examples
    ///
    /// ```
    /// use s2g_net::{FaultAction, FaultPlan};
    /// use s2g_sim::{SimDuration, SimTime};
    ///
    /// let plan = FaultPlan::new().crash_restart_broker(
    ///     0,
    ///     SimTime::from_secs(30),
    ///     SimDuration::from_secs(5),
    /// );
    /// assert_eq!(plan.len(), 2);
    /// assert_eq!(plan.events()[0].1, FaultAction::CrashBroker(0));
    /// assert_eq!(plan.events()[1].0, SimTime::from_secs(35));
    /// ```
    pub fn crash_restart_broker(self, broker: u32, at: SimTime, down_for: SimDuration) -> Self {
        self.at(at, FaultAction::CrashBroker(broker))
            .at(at + down_for, FaultAction::RestartBroker(broker))
    }

    /// Schedules a store-replica crash (by flattened replica index) at
    /// `at`, restarted `down_for` later — the store-failover scenario in
    /// one call.
    ///
    /// # Examples
    ///
    /// ```
    /// use s2g_net::{FaultAction, FaultPlan};
    /// use s2g_sim::{SimDuration, SimTime};
    ///
    /// let plan = FaultPlan::new().crash_restart_store(
    ///     0,
    ///     SimTime::from_secs(10),
    ///     SimDuration::from_secs(3),
    /// );
    /// assert_eq!(plan.events()[0].1, FaultAction::CrashStore(0));
    /// assert_eq!(plan.events()[1].0, SimTime::from_secs(13));
    /// ```
    pub fn crash_restart_store(self, replica: u32, at: SimTime, down_for: SimDuration) -> Self {
        self.at(at, FaultAction::CrashStore(replica))
            .at(at + down_for, FaultAction::RestartStore(replica))
    }

    /// Schedules a store-replica crash with no restart.
    pub fn crash_store(self, replica: u32, at: SimTime) -> Self {
        self.at(at, FaultAction::CrashStore(replica))
    }

    /// Number of scheduled actions.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no actions are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled events, in time order (ties keep insertion order).
    pub fn events(&self) -> &[(SimTime, FaultAction)] {
        &self.events
    }

    /// True when the plan contains network-level events that need a
    /// [`FaultInjector`].
    pub fn has_network_events(&self) -> bool {
        self.events.iter().any(|(_, a)| !a.is_process_action())
    }
}

/// A simulated process that applies a [`FaultPlan`] to the network.
///
/// Register it with the simulator and it schedules one timer per action;
/// applied actions are recorded in [`applied`](FaultInjector::applied) for
/// post-run assertions.
pub struct FaultInjector {
    net: NetHandle,
    plan: FaultPlan,
    applied: Vec<(SimTime, FaultAction)>,
}

impl FaultInjector {
    /// Creates an injector over the shared network for `plan`.
    pub fn new(net: NetHandle, plan: FaultPlan) -> Self {
        FaultInjector {
            net,
            plan,
            applied: Vec::new(),
        }
    }

    /// Actions applied so far, with their application times.
    pub fn applied(&self) -> &[(SimTime, FaultAction)] {
        &self.applied
    }

    fn find_link(
        net: &crate::network::Network,
        a: &str,
        b: &str,
    ) -> Option<crate::topology::LinkId> {
        let na = net.topology().lookup(a)?;
        let nb = net.topology().lookup(b)?;
        net.topology()
            .links()
            .find(|(_, l)| (l.a == na && l.b == nb) || (l.a == nb && l.b == na))
            .map(|(id, _)| id)
    }

    fn apply(&mut self, now: SimTime, idx: usize) {
        let action = self.plan.events[idx].1.clone();
        let mut net = self.net.borrow_mut();
        let lookup = |net: &crate::network::Network, n: &str| -> NodeId {
            net.topology()
                .lookup(n)
                .unwrap_or_else(|| panic!("fault references unknown node `{n}`"))
        };
        match &action {
            FaultAction::LinkDown(a, b) => {
                let l = Self::find_link(&net, a, b)
                    .unwrap_or_else(|| panic!("fault references unknown link {a}<->{b}"));
                net.set_link_up(l, false);
            }
            FaultAction::LinkUp(a, b) => {
                let l = Self::find_link(&net, a, b)
                    .unwrap_or_else(|| panic!("fault references unknown link {a}<->{b}"));
                net.set_link_up(l, true);
            }
            FaultAction::Disconnect(h) => {
                let n = lookup(&net, h);
                net.disconnect_host(n);
            }
            FaultAction::Reconnect(h) => {
                let n = lookup(&net, h);
                net.reconnect_host(n);
            }
            FaultAction::NodeDown(h) => {
                let n = lookup(&net, h);
                net.set_node_up(n, false);
            }
            FaultAction::NodeUp(h) => {
                let n = lookup(&net, h);
                net.set_node_up(n, true);
            }
            FaultAction::SetLoss(a, b, pct) => {
                let l = Self::find_link(&net, a, b)
                    .unwrap_or_else(|| panic!("fault references unknown link {a}<->{b}"));
                net.set_link_loss(l, *pct);
            }
            FaultAction::SetLatency(a, b, d) => {
                let l = Self::find_link(&net, a, b)
                    .unwrap_or_else(|| panic!("fault references unknown link {a}<->{b}"));
                net.set_link_latency(l, *d);
            }
            FaultAction::RecomputeRoutes => net.recompute_routes(),
            // Process-level actions are the scenario orchestrator's job (it
            // owns the simulator's process table); the network injector just
            // records them for the applied-actions log.
            FaultAction::CrashProcess(_)
            | FaultAction::RestartProcess(_)
            | FaultAction::CrashBroker(_)
            | FaultAction::RestartBroker(_)
            | FaultAction::CrashStore(_)
            | FaultAction::RestartStore(_) => {}
        }
        drop(net);
        self.applied.push((now, action));
    }
}

impl Process for FaultInjector {
    fn name(&self) -> &str {
        "fault-injector"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (i, (at, _)) in self.plan.events.iter().enumerate() {
            ctx.set_timer_at(*at, i as u64);
        }
    }

    fn on_message(&mut self, _: &mut Ctx<'_>, _: ProcessId, _: Box<dyn Message>) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        let now = ctx.now();
        self.apply(now, tag as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{NetTransport, Network};
    use crate::topology::{LinkSpec, Topology};
    use s2g_sim::Sim;

    fn star3() -> NetHandle {
        Network::new(Topology::star(3, LinkSpec::new()).unwrap()).into_handle()
    }

    #[test]
    fn plan_builders() {
        let plan = FaultPlan::new()
            .transient_disconnect("h1", SimTime::from_secs(10), SimDuration::from_secs(5))
            .flapping_link(
                "h2",
                "s1",
                SimTime::from_secs(20),
                SimDuration::from_secs(1),
                SimDuration::from_secs(4),
                2,
            );
        assert_eq!(plan.len(), 6);
        assert_eq!(plan.events()[0].0, SimTime::from_secs(10));
        assert_eq!(plan.events()[1].0, SimTime::from_secs(15));
    }

    #[test]
    fn events_sorted_by_time_across_interleaved_builders() {
        // Insert out of order on purpose: a late `at()`, then a flapping
        // link whose windows straddle it, then an early `at()`.
        let plan = FaultPlan::new()
            .at(SimTime::from_secs(30), FaultAction::Disconnect("h1".into()))
            .flapping_link(
                "h2",
                "s1",
                SimTime::from_secs(10),
                SimDuration::from_secs(5),
                SimDuration::from_secs(20),
                2,
            )
            .at(SimTime::from_secs(1), FaultAction::RecomputeRoutes);
        let times: Vec<u64> = plan.events().iter().map(|(t, _)| t.as_secs()).collect();
        assert_eq!(times, vec![1, 10, 15, 30, 30, 35]);
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "events() must be time-ordered");
        // Same-instant events keep insertion order: the Disconnect at t=30
        // was inserted before the flap's second LinkDown at t=30.
        assert!(matches!(plan.events()[3].1, FaultAction::Disconnect(_)));
        assert!(matches!(plan.events()[4].1, FaultAction::LinkDown(_, _)));
    }

    #[test]
    fn process_events_are_split_from_network_events() {
        let plan = FaultPlan::new()
            .crash_restart("job1", SimTime::from_secs(10), SimDuration::from_secs(5))
            .at(SimTime::from_secs(2), FaultAction::Disconnect("h1".into()));
        let process = plan.events().iter().filter(|(_, a)| a.is_process_action());
        assert_eq!(process.count(), 2);
        assert!(plan.has_network_events());
        let only_process = FaultPlan::new().crash_process("job1", SimTime::from_secs(1));
        assert!(!only_process.has_network_events());
        assert!(only_process.events()[0].1.is_process_action());
    }

    #[test]
    fn injector_records_process_actions_without_touching_links() {
        let net = star3();
        let plan = FaultPlan::new().crash_restart(
            "job1",
            SimTime::from_secs(1),
            SimDuration::from_secs(1),
        );
        let mut sim = Sim::new(0);
        let inj = sim.spawn(Box::new(FaultInjector::new(net.clone(), plan)));
        sim.run_until(SimTime::from_secs(3));
        let inj = sim.process_ref::<FaultInjector>(inj).unwrap();
        assert_eq!(inj.applied().len(), 2);
        let n = net.borrow();
        for (l, _) in n.topology().links() {
            assert!(n.link_up(l), "process faults must not touch links");
        }
    }

    #[test]
    fn injector_applies_disconnect_and_reconnect() {
        let net = star3();
        let plan = FaultPlan::new().transient_disconnect(
            "h1",
            SimTime::from_secs(1),
            SimDuration::from_secs(2),
        );
        let mut sim = Sim::new(0);
        sim.set_transport(Box::new(NetTransport(net.clone())));
        let inj = sim.spawn(Box::new(FaultInjector::new(net.clone(), plan)));
        sim.run_until(SimTime::from_millis(1_500));
        {
            let n = net.borrow();
            let h1 = n.topology().lookup("h1").unwrap();
            let l = n.topology().adjacent(h1)[0];
            assert!(!n.link_up(l), "down during window");
        }
        sim.run_until(SimTime::from_secs(4));
        {
            let n = net.borrow();
            let h1 = n.topology().lookup("h1").unwrap();
            let l = n.topology().adjacent(h1)[0];
            assert!(n.link_up(l), "restored after window");
        }
        let inj = sim.process_ref::<FaultInjector>(inj).unwrap();
        assert_eq!(inj.applied().len(), 2);
    }

    #[test]
    fn injector_sets_loss_and_latency() {
        let net = star3();
        let plan = FaultPlan::new()
            .at(
                SimTime::from_secs(1),
                FaultAction::SetLoss("h1".into(), "s1".into(), 25.0),
            )
            .at(
                SimTime::from_secs(1),
                FaultAction::SetLatency("h2".into(), "s1".into(), SimDuration::from_millis(99)),
            );
        let mut sim = Sim::new(0);
        sim.spawn(Box::new(FaultInjector::new(net.clone(), plan)));
        sim.run_until(SimTime::from_secs(2));
        let n = net.borrow();
        let h1 = n.topology().lookup("h1").unwrap();
        let h2 = n.topology().lookup("h2").unwrap();
        let l1 = n.topology().adjacent(h1)[0];
        let l2 = n.topology().adjacent(h2)[0];
        assert!((n.topology().link(l1).spec.loss_pct - 25.0).abs() < 1e-9);
        assert_eq!(n.topology().link(l2).spec.latency.as_millis(), 99);
    }

    #[test]
    fn injector_crashes_nodes() {
        let net = star3();
        let plan = FaultPlan::new()
            .at(SimTime::from_secs(1), FaultAction::NodeDown("h2".into()))
            .at(SimTime::from_secs(3), FaultAction::NodeUp("h2".into()));
        let mut sim = Sim::new(0);
        sim.spawn(Box::new(FaultInjector::new(net.clone(), plan)));
        sim.run_until(SimTime::from_secs(2));
        {
            let n = net.borrow();
            let h2 = n.topology().lookup("h2").unwrap();
            assert!(!n.node_up(h2));
        }
        sim.run_until(SimTime::from_secs(4));
        let n = net.borrow();
        let h2 = n.topology().lookup("h2").unwrap();
        assert!(n.node_up(h2));
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn unknown_node_in_plan_panics() {
        let net = star3();
        let plan = FaultPlan::new().at(SimTime::from_secs(1), FaultAction::Disconnect("zz".into()));
        let mut sim = Sim::new(0);
        sim.spawn(Box::new(FaultInjector::new(net, plan)));
        sim.run_until(SimTime::from_secs(2));
    }
}
