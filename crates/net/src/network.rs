//! The live emulated network: routing, shaping, counters, placement.
//!
//! [`Network`] is built from a [`Topology`] and installed into the simulator
//! as its [`Transport`]. Every message a process sends is routed along a
//! proactively computed path (like stream2gym's `ovs-ofctl`-programmed
//! switches), charged against link bandwidth with FIFO queuing, delayed by
//! propagation and switch forwarding, possibly dropped by loss or downed
//! links, and accounted in per-port counters (the OpenFlow-statistics
//! equivalent used for the paper's bandwidth plots).

use std::cell::RefCell;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::Rng;

use s2g_sim::{Delivery, ProcessId, SimDuration, SimTime, Transport};

use crate::topology::{LinkId, NodeId, NodeKind, PortNo, Topology};

/// Why a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropCause {
    /// Bernoulli loss on a link (the `loss` attribute, or gray failure).
    Loss,
    /// A link on the path was administratively down.
    LinkDown,
    /// The source or destination node was down.
    NodeDown,
    /// No path existed between the endpoints.
    NoRoute,
    /// The sender or receiver process has no placement.
    Unplaced,
}

const DROP_CAUSES: usize = DropCause::Unplaced as usize + 1;

/// Cumulative traffic counters for one port, mirroring OpenFlow port stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortCounters {
    /// Bytes transmitted out of this port.
    pub tx_bytes: u64,
    /// Bytes received into this port.
    pub rx_bytes: u64,
    /// Packets transmitted.
    pub tx_packets: u64,
    /// Packets received.
    pub rx_packets: u64,
}

#[derive(Debug, Clone, Copy)]
struct LinkRuntime {
    up: bool,
    /// Next instant the a→b direction is free to start serializing.
    next_free_ab: SimTime,
    /// Next instant the b→a direction is free.
    next_free_ba: SimTime,
    /// Counters of the link's two ports: `[port_a on a, port_b on b]`.
    ports: [PortCounters; 2],
}

/// One hop of a precomputed path: the link and the traversal direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Which link is traversed.
    pub link: LinkId,
    /// True when traversing from endpoint `a` to endpoint `b`.
    pub a_to_b: bool,
}

/// Tuning knobs distinguishing emulation from hardware backends (Fig. 8).
#[derive(Debug, Clone, Copy)]
pub struct NetworkConfig {
    /// Per-switch forwarding delay. Software switches (OVS) are an order of
    /// magnitude slower than hardware ASICs (§VII of the paper).
    pub switch_forward_delay: SimDuration,
    /// Delay for loopback delivery between co-located processes.
    pub loopback_delay: SimDuration,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            // ~50 µs models an OVS software switch under emulation load.
            switch_forward_delay: SimDuration::from_micros(50),
            loopback_delay: SimDuration::from_micros(20),
        }
    }
}

impl NetworkConfig {
    /// The configuration used for the "hardware testbed" comparison backend:
    /// ASIC-speed switching and kernel-bypass loopback.
    pub fn hardware() -> Self {
        NetworkConfig {
            switch_forward_delay: SimDuration::from_nanos(800),
            loopback_delay: SimDuration::from_micros(5),
        }
    }
}

/// A shared, interior-mutable handle to a [`Network`].
pub type NetHandle = Rc<RefCell<Network>>;

/// The emulated network state.
pub struct Network {
    topo: Topology,
    cfg: NetworkConfig,
    links: Vec<LinkRuntime>,
    node_up: Vec<bool>,
    /// Every route's hops, back to back.
    hops: Vec<Hop>,
    /// `routes[src * nodes + dst]` — where in `hops` that route's hop list
    /// lies (start and end), or `None` if unreachable. Routing a packet
    /// indexes the list in place.
    routes: Vec<Option<(usize, usize)>>,
    /// The host of each process, by `ProcessId::index()`.
    placement: Vec<Option<NodeId>>,
    node_tx_bytes: Vec<u64>,
    node_rx_bytes: Vec<u64>,
    /// Drop counts, by `DropCause as usize`.
    drops: [u64; DROP_CAUSES],
    delivered_packets: u64,
}

impl Network {
    /// Builds a network over `topo` with default configuration and computes
    /// routes proactively.
    pub fn new(topo: Topology) -> Self {
        Self::with_config(topo, NetworkConfig::default())
    }

    /// Builds a network with an explicit configuration.
    pub fn with_config(topo: Topology, cfg: NetworkConfig) -> Self {
        let n = topo.node_count();
        let links = vec![
            LinkRuntime {
                up: true,
                next_free_ab: SimTime::ZERO,
                next_free_ba: SimTime::ZERO,
                ports: [PortCounters::default(); 2],
            };
            topo.link_count()
        ];
        let mut net = Network {
            topo,
            cfg,
            links,
            node_up: vec![true; n],
            hops: Vec::new(),
            routes: Vec::new(),
            placement: Vec::new(),
            node_tx_bytes: vec![0; n],
            node_rx_bytes: vec![0; n],
            drops: [0; DROP_CAUSES],
            delivered_packets: 0,
        };
        net.recompute_routes();
        net
    }

    /// Wraps the network in a shared handle.
    pub fn into_handle(self) -> NetHandle {
        Rc::new(RefCell::new(self))
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The active configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// Places a process on a host. Multiple processes may share a host
    /// (co-location, as in the Fig. 6a setup where each site runs a broker,
    /// a producer and a consumer).
    ///
    /// # Panics
    ///
    /// Panics if `node` is a switch.
    pub fn place(&mut self, pid: ProcessId, node: NodeId) {
        assert_eq!(
            self.topo.node(node).kind,
            NodeKind::Host,
            "processes can only be placed on hosts, {} is a switch",
            self.topo.node(node).name
        );
        if self.placement.len() <= pid.index() {
            self.placement.resize(pid.index() + 1, None);
        }
        self.placement[pid.index()] = Some(node);
    }

    /// The host a process is placed on, if any.
    pub fn placement(&self, pid: ProcessId) -> Option<NodeId> {
        self.placement.get(pid.index()).copied().flatten()
    }

    /// Recomputes all-pairs routes over currently-up links using the
    /// configured metric. Stream2gym programs routes proactively; call this
    /// after topology-affecting faults only if re-routing is desired.
    pub fn recompute_routes(&mut self) {
        let n = self.topo.node_count();
        let mut hops = Vec::new();
        let mut routes = Vec::with_capacity(n * n);
        for src in 0..n {
            self.dijkstra(NodeId(src as u32), &mut hops, &mut routes);
        }
        self.hops = hops;
        self.routes = routes;
    }

    /// Appends `src`'s row of routes to `routes`, their hops to `hops`.
    fn dijkstra(&self, src: NodeId, hops: &mut Vec<Hop>, routes: &mut Vec<Option<(usize, usize)>>) {
        let n = self.topo.node_count();
        // cost = (summed link latency, hop count): hops break latency ties.
        let mut dist: Vec<Option<(u128, u128)>> = vec![None; n];
        let mut prev: Vec<Option<(NodeId, Hop)>> = vec![None; n];
        let mut visited = vec![false; n];
        dist[src.index()] = Some((0, 0));
        // Adjacency once.
        let mut adj: Vec<Vec<(NodeId, Hop, u64)>> = vec![Vec::new(); n];
        for (lid, link) in self.topo.links() {
            if !self.links[lid.index()].up {
                continue;
            }
            if !self.node_up[link.a.index()] || !self.node_up[link.b.index()] {
                continue;
            }
            let lat = link.spec.latency.as_nanos();
            adj[link.a.index()].push((
                link.b,
                Hop {
                    link: lid,
                    a_to_b: true,
                },
                lat,
            ));
            adj[link.b.index()].push((
                link.a,
                Hop {
                    link: lid,
                    a_to_b: false,
                },
                lat,
            ));
        }
        for _ in 0..n {
            // Pick unvisited node with least cost (n is small; O(n^2) fine).
            let mut best: Option<(usize, (u128, u128))> = None;
            for (i, d) in dist.iter().enumerate() {
                if visited[i] {
                    continue;
                }
                if let Some(d) = d {
                    if best.is_none_or(|(_, bd)| *d < bd) {
                        best = Some((i, *d));
                    }
                }
            }
            let (u, du) = match best {
                Some(x) => x,
                None => break,
            };
            visited[u] = true;
            for &(v, hop, lat) in &adj[u] {
                let cand = (du.0 + lat as u128, du.1 + 1);
                let better = match dist[v.index()] {
                    None => true,
                    Some(dv) => cand < dv,
                };
                if better && !visited[v.index()] {
                    dist[v.index()] = Some(cand);
                    prev[v.index()] = Some((NodeId(u as u32), hop));
                }
            }
        }
        // Reconstruct paths: walk back from the destination, then turn
        // the hops just written around. A node's route to itself is empty.
        for (dst, reachable) in dist.iter().enumerate() {
            let start = hops.len();
            let mut cur = dst;
            while reachable.is_some() && cur != src.index() {
                let (p, hop) = prev[cur].expect("reachable node has predecessor");
                hops.push(hop);
                cur = p.index();
            }
            hops[start..].reverse();
            routes.push(reachable.map(|_| (start, hops.len())));
        }
    }

    fn route(&self, src: NodeId, dst: NodeId) -> Option<(usize, usize)> {
        self.routes[src.index() * self.topo.node_count() + dst.index()]
    }

    /// The current route between two nodes, if any.
    pub fn route_between(&self, src: NodeId, dst: NodeId) -> Option<&[Hop]> {
        self.route(src, dst)
            .map(|(start, end)| &self.hops[start..end])
    }

    /// Marks a link up or down. Packets crossing a down link are dropped —
    /// routes are *not* recomputed automatically (proactive routing).
    pub fn set_link_up(&mut self, link: LinkId, up: bool) {
        self.links[link.index()].up = up;
    }

    /// Whether a link is currently up.
    pub fn link_up(&self, link: LinkId) -> bool {
        self.links[link.index()].up
    }

    /// Marks a node up or down. A down node neither sends, receives, nor
    /// forwards.
    pub fn set_node_up(&mut self, node: NodeId, up: bool) {
        self.node_up[node.index()] = up;
    }

    /// Whether a node is currently up.
    pub fn node_up(&self, node: NodeId) -> bool {
        self.node_up[node.index()]
    }

    /// Disconnects a host: all adjacent links go down (the Fig. 6 failure).
    pub fn disconnect_host(&mut self, node: NodeId) {
        for l in self.topo.adjacent(node) {
            self.set_link_up(l, false);
        }
    }

    /// Reconnects a host: all adjacent links come back up.
    pub fn reconnect_host(&mut self, node: NodeId) {
        for l in self.topo.adjacent(node) {
            self.set_link_up(l, true);
        }
    }

    /// Retunes a link's one-way latency (dynamic operating conditions).
    pub fn set_link_latency(&mut self, link: LinkId, lat: SimDuration) {
        self.topo.link_mut(link).spec.latency = lat;
    }

    /// Retunes a link's loss percentage (gray failures, congestion).
    ///
    /// # Panics
    ///
    /// Panics if `pct` is outside `0.0..=100.0`.
    pub fn set_link_loss(&mut self, link: LinkId, pct: f64) {
        assert!(
            (0.0..=100.0).contains(&pct),
            "loss must be in 0..=100, got {pct}"
        );
        self.topo.link_mut(link).spec.loss_pct = pct;
    }

    /// Port counters for `(node, port)`; zeros if nothing has flowed. The
    /// counters live with the links (the packet path indexes them by hop),
    /// so this resolves the port to its link — to every link wired to it,
    /// when explicit `src_port`/`dst_port` numbers put several on one port.
    pub fn port_counters(&self, node: NodeId, port: PortNo) -> PortCounters {
        let mut sum = PortCounters::default();
        for (lid, l) in self.topo.links() {
            let ports = &self.links[lid.index()].ports;
            for (end, c) in [(l.a, l.port_a), (l.b, l.port_b)].into_iter().zip(ports) {
                if end == (node, port) {
                    sum.tx_bytes += c.tx_bytes;
                    sum.rx_bytes += c.rx_bytes;
                    sum.tx_packets += c.tx_packets;
                    sum.rx_packets += c.rx_packets;
                }
            }
        }
        sum
    }

    /// Total bytes transmitted by a node across all its ports.
    pub fn node_tx_bytes(&self, node: NodeId) -> u64 {
        self.node_tx_bytes[node.index()]
    }

    /// Total bytes received by a node across all its ports.
    pub fn node_rx_bytes(&self, node: NodeId) -> u64 {
        self.node_rx_bytes[node.index()]
    }

    /// Packets delivered end-to-end.
    pub fn delivered_packets(&self) -> u64 {
        self.delivered_packets
    }

    /// Drop count for a cause.
    pub fn drops(&self, cause: DropCause) -> u64 {
        self.drops[cause as usize]
    }

    fn record_drop(&mut self, cause: DropCause) -> Delivery {
        self.drops[cause as usize] += 1;
        Delivery::Drop
    }

    /// Routes one packet; the core of the [`Transport`] implementation.
    pub fn route_packet(
        &mut self,
        now: SimTime,
        rng: &mut StdRng,
        from: ProcessId,
        to: ProcessId,
        bytes: usize,
    ) -> Delivery {
        let (src, dst) = match (self.placement(from), self.placement(to)) {
            (Some(s), Some(d)) => (s, d),
            _ => return self.record_drop(DropCause::Unplaced),
        };
        if !self.node_up[src.index()] || !self.node_up[dst.index()] {
            return self.record_drop(DropCause::NodeDown);
        }
        if src == dst {
            return Delivery::After(self.cfg.loopback_delay);
        }
        let Some((start, end)) = self.route(src, dst) else {
            return self.record_drop(DropCause::NoRoute);
        };
        // Check the whole path first: a down link or node anywhere blackholes
        // the packet (proactive routes are not patched around failures).
        for at in start..end {
            let hop = self.hops[at];
            if !self.links[hop.link.index()].up {
                return self.record_drop(DropCause::LinkDown);
            }
            let l = self.topo.link(hop.link);
            let (next, _) = if hop.a_to_b { (l.b, l.a) } else { (l.a, l.b) };
            if !self.node_up[next.index()] {
                return self.record_drop(DropCause::NodeDown);
            }
        }
        // Bernoulli loss per link.
        for at in start..end {
            let hop = self.hops[at];
            let loss = self.topo.link(hop.link).spec.loss_pct;
            if loss > 0.0 && rng.gen::<f64>() * 100.0 < loss {
                return self.record_drop(DropCause::Loss);
            }
        }
        // Accumulate delay hop by hop with FIFO queuing per direction.
        let mut cursor = now;
        let mut switch_hops = 0u32;
        for at in start..end {
            let hop = self.hops[at];
            let l = self.topo.link(hop.link);
            let ser = match l.spec.bandwidth_bps {
                Some(bw) => SimDuration::from_nanos(
                    ((bytes as u128 * 8 * 1_000_000_000) / bw as u128) as u64,
                ),
                None => SimDuration::ZERO,
            };
            let rt = &mut self.links[hop.link.index()];
            let next_free = if hop.a_to_b {
                &mut rt.next_free_ab
            } else {
                &mut rt.next_free_ba
            };
            let depart = (*next_free).max(cursor);
            *next_free = depart + ser;
            cursor = depart + ser + l.spec.latency;
            // Port accounting: the sending end's port transmits, the
            // other end's receives.
            let (tx_node, rx_node) = if hop.a_to_b { (l.a, l.b) } else { (l.b, l.a) };
            let tx_end = usize::from(!hop.a_to_b);
            rt.ports[tx_end].tx_bytes += bytes as u64;
            rt.ports[tx_end].tx_packets += 1;
            rt.ports[1 - tx_end].rx_bytes += bytes as u64;
            rt.ports[1 - tx_end].rx_packets += 1;
            self.node_tx_bytes[tx_node.index()] += bytes as u64;
            self.node_rx_bytes[rx_node.index()] += bytes as u64;
            // Intermediate nodes on the path are switches that add
            // forwarding delay (the final hop's receiver is the host).
            if self.topo.node(rx_node).kind == NodeKind::Switch {
                switch_hops += 1;
            }
        }
        cursor += self.cfg.switch_forward_delay * switch_hops as u64;
        Delivery::After(cursor - now)
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("nodes", &self.topo.node_count())
            .field("links", &self.topo.link_count())
            .field("placed", &self.placement.iter().flatten().count())
            .field("delivered", &self.delivered_packets)
            .finish()
    }
}

/// Adapter installing a shared [`Network`] as the simulator transport.
#[derive(Debug, Clone)]
pub struct NetTransport(pub NetHandle);

impl Transport for NetTransport {
    fn route(
        &mut self,
        now: SimTime,
        rng: &mut StdRng,
        from: ProcessId,
        to: ProcessId,
        bytes: usize,
    ) -> Delivery {
        let mut net = self.0.borrow_mut();
        let d = net.route_packet(now, rng, from, to, bytes);
        if matches!(d, Delivery::After(_)) {
            net.delivered_packets += 1;
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkSpec;
    use rand::SeedableRng;

    fn two_host_net(spec: LinkSpec) -> (Network, ProcessId, ProcessId) {
        let mut topo = Topology::new();
        topo.add_host("h1").unwrap();
        topo.add_host("h2").unwrap();
        topo.add_switch("s1").unwrap();
        topo.add_link("h1", "s1", spec).unwrap();
        topo.add_link("s1", "h2", spec).unwrap();
        let mut net = Network::new(topo);
        let p1 = ProcessId(0);
        let p2 = ProcessId(1);
        let h1 = net.topology().lookup("h1").unwrap();
        let h2 = net.topology().lookup("h2").unwrap();
        net.place(p1, h1);
        net.place(p2, h2);
        (net, p1, p2)
    }

    #[test]
    fn latency_accumulates_over_path() {
        let (mut net, p1, p2) = two_host_net(LinkSpec::new().latency_ms(10));
        let mut rng = StdRng::seed_from_u64(0);
        match net.route_packet(SimTime::ZERO, &mut rng, p1, p2, 100) {
            Delivery::After(d) => {
                // 2 links × 10ms + 1 switch hop forwarding delay.
                let expect =
                    SimDuration::from_millis(20) + NetworkConfig::default().switch_forward_delay;
                assert_eq!(d, expect);
            }
            Delivery::Drop => panic!("should deliver"),
        }
    }

    #[test]
    fn loopback_for_colocated() {
        let mut topo = Topology::new();
        topo.add_host("h1").unwrap();
        let mut net = Network::new(topo);
        let h1 = net.topology().lookup("h1").unwrap();
        net.place(ProcessId(0), h1);
        net.place(ProcessId(1), h1);
        let mut rng = StdRng::seed_from_u64(0);
        match net.route_packet(SimTime::ZERO, &mut rng, ProcessId(0), ProcessId(1), 10) {
            Delivery::After(d) => assert_eq!(d, NetworkConfig::default().loopback_delay),
            Delivery::Drop => panic!("loopback must deliver"),
        }
    }

    #[test]
    fn bandwidth_serializes_back_to_back_packets() {
        // 1 Mbps link: a 125-byte packet takes exactly 1 ms to serialize.
        let (mut net, p1, p2) = two_host_net(
            LinkSpec::new()
                .latency(SimDuration::ZERO)
                .bandwidth_mbps(1.0),
        );
        let mut rng = StdRng::seed_from_u64(0);
        let d1 = match net.route_packet(SimTime::ZERO, &mut rng, p1, p2, 125) {
            Delivery::After(d) => d,
            _ => panic!(),
        };
        let d2 = match net.route_packet(SimTime::ZERO, &mut rng, p1, p2, 125) {
            Delivery::After(d) => d,
            _ => panic!(),
        };
        // Second packet queues behind the first on both links.
        assert!(d2 > d1, "second packet must queue: {d2} vs {d1}");
        assert_eq!(d2.as_millis() - d1.as_millis(), 1);
    }

    #[test]
    fn full_loss_drops_everything() {
        let (mut net, p1, p2) = two_host_net(LinkSpec::new().loss_pct(100.0));
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(
                net.route_packet(SimTime::ZERO, &mut rng, p1, p2, 10),
                Delivery::Drop
            );
        }
        assert_eq!(net.drops(DropCause::Loss), 10);
    }

    #[test]
    fn partial_loss_roughly_matches_rate() {
        let (mut net, p1, p2) = two_host_net(LinkSpec::new().loss_pct(10.0));
        let mut rng = StdRng::seed_from_u64(42);
        let mut dropped = 0;
        let n = 10_000;
        for _ in 0..n {
            if net.route_packet(SimTime::ZERO, &mut rng, p1, p2, 10) == Delivery::Drop {
                dropped += 1;
            }
        }
        // Two 10%-lossy links ≈ 19% path loss; accept 16..22%.
        let rate = dropped as f64 / n as f64;
        assert!((0.16..0.22).contains(&rate), "loss rate {rate}");
    }

    #[test]
    fn link_down_blackholes() {
        let (mut net, p1, p2) = two_host_net(LinkSpec::new());
        let mut rng = StdRng::seed_from_u64(0);
        net.set_link_up(LinkId(0), false);
        assert_eq!(
            net.route_packet(SimTime::ZERO, &mut rng, p1, p2, 10),
            Delivery::Drop
        );
        assert_eq!(net.drops(DropCause::LinkDown), 1);
        net.set_link_up(LinkId(0), true);
        assert!(matches!(
            net.route_packet(SimTime::ZERO, &mut rng, p1, p2, 10),
            Delivery::After(_)
        ));
    }

    #[test]
    fn node_down_blocks_endpoints() {
        let (mut net, p1, p2) = two_host_net(LinkSpec::new());
        let mut rng = StdRng::seed_from_u64(0);
        let h2 = net.topology().lookup("h2").unwrap();
        net.set_node_up(h2, false);
        assert_eq!(
            net.route_packet(SimTime::ZERO, &mut rng, p1, p2, 10),
            Delivery::Drop
        );
        assert_eq!(net.drops(DropCause::NodeDown), 1);
    }

    #[test]
    fn disconnect_host_downs_adjacent_links() {
        let (mut net, p1, p2) = two_host_net(LinkSpec::new());
        let mut rng = StdRng::seed_from_u64(0);
        let h1 = net.topology().lookup("h1").unwrap();
        net.disconnect_host(h1);
        assert_eq!(
            net.route_packet(SimTime::ZERO, &mut rng, p1, p2, 10),
            Delivery::Drop
        );
        net.reconnect_host(h1);
        assert!(matches!(
            net.route_packet(SimTime::ZERO, &mut rng, p1, p2, 10),
            Delivery::After(_)
        ));
    }

    #[test]
    fn counters_track_both_directions() {
        let (mut net, p1, p2) = two_host_net(LinkSpec::new());
        let mut rng = StdRng::seed_from_u64(0);
        net.route_packet(SimTime::ZERO, &mut rng, p1, p2, 500)
            .unwrap_delivery();
        let h1 = net.topology().lookup("h1").unwrap();
        let s1 = net.topology().lookup("s1").unwrap();
        let h2 = net.topology().lookup("h2").unwrap();
        assert_eq!(net.node_tx_bytes(h1), 500);
        assert_eq!(net.node_rx_bytes(h2), 500);
        // The switch both received and retransmitted the packet.
        assert_eq!(net.node_tx_bytes(s1), 500);
        assert_eq!(net.node_rx_bytes(s1), 500);
        let pc = net.port_counters(h1, PortNo(1));
        assert_eq!(pc.tx_bytes, 500);
        assert_eq!(pc.tx_packets, 1);
    }

    trait UnwrapDelivery {
        fn unwrap_delivery(self) -> SimDuration;
    }
    impl UnwrapDelivery for Delivery {
        fn unwrap_delivery(self) -> SimDuration {
            match self {
                Delivery::After(d) => d,
                Delivery::Drop => panic!("expected delivery"),
            }
        }
    }

    #[test]
    fn recompute_routes_after_failure_heals_path() {
        let mut topo = Topology::new();
        topo.add_host("h1").unwrap();
        topo.add_host("h2").unwrap();
        topo.add_switch("s1").unwrap();
        topo.add_switch("s2").unwrap();
        let fast = topo
            .add_link("h1", "s1", LinkSpec::new().latency_ms(1))
            .unwrap();
        topo.add_link("s1", "h2", LinkSpec::new().latency_ms(1))
            .unwrap();
        topo.add_link("h1", "s2", LinkSpec::new().latency_ms(5))
            .unwrap();
        topo.add_link("s2", "h2", LinkSpec::new().latency_ms(5))
            .unwrap();
        topo.add_link("h1", "h2", LinkSpec::new().latency_ms(10))
            .unwrap();
        let mut net = Network::new(topo);
        let h1 = net.topology().lookup("h1").unwrap();
        let h2 = net.topology().lookup("h2").unwrap();
        net.place(ProcessId(0), h1);
        net.place(ProcessId(1), h2);
        let mut rng = StdRng::seed_from_u64(0);
        // Fast path via s1 in use: latency decides before hop count, so its
        // two hops at 2 ms beat the direct link's one at 10 ms.
        assert_eq!(net.route_between(h1, h2).unwrap().len(), 2);
        let d = net.route_packet(SimTime::ZERO, &mut rng, ProcessId(0), ProcessId(1), 10);
        assert!(matches!(d, Delivery::After(x) if x.as_millis() < 5));
        // Down the fast link: blackhole until routes are recomputed.
        net.set_link_up(fast, false);
        assert_eq!(
            net.route_packet(SimTime::ZERO, &mut rng, ProcessId(0), ProcessId(1), 10),
            Delivery::Drop
        );
        net.recompute_routes();
        // What is left ties at 10 ms: the fewer hops of the direct link win.
        assert_eq!(net.route_between(h1, h2).unwrap().len(), 1);
        let d = net.route_packet(SimTime::ZERO, &mut rng, ProcessId(0), ProcessId(1), 10);
        assert!(matches!(d, Delivery::After(x) if x.as_millis() >= 10));
    }

    #[test]
    fn unplaced_process_drops() {
        let (mut net, p1, _) = two_host_net(LinkSpec::new());
        let mut rng = StdRng::seed_from_u64(0);
        // Beyond any placed pid.
        assert_eq!(
            net.route_packet(SimTime::ZERO, &mut rng, p1, ProcessId(99), 10),
            Delivery::Drop
        );
        assert_eq!(net.drops(DropCause::Unplaced), 1);
        // A gap below a placed pid: placing 5 leaves 2..5 unplaced.
        let h1 = net.topology().lookup("h1").unwrap();
        net.place(ProcessId(5), h1);
        assert_eq!(net.placement(ProcessId(5)), Some(h1));
        assert_eq!(net.placement(ProcessId(3)), None);
        for (from, to) in [(p1, ProcessId(3)), (ProcessId(3), p1)] {
            assert_eq!(
                net.route_packet(SimTime::ZERO, &mut rng, from, to, 10),
                Delivery::Drop
            );
        }
        assert_eq!(net.drops(DropCause::Unplaced), 3);
        assert!(format!("{net:?}").contains("placed: 3"), "{net:?}");
    }

    #[test]
    fn port_counters_follow_the_link_both_ways_across_two_switches() {
        // h1 —p1/p1— s1 —p2/p1— s2 —p2/p1— h2, traffic in both directions.
        let mut topo = Topology::new();
        topo.add_host("h1").unwrap();
        topo.add_host("h2").unwrap();
        topo.add_switch("s1").unwrap();
        topo.add_switch("s2").unwrap();
        for (a, b) in [("h1", "s1"), ("s1", "s2"), ("s2", "h2")] {
            topo.add_link(a, b, LinkSpec::new()).unwrap();
        }
        let mut net = Network::new(topo);
        let node = |net: &Network, n: &str| net.topology().lookup(n).unwrap();
        let (h1, h2) = (node(&net, "h1"), node(&net, "h2"));
        let (s1, s2) = (node(&net, "s1"), node(&net, "s2"));
        net.place(ProcessId(0), h1);
        net.place(ProcessId(1), h2);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..3 {
            net.route_packet(SimTime::ZERO, &mut rng, ProcessId(0), ProcessId(1), 100)
                .unwrap_delivery();
        }
        net.route_packet(SimTime::ZERO, &mut rng, ProcessId(1), ProcessId(0), 7)
            .unwrap_delivery();
        let fwd = |tx: bool| PortCounters {
            tx_bytes: if tx { 300 } else { 7 },
            tx_packets: if tx { 3 } else { 1 },
            rx_bytes: if tx { 7 } else { 300 },
            rx_packets: if tx { 1 } else { 3 },
        };
        // Ports facing h2 transmit the forward traffic; ports facing h1
        // receive it.
        assert_eq!(net.port_counters(h1, PortNo(1)), fwd(true));
        assert_eq!(net.port_counters(s1, PortNo(1)), fwd(false));
        assert_eq!(net.port_counters(s1, PortNo(2)), fwd(true));
        assert_eq!(net.port_counters(s2, PortNo(1)), fwd(false));
        assert_eq!(net.port_counters(s2, PortNo(2)), fwd(true));
        assert_eq!(net.port_counters(h2, PortNo(1)), fwd(false));
        // A port nothing is wired to reads zero.
        assert_eq!(net.port_counters(h1, PortNo(9)), PortCounters::default());
        assert_eq!(net.node_tx_bytes(s1), 307);
    }

    #[test]
    fn links_sharing_an_explicit_port_number_share_its_counters() {
        let mut topo = Topology::new();
        topo.add_host("h1").unwrap();
        topo.add_host("h2").unwrap();
        topo.add_switch("s1").unwrap();
        topo.add_link("h1", "s1", LinkSpec::new().dst_port(7))
            .unwrap();
        topo.add_link("s1", "h2", LinkSpec::new().src_port(7))
            .unwrap();
        let mut net = Network::new(topo);
        let h1 = net.topology().lookup("h1").unwrap();
        let h2 = net.topology().lookup("h2").unwrap();
        let s1 = net.topology().lookup("s1").unwrap();
        net.place(ProcessId(0), h1);
        net.place(ProcessId(1), h2);
        let mut rng = StdRng::seed_from_u64(0);
        net.route_packet(SimTime::ZERO, &mut rng, ProcessId(0), ProcessId(1), 50)
            .unwrap_delivery();
        let pc = net.port_counters(s1, PortNo(7));
        assert_eq!((pc.rx_bytes, pc.tx_bytes), (50, 50));
    }

    #[test]
    #[should_panic(expected = "only be placed on hosts")]
    fn placing_on_switch_panics() {
        let mut topo = Topology::new();
        topo.add_switch("s1").unwrap();
        let mut net = Network::new(topo);
        let s1 = net.topology().lookup("s1").unwrap();
        net.place(ProcessId(0), s1);
    }
}
