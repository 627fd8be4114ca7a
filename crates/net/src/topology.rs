//! Topology description: hosts, switches, and shaped links.
//!
//! Mirrors the network-setup half of stream2gym's GraphML input (§III-C of
//! the paper): nodes are hosts or switches, and each link carries the
//! Table I link attributes — latency (`lat`), bandwidth (`bw`), loss
//! percentage (`loss`), and source/destination ports (`st`/`dt`).

use std::collections::HashMap;
use std::fmt;

use s2g_sim::SimDuration;

/// Identifies a node (host or switch) in a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Raw index into the node table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies a link in a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl LinkId {
    /// Raw index into the link table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// A port number on a node, as in the `st`/`dt` GraphML attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortNo(pub u16);

impl fmt::Display for PortNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "eth{}", self.0)
    }
}

/// Whether a node hosts application components or forwards packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An end host; application components (brokers, producers, SPE workers)
    /// can be placed here.
    Host,
    /// A packet-forwarding switch. Adds a forwarding delay per traversal,
    /// configurable to model software (OVS) vs hardware (ASIC) switching.
    Switch,
}

/// A node in the topology.
#[derive(Debug, Clone)]
pub struct Node {
    /// Unique name, e.g. `"h1"` or `"s1"`.
    pub name: String,
    /// Host or switch.
    pub kind: NodeKind,
    next_port: u16,
}

/// The Table I link attributes: latency, bandwidth, loss, and ports.
///
/// # Examples
///
/// ```
/// use s2g_net::LinkSpec;
/// use s2g_sim::SimDuration;
///
/// let spec = LinkSpec::new()
///     .latency(SimDuration::from_millis(50))
///     .bandwidth_mbps(100.0)
///     .loss_pct(0.5);
/// assert_eq!(spec.latency.as_millis(), 50);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct LinkSpec {
    /// One-way propagation delay (the paper's `lat`, in ms).
    pub latency: SimDuration,
    /// Capacity in bits per second (the paper's `bw`, in Mbps); `None`
    /// models an unconstrained link.
    pub bandwidth_bps: Option<u64>,
    /// Random loss probability in percent (the paper's `loss`), `0.0..=100.0`.
    pub loss_pct: f64,
    /// Explicit source port (`st`); auto-assigned when `None`.
    pub src_port: Option<PortNo>,
    /// Explicit destination port (`dt`); auto-assigned when `None`.
    pub dst_port: Option<PortNo>,
}

impl Default for LinkSpec {
    fn default() -> Self {
        LinkSpec {
            latency: SimDuration::from_micros(50),
            bandwidth_bps: None,
            loss_pct: 0.0,
            src_port: None,
            dst_port: None,
        }
    }
}

impl LinkSpec {
    /// A link with default attributes (50 µs latency, unconstrained).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the one-way latency.
    pub fn latency(mut self, lat: SimDuration) -> Self {
        self.latency = lat;
        self
    }

    /// Sets the one-way latency in milliseconds (the paper's unit).
    pub fn latency_ms(self, ms: u64) -> Self {
        self.latency(SimDuration::from_millis(ms))
    }

    /// Sets the capacity in Mbps (the paper's unit).
    ///
    /// # Panics
    ///
    /// Panics if `mbps` is not strictly positive.
    pub fn bandwidth_mbps(mut self, mbps: f64) -> Self {
        assert!(
            mbps > 0.0 && mbps.is_finite(),
            "bandwidth must be positive, got {mbps}"
        );
        self.bandwidth_bps = Some((mbps * 1e6) as u64);
        self
    }

    /// Sets the random loss percentage.
    ///
    /// # Panics
    ///
    /// Panics if `pct` is outside `0.0..=100.0`.
    pub fn loss_pct(mut self, pct: f64) -> Self {
        assert!(
            (0.0..=100.0).contains(&pct),
            "loss must be in 0..=100, got {pct}"
        );
        self.loss_pct = pct;
        self
    }

    /// Pins the source-side port number.
    pub fn src_port(mut self, p: u16) -> Self {
        self.src_port = Some(PortNo(p));
        self
    }

    /// Pins the destination-side port number.
    pub fn dst_port(mut self, p: u16) -> Self {
        self.dst_port = Some(PortNo(p));
        self
    }
}

/// A link instance inside a topology.
#[derive(Debug, Clone)]
pub struct Link {
    /// Endpoint closer to the `source` given at add time.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Shaping attributes.
    pub spec: LinkSpec,
    /// Port on `a`.
    pub port_a: PortNo,
    /// Port on `b`.
    pub port_b: PortNo,
}

/// An error raised while building or querying a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A node name was registered twice.
    DuplicateNode(String),
    /// A referenced node does not exist.
    UnknownNode(String),
    /// A link connects a node to itself.
    SelfLoop(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::DuplicateNode(n) => write!(f, "duplicate node name `{n}`"),
            TopologyError::UnknownNode(n) => write!(f, "unknown node `{n}`"),
            TopologyError::SelfLoop(n) => write!(f, "link from `{n}` to itself"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// A network topology under construction.
///
/// # Examples
///
/// ```
/// use s2g_net::{LinkSpec, Topology};
///
/// let mut topo = Topology::new();
/// let h1 = topo.add_host("h1")?;
/// let s1 = topo.add_switch("s1")?;
/// topo.add_link("h1", "s1", LinkSpec::new().latency_ms(5))?;
/// assert_eq!(topo.node_count(), 2);
/// assert_eq!(topo.link_count(), 1);
/// assert_eq!(topo.lookup("h1"), Some(h1));
/// assert_ne!(h1, s1);
/// # Ok::<(), s2g_net::TopologyError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    by_name: HashMap<String, NodeId>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an end host named `name`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::DuplicateNode`] if the name is taken.
    pub fn add_host(&mut self, name: impl Into<String>) -> Result<NodeId, TopologyError> {
        self.add_node(name.into(), NodeKind::Host)
    }

    /// Adds a switch named `name`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::DuplicateNode`] if the name is taken.
    pub fn add_switch(&mut self, name: impl Into<String>) -> Result<NodeId, TopologyError> {
        self.add_node(name.into(), NodeKind::Switch)
    }

    fn add_node(&mut self, name: String, kind: NodeKind) -> Result<NodeId, TopologyError> {
        if self.by_name.contains_key(&name) {
            return Err(TopologyError::DuplicateNode(name));
        }
        let id = NodeId(self.nodes.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.nodes.push(Node {
            name,
            kind,
            next_port: 1,
        });
        Ok(id)
    }

    /// Adds an undirected link between two named nodes.
    ///
    /// # Errors
    ///
    /// Returns an error if either node is unknown or the link is a self-loop.
    pub fn add_link(
        &mut self,
        source: &str,
        target: &str,
        spec: LinkSpec,
    ) -> Result<LinkId, TopologyError> {
        let a = self
            .lookup(source)
            .ok_or_else(|| TopologyError::UnknownNode(source.into()))?;
        let b = self
            .lookup(target)
            .ok_or_else(|| TopologyError::UnknownNode(target.into()))?;
        if a == b {
            return Err(TopologyError::SelfLoop(source.into()));
        }
        let port_a = spec.src_port.unwrap_or_else(|| self.alloc_port(a));
        let port_b = spec.dst_port.unwrap_or_else(|| self.alloc_port(b));
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            a,
            b,
            spec,
            port_a,
            port_b,
        });
        Ok(id)
    }

    fn alloc_port(&mut self, node: NodeId) -> PortNo {
        let n = &mut self.nodes[node.index()];
        let p = PortNo(n.next_port);
        n.next_port += 1;
        p
    }

    /// Looks a node up by name.
    pub fn lookup(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// The node table entry for `id`.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The link table entry for `id`.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Mutable link access (used to retune shaping between runs).
    pub(crate) fn link_mut(&mut self, id: LinkId) -> &mut Link {
        &mut self.links[id.index()]
    }

    /// Iterates over all nodes with their ids.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Iterates over all links with their ids.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link)> {
        self.links
            .iter()
            .enumerate()
            .map(|(i, l)| (LinkId(i as u32), l))
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Links adjacent to `node`.
    pub fn adjacent(&self, node: NodeId) -> Vec<LinkId> {
        self.links()
            .filter(|(_, l)| l.a == node || l.b == node)
            .map(|(id, _)| id)
            .collect()
    }

    /// Builds the paper's "one big switch" abstraction (§III-D): one switch
    /// `s1` with every listed host attached by a link with `spec`.
    ///
    /// # Errors
    ///
    /// Returns an error on duplicate host names.
    pub fn one_big_switch<'a>(
        hosts: impl IntoIterator<Item = &'a str>,
        spec: LinkSpec,
    ) -> Result<Topology, TopologyError> {
        let mut topo = Topology::new();
        topo.add_switch("s1")?;
        for h in hosts {
            topo.add_host(h)?;
            topo.add_link(h, "s1", spec)?;
        }
        Ok(topo)
    }

    /// Builds a star of `n` hosts (`h1..hn`) around a hub switch — the
    /// Fig. 6a evaluation setup.
    ///
    /// # Errors
    ///
    /// Propagates build errors (cannot occur for valid `n`).
    pub fn star(n: usize, spec: LinkSpec) -> Result<Topology, TopologyError> {
        let names: Vec<String> = (1..=n).map(|i| format!("h{i}")).collect();
        Topology::one_big_switch(names.iter().map(|s| s.as_str()), spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_simple_topology() {
        let mut topo = Topology::new();
        let h1 = topo.add_host("h1").unwrap();
        let h2 = topo.add_host("h2").unwrap();
        let s1 = topo.add_switch("s1").unwrap();
        let l1 = topo.add_link("h1", "s1", LinkSpec::new()).unwrap();
        let l2 = topo.add_link("h2", "s1", LinkSpec::new()).unwrap();
        assert_eq!(topo.node_count(), 3);
        assert_eq!(topo.link_count(), 2);
        assert_eq!(topo.node(h1).kind, NodeKind::Host);
        assert_eq!(topo.node(s1).kind, NodeKind::Switch);
        assert_eq!(topo.link(l1).a, h1);
        assert_eq!(topo.link(l2).a, h2);
        assert_eq!(topo.adjacent(s1), vec![l1, l2]);
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut topo = Topology::new();
        topo.add_host("h1").unwrap();
        assert_eq!(
            topo.add_host("h1"),
            Err(TopologyError::DuplicateNode("h1".into()))
        );
    }

    #[test]
    fn unknown_node_rejected() {
        let mut topo = Topology::new();
        topo.add_host("h1").unwrap();
        assert!(matches!(
            topo.add_link("h1", "nope", LinkSpec::new()),
            Err(TopologyError::UnknownNode(_))
        ));
    }

    #[test]
    fn self_loop_rejected() {
        let mut topo = Topology::new();
        topo.add_host("h1").unwrap();
        assert!(matches!(
            topo.add_link("h1", "h1", LinkSpec::new()),
            Err(TopologyError::SelfLoop(_))
        ));
    }

    #[test]
    fn ports_auto_assign_sequentially() {
        let mut topo = Topology::new();
        topo.add_host("h1").unwrap();
        topo.add_switch("s1").unwrap();
        topo.add_switch("s2").unwrap();
        let l1 = topo.add_link("h1", "s1", LinkSpec::new()).unwrap();
        let l2 = topo.add_link("h1", "s2", LinkSpec::new()).unwrap();
        assert_eq!(topo.link(l1).port_a, PortNo(1));
        assert_eq!(topo.link(l2).port_a, PortNo(2));
        assert_eq!(topo.link(l1).port_b, PortNo(1));
        assert_eq!(topo.link(l2).port_b, PortNo(1));
    }

    #[test]
    fn explicit_ports_respected() {
        let mut topo = Topology::new();
        topo.add_host("h1").unwrap();
        topo.add_switch("s1").unwrap();
        let l = topo
            .add_link("h1", "s1", LinkSpec::new().src_port(7).dst_port(9))
            .unwrap();
        assert_eq!(topo.link(l).port_a, PortNo(7));
        assert_eq!(topo.link(l).port_b, PortNo(9));
    }

    #[test]
    fn one_big_switch_shape() {
        let topo = Topology::one_big_switch(["h1", "h2", "h3"], LinkSpec::new()).unwrap();
        assert_eq!(topo.node_count(), 4);
        assert_eq!(topo.link_count(), 3);
        let s1 = topo.lookup("s1").unwrap();
        assert_eq!(topo.adjacent(s1).len(), 3);
    }

    #[test]
    fn star_names_hosts() {
        let topo = Topology::star(10, LinkSpec::new()).unwrap();
        assert_eq!(topo.node_count(), 11);
        assert!(topo.lookup("h10").is_some());
        assert!(topo.lookup("h11").is_none());
    }

    #[test]
    fn linkspec_builders() {
        let s = LinkSpec::new()
            .latency_ms(25)
            .bandwidth_mbps(10.0)
            .loss_pct(1.5);
        assert_eq!(s.latency.as_millis(), 25);
        assert_eq!(s.bandwidth_bps, Some(10_000_000));
        assert!((s.loss_pct - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "loss must be in 0..=100")]
    fn bad_loss_panics() {
        let _ = LinkSpec::new().loss_pct(150.0);
    }
}
