//! From GraphML task descriptions to runnable scenarios.
//!
//! This is the full §III-C workflow: a GraphML document names components per
//! node (Table I attributes) and points at component configuration files;
//! [`scenario_from_graphml`] resolves everything against a
//! [`ResourceBundle`] (file contents + registered stream-job plans) and
//! produces a [`Scenario`] ready to run. The decoupling the paper
//! emphasizes — application logic vs. testing setup — is exactly the split
//! between the bundle's plan registry and the GraphML description.

use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;
use std::str::FromStr;

use s2g_broker::{BrokerConfig, ConsumerConfig, CoordinationMode, ProducerConfig, TopicSpec};
use s2g_net::{FaultAction, FaultPlan, LinkSpec, Topology};
use s2g_proto::AckMode;
use s2g_sim::{SimDuration, SimTime};
use s2g_spe::{Plan, SpeConfig};
use s2g_store::StoreConfig;

use crate::config::{ComponentConfig, ConfigError};
use crate::graphml::{parse_graphml, GraphmlDoc, GraphmlEdge, GraphmlError, GraphmlNode};
use crate::scenario::{Scenario, SourceSpec, SpeJobSpec, SpeSinkSpec};

/// Everything a GraphML description references by name: configuration files
/// and registered stream-job plans.
#[derive(Default)]
pub struct ResourceBundle {
    files: BTreeMap<String, String>,
    plans: BTreeMap<String, Rc<dyn Fn() -> Plan>>,
}

impl ResourceBundle {
    /// An empty bundle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a file's contents under a path name.
    pub fn file(mut self, path: &str, contents: impl Into<String>) -> Self {
        self.files.insert(path.to_string(), contents.into());
        self
    }

    /// Registers a stream-job plan factory under an `app` name.
    pub fn plan(mut self, name: &str, factory: impl Fn() -> Plan + 'static) -> Self {
        self.plans.insert(name.to_string(), Rc::new(factory));
        self
    }

    fn get_file(&self, path: &str) -> Result<&str, DescError> {
        self.files
            .get(path)
            .map(String::as_str)
            .ok_or_else(|| DescError::MissingFile(path.to_string()))
    }

    fn config(&self, path: &str) -> Result<ComponentConfig, DescError> {
        if path.is_empty() || path == "default" {
            return Ok(ComponentConfig::new());
        }
        ComponentConfig::parse(self.get_file(path)?).map_err(DescError::Config)
    }
}

impl fmt::Debug for ResourceBundle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResourceBundle")
            .field("files", &self.files.keys().collect::<Vec<_>>())
            .field("plans", &self.plans.keys().collect::<Vec<_>>())
            .finish()
    }
}

/// A task-description resolution error.
#[derive(Debug)]
pub enum DescError {
    /// The GraphML itself failed to parse.
    Graphml(GraphmlError),
    /// A component configuration file failed to parse.
    Config(ConfigError),
    /// A referenced file is not in the bundle.
    MissingFile(String),
    /// An unrecognized `prodType`.
    UnknownProdType(String),
    /// An unrecognized `consType`.
    UnknownConsType(String),
    /// An unrecognized `streamProcType`.
    UnknownStreamProcType(String),
    /// An unregistered stream-job `app`.
    UnknownPlan(String),
    /// A component config is missing a required key.
    MissingKey {
        /// The node the config belongs to.
        node: String,
        /// The missing key.
        key: &'static str,
    },
    /// An attribute is present but its value does not parse (or, for
    /// `mode`, names no coordination mode).
    BadAttribute {
        /// Where it is: `graph`, `node <id>` or `edge <source>-><target>`.
        at: String,
        /// The attribute.
        key: &'static str,
        /// Its value as written.
        value: String,
    },
    /// A fault line could not be parsed.
    BadFault(String),
    /// A topic line could not be parsed.
    BadTopic(String),
}

impl fmt::Display for DescError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DescError::Graphml(e) => write!(f, "graphml: {e}"),
            DescError::Config(e) => write!(f, "config: {e}"),
            DescError::MissingFile(p) => write!(f, "file `{p}` not in resource bundle"),
            DescError::UnknownProdType(t) => write!(f, "unknown prodType `{t}`"),
            DescError::UnknownConsType(t) => write!(f, "unknown consType `{t}`"),
            DescError::UnknownStreamProcType(t) => write!(f, "unknown streamProcType `{t}`"),
            DescError::UnknownPlan(p) => write!(f, "no plan registered for app `{p}`"),
            DescError::MissingKey { node, key } => {
                write!(f, "node `{node}` config is missing key `{key}`")
            }
            DescError::BadAttribute { at, key, value } => {
                write!(f, "{at}: attribute `{key}` has invalid value `{value}`")
            }
            DescError::BadFault(l) => write!(f, "bad fault line: {l:?}"),
            DescError::BadTopic(l) => write!(f, "bad topic line: {l:?}"),
        }
    }
}

impl std::error::Error for DescError {}

impl From<GraphmlError> for DescError {
    fn from(e: GraphmlError) -> Self {
        DescError::Graphml(e)
    }
}

fn is_component_node(n: &GraphmlNode) -> bool {
    const KEYS: &[&str] = &[
        "prodType",
        "prodCfg",
        "consType",
        "consCfg",
        "streamProcType",
        "streamProcCfg",
        "storeType",
        "storeCfg",
        "brokerCfg",
        "cpuPercentage",
    ];
    KEYS.iter().any(|k| n.data.contains_key(*k))
}

fn parse_topics(text: &str) -> Result<Vec<TopicSpec>, DescError> {
    let mut out = Vec::new();
    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let mut spec = TopicSpec::new(parts[0]);
        if let Some(p) = parts.get(1) {
            let n: u32 = p
                .parse()
                .map_err(|_| DescError::BadTopic(raw.to_string()))?;
            spec = spec.partitions(n);
        }
        if let Some(r) = parts.get(2) {
            let n: u32 = r
                .parse()
                .map_err(|_| DescError::BadTopic(raw.to_string()))?;
            spec = spec.replication(n);
        }
        if let Some(pr) = parts.get(3) {
            let n: u32 = pr
                .parse()
                .map_err(|_| DescError::BadTopic(raw.to_string()))?;
            spec = spec.primary(n);
        }
        out.push(spec);
    }
    Ok(out)
}

fn parse_faults(text: &str) -> Result<FaultPlan, DescError> {
    let mut plan = FaultPlan::new();
    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let bad = || DescError::BadFault(raw.to_string());
        let at_secs: f64 = parts.first().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let at = SimTime::ZERO + SimDuration::from_secs_f64(at_secs);
        let action = match *parts.get(1).ok_or_else(bad)? {
            "disconnect" => FaultAction::Disconnect(parts.get(2).ok_or_else(bad)?.to_string()),
            "reconnect" => FaultAction::Reconnect(parts.get(2).ok_or_else(bad)?.to_string()),
            "linkdown" => FaultAction::LinkDown(
                parts.get(2).ok_or_else(bad)?.to_string(),
                parts.get(3).ok_or_else(bad)?.to_string(),
            ),
            "linkup" => FaultAction::LinkUp(
                parts.get(2).ok_or_else(bad)?.to_string(),
                parts.get(3).ok_or_else(bad)?.to_string(),
            ),
            "nodedown" => FaultAction::NodeDown(parts.get(2).ok_or_else(bad)?.to_string()),
            "nodeup" => FaultAction::NodeUp(parts.get(2).ok_or_else(bad)?.to_string()),
            "loss" => FaultAction::SetLoss(
                parts.get(2).ok_or_else(bad)?.to_string(),
                parts.get(3).ok_or_else(bad)?.to_string(),
                parts.get(4).ok_or_else(bad)?.parse().map_err(|_| bad())?,
            ),
            "latency" => FaultAction::SetLatency(
                parts.get(2).ok_or_else(bad)?.to_string(),
                parts.get(3).ok_or_else(bad)?.to_string(),
                SimDuration::from_millis(parts.get(4).ok_or_else(bad)?.parse().map_err(|_| bad())?),
            ),
            "recompute" => FaultAction::RecomputeRoutes,
            _ => return Err(bad()),
        };
        plan = plan.at(at, action);
    }
    Ok(plan)
}

fn producer_config(cfg: &ComponentConfig) -> Result<ProducerConfig, DescError> {
    let mut pc = ProducerConfig::default();
    if let Some(b) = cfg.get_bytes("bufferMemory").map_err(DescError::Config)? {
        pc.buffer_memory = b;
    }
    if let Some(d) = cfg
        .get_duration("requestTimeout")
        .map_err(DescError::Config)?
    {
        pc.request_timeout = d;
    }
    if let Some(d) = cfg
        .get_duration("deliveryTimeout")
        .map_err(DescError::Config)?
    {
        pc.delivery_timeout = d;
    }
    if let Some(d) = cfg.get_duration("linger").map_err(DescError::Config)? {
        pc.linger = d;
    }
    if let Some(a) = cfg.get("acks") {
        pc.acks = if a == "all" {
            AckMode::All
        } else {
            AckMode::Leader
        };
    }
    Ok(pc)
}

/// Attribute `key` of `at` (the graph, a node or an edge), parsed. An
/// absent attribute is `None`; one that is present but does not parse is an
/// error, never a silent default: a typo must not run another experiment.
fn attr<T: FromStr>(
    data: &BTreeMap<String, String>,
    at: impl Fn() -> String,
    key: &'static str,
) -> Result<Option<T>, DescError> {
    let parsed = data.get(key).map(|v| {
        v.parse().map_err(|_| DescError::BadAttribute {
            at: at(),
            key,
            value: v.clone(),
        })
    });
    parsed.transpose()
}

/// The component configuration node `n` names under `key`.
fn node_config(
    n: &GraphmlNode,
    key: &str,
    bundle: &ResourceBundle,
) -> Result<ComponentConfig, DescError> {
    bundle.config(n.data.get(key).map(String::as_str).unwrap_or(""))
}

/// A key the configuration of node `n` must carry.
fn need<'a>(
    cfg: &'a ComponentConfig,
    n: &GraphmlNode,
    key: &'static str,
) -> Result<&'a str, DescError> {
    cfg.get(key).ok_or(DescError::MissingKey {
        node: n.id.clone(),
        key,
    })
}

fn comma_list(text: &str) -> Vec<String> {
    text.split(',').map(|t| t.trim().to_string()).collect()
}

/// Graph-level settings: seed, duration, coordination mode, topics, faults.
fn graph_settings(
    sc: &mut Scenario,
    doc: &GraphmlDoc,
    bundle: &ResourceBundle,
) -> Result<CoordinationMode, DescError> {
    let graph = || "graph".to_string();
    if let Some(seed) = attr(&doc.graph_data, graph, "seed")? {
        sc.seed(seed);
    }
    if let Some(secs) = attr(&doc.graph_data, graph, "durationS")? {
        sc.duration(SimTime::from_secs(secs));
    }
    let mode = match doc.graph_data.get("mode").map(String::as_str) {
        None | Some("zk") => CoordinationMode::Zk,
        Some("kraft") => CoordinationMode::Kraft,
        Some(other) => {
            return Err(DescError::BadAttribute {
                at: graph(),
                key: "mode",
                value: other.to_string(),
            })
        }
    };
    sc.coordination(mode);
    if let Some(path) = doc.graph_data.get("topicCfg") {
        for t in parse_topics(bundle.get_file(path)?)? {
            sc.topic(t);
        }
    }
    if let Some(path) = doc.graph_data.get("faultCfg") {
        sc.faults(parse_faults(bundle.get_file(path)?)?);
    }
    Ok(mode)
}

fn link_spec(e: &GraphmlEdge) -> Result<LinkSpec, DescError> {
    let edge = || format!("edge {}->{}", e.source, e.target);
    let mut spec = LinkSpec::new();
    if let Some(lat) = attr(&e.data, edge, "lat")? {
        spec = spec.latency_ms(lat);
    }
    if let Some(bw) = attr(&e.data, edge, "bw")? {
        spec = spec.bandwidth_mbps(bw);
    }
    if let Some(loss) = attr(&e.data, edge, "loss")? {
        spec = spec.loss_pct(loss);
    }
    if let Some(st) = attr(&e.data, edge, "st")? {
        spec = spec.src_port(st);
    }
    if let Some(dt) = attr(&e.data, edge, "dt")? {
        spec = spec.dst_port(dt);
    }
    Ok(spec)
}

/// The topology the document's nodes and edges describe, plus the
/// controller hosts, attached to the first switch (or a dedicated one).
fn topology(doc: &GraphmlDoc, mode: CoordinationMode) -> Result<Topology, DescError> {
    let mut topo = Topology::new();
    let mut first_switch: Option<String> = None;
    for n in &doc.nodes {
        if is_component_node(n) {
            topo.add_host(n.id.as_str())
                .map_err(|_| DescError::BadTopic(n.id.clone()))?;
        } else {
            topo.add_switch(n.id.as_str())
                .map_err(|_| DescError::BadTopic(n.id.clone()))?;
            if first_switch.is_none() {
                first_switch = Some(n.id.clone());
            }
        }
    }
    for e in &doc.edges {
        topo.add_link(&e.source, &e.target, link_spec(e)?)
            .map_err(|_| DescError::BadTopic(format!("{}->{}", e.source, e.target)))?;
    }
    let hub = match first_switch {
        Some(s) => s,
        None => {
            topo.add_switch("ctl-sw")
                .map_err(|_| DescError::BadTopic("ctl-sw".into()))?;
            "ctl-sw".to_string()
        }
    };
    let n_ctl = match mode {
        CoordinationMode::Zk => 1,
        CoordinationMode::Kraft => 3,
    };
    for i in 1..=n_ctl {
        let h = format!("ctl{i}");
        topo.add_host(h.as_str())
            .map_err(|_| DescError::BadTopic(h.clone()))?;
        topo.add_link(&h, &hub, LinkSpec::new())
            .map_err(|_| DescError::BadTopic(h.clone()))?;
    }
    Ok(topo)
}

fn add_broker(
    sc: &mut Scenario,
    n: &GraphmlNode,
    bundle: &ResourceBundle,
) -> Result<(), DescError> {
    let cfg = node_config(n, "brokerCfg", bundle)?;
    let mut bc = BrokerConfig::default();
    if let Some(d) = cfg
        .get_duration("replicaLagMax")
        .map_err(DescError::Config)?
    {
        bc.replica_lag_max = d;
    }
    if let Some(d) = cfg
        .get_duration("sessionTimeout")
        .map_err(DescError::Config)?
    {
        bc.session_timeout = d;
    }
    sc.broker_with(&n.id, bc);
    Ok(())
}

fn add_producer(
    sc: &mut Scenario,
    n: &GraphmlNode,
    ptype: &str,
    bundle: &ResourceBundle,
) -> Result<(), DescError> {
    let cfg = node_config(n, "prodCfg", bundle)?;
    let pc = producer_config(&cfg)?;
    let interval = cfg
        .get_duration("messageInterval")
        .map_err(DescError::Config)?
        .unwrap_or(SimDuration::from_millis(100));
    let payload = cfg
        .get_u64("payloadBytes")
        .map_err(DescError::Config)?
        .unwrap_or(200) as usize;
    let until_s = cfg
        .get_u64("untilS")
        .map_err(DescError::Config)?
        .unwrap_or(3_600);
    let source = match ptype {
        "SFST" => {
            let file = bundle.get_file(need(&cfg, n, "filePath")?)?;
            SourceSpec::Items {
                topic: need(&cfg, n, "topicName")?.to_string(),
                items: file.lines().map(str::to_string).collect(),
                interval,
            }
        }
        "RATE" => SourceSpec::Rate {
            topic: need(&cfg, n, "topicName")?.to_string(),
            count: cfg
                .get_u64("totalMessages")
                .map_err(DescError::Config)?
                .ok_or(DescError::MissingKey {
                    node: n.id.clone(),
                    key: "totalMessages",
                })?,
            interval,
            payload,
        },
        "RANDOM" => SourceSpec::RandomTopics {
            topics: comma_list(need(&cfg, n, "topics")?),
            kbps: cfg
                .get_u64("kbps")
                .map_err(DescError::Config)?
                .unwrap_or(30),
            payload,
            until: SimTime::from_secs(until_s),
        },
        "POISSON" => SourceSpec::Poisson {
            topic: need(&cfg, n, "topicName")?.to_string(),
            rate_per_sec: cfg
                .get_f64("ratePerSec")
                .map_err(DescError::Config)?
                .unwrap_or(10.0),
            payload,
            until: SimTime::from_secs(until_s),
        },
        other => return Err(DescError::UnknownProdType(other.to_string())),
    };
    sc.producer(&n.id, source, pc);
    Ok(())
}

fn add_consumer(
    sc: &mut Scenario,
    n: &GraphmlNode,
    ctype: &str,
    bundle: &ResourceBundle,
) -> Result<(), DescError> {
    if ctype != "STANDARD" && ctype != "LOGGING" {
        return Err(DescError::UnknownConsType(ctype.to_string()));
    }
    let cfg = node_config(n, "consCfg", bundle)?;
    let topics: Vec<&str> = (need(&cfg, n, "topics")?.split(','))
        .map(str::trim)
        .collect();
    let mut cc = ConsumerConfig::default();
    if let Some(d) = cfg
        .get_duration("pollInterval")
        .map_err(DescError::Config)?
    {
        cc.poll_interval = d;
    }
    sc.consumer(&n.id, cc, &topics);
    Ok(())
}

fn add_stream_job(
    sc: &mut Scenario,
    n: &GraphmlNode,
    stype: &str,
    bundle: &ResourceBundle,
) -> Result<(), DescError> {
    if stype != "SPARK" && stype != "FLINK" && stype != "KSTREAM" {
        return Err(DescError::UnknownStreamProcType(stype.to_string()));
    }
    let cfg = node_config(n, "streamProcCfg", bundle)?;
    let app = need(&cfg, n, "app")?;
    let factory =
        (bundle.plans.get(app).cloned()).ok_or_else(|| DescError::UnknownPlan(app.to_string()))?;
    let sources = comma_list(need(&cfg, n, "sourceTopics")?);
    let sink = if let Some(t) = cfg.get("sinkTopic") {
        SpeSinkSpec::Topic(t.to_string())
    } else if let Some(h) = cfg.get("sinkStoreHost") {
        SpeSinkSpec::StoreOn {
            host: h.to_string(),
            table: cfg.get("sinkTable").unwrap_or("results").to_string(),
        }
    } else {
        SpeSinkSpec::Collect
    };
    let mut scfg = SpeConfig::default();
    if let Some(d) = cfg
        .get_duration("batchInterval")
        .map_err(DescError::Config)?
    {
        scfg.batch_interval = d;
    }
    let name = format!("{}-{}", n.id, app);
    sc.spe_job(
        &n.id,
        SpeJobSpec::new(name, sources, move || factory(), sink, scfg),
    );
    Ok(())
}

/// Resolves a GraphML task description into a runnable [`Scenario`].
///
/// Controller hosts (`ctl1`, and `ctl2`/`ctl3` under KRaft) are added to the
/// described topology automatically, attached to the first switch.
///
/// # Errors
///
/// Returns a [`DescError`] when the document, a referenced file, or a
/// component type cannot be resolved, or when an attribute is present with
/// a value that does not parse (including a `mode` other than `zk` or
/// `kraft`).
pub fn scenario_from_graphml(
    name: &str,
    xml: &str,
    bundle: &ResourceBundle,
) -> Result<Scenario, DescError> {
    let doc = parse_graphml(xml)?;
    let mut sc = Scenario::new(name);
    let mode = graph_settings(&mut sc, &doc, bundle)?;
    sc.topology(topology(&doc, mode)?);
    for n in &doc.nodes {
        let node = || format!("node {}", n.id);
        if let Some(pct) = attr(&n.data, node, "cpuPercentage")? {
            sc.host_cpu_percentage(&n.id, pct);
        }
        if n.data.contains_key("brokerCfg") {
            add_broker(&mut sc, n, bundle)?;
        }
        if let Some(ptype) = n.data.get("prodType") {
            add_producer(&mut sc, n, ptype, bundle)?;
        }
        if let Some(ctype) = n.data.get("consType") {
            add_consumer(&mut sc, n, ctype, bundle)?;
        }
        if let Some(stype) = n.data.get("streamProcType") {
            add_stream_job(&mut sc, n, stype, bundle)?;
        }
        if n.data.contains_key("storeType") {
            sc.store(&n.id, StoreConfig::default());
        }
    }
    Ok(sc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2g_spe::{Event, Value};

    fn word_split_plan() -> Plan {
        Plan::new().flat_map("split", |e| {
            e.value
                .as_str()
                .unwrap_or("")
                .split_whitespace()
                .map(|w| Event {
                    value: Value::Str(w.to_string()),
                    ..e.clone()
                })
                .collect()
        })
    }

    fn bundle() -> ResourceBundle {
        ResourceBundle::new()
            .file("topics.cfg", "raw-data 1 1\nwords 1 1\n")
            .file(
                "data-src.yaml",
                "filePath: corpus.txt\ntopicName: raw-data\nmessageInterval: 50ms\n",
            )
            .file("corpus.txt", "hello world\nfoo bar baz\n")
            .file("data-sink.yaml", "topics: words\n")
            .file(
                "spe.yaml",
                "app: word-split\nsourceTopics: raw-data\nsinkTopic: words\n",
            )
            .plan("word-split", word_split_plan)
    }

    const PIPELINE: &str = r#"
    <graph edgedefault="undirected">
      <data key="topicCfg">topics.cfg</data>
      <data key="durationS">40</data>
      <data key="seed">5</data>
      <node id="h1">
        <data key="prodType">SFST</data>
        <data key="prodCfg">data-src.yaml</data>
      </node>
      <node id="h2"><data key="brokerCfg">default</data></node>
      <node id="h3">
        <data key="streamProcType">SPARK</data>
        <data key="streamProcCfg">spe.yaml</data>
      </node>
      <node id="h5">
        <data key="consType">STANDARD</data>
        <data key="consCfg">data-sink.yaml</data>
      </node>
      <node id="s1"/>
      <edge source="s1" target="h1"><data key="lat">5</data></edge>
      <edge source="s1" target="h2"><data key="lat">5</data></edge>
      <edge source="s1" target="h3"><data key="lat">5</data></edge>
      <edge source="s1" target="h5"><data key="lat">5</data></edge>
    </graph>"#;

    #[test]
    fn fig4_style_pipeline_runs_end_to_end() {
        let sc = scenario_from_graphml("fig4", PIPELINE, &bundle()).expect("resolves");
        let result = sc.run().expect("runs");
        // 2 documents → 5 words delivered to the consumer via the SPE job.
        let delivered = result.monitor.borrow().delivery_count("words");
        assert_eq!(delivered, 5, "five words through the pipeline");
    }

    #[test]
    fn topics_file_parses_fields() {
        let topics = parse_topics("ta 2 3 0\ntb\n# comment\n").unwrap();
        assert_eq!(topics[0].partitions, 2);
        assert_eq!(topics[0].replication, 3);
        assert_eq!(topics[0].primary, Some(0));
        assert_eq!(topics[1].name, "tb");
        assert!(parse_topics("ta x\n").is_err());
    }

    #[test]
    fn faults_file_parses_actions() {
        let plan =
            parse_faults("60 disconnect h1\n120 reconnect h1\n10 loss h1 s1 2.5\n5 linkdown a b\n")
                .unwrap();
        assert_eq!(plan.len(), 4);
        assert!(parse_faults("oops\n").is_err());
        assert!(parse_faults("10 explode h1\n").is_err());
    }

    #[test]
    fn missing_file_is_reported() {
        let err = scenario_from_graphml("x", PIPELINE, &ResourceBundle::new()).unwrap_err();
        assert!(matches!(err, DescError::MissingFile(_)), "{err}");
    }

    #[test]
    fn unknown_plan_is_reported() {
        let b = bundle();
        let b = ResourceBundle {
            files: b.files,
            plans: BTreeMap::new(),
        };
        let err = scenario_from_graphml("x", PIPELINE, &b).unwrap_err();
        assert!(matches!(err, DescError::UnknownPlan(_)), "{err}");
    }

    #[test]
    fn unknown_prod_type_is_reported() {
        let xml = r#"<graph>
          <node id="h1"><data key="prodType">MAGIC</data></node>
          <node id="h2"><data key="brokerCfg">default</data></node>
          <node id="s1"/>
        </graph>"#;
        let err = scenario_from_graphml("x", xml, &bundle()).unwrap_err();
        assert!(matches!(err, DescError::UnknownProdType(_)), "{err}");
    }
}
