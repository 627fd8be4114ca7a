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

use s2g_broker::{ConsumerConfig, ProducerConfig, TopicSpec};
use s2g_net::{FaultAction, FaultPlan, LinkSpec, Topology};
use s2g_proto::AckMode;
use s2g_sim::{SimDuration, SimTime};
use s2g_spe::{Plan, SpeConfig};
use s2g_store::StoreConfig;

use crate::config::{ComponentConfig, ConfigError};
use crate::graphml::{parse_graphml, GraphmlError, GraphmlNode};
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

/// Resolves a GraphML task description into a runnable [`Scenario`].
///
/// Controller hosts (`ctl1`, and `ctl2`/`ctl3` under KRaft) are added to the
/// described topology automatically, attached to the first switch.
///
/// # Errors
///
/// Returns a [`DescError`] when the document, a referenced file, or a
/// component type cannot be resolved.
// The one exception to the crate's 150-line gate: splitting this 258-line
// attribute-by-attribute translation was out of scope when the gate came
// in with the `Scenario` split (ROADMAP lists it as what is left).
#[allow(clippy::too_many_lines)]
pub fn scenario_from_graphml(
    name: &str,
    xml: &str,
    bundle: &ResourceBundle,
) -> Result<Scenario, DescError> {
    let doc = parse_graphml(xml)?;
    let mut sc = Scenario::new(name);

    // Optional graph-level settings.
    if let Some(seed) = doc.graph_data.get("seed") {
        if let Ok(s) = seed.parse() {
            sc.seed(s);
        }
    }
    if let Some(d) = doc.graph_data.get("durationS") {
        if let Ok(s) = d.parse::<u64>() {
            sc.duration(SimTime::from_secs(s));
        }
    }
    let mode = match doc.graph_data.get("mode").map(String::as_str) {
        Some("kraft") => s2g_broker::CoordinationMode::Kraft,
        _ => s2g_broker::CoordinationMode::Zk,
    };
    sc.coordination(mode);

    // Topics.
    if let Some(path) = doc.graph_data.get("topicCfg") {
        for t in parse_topics(bundle.get_file(path)?)? {
            sc.topic(t);
        }
    }
    // Faults.
    if let Some(path) = doc.graph_data.get("faultCfg") {
        sc.faults(parse_faults(bundle.get_file(path)?)?);
    }

    // Topology from the document's nodes and edges.
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
        let mut spec = LinkSpec::new();
        if let Some(lat) = e.data.get("lat").and_then(|v| v.parse::<u64>().ok()) {
            spec = spec.latency_ms(lat);
        }
        if let Some(bw) = e.data.get("bw").and_then(|v| v.parse::<f64>().ok()) {
            spec = spec.bandwidth_mbps(bw);
        }
        if let Some(loss) = e.data.get("loss").and_then(|v| v.parse::<f64>().ok()) {
            spec = spec.loss_pct(loss);
        }
        if let Some(st) = e.data.get("st").and_then(|v| v.parse::<u16>().ok()) {
            spec = spec.src_port(st);
        }
        if let Some(dt) = e.data.get("dt").and_then(|v| v.parse::<u16>().ok()) {
            spec = spec.dst_port(dt);
        }
        topo.add_link(&e.source, &e.target, spec)
            .map_err(|_| DescError::BadTopic(format!("{}->{}", e.source, e.target)))?;
    }
    // Controller hosts, attached to the first switch (or a dedicated one).
    let hub = match first_switch {
        Some(s) => s,
        None => {
            topo.add_switch("ctl-sw")
                .map_err(|_| DescError::BadTopic("ctl-sw".into()))?;
            "ctl-sw".to_string()
        }
    };
    let n_ctl = match mode {
        s2g_broker::CoordinationMode::Zk => 1,
        s2g_broker::CoordinationMode::Kraft => 3,
    };
    for i in 1..=n_ctl {
        let h = format!("ctl{i}");
        topo.add_host(h.as_str())
            .map_err(|_| DescError::BadTopic(h.clone()))?;
        topo.add_link(&h, &hub, LinkSpec::new())
            .map_err(|_| DescError::BadTopic(h.clone()))?;
    }
    sc.topology(topo);

    // Components per node.
    for n in &doc.nodes {
        if let Some(pct) = n
            .data
            .get("cpuPercentage")
            .and_then(|v| v.parse::<f64>().ok())
        {
            sc.host_cpu_percentage(&n.id, pct);
        }
        if n.data.contains_key("brokerCfg") {
            let cfg = bundle.config(n.data.get("brokerCfg").map(String::as_str).unwrap_or(""))?;
            let mut bc = s2g_broker::BrokerConfig::default();
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
        }
        if let Some(ptype) = n.data.get("prodType") {
            let cfg = bundle.config(n.data.get("prodCfg").map(String::as_str).unwrap_or(""))?;
            let pc = producer_config(&cfg)?;
            let need = |key: &'static str| -> Result<String, DescError> {
                cfg.get(key)
                    .map(str::to_string)
                    .ok_or(DescError::MissingKey {
                        node: n.id.clone(),
                        key,
                    })
            };
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
            let source = match ptype.as_str() {
                "SFST" => {
                    let file = need("filePath")?;
                    let items: Vec<String> = bundle
                        .get_file(&file)?
                        .lines()
                        .map(str::to_string)
                        .collect();
                    SourceSpec::Items {
                        topic: need("topicName")?,
                        items,
                        interval,
                    }
                }
                "RATE" => SourceSpec::Rate {
                    topic: need("topicName")?,
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
                    topics: need("topics")?
                        .split(',')
                        .map(|t| t.trim().to_string())
                        .collect(),
                    kbps: cfg
                        .get_u64("kbps")
                        .map_err(DescError::Config)?
                        .unwrap_or(30),
                    payload,
                    until: SimTime::from_secs(until_s),
                },
                "POISSON" => SourceSpec::Poisson {
                    topic: need("topicName")?,
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
        }
        if let Some(ctype) = n.data.get("consType") {
            if ctype != "STANDARD" && ctype != "LOGGING" {
                return Err(DescError::UnknownConsType(ctype.clone()));
            }
            let cfg = bundle.config(n.data.get("consCfg").map(String::as_str).unwrap_or(""))?;
            let topics_str = cfg.get("topics").ok_or(DescError::MissingKey {
                node: n.id.clone(),
                key: "topics",
            })?;
            let topics: Vec<&str> = topics_str.split(',').map(str::trim).collect();
            let mut cc = ConsumerConfig::default();
            if let Some(d) = cfg
                .get_duration("pollInterval")
                .map_err(DescError::Config)?
            {
                cc.poll_interval = d;
            }
            sc.consumer(&n.id, cc, &topics);
        }
        if let Some(stype) = n.data.get("streamProcType") {
            if stype != "SPARK" && stype != "FLINK" && stype != "KSTREAM" {
                return Err(DescError::UnknownStreamProcType(stype.clone()));
            }
            let cfg = bundle.config(
                n.data
                    .get("streamProcCfg")
                    .map(String::as_str)
                    .unwrap_or(""),
            )?;
            let app = cfg.get("app").ok_or(DescError::MissingKey {
                node: n.id.clone(),
                key: "app",
            })?;
            let factory = bundle
                .plans
                .get(app)
                .cloned()
                .ok_or_else(|| DescError::UnknownPlan(app.to_string()))?;
            let sources: Vec<String> = cfg
                .get("sourceTopics")
                .ok_or(DescError::MissingKey {
                    node: n.id.clone(),
                    key: "sourceTopics",
                })?
                .split(',')
                .map(|t| t.trim().to_string())
                .collect();
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
            sc.spe_job(
                &n.id,
                SpeJobSpec::new(
                    format!("{}-{}", n.id, app),
                    sources,
                    move || factory(),
                    sink,
                    scfg,
                ),
            );
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
