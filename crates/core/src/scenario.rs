//! The orchestrator: from a scenario description to a finished run.
//!
//! [`Scenario`] is stream2gym's core workflow (§III-B): describe the
//! pipeline (components per host), the platform configuration (topics,
//! coordination mode), and the network (topology, link attributes, faults);
//! then [`Scenario::run`] instantiates the emulated network, starts the
//! event streaming platform, wires every component, injects the fault plan,
//! attaches the monitors, executes, and returns a [`RunResult`] with all
//! the measurements the paper's figures are built from.

use std::collections::BTreeMap;
use std::fmt;

use s2g_analyze::{
    analyze as analyze_facts, AnalysisReport, BrokerFacts, ComponentRef, ConsumerFacts, Diagnostic,
    FaultFacts, FaultKind, FaultTarget, JobFacts, ProducerFacts, ScenarioFacts, StoreReplicaFacts,
    TopicFacts,
};
use s2g_broker::{
    BrokerConfig, CollectingSink, ConsumerConfig, ControllerConfig, CoordinationMode, DataSink,
    DataSource, FileLinesSource, PoissonSource, ProducerConfig, RandomTopicSource, RateSource,
    TopicSpec,
};
use s2g_net::{FaultAction, FaultPlan, LinkSpec, NetworkConfig, Topology};
use s2g_proto::{AckMode, Compression};
use s2g_sim::{SimDuration, SimTime};
use s2g_spe::{CheckpointCfg, Plan, SpeConfig};
use s2g_store::StoreConfig;

use crate::report::RunResult;
use crate::resources::{MemModel, ServerSpec};
#[cfg(doc)]
use crate::{BrokerRecoveryReport, MonitorCore, ProducerReport, RunReport};

// The runtime is a child module so the builder state stays private to the
// scenario; the file sits beside this one.
#[path = "runtime.rs"]
mod runtime;
use runtime::Runtime;

/// A data-source description for a producer stub (`prodType`).
pub enum SourceSpec {
    /// Fixed-rate fixed-size records to one topic.
    Rate {
        /// Topic.
        topic: String,
        /// Total records.
        count: u64,
        /// Inter-record interval.
        interval: SimDuration,
        /// Payload bytes.
        payload: usize,
    },
    /// Random topic choice at a target bitrate (the Fig. 6 workload).
    RandomTopics {
        /// Candidate topics.
        topics: Vec<String>,
        /// Kilobits per second.
        kbps: u64,
        /// Payload bytes.
        payload: usize,
        /// Stop time.
        until: SimTime,
    },
    /// Poisson arrivals (the Fig. 7b user traffic).
    Poisson {
        /// Topic.
        topic: String,
        /// Mean arrivals per second.
        rate_per_sec: f64,
        /// Payload bytes.
        payload: usize,
        /// Stop time.
        until: SimTime,
    },
    /// One record per prepared item (the `SFST` stub).
    Items {
        /// Topic.
        topic: String,
        /// The corpus.
        items: Vec<String>,
        /// Inter-record interval.
        interval: SimDuration,
    },
    /// Any custom source.
    Custom {
        /// Topics this source emits to (for validation).
        topics: Vec<String>,
        /// Factory producing the source. Called at build time and again for
        /// each `RestartProcess` fault on this stub, so a respawned
        /// producer starts its source from the beginning (broker-side
        /// idempotent dedup then filters the already-appended prefix).
        make: Box<dyn Fn() -> Box<dyn DataSource>>,
    },
}

impl SourceSpec {
    fn topics(&self) -> Vec<String> {
        match self {
            SourceSpec::Rate { topic, .. }
            | SourceSpec::Poisson { topic, .. }
            | SourceSpec::Items { topic, .. } => vec![topic.clone()],
            SourceSpec::RandomTopics { topics, .. } => topics.clone(),
            SourceSpec::Custom { topics, .. } => topics.clone(),
        }
    }

    fn build(&self) -> Box<dyn DataSource> {
        match self {
            SourceSpec::Rate {
                topic,
                count,
                interval,
                payload,
            } => {
                Box::new(RateSource::new(topic.clone(), *count, *interval).payload_bytes(*payload))
            }
            SourceSpec::RandomTopics {
                topics,
                kbps,
                payload,
                until,
            } => Box::new(RandomTopicSource::new(
                topics.clone(),
                *kbps,
                *payload,
                *until,
            )),
            SourceSpec::Poisson {
                topic,
                rate_per_sec,
                payload,
                until,
            } => Box::new(PoissonSource::new(
                topic.clone(),
                *rate_per_sec,
                *payload,
                *until,
            )),
            SourceSpec::Items {
                topic,
                items,
                interval,
            } => Box::new(FileLinesSource::new(
                topic.clone(),
                items.clone(),
                *interval,
            )),
            SourceSpec::Custom { make, .. } => make(),
        }
    }
}

impl fmt::Debug for SourceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SourceSpec({:?})", self.topics())
    }
}

/// Static rate/size hints the analyzer extracts from a source spec:
/// the steady-state inter-record interval (mean interval for Poisson)
/// and the largest payload the source can emit. `Custom` sources are
/// opaque — no hints.
fn source_hints(src: &SourceSpec) -> (Option<SimDuration>, Option<usize>) {
    match src {
        SourceSpec::Rate {
            interval, payload, ..
        } => (Some(*interval), Some(*payload)),
        SourceSpec::RandomTopics { kbps, payload, .. } => {
            let interval = (*kbps > 0).then(|| {
                SimDuration::from_secs_f64(*payload as f64 * 8.0 / (*kbps as f64 * 1000.0))
            });
            (interval, Some(*payload))
        }
        SourceSpec::Poisson {
            rate_per_sec,
            payload,
            ..
        } => {
            let interval =
                (*rate_per_sec > 0.0).then(|| SimDuration::from_secs_f64(1.0 / *rate_per_sec));
            (interval, Some(*payload))
        }
        SourceSpec::Items {
            interval, items, ..
        } => (Some(*interval), items.iter().map(|i| i.len()).max()),
        SourceSpec::Custom { .. } => (None, None),
    }
}

/// Where a consumer stub's records go (`consType`).
pub enum ConsumerSinkSpec {
    /// Collect in memory (the `STANDARD` stub); always monitored.
    Collect,
    /// A custom sink (still wrapped by the monitor). The factory is called
    /// at build time and again for each `RestartProcess` fault on this
    /// stub — a respawned consumer starts with a fresh sink.
    Custom(Box<dyn Fn() -> Box<dyn DataSink>>),
}

impl ConsumerSinkSpec {
    fn build(&self) -> Box<dyn DataSink> {
        match self {
            ConsumerSinkSpec::Collect => Box::new(CollectingSink::default()),
            ConsumerSinkSpec::Custom(make) => make(),
        }
    }
}

impl fmt::Debug for ConsumerSinkSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConsumerSinkSpec::Collect => write!(f, "Collect"),
            ConsumerSinkSpec::Custom(_) => write!(f, "Custom"),
        }
    }
}

/// Sink half of a stream job (`streamProcCfg`).
pub enum SpeSinkSpec {
    /// Emit encoded events to a topic.
    Topic(String),
    /// Keep results in the worker.
    Collect,
    /// Insert rows into the store hosted on the named host.
    StoreOn {
        /// Host carrying the store server.
        host: String,
        /// Target table.
        table: String,
    },
}

impl fmt::Debug for SpeSinkSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpeSinkSpec::Topic(t) => write!(f, "Topic({t})"),
            SpeSinkSpec::Collect => write!(f, "Collect"),
            SpeSinkSpec::StoreOn { host, table } => write!(f, "StoreOn({host}.{table})"),
        }
    }
}

/// One stream-processing job (`streamProcType`/`streamProcCfg`).
pub struct SpeJobSpec {
    /// Job name (unique).
    pub name: String,
    /// Source topics, in source-index order (for joins).
    pub sources: Vec<String>,
    /// Factory producing the job's plan. Called once at build time, and
    /// again for each `RestartProcess` fault so a respawned worker starts
    /// from a fresh plan before restoring its checkpoint.
    pub plan: Box<dyn Fn() -> Plan>,
    /// Result sink.
    pub sink: SpeSinkSpec,
    /// Engine configuration.
    pub cfg: SpeConfig,
    /// Parallel instances per stage. `1` (the default) keeps the classic
    /// one-worker-per-job layout; `n > 1` splits the plan at its `KeyBy`
    /// boundaries into stages of `n` instances each, connected by keyed
    /// shuffle topics, with instance `i` of a stage statically owning a
    /// contiguous range of its input partitions (and key groups).
    pub parallelism: usize,
    /// Per-stage parallelism overrides (`stage index → instances`).
    pub stage_parallelism: BTreeMap<usize, usize>,
    /// Fixed key-group count: keyed state is sliced into this many groups
    /// (`hash(key) % key_groups`), shuffle topics get exactly this many
    /// partitions, and a rescale redistributes whole groups. Must be at
    /// least the largest stage parallelism.
    pub key_groups: u32,
    /// When set, a whole-job `RestartProcess` fault respawns every stage at
    /// *this* parallelism instead of the original one — the rescale path.
    /// Each restored instance reassembles its key groups from all old
    /// instances' checkpoint chains.
    pub rescale_on_restart: Option<usize>,
    /// Cached stage count: probing it builds a full throwaway plan, which
    /// can be arbitrarily expensive (a factory may train a model), so it
    /// runs at most once per spec.
    stage_count: std::cell::OnceCell<usize>,
}

impl SpeJobSpec {
    /// Creates a job spec with the classic single-worker layout.
    pub fn new(
        name: impl Into<String>,
        sources: Vec<String>,
        plan: impl Fn() -> Plan + 'static,
        sink: SpeSinkSpec,
        cfg: SpeConfig,
    ) -> Self {
        SpeJobSpec {
            name: name.into(),
            sources,
            plan: Box::new(plan),
            sink,
            cfg,
            parallelism: 1,
            stage_parallelism: BTreeMap::new(),
            key_groups: DEFAULT_KEY_GROUPS,
            rescale_on_restart: None,
            stage_count: std::cell::OnceCell::new(),
        }
    }

    /// Runs every stage with `n` parallel instances.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn parallelism(mut self, n: usize) -> Self {
        assert!(n > 0, "parallelism must be at least 1");
        self.parallelism = n;
        self
    }

    /// Overrides one stage's parallelism (stage 0 reads the job's source
    /// topics; each `KeyBy` boundary starts the next stage).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn stage_parallelism(mut self, stage: usize, n: usize) -> Self {
        assert!(n > 0, "stage parallelism must be at least 1");
        self.stage_parallelism.insert(stage, n);
        self
    }

    /// Sets the fixed key-group count.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn key_groups(mut self, n: u32) -> Self {
        assert!(n > 0, "key_groups must be at least 1");
        self.key_groups = n;
        self
    }

    /// Restarts the whole job at parallelism `m` after a job-level
    /// crash/restart fault (rescale N→M).
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn rescale_on_restart(mut self, m: usize) -> Self {
        assert!(m > 0, "rescale parallelism must be at least 1");
        self.rescale_on_restart = Some(m);
        self
    }

    /// True when this job uses the parallel stage machinery.
    fn is_parallel(&self) -> bool {
        self.parallelism > 1
            || self.rescale_on_restart.is_some()
            || self.stage_parallelism.values().any(|n| *n > 1)
    }

    /// The effective parallelism of `stage`.
    fn par_of(&self, stage: usize) -> usize {
        self.stage_parallelism
            .get(&stage)
            .copied()
            .unwrap_or(self.parallelism)
    }
}

/// Default key-group count for parallel jobs (Flink's `maxParallelism`
/// scaled down to simulation size).
pub const DEFAULT_KEY_GROUPS: u32 = 16;

/// The intermediate shuffle topic feeding `stage` of `job` (declared
/// automatically with `key_groups` partitions).
pub fn shuffle_topic(job: &str, stage: usize) -> String {
    format!("__shuffle.{job}.{stage}")
}

/// The process name of one parallel stage instance.
pub fn instance_name(job: &str, stage: usize, instance: usize) -> String {
    format!("{job}/{stage}/{instance}")
}

/// Where a durability tier keeps its blobs: scenario-level checkpoints
/// ([`CheckpointSpec`]) and every broker's log segments and meta blob.
#[derive(Debug, Clone)]
pub enum DurableStoreSpec {
    /// In the orchestrator's memory, outside every process's failure
    /// domain — a job-manager heap, an always-synced local disk: instant,
    /// free, survives the writer's crashes.
    InMemory,
    /// Through the store server on the named host, paying simulated CPU
    /// and network cost per write and a read round trip per blob restored;
    /// a broker's produce acks wait for the covering flush
    /// (fsync-before-ack).
    StoreOn {
        /// Host carrying the store server.
        host: String,
    },
}

/// Scenario-level checkpointing, applied to every SPE job that does not
/// configure its own schedule.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Interval and offset-commit mode.
    pub cfg: CheckpointCfg,
    /// Snapshot storage.
    pub backend: DurableStoreSpec,
}

impl fmt::Debug for SpeJobSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpeJobSpec")
            .field("name", &self.name)
            .field("sources", &self.sources)
            .field("sink", &self.sink)
            .finish()
    }
}

/// A scenario validation error: every `Deny`-level diagnostic the
/// analyzer produced, reported together instead of one at a time (the
/// full catalog, warnings included, comes from [`Scenario::analyze`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// The blocking diagnostics, in report order.
    pub diagnostics: Vec<Diagnostic>,
}

impl ScenarioError {
    fn from_report(report: &AnalysisReport) -> ScenarioError {
        ScenarioError {
            diagnostics: report.denials().cloned().collect(),
        }
    }

    /// True when some blocking diagnostic carries `code` (`"S2G0xx"`).
    pub fn has(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "scenario analysis found {} blocking misconfiguration(s):",
            self.diagnostics.len()
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        write!(
            f,
            "(see docs/analysis.md for the catalog; `allow_deny_diagnostics()` overrides)"
        )
    }
}

impl std::error::Error for ScenarioError {}

/// The scenario under construction — stream2gym's task description.
pub struct Scenario {
    name: String,
    seed: u64,
    duration: SimTime,
    mode: CoordinationMode,
    server: ServerSpec,
    mem_model: MemModel,
    net_cfg: NetworkConfig,
    default_link: LinkSpec,
    host_links: BTreeMap<String, LinkSpec>,
    host_cpu_pct: BTreeMap<String, f64>,
    explicit_topology: Option<Topology>,
    controller_cfg: ControllerConfig,
    topics: Vec<TopicSpec>,
    brokers: Vec<(String, BrokerConfig)>,
    stores: Vec<(String, StoreConfig)>,
    store_replication: usize,
    partition_replication: Option<u32>,
    acks_override: Option<AckMode>,
    batching: BatchingOverrides,
    transactional_sinks: bool,
    spe_jobs: Vec<(String, SpeJobSpec)>,
    producers: Vec<(String, SourceSpec, ProducerConfig)>,
    consumers: Vec<(String, ConsumerConfig, Vec<String>, ConsumerSinkSpec)>,
    faults: FaultPlan,
    checkpointing: Option<CheckpointSpec>,
    broker_durability: Option<DurableStoreSpec>,
    log_compaction: bool,
    log_retention_age: Option<SimDuration>,
    log_retention_bytes: Option<usize>,
    watch_tx: Vec<String>,
    event_limit: u64,
    telemetry: bool,
    telemetry_interval: SimDuration,
    telemetry_trace: bool,
    allow_deny: bool,
    capture_records: bool,
}

impl Scenario {
    /// Starts an empty scenario.
    pub fn new(name: impl Into<String>) -> Self {
        Scenario {
            name: name.into(),
            seed: 1,
            duration: SimTime::from_secs(60),
            mode: CoordinationMode::Zk,
            server: ServerSpec::default(),
            mem_model: MemModel::default(),
            net_cfg: NetworkConfig::default(),
            default_link: LinkSpec::new(),
            host_links: BTreeMap::new(),
            host_cpu_pct: BTreeMap::new(),
            explicit_topology: None,
            controller_cfg: ControllerConfig::default(),
            topics: Vec::new(),
            brokers: Vec::new(),
            stores: Vec::new(),
            store_replication: 1,
            partition_replication: None,
            acks_override: None,
            batching: BatchingOverrides::default(),
            transactional_sinks: false,
            spe_jobs: Vec::new(),
            producers: Vec::new(),
            consumers: Vec::new(),
            faults: FaultPlan::new(),
            checkpointing: None,
            broker_durability: None,
            log_compaction: false,
            log_retention_age: None,
            log_retention_bytes: None,
            watch_tx: Vec::new(),
            event_limit: u64::MAX,
            telemetry: true,
            telemetry_interval: SimDuration::from_millis(500),
            telemetry_trace: false,
            allow_deny: false,
            capture_records: false,
        }
    }

    /// Lets [`Scenario::run`] start despite `Deny`-level analyzer
    /// diagnostics — an explicit "I know, run it anyway" for experiments
    /// that deliberately misconfigure (the diagnostics still appear in
    /// [`Scenario::analyze`]).
    pub fn allow_deny_diagnostics(&mut self) -> &mut Self {
        self.allow_deny = true;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Sets the experiment duration.
    pub fn duration(&mut self, d: SimTime) -> &mut Self {
        self.duration = d;
        self
    }

    /// Selects the coordination mode (ZooKeeper vs KRaft).
    pub fn coordination(&mut self, mode: CoordinationMode) -> &mut Self {
        self.mode = mode;
        self.controller_cfg.mode = mode;
        self
    }

    /// Overrides controller tunables.
    pub fn controller_config(&mut self, cfg: ControllerConfig) -> &mut Self {
        self.controller_cfg = cfg;
        self.controller_cfg.mode = self.mode;
        self
    }

    /// Models the underlying server (cores, memory, sampling).
    pub fn server(&mut self, spec: ServerSpec) -> &mut Self {
        self.server = spec;
        self
    }

    /// Overrides the memory model constants.
    pub fn mem_model(&mut self, model: MemModel) -> &mut Self {
        self.mem_model = model;
        self
    }

    /// Selects the network backend (emulation vs "hardware" — Fig. 8).
    pub fn network_profile(&mut self, cfg: NetworkConfig) -> &mut Self {
        self.net_cfg = cfg;
        self
    }

    /// Sets the default link attributes for the auto-built one-big-switch
    /// topology.
    pub fn default_link(&mut self, spec: LinkSpec) -> &mut Self {
        self.default_link = spec;
        self
    }

    /// Overrides the link attributes of one host's access link.
    pub fn host_link(&mut self, host: &str, spec: LinkSpec) -> &mut Self {
        self.host_links.insert(host.to_string(), spec);
        self
    }

    /// Caps a host's CPU share (the `cpuPercentage` attribute).
    ///
    /// # Panics
    ///
    /// Panics if `pct` is not in `(0, 100]`.
    pub fn host_cpu_percentage(&mut self, host: &str, pct: f64) -> &mut Self {
        assert!(
            pct > 0.0 && pct <= 100.0,
            "cpuPercentage must be in (0, 100], got {pct}"
        );
        self.host_cpu_pct.insert(host.to_string(), pct);
        self
    }

    /// Supplies an explicit topology instead of the auto one-big-switch.
    /// Controller hosts `ctl1[,ctl2,ctl3]` must exist in it.
    pub fn topology(&mut self, topo: Topology) -> &mut Self {
        self.explicit_topology = Some(topo);
        self
    }

    /// Declares a topic.
    pub fn topic(&mut self, spec: TopicSpec) -> &mut Self {
        self.topics.push(spec);
        self
    }

    /// Places a broker (id = declaration order) on a host.
    pub fn broker(&mut self, host: &str) -> &mut Self {
        self.broker_with(host, BrokerConfig::default())
    }

    /// Places a broker with an explicit configuration.
    pub fn broker_with(&mut self, host: &str, cfg: BrokerConfig) -> &mut Self {
        self.brokers.push((host.to_string(), cfg));
        self
    }

    /// Places a data-store server on a host.
    pub fn store(&mut self, host: &str, cfg: StoreConfig) -> &mut Self {
        self.stores.push((host.to_string(), cfg));
        self
    }

    /// Places a stream-processing job on a host.
    pub fn spe_job(&mut self, host: &str, job: SpeJobSpec) -> &mut Self {
        self.spe_jobs.push((host.to_string(), job));
        self
    }

    /// Places a producer stub (id = declaration order) on a host.
    pub fn producer(&mut self, host: &str, source: SourceSpec, cfg: ProducerConfig) -> &mut Self {
        self.producers.push((host.to_string(), source, cfg));
        self
    }

    /// Places a consumer stub (id = declaration order) subscribed to
    /// `topics` on a host.
    pub fn consumer(&mut self, host: &str, cfg: ConsumerConfig, topics: &[&str]) -> &mut Self {
        self.consumer_with_sink(host, cfg, topics, ConsumerSinkSpec::Collect)
    }

    /// Places a consumer with a custom sink.
    pub fn consumer_with_sink(
        &mut self,
        host: &str,
        cfg: ConsumerConfig,
        topics: &[&str],
        sink: ConsumerSinkSpec,
    ) -> &mut Self {
        self.consumers.push((
            host.to_string(),
            cfg,
            topics.iter().map(|t| t.to_string()).collect(),
            sink,
        ));
        self
    }

    /// Installs the fault plan (`faultCfg`).
    pub fn faults(&mut self, plan: FaultPlan) -> &mut Self {
        self.faults = plan;
        self
    }

    /// Enables checkpointing for every SPE job (jobs that set their own
    /// `cfg.checkpoint` keep it), storing snapshots in memory outside the
    /// workers' failure domain.
    ///
    /// An [`incremental`](CheckpointCfg::incremental) config ships, after
    /// each full base snapshot, only the keys/windows touched since the
    /// previous capture, so snapshot bytes scale with churn instead of with
    /// total state; after `max_delta_chain` deltas the next capture is
    /// forced to re-base, bounding restore work. It composes with either
    /// storage: pass it here or to
    /// [`with_durable_checkpointing`](Scenario::with_durable_checkpointing).
    ///
    /// # Examples
    ///
    /// ```
    /// use s2g_core::Scenario;
    /// use s2g_spe::CheckpointCfg;
    /// use s2g_sim::SimDuration;
    ///
    /// let mut sc = Scenario::new("incremental");
    /// sc.with_checkpointing(CheckpointCfg::exactly_once(SimDuration::from_secs(1)).incremental(8));
    /// ```
    pub fn with_checkpointing(&mut self, cfg: CheckpointCfg) -> &mut Self {
        self.checkpointing = Some(CheckpointSpec {
            cfg,
            backend: DurableStoreSpec::InMemory,
        });
        self
    }

    /// Enables checkpointing with snapshots persisted through the store
    /// server on `store_host`, paying simulated CPU/network cost per
    /// snapshot and a read round trip on every restore.
    pub fn with_durable_checkpointing(
        &mut self,
        cfg: CheckpointCfg,
        store_host: &str,
    ) -> &mut Self {
        self.checkpointing = Some(CheckpointSpec {
            cfg,
            backend: DurableStoreSpec::StoreOn {
                host: store_host.to_string(),
            },
        });
        self
    }

    /// Replicates every declared store server across `n` replicas: the
    /// declared host carries replica 0 (the initial primary) and replicas
    /// `1..n` land on auto-added hosts `<host>-r<i>`. The primary
    /// quorum-replicates every `Put`/`Delete`/`Insert` before acking — a
    /// write is durable iff a majority applied it — and a crashed primary
    /// fails over to the lowest surviving member after the group session
    /// timeout, so checkpoints and durable broker logs survive any minority
    /// of store crashes ([`FaultPlan::crash_restart_store`]).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use s2g_core::Scenario;
    /// use s2g_spe::CheckpointCfg;
    /// use s2g_sim::SimDuration;
    /// use s2g_store::StoreConfig;
    ///
    /// let mut sc = Scenario::new("replicated-store");
    /// sc.store("h6", StoreConfig::default());
    /// sc.with_replicated_store(3);
    /// sc.with_durable_checkpointing(
    ///     CheckpointCfg::exactly_once(SimDuration::from_secs(1)),
    ///     "h6",
    /// );
    /// ```
    pub fn with_replicated_store(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "a store group needs at least one replica");
        self.store_replication = n;
        self
    }

    /// Overrides the replication factor of **every** topic — the ones
    /// declared with [`topic`](Scenario::topic) *and* the shuffle topics
    /// parallel SPE jobs auto-declare — so a whole scenario can be run at
    /// RF=1 and RF=3 without touching each spec. The factor is capped at
    /// the declared broker count (a 2-broker cluster can't host 3
    /// replicas). Placement is rack-aware: each broker's rack is the host
    /// it was placed on, so replicas of one partition land on distinct
    /// hosts whenever enough hosts exist.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use s2g_core::Scenario;
    ///
    /// let mut sc = Scenario::new("replicated-partitions");
    /// sc.broker("h1").broker("h2").broker("h3");
    /// sc.with_replicated_partitions(3);
    /// ```
    pub fn with_replicated_partitions(&mut self, n: u32) -> &mut Self {
        assert!(n > 0, "replication factor must be at least 1");
        self.partition_replication = Some(n);
        self
    }

    /// Overrides the ack mode of **every** producer — standalone stubs and
    /// the embedded sink producers of topic-sink SPE jobs. With
    /// [`AckMode::All`] an append is only acknowledged once every in-sync
    /// replica has it, so a leader crash after the ack cannot lose the
    /// record.
    pub fn with_acks(&mut self, acks: AckMode) -> &mut Self {
        self.acks_override = Some(acks);
        self
    }

    /// Enables or disables producer batching for **every** producer —
    /// standalone stubs and embedded SPE sink producers. Batching is on by
    /// default; `with_batching(false)` degrades producers to one record per
    /// produce request (batch of 1, zero linger), which pays the full
    /// per-request broker CPU and RPC framing for every record — the
    /// baseline `s2g_bench::hotpath_sweep` contrasts batching with.
    pub fn with_batching(&mut self, on: bool) -> &mut Self {
        self.batching.disabled = !on;
        self
    }

    /// Overrides every producer's linger (the wait for more records before
    /// a partial batch is sent, Kafka `linger.ms`).
    pub fn linger_ms(&mut self, ms: u64) -> &mut Self {
        self.batching.linger = Some(SimDuration::from_millis(ms));
        self
    }

    /// Overrides every producer's batch byte threshold (Kafka
    /// `batch.size`): a batch is sealed as soon as this many record bytes
    /// accumulate, even before the linger elapses.
    pub fn batch_max_bytes(&mut self, bytes: usize) -> &mut Self {
        self.batching.max_bytes = Some(bytes);
        self
    }

    /// Enables batch compression on every producer: sealed batches carry
    /// fewer bytes on every hop (produce, replication, fetch) in exchange
    /// for compress CPU at the producer and decompress CPU at consumers.
    pub fn with_compression(&mut self, on: bool) -> &mut Self {
        self.batching.compression = Some(if on {
            Compression::Lz4
        } else {
            Compression::None
        });
        self
    }

    /// Turns every topic-sink SPE job into a checkpoint-aligned
    /// *transactional* sink and every consumer stub into a read-committed
    /// reader: sink output is staged under a transaction marker per
    /// checkpoint epoch and only becomes visible once the covering
    /// checkpoint is durable and the marker flips — end-to-end exactly-once
    /// into the sink topic, not just state-level exactly-once. A crash
    /// between the snapshot persist and the commit either rolls the
    /// transaction forward (the prepare completed) or aborts it and
    /// replays, so the committed output stream equals the fault-free run's.
    /// Requires exactly-once checkpointing on the jobs.
    pub fn with_transactional_sinks(&mut self) -> &mut Self {
        self.transactional_sinks = true;
        self
    }

    /// Enables keyed log compaction on every broker: the cleaner keeps only
    /// the latest committed record per key in sealed segments (Kafka's
    /// `cleanup.policy=compact`), deletes dead segment blobs through the
    /// log backend, and bounds restart replay by live keys instead of by
    /// history. Readers observe the same per-key final state as on the raw
    /// log.
    pub fn with_log_compaction(&mut self) -> &mut Self {
        self.log_compaction = true;
        self
    }

    /// Enables time- and/or size-based segment retention on every broker:
    /// sealed, fully committed segments older than `max_age` (or beyond
    /// `max_bytes` of retained data per partition) are dropped, the log
    /// start offset advances, and late readers get an out-of-range reset to
    /// the earliest retained record.
    pub fn with_log_retention(
        &mut self,
        max_age: Option<SimDuration>,
        max_bytes: Option<usize>,
    ) -> &mut Self {
        self.log_retention_age = max_age;
        self.log_retention_bytes = max_bytes;
        self
    }

    /// Gives every broker a recoverable log on an always-synced in-memory
    /// "local disk" outside the broker processes: a crashed-and-restarted
    /// broker ([`FaultPlan::crash_restart_broker`]) replays its segments,
    /// rebuilds its high watermarks and consumer-group offsets, and resumes
    /// serving with nothing lost. Persistence is instant and free — use
    /// [`with_durable_broker`](Scenario::with_durable_broker) to pay
    /// simulated cost through a store server instead.
    ///
    /// # Examples
    ///
    /// ```
    /// use s2g_broker::TopicSpec;
    /// use s2g_core::Scenario;
    /// use s2g_net::FaultPlan;
    /// use s2g_sim::{SimDuration, SimTime};
    ///
    /// let mut sc = Scenario::new("broker-bounce");
    /// sc.topic(TopicSpec::new("events")).with_recoverable_broker();
    /// sc.broker("h1");
    /// sc.faults(FaultPlan::new().crash_restart_broker(
    ///     0,
    ///     SimTime::from_secs(10),
    ///     SimDuration::from_secs(2),
    /// ));
    /// let result = sc.run()?;
    /// let recovery = result.report.brokers[0].recovery.expect("broker bounced");
    /// assert!(recovery.recovered_at.is_some());
    /// # Ok::<(), s2g_core::ScenarioError>(())
    /// ```
    pub fn with_recoverable_broker(&mut self) -> &mut Self {
        self.broker_durability = Some(DurableStoreSpec::InMemory);
        self
    }

    /// Gives every broker a durable log persisted through the store server
    /// on `store_host`: dirty segments and the committed-offset/metadata
    /// snapshot ship over the emulated network on every flush (paying the
    /// store's CPU cost), produce acknowledgements wait for the covering
    /// flush, and a restarted broker pays a read round trip per blob while
    /// it replays — the recovery-latency cost the report surfaces in
    /// [`BrokerRecoveryReport`].
    ///
    /// # Examples
    ///
    /// ```
    /// use s2g_broker::TopicSpec;
    /// use s2g_core::Scenario;
    /// use s2g_store::StoreConfig;
    ///
    /// let mut sc = Scenario::new("durable-broker");
    /// sc.topic(TopicSpec::new("events"));
    /// sc.broker("h1");
    /// sc.store("h2", StoreConfig::default());
    /// sc.with_durable_broker("h2");
    /// assert!(sc.run().is_ok());
    /// ```
    pub fn with_durable_broker(&mut self, store_host: &str) -> &mut Self {
        self.broker_durability = Some(DurableStoreSpec::StoreOn {
            host: store_host.to_string(),
        });
        self
    }

    /// Samples transmit and receive throughput of the named nodes
    /// (Fig. 6d) as the `host-<node>/tx_mbps` and `rx_mbps` series, one
    /// window per [`telemetry_interval`](Scenario::telemetry_interval).
    pub fn watch_throughput(&mut self, nodes: &[&str]) -> &mut Self {
        self.watch_tx = nodes.iter().map(|n| n.to_string()).collect();
        self
    }

    /// Turns the run's one sampler on or off. On (the default), a sampler
    /// process snapshots every registered metric — consumer lag,
    /// per-instance record counts, broker log sizes, checkpoint histograms
    /// — and the resource model (server memory and CPU utilization, host
    /// CPU occupancy, watched-port throughput) into per-metric time series
    /// every [`telemetry_interval`](Scenario::telemetry_interval),
    /// surfaced through [`RunReport::metric_series`] and
    /// [`RunResult::telemetry`]. Off, the run has no series at all, and
    /// the report's readers of one ([`RunReport::peak_mem_bytes`],
    /// [`RunReport::cpu_samples`]) panic. Sampling is a pure observer (no
    /// RNG, no messages), so same-seed runs are identical with it on or
    /// off.
    pub fn with_telemetry(&mut self, on: bool) -> &mut Self {
        self.telemetry = on;
        self
    }

    /// Sets the sampling cadence of every series (default 500 ms, the
    /// paper's `/proc` snapshot period).
    pub fn telemetry_interval(&mut self, d: SimDuration) -> &mut Self {
        self.telemetry_interval = d;
        self
    }

    /// Enables causal event tracing: typed spans for record lifecycle
    /// (produce, broker append, fetch, shuffle hop, operator batch, sink
    /// commit), checkpoint barriers and persists, transaction phases, and
    /// every fault-injection and recovery phase. Off by default (traces
    /// grow with traffic); export with
    /// [`RunResult::telemetry`]`.chrome_json()` and open the file in
    /// `chrome://tracing` or Perfetto.
    pub fn with_telemetry_trace(&mut self, on: bool) -> &mut Self {
        self.telemetry_trace = on;
        self
    }

    /// Keeps per-record identity for the run: every producer stub's
    /// [`ProducerReport::outcomes`] and [`ProducerReport::sent_index`], and
    /// one [`DeliveryRecord`](crate::DeliveryRecord) per delivery in
    /// [`MonitorCore::deliveries`]. Needed by
    /// [`RunResult::delivery_matrix`] and by `MonitorCore::{for_topic,
    /// for_consumer, latency_series, was_delivered}`, which panic naming
    /// this method on a run that did not opt in.
    ///
    /// Off by default: a run then holds one resident copy of each record
    /// (its log entry) and folds everything else — producer counters and
    /// ack latency, per-topic delivery counts and latency statistics — so
    /// `mean_latency`, `latency_stats`, `total_deliveries` and every
    /// `*.stats` work either way. Capture is a pure observer: same-seed
    /// runs are identical with it on or off.
    pub fn capture_records(&mut self) -> &mut Self {
        self.capture_records = true;
        self
    }

    /// Caps the total number of simulation events (livelock guard).
    pub fn event_limit(&mut self, limit: u64) -> &mut Self {
        self.event_limit = limit;
        self
    }

    /// Resolves the description into the effective scenario: every
    /// scenario-level override folded into the component configs (the
    /// precedence is stated in `docs/scenarios.md`), shuffle topics
    /// declared, stages, hosts and store replicas laid out, and every fault
    /// resolved to the component it acts on. This is the only derivation:
    /// [`analyze`](Scenario::analyze) judges the returned plan and
    /// [`run`](Scenario::run) builds the processes from it.
    fn resolve(&self) -> ScenarioFacts {
        let fold_producer = |cfg: &mut ProducerConfig| {
            if let Some(acks) = self.acks_override {
                cfg.acks = acks;
            }
            self.batching.apply(cfg);
        };
        let jobs: Vec<JobFacts> = self
            .spe_jobs
            .iter()
            .map(|(host, job)| {
                let mut cfg = job.cfg.clone();
                if cfg.checkpoint.is_none() {
                    cfg.checkpoint = self.checkpointing.as_ref().map(|spec| spec.cfg);
                }
                if self.transactional_sinks {
                    // Stage topic-sink (and shuffle) output under per-epoch
                    // transaction markers, and read upstream (possibly also
                    // transactional) topics with read-committed isolation.
                    cfg.transactional_sink = true;
                    cfg.consumer.read_committed = true;
                }
                fold_producer(&mut cfg.producer);
                job_facts(host, job, cfg)
            })
            .collect();
        // The override covers auto-declared topics too, capped at the
        // broker count so a small cluster still runs.
        let cap = (self.brokers.len() as u32).max(1);
        let eff_rf = |declared: u32| {
            self.partition_replication
                .map_or(declared, |rf| rf.min(cap))
        };
        let mut topics: Vec<TopicFacts> = self
            .topics
            .iter()
            .map(|t| TopicFacts {
                name: t.name.clone(),
                partitions: t.partitions,
                replication: eff_rf(t.replication),
                declared_replication: t.replication,
                shuffle: false,
                primary: t.primary,
            })
            .collect();
        // One shuffle topic per stage boundary of a parallel job, with
        // exactly `key_groups` partitions so the keyed partitioner *is* the
        // shuffle router.
        for job in jobs.iter().filter(|j| j.parallel) {
            topics.extend((1..job.n_stages).map(|s| TopicFacts {
                name: shuffle_topic(&job.name, s),
                partitions: job.key_groups,
                replication: eff_rf(1),
                declared_replication: 1,
                shuffle: true,
                primary: None,
            }));
        }
        let brokers: Vec<BrokerFacts> = self
            .brokers
            .iter()
            .map(|(host, cfg)| {
                // A per-broker config that already enables a cleaning
                // policy keeps it.
                let mut cfg = cfg.clone();
                cfg.log_compaction |= self.log_compaction;
                cfg.log_retention_age = cfg.log_retention_age.or(self.log_retention_age);
                cfg.log_retention_bytes = cfg.log_retention_bytes.or(self.log_retention_bytes);
                BrokerFacts {
                    host: host.clone(),
                    cfg,
                }
            })
            .collect();
        let producers: Vec<ProducerFacts> = self
            .producers
            .iter()
            .enumerate()
            .map(|(i, (host, src, cfg))| {
                let mut cfg = cfg.clone();
                fold_producer(&mut cfg);
                let (min_interval, max_payload) = source_hints(src);
                ProducerFacts {
                    name: format!("producer-{i}"),
                    host: host.clone(),
                    topics: src.topics(),
                    cfg,
                    min_interval,
                    max_payload,
                }
            })
            .collect();
        let consumers: Vec<ConsumerFacts> = self
            .consumers
            .iter()
            .enumerate()
            .map(|(i, (host, cfg, topics, _))| {
                let name = format!("consumer-{i}");
                let mut cfg = cfg.clone();
                // Observing a transactional sink's exactly-once output
                // requires read-committed isolation on the reader.
                cfg.read_committed |= self.transactional_sinks;
                if cfg.group_membership && cfg.group_member_id.is_empty() {
                    // A stable member id makes sticky assignment stick
                    // across this stub's crash/restart.
                    cfg.group_member_id = name.clone();
                }
                ConsumerFacts {
                    name,
                    host: host.clone(),
                    topics: topics.clone(),
                    cfg,
                }
            })
            .collect();
        let store_host = |spec: Option<&DurableStoreSpec>| match spec {
            Some(DurableStoreSpec::StoreOn { host }) => Some(host.clone()),
            _ => None,
        };
        let mut plan = ScenarioFacts {
            name: self.name.clone(),
            duration: self.duration,
            link_latency: self.default_link.latency,
            controller: self.controller_cfg.clone(),
            topics,
            partition_replication: self.partition_replication,
            brokers,
            store_hosts: self.stores.iter().map(|(h, _)| h.clone()).collect(),
            store_replication: self.store_replication,
            store_replicas: self.store_replicas(),
            producers,
            consumers,
            jobs,
            faults: Vec::new(),
            process_targets: Vec::new(),
            topology_hosts: self
                .explicit_topology
                .as_ref()
                .map(|t| t.nodes().map(|(_, n)| n.name.clone()).collect()),
            required_hosts: Vec::new(),
            controller_hosts: self.controller_hosts(),
            host_overrides: (self.host_links.keys().map(|h| ("host_link", h)))
                .chain(self.host_cpu_pct.keys().map(|h| ("host_cpu_percentage", h)))
                .map(|(knob, host)| (knob, host.clone()))
                .collect(),
            checkpoint_store_host: store_host(self.checkpointing.as_ref().map(|c| &c.backend)),
            durability_store_host: store_host(self.broker_durability.as_ref()),
            transactional_sinks: self.transactional_sinks,
            other_periods: self.other_periods(),
        };
        // The layout: derived from the components resolved above.
        plan.required_hosts = required_hosts(&plan);
        plan.process_targets = process_targets(&plan);
        plan.faults = resolve_faults(&self.faults, &plan);
        plan
    }

    fn controller_hosts(&self) -> Vec<String> {
        let n = match self.mode {
            CoordinationMode::Zk => 1,
            CoordinationMode::Kraft => 3,
        };
        (1..=n).map(|i| format!("ctl{i}")).collect()
    }

    /// Every store replica, flattened: a declaration's host carries replica
    /// 0 and replicas `1..n` land on auto-added `<host>-r<i>` hosts.
    fn store_replicas(&self) -> Vec<StoreReplicaFacts> {
        let replicas = |(group, (host, _)): (usize, &(String, StoreConfig))| {
            let host = host.clone();
            (0..self.store_replication).map(move |i| StoreReplicaFacts {
                group,
                replica: i as u32,
                host: match i {
                    0 => host.clone(),
                    _ => format!("{host}-r{i}"),
                },
            })
        };
        self.stores.iter().enumerate().flat_map(replicas).collect()
    }

    /// The self-re-arming periods that live on the scenario itself rather
    /// than in a component config the facts carry.
    fn other_periods(&self) -> Vec<(String, &'static str, SimDuration)> {
        let mut periods = Vec::new();
        if self.telemetry {
            let sampler = "the telemetry sampler".to_string();
            periods.push((sampler, "telemetry_interval", self.telemetry_interval));
        }
        for (host, cfg) in &self.stores {
            let owner = format!("store on `{host}`");
            // An unreplicated store has no group to heartbeat to.
            if self.store_replication > 1 {
                let heartbeat = cfg.group_heartbeat_interval;
                periods.push((owner.clone(), "group_heartbeat_interval", heartbeat));
            }
            periods.push((owner, "background_interval", cfg.background_interval));
        }
        periods
    }

    /// Runs the full static feasibility ruleset over this scenario without
    /// simulating anything: every `S2G0xx` diagnostic the description
    /// triggers, `Deny` and `Warn` alike (`docs/analysis.md` has the
    /// catalog). [`Scenario::run`] refuses to start while `Deny`
    /// diagnostics are present, unless [`Scenario::allow_deny_diagnostics`]
    /// was called.
    pub fn analyze(&self) -> AnalysisReport {
        analyze_facts(&self.resolve())
    }

    /// Validates, builds, runs, and reports.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] when the description is inconsistent.
    pub fn run(self) -> Result<RunResult, ScenarioError> {
        let plan = self.resolve();
        let report = analyze_facts(&plan);
        if report.has_deny() && !self.allow_deny {
            return Err(ScenarioError::from_report(&report));
        }
        let mut runtime = Runtime::build(self, plan);
        runtime.drive();
        Ok(runtime.harvest())
    }
}

/// One job's resolved facts: its effective `cfg` plus the stage layout —
/// the classic one-worker layout is the degenerate 1x1 case.
fn job_facts(host: &str, job: &SpeJobSpec, cfg: SpeConfig) -> JobFacts {
    let parallel = job.is_parallel();
    // Probing the stage count builds a throwaway plan, so classic jobs
    // (one stage by definition) skip it.
    let n_stages = if parallel {
        *job.stage_count.get_or_init(|| (job.plan)().stage_count())
    } else {
        1
    };
    let stage_par: Vec<usize> = (0..n_stages)
        .map(|s| if parallel { job.par_of(s) } else { 1 })
        .collect();
    let (sink_topic, sink_store_host) = match &job.sink {
        SpeSinkSpec::Topic(t) => (Some(t.clone()), None),
        SpeSinkSpec::StoreOn { host, .. } => (None, Some(host.clone())),
        SpeSinkSpec::Collect => (None, None),
    };
    JobFacts {
        name: job.name.clone(),
        host: host.to_string(),
        sources: job.sources.clone(),
        sink_topic,
        sink_store_host,
        cfg,
        parallel,
        n_stages,
        // The maximum covers both the initial parallelism and any rescale
        // target, so hosts are provisioned for every instance that may
        // ever exist.
        max_per: stage_par
            .iter()
            .map(|p| (*p).max(job.rescale_on_restart.unwrap_or(0)))
            .collect(),
        stage_par,
        key_groups: job.key_groups,
        rescale: job.rescale_on_restart,
    }
}

/// The process name of instance `index` of `stage`; a classic job's only
/// worker keeps the job name.
fn worker_name(job: &JobFacts, stage: usize, index: usize) -> String {
    if job.parallel {
        instance_name(&job.name, stage, index)
    } else {
        job.name.clone()
    }
}

/// The host a worker runs on: a classic job's declared host, or an
/// auto-added per-instance host, so each instance gets its own access link
/// and CPU — the point of scaling out.
fn worker_host(job: &JobFacts, stage: usize, index: usize) -> String {
    if job.parallel {
        format!("{}-{stage}-{index}", job.host)
    } else {
        job.host.clone()
    }
}

/// Every `(stage, instance)` a job may ever run, in spawn order.
fn max_instances(job: &JobFacts) -> impl Iterator<Item = (usize, usize)> + '_ {
    (job.max_per.iter().enumerate()).flat_map(|(s, max)| (0..*max).map(move |i| (s, i)))
}

/// The hosts every component needs, in spawn order, then the controllers'.
fn required_hosts(plan: &ScenarioFacts) -> Vec<String> {
    let workers = |job| max_instances(job).map(move |(s, i)| worker_host(job, s, i));
    let component_hosts = (plan.brokers.iter().map(|b| b.host.clone()))
        .chain(plan.store_replicas.iter().map(|r| r.host.clone()))
        .chain(plan.jobs.iter().flat_map(workers))
        .chain(plan.producers.iter().map(|p| p.host.clone()))
        .chain(plan.consumers.iter().map(|c| c.host.clone()));
    let mut hosts: Vec<String> = Vec::new();
    for host in component_hosts {
        if !hosts.contains(&host) {
            hosts.push(host);
        }
    }
    hosts.extend(plan.controller_hosts.iter().cloned());
    hosts
}

/// Every process name a fault may target, with what it resolves to: job
/// names, `job/stage/instance`, the `job/instance` last-stage shorthand,
/// and the `producer-<idx>`/`consumer-<idx>` stubs. On a name clash the
/// first entry wins.
fn process_targets(plan: &ScenarioFacts) -> Vec<(String, ComponentRef)> {
    let mut targets = Vec::new();
    for (j, job) in plan.jobs.iter().enumerate() {
        targets.push((job.name.clone(), ComponentRef::Job(j)));
        if job.parallel {
            targets.extend(max_instances(job).map(|(s, i)| {
                (
                    instance_name(&job.name, s, i),
                    ComponentRef::Instance(j, s, i),
                )
            }));
            // The `job/instance` shorthand targets the last (keyed) stage.
            let last = job.n_stages - 1;
            targets.extend((0..job.max_per[last]).map(|i| {
                let shorthand = format!("{}/{i}", job.name);
                (shorthand, ComponentRef::Instance(j, last, i))
            }));
        }
    }
    let producers = plan.producers.iter().enumerate();
    targets.extend(producers.map(|(i, p)| (p.name.clone(), ComponentRef::Producer(i))));
    let consumers = plan.consumers.iter().enumerate();
    targets.extend(consumers.map(|(i, c)| (c.name.clone(), ComponentRef::Consumer(i))));
    targets
}

/// Normalizes the fault plan per target and resolves each process-level
/// event to the component it acts on (`None` when it names nothing).
fn resolve_faults(faults: &FaultPlan, plan: &ScenarioFacts) -> Vec<FaultFacts> {
    use FaultKind::{Crash, Other, Restart};
    let net = |label: String, kind| (FaultTarget::Net(label), kind);
    let events = faults.events().iter().map(|(at, action)| {
        let (target, kind) = match action {
            FaultAction::CrashProcess(n) => (FaultTarget::Process(n.clone()), Crash),
            FaultAction::RestartProcess(n) => (FaultTarget::Process(n.clone()), Restart),
            FaultAction::CrashBroker(b) => (FaultTarget::Broker(*b), Crash),
            FaultAction::RestartBroker(b) => (FaultTarget::Broker(*b), Restart),
            FaultAction::CrashStore(r) => (FaultTarget::Store(*r), Crash),
            FaultAction::RestartStore(r) => (FaultTarget::Store(*r), Restart),
            FaultAction::Disconnect(h) | FaultAction::NodeDown(h) => net(h.clone(), Crash),
            FaultAction::Reconnect(h) | FaultAction::NodeUp(h) => net(h.clone(), Restart),
            FaultAction::LinkDown(a, b) => net(format!("{a}-{b}"), Crash),
            FaultAction::LinkUp(a, b) => net(format!("{a}-{b}"), Restart),
            FaultAction::SetLoss(a, b, _) | FaultAction::SetLatency(a, b, _) => {
                net(format!("{a}-{b}"), Other)
            }
            FaultAction::RecomputeRoutes => net("routes".into(), Other),
        };
        let component = match &target {
            FaultTarget::Process(name) => (plan.process_targets.iter())
                .find(|(n, _)| n == name)
                .map(|(_, c)| *c),
            FaultTarget::Broker(b) => {
                let b = *b as usize;
                (b < plan.brokers.len()).then_some(ComponentRef::Broker(b))
            }
            FaultTarget::Store(r) => {
                let r = *r as usize;
                (r < plan.store_replicas.len()).then_some(ComponentRef::Store(r))
            }
            FaultTarget::Net(_) => None,
        };
        FaultFacts {
            at: *at,
            target,
            kind,
            component,
        }
    });
    events.collect()
}

/// Scenario-wide batching overrides applied to every producer config
/// (standalone stubs and embedded SPE sink producers).
#[derive(Debug, Clone, Copy, Default)]
struct BatchingOverrides {
    /// `with_batching(false)`: collapse to one record per produce request.
    disabled: bool,
    linger: Option<SimDuration>,
    max_bytes: Option<usize>,
    compression: Option<Compression>,
}

impl BatchingOverrides {
    fn apply(&self, cfg: &mut ProducerConfig) {
        if let Some(l) = self.linger {
            cfg.linger = l;
        }
        if let Some(b) = self.max_bytes {
            cfg.batch_max_bytes = b;
        }
        if let Some(c) = self.compression {
            cfg.compression = c;
        }
        if self.disabled {
            // Per-record requests: every record pays the full request
            // overhead. Compression is pointless on batches of one.
            cfg.batch_max_records = 1;
            cfg.batch_max_bytes = 1;
            cfg.linger = SimDuration::ZERO;
            cfg.compression = Compression::None;
        }
    }
}

impl fmt::Debug for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .field("brokers", &self.brokers.len())
            .field("producers", &self.producers.len())
            .field("consumers", &self.consumers.len())
            .field("spe_jobs", &self.spe_jobs.len())
            .field("topics", &self.topics.len())
            .finish()
    }
}
