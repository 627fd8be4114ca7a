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
    analyze as analyze_facts, AnalysisReport, BrokerFacts, ConsumerFacts, Diagnostic, FaultFacts,
    FaultKind, FaultTarget, JobFacts, ProducerFacts, ScenarioFacts, TopicFacts,
};
use s2g_broker::{
    log_store, Broker, BrokerConfig, BrokerRecoveryInfo, BrokerStats, CollectingSink,
    ConsumerClient, ConsumerConfig, ConsumerProcess, ConsumerStats, ControllerConfig,
    CoordinationMode, DataSink, DataSource, DurableLogBackend, FileLinesSource, InMemoryLogBackend,
    KraftController, LogBackend, LogStoreHandle, PoissonSource, ProduceOutcome, ProducerClient,
    ProducerConfig, ProducerProcess, ProducerStats, RandomTopicSource, RateSource, SentRecord,
    TopicSpec, ZkController,
};
use s2g_net::{
    FaultAction, FaultInjector, FaultPlan, LinkSpec, NetHandle, NetTransport, Network,
    NetworkConfig, Topology, TxSampler, TxSeries,
};
use s2g_proto::{AckMode, BrokerId, Compression, ProducerId, TopicPartition};
use s2g_sim::{
    CpuHandle, HostCpu, LedgerHandle, MemLedger, MemSlot, ProcessId, Sim, SimDuration, SimStats,
    SimTime,
};
use s2g_spe::{
    snapshot_store, BatchMetric, CheckpointCfg, CheckpointStats, DurableBackend, Event,
    InMemoryBackend, Plan, SnapshotStoreHandle, SpeConfig, SpeSink, SpeWorker, StageInstanceCfg,
    StateBackend,
};
use s2g_store::{StoreConfig, StoreServer};
use s2g_telemetry::{MetricSeries, SummaryStats, Telemetry};

use crate::monitor::{DeliveryMatrix, MonitorCore, MonitorHandle, MonitoredSink};
use crate::resources::{cpu_utilization_series, MemModel, MemSampler, ServerSpec};

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

/// Where scenario-level checkpoints are stored.
#[derive(Debug, Clone)]
pub enum CheckpointBackendSpec {
    /// Snapshots on the orchestrator's heap, outside every worker's failure
    /// domain: instant and free, like a job-manager heap.
    InMemory,
    /// Snapshots persisted through the store server on the named host,
    /// paying simulated CPU and network cost per snapshot and per restore.
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
    pub backend: CheckpointBackendSpec,
}

/// Where every broker's log segments and meta blob are persisted, making
/// broker crash/restart survivable.
#[derive(Debug, Clone)]
pub enum BrokerDurabilitySpec {
    /// Segments on a shared map outside the broker processes — an
    /// always-synced local disk: instant, free, survives broker crashes.
    InMemory,
    /// Segments persisted through the store server on the named host,
    /// paying simulated CPU/network cost per flush; produce acks wait for
    /// the covering flush (fsync-before-ack).
    StoreOn {
        /// Host carrying the store server.
        host: String,
    },
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
    broker_durability: Option<BrokerDurabilitySpec>,
    log_compaction: bool,
    log_retention_age: Option<SimDuration>,
    log_retention_bytes: Option<usize>,
    watch_tx: Vec<String>,
    tracing: bool,
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
            tracing: false,
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
    pub fn with_checkpointing(&mut self, cfg: CheckpointCfg) -> &mut Self {
        self.checkpointing = Some(CheckpointSpec {
            cfg,
            backend: CheckpointBackendSpec::InMemory,
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
            backend: CheckpointBackendSpec::StoreOn {
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
    /// [`AckMode::All`] an append is only acknowledged once the in-sync
    /// replicas (minus each broker's configured `acks_all_slack`) have it,
    /// so a leader crash after the ack cannot lose the record.
    pub fn with_acks(&mut self, acks: AckMode) -> &mut Self {
        self.acks_override = Some(acks);
        self
    }

    /// Enables or disables producer batching for **every** producer —
    /// standalone stubs and embedded SPE sink producers. Batching is on by
    /// default; `with_batching(false)` degrades producers to one record per
    /// produce request (batch of 1, zero linger), which pays the full
    /// per-request broker CPU and RPC framing for every record — the
    /// baseline the `hotpath` micro-bench compares against.
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

    /// Enables *incremental* checkpointing for every SPE job: after each
    /// full base snapshot, captures ship only the keys/windows touched
    /// since the previous capture, so snapshot bytes scale with churn
    /// instead of with total state. After `max_delta_chain` deltas the next
    /// capture is forced to re-base, bounding restore work. Composes with
    /// either backend — call this instead of
    /// [`with_checkpointing`](Scenario::with_checkpointing), or pass an
    /// [`incremental`](CheckpointCfg::incremental) config to
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
    /// sc.with_incremental_checkpointing(
    ///     CheckpointCfg::exactly_once(SimDuration::from_secs(1)),
    ///     8,
    /// );
    /// ```
    pub fn with_incremental_checkpointing(
        &mut self,
        cfg: CheckpointCfg,
        max_delta_chain: u32,
    ) -> &mut Self {
        self.checkpointing = Some(CheckpointSpec {
            cfg: cfg.incremental(max_delta_chain),
            backend: CheckpointBackendSpec::InMemory,
        });
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
        self.broker_durability = Some(BrokerDurabilitySpec::InMemory);
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
        self.broker_durability = Some(BrokerDurabilitySpec::StoreOn {
            host: store_host.to_string(),
        });
        self
    }

    /// Samples per-second transmit throughput of the named nodes (Fig. 6d).
    pub fn watch_throughput(&mut self, nodes: &[&str]) -> &mut Self {
        self.watch_tx = nodes.iter().map(|n| n.to_string()).collect();
        self
    }

    /// Enables trace collection.
    pub fn tracing(&mut self, on: bool) -> &mut Self {
        self.tracing = on;
        self
    }

    /// Turns the always-on metrics registry's periodic sampling on or off.
    /// On (the default), a sampler process snapshots every registered
    /// metric — consumer lag, per-instance record counts, broker log
    /// sizes, checkpoint histograms, host CPU occupancy — into per-metric
    /// time series every [`telemetry_interval`](Scenario::telemetry_interval),
    /// surfaced through [`RunReport::metric_series`] and
    /// [`RunResult::telemetry`]. Sampling is a pure observer (no RNG, no
    /// messages), so same-seed runs are identical with it on or off.
    pub fn with_telemetry(&mut self, on: bool) -> &mut Self {
        self.telemetry = on;
        self
    }

    /// Sets the metric-sampling cadence (default 500 ms).
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

    fn controller_hosts(&self) -> Vec<String> {
        let n = match self.mode {
            CoordinationMode::Zk => 1,
            CoordinationMode::Kraft => 3,
        };
        (1..=n).map(|i| format!("ctl{i}")).collect()
    }

    /// Hosts carrying one store declaration's replicas: the declared host
    /// first, then the auto-added `-r<i>` hosts.
    fn store_replica_hosts(&self, host: &str) -> Vec<String> {
        (0..self.store_replication)
            .map(|i| {
                if i == 0 {
                    host.to_string()
                } else {
                    format!("{host}-r{i}")
                }
            })
            .collect()
    }

    /// The host one parallel stage instance runs on (auto-added, so each
    /// instance gets its own access link and CPU — the point of scaling
    /// out).
    fn instance_host(host: &str, stage: usize, index: usize) -> String {
        format!("{host}-{stage}-{index}")
    }

    /// `(stage count, per-stage maximum instance count)` of one job —
    /// maximum covers both the initial parallelism and any rescale target,
    /// so hosts are provisioned for every instance that may ever exist.
    fn job_stage_layout(job: &SpeJobSpec) -> (usize, Vec<usize>) {
        let n_stages = *job.stage_count.get_or_init(|| (job.plan)().stage_count());
        let max_per: Vec<usize> = (0..n_stages)
            .map(|s| job.par_of(s).max(job.rescale_on_restart.unwrap_or(0)))
            .collect();
        (n_stages, max_per)
    }

    fn component_hosts(&self) -> Vec<String> {
        let mut seen = Vec::new();
        let mut push = |h: &String| {
            if !seen.contains(h) {
                seen.push(h.clone());
            }
        };
        for (h, _) in &self.brokers {
            push(h);
        }
        for (h, _) in &self.stores {
            for rh in self.store_replica_hosts(h) {
                push(&rh);
            }
        }
        for (h, job) in &self.spe_jobs {
            if job.is_parallel() {
                let (n_stages, max_per) = Self::job_stage_layout(job);
                for (s, max) in max_per.iter().enumerate().take(n_stages) {
                    for i in 0..*max {
                        push(&Self::instance_host(h, s, i));
                    }
                }
            } else {
                push(h);
            }
        }
        for (h, _, _) in &self.producers {
            push(h);
        }
        for (h, _, _, _) in &self.consumers {
            push(h);
        }
        seen
    }

    /// Flattens the scenario into the plain-data facts the analyzer
    /// reads: effective configs (scenario-level overrides applied, exactly
    /// as `run` would), the would-be shuffle topics, the legal fault
    /// targets, and the fault plan normalized per target.
    fn build_facts(&self) -> ScenarioFacts {
        let cap = (self.brokers.len() as u32).max(1);
        let eff_rf = |declared: u32| match self.partition_replication {
            Some(rf) => rf.min(cap),
            None => declared,
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
            })
            .collect();
        for (_, job) in &self.spe_jobs {
            if job.is_parallel() {
                let (n_stages, _) = Self::job_stage_layout(job);
                for s in 1..n_stages {
                    topics.push(TopicFacts {
                        name: shuffle_topic(&job.name, s),
                        partitions: job.key_groups,
                        replication: eff_rf(1),
                        declared_replication: 1,
                        shuffle: true,
                    });
                }
            }
        }
        let brokers = self
            .brokers
            .iter()
            .map(|(host, cfg)| {
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
        let mut controller = self.controller_cfg.clone();
        controller.mode = self.mode;
        let producers = self
            .producers
            .iter()
            .enumerate()
            .map(|(i, (_, src, cfg))| {
                let mut cfg = cfg.clone();
                if let Some(acks) = self.acks_override {
                    cfg.acks = acks;
                }
                self.batching.apply(&mut cfg);
                let (min_interval, max_payload) = source_hints(src);
                ProducerFacts {
                    name: format!("producer-{i}"),
                    topics: src.topics(),
                    cfg,
                    min_interval,
                    max_payload,
                }
            })
            .collect();
        let consumers = self
            .consumers
            .iter()
            .enumerate()
            .map(|(i, (_, cfg, topics, _))| {
                let mut cfg = cfg.clone();
                if self.transactional_sinks {
                    cfg.read_committed = true;
                }
                ConsumerFacts {
                    name: format!("consumer-{i}"),
                    topics: topics.clone(),
                    cfg,
                }
            })
            .collect();
        let jobs = self
            .spe_jobs
            .iter()
            .map(|(_, job)| {
                let mut cfg = job.cfg.clone();
                if cfg.checkpoint.is_none() {
                    if let Some(spec) = &self.checkpointing {
                        cfg.checkpoint = Some(spec.cfg);
                    }
                }
                if self.transactional_sinks {
                    cfg.transactional_sink = true;
                    cfg.consumer.read_committed = true;
                }
                if let Some(acks) = self.acks_override {
                    cfg.producer.acks = acks;
                }
                self.batching.apply(&mut cfg.producer);
                let parallel = job.is_parallel();
                let (n_stages, max_per) = if parallel {
                    Self::job_stage_layout(job)
                } else {
                    (1, vec![1])
                };
                let (sink_topic, sink_store_host) = match &job.sink {
                    SpeSinkSpec::Topic(t) => (Some(t.clone()), None),
                    SpeSinkSpec::StoreOn { host, .. } => (None, Some(host.clone())),
                    SpeSinkSpec::Collect => (None, None),
                };
                JobFacts {
                    name: job.name.clone(),
                    sources: job.sources.clone(),
                    sink_topic,
                    sink_store_host,
                    cfg,
                    parallel,
                    n_stages,
                    max_per,
                    key_groups: job.key_groups,
                    rescale: job.rescale_on_restart,
                }
            })
            .collect();
        let faults = self
            .faults
            .events()
            .iter()
            .map(|(at, action)| {
                let (target, kind) = match action {
                    FaultAction::CrashProcess(n) => {
                        (FaultTarget::Process(n.clone()), FaultKind::Crash)
                    }
                    FaultAction::RestartProcess(n) => {
                        (FaultTarget::Process(n.clone()), FaultKind::Restart)
                    }
                    FaultAction::CrashBroker(b) => (FaultTarget::Broker(*b), FaultKind::Crash),
                    FaultAction::RestartBroker(b) => (FaultTarget::Broker(*b), FaultKind::Restart),
                    FaultAction::CrashStore(r) => (FaultTarget::Store(*r), FaultKind::Crash),
                    FaultAction::RestartStore(r) => (FaultTarget::Store(*r), FaultKind::Restart),
                    FaultAction::Disconnect(h) | FaultAction::NodeDown(h) => {
                        (FaultTarget::Net(h.clone()), FaultKind::Crash)
                    }
                    FaultAction::Reconnect(h) | FaultAction::NodeUp(h) => {
                        (FaultTarget::Net(h.clone()), FaultKind::Restart)
                    }
                    FaultAction::LinkDown(a, b) => {
                        (FaultTarget::Net(format!("{a}-{b}")), FaultKind::Crash)
                    }
                    FaultAction::LinkUp(a, b) => {
                        (FaultTarget::Net(format!("{a}-{b}")), FaultKind::Restart)
                    }
                    FaultAction::SetLoss(a, b, _) | FaultAction::SetLatency(a, b, _) => {
                        (FaultTarget::Net(format!("{a}-{b}")), FaultKind::Other)
                    }
                    FaultAction::RecomputeRoutes => {
                        (FaultTarget::Net("routes".into()), FaultKind::Other)
                    }
                };
                FaultFacts {
                    at: *at,
                    target,
                    kind,
                }
            })
            .collect();
        let mut valid_process_targets: Vec<String> = Vec::new();
        for (_, job) in &self.spe_jobs {
            valid_process_targets.push(job.name.clone());
            if job.is_parallel() {
                let (n_stages, max_per) = Self::job_stage_layout(job);
                for (s, max) in max_per.iter().enumerate().take(n_stages) {
                    for i in 0..*max {
                        valid_process_targets.push(instance_name(&job.name, s, i));
                    }
                }
                // The `job/instance` shorthand targets the last stage.
                if let Some(last) = max_per.last() {
                    for i in 0..*last {
                        valid_process_targets.push(format!("{}/{i}", job.name));
                    }
                }
            }
        }
        for i in 0..self.producers.len() {
            valid_process_targets.push(format!("producer-{i}"));
        }
        for i in 0..self.consumers.len() {
            valid_process_targets.push(format!("consumer-{i}"));
        }
        let topology_hosts = self
            .explicit_topology
            .as_ref()
            .map(|t| t.nodes().map(|(_, n)| n.name.clone()).collect());
        let required_hosts: Vec<String> = self
            .component_hosts()
            .into_iter()
            .chain(self.controller_hosts())
            .collect();
        ScenarioFacts {
            name: self.name.clone(),
            duration: self.duration,
            link_latency: self.default_link.latency,
            controller,
            topics,
            partition_replication: self.partition_replication,
            brokers,
            store_hosts: self.stores.iter().map(|(h, _)| h.clone()).collect(),
            store_replication: self.store_replication,
            producers,
            consumers,
            jobs,
            faults,
            valid_process_targets,
            topology_hosts,
            required_hosts,
            checkpoint_interval: self.checkpointing.as_ref().map(|s| s.cfg.interval),
            checkpoint_store_host: match &self.checkpointing {
                Some(CheckpointSpec {
                    backend: CheckpointBackendSpec::StoreOn { host },
                    ..
                }) => Some(host.clone()),
                _ => None,
            },
            durability_store_host: match &self.broker_durability {
                Some(BrokerDurabilitySpec::StoreOn { host }) => Some(host.clone()),
                _ => None,
            },
            log_retention_age: self.log_retention_age,
            transactional_sinks: self.transactional_sinks,
        }
    }

    /// Runs the full static feasibility ruleset over this scenario without
    /// simulating anything: every `S2G0xx` diagnostic the description
    /// triggers, `Deny` and `Warn` alike (`docs/analysis.md` has the
    /// catalog). [`Scenario::run`] refuses to start while `Deny`
    /// diagnostics are present, unless [`Scenario::allow_deny_diagnostics`]
    /// was called.
    pub fn analyze(&self) -> AnalysisReport {
        analyze_facts(&self.build_facts())
    }

    fn validate(&self) -> Result<(), ScenarioError> {
        let report = self.analyze();
        if report.has_deny() && !self.allow_deny {
            return Err(ScenarioError::from_report(&report));
        }
        Ok(())
    }

    fn build_topology(&self) -> Topology {
        if let Some(t) = &self.explicit_topology {
            return t.clone();
        }
        let mut topo = Topology::new();
        topo.add_switch("s1").expect("fresh topology");
        for host in self
            .component_hosts()
            .iter()
            .chain(&self.controller_hosts())
        {
            if topo.lookup(host).is_some() {
                continue;
            }
            topo.add_host(host.as_str()).expect("unique hosts");
            let spec = self
                .host_links
                .get(host)
                .copied()
                .unwrap_or(self.default_link);
            topo.add_link(host, "s1", spec).expect("valid link");
        }
        topo
    }

    /// Validates, builds, runs, and reports.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioError`] when the description is inconsistent.
    pub fn run(mut self) -> Result<RunResult, ScenarioError> {
        self.validate()?;
        // Baseline for the zero-copy regression gate: any delta over the
        // run means some path deep-copied a shared RecordBatch.
        let batch_copies_before = s2g_proto::shared_batch_copies();
        // Auto-declare the intermediate shuffle topics of parallel jobs
        // (before controllers are built — they own topic creation). One
        // topic per stage boundary, with exactly `key_groups` partitions so
        // the keyed partitioner *is* the shuffle router.
        let mut shuffle_specs: Vec<TopicSpec> = Vec::new();
        for (_, job) in &self.spe_jobs {
            if job.is_parallel() {
                let (n_stages, _) = Self::job_stage_layout(job);
                for s in 1..n_stages {
                    shuffle_specs.push(
                        TopicSpec::new(shuffle_topic(&job.name, s)).partitions(job.key_groups),
                    );
                }
            }
        }
        self.topics.extend(shuffle_specs);
        if let Some(rf) = self.partition_replication {
            // Applied after shuffle-topic finalization so auto-declared
            // topics replicate too; capped at the broker count so a small
            // cluster still runs.
            let cap = (self.brokers.len() as u32).max(1);
            for t in &mut self.topics {
                t.replication = rf.min(cap);
            }
        }
        let duration = self.duration;
        let capture = self.capture_records;
        let topo = self.build_topology();
        let n_switches = topo
            .nodes()
            .filter(|(_, n)| n.kind == s2g_net::NodeKind::Switch)
            .count();
        let net = Network::with_config(topo, self.net_cfg).into_handle();
        let mut sim = Sim::new(self.seed);
        sim.set_transport(Box::new(NetTransport(net.clone())));
        sim.set_tracing(self.tracing);
        sim.set_event_limit(self.event_limit);

        // Run-wide telemetry: one shared registry/series/tracer handle every
        // component records into. Created before the components so build and
        // respawn recipes alike attach the same handle.
        let tele = Telemetry::new();
        tele.set_trace_enabled(self.telemetry_trace);

        // CPU per host; ledger for memory.
        let mut cpus: BTreeMap<String, CpuHandle> = BTreeMap::new();
        {
            let n = net.borrow();
            for (_, node) in n.topology().nodes() {
                if node.kind == s2g_net::NodeKind::Host {
                    let speed = self.host_cpu_pct.get(&node.name).copied().unwrap_or(100.0) / 100.0;
                    cpus.insert(
                        node.name.clone(),
                        HostCpu::shared(node.name.clone(), self.server.cores, speed),
                    );
                }
            }
        }
        let baseline = self.mem_model.os_base + self.mem_model.per_switch * n_switches as u64;
        let ledger: LedgerHandle = MemLedger::new(baseline).into_handle();

        // Deterministic pid layout.
        let ctrl_hosts = self.controller_hosts();
        let n_ctrl = ctrl_hosts.len() as u32;
        let nb = self.brokers.len() as u32;
        let controller_pids: Vec<ProcessId> = (0..n_ctrl).map(ProcessId).collect();
        let broker_pids: Vec<ProcessId> = (n_ctrl..n_ctrl + nb).map(ProcessId).collect();
        let brokers_btree: BTreeMap<BrokerId, ProcessId> = (0..nb)
            .map(|i| (BrokerId(i), broker_pids[i as usize]))
            .collect();
        let brokers_hash: BTreeMap<BrokerId, ProcessId> =
            brokers_btree.iter().map(|(k, v)| (*k, *v)).collect();
        let mut placements: Vec<(ProcessId, String)> = Vec::new();

        // Controllers. Each broker's rack is the host it is placed on, so
        // topic creation spreads a partition's replicas across hosts before
        // reusing one (Kafka's `broker.rack`).
        let racks: BTreeMap<BrokerId, String> = self
            .brokers
            .iter()
            .enumerate()
            .map(|(i, (host, _))| (BrokerId(i as u32), host.clone()))
            .collect();
        match self.mode {
            CoordinationMode::Zk => {
                let mut c = self.controller_cfg.clone();
                c.mode = CoordinationMode::Zk;
                let pid = sim.spawn(Box::new(ZkController::with_racks(
                    c,
                    brokers_btree.clone(),
                    &self.topics,
                    &racks,
                )));
                debug_assert_eq!(pid, controller_pids[0]);
                placements.push((pid, ctrl_hosts[0].clone()));
                let slot = ledger
                    .borrow_mut()
                    .register("zk-controller", self.mem_model.controller);
                let _ = slot;
            }
            CoordinationMode::Kraft => {
                let quorum: BTreeMap<BrokerId, ProcessId> = (0..n_ctrl)
                    .map(|i| (BrokerId(100_000 + i), controller_pids[i as usize]))
                    .collect();
                for i in 0..n_ctrl {
                    let mut c = self.controller_cfg.clone();
                    c.mode = CoordinationMode::Kraft;
                    let pid = sim.spawn(Box::new(KraftController::with_racks(
                        BrokerId(100_000 + i),
                        quorum.clone(),
                        brokers_btree.clone(),
                        c,
                        self.topics.clone(),
                        racks.clone(),
                    )));
                    debug_assert_eq!(pid, controller_pids[i as usize]);
                    placements.push((pid, ctrl_hosts[i as usize].clone()));
                    ledger
                        .borrow_mut()
                        .register(format!("kraft-{i}"), self.mem_model.controller);
                }
            }
        }

        // Brokers. Each build recipe is retained so a `RestartBroker` fault
        // can rebuild the broker (fresh process, bumped incarnation, same
        // pid/slot/durability backend) mid-run.
        let broker_durability = self.broker_durability.clone();
        let broker_log_store: LogStoreHandle = log_store();
        let mut broker_builds: Vec<BrokerBuild> = Vec::new();
        for (i, (host, cfg)) in self.brokers.iter().enumerate() {
            // Scenario-level cleaning knobs apply to every broker (a
            // per-broker config that already enables a policy keeps it).
            let mut cfg = cfg.clone();
            cfg.log_compaction |= self.log_compaction;
            cfg.log_retention_age = cfg.log_retention_age.or(self.log_retention_age);
            cfg.log_retention_bytes = cfg.log_retention_bytes.or(self.log_retention_bytes);
            let mut b = Broker::new(
                BrokerId(i as u32),
                cfg.clone(),
                self.mode,
                controller_pids.clone(),
                brokers_hash.clone(),
            );
            let slot = ledger
                .borrow_mut()
                .register(format!("broker-{i}"), self.mem_model.broker);
            b.set_mem_slot(ledger.clone(), slot);
            b.set_telemetry(tele.clone());
            let pid = sim.spawn(Box::new(b));
            debug_assert_eq!(pid, broker_pids[i]);
            if let Some(cpu) = cpus.get(host) {
                sim.attach_cpu(pid, cpu.clone());
            }
            placements.push((pid, host.clone()));
            broker_builds.push(BrokerBuild {
                host: host.clone(),
                cfg,
                slot,
                pid,
                incarnation: 0,
            });
        }

        let bootstrap_for = |host: &str| -> ProcessId {
            self.brokers
                .iter()
                .position(|(h, _)| h == host)
                .map(|i| broker_pids[i])
                .unwrap_or(broker_pids[0])
        };

        // Stores. With `with_replicated_store(n)` each declaration becomes
        // an n-member group: replica 0 on the declared host, the rest on
        // auto-added `<host>-r<i>` hosts. `store_pids` keeps the declared
        // host's replica-0 pid for components that address "the store on
        // host X" directly (SPE store sinks); durability clients get the
        // whole group and rotate through it on timeout.
        let store_replication = self.store_replication;
        let mut store_pids: BTreeMap<String, ProcessId> = BTreeMap::new();
        let mut store_groups: BTreeMap<String, Vec<ProcessId>> = BTreeMap::new();
        let mut store_builds: Vec<StoreBuild> = Vec::new();
        for (host, cfg) in &self.stores {
            let replica_hosts = self.store_replica_hosts(host);
            let mut group: Vec<ProcessId> = Vec::new();
            for (i, rh) in replica_hosts.iter().enumerate() {
                let mut st = StoreServer::new(cfg.clone());
                st.set_name(format!("store-{rh}"));
                let slot = ledger
                    .borrow_mut()
                    .register(format!("store-{rh}"), self.mem_model.store);
                st.set_mem_slot(ledger.clone(), slot);
                st.set_telemetry(tele.clone());
                let pid = sim.spawn(Box::new(st));
                if let Some(cpu) = cpus.get(rh) {
                    sim.attach_cpu(pid, cpu.clone());
                }
                placements.push((pid, rh.clone()));
                group.push(pid);
                store_builds.push(StoreBuild {
                    group_host: host.clone(),
                    replica_host: rh.clone(),
                    replica: i as u32,
                    cfg: cfg.clone(),
                    group: Vec::new(),
                    index: i,
                    slot,
                    pid,
                });
            }
            if store_replication > 1 {
                for (i, pid) in group.iter().enumerate() {
                    sim.process_mut::<StoreServer>(*pid)
                        .expect("store just spawned")
                        .set_group(group.clone(), i, false);
                }
            }
            store_pids.insert(host.clone(), group[0]);
            store_groups.insert(host.clone(), group.clone());
            let filled = store_builds.len();
            for b in &mut store_builds[filled - group.len()..] {
                b.group = group.clone();
            }
        }

        // Attach broker-log durability now that store pids are known. The
        // backend factory is shared with the restart path below.
        let make_log_backend = {
            let store_groups = store_groups.clone();
            let broker_log_store = broker_log_store.clone();
            move |spec: &BrokerDurabilitySpec, incarnation: u64| -> Box<dyn LogBackend> {
                match spec {
                    BrokerDurabilitySpec::InMemory => {
                        Box::new(InMemoryLogBackend::new(broker_log_store.clone()))
                    }
                    BrokerDurabilitySpec::StoreOn { host } => {
                        Box::new(DurableLogBackend::replicated(
                            store_groups
                                .get(host)
                                .expect("validated broker-log store")
                                .clone(),
                            incarnation,
                        ))
                    }
                }
            }
        };
        if let Some(spec) = &broker_durability {
            for build in &broker_builds {
                let b = sim
                    .process_mut::<Broker>(build.pid)
                    .expect("broker just spawned");
                b.set_durability(make_log_backend(spec, 0), false);
            }
        }

        // SPE jobs. Each job expands into one worker per (stage, instance):
        // the classic layout is the degenerate 1×1 case keeping the job
        // name, hosts, and producer ids it always had. Build recipes are
        // retained so crash/restart faults can rebuild any instance — and a
        // rescale restart can change how many there are — mid-run.
        let checkpoint_spec = self.checkpointing.clone();
        let checkpoint_snapshots: SnapshotStoreHandle = snapshot_store();
        let mut spe_pids: BTreeMap<String, ProcessId> = BTreeMap::new();
        let mut job_metas: Vec<SpeJobMeta> = Vec::new();
        let mut instance_builds: BTreeMap<(usize, usize, usize), SpeInstanceBuild> =
            BTreeMap::new();
        for (j, (host, job)) in self.spe_jobs.into_iter().enumerate() {
            let parallel = job.is_parallel();
            let (n_stages, _) = if parallel {
                Self::job_stage_layout(&job)
            } else {
                (1, vec![1])
            };
            let stage_par: Vec<usize> = (0..n_stages)
                .map(|s| if parallel { job.par_of(s) } else { 1 })
                .collect();
            let sink = match job.sink {
                SpeSinkSpec::Topic(t) => SpeSink::Topic(t),
                SpeSinkSpec::Collect => SpeSink::Collect,
                SpeSinkSpec::StoreOn { host: sh, table } => SpeSink::Store {
                    store: *store_pids.get(&sh).expect("validated store host"),
                    table,
                },
            };
            let mut cfg = job.cfg;
            if cfg.checkpoint.is_none() {
                if let Some(spec) = &checkpoint_spec {
                    cfg.checkpoint = Some(spec.cfg);
                }
            }
            if self.transactional_sinks {
                // Stage topic-sink (and shuffle) output under per-epoch
                // transaction markers, and read upstream (possibly also
                // transactional) topics with read-committed isolation.
                cfg.transactional_sink = true;
                cfg.consumer.read_committed = true;
            }
            if let Some(acks) = self.acks_override {
                cfg.producer.acks = acks;
            }
            self.batching.apply(&mut cfg.producer);
            let meta = SpeJobMeta {
                name: job.name.clone(),
                host: host.clone(),
                plan: job.plan,
                cfg,
                sources: job.sources,
                sink,
                parallel,
                n_stages,
                key_groups: job.key_groups,
                stage_par: stage_par.clone(),
                prev_stage_par: stage_par.clone(),
                rescale: job.rescale_on_restart,
                job_idx: j,
                bootstrap: bootstrap_for(&host),
            };
            for (s, par) in stage_par.iter().enumerate() {
                for i in 0..*par {
                    let name = meta.instance_name(s, i);
                    let ihost = meta.instance_host(s, i);
                    let slot = ledger
                        .borrow_mut()
                        .register(format!("spe-{name}"), self.mem_model.spe);
                    let inst = SpeInstanceBuild {
                        stage: s,
                        index: i,
                        name: name.clone(),
                        host: ihost.clone(),
                        slot,
                        pid: ProcessId(0),
                        incarnation: 0,
                    };
                    let w = build_instance_worker(
                        &meta,
                        &inst,
                        &brokers_hash,
                        &ledger,
                        &checkpoint_spec,
                        &checkpoint_snapshots,
                        &store_groups,
                        &tele,
                        false,
                    );
                    let pid = sim.spawn(Box::new(w));
                    if let Some(cpu) = cpus.get(&ihost) {
                        sim.attach_cpu(pid, cpu.clone());
                    }
                    placements.push((pid, ihost));
                    spe_pids.insert(name, pid);
                    instance_builds.insert((j, s, i), SpeInstanceBuild { pid, ..inst });
                }
            }
            job_metas.push(meta);
        }

        // Producers. Each build recipe is retained so a `RestartProcess`
        // fault on a `producer-<idx>` stub can rebuild it: the respawn
        // reuses the same producer id and epoch and restarts the source
        // from the beginning — the broker's idempotent dedup acknowledges
        // the already-appended prefix without a second copy, so the log
        // converges to exactly the no-fault contents.
        let mut producer_pids: Vec<ProcessId> = Vec::new();
        let mut producer_builds: Vec<ProducerStubBuild> = Vec::new();
        for (i, (host, source, mut cfg)) in self.producers.into_iter().enumerate() {
            if let Some(acks) = self.acks_override {
                cfg.acks = acks;
            }
            self.batching.apply(&mut cfg);
            let base = self.mem_model.producer_base
                + (cfg.buffer_memory as f64 * self.mem_model.producer_heap_factor) as u64;
            let slot = ledger.borrow_mut().register(format!("producer-{i}"), base);
            let build = ProducerStubBuild {
                host: host.clone(),
                source,
                cfg,
                bootstrap: bootstrap_for(&host),
                slot,
                pid: ProcessId(0),
            };
            let p = build_producer_stub(i, &build, &brokers_hash, &ledger, &tele, capture);
            let pid = sim.spawn(Box::new(p));
            if let Some(cpu) = cpus.get(&host) {
                sim.attach_cpu(pid, cpu.clone());
            }
            placements.push((pid, host));
            producer_pids.push(pid);
            producer_builds.push(ProducerStubBuild { pid, ..build });
        }

        // Consumers, each wrapped by the monitor; recipes retained for
        // `consumer-<idx>` crash/restart faults. A respawned member of a
        // consumer group resumes from its broker-committed offsets; a
        // group-less consumer restarts at the log start and re-reads.
        let monitor: MonitorHandle = MonitorCore::new_handle(capture);
        let mut consumer_pids: Vec<ProcessId> = Vec::new();
        let mut consumer_builds: Vec<ConsumerStubBuild> = Vec::new();
        for (i, (host, mut cfg, topics, sink)) in self.consumers.into_iter().enumerate() {
            if self.transactional_sinks {
                // Observing a transactional sink's exactly-once output
                // requires read-committed isolation on the reader.
                cfg.read_committed = true;
            }
            if cfg.group_membership && cfg.group_member_id.is_empty() {
                // A stable member id makes sticky assignment stick across
                // this stub's crash/restart.
                cfg.group_member_id = format!("consumer-{i}");
            }
            ledger
                .borrow_mut()
                .register(format!("consumer-{i}"), self.mem_model.consumer);
            let build = ConsumerStubBuild {
                host: host.clone(),
                cfg,
                topics,
                sink,
                bootstrap: bootstrap_for(&host),
                pid: ProcessId(0),
            };
            let p = build_consumer_stub(i, &build, &brokers_hash, &monitor, &tele);
            let pid = sim.spawn(Box::new(p));
            if let Some(cpu) = cpus.get(&host) {
                sim.attach_cpu(pid, cpu.clone());
            }
            placements.push((pid, host));
            consumer_pids.push(pid);
            consumer_builds.push(ConsumerStubBuild { pid, ..build });
        }

        // Fault injector, memory sampler, throughput sampler. Process-level
        // crash/restart events are applied by this orchestrator (it owns the
        // process table); the injector handles the network-level rest.
        let process_events: Vec<(SimTime, FaultAction)> =
            self.faults.process_events().cloned().collect();
        if self.faults.has_network_events() {
            sim.spawn(Box::new(FaultInjector::new(net.clone(), self.faults)));
        }
        let sampler_pid = sim.spawn(Box::new(MemSampler::new(
            ledger.clone(),
            self.server.sample_interval,
            duration,
        )));
        let tx_pid = if self.watch_tx.is_empty() {
            None
        } else {
            let names: Vec<&str> = self.watch_tx.iter().map(String::as_str).collect();
            Some(sim.spawn(Box::new(TxSampler::new(
                net.clone(),
                &names,
                SimDuration::from_secs(1),
                duration,
            ))))
        };
        // The telemetry sampler is spawned after every other process so
        // toggling it never shifts an existing pid (and with it the
        // deterministic event order of a seeded run).
        if self.telemetry {
            let sampler_cpus: Vec<(String, CpuHandle)> =
                cpus.iter().map(|(h, c)| (h.clone(), c.clone())).collect();
            sim.spawn(Box::new(
                tele.sampler(self.telemetry_interval, sampler_cpus),
            ));
        }

        // Placement.
        {
            let mut n = net.borrow_mut();
            for (pid, host) in &placements {
                let node = n
                    .topology()
                    .lookup(host)
                    .unwrap_or_else(|| panic!("host `{host}` missing from topology"));
                n.place(*pid, node);
            }
        }

        // Execute, pausing at each process-fault instant to kill or respawn
        // the targeted worker or broker. Crashed processes' remains are kept
        // so the report can still surface their pre-crash metrics.
        let mode = self.mode;
        let mut crashed_at: BTreeMap<String, SimTime> = BTreeMap::new();
        let mut corpses: BTreeMap<String, Box<dyn s2g_sim::Process>> = BTreeMap::new();
        let mut broker_crashed_at: BTreeMap<u32, SimTime> = BTreeMap::new();
        let mut broker_corpses: BTreeMap<u32, Box<dyn s2g_sim::Process>> = BTreeMap::new();
        let mut store_crashed_at: BTreeMap<u32, SimTime> = BTreeMap::new();
        let mut store_corpses: BTreeMap<u32, Box<dyn s2g_sim::Process>> = BTreeMap::new();
        let mut client_crashes: BTreeMap<String, ClientRecoveryReport> = BTreeMap::new();
        let mut client_corpses: BTreeMap<String, Box<dyn s2g_sim::Process>> = BTreeMap::new();
        for (at, action) in process_events {
            if at >= duration {
                break;
            }
            sim.run_until(at);
            match action {
                FaultAction::CrashProcess(name)
                    if resolve_spe_target(&job_metas, &name).is_some() =>
                {
                    tele.trace_instant(at, &name, "fault:crash", "fault");
                    // A job name kills every stage instance; an instance
                    // name kills exactly that one.
                    let targets: Vec<(usize, usize, usize)> =
                        match resolve_spe_target(&job_metas, &name).expect("guard") {
                            SpeFaultTarget::Job(j) => instance_builds
                                .range((j, 0, 0)..(j + 1, 0, 0))
                                .map(|(k, _)| *k)
                                .collect(),
                            SpeFaultTarget::Instance(j, s, i) => vec![(j, s, i)],
                        };
                    for key in targets {
                        let Some(inst) = instance_builds.get(&key) else {
                            continue;
                        };
                        if let Some(corpse) = sim.kill(inst.pid) {
                            crashed_at.insert(inst.name.clone(), at);
                            corpses.insert(inst.name.clone(), corpse);
                        }
                    }
                }
                FaultAction::CrashProcess(name) => {
                    tele.trace_instant(at, &name, "fault:crash", "fault");
                    // A client stub: `producer-<idx>` or `consumer-<idx>`
                    // (validated above).
                    let pid = if let Some(i) = stub_index(&name, "producer-") {
                        producer_builds[i].pid
                    } else {
                        consumer_builds[stub_index(&name, "consumer-").expect("validated")].pid
                    };
                    if let Some(corpse) = sim.kill(pid) {
                        client_crashes.insert(
                            name.clone(),
                            ClientRecoveryReport {
                                crashed_at: at,
                                restarted_at: None,
                            },
                        );
                        client_corpses.insert(name, corpse);
                    }
                }
                FaultAction::RestartProcess(name)
                    if resolve_spe_target(&job_metas, &name).is_none() =>
                {
                    tele.trace_instant(at, &name, "fault:restart", "fault");
                    if let Some(i) = stub_index(&name, "producer-") {
                        let build = &producer_builds[i];
                        if sim.is_alive(build.pid) {
                            continue; // restart without a preceding crash
                        }
                        let p =
                            build_producer_stub(i, build, &brokers_hash, &ledger, &tele, capture);
                        sim.respawn(build.pid, Box::new(p));
                        if let Some(cpu) = cpus.get(&build.host) {
                            sim.attach_cpu(build.pid, cpu.clone());
                        }
                    } else {
                        let i = stub_index(&name, "consumer-").expect("validated");
                        let build = &consumer_builds[i];
                        if sim.is_alive(build.pid) {
                            continue;
                        }
                        let p = build_consumer_stub(i, build, &brokers_hash, &monitor, &tele);
                        sim.respawn(build.pid, Box::new(p));
                        if let Some(cpu) = cpus.get(&build.host) {
                            sim.attach_cpu(build.pid, cpu.clone());
                        }
                    }
                    if let Some(rec) = client_crashes.get_mut(&name) {
                        rec.restarted_at = Some(at);
                    }
                    client_corpses.remove(&name);
                }
                FaultAction::RestartProcess(name) => {
                    tele.trace_instant(at, &name, "fault:restart", "fault");
                    let target = resolve_spe_target(&job_metas, &name).expect("validated");
                    let (j, keys) = match target {
                        SpeFaultTarget::Instance(j, s, i) => (j, vec![(s, i)]),
                        SpeFaultTarget::Job(j) => {
                            // A job-level restart is where a rescale takes
                            // effect: every stage adopts the target
                            // parallelism, and each respawned instance
                            // restores from the *previous* layout's chains.
                            let meta = &mut job_metas[j];
                            meta.prev_stage_par = meta.stage_par.clone();
                            if let (Some(m), true) = (meta.rescale, meta.parallel) {
                                for p in meta.stage_par.iter_mut() {
                                    *p = m;
                                }
                            }
                            // A rescale redraws every instance's key-group
                            // ownership, so still-running instances of the
                            // old layout are bounced too: left alive they
                            // would keep fetching their old partitions,
                            // overlapping the new layout's owners. Those
                            // within the new layout respawn below with the
                            // new wiring; those beyond it are retired.
                            if meta.stage_par != meta.prev_stage_par {
                                for ((jj, _, _), inst) in instance_builds.iter() {
                                    if *jj != j || !sim.is_alive(inst.pid) {
                                        continue;
                                    }
                                    if let Some(corpse) = sim.kill(inst.pid) {
                                        crashed_at.insert(inst.name.clone(), at);
                                        corpses.insert(inst.name.clone(), corpse);
                                    }
                                }
                            }
                            let keys: Vec<(usize, usize)> = (0..meta.n_stages)
                                .flat_map(|s| (0..meta.stage_par[s]).map(move |i| (s, i)))
                                .collect();
                            (j, keys)
                        }
                    };
                    for (s, i) in keys {
                        let meta = &job_metas[j];
                        match instance_builds.get_mut(&(j, s, i)) {
                            Some(inst) => {
                                if sim.is_alive(inst.pid) {
                                    continue; // restart without a crash: no-op
                                }
                                inst.incarnation += 1;
                                let inst = &*inst;
                                let mut w = build_instance_worker(
                                    meta,
                                    inst,
                                    &brokers_hash,
                                    &ledger,
                                    &checkpoint_spec,
                                    &checkpoint_snapshots,
                                    &store_groups,
                                    &tele,
                                    true,
                                );
                                w.mark_restarted();
                                w.set_producer_epoch(inst.incarnation as u32);
                                sim.respawn(inst.pid, Box::new(w));
                                if let Some(cpu) = cpus.get(&inst.host) {
                                    sim.attach_cpu(inst.pid, cpu.clone());
                                }
                                corpses.remove(&inst.name);
                            }
                            None => {
                                // A rescale grew the stage: spawn a brand-new
                                // instance on its pre-provisioned host. It
                                // still restores (filtered) state from the
                                // old instances' chains.
                                let iname = meta.instance_name(s, i);
                                let ihost = meta.instance_host(s, i);
                                let slot = ledger
                                    .borrow_mut()
                                    .register(format!("spe-{iname}"), self.mem_model.spe);
                                let mut inst = SpeInstanceBuild {
                                    stage: s,
                                    index: i,
                                    name: iname.clone(),
                                    host: ihost.clone(),
                                    slot,
                                    pid: ProcessId(0),
                                    incarnation: 1,
                                };
                                let mut w = build_instance_worker(
                                    meta,
                                    &inst,
                                    &brokers_hash,
                                    &ledger,
                                    &checkpoint_spec,
                                    &checkpoint_snapshots,
                                    &store_groups,
                                    &tele,
                                    true,
                                );
                                w.mark_restarted();
                                w.set_producer_epoch(1);
                                let pid = sim.spawn_at(at, Box::new(w));
                                if let Some(cpu) = cpus.get(&ihost) {
                                    sim.attach_cpu(pid, cpu.clone());
                                }
                                {
                                    let mut n = net.borrow_mut();
                                    let node = n
                                        .topology()
                                        .lookup(&ihost)
                                        .expect("pre-provisioned instance host");
                                    n.place(pid, node);
                                }
                                inst.pid = pid;
                                spe_pids.insert(iname, pid);
                                instance_builds.insert((j, s, i), inst);
                            }
                        }
                    }
                    if let SpeFaultTarget::Job(j) = target {
                        // Future single-instance respawns restore from the
                        // post-rescale layout.
                        let meta = &mut job_metas[j];
                        meta.prev_stage_par = meta.stage_par.clone();
                    }
                }
                FaultAction::CrashBroker(idx) => {
                    tele.trace_instant(at, &format!("broker-{idx}"), "fault:crash", "fault");
                    let build = &broker_builds[idx as usize];
                    if let Some(corpse) = sim.kill(build.pid) {
                        broker_crashed_at.insert(idx, at);
                        broker_corpses.insert(idx, corpse);
                    }
                }
                FaultAction::CrashStore(idx) => {
                    let build = &store_builds[idx as usize];
                    let scope = format!("store-{}", build.replica_host);
                    tele.trace_instant(at, &scope, "fault:crash", "fault");
                    if let Some(corpse) = sim.kill(build.pid) {
                        store_crashed_at.insert(idx, at);
                        store_corpses.insert(idx, corpse);
                    }
                }
                FaultAction::RestartStore(idx) => {
                    let build = &store_builds[idx as usize];
                    let scope = format!("store-{}", build.replica_host);
                    tele.trace_instant(at, &scope, "fault:restart", "fault");
                    if sim.is_alive(build.pid) {
                        continue; // restart without a preceding crash: no-op
                    }
                    let mut st = StoreServer::new(build.cfg.clone());
                    st.set_name(format!("store-{}", build.replica_host));
                    st.set_mem_slot(ledger.clone(), build.slot);
                    st.set_telemetry(tele.clone());
                    if build.group.len() > 1 {
                        // Rejoin recovering: pull the op log from a ready
                        // member before serving again.
                        st.set_group(build.group.clone(), build.index, true);
                    }
                    sim.respawn(build.pid, Box::new(st));
                    if let Some(cpu) = cpus.get(&build.replica_host) {
                        sim.attach_cpu(build.pid, cpu.clone());
                    }
                    store_corpses.remove(&idx);
                }
                FaultAction::RestartBroker(idx) => {
                    tele.trace_instant(at, &format!("broker-{idx}"), "fault:restart", "fault");
                    let build = &mut broker_builds[idx as usize];
                    if sim.is_alive(build.pid) {
                        continue; // restart without a preceding crash: no-op
                    }
                    build.incarnation += 1;
                    let mut b = Broker::new(
                        BrokerId(idx),
                        build.cfg.clone(),
                        mode,
                        controller_pids.clone(),
                        brokers_hash.clone(),
                    );
                    b.set_mem_slot(ledger.clone(), build.slot);
                    b.set_incarnation(build.incarnation);
                    b.set_telemetry(tele.clone());
                    match &broker_durability {
                        Some(spec) => {
                            b.set_durability(make_log_backend(spec, build.incarnation), true)
                        }
                        // Without a log backend the broker restarts empty
                        // (the data-loss contrast); still record metrics.
                        None => b.mark_restarted(),
                    }
                    sim.respawn(build.pid, Box::new(b));
                    if let Some(cpu) = cpus.get(&build.host) {
                        sim.attach_cpu(build.pid, cpu.clone());
                    }
                    broker_corpses.remove(&idx);
                }
                _ => unreachable!("process_events yields only process actions"),
            }
        }
        sim.run_until(duration);

        // Harvest the report. Crashed-and-not-restarted stubs are absent
        // from the process table; report from their corpses instead.
        let mut producers_report = Vec::new();
        for (i, pid) in producer_pids.iter().enumerate() {
            let name = format!("producer-{i}");
            let p = match sim.process_mut::<ProducerProcess>(*pid) {
                Some(live) => Some(live),
                None => client_corpses.get_mut(&name).and_then(|c| {
                    (c.as_mut() as &mut dyn std::any::Any).downcast_mut::<ProducerProcess>()
                }),
            };
            let client = p.expect("producer process (live or corpse)").client_mut();
            // The report takes the captured vectors: one copy, not two.
            let (outcomes, sent_index) = client.take_captured();
            producers_report.push(ProducerReport {
                id: ProducerId(i as u32),
                stats: client.stats(),
                ack_latency: client.ack_latency().stats(),
                outcomes,
                sent_index,
                recovery: client_crashes.get(&name).copied(),
            });
        }
        let mut consumers_report = Vec::new();
        for (i, pid) in consumer_pids.iter().enumerate() {
            let name = format!("consumer-{i}");
            let c = sim.process_ref::<ConsumerProcess>(*pid).or_else(|| {
                client_corpses.get(&name).and_then(|c| {
                    (c.as_ref() as &dyn std::any::Any).downcast_ref::<ConsumerProcess>()
                })
            });
            let c = c.expect("consumer process (live or corpse)");
            consumers_report.push(ConsumerReport {
                id: i as u32,
                stats: c.client().stats(),
                recovery: client_crashes.get(&name).copied(),
            });
        }
        // Two passes over the brokers: attributing leadership moves to one
        // crashed broker needs every *other* broker's election history.
        type BrokerView = (
            BrokerStats,
            Vec<(SimTime, TopicPartition, bool)>,
            Option<BrokerRecoveryInfo>,
        );
        let mut broker_views: Vec<BrokerView> = Vec::new();
        for (i, pid) in broker_pids.iter().enumerate() {
            // A crashed-and-not-restarted broker is absent from the process
            // table; report from its corpse instead.
            let b = sim.process_ref::<Broker>(*pid).or_else(|| {
                broker_corpses
                    .get(&(i as u32))
                    .and_then(|c| (c.as_ref() as &dyn std::any::Any).downcast_ref::<Broker>())
            });
            let b = b.expect("broker process (live or corpse)");
            broker_views.push((b.stats(), b.leadership_events().to_vec(), b.recovery_info()));
        }
        let isr_shrinks: u64 = broker_views.iter().map(|(s, _, _)| s.isr_shrinks).sum();
        let isr_expands: u64 = broker_views.iter().map(|(s, _, _)| s.isr_expands).sum();
        let mut brokers_report = Vec::new();
        for (i, (stats, events, info)) in broker_views.iter().enumerate() {
            let info = *info;
            let recovery = broker_crashed_at.get(&(i as u32)).map(|t| {
                // Partitions some *other* broker won at/after the crash:
                // leadership that moved off (or shuffled around) this
                // broker while it was down.
                let moved: std::collections::BTreeSet<&TopicPartition> = broker_views
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .flat_map(|(_, (_, ev, _))| ev.iter())
                    .filter(|(at, _, became)| *became && *at >= *t)
                    .map(|(_, tp, _)| tp)
                    .collect();
                BrokerRecoveryReport {
                    crashed_at: *t,
                    restarted_at: info.map(|r| r.restarted_at),
                    recovered_at: info.and_then(|r| r.recovered_at),
                    replayed_records: info.map_or(0, |r| r.replayed_records),
                    replayed_bytes: info.map_or(0, |r| r.replayed_bytes),
                    replayed_segments: info.map_or(0, |r| r.replayed_segments),
                    replay_saved_bytes: info.map_or(0, |r| r.replay_saved_bytes),
                    leadership_moves: moved.len() as u64,
                    isr_shrinks,
                    isr_expands,
                }
            });
            brokers_report.push(BrokerReport {
                id: BrokerId(i as u32),
                stats: *stats,
                leadership_events: events.clone(),
                recovery,
            });
        }
        let mut stores_report = Vec::new();
        for (idx, build) in store_builds.iter().enumerate() {
            // A crashed-and-not-restarted replica is absent from the
            // process table; report from its corpse instead.
            let st = sim.process_ref::<StoreServer>(build.pid).or_else(|| {
                store_corpses
                    .get(&(idx as u32))
                    .and_then(|c| (c.as_ref() as &dyn std::any::Any).downcast_ref::<StoreServer>())
            });
            let recovery = store_crashed_at.get(&(idx as u32)).map(|t| {
                let info = st.and_then(StoreServer::recovery_info);
                StoreRecoveryReport {
                    crashed_at: *t,
                    restarted_at: info.map(|i| i.restarted_at),
                    resynced_at: info.and_then(|i| i.resynced_at),
                    sync_ops: info.map_or(0, |i| i.sync_ops),
                    sync_bytes: info.map_or(0, |i| i.sync_bytes),
                }
            });
            stores_report.push(StoreReport {
                host: build.group_host.clone(),
                replica: build.replica,
                kv_keys: st.map_or(0, |sv| sv.kv().len() as u64),
                is_primary: st.is_some_and(StoreServer::is_primary),
                oplog_len: st.map_or(0, |sv| sv.oplog_len() as u64),
                oplog_truncated: st.map_or(0, StoreServer::oplog_truncated),
                recovery,
            });
        }
        let mut spe_report = BTreeMap::new();
        let mut spe_instances = BTreeMap::new();
        for meta in &job_metas {
            let j = meta.job_idx;
            let mut per: Vec<(usize, SpeReport)> = Vec::new();
            for (key, inst) in instance_builds.range((j, 0, 0)..(j + 1, 0, 0)) {
                // A crashed-and-not-restarted instance is absent from the
                // process table; report from its corpse instead.
                let w = sim.process_ref::<SpeWorker>(inst.pid).or_else(|| {
                    corpses.get(&inst.name).and_then(|c| {
                        (c.as_ref() as &dyn std::any::Any).downcast_ref::<SpeWorker>()
                    })
                });
                let recovery = crashed_at.get(&inst.name).map(|t| {
                    let info = w.and_then(SpeWorker::recovery_info);
                    RecoveryReport {
                        crashed_at: *t,
                        restarted_at: info.map(|i| i.restarted_at),
                        restored_at: info.and_then(|i| i.restored_at),
                        snapshot_taken_at: info.and_then(|i| i.snapshot_taken_at),
                        snapshot_bytes: info.map_or(0, |i| i.snapshot_bytes),
                        delta_chain_len: info.map_or(0, |i| i.delta_chain),
                        first_batch_at: info.and_then(|i| i.first_batch_at),
                    }
                });
                let w = w.expect("spe instance (live or corpse)");
                let report = SpeReport {
                    metrics: w.metrics().to_vec(),
                    record_counts: w.plan().record_counts(),
                    collected: w.collected().to_vec(),
                    mean_busy_runtime: w.mean_busy_runtime(),
                    checkpoints: w.checkpoint_stats(),
                    checkpoint_log: w.checkpoint_persist_log(),
                    consumer_stats: w.consumer().stats(),
                    recovery,
                };
                if meta.parallel {
                    spe_instances.insert(inst.name.clone(), report.clone());
                }
                per.push((key.1, report));
            }
            let agg = if meta.parallel {
                aggregate_spe_reports(meta, &per)
            } else {
                per.into_iter()
                    .next()
                    .map(|(_, r)| r)
                    .expect("one worker per classic job")
            };
            spe_report.insert(meta.name.clone(), agg);
        }
        let sampler = sim
            .process_ref::<MemSampler>(sampler_pid)
            .expect("mem sampler");
        let mem_samples = sampler.samples().to_vec();
        let peak_mem_bytes = sampler.peak_bytes();
        let tx_series = tx_pid
            .map(|pid| {
                sim.process_ref::<TxSampler>(pid)
                    .expect("tx sampler")
                    .series()
                    .to_vec()
            })
            .unwrap_or_default();
        let cpu_handles: Vec<CpuHandle> = cpus.values().cloned().collect();
        let cpu_series = cpu_utilization_series(
            &cpu_handles,
            self.server.sample_interval,
            duration,
            self.server.cores,
        );

        // The data plane is designed so no hop ever deep-copies a shared
        // batch (producers retry Arc clones, brokers borrow, followers are
        // sole owners); surface the run's delta so tests and the CI perf
        // gate can assert it stayed zero.
        let shared_batch_copies = s2g_proto::shared_batch_copies() - batch_copies_before;
        tele.counter_add("runtime", "shared_batch_copies", shared_batch_copies);

        let metric_series: Vec<MetricSeries> = tele.series().all().to_vec();

        let report = RunReport {
            name: self.name,
            duration,
            server: self.server,
            sim_stats: sim.stats(),
            producers: producers_report,
            consumers: consumers_report,
            brokers: brokers_report,
            stores: stores_report,
            spe: spe_report,
            spe_instances,
            mem_samples,
            peak_mem_bytes,
            cpu_series,
            tx_series,
            metric_series,
            shared_batch_copies,
        };

        Ok(RunResult {
            sim,
            net,
            monitor,
            ledger,
            cpus,
            broker_pids,
            producer_pids,
            consumer_pids,
            spe_pids,
            store_pids,
            store_group_pids: store_groups,
            checkpoint_snapshots,
            telemetry: tele,
            report,
        })
    }
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

/// Parses a client-stub fault target of the form `<prefix><idx>` (e.g.
/// `producer-0`).
fn stub_index(name: &str, prefix: &str) -> Option<usize> {
    name.strip_prefix(prefix)?.parse().ok()
}

/// Everything needed to (re)build one producer stub for a
/// `RestartProcess` fault: same host, pid, memory slot, producer id, and —
/// deliberately — the same producer epoch. The respawned source restarts
/// from record zero; the broker's idempotent dedup recognizes the
/// already-appended `(epoch, seq)` prefix and acknowledges it without
/// appending second copies, so the log converges to the no-fault contents.
struct ProducerStubBuild {
    host: String,
    source: SourceSpec,
    cfg: ProducerConfig,
    bootstrap: ProcessId,
    slot: MemSlot,
    pid: ProcessId,
}

fn build_producer_stub(
    idx: usize,
    build: &ProducerStubBuild,
    brokers: &BTreeMap<BrokerId, ProcessId>,
    ledger: &LedgerHandle,
    tele: &Telemetry,
    capture: bool,
) -> ProducerProcess {
    let mut client = ProducerClient::new(
        ProducerId(idx as u32),
        build.cfg.clone(),
        build.bootstrap,
        brokers.clone(),
        0,
    );
    client.set_mem_slot(ledger.clone(), build.slot);
    if capture {
        client.capture_records();
    }
    let mut p = ProducerProcess::new(client, build.source.build());
    p.set_telemetry(tele.clone());
    p
}

/// Everything needed to (re)build one consumer stub for a
/// `RestartProcess` fault. A respawned group member resumes from its
/// broker-committed offsets; without a group it restarts at the log start
/// and re-reads (duplicate deliveries the monitor makes observable).
struct ConsumerStubBuild {
    host: String,
    cfg: ConsumerConfig,
    topics: Vec<String>,
    sink: ConsumerSinkSpec,
    bootstrap: ProcessId,
    pid: ProcessId,
}

fn build_consumer_stub(
    idx: usize,
    build: &ConsumerStubBuild,
    brokers: &BTreeMap<BrokerId, ProcessId>,
    monitor: &MonitorHandle,
    tele: &Telemetry,
) -> ConsumerProcess {
    let inner = build.sink.build();
    let wrapped = MonitoredSink::new(monitor.clone(), idx as u32, inner);
    let client = ConsumerClient::new(
        build.cfg.clone(),
        build.bootstrap,
        brokers.clone(),
        build.topics.clone(),
    );
    let mut p = ConsumerProcess::new(idx as u32, client, Box::new(wrapped));
    p.set_telemetry(tele.clone());
    p
}

/// Everything needed to (re)build one broker: a `RestartBroker` respawn
/// reuses the original wiring (pid, memory slot, config) around a fresh
/// process with a bumped incarnation.
struct BrokerBuild {
    host: String,
    cfg: BrokerConfig,
    slot: MemSlot,
    pid: ProcessId,
    incarnation: u64,
}

/// Everything needed to (re)build one store-group replica: a `RestartStore`
/// respawn reuses the original wiring (pid, memory slot, config, group
/// membership) around a fresh recovering process.
struct StoreBuild {
    /// The declared host (names the group).
    group_host: String,
    /// The host this replica runs on (`<host>` or `<host>-r<i>`).
    replica_host: String,
    /// Member index within the group.
    replica: u32,
    cfg: StoreConfig,
    /// Every member's pid, in index order.
    group: Vec<ProcessId>,
    index: usize,
    slot: MemSlot,
    pid: ProcessId,
}

/// The per-job half of the SPE build state: everything shared by (and
/// needed to rebuild) the job's stage instances, plus the current and
/// previous per-stage parallelism — the rescale bookkeeping.
struct SpeJobMeta {
    name: String,
    host: String,
    plan: Box<dyn Fn() -> Plan>,
    cfg: SpeConfig,
    sources: Vec<String>,
    sink: SpeSink,
    parallel: bool,
    n_stages: usize,
    key_groups: u32,
    /// Current parallelism per stage (changes on a rescale restart).
    stage_par: Vec<usize>,
    /// Parallelism each stage ran at before the in-flight restart — the
    /// instance set whose chains a respawn restores from.
    prev_stage_par: Vec<usize>,
    rescale: Option<usize>,
    job_idx: usize,
    bootstrap: ProcessId,
}

impl SpeJobMeta {
    fn instance_name(&self, stage: usize, index: usize) -> String {
        if self.parallel {
            instance_name(&self.name, stage, index)
        } else {
            self.name.clone()
        }
    }

    fn instance_host(&self, stage: usize, index: usize) -> String {
        if self.parallel {
            Scenario::instance_host(&self.host, stage, index)
        } else {
            self.host.clone()
        }
    }

    /// Stable producer id per (job, stage, instance); the classic layout
    /// keeps its original `1000 + job` id.
    fn producer_id(&self, stage: usize, index: usize) -> ProducerId {
        if self.parallel {
            ProducerId(100_000 + self.job_idx as u32 * 10_000 + stage as u32 * 100 + index as u32)
        } else {
            ProducerId(1_000 + self.job_idx as u32)
        }
    }

    /// Stage 0 reads the job's declared sources; later stages read their
    /// keyed shuffle topic.
    fn stage_sources(&self, stage: usize) -> Vec<String> {
        if stage == 0 {
            self.sources.clone()
        } else {
            vec![shuffle_topic(&self.name, stage)]
        }
    }

    /// The last stage feeds the job's declared sink; earlier stages feed
    /// the next stage's shuffle topic.
    fn stage_sink(&self, stage: usize) -> SpeSink {
        if stage + 1 == self.n_stages {
            self.sink.clone()
        } else {
            SpeSink::Topic(shuffle_topic(&self.name, stage + 1))
        }
    }
}

/// Everything needed to (re)build one worker instance: the initial spawn
/// and any `RestartProcess` respawn share this recipe, so a restarted
/// instance gets the same wiring (pid, memory slot, clients) around a fresh
/// plan.
struct SpeInstanceBuild {
    stage: usize,
    index: usize,
    name: String,
    host: String,
    slot: MemSlot,
    pid: ProcessId,
    incarnation: u64,
}

#[allow(clippy::too_many_arguments)]
fn build_instance_worker(
    meta: &SpeJobMeta,
    inst: &SpeInstanceBuild,
    brokers: &BTreeMap<BrokerId, ProcessId>,
    ledger: &LedgerHandle,
    spec: &Option<CheckpointSpec>,
    snapshots: &SnapshotStoreHandle,
    store_groups: &BTreeMap<String, Vec<ProcessId>>,
    tele: &Telemetry,
    recover: bool,
) -> SpeWorker {
    let full = (meta.plan)();
    let plan = if meta.parallel {
        full.into_stages()
            .into_iter()
            .nth(inst.stage)
            .expect("stage index within the probed stage count")
    } else {
        full
    };
    let mut w = SpeWorker::new(
        inst.name.clone(),
        meta.cfg.clone(),
        meta.stage_sources(inst.stage),
        plan,
        meta.stage_sink(inst.stage),
        meta.bootstrap,
        brokers.clone(),
        meta.producer_id(inst.stage, inst.index),
    );
    w.set_mem_slot(ledger.clone(), inst.slot);
    if meta.parallel {
        // A recovering instance restores from every old instance of its
        // stage (under the pre-restart parallelism) and keeps only the key
        // groups it owns now — the rescale-correct redistribution.
        let old_par = meta.prev_stage_par[inst.stage];
        let restore_from: Vec<String> = if recover {
            (0..old_par)
                .map(|k| instance_name(&meta.name, inst.stage, k))
                .collect()
        } else {
            Vec::new()
        };
        let old_producers: Vec<ProducerId> = (0..old_par)
            .map(|k| meta.producer_id(inst.stage, k))
            .collect();
        w.set_instance(StageInstanceCfg {
            stage: inst.stage,
            instance: inst.index as u32,
            parallelism: meta.stage_par[inst.stage] as u32,
            key_groups: meta.key_groups,
            restore_from,
            old_producers,
        });
    }
    if meta.cfg.checkpoint.is_some() {
        let backend: Box<dyn StateBackend> = match spec.as_ref().map(|s| &s.backend) {
            Some(CheckpointBackendSpec::StoreOn { host }) => Box::new(DurableBackend::replicated(
                store_groups
                    .get(host)
                    .expect("validated checkpoint store host")
                    .clone(),
            )),
            _ => Box::new(InMemoryBackend::new(snapshots.clone())),
        };
        w.attach_checkpointing(backend, recover);
    }
    // After the checkpointing attach so the coordinator is covered too.
    w.set_telemetry(tele.clone());
    w
}

/// Folds a parallel job's per-instance reports into one job-level report:
/// input records are counted at stage 0, output records at the last stage,
/// batch metrics interleave in time order, checkpoint/consumer counters
/// add, and the recovery entry follows the earliest-crashed instance.
fn aggregate_spe_reports(meta: &SpeJobMeta, per: &[(usize, SpeReport)]) -> SpeReport {
    let mut metrics: Vec<BatchMetric> = per
        .iter()
        .flat_map(|(_, r)| r.metrics.iter().copied())
        .collect();
    metrics.sort_by_key(|m| (m.start, m.end));
    let records_in: u64 = per
        .iter()
        .filter(|(s, _)| *s == 0)
        .map(|(_, r)| r.record_counts.0)
        .sum();
    let records_out: u64 = per
        .iter()
        .filter(|(s, _)| *s + 1 == meta.n_stages)
        .map(|(_, r)| r.record_counts.1)
        .sum();
    let collected: Vec<Event> = per
        .iter()
        .flat_map(|(_, r)| r.collected.iter().cloned())
        .collect();
    let busy: Vec<&BatchMetric> = metrics.iter().filter(|m| m.records_in > 0).collect();
    let mean_busy_runtime = if busy.is_empty() {
        SimDuration::ZERO
    } else {
        SimDuration::from_nanos(
            busy.iter().map(|m| m.runtime().as_nanos()).sum::<u64>() / busy.len() as u64,
        )
    };
    let mut checkpoints = CheckpointStats::default();
    for (_, r) in per {
        checkpoints.absorb(&r.checkpoints);
    }
    let mut checkpoint_log: Vec<(SimTime, SimTime)> = per
        .iter()
        .flat_map(|(_, r)| r.checkpoint_log.iter().copied())
        .collect();
    checkpoint_log.sort();
    let mut consumer_stats = ConsumerStats::default();
    for (_, r) in per {
        let c = &r.consumer_stats;
        consumer_stats.fetches += c.fetches;
        consumer_stats.records += c.records;
        consumer_stats.timeouts += c.timeouts;
        consumer_stats.offset_resets += c.offset_resets;
        consumer_stats.offset_commits += c.offset_commits;
        consumer_stats.resumed_partitions += c.resumed_partitions;
        consumer_stats.group_joins += c.group_joins;
        consumer_stats.rebalances += c.rebalances;
    }
    let recovery = per
        .iter()
        .filter_map(|(_, r)| r.recovery)
        .min_by_key(|r| r.crashed_at);
    SpeReport {
        metrics,
        record_counts: (records_in, records_out),
        collected,
        mean_busy_runtime,
        checkpoints,
        checkpoint_log,
        consumer_stats,
        recovery,
    }
}

/// What an SPE crash/restart fault resolves to.
enum SpeFaultTarget {
    /// The whole job (every instance of every stage).
    Job(usize),
    /// One stage instance: `(job index, stage, instance)`.
    Instance(usize, usize, usize),
}

/// Resolves a fault-plan target name against the built jobs: the exact job
/// name, `job/stage/instance`, or the `job/instance` last-stage shorthand.
fn resolve_spe_target(job_metas: &[SpeJobMeta], name: &str) -> Option<SpeFaultTarget> {
    if let Some(j) = job_metas.iter().position(|m| m.name == name) {
        return Some(SpeFaultTarget::Job(j));
    }
    for (j, m) in job_metas.iter().enumerate() {
        if !m.parallel {
            continue;
        }
        let Some(rest) = name
            .strip_prefix(m.name.as_str())
            .and_then(|r| r.strip_prefix('/'))
        else {
            continue;
        };
        if let Some((s, i)) = parse_instance_suffix(rest, m.n_stages - 1) {
            return Some(SpeFaultTarget::Instance(j, s, i));
        }
    }
    None
}

/// Parses the `stage/instance` (or bare `instance`, meaning the last —
/// keyed — stage) suffix of a `job/...` fault target. Bounds are the
/// caller's concern: `validate` checks them against the stage layout, the
/// fault executor relies on its build-map lookups.
fn parse_instance_suffix(rest: &str, last_stage: usize) -> Option<(usize, usize)> {
    let parts: Vec<&str> = rest.split('/').collect();
    match parts.as_slice() {
        [i] => i.parse().ok().map(|i| (last_stage, i)),
        [s, i] => match (s.parse(), i.parse()) {
            (Ok(s), Ok(i)) => Some((s, i)),
            _ => None,
        },
        _ => None,
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

/// Crash/restart bookkeeping for one client stub targeted by the fault
/// plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientRecoveryReport {
    /// When the fault plan killed the stub.
    pub crashed_at: SimTime,
    /// When the respawned stub started (`None`: never restarted).
    pub restarted_at: Option<SimTime>,
}

/// Per-producer results.
#[derive(Debug, Clone)]
pub struct ProducerReport {
    /// Producer id (declaration order).
    pub id: ProducerId,
    /// Counters. For a crashed-and-restarted stub these reflect the
    /// respawned incarnation (the pre-crash one died with its process).
    pub stats: ProducerStats,
    /// Produce-to-ack latency (seconds) over the acknowledged records,
    /// folded as acks arrived; `None` when nothing was acknowledged.
    pub ack_latency: Option<SummaryStats>,
    /// Completed record outcomes. Empty unless the scenario called
    /// [`Scenario::capture_records`].
    pub outcomes: Vec<ProduceOutcome>,
    /// All sends as `(topic, seq, created)`. Empty unless the scenario
    /// called [`Scenario::capture_records`].
    pub sent_index: Vec<SentRecord>,
    /// Crash/restart metrics; present when this stub was crashed by the
    /// fault plan.
    pub recovery: Option<ClientRecoveryReport>,
}

/// Per-consumer results.
#[derive(Debug, Clone, Copy)]
pub struct ConsumerReport {
    /// Consumer index.
    pub id: u32,
    /// Counters. For a crashed-and-restarted stub these reflect the
    /// respawned incarnation.
    pub stats: ConsumerStats,
    /// Crash/restart metrics; present when this stub was crashed by the
    /// fault plan.
    pub recovery: Option<ClientRecoveryReport>,
}

/// Per-broker results.
#[derive(Debug, Clone)]
pub struct BrokerReport {
    /// Broker id.
    pub id: BrokerId,
    /// Counters.
    pub stats: BrokerStats,
    /// Leadership transitions (time, partition, became-leader).
    pub leadership_events: Vec<(SimTime, TopicPartition, bool)>,
    /// Crash/recovery metrics; present when this broker was crashed by the
    /// fault plan.
    pub recovery: Option<BrokerRecoveryReport>,
}

/// Recovery metrics for one crashed (and possibly restarted) broker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrokerRecoveryReport {
    /// When the fault plan killed the broker.
    pub crashed_at: SimTime,
    /// When the respawned broker started (`None`: never restarted).
    pub restarted_at: Option<SimTime>,
    /// When log replay completed and the broker resumed serving.
    pub recovered_at: Option<SimTime>,
    /// Records rebuilt from persisted segments.
    pub replayed_records: u64,
    /// Encoded segment bytes read back during replay.
    pub replayed_bytes: u64,
    /// Segments read back during replay.
    pub replayed_segments: u64,
    /// Bytes compaction/retention reclaimed before the crash — replay work
    /// the restarted broker never had to do. The replay-savings half of the
    /// bounded-recovery story.
    pub replay_saved_bytes: u64,
    /// Distinct partitions some *other* broker was elected leader of at or
    /// after the crash — leadership that moved off (or shuffled around)
    /// this broker while it was down. Zero at RF=1: nobody else can take
    /// over, the partitions just go dark.
    pub leadership_moves: u64,
    /// ISR shrink events recorded cluster-wide over the run (leaders
    /// dropping a lagging or dead replica from the in-sync set).
    pub isr_shrinks: u64,
    /// ISR expand events recorded cluster-wide over the run (caught-up
    /// followers re-admitted to the in-sync set).
    pub isr_expands: u64,
}

impl BrokerRecoveryReport {
    /// Restart-to-serving latency: what durable-log replay costs.
    pub fn replay_latency(&self) -> Option<SimDuration> {
        match (self.restarted_at, self.recovered_at) {
            (Some(a), Some(b)) => Some(b.saturating_since(a)),
            _ => None,
        }
    }

    /// Crash-to-serving latency: the broker's unavailability window.
    pub fn unavailability(&self) -> Option<SimDuration> {
        self.recovered_at
            .map(|t| t.saturating_since(self.crashed_at))
    }
}

/// Per-store-replica results.
#[derive(Debug, Clone)]
pub struct StoreReport {
    /// The declared store host (the group's name).
    pub host: String,
    /// Replica index within the group (0 = initial primary).
    pub replica: u32,
    /// KV keys resident at the end of the run.
    pub kv_keys: u64,
    /// Whether this replica was the acting primary at the end of the run.
    pub is_primary: bool,
    /// Group op-log entries still retained at the end of the run (bounded
    /// by peer-acked truncation).
    pub oplog_len: u64,
    /// Ops this replica discarded as primary via peer-acked truncation.
    pub oplog_truncated: u64,
    /// Crash/recovery metrics; present when this replica was crashed by the
    /// fault plan.
    pub recovery: Option<StoreRecoveryReport>,
}

/// Recovery metrics for one crashed (and possibly restarted) store replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreRecoveryReport {
    /// When the fault plan killed the replica.
    pub crashed_at: SimTime,
    /// When the respawned replica started (`None`: never restarted).
    pub restarted_at: Option<SimTime>,
    /// When op-log catch-up completed and the replica rejoined its group.
    pub resynced_at: Option<SimTime>,
    /// Ops pulled from a peer during catch-up.
    pub sync_ops: u64,
    /// Approximate bytes transferred during catch-up.
    pub sync_bytes: u64,
}

impl StoreRecoveryReport {
    /// Restart-to-rejoined latency: what op-log catch-up costs.
    pub fn resync_latency(&self) -> Option<SimDuration> {
        match (self.restarted_at, self.resynced_at) {
            (Some(a), Some(b)) => Some(b.saturating_since(a)),
            _ => None,
        }
    }

    /// Crash-to-rejoined latency: how long the group ran a member short.
    pub fn unavailability(&self) -> Option<SimDuration> {
        self.resynced_at
            .map(|t| t.saturating_since(self.crashed_at))
    }
}

/// Per-SPE-job results.
#[derive(Debug, Clone)]
pub struct SpeReport {
    /// Per-batch metrics.
    pub metrics: Vec<BatchMetric>,
    /// `(records_in, records_out)` through the plan.
    pub record_counts: (u64, u64),
    /// Locally collected results (Collect sink only).
    pub collected: Vec<Event>,
    /// Mean runtime over non-empty batches.
    pub mean_busy_runtime: SimDuration,
    /// Checkpoint counters (zeros when checkpointing is disabled).
    pub checkpoints: CheckpointStats,
    /// `(accepted, durable)` instants of every persisted capture — the
    /// per-checkpoint latency series (what store replication inflates).
    pub checkpoint_log: Vec<(SimTime, SimTime)>,
    /// The worker's embedded consumer counters; `offset_resets == 0` on a
    /// recovery run means the worker resumed from committed offsets.
    pub consumer_stats: ConsumerStats,
    /// Crash/recovery metrics; present when this job was crashed by the
    /// fault plan.
    pub recovery: Option<RecoveryReport>,
}

/// Recovery metrics for one crashed (and possibly restarted) SPE job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// When the fault plan killed the worker.
    pub crashed_at: SimTime,
    /// When the respawned worker started (None: never restarted).
    pub restarted_at: Option<SimTime>,
    /// When state restoration completed.
    pub restored_at: Option<SimTime>,
    /// Capture time of the newest restored chain element.
    pub snapshot_taken_at: Option<SimTime>,
    /// Encoded bytes read back during restore (base + deltas).
    pub snapshot_bytes: u64,
    /// Deltas applied on top of the base during restore (0 for a full
    /// snapshot restore).
    pub delta_chain_len: u64,
    /// Completion time of the first post-restart batch with input.
    pub first_batch_at: Option<SimTime>,
}

impl RecoveryReport {
    /// Crash-to-first-processed-batch latency: the user-visible outage.
    pub fn recovery_latency(&self) -> Option<SimDuration> {
        self.first_batch_at
            .map(|t| t.saturating_since(self.crashed_at))
    }

    /// Restart-to-restore latency: what the state backend costs.
    pub fn restore_latency(&self) -> Option<SimDuration> {
        match (self.restarted_at, self.restored_at) {
            (Some(a), Some(b)) => Some(b.saturating_since(a)),
            _ => None,
        }
    }
}

/// Everything measured during a run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Scenario name.
    pub name: String,
    /// Configured duration.
    pub duration: SimTime,
    /// The modeled server.
    pub server: ServerSpec,
    /// Kernel counters.
    pub sim_stats: SimStats,
    /// Producer results, by declaration order.
    pub producers: Vec<ProducerReport>,
    /// Consumer results, by declaration order.
    pub consumers: Vec<ConsumerReport>,
    /// Broker results, by id.
    pub brokers: Vec<BrokerReport>,
    /// Store-replica results, in flattened replica order (declaration
    /// order x replication factor). Empty when no store is declared.
    pub stores: Vec<StoreReport>,
    /// SPE results, by job name. For parallel jobs this is the aggregated
    /// view (stage-0 input, last-stage output, summed counters); the
    /// per-instance breakdown is in
    /// [`spe_instances`](RunReport::spe_instances).
    pub spe: BTreeMap<String, SpeReport>,
    /// Per-instance SPE results of parallel jobs, keyed by
    /// `job/stage/instance` (empty when no job is parallel).
    pub spe_instances: BTreeMap<String, SpeReport>,
    /// Memory samples (500 ms cadence).
    pub mem_samples: Vec<(SimTime, u64)>,
    /// Peak memory observed.
    pub peak_mem_bytes: u64,
    /// Server CPU utilization per sampling window.
    pub cpu_series: Vec<(SimTime, f64)>,
    /// Per-node transmit throughput series (when watched).
    pub tx_series: Vec<TxSeries>,
    /// Every metric time series the telemetry sampler collected (empty when
    /// sampling is disabled via [`Scenario::with_telemetry`]): consumer lag
    /// per partition, per-instance record counts, broker log/LSO gauges,
    /// checkpoint counters, store op-log lengths, host CPU occupancy.
    pub metric_series: Vec<MetricSeries>,
    /// Times a shared [`RecordBatch`](s2g_proto::RecordBatch) had to be
    /// deep-copied during the run. The batch-first data plane keeps this at
    /// zero; a regression that reintroduces per-consumer record cloning
    /// shows up here (also exported as the `runtime/shared_batch_copies`
    /// telemetry counter).
    pub shared_batch_copies: u64,
}

impl RunReport {
    /// Peak memory as a fraction of the server's memory.
    pub fn peak_mem_fraction(&self) -> f64 {
        self.peak_mem_bytes as f64 / self.server.mem_bytes as f64
    }

    /// CPU utilization samples as plain numbers (for CDFs).
    pub fn cpu_samples(&self) -> Vec<f64> {
        self.cpu_series.iter().map(|(_, u)| *u).collect()
    }
}

/// A finished run: the report plus live handles for deeper inspection.
pub struct RunResult {
    /// The simulator (query processes via `process_ref`).
    pub sim: Sim,
    /// The emulated network.
    pub net: NetHandle,
    /// The delivery monitor.
    pub monitor: MonitorHandle,
    /// The memory ledger.
    pub ledger: LedgerHandle,
    /// Per-host CPU models.
    pub cpus: BTreeMap<String, CpuHandle>,
    /// Broker process ids, by broker id.
    pub broker_pids: Vec<ProcessId>,
    /// Producer process ids, by declaration order.
    pub producer_pids: Vec<ProcessId>,
    /// Consumer process ids, by declaration order.
    pub consumer_pids: Vec<ProcessId>,
    /// SPE worker process ids: by job name for classic jobs, by
    /// `job/stage/instance` for parallel jobs' instances.
    pub spe_pids: BTreeMap<String, ProcessId>,
    /// Store process ids, by host (a replicated store's replica 0).
    pub store_pids: BTreeMap<String, ProcessId>,
    /// Every store replica's process id, by declared host, in member-index
    /// order (equals `store_pids` singletons without replication).
    pub store_group_pids: BTreeMap<String, Vec<ProcessId>>,
    /// The in-memory checkpoint snapshots taken during the run, by job name
    /// (empty for durable backends, whose snapshots live in the store).
    pub checkpoint_snapshots: SnapshotStoreHandle,
    /// The run-wide telemetry handle: the live metrics registry, the
    /// sampled time series (`tidy_csv()`), and the causal event trace
    /// (`chrome_json()` when tracing was enabled).
    pub telemetry: Telemetry,
    /// The measurements.
    pub report: RunReport,
}

impl RunResult {
    /// Builds the Fig. 6b delivery matrix for one producer across all
    /// consumers.
    ///
    /// # Panics
    ///
    /// Panics unless the scenario called [`Scenario::capture_records`]: the
    /// matrix is made of record identities.
    pub fn delivery_matrix(&self, producer_idx: usize) -> DeliveryMatrix {
        let p = &self.report.producers[producer_idx];
        let consumers: Vec<u32> = self.report.consumers.iter().map(|c| c.id).collect();
        let core = self.monitor.borrow();
        DeliveryMatrix::build(&core, p.id, p.sent_index.clone(), &consumers)
    }

    /// Mean end-to-end latency over a topic's deliveries.
    pub fn mean_latency(&self, topic: &str) -> Option<SimDuration> {
        self.monitor.borrow().mean_latency(topic)
    }

    /// Total records delivered across all consumers.
    pub fn total_deliveries(&self) -> usize {
        self.monitor.borrow().total_deliveries() as usize
    }
}

impl fmt::Debug for RunResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunResult")
            .field("report", &self.report.name)
            .field("deliveries", &self.total_deliveries())
            .finish()
    }
}
