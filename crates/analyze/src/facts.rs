//! The resolved plan of a scenario: plain data, derived once by
//! `s2g-core`'s `Scenario::resolve` and read by both the analyzer and the
//! runtime builder.
//!
//! The analyzer never sees the `Scenario` type itself (that would make
//! `s2g-core` and `s2g-analyze` mutually dependent); core flattens the
//! builder state — every scenario-level override applied, shuffle topics
//! declared, stages and hosts laid out, fault targets resolved — into
//! these structs. [`crate::analyze`] judges them and `Scenario::run`
//! builds the processes from the very same values, so the two cannot
//! disagree. What is not data (plan factories, source and sink specs)
//! stays on the `Scenario`, reached by the indices used here.

use s2g_broker::{BrokerConfig, ConsumerConfig, ControllerConfig, ProducerConfig};
use s2g_sim::{SimDuration, SimTime};
use s2g_spe::SpeConfig;

/// One declared (or auto-declared shuffle) topic.
#[derive(Debug, Clone)]
pub struct TopicFacts {
    /// Topic name.
    pub name: String,
    /// Partition count.
    pub partitions: u32,
    /// Effective replication factor (after any
    /// `with_replicated_partitions` override and broker-count cap).
    pub replication: u32,
    /// Replication factor as literally declared on the `TopicSpec`,
    /// before any override/cap — what the author asked for.
    pub declared_replication: u32,
    /// True for a generated `__shuffle.<job>.<stage>` topic.
    pub shuffle: bool,
    /// Preferred leader broker of partition 0, as declared.
    pub primary: Option<u32>,
}

/// One broker, with its post-override config.
#[derive(Debug, Clone)]
pub struct BrokerFacts {
    /// Placement host.
    pub host: String,
    /// Effective config (scenario-level retention/compaction knobs folded
    /// in).
    pub cfg: BrokerConfig,
}

/// One store-server replica; [`ComponentRef::Store`] indexes the flattened
/// list (declaration order x replication factor).
#[derive(Debug, Clone)]
pub struct StoreReplicaFacts {
    /// Index of the store declaration (the group) this replica belongs to.
    pub group: usize,
    /// Member index within the group (0 = the declared host, the initial
    /// primary).
    pub replica: u32,
    /// Host the replica runs on (`<host>` or the auto-added `<host>-r<i>`).
    pub host: String,
}

/// One producer stub, with rate/size hints recovered from its source spec.
#[derive(Debug, Clone)]
pub struct ProducerFacts {
    /// Fault-target name (`producer-<idx>`).
    pub name: String,
    /// Placement host.
    pub host: String,
    /// Topics the source emits to.
    pub topics: Vec<String>,
    /// Effective config (acks override and batching overrides applied).
    pub cfg: ProducerConfig,
    /// Smallest inter-record interval the source can sustain, when the
    /// spec implies one (`Rate`/`Items` intervals, `Poisson` mean,
    /// `RandomTopics` bitrate).
    pub min_interval: Option<SimDuration>,
    /// Largest payload the source emits, when the spec declares one.
    pub max_payload: Option<usize>,
}

/// One consumer stub.
#[derive(Debug, Clone)]
pub struct ConsumerFacts {
    /// Fault-target name (`consumer-<idx>`).
    pub name: String,
    /// Placement host.
    pub host: String,
    /// Subscribed topics.
    pub topics: Vec<String>,
    /// Effective config (`with_transactional_sinks` read-committed fold
    /// and the `consumer-<idx>` group-member-id default applied).
    pub cfg: ConsumerConfig,
}

/// One stream job, flattened to its effective engine config and stage
/// layout.
#[derive(Debug, Clone)]
pub struct JobFacts {
    /// Job name (also its fault-target name).
    pub name: String,
    /// Declared host: the worker's own for a classic job, the prefix of
    /// the per-instance hosts for a parallel one.
    pub host: String,
    /// Source topics.
    pub sources: Vec<String>,
    /// Sink topic, when the sink is a topic.
    pub sink_topic: Option<String>,
    /// Store host, when the sink is a store.
    pub sink_store_host: Option<String>,
    /// Effective engine config: scenario-level checkpointing fallback,
    /// transactional-sink fold, acks override, and batching overrides all
    /// applied.
    pub cfg: SpeConfig,
    /// True when the job uses the parallel stage machinery.
    pub parallel: bool,
    /// Stage count of the job's plan.
    pub n_stages: usize,
    /// Per-stage instance count the job starts with.
    pub stage_par: Vec<usize>,
    /// Per-stage maximum instance count (covers initial parallelism and
    /// any rescale target).
    pub max_per: Vec<usize>,
    /// Fixed key-group count.
    pub key_groups: u32,
    /// Rescale-on-restart target parallelism, when set.
    pub rescale: Option<usize>,
}

/// A crashable component, as a typed index into the resolved plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ComponentRef {
    /// `brokers[i]`.
    Broker(usize),
    /// `store_replicas[i]`.
    Store(usize),
    /// Every stage instance of `jobs[j]`.
    Job(usize),
    /// One worker: `(job, stage, instance)`.
    Instance(usize, usize, usize),
    /// `producers[i]`.
    Producer(usize),
    /// `consumers[i]`.
    Consumer(usize),
}

/// What a fault event acts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultTarget {
    /// A named process: an SPE job, a `job/stage/instance` stage
    /// instance, or a `producer-<idx>`/`consumer-<idx>` stub.
    Process(String),
    /// A broker by declaration index.
    Broker(u32),
    /// A store replica by global replica index.
    Store(u32),
    /// A link/node/routing action; the label names the affected host or
    /// `a-b` link so outage windows can be paired up.
    Net(String),
}

/// Crash/restart polarity of a fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Takes the target down.
    Crash,
    /// Brings the target back.
    Restart,
    /// Anything else (loss/latency/routing tweaks).
    Other,
}

/// One fault-plan event, normalized.
#[derive(Debug, Clone)]
pub struct FaultFacts {
    /// Scheduled time.
    pub at: SimTime,
    /// Target.
    pub target: FaultTarget,
    /// Polarity.
    pub kind: FaultKind,
    /// The component a process-level event acts on; `None` for network
    /// events and for targets that name nothing (S2G006-S2G008).
    pub component: Option<ComponentRef>,
}

/// The resolved plan: what the analyzer judges and the run is built from.
#[derive(Debug, Clone)]
pub struct ScenarioFacts {
    /// Scenario name.
    pub name: String,
    /// Simulated run length.
    pub duration: SimTime,
    /// One-way latency of the default access link (round-trip estimates).
    pub link_latency: SimDuration,
    /// Some link drops packets: the default link, a host's own, or one of
    /// the explicit topology's has a loss rate.
    pub lossy_links: bool,
    /// Controller config (election timing).
    pub controller: ControllerConfig,
    /// Declared topics plus the auto-declared shuffle topics.
    pub topics: Vec<TopicFacts>,
    /// `with_replicated_partitions` override, when set.
    pub partition_replication: Option<u32>,
    /// Brokers in declaration order (`CrashBroker(i)` indexes this).
    pub brokers: Vec<BrokerFacts>,
    /// Declared store hosts (replica 0 of each group).
    pub store_hosts: Vec<String>,
    /// Replicas per store declaration.
    pub store_replication: usize,
    /// Every store replica, flattened (`CrashStore(i)` indexes this).
    pub store_replicas: Vec<StoreReplicaFacts>,
    /// Producer stubs.
    pub producers: Vec<ProducerFacts>,
    /// Consumer stubs.
    pub consumers: Vec<ConsumerFacts>,
    /// Stream jobs.
    pub jobs: Vec<JobFacts>,
    /// The fault plan, normalized and time-ordered.
    pub faults: Vec<FaultFacts>,
    /// Every process name a fault may legally target (job names, stage
    /// instances, stubs) with the component it resolves to; the names are
    /// also the typo-suggestion corpus.
    pub process_targets: Vec<(String, ComponentRef)>,
    /// Hosts of the explicit topology, when one was set (`None` means the
    /// star topology is generated from `required_hosts`).
    pub topology_hosts: Option<Vec<String>>,
    /// Hosts every component and controller needs to exist, components
    /// first (in spawn order), then `controller_hosts`.
    pub required_hosts: Vec<String>,
    /// Controller hosts (`ctl1`, or `ctl1..ctl3` under KRaft).
    pub controller_hosts: Vec<String>,
    /// Per-host overrides as `(builder method, host)`, in host order.
    pub host_overrides: Vec<(&'static str, String)>,
    /// Store host backing scenario checkpoints, when store-backed.
    pub checkpoint_store_host: Option<String>,
    /// Store host backing broker durability, when store-backed.
    pub durability_store_host: Option<String>,
    /// `with_transactional_sinks` was called.
    pub transactional_sinks: bool,
    /// Self-re-arming periods that no config above carries, as
    /// `(owner, knob, period)`: the telemetry sampler's while telemetry is
    /// on, the resource sampler's, and each store's ticks (S2G027).
    pub other_periods: Vec<(String, &'static str, SimDuration)>,
}

impl ScenarioFacts {
    /// Largest effective replication factor across topics (1 when no
    /// topics are declared).
    pub(crate) fn max_replication(&self) -> u32 {
        self.topics.iter().map(|t| t.replication).max().unwrap_or(1)
    }

    /// True when any producer stub or topic-sink job produces with
    /// `acks=all`.
    pub(crate) fn any_acks_all(&self) -> bool {
        use s2g_proto::AckMode;
        self.producers.iter().any(|p| p.cfg.acks == AckMode::All)
            || self
                .jobs
                .iter()
                .any(|j| j.sink_topic.is_some() && j.cfg.producer.acks == AckMode::All)
    }
}
