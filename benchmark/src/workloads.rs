//! The four workloads: what each offers, how the scenario is wired, and how
//! the sink's fold is checked. Why each exists is in `WHY` strings here, in
//! `BENCHMARK.json` and in the README.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use s2g_broker::{BrokerConfig, ConsumerConfig, ControllerConfig, ProducerConfig, TopicSpec};
use s2g_core::{ConsumerSinkSpec, RunReport, Scenario, SourceSpec, SpeJobSpec, SpeSinkSpec};
use s2g_net::FaultPlan;
use s2g_proto::AckMode;
use s2g_sim::{SimDuration, SimTime};
use s2g_spe::{CheckpointCfg, Plan, SpeConfig};
use s2g_store::StoreConfig;

use crate::load::{Fnv, Fold, KeyDist, LoadPlan, PlanSource, RecordSink, SinkKind, WindowSink};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Identity,
    Replicated,
    KeyedBounce,
}

/// One workload of the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    kind: Kind,
    /// Records offered by one scenario run at full scale.
    records: u64,
    /// Scenario runs per repetition, back to back in one child, each result
    /// dropped before the next starts; run `k` uses seed `s + k`.
    pub runs: u64,
    interval: SimDuration,
    payload: usize,
    /// Simulated events per offered record, measured when the workload was
    /// defined; the event-limit watchdog allows ten times this.
    events_per_record: u64,
    /// Wall seconds one full-scale repetition took when the workload was
    /// defined; the parent's kill timer allows ten times this.
    pub expected_secs: f64,
}

const WINDOW: SimDuration = SimDuration::from_millis(500);
const ZIPF_KEYS: usize = 1024;
const UNIFORM_KEYS: usize = 4096;
const DRAIN_TAIL: SimDuration = SimDuration::from_secs(15);
const BOUNCE_DOWN: SimDuration = SimDuration::from_secs(2);
const PARALLELISM: usize = 4;

pub const ALL: [Workload; 4] = [
    Workload {
        name: "identity-1m",
        kind: Kind::Identity,
        records: 1_000_000,
        runs: 1,
        interval: SimDuration::from_micros(20),
        payload: 64,
        events_per_record: 4,
        expected_secs: 3.5,
    },
    Workload {
        name: "identity-10x100k",
        kind: Kind::Identity,
        records: 100_000,
        runs: 10,
        interval: SimDuration::from_micros(20),
        payload: 64,
        events_per_record: 5,
        expected_secs: 3.5,
    },
    Workload {
        name: "replicated-1k",
        kind: Kind::Replicated,
        records: 300_000,
        runs: 1,
        interval: SimDuration::from_micros(100),
        payload: 1024,
        events_per_record: 5,
        expected_secs: 3.5,
    },
    Workload {
        name: "keyed-eo-bounce",
        kind: Kind::KeyedBounce,
        records: 150_000,
        runs: 1,
        interval: SimDuration::from_micros(200),
        payload: 64,
        events_per_record: 17,
        expected_secs: 4.5,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    ALL.iter().copied().find(|w| w.name == name)
}

/// One scenario ready to run, with the handles the check needs afterwards.
pub struct Built {
    pub scenario: Scenario,
    pub fold: Rc<RefCell<Fold>>,
}

impl Workload {
    /// Records one repetition offers at `1 / scale` of full size.
    pub fn records_per_rep(&self, scale: u64) -> u64 {
        self.records / scale * self.runs
    }

    /// The hosts the scenario puts on its one switch (the controller's
    /// included), for kernels that rebuild the workload's topology.
    pub fn hosts(&self) -> Vec<String> {
        let names: &[&str] = match self.kind {
            Kind::Identity => &["h0", "hs", "hp", "hc", "ctl1"],
            Kind::Replicated => &["b0", "b1", "b2", "hp", "hc", "ctl1"],
            Kind::KeyedBounce => &["b0", "b1", "b2", "st", "st-r1", "st-r2", "hp", "hc", "ctl1"],
        };
        let mut hosts: Vec<String> = names.iter().map(|h| h.to_string()).collect();
        if self.kind == Kind::KeyedBounce {
            // Each instance of a parallel job gets a host of its own.
            for stage in 0..2 {
                hosts.extend((0..PARALLELISM).map(|i| format!("hs-{stage}-{i}")));
            }
        }
        hosts
    }

    /// The workload whose run time per record this one's is compared with
    /// for `core.linearity_ratio`: the same pipeline and record total, in
    /// one long run or in ten short ones.
    pub fn linearity_partner(&self) -> Option<Workload> {
        match self.name {
            "identity-1m" => by_name("identity-10x100k"),
            "identity-10x100k" => by_name("identity-1m"),
            _ => None,
        }
    }

    /// The operator kernel that stands for this workload's job in
    /// `spe.est_share`; `None` when no SPE runs.
    pub fn spe_kernel(&self) -> Option<&'static str> {
        match self.kind {
            Kind::Identity => Some("spe.ops.map_ns_per_event"),
            Kind::Replicated => None,
            Kind::KeyedBounce => Some("spe.ops.keyby_window_ns_per_event"),
        }
    }

    /// Pre-generates what run `k` of a repetition offers. At `1 / scale`
    /// the record count shrinks and the interval stretches by the same
    /// factor, so the simulated timeline (windows, checkpoints, faults) is
    /// the one the full workload has.
    pub fn plan(&self, seed: u64, k: u64, scale: u64) -> Rc<LoadPlan> {
        let keys = match self.kind {
            Kind::Identity => None,
            Kind::Replicated => Some((UNIFORM_KEYS, KeyDist::Uniform)),
            Kind::KeyedBounce => Some((ZIPF_KEYS, KeyDist::Zipf)),
        };
        LoadPlan::new(
            seed.wrapping_add(k),
            "events",
            self.records / scale,
            self.interval * scale,
            self.payload,
            keys,
        )
    }

    /// Builds the scenario for `plan`. With `traffic` off the duration is
    /// zero: topology, routes, processes and the report are all built, and
    /// nothing is offered (the set-up measurement).
    pub fn build(&self, plan: &Rc<LoadPlan>, seed: u64, traffic: bool, sim_trace: bool) -> Built {
        let fold = Fold::new(plan.records);
        let mut sc = Scenario::new(self.name);
        sc.seed(seed).with_telemetry_trace(sim_trace);
        let source = {
            let plan = plan.clone();
            SourceSpec::Custom {
                topics: vec![plan.topic.clone()],
                make: Box::new(move || Box::new(PlanSource::new(plan.clone()))),
            }
        };
        let window = plan.produce_window();
        let duration = match self.kind {
            Kind::Identity => {
                identity(&mut sc, source, record_sink(plan, &fold, SinkKind::Event));
                window + SimDuration::from_secs(5)
            }
            Kind::Replicated => {
                replicated(&mut sc, source, record_sink(plan, &fold, SinkKind::Raw));
                window + SimDuration::from_secs(5)
            }
            Kind::KeyedBounce => {
                let fold = fold.clone();
                let sink = ConsumerSinkSpec::Custom(Box::new(move || {
                    Box::new(WindowSink {
                        fold: fold.clone(),
                        width: WINDOW,
                    })
                }));
                keyed_bounce(&mut sc, source, sink, window);
                window + DRAIN_TAIL
            }
        };
        sc.duration(if traffic {
            SimTime::ZERO + duration
        } else {
            SimTime::ZERO
        });
        // Livelock guard: ten times the events the workload is known to
        // need, with a floor for the timer-dominated small scales. The
        // self-tests lower it through the environment to see a child die.
        let limit = std::env::var("S2G_BENCH_EVENT_LIMIT")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or((plan.records * self.events_per_record * 10).max(20_000_000));
        sc.event_limit(limit);
        Built { scenario: sc, fold }
    }

    /// Checks one finished run's fold against what its plan offered: how
    /// many of the `plan.records` offered were lost, duplicated, corrupted
    /// or miscounted.
    pub fn failed(&self, plan: &LoadPlan, fold: &Fold) -> u64 {
        let attempted = plan.records;
        let failed = match self.kind {
            Kind::Identity | Kind::Replicated => {
                let lost = attempted - fold.distinct();
                lost + fold.duplicates + fold.corrupt
            }
            Kind::KeyedBounce => {
                // Per-key totals equal the generated histogram (so Σ window
                // counts == offered). A `(key, window)` delivered twice is
                // not a failure: the engine re-opens an emitted window for
                // a late record (see the README); the pieces still add up.
                let mut per_key = vec![0u64; ZIPF_KEYS];
                let mut stray = 0;
                for ((key, _), n) in &fold.windows {
                    match per_key.get_mut(usize::from(*key)) {
                        Some(slot) => *slot += n,
                        None => stray += n,
                    }
                }
                let miscounted: u64 = plan
                    .key_histogram()
                    .iter()
                    .zip(&per_key)
                    .map(|(want, got)| want.abs_diff(*got))
                    .sum();
                miscounted + stray + fold.corrupt
            }
        };
        failed.min(attempted)
    }
}

fn record_sink(plan: &Rc<LoadPlan>, fold: &Rc<RefCell<Fold>>, kind: SinkKind) -> ConsumerSinkSpec {
    let (plan, fold) = (plan.clone(), fold.clone());
    ConsumerSinkSpec::Custom(Box::new(move || {
        Box::new(RecordSink {
            plan: plan.clone(),
            fold: fold.clone(),
            kind,
        })
    }))
}

fn fast_consumer() -> ConsumerConfig {
    ConsumerConfig {
        poll_interval: SimDuration::from_millis(5),
        max_poll_records: 5_000,
        ..ConsumerConfig::default()
    }
}

/// 1 broker, 1 topic -> identity `map` job -> sink consumer; default
/// batching. ROADMAP's baseline pipeline (`--bench hotpath` at scale).
fn identity(sc: &mut Scenario, source: SourceSpec, sink: ConsumerSinkSpec) {
    sc.topic(TopicSpec::new("events"))
        .topic(TopicSpec::new("out"));
    sc.broker("h0");
    sc.producer("hp", source, ProducerConfig::default());
    sc.spe_job(
        "hs",
        SpeJobSpec::new(
            "ident",
            vec!["events".into()],
            || Plan::new().map("ident", |e| e),
            SpeSinkSpec::Topic("out".into()),
            SpeConfig {
                batch_interval: SimDuration::from_millis(10),
                scheduling_overhead: SimDuration::from_millis(1),
                cpu_per_record: SimDuration::from_micros(2),
                startup_cpu: SimDuration::from_millis(100),
                consumer: fast_consumer(),
                ..SpeConfig::default()
            },
        ),
    );
    sc.consumer_with_sink("hc", fast_consumer(), &["out"], sink);
}

/// 3 brokers, RF = 3, `acks=all`, one 4-partition topic, keyed 1 KiB
/// records, a plain consumer, no SPE.
fn replicated(sc: &mut Scenario, source: SourceSpec, sink: ConsumerSinkSpec) {
    sc.topic(TopicSpec::new("events").partitions(4));
    for h in ["b0", "b1", "b2"] {
        sc.broker_with(
            h,
            BrokerConfig {
                replica_fetch_interval: SimDuration::from_millis(2),
                ..BrokerConfig::default()
            },
        );
    }
    sc.with_replicated_partitions(3)
        .with_acks(AckMode::All)
        .linger_ms(20);
    sc.producer("hp", source, ProducerConfig::default());
    sc.consumer_with_sink("hc", fast_consumer(), &["events"], sink);
}

/// The paper's own use case, an application tested under failures: a
/// parallelism-4 `key_by -> window_count` job with incremental exactly-once
/// checkpoints through a store host and transactional sinks, on a 3-broker
/// RF = 3 `acks=all` cluster whose brokers are bounced one after another.
fn keyed_bounce(
    sc: &mut Scenario,
    source: SourceSpec,
    sink: ConsumerSinkSpec,
    produce_window: SimDuration,
) {
    sc.topic(TopicSpec::new("events").partitions(8))
        .topic(TopicSpec::new("counts"));
    for h in ["b0", "b1", "b2"] {
        sc.broker_with(
            h,
            BrokerConfig {
                heartbeat_interval: SimDuration::from_millis(300),
                session_timeout: SimDuration::from_secs(1),
                replica_fetch_interval: SimDuration::from_millis(10),
                replica_lag_max: SimDuration::from_secs(1),
                ..BrokerConfig::default()
            },
        );
    }
    sc.controller_config(ControllerConfig {
        session_timeout: SimDuration::from_secs(1),
        session_check_interval: SimDuration::from_millis(250),
        ..ControllerConfig::default()
    });
    sc.with_replicated_partitions(3)
        .with_acks(AckMode::All)
        .linger_ms(50);
    sc.producer(
        "hp",
        source,
        ProducerConfig {
            request_timeout: SimDuration::from_millis(500),
            ..ProducerConfig::default()
        },
    );
    sc.spe_job(
        "hs",
        SpeJobSpec::new(
            "counts",
            vec!["events".into()],
            || {
                Plan::new()
                    .key_by("key", |e| e.key.clone().unwrap_or_default())
                    .window_count("count", WINDOW)
            },
            SpeSinkSpec::Topic("counts".into()),
            SpeConfig {
                batch_interval: SimDuration::from_millis(50),
                scheduling_overhead: SimDuration::from_millis(2),
                cpu_per_record: SimDuration::from_micros(2),
                startup_cpu: SimDuration::from_millis(100),
                consumer: fast_consumer(),
                ..SpeConfig::default()
            },
        )
        .parallelism(PARALLELISM),
    );
    sc.store("st", StoreConfig::default())
        .with_replicated_store(3);
    sc.with_durable_checkpointing(CheckpointCfg::exactly_once(WINDOW).incremental(8), "st");
    sc.with_transactional_sinks();
    sc.consumer_with_sink("hc", fast_consumer(), &["counts"], sink);
    let mut faults = FaultPlan::new();
    for broker in 0..3u32 {
        let at = SimTime::ZERO + produce_window / 4 * u64::from(broker + 1);
        faults = faults.crash_restart_broker(broker, at, BOUNCE_DOWN);
    }
    sc.faults(faults);
}

/// FNV-1a over every counter the run reports and the sink's fold. Same seed,
/// same digest; a "speed-up" that changes simulated behaviour changes it.
/// Hashes the `Debug` text of the counter structs, so it covers every field
/// they have (and changes when a PR adds one, which the PR then says).
pub fn sim_digest(report: &RunReport, fold: &Fold) -> u64 {
    let mut text = String::new();
    let _ = write!(text, "{:?}", report.sim_stats);
    for p in &report.producers {
        let _ = write!(text, "{:?}", p.stats);
    }
    for c in &report.consumers {
        let _ = write!(text, "{:?}", c.stats);
    }
    for b in &report.brokers {
        let _ = write!(text, "{:?}", b.stats);
    }
    for (name, s) in &report.spe {
        let _ = write!(
            text,
            "{name}{:?}{:?}{:?}",
            s.record_counts, s.checkpoints, s.consumer_stats
        );
    }
    let _ = write!(
        text,
        "{}/{}/{:?}",
        fold.count, fold.checksum, fold.last_delivery
    );
    let mut h = Fnv::new();
    h.bytes(text.as_bytes());
    h.0
}
