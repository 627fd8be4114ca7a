//! The event budget: how many simulator events a run spends per record it
//! is offered, on small versions of three of the benchmark's shapes.
//!
//! Wall-clock cost is events times the cost of one, and the count repeats
//! exactly for a given build, so it can be held in tier-1 where a timing
//! cannot. Each ceiling is this build's measurement plus 10 %, and a run
//! over it is told apart by kind of event. What the ceilings guard
//! (`docs/performance.md`, "Where a stateful run's events go", "What a
//! held fetch saves" and "What a held replica fetch saves"): a completion event for CPU work nobody waits on, a
//! timer armed and cancelled per fetch, one replica fetch per partition
//! instead of per leader, client fetches that ask again and again whether
//! anything was appended, replica fetches asking every tick whether
//! anything was appended, and on the bounce shape two protocol bugs the
//! event count was the first to show: produces retried at round-trip rate
//! against a stale leader, and a second catch-up chain started by every
//! replica tick.

use std::cell::RefCell;
use std::rc::Rc;

use rand::rngs::StdRng;
use stream2gym::broker::{
    BrokerConfig, ConsumerConfig, ControllerConfig, DataSink, DataSource, ProducerConfig,
    SourceAction, TopicSpec,
};
use stream2gym::core::{
    ConsumerSinkSpec, RunReport, Scenario, SourceSpec, SpeJobSpec, SpeSinkSpec,
};
use stream2gym::net::FaultPlan;
use stream2gym::proto::{AckMode, Record, TopicPartition};
use stream2gym::sim::{SimDuration, SimTime};
use stream2gym::spe::{CheckpointCfg, Event, Plan, SpeConfig};
use stream2gym::store::StoreConfig;

/// How far above its recorded measurement a count may read.
const SLACK: f64 = 1.10;

/// `left` records of `payload` bytes, one per `interval`, keyed `k0..k63`
/// in turn when `keyed`.
struct Offered {
    left: u64,
    interval: SimDuration,
    payload: usize,
    keyed: bool,
}

impl DataSource for Offered {
    fn next(&mut self, _now: SimTime, _rng: &mut StdRng) -> SourceAction {
        if self.left == 0 {
            return SourceAction::Done;
        }
        self.left -= 1;
        SourceAction::Emit {
            topic: "events".into(),
            key: self
                .keyed
                .then(|| format!("k{}", self.left % 64).into_bytes()),
            value: vec![b'x'; self.payload],
            next_after: self.interval,
        }
    }
}

fn source(records: u64, interval: SimDuration, payload: usize, keyed: bool) -> SourceSpec {
    SourceSpec::Custom {
        topics: vec!["events".into()],
        make: Box::new(move || {
            Box::new(Offered {
                left: records,
                interval,
                payload,
                keyed,
            })
        }),
    }
}

/// Adds up what reaches it: records, or the counts window results carry.
struct Summing {
    total: Rc<RefCell<u64>>,
    window_counts: bool,
}

impl DataSink for Summing {
    fn on_records(&mut self, _now: SimTime, _tp: &TopicPartition, records: &[Record]) {
        let mut total = self.total.borrow_mut();
        for r in records {
            *total += if self.window_counts {
                let e = Event::from_bytes(&r.value).expect("a window result");
                u64::try_from(e.value.as_int().expect("a count")).expect("positive")
            } else {
                1
            };
        }
    }
}

fn summing(total: &Rc<RefCell<u64>>, window_counts: bool) -> ConsumerSinkSpec {
    let total = total.clone();
    ConsumerSinkSpec::Custom(Box::new(move || {
        Box::new(Summing {
            total: total.clone(),
            window_counts,
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

fn spe_config(batch_ms: u64, overhead_ms: u64) -> SpeConfig {
    SpeConfig {
        batch_interval: SimDuration::from_millis(batch_ms),
        scheduling_overhead: SimDuration::from_millis(overhead_ms),
        cpu_per_record: SimDuration::from_micros(2),
        startup_cpu: SimDuration::from_millis(100),
        consumer: fast_consumer(),
        ..SpeConfig::default()
    }
}

/// Runs `sc` and returns its report once the sink has seen all `records`.
fn run(sc: Scenario, records: u64, total: &RefCell<u64>) -> RunReport {
    let report = sc.run().expect("runs").report;
    assert_eq!(
        *total.borrow(),
        records,
        "every record counted exactly once"
    );
    report
}

/// Holds the run's events per offered record under `measured` plus the
/// slack, and says which kind of event grew when they are not.
fn assert_events(report: &RunReport, records: u64, measured: f64) {
    let s = &report.sim_stats;
    let per_record = |events: u64| events as f64 / records as f64;
    let total = per_record(s.events_processed);
    println!("{}: {total:.2} events per record", report.name);
    let dispatched = s.messages_delivered + s.timers_fired + s.cpu_completions;
    let starts = s.events_processed - dispatched - s.timers_cancelled - s.events_voided;
    assert!(
        total <= measured * SLACK,
        "{}: {total:.2} events per offered record against a ceiling of {:.2} ({measured} when \
         recorded): something schedules events nobody acts on again. Per record: {:.4} starts, \
         {:.3} messages, {:.3} timers fired, {:.3} timers cancelled, {:.3} CPU completions, \
         {:.4} voided",
        report.name,
        measured * SLACK,
        per_record(starts),
        per_record(s.messages_delivered),
        per_record(s.timers_fired),
        per_record(s.timers_cancelled),
        per_record(s.cpu_completions),
        per_record(s.events_voided),
    );
}

/// What a consumer with nothing to read costs: its fetches are held by the
/// broker, so it adds a handful of events per partition and second however
/// short its `poll_interval`. (Asking every 5 ms whether anything was
/// appended added about 650.)
#[test]
fn an_idle_consumer_waits_instead_of_asking() {
    let (partitions, secs) = (4, 10);
    let events = |consumer: bool| {
        let mut sc = Scenario::new("event-budget-idle");
        sc.seed(1)
            .duration(SimTime::from_secs(secs))
            .topic(TopicSpec::new("events").partitions(partitions));
        sc.broker("h0");
        if consumer {
            let total = Rc::new(RefCell::new(0));
            sc.consumer_with_sink("hc", fast_consumer(), &["events"], summing(&total, false));
        }
        sc.run().expect("runs").report.sim_stats.events_processed
    };
    let added = events(true) - events(false);
    let per_partition_second = added as f64 / (u64::from(partitions) * secs) as f64;
    println!("an idle consumer adds {per_partition_second:.2} events per partition and second");
    // Two held fetches a second at three events each (request, the
    // broker's CPU, reply), and the consumer's own background tick.
    assert!(
        per_partition_second <= 8.0,
        "{added} events over {secs} s and {partitions} partitions: \
         {per_partition_second:.1} per partition and second"
    );
}

/// `identity-1m`'s shape: 1 broker, topic → identity `map` job → consumer.
#[test]
fn identity_pipeline() {
    let records = 20_000;
    let interval = SimDuration::from_micros(20);
    let total = Rc::new(RefCell::new(0));
    let mut sc = Scenario::new("event-budget-identity");
    sc.seed(1)
        .duration(SimTime::ZERO + interval * records + SimDuration::from_secs(1))
        .topic(TopicSpec::new("events"))
        .topic(TopicSpec::new("out"));
    sc.broker("h0");
    let producer = ProducerConfig::default();
    sc.producer("hp", source(records, interval, 64, false), producer);
    sc.spe_job(
        "hs",
        SpeJobSpec::new(
            "ident",
            vec!["events".into()],
            || Plan::new().map("ident", |e| e),
            SpeSinkSpec::Topic("out".into()),
            spe_config(10, 1),
        ),
    );
    sc.consumer_with_sink("hc", fast_consumer(), &["out"], summing(&total, false));
    let report = run(sc, records, &total);
    // 3.18 when the producer scheduled a completion per record and every
    // fetch a timeout, 1.17 when the consumers asked every 5 ms; of the
    // 1.06, 1.0 is the source's own timer.
    assert_events(&report, records, 1.06);
}

/// `replicated-1k`'s shape: 3 brokers, RF 3, `acks=all`, 4 partitions,
/// keyed 1 KiB records, a plain consumer.
#[test]
fn replicated_topic() {
    let records = 10_000;
    let interval = SimDuration::from_micros(100);
    let total = Rc::new(RefCell::new(0));
    let mut sc = Scenario::new("event-budget-replicated");
    sc.seed(1)
        .duration(SimTime::ZERO + interval * records + SimDuration::from_secs(1))
        .topic(TopicSpec::new("events").partitions(4));
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
    let producer = ProducerConfig::default();
    sc.producer("hp", source(records, interval, 1024, true), producer);
    sc.consumer_with_sink("hc", fast_consumer(), &["events"], summing(&total, false));
    let report = run(sc, records, &total);
    // 5.70 with one replica fetch per partition, 4.09 with polled client
    // fetches, 3.58 while followers asked every 2 ms whether anything was
    // appended.
    assert_events(&report, records, 1.86);
}

/// `keyed-eo-bounce`'s shape with one bounce: a parallelism-4 keyed window
/// count with incremental exactly-once checkpoints through a replicated
/// store and transactional sinks, on 3 brokers at RF 3, one of which is
/// down for two seconds in the middle of the 7.8 s produce window.
#[test]
fn keyed_exactly_once_job_under_a_broker_bounce() {
    let records = 60_000;
    let interval = SimDuration::from_micros(130);
    let window = SimDuration::from_millis(500);
    let down = SimDuration::from_secs(2);
    let total = Rc::new(RefCell::new(0));
    let mut sc = Scenario::new("event-budget-bounce");
    sc.seed(1)
        .duration(SimTime::ZERO + interval * records + SimDuration::from_secs(8))
        .topic(TopicSpec::new("events").partitions(8))
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
    let producer = ProducerConfig {
        request_timeout: SimDuration::from_millis(500),
        ..ProducerConfig::default()
    };
    let retry_backoff = producer.retry_backoff;
    sc.producer("hp", source(records, interval, 64, true), producer);
    let plan = move || {
        Plan::new()
            .key_by("key", |e| e.key.clone().unwrap_or_default())
            .window_count("count", window)
    };
    let job = SpeJobSpec::new(
        "counts",
        vec!["events".into()],
        plan,
        SpeSinkSpec::Topic("counts".into()),
        spe_config(50, 2),
    );
    sc.spe_job("hs", job.parallelism(4));
    sc.store("st", StoreConfig::default())
        .with_replicated_store(3);
    sc.with_durable_checkpointing(CheckpointCfg::exactly_once(window).incremental(8), "st");
    sc.with_transactional_sinks();
    sc.consumer_with_sink("hc", fast_consumer(), &["counts"], summing(&total, true));
    // Broker 0 is the one every client asks for metadata, and 4.5 s is
    // when a checkpoint's produces are in flight: the conditions under
    // which the stale-leader retry storm showed (6 245 and 12 490 retries
    // by three of the four stage-0 producers before the backoff held).
    sc.faults(FaultPlan::new().crash_restart_broker(0, SimTime::from_millis(4_500), down));
    let report = run(sc, records, &total);
    // 14.55 with the retry storm and the duplicate catch-up chains, 6.02
    // with polled client fetches, 1.98 while the store kept superseded
    // checkpoint chains (each delete is an op the group replicates), 2.00
    // while the store primary pushed each op to each replica and took an
    // ack for it (one fetch now brings every op appended since the last),
    // 1.96 while followers asked every 10 ms whether anything was appended.
    assert_events(&report, records, 1.67);

    // A produce that bounces off a stale leader waits out the backoff, so
    // what a producer can retry is bounded by time, not by round trips: at
    // most once per backoff and partition, for as long as the broker is
    // down and then for the two seconds its clients may sit on metadata
    // from before (their refresh goes to the broker still replaying).
    let stale = down + SimDuration::from_secs(2);
    let per_partition = stale.as_nanos() / retry_backoff.as_nanos() + 2;
    for (name, instance) in &report.spe_instances {
        let retries = instance.producer_stats.retries;
        println!("{name}: {retries} produce retries");
        assert!(
            retries <= 16 * per_partition,
            "{name} retried {retries} produces over a {stale} window with a backoff of \
             {retry_backoff}: a bounced produce is being resent at once"
        );
    }
    // A restarted follower catches up in one chain of fetches, so next to
    // nothing it is sent is something it already holds (0 here; 39 099 of
    // 364 890 when every replica tick started another chain).
    let redundant: u64 = report
        .brokers
        .iter()
        .map(|b| b.stats.replica_records_redundant)
        .sum();
    let appended: u64 = report
        .brokers
        .iter()
        .map(|b| b.stats.records_appended)
        .sum();
    println!("{redundant} redundant of {appended} records appended");
    assert!(
        redundant * 20 <= appended,
        "{redundant} replicated records were already held, against {appended} appended: \
         several fetches are racing for the same range"
    );
}
