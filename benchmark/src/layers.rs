//! Layer kernels: each calls one layer's public functions directly, on
//! inputs shaped like the workloads, and reports nanoseconds per unit of
//! work. Best of three slices, one span per kernel under a `layers` parent.
//!
//! The kernels only reach what the repository exports as `pub`, because a
//! later change that claims a gain may not edit this file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use s2g_broker::{
    Broker, BrokerConfig, ConsumerClient, ConsumerConfig, ConsumerProcess, ControllerConfig,
    CoordinationMode, DataSink, LogSegment, PartitionLog, ProducerClient, ProducerConfig,
    ProducerProcess, TopicSpec, ZkController,
};
use s2g_net::{LinkSpec, Network, Topology};
use s2g_proto::{BrokerId, LeaderEpoch, Offset, ProducerId, Record, RecordBatch, TopicPartition};
use s2g_sim::{Ctx, Message, Process, ProcessId, Sim, SimDuration, SimTime};
use s2g_spe::{Event, Plan, StateDelta, StateSnapshot, Value};
use s2g_store::KvStore;
use s2g_telemetry::Registry;

use crate::load::{KeyDist, Lcg, LoadPlan, PlanSource};
use crate::spans::Spans;
use crate::workloads::Workload;

/// Slice length the issue fixes for a full run; shorter slices scale the
/// fixed-size kernels down with them.
pub const FULL_SLICE_S: f64 = 0.3;

struct Bench<'a> {
    spans: &'a mut Spans,
    slice: Duration,
    out: BTreeMap<String, f64>,
}

impl Bench<'_> {
    /// Runs `work` (which returns the units of work it did and how long the
    /// measured part took) until a slice is full, three times; records the
    /// best nanoseconds per unit under `name`.
    fn run(&mut self, name: &str, mut work: impl FnMut() -> (u64, Duration)) {
        let span = self.spans.enter(name);
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let (mut units, mut spent) = (0u64, Duration::ZERO);
            while spent < self.slice {
                let (u, d) = work();
                units += u;
                spent += d;
            }
            best = best.min(spent.as_nanos() as f64 / units as f64);
        }
        self.spans.exit(span);
        self.out.insert(name.to_string(), best);
    }
}

/// Times `f` and returns `(units, elapsed)`.
fn timed(units: u64, f: impl FnOnce()) -> (u64, Duration) {
    let t = Instant::now();
    f();
    (units, t.elapsed())
}

/// Runs every kernel. Workload-shaped kernels (`net.*`, `analyze.*` comes
/// from the set-up child) are keyed `name@workload`.
pub fn run(seed: u64, slice_s: f64, workloads: &[Workload]) -> String {
    let mut spans = Spans::new();
    let root = spans.enter("layers");
    let mut b = Bench {
        spans: &mut spans,
        slice: Duration::from_secs_f64(slice_s),
        out: BTreeMap::new(),
    };
    sim_kernels(&mut b, seed);
    for w in workloads {
        net_kernels(&mut b, seed, w);
    }
    proto_kernels(&mut b, seed);
    log_kernels(&mut b, seed);
    broker_loop(&mut b, seed, slice_s);
    spe_kernels(&mut b, seed);
    store_kernels(&mut b, seed);
    telemetry_kernels(&mut b);
    let out = b.out;
    spans.exit(root);
    let mut line = String::from("RESULT digest=0");
    for (k, v) in &out {
        let _ = write!(line, " {k}={v}");
    }
    format!("{}{line}\n", spans.to_lines())
}

// ---------------------------------------------------------------- sim

#[derive(Debug)]
struct Ping;
impl Message for Ping {}

/// Forwards every message to the next process in the ring and keeps one
/// periodic timer armed.
struct Relay {
    next: ProcessId,
}

impl Process for Relay {
    fn name(&self) -> &str {
        "relay"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_micros(50), 0);
        ctx.send(self.next, Ping);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: ProcessId, _msg: Box<dyn Message>) {
        ctx.send(self.next, Ping);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        ctx.set_timer(SimDuration::from_micros(50), 0);
    }
}

const CHURN: u64 = 1_000;

/// Sets and cancels `CHURN` timers every time its own timer fires.
struct Churner {
    pairs: u64,
}

impl Process for Churner {
    fn name(&self) -> &str {
        "churner"
    }
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_millis(1), 0);
    }
    fn on_message(&mut self, _: &mut Ctx<'_>, _: ProcessId, _: Box<dyn Message>) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        for i in 0..CHURN {
            let token = ctx.set_timer(SimDuration::from_millis(5 + i % 50), 1);
            ctx.cancel_timer(token);
        }
        self.pairs += CHURN;
        ctx.set_timer(SimDuration::from_millis(1), 0);
    }
}

fn sim_kernels(b: &mut Bench<'_>, seed: u64) {
    // 64 processes exchanging messages and periodic timers on the default
    // `InstantTransport`.
    let mut sim = Sim::new(seed);
    for i in 0..64u32 {
        sim.spawn(Box::new(Relay {
            next: ProcessId((i + 1) % 64),
        }));
    }
    let mut until = SimTime::ZERO;
    b.run("sim.dispatch_ns_per_event", || {
        until += SimDuration::from_millis(20);
        let t = Instant::now();
        let events = sim.run_until(until);
        (events, t.elapsed())
    });

    let mut sim = Sim::new(seed);
    let churner = sim.spawn(Box::new(Churner { pairs: 0 }));
    let mut until = SimTime::ZERO;
    let mut done = 0;
    b.run("sim.timer_set_cancel_ns", || {
        until += SimDuration::from_millis(100);
        let t = Instant::now();
        sim.run_until(until);
        let spent = t.elapsed();
        let pairs = sim.process_ref::<Churner>(churner).map_or(0, |c| c.pairs);
        let units = pairs - done;
        done = pairs;
        (units, spent)
    });
}

// ---------------------------------------------------------------- net

fn net_kernels(b: &mut Bench<'_>, seed: u64, w: &Workload) {
    // The workload's own star: every host on one switch, default links,
    // as `Scenario::run` builds it.
    let hosts = w.hosts();
    let topo = Topology::one_big_switch(hosts.iter().map(String::as_str), LinkSpec::new())
        .expect("distinct host names");
    let mut net = Network::new(topo);
    for (i, h) in hosts.iter().enumerate() {
        let node = net.topology().lookup(h).expect("host just added");
        net.place(ProcessId(i as u32), node);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let n = hosts.len() as u32;
    let mut now = SimTime::ZERO;
    for (name, bytes) in [
        ("net.route_packet_ns", 200usize),
        ("net.route_packet_64k_ns", 64 * 1024),
    ] {
        let mut i = 0u32;
        b.run(&format!("{name}@{}", w.name), || {
            timed(1_000, || {
                for _ in 0..1_000 {
                    // Far enough apart that link queues stay empty.
                    now += SimDuration::from_millis(10);
                    i = i.wrapping_add(1);
                    let (from, to) = (ProcessId(i % n), ProcessId((i + 1) % n));
                    black_box(net.route_packet(now, &mut rng, from, to, bytes));
                }
            })
        });
    }
}

// -------------------------------------------------------------- proto

/// `n` records of `payload` bytes, as a producer would stamp them.
fn records(seed: u64, n: u64, payload: usize, keyed: bool) -> Vec<Record> {
    let keys = keyed.then_some((1024, KeyDist::Uniform));
    let plan = LoadPlan::new(seed, "t", n, SimDuration::from_micros(20), payload, keys);
    let mut src = PlanSource::new(plan);
    (0..n)
        .map(|i| {
            let (key, value) = src.next_record().expect("plan has n records");
            let ts = SimTime::from_micros(20 * i);
            let r = match key {
                Some(k) => Record::new(k, value, ts),
                None => Record::keyless(value, ts),
            };
            r.from_producer(ProducerId(0), i)
        })
        .collect()
}

fn proto_kernels(b: &mut Bench<'_>, seed: u64) {
    for (tag, n, payload, keyed) in [("64b", 500u64, 64usize, false), ("1k", 64, 1024, true)] {
        let recs = records(seed, n, payload, keyed);
        let batch = RecordBatch::from_records(recs.clone());
        let frame = batch.encode_frame(Offset(1_000));
        b.run(&format!("proto.encode_frame_ns_per_record_{tag}"), || {
            timed(n, || {
                black_box(batch.encode_frame(Offset(1_000)));
            })
        });
        b.run(&format!("proto.decode_frame_ns_per_record_{tag}"), || {
            timed(n, || {
                black_box(RecordBatch::decode_frame(&frame).expect("own frame decodes"));
            })
        });
        if tag == "64b" {
            // What every hop pays to carry records: clone the records (a
            // refcount bump per payload), seal them, size the batch.
            b.run("proto.batch_build_ns_per_record", || {
                timed(n, || {
                    let batch = RecordBatch::from_records(recs.clone());
                    black_box(batch.wire_len());
                    black_box(batch);
                })
            });
        }
    }
}

// --------------------------------------------------------- broker.log

const LOG_ENTRIES: u64 = 1_000_000;
const LOG_BATCH: u64 = 500;

fn log_kernels(b: &mut Bench<'_>, seed: u64) {
    let recs = records(seed, LOG_BATCH, 64, false);
    let mut log = PartitionLog::new();
    b.run("broker.log.append_ns_per_record", || {
        // A fresh log grown to a million entries, segment rolls included;
        // dropping the previous one is not timed.
        let mut fresh = PartitionLog::new();
        let out = timed(LOG_ENTRIES, || {
            for _ in 0..LOG_ENTRIES / LOG_BATCH {
                fresh.append_batch(LeaderEpoch(1), recs.iter().cloned());
            }
        });
        log = std::mem::replace(&mut fresh, PartitionLog::new());
        out
    });
    assert_eq!(log.len() as u64, LOG_ENTRIES);

    let tail = Offset(LOG_ENTRIES - LOG_BATCH);
    b.run("broker.log.read_tail_ns_per_record", || {
        timed(LOG_BATCH, || {
            black_box(log.read_entries(tail, LOG_BATCH as usize, false));
        })
    });
    // The replica catch-up shape: reads that start anywhere in the log. A
    // linear segment scan shows here and not in the tail read.
    let mut lcg = Lcg::new(seed);
    b.run("broker.log.read_cold_ns_per_record", || {
        let from = Offset(lcg.below(LOG_ENTRIES - LOG_BATCH));
        timed(LOG_BATCH, || {
            black_box(log.read_entries(from, LOG_BATCH as usize, false));
        })
    });
    let seg = &log.segments()[log.segment_count() / 2];
    let per_seg = seg.len() as u64;
    b.run("broker.log.segment_codec_ns_per_record", || {
        timed(per_seg, || {
            let bytes = seg.encode();
            black_box(LogSegment::decode(&bytes).expect("own segment decodes"));
        })
    });
}

// ------------------------------------------------------------- broker

struct CountingSink(u64);

impl DataSink for CountingSink {
    fn on_records(&mut self, _now: SimTime, _tp: &TopicPartition, records: &[Record]) {
        self.0 += records.len() as u64;
    }
}

/// `ProducerProcess` -> one `Broker` -> `ConsumerProcess` on
/// `InstantTransport`, wired from `s2g-broker` + `s2g-sim` alone the way
/// `crates/broker/tests/offsets.rs` does it.
fn broker_loop(b: &mut Bench<'_>, seed: u64, slice_s: f64) {
    let n = (200_000.0 * (slice_s / FULL_SLICE_S).min(1.0)) as u64;
    let interval = SimDuration::from_micros(20);
    b.run("broker.loop_ns_per_record", || {
        let mut sim = Sim::new(seed);
        let (controller, broker) = (ProcessId(0), ProcessId(1));
        let brokers: BTreeMap<BrokerId, ProcessId> = [(BrokerId(0), broker)].into();
        sim.spawn(Box::new(ZkController::new(
            ControllerConfig::default(),
            brokers.clone(),
            &[TopicSpec::new("t")],
        )));
        sim.spawn(Box::new(Broker::new(
            BrokerId(0),
            BrokerConfig::default(),
            CoordinationMode::Zk,
            vec![controller],
            brokers.clone(),
        )));
        let producer = ProducerClient::new(
            ProducerId(0),
            ProducerConfig::default(),
            broker,
            brokers.clone(),
            0,
        );
        let plan = LoadPlan::new(seed, "t", n, interval, 64, None);
        sim.spawn(Box::new(ProducerProcess::new(
            producer,
            Box::new(PlanSource::new(plan)),
        )));
        let cfg = ConsumerConfig {
            poll_interval: SimDuration::from_millis(5),
            max_poll_records: 5_000,
            ..ConsumerConfig::default()
        };
        let consumer = ConsumerClient::new(cfg, broker, brokers, vec!["t".into()]);
        let cpid = sim.spawn(Box::new(ConsumerProcess::new(
            0,
            consumer,
            Box::new(CountingSink(0)),
        )));
        let t = Instant::now();
        sim.run_until(SimTime::ZERO + interval * n + SimDuration::from_secs(3));
        let spent = t.elapsed();
        let got = sim
            .process_ref::<ConsumerProcess>(cpid)
            .and_then(|c| c.sink_as::<CountingSink>())
            .map_or(0, |s| s.0);
        assert_eq!(got, n, "broker loop delivered every record");
        (n, spent)
    });
}

// ---------------------------------------------------------------- spe

const WINDOW: SimDuration = SimDuration::from_millis(500);
const SPE_BATCH: u64 = 500;
const SPE_KEYS: usize = 1024;

fn keyed_plan() -> Plan {
    Plan::new()
        .key_by("key", |e| e.key.clone().unwrap_or_default())
        .window_count("count", WINDOW)
}

fn spe_kernels(b: &mut Bench<'_>, seed: u64) {
    let plan = LoadPlan::new(
        seed,
        "t",
        SPE_BATCH,
        SimDuration::from_micros(200),
        64,
        Some((SPE_KEYS, KeyDist::Zipf)),
    );
    let mut src = PlanSource::new(plan);
    let base: Vec<Event> = (0..SPE_BATCH)
        .map(|_| {
            let (key, value) = src.next_record().expect("plan has the batch");
            let text = String::from_utf8(value).expect("printable payload");
            let key = String::from_utf8(key.expect("keyed plan")).expect("printable key");
            Event::new(Value::Str(text), SimTime::ZERO).with_key(key)
        })
        .collect();

    let mut ident = Plan::new().map("ident", |e| e);
    b.run("spe.ops.map_ns_per_event", || {
        let batch = base.clone();
        timed(SPE_BATCH, || {
            black_box(ident.run_batch(SimTime::ZERO, batch));
        })
    });

    // Event time advances 200 us per event, so a window closes (and every
    // key's count is emitted) every 2 500 events, as in `keyed-eo-bounce`.
    let mut keyed = keyed_plan();
    let mut ts = SimTime::ZERO;
    b.run("spe.ops.keyby_window_ns_per_event", || {
        let mut batch = base.clone();
        for e in &mut batch {
            ts += SimDuration::from_micros(200);
            e.ts = ts;
        }
        timed(SPE_BATCH, || {
            black_box(keyed.run_batch(ts, batch));
        })
    });

    let event = &base[0];
    let bytes = event.to_bytes();
    b.run("spe.event.encode_ns", || {
        timed(1_000, || {
            for _ in 0..1_000 {
                black_box(black_box(event).to_bytes());
            }
        })
    });
    b.run("spe.event.decode_ns", || {
        timed(1_000, || {
            for _ in 0..1_000 {
                black_box(Event::from_bytes(black_box(&bytes)).expect("own event decodes"));
            }
        })
    });

    // One open window holding every key, then a tenth of the keys dirty.
    let mut state = keyed_plan();
    let one_per_key = |from: usize, to: usize, ts: SimTime| -> Vec<Event> {
        (from..to)
            .map(|k| Event::new(Value::Str("x".into()), ts).with_key(format!("k{k:04}")))
            .collect()
    };
    state.run_batch(
        SimTime::ZERO,
        one_per_key(0, SPE_KEYS, SimTime::from_millis(1)),
    );
    state.mark_clean();
    let keys = SPE_KEYS as u64;
    // Lets the parent turn snapshot bytes of a run into a number of keys.
    let (plan_state, ..) = state.snapshot_state();
    let bytes: usize = plan_state.iter().flatten().map(|v| v.encode().len()).sum();
    b.out.insert(
        "spe.checkpoint.snapshot_bytes_per_key".into(),
        bytes as f64 / keys as f64,
    );
    b.run("spe.checkpoint.snapshot_codec_ns_per_key", || {
        timed(keys, || {
            let (plan_state, records_in, records_out) = state.snapshot_state();
            let snap = StateSnapshot {
                taken_at: SimTime::from_millis(1),
                plan_state,
                records_in,
                records_out,
                buffer: Vec::new(),
                offsets: Vec::new(),
                txn_seq: 1,
            };
            let bytes = snap.to_bytes();
            black_box(StateSnapshot::from_bytes(&bytes).expect("own snapshot decodes"));
        })
    });
    let dirty = SPE_KEYS / 10;
    b.run("spe.checkpoint.delta_codec_ns_per_key", || {
        // Touching the keys is set-up, not codec work.
        state.run_batch(
            SimTime::ZERO,
            one_per_key(0, dirty, SimTime::from_millis(2)),
        );
        timed(dirty as u64, || {
            let delta = StateDelta {
                taken_at: SimTime::from_millis(2),
                seq: 1,
                plan_delta: state.snapshot_delta(),
                records_in: 0,
                records_out: 0,
                buffer: Vec::new(),
                offsets: Vec::new(),
                txn_seq: 1,
            };
            let bytes = delta.to_bytes();
            black_box(StateDelta::from_bytes(&bytes).expect("own delta decodes"));
        })
    });
}

// -------------------------------------------------------------- store

fn store_kernels(b: &mut Bench<'_>, seed: u64) {
    const KEYS: usize = 1024;
    let mut lcg = Lcg::new(seed);
    let blob: Vec<u8> = (0..4096).map(|_| lcg.below(256) as u8).collect();
    let keys: Vec<String> = (0..KEYS).map(|k| format!("ckpt/job/{k:04}")).collect();
    let mut kv = KvStore::new();
    b.run("store.kv_put_ns", || {
        // A fresh store per call: the write-ahead log keeps every blob.
        let mut fresh = KvStore::new();
        let out = timed(KEYS as u64, || {
            for k in &keys {
                fresh.put(k.as_str(), blob.as_slice());
            }
        });
        kv = fresh;
        out
    });
    b.run("store.kv_get_ns", || {
        timed(KEYS as u64, || {
            for k in &keys {
                black_box(kv.get_counted(k));
            }
        })
    });
}

// ---------------------------------------------------------- telemetry

fn telemetry_kernels(b: &mut Bench<'_>) {
    // 256 already-registered (scope, name) pairs, cycled.
    let pairs: Vec<(String, String)> = (0..256)
        .map(|i| (format!("broker-{}", i % 16), format!("metric_{}", i / 16)))
        .collect();
    let mut counters = Registry::new();
    let mut hists = Registry::new();
    for (s, n) in &pairs {
        counters.counter_add(s, n, 0);
        hists.observe(s, n, 0.001);
    }
    b.run("telemetry.counter_add_ns", || {
        timed(256, || {
            for (s, n) in &pairs {
                counters.counter_add(s, n, 1);
            }
        })
    });
    b.run("telemetry.observe_ns", || {
        timed(256, || {
            for (s, n) in &pairs {
                hists.observe(s, n, 0.0042);
            }
        })
    });
    black_box((&counters, &hists));
}
