//! The memory gate: what a default run still holds when `run()` returns,
//! and how many times it went to the allocator to get there.
//!
//! A run retains one resident copy of each record (an 8 to 16 B row and
//! the record's bytes in its producer's sealed batch, whose one stretch header
//! holds the producer stamps, shared by every replica's log and every
//! fetch reply) and folds everything else, so live heap per
//! record is flat in the run length; and a record's bytes are written into
//! its topic's reused accumulation buffer and copied once into its batch,
//! so the allocator is called a few times per record, not a dozen. This test measures both with
//! its own counting allocator on ROADMAP's baseline pipeline (1 broker,
//! identity SPE job, folding sink, 64 B payloads) at two sizes.
//!
//! A second shape, the benchmark's `replicated-1k` (3 brokers, RF 3,
//! `acks=all`, 4 partitions, keyed 1 KiB records, plain consumer), counts
//! allocator calls where requests, not records, set the cost: a record there
//! is carried by replica fetches, most of them empty, and what a request
//! allocates to name its partition, its metrics and its reply shows per
//! record. Its twin at RF 1 shows what two more replicas retain: their runs,
//! not a copy of each record. A third shape runs a two-stage job through a
//! shuffle topic on the same three brokers, which keeps only what its reader
//! has not committed: its retained bytes stay flat in the run length. One
//! `#[test]` only: the allocator counts the whole process, so nothing else
//! may run beside it.

#![allow(
    unsafe_code,
    reason = "`GlobalAlloc` is an unsafe trait, and this test counts allocations"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use stream2gym::broker::{
    Broker, BrokerConfig, ConsumerConfig, DataSink, DataSource, ProducerConfig, SourceAction,
    TopicSpec, DEFAULT_SEGMENT_MAX_RECORDS,
};
use stream2gym::core::{
    ConsumerSinkSpec, RunResult, Scenario, SourceSpec, SpeJobSpec, SpeSinkSpec,
};
use stream2gym::proto::{AckMode, Record, TopicPartition};
use stream2gym::sim::{SimDuration, SimTime};
use stream2gym::spe::{CheckpointCfg, Plan, SpeConfig};

/// Live heap bytes of the process.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Calls that obtained memory (`alloc` and `realloc`) so far.
static CALLS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is only a statistic (`Relaxed`).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout, forwarded to the system allocator.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
            CALLS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with this layout; the caller
        // guarantees `new_size` is valid for it.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            CALLS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// How far above its recorded measurement a count (retained bytes,
/// allocator calls) may read before the gate fails. The counts repeat
/// exactly for a given build, so the slack only absorbs deliberate small
/// changes.
const SLACK: f64 = 1.10;

/// Counts deliveries and keeps nothing.
struct CountingSink(Rc<Cell<u64>>);

impl DataSink for CountingSink {
    fn on_records(&mut self, _now: SimTime, _tp: &TopicPartition, records: &[Record]) {
        self.0.set(self.0.get() + records.len() as u64);
    }
}

fn fast_consumer() -> ConsumerConfig {
    ConsumerConfig {
        poll_interval: SimDuration::from_millis(5),
        max_poll_records: 5_000,
        ..ConsumerConfig::default()
    }
}

/// Runs `sc`, whose sink counts into `delivered`, and returns heap bytes
/// per record still live when `run()` has returned and allocator calls per
/// record made by `run()`, after `inspect` had a look at the result.
/// `before` is the live heap before `sc` was built.
fn measure(
    sc: Scenario,
    before: usize,
    records: u64,
    delivered: &Cell<u64>,
    inspect: impl FnOnce(&RunResult),
) -> (f64, f64) {
    let calls_before = CALLS.load(Ordering::Relaxed);
    let result = sc.run().expect("runs");
    let calls = CALLS.load(Ordering::Relaxed) - calls_before;
    let retained = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    assert_eq!(delivered.get(), records, "every record went end to end");
    assert_eq!(result.total_deliveries() as u64, records);
    assert_eq!(result.report.producers[0].stats.acked, records);
    inspect(&result);
    drop(result);
    let per_record = |n: usize| n as f64 / records as f64;
    (per_record(retained), per_record(calls))
}

fn counting_sink(delivered: &Rc<Cell<u64>>) -> ConsumerSinkSpec {
    let counter = delivered.clone();
    ConsumerSinkSpec::Custom(Box::new(move || Box::new(CountingSink(counter.clone()))))
}

/// The identity pipeline at `records` records.
fn identity(records: u64) -> (f64, f64) {
    let interval = SimDuration::from_micros(20);
    let delivered = Rc::new(Cell::new(0u64));
    let before = LIVE.load(Ordering::Relaxed);
    let mut sc = Scenario::new("memory-gate");
    sc.seed(1)
        .duration(SimTime::ZERO + interval * records + SimDuration::from_secs(3))
        .topic(TopicSpec::new("events"))
        .topic(TopicSpec::new("out"));
    sc.broker("h0");
    sc.producer(
        "hp",
        SourceSpec::Rate {
            topic: "events".into(),
            count: records,
            interval,
            payload: 64,
        },
        ProducerConfig::default(),
    );
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
    sc.consumer_with_sink("hc", fast_consumer(), &["out"], counting_sink(&delivered));
    measure(sc, before, records, &delivered, |_| {})
}

/// `left` keyed records of `bytes` bytes, one per `interval`, over 1 024
/// keys.
struct KeyedRecords {
    left: u64,
    interval: SimDuration,
    bytes: usize,
}

impl DataSource for KeyedRecords {
    fn next(&mut self, _now: SimTime, _rng: &mut StdRng) -> SourceAction {
        if self.left == 0 {
            return SourceAction::Done;
        }
        self.left -= 1;
        let key = (self.left.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 54) as u16;
        SourceAction::Emit {
            topic: "events".into(),
            key: Some(key.to_be_bytes().to_vec()),
            value: vec![b'x'; self.bytes],
            next_after: self.interval,
        }
    }
}

/// The `replicated-1k` shape at `records` records, at replication factor
/// `rf`.
fn replicated(records: u64, rf: u32) -> (f64, f64) {
    let interval = SimDuration::from_micros(100);
    let delivered = Rc::new(Cell::new(0u64));
    let before = LIVE.load(Ordering::Relaxed);
    let mut sc = Scenario::new("memory-gate-replicated");
    sc.seed(1)
        .duration(SimTime::ZERO + interval * records + SimDuration::from_secs(3))
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
    sc.with_replicated_partitions(rf)
        .with_acks(AckMode::All)
        .linger_ms(20);
    sc.producer(
        "hp",
        keyed(records, interval, 1024),
        ProducerConfig::default(),
    );
    sc.consumer_with_sink(
        "hc",
        fast_consumer(),
        &["events"],
        counting_sink(&delivered),
    );
    measure(sc, before, records, &delivered, |_| {})
}

/// [`KeyedRecords`] into `events`.
fn keyed(records: u64, interval: SimDuration, bytes: usize) -> SourceSpec {
    SourceSpec::Custom {
        topics: vec!["events".into()],
        make: Box::new(move || {
            Box::new(KeyedRecords {
                left: records,
                interval,
                bytes,
            })
        }),
    }
}

/// A two-stage job at `records` keyed 64 B records on 3 brokers at RF 3:
/// `key_by` and an identity `map`, two instances a stage, the four key
/// groups a shuffle topic between them, exactly-once checkpoints every
/// 100 ms. Returns what [`measure`] does and the record bytes every replica
/// of the shuffle topic still holds.
fn shuffled(records: u64) -> (f64, f64, u64) {
    let interval = SimDuration::from_micros(50);
    let delivered = Rc::new(Cell::new(0u64));
    let before = LIVE.load(Ordering::Relaxed);
    let mut sc = Scenario::new("memory-gate-shuffled");
    sc.seed(1)
        .duration(SimTime::ZERO + interval * records + SimDuration::from_secs(3))
        .topic(TopicSpec::new("events").partitions(4))
        .topic(TopicSpec::new("out"));
    for h in ["b0", "b1", "b2"] {
        sc.broker(h);
    }
    sc.with_replicated_partitions(3);
    sc.producer(
        "hp",
        keyed(records, interval, 64),
        ProducerConfig::default(),
    );
    let job = SpeJobSpec::new(
        "shuffled",
        vec!["events".into()],
        || {
            Plan::new()
                .key_by("by-key", |e| e.key.clone().unwrap_or_default())
                .map("ident", |e| e)
        },
        SpeSinkSpec::Topic("out".into()),
        SpeConfig {
            batch_interval: SimDuration::from_millis(10),
            scheduling_overhead: SimDuration::from_millis(1),
            cpu_per_record: SimDuration::from_micros(2),
            startup_cpu: SimDuration::from_millis(100),
            consumer: fast_consumer(),
            ..SpeConfig::default()
        },
    );
    sc.spe_job("hs", job.parallelism(2).key_groups(4));
    sc.with_checkpointing(CheckpointCfg::exactly_once(SimDuration::from_millis(100)));
    sc.consumer_with_sink("hc", fast_consumer(), &["out"], counting_sink(&delivered));
    let mut shuffle_bytes = 0;
    let (retained, allocs) = measure(sc, before, records, &delivered, |result| {
        for pid in &result.broker_pids {
            let broker = result.sim.process_ref::<Broker>(*pid).expect("live");
            for partition in 0..4 {
                let tp = TopicPartition::new("__shuffle.shuffled.1", partition);
                let log = broker.log(&tp).expect("a replica of every partition");
                shuffle_bytes += log.retained_bytes() as u64;
            }
        }
    });
    (retained, allocs, shuffle_bytes)
}

#[test]
fn a_default_run_retains_one_copy_per_record() {
    let (small, small_allocs) = identity(50_000);
    let (large, large_allocs) = identity(100_000);
    println!("retained: {small:.0} B/record at 50 k, {large:.0} B/record at 100 k");
    println!(
        "allocator calls: {small_allocs:.2}/record at 50 k, {large_allocs:.2}/record at 100 k"
    );
    for (records, per_record, retained, allocs, measured) in [
        (50_000, small, 180.0, small_allocs, 3.16),
        (100_000, large, 177.0, large_allocs, 3.1396),
    ] {
        // Measured 180 / 177 B: two 8 B rows (one per topic, each held in
        // its producer's sealed batch beside the batch's one stretch header
        // and shared by the log's runs; keyless and in sequence, a record
        // needs neither a key length nor a sequence delta), the 64 B
        // payload and its 87 B encoded event in their batch frames, and the
        // kernel's fixed queue storage spread over the run. (196 / 193 B
        // with a 16 B slot of every column per record; 228 / 224 B
        // measured, 229 / 225 B recorded, with a 32 B slot that held every
        // record's producer stamps; 277 / 273 B when a batch held a 56 B
        // `Record` per record; 307 / 303 B
        // when each log entry was a 72 B copy of its record; 349 / 342 B
        // when every host CPU kept a 16 B busy interval per work item for
        // the whole run; 381 / 374 B with one allocation pair per record,
        // before batches shared a buffer.) Held to 8 B above the
        // measurement, not to `SLACK`: 198 / 195 B would pass the 196 /
        // 193 B of a 16 B row per record.
        assert!(
            per_record <= retained + 8.0,
            "{per_record:.0} B retained per 64 B record at {records} records, {retained} when \
             recorded: something beside the two rows holds every record"
        );
        // Measured 3.16 / 3.14 (set-up included, hence the fall): the
        // source's topic `String` and payload `Vec`, the worker's
        // `Value::Str`, decoded when its batch runs, and per-batch work.
        // (3.20 / 3.17 when a flush froze the accumulation buffer and
        // allocated the next; 3.37 / 3.27 with polled
        // fetches and a busy interval kept per CPU charge; 4.38 / 4.08 when
        // every metric update built its `(scope, name)` key, every RPC copied its topic
        // name and a segment grew to size by doubling; 11.67 / 11.31 when
        // every record was allocated, copied and freed on its own at each
        // hop.)
        assert!(
            allocs <= measured * SLACK,
            "{allocs:.2} allocator calls per record at {records} records, {measured} when \
             recorded: some hop allocates per record again"
        );
    }
    let ratio = large / small;
    assert!(
        (0.75..=1.25).contains(&ratio),
        "retention must be linear in the run length: {small:.0} vs {large:.0} B/record"
    );

    let (small, small_allocs) = replicated(20_000, 3);
    let (large, large_allocs) = replicated(40_000, 3);
    let (unreplicated, _) = replicated(40_000, 1);
    println!(
        "replicated, retained: {small:.0} B/record at 20 k, {large:.0} B/record at 40 k, \
         {unreplicated:.0} B/record at 40 k and RF 1"
    );
    println!(
        "replicated, allocator calls: {small_allocs:.2}/record at 20 k, \
         {large_allocs:.2}/record at 40 k"
    );
    for (records, per_record, retained, allocs, measured) in [
        (20_000, small, 1097.0, small_allocs, 4.32),
        (40_000, large, 1083.0, large_allocs, 4.20),
    ] {
        // Measured 1 097 / 1 083 B: the 1 KiB payload and its key in its
        // batch's frame, one 16 B row (keyed, and out of sequence: one
        // producer's sequence spreads over the partitions), and per batch
        // its stretch header
        // and per batch and replica a 40 B run; the fixed cost of three
        // brokers spread over the run, hence the fall. (1 110 / 1 096 B
        // measured, 1 133 / 1 107 B recorded, with a 32 B slot; 1 152 /
        // 1 127 B with a 56 B record per record in its batch; 1 302 /
        // 1 277 B when every replica kept a 72 B copy of each record.)
        assert!(
            per_record <= retained * SLACK,
            "{per_record:.0} B retained per 1 KiB record at {records} records, {retained} \
             when recorded"
        );
        // Measured 4.32 / 4.20: here requests set the count, not records
        // (0.4 replica fetches per record while producing, nine in ten
        // replies empty, and the replica fetches of the 3 s tail, hence the
        // fall), so what one request allocates beside its two messages
        // shows. (6.56 / 5.70 recorded, and left standing while the
        // measurement fell to 4.32 / 4.20; 6.48 / 5.62 when a keyed flush's partitions shared one
        // frame and a batch one record vector, not a frame and slots each;
        // 6.97 / 6.11 when a replica fetch reply copied its records
        // into a batch of its own; 7.33 / 6.40 with polled client fetches;
        // 25.48 / 20.21 when each built metric keys, copied the topic name
        // three times, boxed an empty batch and collected the leader's
        // dedup and transaction state afresh for every reply.)
        assert!(
            allocs <= measured * SLACK,
            "{allocs:.2} allocator calls per 1 KiB record at {records} records, {measured} \
             when recorded: a request allocates to name what it already holds"
        );
    }
    // Followers store the leader's runs, views of the records the leader
    // holds: two more replicas cost their runs, not a copy of each record.
    // Measured 10 B, with a 16 B slot as with a 32 B one (17 B when last
    // recorded; 16 B with a 56 B record per record in its batch; 156 B
    // when each follower kept a 72 B entry per record).
    assert!(
        large - unreplicated <= 24.0,
        "RF 3 retains {large:.0} B per record, RF 1 {unreplicated:.0} B: a follower copies \
         records again"
    );

    let (small, small_allocs, small_shuffle) = shuffled(20_000);
    let (large, large_allocs, large_shuffle) = shuffled(40_000);
    println!(
        "shuffled, retained: {small:.0} B/record at 20 k, {large:.0} B/record at 40 k; \
         shuffle topic {small_shuffle} B at 20 k, {large_shuffle} B at 40 k"
    );
    println!(
        "shuffled, allocator calls: {small_allocs:.2}/record at 20 k, \
         {large_allocs:.2}/record at 40 k"
    );
    // A shuffle topic is purged below what its reader committed, on every
    // replica: what it holds at the end is each replica's open segment, at
    // most 128 records of about 121 B (11 616 / 23 280 B measured; 7.3 /
    // 14.5 MB, every record three times, before shuffle topics were
    // purged).
    let open_segments = 4 * 3 * DEFAULT_SEGMENT_MAX_RECORDS as u64 * 128;
    for (records, shuffle) in [(20_000, small_shuffle), (40_000, large_shuffle)] {
        assert!(
            shuffle <= open_segments,
            "the shuffle topic holds {shuffle} B at {records} records, more than an open \
             segment per partition and replica: a consumed prefix was kept"
        );
    }
    for (records, per_record, retained, allocs, measured) in [
        (20_000, small, 270.0, small_allocs, 9.80),
        (40_000, large, 249.0, large_allocs, 9.52),
    ] {
        // Measured 270 / 249 B: the two user topics' records as in the
        // identity case, the shuffle's gone but for its open segments, and
        // the fixed cost of three brokers and five workers spread over the
        // run. (300 / 279 B measured, 310 / 285 B recorded, with a 32 B
        // slot; 341 / 323 B with a 56 B record per record in its batch;
        // 500 / 481 B when the shuffle topic kept every record.)
        assert!(
            per_record <= retained * SLACK,
            "{per_record:.0} B retained per 64 B record at {records} records through a \
             shuffle, {retained} when recorded"
        );
        // Measured 9.80 / 9.52: two produce hops and a shuffle, each
        // record decoded into an event and encoded again per stage. (9.76 /
        // 9.47 when a keyed flush's partitions shared one frame.)
        assert!(
            allocs <= measured * SLACK,
            "{allocs:.2} allocator calls per record at {records} records through a shuffle, \
             {measured} when recorded"
        );
    }
}
