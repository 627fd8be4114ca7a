//! The batch-first record hot path: codec properties, batched-vs-unbatched
//! output equivalence through a crash, and the zero-copy regression gate.
//!
//! The offline build environment has no `proptest`, so the codec property
//! runs as a seeded randomized sweep over the workspace's deterministic
//! [`StdRng`]; failures reproduce exactly.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use stream2gym::broker::{CollectingSink, ConsumerProcess, ProducerConfig, TopicSpec};
use stream2gym::core::{MonitoredSink, RunResult, Scenario, SourceSpec, SpeJobSpec, SpeSinkSpec};
use stream2gym::proto::{Compression, Offset, ProducerId, Record, RecordBatch};
use stream2gym::sim::{SimDuration, SimTime};
use stream2gym::spe::{CheckpointCfg, Event, SpeConfig};

const CASES: usize = 200;

fn arb_record(rng: &mut StdRng) -> Record {
    let key = if rng.gen_range(0..3) == 0 {
        None
    } else {
        let len = rng.gen_range(0..24usize);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
        Some(bytes.into())
    };
    let len = rng.gen_range(0..200usize);
    let value: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
    Record {
        key,
        value: value.into(),
        // Deliberately unordered timestamps: the frame's signed timestamp
        // deltas must survive records that go backwards in time.
        timestamp: SimTime::from_nanos(rng.gen_range(0..u64::MAX / 4)),
        producer: ProducerId(rng.gen_range(0..64)),
        producer_epoch: rng.gen_range(0..16),
        producer_seq: rng.gen_range(0..1_000_000),
    }
}

/// The batch frame codec round-trips arbitrary record sets exactly —
/// empty, single-record, and max-size batches, compression on and off —
/// into records packed in one buffer, and rejects every strict
/// truncation instead of mis-decoding it.
#[test]
fn batch_frame_codec_roundtrip_sweep() {
    let mut rng = StdRng::seed_from_u64(0xBA7C4);
    for case in 0..CASES {
        let n = match case % 8 {
            0 => 0,
            1 => 1,
            2 => 500, // the producer's default batch_max_records ceiling
            _ => rng.gen_range(2..120),
        };
        let records: Vec<Record> = (0..n).map(|_| arb_record(&mut rng)).collect();
        let compression = if rng.gen_range(0..2) == 0 {
            Compression::None
        } else {
            Compression::Lz4
        };
        let batch = RecordBatch::from_records(records.clone()).with_compression(compression);
        let base = Offset(rng.gen_range(0..1_000_000));
        let buf = batch.encode_frame(base);
        let (back, back_base) = RecordBatch::decode_frame(&buf).expect("round trip");
        assert_eq!(back_base, base, "case {case}");
        assert_eq!(back.compression(), compression, "case {case}");
        assert_eq!(back.iter().collect::<Vec<_>>(), records, "case {case}");

        // The decoded keys and values sit in one frame-sized buffer, laid
        // out in frame order — not an allocation each.
        let parts: Vec<&[u8]> = back
            .iter()
            .flat_map(|r| r.key().into_iter().chain([r.value()]))
            .collect();
        let span_start = parts.first().map_or(0, |p| p.as_ptr() as usize);
        let mut at = span_start;
        for part in &parts {
            let p = part.as_ptr() as usize;
            assert!(p >= at, "case {case}: views overlap or go backwards");
            at = p + part.len();
        }
        assert!(at - span_start <= buf.len(), "case {case}: one buffer");

        // Every strict prefix must fail cleanly: each frame byte is load-
        // bearing (length prefixes, varints, payload bytes), so a cut
        // anywhere leaves an undecodable buffer — never a silent partial
        // batch, and never a view past the end of the shared buffer. Small
        // frames are cut at every byte, large ones at a random one.
        let cuts = if n <= 4 {
            0..buf.len()
        } else {
            let cut = rng.gen_range(0..buf.len());
            cut..cut + 1
        };
        for cut in cuts {
            assert!(
                RecordBatch::decode_frame(&buf[..cut]).is_none(),
                "case {case}: truncation at {cut}/{} must not decode",
                buf.len()
            );
        }
    }
}

/// Compression only ever shrinks the wire footprint, never the in-memory
/// encoding, and an empty batch stays empty under both codecs.
#[test]
fn compressed_wire_len_never_exceeds_plain() {
    let mut rng = StdRng::seed_from_u64(0x17A4);
    for _ in 0..CASES {
        let n = rng.gen_range(0..64usize);
        let records: Vec<Record> = (0..n).map(|_| arb_record(&mut rng)).collect();
        let plain = RecordBatch::from_records(records.clone());
        let packed = RecordBatch::from_records(records).with_compression(Compression::Lz4);
        assert!(packed.wire_len() <= plain.wire_len());
        assert_eq!(packed.encoded_len(), plain.encoded_len());
    }
}

/// Decodes the committed sink output into per-key count sequences,
/// preserving each key's update order. Exactly-once shows as the gapless
/// sequence `1, 2, ..., n` per key: a duplicate repeats a value, a loss
/// skips one.
fn per_key_sequences(result: &RunResult) -> BTreeMap<String, Vec<i64>> {
    let pid = result.consumer_pids[0];
    let cp = result
        .sim
        .process_ref::<ConsumerProcess>(pid)
        .expect("consumer");
    let monitored = cp.sink_as::<MonitoredSink>().expect("monitored sink");
    let sink = (monitored.inner() as &dyn std::any::Any)
        .downcast_ref::<CollectingSink>()
        .expect("collecting sink");
    let mut map: BTreeMap<String, Vec<i64>> = BTreeMap::new();
    for (_, _, rec) in &sink.deliveries {
        let e = Event::from_bytes(&rec.value).expect("SPE output decodes");
        map.entry(e.key.unwrap_or_default())
            .or_default()
            .push(e.value.as_int().expect("count value"));
    }
    map
}

/// Runs a keyed parallelism-2 counting job with a mid-run instance crash
/// and exactly-once checkpoints + transactional sinks, returning the
/// per-key committed output sequences plus the run's shared-batch
/// deep-copy count.
fn run_keyed_crash_job(batching: bool) -> (BTreeMap<String, Vec<i64>>, u64) {
    let records = 300u64;
    let interval = SimDuration::from_millis(5);
    let produce_ms = records * 5 + 500;
    let mut sc = Scenario::new(if batching { "batched" } else { "unbatched" });
    sc.seed(42)
        .duration(SimTime::from_millis(produce_ms + 12_000))
        .topic(TopicSpec::new("events").partitions(4))
        .topic(TopicSpec::new("counts"));
    sc.broker("h0");
    sc.producer(
        "hp",
        SourceSpec::Custom {
            topics: vec!["events".into()],
            make: Box::new(move || {
                Box::new(
                    stream2gym::broker::RateSource::new("events", records, interval)
                        .payload_bytes(64)
                        .key_space(16),
                )
            }),
        },
        ProducerConfig::default(),
    );
    sc.spe_job(
        "hs",
        SpeJobSpec::new(
            "batchcount",
            vec!["events".into()],
            || {
                use stream2gym::spe::{Event, Plan, Value};
                Plan::new()
                    .key_by("by-key", |e| e.key.clone().unwrap_or_default())
                    .stateful("count", Value::Int(0), |state, e| {
                        let n = state.as_int().unwrap_or(0) + 1;
                        *state = Value::Int(n);
                        vec![Event {
                            value: Value::Int(n),
                            ..e.clone()
                        }]
                    })
            },
            SpeSinkSpec::Topic("counts".into()),
            SpeConfig {
                batch_interval: SimDuration::from_millis(250),
                scheduling_overhead: SimDuration::from_millis(10),
                cpu_per_record: SimDuration::from_millis(2),
                startup_cpu: SimDuration::from_millis(200),
                max_batch_records: 64,
                ..SpeConfig::default()
            },
        )
        .parallelism(2),
    );
    sc.consumer("hc", Default::default(), &["counts"]);
    sc.with_checkpointing(CheckpointCfg::exactly_once(SimDuration::from_millis(500)));
    // Committed-only sink output: without the transactional sink, outputs
    // buffered in the crashed instance's producer die with it (at-most-once
    // delivery for those records) and the two runs could legitimately
    // diverge by whatever happened to be in flight.
    sc.with_transactional_sinks();
    sc.with_batching(batching);
    sc.faults(stream2gym::net::FaultPlan::new().crash_restart(
        "batchcount/1/1",
        SimTime::from_millis(produce_ms / 2),
        SimDuration::from_millis(800),
    ));
    let result = sc.run().expect("valid scenario");
    (
        per_key_sequences(&result),
        result.report.shared_batch_copies,
    )
}

/// Batching is a transport optimization, not a semantics change: a keyed
/// parallel job crashed mid-run commits exactly the same output with
/// batching on (the default) and off (one record per produce request) —
/// same keys, same per-key update sequences, every input counted exactly
/// once.
#[test]
fn batched_and_unbatched_outputs_match_through_crash() {
    let (batched, batched_copies) = run_keyed_crash_job(true);
    let (unbatched, unbatched_copies) = run_keyed_crash_job(false);
    let total: usize = batched.values().map(Vec::len).sum();
    assert_eq!(
        total, 300,
        "every input record must be counted exactly once in committed output"
    );
    for (key, seq) in &batched {
        let expect: Vec<i64> = (1..=seq.len() as i64).collect();
        assert_eq!(seq, &expect, "{key}: committed counts must be gapless");
    }
    assert_eq!(
        batched, unbatched,
        "batched and unbatched runs must commit the same output"
    );
    // The zero-copy invariant holds in both modes and through the crash.
    assert_eq!(batched_copies, 0, "batched run must not deep-copy batches");
    assert_eq!(
        unbatched_copies, 0,
        "unbatched run must not deep-copy batches"
    );
}

/// The zero-copy regression gate: a plain produce→consume run performs no
/// shared-batch deep copies, and the count is exported both on the report
/// and as the `runtime/shared_batch_copies` telemetry counter.
#[test]
fn data_plane_performs_no_shared_batch_copies() {
    let mut sc = Scenario::new("zerocopy");
    sc.seed(7)
        .duration(SimTime::from_secs(5))
        .topic(TopicSpec::new("t"));
    sc.broker("h0");
    sc.producer(
        "hp",
        SourceSpec::Rate {
            topic: "t".into(),
            count: 500,
            interval: SimDuration::from_millis(2),
            payload: 64,
        },
        ProducerConfig::default(),
    );
    sc.consumer("hc", Default::default(), &["t"]);
    let result = sc.run().expect("valid scenario");
    assert_eq!(result.report.shared_batch_copies, 0);
    assert_eq!(
        result
            .telemetry
            .registry()
            .counter("runtime", "shared_batch_copies"),
        Some(0),
        "the counter must be exported even when zero"
    );
    // The monitor saw every record without cloning payloads per subscriber.
    assert_eq!(result.monitor.borrow().delivery_count("t"), 500);
}
