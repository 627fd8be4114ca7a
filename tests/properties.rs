//! Property-style tests over the core invariants.
//!
//! The offline build environment has no `proptest`, so each property runs as
//! a seeded randomized sweep: many random cases drawn from the workspace's
//! deterministic [`StdRng`], so failures reproduce exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use stream2gym::broker::PartitionLog;
use stream2gym::net::{LinkSpec, Network, Topology};
use stream2gym::proto::{LeaderEpoch, Offset, Record};
use stream2gym::sim::{SimDuration, SimTime};
use stream2gym::spe::{Event, Operator, Value, WindowAggregate, WindowAssigner};

const CASES: usize = 256;

fn arb_string(rng: &mut StdRng, max_len: usize) -> String {
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
        .collect()
}

fn arb_value(rng: &mut StdRng, depth: u32) -> Value {
    let leaf_only = depth == 0;
    let pick = if leaf_only {
        rng.gen_range(0..5)
    } else {
        rng.gen_range(0..7)
    };
    match pick {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_range(0..2) == 1),
        2 => Value::Int(rng.gen_range(i64::MIN..i64::MAX)),
        3 => {
            let f = rng.gen_range(-1.0e12..1.0e12);
            Value::Float(f)
        }
        4 => Value::Str(arb_string(rng, 24)),
        5 => {
            let n = rng.gen_range(0..4);
            Value::List((0..n).map(|_| arb_value(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.gen_range(0..4);
            Value::Map(
                (0..n)
                    .map(|_| (arb_string(rng, 6), arb_value(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

/// The event codec round-trips every value shape exactly.
#[test]
fn event_codec_round_trips() {
    let mut rng = StdRng::seed_from_u64(0xC0DEC);
    for case in 0..CASES {
        let value = arb_value(&mut rng, 3);
        let key = if rng.gen_range(0..2) == 1 {
            Some(arb_string(&mut rng, 8))
        } else {
            None
        };
        let ts = rng.gen_range(0u64..1_000_000_000);
        let origin = rng.gen_range(0u64..1_000_000_000);
        let mut e =
            Event::new(value, SimTime::from_nanos(ts)).with_origin(SimTime::from_nanos(origin));
        e.key = key;
        let back = Event::from_bytes(&e.to_bytes()).expect("round trip");
        assert_eq!(back.key, e.key, "case {case}");
        assert_eq!(back.ts, e.ts, "case {case}");
        assert_eq!(back.origin, e.origin, "case {case}");
        assert_eq!(back.value, e.value, "case {case}");
    }
}

/// Windowed counting equals batch recomputation: for any event times, the
/// per-(window, key) counts emitted by the operator (after flush) match a
/// direct group-by.
#[test]
fn window_count_equals_batch_recount() {
    let mut rng = StdRng::seed_from_u64(0x517D0);
    for case in 0..CASES {
        let n = rng.gen_range(1..120usize);
        let times: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..120_000)).collect();
        let keys: Vec<u8> = (0..n).map(|_| rng.gen_range(0..4u8)).collect();
        let width = SimDuration::from_secs(10);
        let mut op = WindowAggregate::count("wc", WindowAssigner::Tumbling(width));
        let events: Vec<Event> = (0..n)
            .map(|i| {
                Event::new(Value::Int(1), SimTime::from_millis(times[i]))
                    .with_key(format!("k{}", keys[i]))
            })
            .collect();
        let mut emitted = op.process(SimTime::ZERO, events.clone());
        emitted.extend(op.flush(SimTime::ZERO));

        use std::collections::BTreeMap;
        let mut expected: BTreeMap<(u64, String), i64> = BTreeMap::new();
        for i in 0..n {
            let w = (times[i] * 1_000_000) / width.as_nanos() * width.as_nanos();
            *expected.entry((w, format!("k{}", keys[i]))).or_insert(0) += 1;
        }
        let mut got: BTreeMap<(u64, String), i64> = BTreeMap::new();
        for e in &emitted {
            let start = e.ts.as_nanos() - width.as_nanos();
            got.insert((start, e.key.clone().unwrap()), e.value.as_int().unwrap());
        }
        assert_eq!(got, expected, "case {case}");
    }
}

/// Partition-log truncation always preserves a prefix: after truncating to
/// any offset, the remaining log is exactly the old log's prefix and the
/// high watermark never exceeds the log end.
#[test]
fn log_truncation_preserves_prefix() {
    let mut rng = StdRng::seed_from_u64(0x106);
    for case in 0..CASES {
        let n = rng.gen_range(1..60usize);
        let cut = rng.gen_range(0u64..80);
        let hw = rng.gen_range(0u64..80);
        let mut log = PartitionLog::new();
        for i in 0..n {
            log.append(
                LeaderEpoch((i / 10) as u64),
                Record::keyless(format!("v{i}"), SimTime::ZERO),
            );
        }
        let values = |log: &PartitionLog| -> Vec<String> {
            let entries = log.entries().take(n);
            entries.map(|(_, _, r)| r.value_utf8()).collect()
        };
        let before = values(&log);
        log.advance_high_watermark(Offset(hw.min(n as u64)));
        log.truncate_to(Offset(cut));
        let after = values(&log);
        let keep = (cut as usize).min(n);
        assert_eq!(&after[..], &before[..keep], "case {case}");
        assert!(log.high_watermark() <= log.log_end(), "case {case}");
    }
}

/// Routing reaches every host pair on arbitrary connected star-of-stars
/// topologies with the expected hop counts.
#[test]
fn routing_connects_all_pairs() {
    let mut rng = StdRng::seed_from_u64(0x2072);
    for _case in 0..32 {
        let arms = rng.gen_range(1..5usize);
        let per_arm = rng.gen_range(1..4usize);
        let lat_ms = rng.gen_range(1u64..20);
        let mut topo = Topology::new();
        topo.add_switch("hub").unwrap();
        let mut hosts = Vec::new();
        for a in 0..arms {
            let sw = format!("sw{a}");
            topo.add_switch(sw.as_str()).unwrap();
            topo.add_link(&sw, "hub", LinkSpec::new().latency_ms(lat_ms))
                .unwrap();
            for h in 0..per_arm {
                let host = format!("h{a}x{h}");
                topo.add_host(host.as_str()).unwrap();
                topo.add_link(&host, &sw, LinkSpec::new().latency_ms(lat_ms))
                    .unwrap();
                hosts.push(host);
            }
        }
        let net = Network::new(topo);
        for a in &hosts {
            for b in &hosts {
                if a == b {
                    continue;
                }
                let na = net.topology().lookup(a).unwrap();
                let nb = net.topology().lookup(b).unwrap();
                let route = net.route_between(na, nb);
                assert!(route.is_some(), "no route {a} -> {b}");
                // Same arm: 2 hops; across arms: 4 hops.
                let hops = route.unwrap().len();
                assert!(hops == 2 || hops == 4, "unexpected hop count {hops}");
            }
        }
    }
}
