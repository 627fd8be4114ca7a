//! The blob decoders reject every damaged blob without panicking.
//!
//! A run persists checkpoint captures and broker log segments through its
//! store, and a restore feeds whatever the store hands back through
//! `StateSnapshot::from_bytes`, `StateDelta::from_bytes`,
//! `LogSegment::decode` and `BrokerLogMeta::decode`; a consumer feeds each
//! record value of those segments through `Event::from_bytes`, whose value
//! part `Value::decode` reads on its own too (a state snapshot holds
//! values in the same format). This test
//! takes real blobs of each kind out of the store of a keyed job with
//! incremental checkpoints and a durable broker, checks that each decodes
//! and re-encodes to itself, and then damages it: cut at every byte, each
//! bit of a seeded sample of bytes flipped, and junk appended. Every
//! damaged blob must decode to an error or a value, never a panic, and the
//! blob with junk appended to an error. The base and delta captures swept
//! must each hold buffered input. On every damaged event,
//! `Event::peek_origin` must agree with `Event::from_bytes`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use stream2gym::apps::word_count::recovery_scenario;
use stream2gym::broker::{BrokerLogMeta, LogSegment, PartitionLog};
use stream2gym::proto::Offset;
use stream2gym::sim::{SimDuration, SimTime};
use stream2gym::spe::{CheckpointCfg, Event, StateDelta, StateSnapshot, Value};
use stream2gym::store::{StoreConfig, StoreServer};

/// A decoder as a restore uses it: the re-encoded value when it accepts
/// its input, `None` when it rejects it.
type Decoder = fn(&[u8]) -> Option<Vec<u8>>;

/// Whether a stored key holds a blob of the decoder's kind.
type Reads = fn(&str) -> bool;

/// A chain's base capture: `ckpt/<job>/<chain>/base`.
fn is_base(key: &str) -> bool {
    key.starts_with("ckpt/") && key.ends_with("/base")
}

/// A chain's delta capture: `ckpt/<job>/<chain>/<seq>`.
fn is_delta(key: &str) -> bool {
    key.starts_with("ckpt/") && key.matches('/').count() == 3 && !is_base(key)
}

/// A broker log segment: `brokerlog/<broker>/<topic-partition>/<base>`.
fn is_segment(key: &str) -> bool {
    key.starts_with("brokerlog/") && !key.ends_with("/meta")
}

const DECODERS: [(&str, Decoder, Reads); 6] = [
    (
        "StateSnapshot::from_bytes",
        |b| StateSnapshot::from_bytes(b).ok().map(|s| s.to_bytes()),
        is_base,
    ),
    (
        "StateDelta::from_bytes",
        |b| StateDelta::from_bytes(b).ok().map(|d| d.to_bytes()),
        is_delta,
    ),
    (
        "LogSegment::decode",
        |b| LogSegment::decode(b).map(|s| s.encode()),
        is_segment,
    ),
    (
        "BrokerLogMeta::decode",
        |b| BrokerLogMeta::decode(b).map(|m| m.encode()),
        |key| key.starts_with("brokerlog/") && key.ends_with("/meta"),
    ),
    (
        "Event::from_bytes",
        |b| {
            let event = Event::from_bytes(b).ok();
            let origin = event.as_ref().map(|e| e.origin);
            assert_eq!(Event::peek_origin(b), origin, "peek_origin disagrees");
            event.map(|e| e.to_bytes())
        },
        // An event-encoded record value out of a stored segment.
        |key| key.starts_with("record/"),
    ),
    (
        "Value::decode",
        |b| Value::decode(b).ok().map(|v| v.encode()),
        // The value part of such an event.
        |key| key.starts_with("value/"),
    ),
];

/// How many events a capture blob holds in its `buffer` (fetched input no
/// batch had run); `None` for a blob of another kind.
fn buffered_events(key: &str, blob: &[u8]) -> Option<usize> {
    if is_base(key) {
        return Some(StateSnapshot::from_bytes(blob).ok()?.buffer.len());
    }
    if is_delta(key) {
        return Some(StateDelta::from_bytes(blob).ok()?.buffer.len());
    }
    None
}

/// Bytes of each blob whose eight bits are flipped one at a time.
const FLIPPED_BYTES: usize = 48;

/// What the store holds after a keyed word count with incremental
/// checkpoints and a durable broker, both kept on one store, the
/// event-encoded record values (magic byte `0xE7`) of its log segments, and
/// the encoded `Value` each of those events carries.
fn stored_blobs() -> Vec<(String, Vec<u8>)> {
    let mut sc = recovery_scenario(120, SimDuration::from_millis(25), SimTime::from_secs(6), 3);
    sc.store("h6", StoreConfig::default());
    let every_second = CheckpointCfg::exactly_once(SimDuration::from_secs(1));
    sc.with_durable_checkpointing(every_second.incremental(8), "h6");
    sc.with_durable_broker("h6");
    let result = sc.run().expect("the scenario runs");
    let store = result.store_pids["h6"];
    let server = result
        .sim
        .process_ref::<StoreServer>(store)
        .expect("the store");
    let mut blobs: Vec<(String, Vec<u8>)> = (server.kv().entries())
        .map(|(key, blob)| (key.clone(), blob.to_vec()))
        .collect();
    let mut events = Vec::new();
    for (key, blob) in blobs.iter().filter(|(key, _)| is_segment(key)) {
        let segment = LogSegment::decode(blob).expect("a stored segment decodes");
        let base = segment.base_offset().value();
        let log =
            PartitionLog::from_recovered_segments(vec![segment], Offset(0), Offset(0), &[base], 1);
        for (offset, _, record) in log.entries() {
            if record.value().first() == Some(&0xE7) {
                let at = format!("{key}/{}", offset.value());
                let event = Event::from_bytes(record.value()).expect("a stored event decodes");
                events.push((format!("value/{at}"), event.value.encode()));
                events.push((format!("record/{at}"), record.value().to_vec()));
            }
        }
    }
    blobs.extend(events);
    blobs
}

/// Runs `decode` on `input`; `Err` with the panic message if it panicked.
fn survives(decode: Decoder, input: &[u8]) -> Result<Option<Vec<u8>>, String> {
    catch_unwind(AssertUnwindSafe(|| decode(input))).map_err(|panic| {
        let text = panic.downcast_ref::<&str>().map(|s| s.to_string());
        text.or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    })
}

#[test]
fn every_truncated_or_bit_flipped_blob_decodes_to_an_error_or_a_value() {
    let blobs = stored_blobs();
    let mut rng = StdRng::seed_from_u64(31);
    let mut panics = Vec::new();
    let mut accepted = Vec::new();
    let mut swept = 0;
    for (name, decode, reads) in DECODERS {
        // The largest blob of the decoder's kind: the most structure to
        // damage.
        let (key, blob) = (blobs.iter().filter(|(key, _)| reads(key)))
            .max_by_key(|(_, blob)| blob.len())
            .unwrap_or_else(|| panic!("the store holds no blob for {name}"));
        assert_eq!(
            decode(blob).as_ref(),
            Some(blob),
            "{name} round trip of {key}"
        );
        // A swept capture must carry buffered input, or the sweep leaves
        // that part of the format undamaged.
        if let Some(events) = buffered_events(key, blob) {
            assert!(events > 0, "{name}: {key} buffers no event");
        }
        let mut check = |what: String, input: &[u8]| {
            swept += 1;
            survives(decode, input).unwrap_or_else(|message| {
                panics.push(format!("{name} on {key} {what}: {message}"));
                None
            })
        };
        for len in 0..blob.len() {
            check(format!("cut to {len} B"), &blob[..len]);
        }
        for _ in 0..FLIPPED_BYTES.min(blob.len()) {
            let at = rng.gen_range(0..blob.len());
            for bit in 0..8 {
                let mut damaged = blob.clone();
                damaged[at] ^= 1 << bit;
                check(format!("with bit {bit} of byte {at} flipped"), &damaged);
            }
        }
        let junk = [blob.as_slice(), b"junk"].concat();
        if check("with junk appended".into(), &junk).is_some() {
            accepted.push(format!("{name} on {key} with junk appended"));
        }
    }
    assert!(swept > 1_000, "only {swept} damaged blobs");
    assert!(panics.is_empty(), "{panics:#?}");
    assert!(accepted.is_empty(), "{accepted:#?}");
}
