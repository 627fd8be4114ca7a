//! The blob decoders reject every damaged blob without panicking, and
//! accept only what their encoders write.
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
//! damaged blob must decode to an error or a value, never a panic; the
//! blob with junk appended to an error; and a damaged blob that decodes
//! must re-encode to itself, byte for byte (a `Bool` byte of 2 read as
//! `true` would not). The base and delta captures swept
//! must each hold buffered input. On every damaged event,
//! `Event::peek_origin` must agree with `Event::from_bytes`, and so must
//! `Event::decode_over` on targets left dirty by other events (a key and a
//! string value to reuse, or a list value to replace), as an SPE batch
//! decodes over the last batch's events; it is swept over such an event
//! and over the same event without its key. A target `decode_over`
//! rejects must be left unchanged. A second test rewrites every stored
//! event into each form the encoder never writes (a reserved flag bit, a
//! source byte of 0, an origin delta of 0, a string value with its tag and
//! length, and a map value whose keys are out of order or repeated), which
//! every decoder must reject as `CodecError::NonCanonical`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use stream2gym::apps::word_count::recovery_scenario;
use stream2gym::broker::{BrokerLogMeta, LogSegment, PartitionLog};
use stream2gym::proto::codec::put_str;
use stream2gym::proto::Offset;
use stream2gym::sim::{SimDuration, SimTime};
use stream2gym::spe::{CheckpointCfg, CodecError, Event, StateDelta, StateSnapshot, Value};
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

/// Events an SPE batch may decode over: a keyed one with a string value,
/// whose buffers are reused, and one with a list value, which is replaced.
fn dirty_targets() -> [Event; 2] {
    let at = SimTime::from_millis(3);
    let mut keyed = Event::new(Value::Str("an old value, longer than most".into()), at)
        .with_key("an old key")
        .with_origin(SimTime::from_millis(1));
    keyed.source = 9;
    let list = Event::new(Value::List(vec![Value::Int(1), Value::Null]), at).with_key("k");
    [keyed, list]
}

/// `Event::decode_over` on `b` over each of [`dirty_targets`]: it must
/// agree with `Event::from_bytes`, error for error and event for event.
fn decode_over_dirty_targets(b: &[u8]) -> Option<Vec<u8>> {
    // Compared encoded: a flipped bit may decode to a NaN float, which
    // equals nothing, itself included.
    let fresh = Event::from_bytes(b).map(|e| e.to_bytes());
    for (mut target, before) in dirty_targets().into_iter().zip(dirty_targets()) {
        let over = target.decode_over(b).map(|()| target.to_bytes());
        assert_eq!(over, fresh, "decode_over disagrees with from_bytes");
        if over.is_err() {
            assert_eq!(target, before, "a rejected event changed its target");
        }
    }
    fresh.ok()
}

const DECODERS: [(&str, Decoder, Reads); 8] = [
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
        |b| LogSegment::decode(b).ok().map(|s| s.encode()),
        is_segment,
    ),
    (
        "BrokerLogMeta::decode",
        |b| BrokerLogMeta::decode(b).ok().map(|m| m.encode()),
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
    ("Event::decode_over", decode_over_dirty_targets, |key| {
        key.starts_with("record/")
    }),
    (
        "Event::decode_over, keyless",
        decode_over_dirty_targets,
        // Such an event without its key: over a keyed target, a key left
        // in place shows.
        |key| key.starts_with("keyless/"),
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

/// Inputs no encoder writes, swept through every decoder beside its
/// damaged blobs: an event whose value is a `Bool` byte of 2, and that
/// value alone. The stored events hold no `Bool` for a flip to make one.
const NEVER_WRITTEN: [(&str, &[u8]); 2] = [
    ("the event e7 04 00 01 02", &[0xE7, 0x04, 0, 1, 2]),
    ("the value 01 02", &[1, 2]),
];

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
                let keyless = Event { key: None, ..event };
                events.push((format!("keyless/{at}"), keyless.to_bytes()));
            }
        }
    }
    blobs.extend(events);
    blobs
}

/// A two-entry map whose keys are out of order, and one whose key is
/// repeated, each entry holding the encoded value `value`.
fn unordered_maps(value: &[u8]) -> [(&'static str, Vec<u8>); 2] {
    [
        ("keys out of order", ["b", "a"]),
        ("a repeated key", ["a", "a"]),
    ]
    .map(|(what, keys)| {
        let mut map = vec![6, 2, 0, 0, 0];
        for k in keys {
            put_str(&mut map, k);
            map.extend_from_slice(value);
        }
        (what, map)
    })
}

/// The forms of the encoded event `bytes`, which decodes to `e`, that
/// the encoder never writes, each named: a reserved flag bit set, a source
/// byte of 0, an origin delta of 0 (when `origin == ts`), a string value
/// with its tag and length (when the value is a string), and a map value
/// of two entries, each the event's value, whose keys are out of order or
/// repeated.
fn non_canonical(bytes: &[u8], e: &Event) -> Vec<(&'static str, Vec<u8>)> {
    const STR_TAIL: u8 = 1 << 1;
    const SAME_ORIGIN: u8 = 1 << 2;
    const SOURCE: u8 = 1 << 3;
    let flags = bytes[1];
    let text = e.value.as_str();
    let value_at = bytes.len() - text.map_or_else(|| e.value.encode().len(), str::len);
    let with_flags = |flags: u8, parts: &[&[u8]]| [&[0xE7, flags][..], &parts.concat()].concat();
    let mut out = vec![("a reserved bit", with_flags(flags | 0x40, &[&bytes[2..]]))];
    out.push(match e.source {
        0 => ("source 0", with_flags(flags | SOURCE, &[&[0], &bytes[2..]])),
        _ => ("source 0", with_flags(flags, &[&[0], &bytes[3..]])),
    });
    if e.origin == e.ts {
        let (head, value) = (&bytes[2..value_at], &bytes[value_at..]);
        out.push((
            "delta 0",
            with_flags(flags & !SAME_ORIGIN, &[head, &[0], value]),
        ));
    }
    if text.is_some() {
        let head = &bytes[2..value_at];
        let tagged = e.value.encode();
        out.push((
            "a tagged string",
            with_flags(flags & !STR_TAIL, &[head, &tagged]),
        ));
    }
    for (what, map) in unordered_maps(&e.value.encode()) {
        assert_eq!(Value::decode(&map), Err(CodecError::NonCanonical), "{what}");
        let head = &bytes[2..value_at];
        out.push((what, with_flags(flags & !STR_TAIL, &[head, &map])));
    }
    out
}

#[test]
fn every_non_canonical_form_of_a_stored_event_is_rejected_by_every_decoder() {
    let mut seen = std::collections::BTreeMap::new();
    for (key, blob) in stored_blobs()
        .iter()
        .filter(|(key, _)| key.starts_with("record/"))
    {
        let stored = Event::from_bytes(blob).expect("a stored event decodes");
        // The job's events hold no string, so each also as one that does.
        let text = Value::Str(stored.value.to_string());
        let as_text = Event {
            value: text,
            ..stored.clone()
        };
        for e in [stored, as_text] {
            for (what, bad) in non_canonical(&e.to_bytes(), &e) {
                *seen.entry(what).or_insert(0) += 1;
                assert_eq!(
                    Event::from_bytes(&bad),
                    Err(CodecError::NonCanonical),
                    "{what} in {key}"
                );
                assert_eq!(Event::peek_origin(&bad), None, "{what} in {key}");
                assert_eq!(decode_over_dirty_targets(&bad), None, "{what} in {key}");
            }
        }
    }
    let forms = [
        "a reserved bit",
        "source 0",
        "delta 0",
        "a tagged string",
        "keys out of order",
        "a repeated key",
    ];
    for what in forms {
        assert!(
            seen.get(what).is_some_and(|n| *n > 0),
            "no stored event has {what}: {seen:?}"
        );
    }
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
    let mut other_bytes = Vec::new();
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
            let got = survives(decode, input).unwrap_or_else(|message| {
                panics.push(format!("{name} on {key} {what}: {message}"));
                None
            });
            if got.as_ref().is_some_and(|again| again != input) {
                other_bytes.push(format!("{name} on {key} {what}: {input:02x?}"));
            }
            got
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
        for (what, input) in NEVER_WRITTEN {
            check(what.into(), input);
        }
        let junk = [blob.as_slice(), b"junk"].concat();
        if check("with junk appended".into(), &junk).is_some() {
            accepted.push(format!("{name} on {key} with junk appended"));
        }
    }
    assert!(swept > 1_000, "only {swept} damaged blobs");
    assert!(panics.is_empty(), "{panics:#?}");
    assert!(accepted.is_empty(), "{accepted:#?}");
    assert!(
        other_bytes.is_empty(),
        "decoded to other bytes: {other_bytes:#?}"
    );
}
