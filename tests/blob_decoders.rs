//! The blob decoders reject every damaged blob without panicking.
//!
//! A run persists checkpoint captures and broker log segments through its
//! store, and a restore feeds whatever the store hands back through
//! `StateSnapshot::from_bytes`, `StateDelta::from_bytes`,
//! `LogSegment::decode` and `BrokerLogMeta::decode`. This test takes real
//! blobs of each kind out of the store of a keyed job with incremental
//! checkpoints and a durable broker, checks that each decodes and
//! re-encodes to itself, and then damages it: cut at every byte, each bit
//! of a seeded sample of bytes flipped, and junk appended. Every damaged
//! blob must decode to an error or a value, never a panic, and the blob
//! with junk appended to an error.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use stream2gym::apps::word_count::recovery_scenario;
use stream2gym::broker::{BrokerLogMeta, LogSegment};
use stream2gym::sim::{SimDuration, SimTime};
use stream2gym::spe::{CheckpointCfg, StateDelta, StateSnapshot};
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

const DECODERS: [(&str, Decoder, Reads); 4] = [
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
        |key| key.starts_with("brokerlog/") && !key.ends_with("/meta"),
    ),
    (
        "BrokerLogMeta::decode",
        |b| BrokerLogMeta::decode(b).map(|m| m.encode()),
        |key| key.starts_with("brokerlog/") && key.ends_with("/meta"),
    ),
];

/// Bytes of each blob whose eight bits are flipped one at a time.
const FLIPPED_BYTES: usize = 48;

/// What the store holds after a keyed word count with incremental
/// checkpoints and a durable broker, both kept on one store.
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
    let entries = server.kv().entries();
    entries
        .map(|(key, blob)| (key.clone(), blob.to_vec()))
        .collect()
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
