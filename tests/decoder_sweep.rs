//! One mutation sweep over the record decoders, one table row each.
//!
//! Each row builds seeded valid encodings and checks that every one decodes
//! back to the records it was built from. Then it damages each encoding:
//!
//! - a cut at every byte;
//! - junk appended after the last record;
//! - the record count raised by one, and saturated;
//! - each bit of a seeded sample of bytes flipped.
//!
//! A cut, junk or a wrong count must be rejected. A flipped bit may land in
//! a payload and still decode, so it must only not panic, and whatever
//! decodes must encode and decode again to the same records. Seeded over
//! the workspace's own `StdRng`, with no test-only dependency: a failure
//! reproduces exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use stream2gym::broker::{LogSegment, PartitionLog};
use stream2gym::proto::codec::put_uvarint;
use stream2gym::proto::{LeaderEpoch, Offset, ProducerId, Record, RecordBatch};
use stream2gym::sim::SimTime;

/// What a decoder produced: each record with its offset and epoch (0 for a
/// batch frame, which carries none).
type Entries = Vec<(u64, u64, Record)>;

/// Valid encodings, each with the entries it holds.
type Samples = Vec<(Vec<u8>, Entries)>;

/// One decoder under test.
struct Row {
    name: &'static str,
    /// Seeded valid encodings.
    samples: fn(&mut StdRng) -> Samples,
    /// The decoded entries, `None` when the input is rejected.
    decode: fn(&[u8]) -> Option<Entries>,
    /// Re-encodes what `decode` accepted.
    reencode: fn(&[u8]) -> Vec<u8>,
    /// The encoding with its record count replaced by `count`.
    recount: fn(&[u8], u64) -> Vec<u8>,
}

const ROWS: [Row; 2] = [
    Row {
        name: "RecordBatch::decode_frame",
        samples: frames,
        decode: decode_frame,
        reencode: |buf| {
            let (batch, base) = RecordBatch::decode_frame(buf).expect("accepted before");
            batch.encode_frame(base)
        },
        recount: recount_frame,
    },
    Row {
        name: "LogSegment::decode",
        samples: segments,
        decode: decode_segment,
        reencode: |buf| LogSegment::decode(buf).expect("accepted before").encode(),
        recount: |buf, count| {
            // Version, base, end and timestamp base come first.
            let mut out = buf.to_vec();
            let count = u32::try_from(count).unwrap_or(u32::MAX);
            out[25..29].copy_from_slice(&count.to_le_bytes());
            out
        },
    },
];

/// Bytes of each encoding whose eight bits are flipped one at a time.
const FLIPPED_BYTES: usize = 12;

fn arb_record(rng: &mut StdRng, ts: u64) -> Record {
    let bytes = |rng: &mut StdRng, max: usize| -> Vec<u8> {
        let len = rng.gen_range(0..max);
        (0..len).map(|_| rng.gen_range(0..=255u8)).collect()
    };
    let value = bytes(rng, 24);
    let record = match rng.gen_range(0..3) {
        0 => Record::keyless(value, SimTime::from_millis(ts)),
        _ => Record::new(bytes(rng, 8), value, SimTime::from_millis(ts)),
    };
    record
        .from_producer(ProducerId(rng.gen_range(0..300)), rng.gen_range(0..1 << 20))
        .with_producer_epoch(rng.gen_range(0..3))
}

/// Batch frames of 0 to 8 records at seeded base offsets.
fn frames(rng: &mut StdRng) -> Samples {
    (0..24)
        .map(|_| {
            let n = rng.gen_range(0..9);
            let ts = rng.gen_range(0..1_000u64);
            let records: Vec<Record> = (0..n).map(|i| arb_record(rng, ts + i)).collect();
            let base = rng.gen_range(0..1u64 << 40);
            let batch = RecordBatch::from_records(records.clone());
            let entries = (records.into_iter().enumerate())
                .map(|(i, r)| (base + i as u64, 0, r))
                .collect();
            (batch.encode_frame(Offset(base)), entries)
        })
        .collect()
}

fn decode_frame(buf: &[u8]) -> Option<Entries> {
    let (batch, base) = RecordBatch::decode_frame(buf)?;
    let records = batch.iter().enumerate();
    Some(
        records
            .map(|(i, r)| (base.value() + i as u64, 0, r.to_record()))
            .collect(),
    )
}

/// Where a frame's record count starts: past the version and codec bytes,
/// the base offset's varint and the timestamp base.
fn recount_frame(buf: &[u8], count: u64) -> Vec<u8> {
    let base_len = 1 + buf[2..].iter().take_while(|b| **b & 0x80 != 0).count();
    let at = 2 + base_len + 8;
    let old_len = 1 + buf[at..].iter().take_while(|b| **b & 0x80 != 0).count();
    let mut out = buf[..at].to_vec();
    put_uvarint(&mut out, count);
    out.extend_from_slice(&buf[at + old_len..]);
    out
}

/// The segments of logs grown by batches under a few epochs and then
/// compacted, so that some hold offset holes.
fn segments(rng: &mut StdRng) -> Samples {
    let mut out = Vec::new();
    for _ in 0..4 {
        let mut log = PartitionLog::with_segment_max(rng.gen_range(2..7));
        let mut ts = 0;
        for epoch in 0..6 {
            let n = rng.gen_range(1..5);
            let batch: Vec<Record> = (0..n).map(|i| arb_record(rng, ts + i)).collect();
            ts += n;
            log.append_batch(LeaderEpoch(epoch / 2), batch);
        }
        log.advance_high_watermark(log.log_end());
        log.compact();
        for seg in log.segments() {
            let whole = PartitionLog::from_recovered_segments(
                vec![LogSegment::decode(&seg.encode()).expect("a valid segment")],
                Offset::ZERO,
                Offset::ZERO,
                &[seg.base_offset().value()],
                8,
            );
            let entries = whole
                .entries()
                .map(|(o, e, r)| (o.value(), e.0, r.to_record()));
            out.push((seg.encode(), entries.collect()));
        }
    }
    out
}

fn decode_segment(buf: &[u8]) -> Option<Entries> {
    let seg = LogSegment::decode(buf)?;
    let base = seg.base_offset().value();
    let log =
        PartitionLog::from_recovered_segments(vec![seg], Offset::ZERO, Offset::ZERO, &[base], 8);
    let entries = log
        .entries()
        .map(|(o, e, r)| (o.value(), e.0, r.to_record()));
    Some(entries.collect())
}

#[test]
fn every_damaged_encoding_is_rejected_or_decodes_consistently() {
    let mut rng = StdRng::seed_from_u64(0xDEC0DE);
    for row in ROWS {
        let name = row.name;
        let (mut samples, mut flips_rejected, mut flips) = (0, 0, 0);
        for (buf, entries) in (row.samples)(&mut rng) {
            samples += 1;
            assert_eq!(
                (row.decode)(&buf).as_ref(),
                Some(&entries),
                "{name}: round trip"
            );
            assert_eq!((row.reencode)(&buf), buf, "{name}: re-encoding");
            for cut in 0..buf.len() {
                assert!((row.decode)(&buf[..cut]).is_none(), "{name}: cut at {cut}");
            }
            let mut junk = buf.clone();
            junk.extend_from_slice(&[0, 0xff]);
            assert!((row.decode)(&junk).is_none(), "{name}: trailing bytes");
            for count in [entries.len() as u64 + 1, u64::MAX] {
                let recounted = (row.recount)(&buf, count);
                assert!((row.decode)(&recounted).is_none(), "{name}: count {count}");
            }
            for _ in 0..FLIPPED_BYTES.min(buf.len()) {
                let at = rng.gen_range(0..buf.len());
                for bit in 0..8 {
                    let mut flipped = buf.clone();
                    flipped[at] ^= 1 << bit;
                    flips += 1;
                    let Some(decoded) = (row.decode)(&flipped) else {
                        flips_rejected += 1;
                        continue;
                    };
                    let again = (row.reencode)(&flipped);
                    assert_eq!(
                        (row.decode)(&again),
                        Some(decoded),
                        "{name}: bit {bit} of byte {at} decodes inconsistently"
                    );
                }
            }
        }
        assert!(samples >= 20, "{name}: only {samples} samples");
        // Not vacuous: framing bytes are a good share of a small encoding.
        assert!(
            flips_rejected * 5 > flips,
            "{name}: {flips_rejected} of {flips} flips rejected"
        );
    }
}
