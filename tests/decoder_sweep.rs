//! One mutation sweep over the record and meta decoders, one row each.
//!
//! Each row builds seeded valid encodings and checks that every one decodes
//! back to what it was built from and re-encodes to itself. Then it
//! damages each encoding:
//!
//! - a cut at every byte;
//! - junk appended after the end;
//! - the leading count (records, or the meta blob's partitions) raised by
//!   one, and saturated;
//! - each bit of a seeded sample of bytes flipped.
//!
//! A cut, junk or a wrong count must be rejected. A flipped bit may land in
//! a payload and still decode, so it must only not panic, and whatever
//! decodes must re-encode to its input, byte for byte: a decoder accepts
//! only what its encoder writes (a key flag of 2 or a varint written long
//! is rejected, not read as the 1 or the short form it stands for).
//! Seeded over the workspace's own `StdRng`, with no test-only dependency:
//! a failure reproduces exactly.

use std::fmt::Debug;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use stream2gym::broker::{BrokerLogMeta, LogSegment, PartitionLog};
use stream2gym::proto::codec::{put_uvarint, CodecError};
use stream2gym::proto::{
    Columns, LeaderEpoch, Offset, ProducerId, Record, RecordBatch, TopicPartition,
};
use stream2gym::sim::SimTime;

/// What a record decoder produced: each record with its offset and epoch
/// (0 for a batch frame, which carries none).
type Entries = Vec<(u64, u64, Record)>;

/// Valid encodings, each with what it decodes to.
type Samples<T = Entries> = Vec<(Vec<u8>, T)>;

/// One decoder under test, decoding to `T`.
struct Row<T> {
    name: &'static str,
    /// Seeded valid encodings, each with what it decodes to.
    samples: fn(&mut StdRng) -> Samples<T>,
    decode: fn(&[u8]) -> Result<T, CodecError>,
    /// Re-encodes what `decode` accepted.
    reencode: fn(&[u8]) -> Vec<u8>,
    /// The leading count of what an encoding decodes to.
    count: fn(&T) -> usize,
    /// The encoding with its leading count replaced by `count`.
    recount: fn(&[u8], u64) -> Vec<u8>,
}

const FRAMES: Row<Entries> = Row {
    name: "RecordBatch::decode_frame",
    samples: frames,
    decode: decode_frame,
    reencode: |buf| {
        let (batch, base) = RecordBatch::decode_frame(buf).expect("accepted before");
        batch.encode_frame(base)
    },
    count: Vec::len,
    recount: recount_frame,
};

const SEGMENTS: Row<Entries> = Row {
    name: "LogSegment::decode",
    samples: segments,
    decode: decode_segment,
    reencode: |buf| LogSegment::decode(buf).expect("accepted before").encode(),
    count: Vec::len,
    // Version, base, end and timestamp base come first.
    recount: |buf, count| recount_u32(buf, 25, count),
};

const METAS: Row<BrokerLogMeta> = Row {
    name: "BrokerLogMeta::decode",
    samples: metas,
    decode: BrokerLogMeta::decode,
    reencode: |buf| {
        BrokerLogMeta::decode(buf)
            .expect("accepted before")
            .encode()
    },
    count: |meta| meta.partitions.len(),
    // The partition count comes first.
    recount: |buf, count| recount_u32(buf, 0, count),
};

/// `buf` with the `u32` count at `at` replaced by `count`, saturated.
fn recount_u32(buf: &[u8], at: usize, count: u64) -> Vec<u8> {
    let mut out = buf.to_vec();
    let count = u32::try_from(count).unwrap_or(u32::MAX);
    out[at..at + 4].copy_from_slice(&count.to_le_bytes());
    out
}

/// Bytes of each encoding whose eight bits are flipped one at a time.
const FLIPPED_BYTES: usize = 12;

/// What the records of one sample may break, by the row columns of the
/// batch store they make: nothing, so that the store holds no row; one
/// column, broken at one record mid-batch; or several, broken at random.
const SHAPES: [Columns; 8] = [
    columns(false, false, false, false),
    columns(true, false, false, false),
    columns(false, true, false, false),
    columns(false, false, true, false),
    columns(false, false, false, true),
    columns(true, true, false, false),
    columns(true, true, true, false),
    columns(true, true, true, true),
];

const fn columns(ends: bool, timestamps: bool, key_lengths: bool, sequences: bool) -> Columns {
    Columns {
        ends,
        timestamps,
        key_lengths,
        sequences,
    }
}

/// A record at `ts` ms. In a shape of one column or none it is one
/// producer's, with a 3 B key and an 8 B value, its sequence its
/// millisecond, unless `broken`, where it breaks that column: a value one
/// byte longer, a key one byte shorter, a timestamp falling below the last
/// record's or lying 2³² ns or more past its millisecond, or a sequence one
/// too high. In a wider shape it is arbitrary.
fn arb_record(rng: &mut StdRng, ts: u64, shape: Columns, broken: bool) -> Record {
    let Columns {
        ends,
        timestamps,
        key_lengths,
        sequences,
    } = shape;
    if [ends, timestamps, key_lengths, sequences]
        .into_iter()
        .filter(|&c| c)
        .count()
        > 1
    {
        return arbitrary_record(rng, ts, shape);
    }
    let mut record = Record::new("key", vec![ts as u8; 8], SimTime::from_millis(ts))
        .from_producer(ProducerId(7), ts)
        .with_producer_epoch(1);
    if broken {
        let at = record.timestamp.as_nanos();
        if ends {
            record.value = vec![0; 9].into();
        } else if key_lengths {
            record.key = Some("ke".into());
        } else if timestamps {
            let ns = match rng.gen_range(0..2) {
                0 => at.saturating_sub(1_500_000),
                _ => at + rng.gen_range(1u64 << 32..=1 << 33),
            };
            record.timestamp = SimTime::from_nanos(ns);
        } else if sequences {
            record.producer_seq += 1;
        }
    }
    record
}

/// A record at `ts` ms, keyed two times in three if `shape` breaks key
/// lengths, and keyless otherwise.
fn arbitrary_record(rng: &mut StdRng, ts: u64, shape: Columns) -> Record {
    let bytes = |rng: &mut StdRng, max: usize| -> Vec<u8> {
        let len = rng.gen_range(0..max);
        (0..len).map(|_| rng.gen_range(0..=255u8)).collect()
    };
    let value = bytes(rng, 24);
    // Most records are one producer's, its sequence rising with `ts`, so
    // they share a stretch of their batch: by one a millisecond, or, out of
    // sequence, by one to five. One in eight lies 2³² ns or more past
    // `ts`, one in eight 2³² or more above its sequence, and the records
    // after it step back: stretches break both ways.
    let ts = SimTime::from_millis(ts + jump(rng, 4_295));
    let (producer, epoch, seq) = match rng.gen_range(0..4) {
        0 => (
            rng.gen_range(0..300),
            rng.gen_range(0..3),
            rng.gen_range(0..1 << 20),
        ),
        _ if shape.sequences => (7, 1, ts.as_millis() * 3 + rng.gen_range(0..3u64)),
        _ => (7, 1, ts.as_millis()),
    };
    let record = match (shape.key_lengths, rng.gen_range(0..3)) {
        (false, _) | (true, 0) => Record::keyless(value, ts),
        (true, _) => Record::new(bytes(rng, 8), value, ts),
    };
    record
        .from_producer(ProducerId(producer), seq + jump(rng, 1 << 32))
        .with_producer_epoch(epoch)
}

/// `at_least` up to twice that, one time in eight; 0 otherwise.
fn jump(rng: &mut StdRng, at_least: u64) -> u64 {
    match rng.gen_range(0..8) {
        0 => rng.gen_range(at_least..=2 * at_least),
        _ => 0,
    }
}

/// Batch frames of 0 to 8 records at seeded base offsets, broken at a
/// seeded record past the first.
fn frames(rng: &mut StdRng) -> Samples {
    (0..24)
        .map(|sample| {
            let n = rng.gen_range(0..9);
            let ts = rng.gen_range(0..1_000u64);
            let shape = SHAPES[sample % SHAPES.len()];
            let broken = rng.gen_range(1..9);
            let records: Vec<Record> = (0..n)
                .map(|i| arb_record(rng, ts + i, shape, i == broken))
                .collect();
            let base = rng.gen_range(0..1u64 << 40);
            let batch = RecordBatch::from_records(records.clone());
            let entries = (records.into_iter().enumerate())
                .map(|(i, r)| (base + i as u64, 0, r))
                .collect();
            (batch.encode_frame(Offset(base)), entries)
        })
        .collect()
}

fn decode_frame(buf: &[u8]) -> Result<Entries, CodecError> {
    let (batch, base) = RecordBatch::decode_frame(buf)?;
    let records = batch.iter().enumerate();
    Ok(records
        .map(|(i, r)| (base.value() + i as u64, 0, r.to_record()))
        .collect())
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
/// compacted, so that some hold offset holes, each log's records broken at
/// one seeded record past the first.
fn segments(rng: &mut StdRng) -> Samples {
    let mut out = Vec::new();
    for shape in SHAPES {
        let mut log = PartitionLog::with_segment_max(rng.gen_range(2..7));
        let (mut ts, broken) = (0, rng.gen_range(1..12));
        for epoch in 0..6 {
            let n = rng.gen_range(1..5);
            let batch: Vec<Record> = (0..n)
                .map(|i| arb_record(rng, ts + i, shape, ts + i == broken))
                .collect();
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

fn decode_segment(buf: &[u8]) -> Result<Entries, CodecError> {
    let seg = LogSegment::decode(buf)?;
    let base = seg.base_offset().value();
    let log =
        PartitionLog::from_recovered_segments(vec![seg], Offset::ZERO, Offset::ZERO, &[base], 8);
    let entries = log
        .entries()
        .map(|(o, e, r)| (o.value(), e.0, r.to_record()));
    Ok(entries.collect())
}

/// Meta blobs of 1 to 4 partitions with short topic names, few segment
/// bases, groups and transactions: framing (counts, lengths and names) is a
/// good share of each blob.
fn metas(rng: &mut StdRng) -> Samples<BrokerLogMeta> {
    let tp = |rng: &mut StdRng| {
        let topic = ["t", "ab", "rides"][rng.gen_range(0..3usize)];
        TopicPartition::new(topic, rng.gen_range(0..4))
    };
    (0..24)
        .map(|_| {
            let partitions = (0..rng.gen_range(1..5))
                .map(|_| {
                    let bases = (0..rng.gen_range(0..3)).map(|i| i * 128).collect();
                    let hw = rng.gen_range(0..1_000);
                    (tp(rng), Offset(hw), Offset(hw / 2), bases)
                })
                .collect();
            let group_offsets = (0..rng.gen_range(0..3))
                .map(|g| (format!("g{g}"), tp(rng), Offset(rng.gen_range(0..1_000))))
                .collect();
            let txns = (0..rng.gen_range(0..2))
                .map(|_| (tp(rng), vec![(7, 3, 10, 14, 1)], vec![(2, 5)]))
                .collect();
            let meta = BrokerLogMeta {
                partitions,
                group_offsets,
                reclaimed_bytes: rng.gen_range(0..1 << 20),
                txns,
            };
            (meta.encode(), meta)
        })
        .collect()
}

/// Runs the sweep of the module doc over one row.
fn sweep<T: PartialEq + Debug>(rng: &mut StdRng, row: Row<T>) {
    let name = row.name;
    let (mut samples, mut flips_rejected, mut flips) = (0, 0, 0);
    for (buf, built) in (row.samples)(rng) {
        samples += 1;
        let count = (row.count)(&built) as u64;
        assert_eq!((row.decode)(&buf), Ok(built), "{name}: round trip");
        assert_eq!((row.reencode)(&buf), buf, "{name}: re-encoding");
        for cut in 0..buf.len() {
            assert!((row.decode)(&buf[..cut]).is_err(), "{name}: cut at {cut}");
        }
        let mut junk = buf.clone();
        junk.extend_from_slice(&[0, 0xff]);
        assert!((row.decode)(&junk).is_err(), "{name}: trailing bytes");
        for count in [count + 1, u64::MAX] {
            let recounted = (row.recount)(&buf, count);
            assert!((row.decode)(&recounted).is_err(), "{name}: count {count}");
        }
        for _ in 0..FLIPPED_BYTES.min(buf.len()) {
            let at = rng.gen_range(0..buf.len());
            for bit in 0..8 {
                let mut flipped = buf.clone();
                flipped[at] ^= 1 << bit;
                flips += 1;
                if (row.decode)(&flipped).is_err() {
                    flips_rejected += 1;
                    continue;
                }
                assert_eq!(
                    (row.reencode)(&flipped),
                    flipped,
                    "{name}: bit {bit} of byte {at} decodes, to an encoding of other bytes"
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

#[test]
fn every_damaged_encoding_is_rejected_or_decodes_consistently() {
    let mut rng = StdRng::seed_from_u64(0xDEC0DE);
    sweep(&mut rng, FRAMES);
    sweep(&mut rng, SEGMENTS);
    sweep(&mut rng, METAS);
}
