//! The shared batch frame — one record framing for every layer.
//!
//! Producer accumulation, broker log segments, and replica transfer all
//! frame record runs identically: a small header carrying the frame bases
//! (offset, timestamp) followed by per-record entries whose offset and
//! timestamp are varint *deltas* against those bases. Dense runs — the
//! common case — cost one or two bytes per field instead of eight, which is
//! where Kafka's batch format gets its density; compacted logs with offset
//! holes still encode exactly (a hole is just a larger delta).
//!
//! The per-record entry codec lives here ([`put_frame_record`] /
//! [`read_frame_record`]) so the broker's segment codec and the
//! [`RecordBatch`] frame stay byte-compatible by construction instead of by
//! parallel maintenance.

use s2g_sim::SimTime;

use crate::codec::{put_bytes, put_svarint, put_u64, put_u8, put_uvarint, Cursor};
use crate::record::{BatchBuilder, Compression, Offset, ProducerId, RecordBatch, RecordRef};

/// Version byte of the batch frame format.
pub(crate) const BATCH_FRAME_VERSION: u8 = 1;

/// The fewest bytes one record takes in a frame: a byte each for the
/// offset and timestamp deltas and the key flag, the value's length
/// prefix, and a byte each for the producer stamps. A decoder reserves for
/// no more records than its input can hold, whatever count it claims.
pub const MIN_FRAME_RECORD: usize = 10;

/// Appends one record in the shared frame layout: offset and timestamp
/// deltas against the frame bases, then key/value and producer identity.
pub fn put_frame_record(
    out: &mut Vec<u8>,
    base_offset: Offset,
    base_ts: SimTime,
    offset: Offset,
    r: RecordRef<'_>,
) {
    debug_assert!(offset >= base_offset, "frame offsets never precede base");
    put_uvarint(out, offset.value() - base_offset.value());
    put_svarint(
        out,
        r.timestamp().as_nanos() as i64 - base_ts.as_nanos() as i64,
    );
    match r.key() {
        Some(k) => {
            put_u8(out, 1);
            put_bytes(out, k);
        }
        None => put_u8(out, 0),
    }
    put_bytes(out, r.value());
    put_uvarint(out, u64::from(r.producer().0));
    put_uvarint(out, u64::from(r.producer_epoch()));
    put_uvarint(out, r.producer_seq());
}

/// Reads one record written by [`put_frame_record`] into `into`, returning
/// its absolute offset. `None` on truncated or malformed input. The key and
/// value are copied once, into the batch's frame.
pub fn read_frame_record(
    cur: &mut Cursor<'_>,
    base_offset: Offset,
    base_ts: SimTime,
    into: &mut BatchBuilder,
) -> Option<Offset> {
    let offset = Offset(base_offset.value().checked_add(cur.uvarint()?)?);
    let ts = (base_ts.as_nanos() as i64).checked_add(cur.svarint()?)?;
    let timestamp = SimTime::from_nanos(u64::try_from(ts).ok()?);
    let key = match cur.u8()? {
        0 => None,
        _ => Some(cur.bytes()?),
    };
    let value = cur.bytes()?;
    let producer = ProducerId(u32::try_from(cur.uvarint()?).ok()?);
    let producer_epoch = u32::try_from(cur.uvarint()?).ok()?;
    let producer_seq = cur.uvarint()?;
    into.push(
        key,
        value,
        timestamp,
        producer,
        producer_epoch,
        producer_seq,
    );
    Some(offset)
}

impl RecordBatch {
    /// Encodes the batch as one frame based at `base_offset` (records take
    /// consecutive offsets from it, the producer-side convention before the
    /// broker assigns real ones).
    pub fn encode_frame(&self, base_offset: Offset) -> Vec<u8> {
        let base_ts = self.first().map_or(SimTime::ZERO, |r| r.timestamp());
        let mut out = Vec::with_capacity(32 + self.record_bytes());
        put_u8(&mut out, BATCH_FRAME_VERSION);
        put_u8(
            &mut out,
            match self.compression() {
                Compression::None => 0,
                Compression::Lz4 => 1,
            },
        );
        put_uvarint(&mut out, base_offset.value());
        put_u64(&mut out, base_ts.as_nanos());
        put_uvarint(&mut out, self.len() as u64);
        for (i, r) in self.iter().enumerate() {
            put_frame_record(
                &mut out,
                base_offset,
                base_ts,
                Offset(base_offset.value() + i as u64),
                r,
            );
        }
        out
    }

    /// Decodes a frame written by [`encode_frame`](Self::encode_frame),
    /// returning the batch and its base offset. `None` on truncated,
    /// malformed, or wrong-version input, and on bytes past the last
    /// record. The records' bytes are copied once, into the batch's frame.
    pub fn decode_frame(buf: &[u8]) -> Option<(RecordBatch, Offset)> {
        let mut cur = Cursor::new(buf);
        if cur.u8()? != BATCH_FRAME_VERSION {
            return None;
        }
        let compression = match cur.u8()? {
            0 => Compression::None,
            1 => Compression::Lz4,
            _ => return None,
        };
        let base_offset = Offset(cur.uvarint()?);
        let base_ts = SimTime::from_nanos(cur.u64()?);
        let count = cur.uvarint()?;
        let fits = usize::try_from(count).map_or(0, |n| n.min(buf.len() / MIN_FRAME_RECORD));
        let mut records = BatchBuilder::with_capacity(fits, buf.len());
        for _ in 0..count {
            read_frame_record(&mut cur, base_offset, base_ts, &mut records)?;
        }
        if cur.position() != buf.len() {
            return None;
        }
        Some((records.finish().with_compression(compression), base_offset))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;

    fn rec(i: u64) -> Record {
        Record::new(
            format!("k{i}"),
            vec![i as u8; 8 + i as usize],
            SimTime::from_millis(1_000 + i),
        )
        .from_producer(ProducerId(7), i)
        .with_producer_epoch(2)
    }

    #[test]
    fn frame_round_trips() {
        let batch = RecordBatch::from_records((0..5).map(rec).collect());
        let buf = batch.encode_frame(Offset(40));
        let (back, base) = RecordBatch::decode_frame(&buf).expect("valid frame");
        assert_eq!(base, Offset(40));
        assert_eq!(back, batch);
    }

    #[test]
    fn empty_frame_round_trips() {
        let batch = RecordBatch::new();
        let (back, base) = RecordBatch::decode_frame(&batch.encode_frame(Offset::ZERO)).unwrap();
        assert_eq!(base, Offset::ZERO);
        assert!(back.is_empty());
    }

    #[test]
    fn compression_flag_survives() {
        let batch = RecordBatch::from_records(vec![rec(0)]).with_compression(Compression::Lz4);
        let (back, _) = RecordBatch::decode_frame(&batch.encode_frame(Offset(3))).unwrap();
        assert_eq!(back.compression(), Compression::Lz4);
        assert_eq!(back, batch);
    }

    #[test]
    fn delta_encoding_beats_absolute_fields() {
        // A dense 100-record run near offset 1e9: deltas are 1-byte, the
        // absolute offset appears once in the header.
        let batch = RecordBatch::from_records((0..100).map(rec).collect());
        let framed = batch.encode_frame(Offset(1_000_000_000)).len();
        // Absolute framing would spend 16 bytes per record on offset+ts.
        assert!(
            framed < batch.encoded_len(),
            "frame {framed} vs encoded_len {}",
            batch.encoded_len()
        );
    }

    #[test]
    fn truncated_and_malformed_frames_are_rejected() {
        let batch = RecordBatch::from_records((0..3).map(rec).collect());
        let buf = batch.encode_frame(Offset::ZERO);
        assert!(RecordBatch::decode_frame(&buf[..buf.len() - 2]).is_none());
        let mut wrong_version = buf.clone();
        wrong_version[0] = 99;
        assert!(RecordBatch::decode_frame(&wrong_version).is_none());
        let mut wrong_codec = buf;
        wrong_codec[1] = 9;
        assert!(RecordBatch::decode_frame(&wrong_codec).is_none());
    }

    #[test]
    fn offset_holes_encode_exactly() {
        let mut out = Vec::new();
        let base = Offset(10);
        let base_ts = SimTime::from_millis(5);
        let recs = RecordBatch::from_records(vec![rec(0), rec(1)]);
        let mut at = [Offset(10), Offset(17)].into_iter(); // a hole
        for r in &recs {
            put_frame_record(&mut out, base, base_ts, at.next().unwrap(), r);
        }
        let mut cur = Cursor::new(&out);
        let mut back = BatchBuilder::default();
        let o1 = read_frame_record(&mut cur, base, base_ts, &mut back).unwrap();
        let o2 = read_frame_record(&mut cur, base, base_ts, &mut back).unwrap();
        assert_eq!((o1, o2), (Offset(10), Offset(17)));
        assert_eq!(back.finish(), recs);
    }

    #[test]
    fn bytes_past_the_last_record_are_rejected() {
        // A valid frame followed by junk once decoded as the frame alone.
        let batch = RecordBatch::from_records(vec![rec(0)]);
        let mut buf = batch.encode_frame(Offset(5));
        assert_eq!(RecordBatch::decode_frame(&buf), Some((batch, Offset(5))));
        buf.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(RecordBatch::decode_frame(&buf), None);
        let mut empty = RecordBatch::new().encode_frame(Offset::ZERO);
        empty.push(0);
        assert_eq!(RecordBatch::decode_frame(&empty), None);
    }
}
