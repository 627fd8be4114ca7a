//! Records, offsets, and batches — the data plane vocabulary.

use std::borrow::Borrow;
use std::cell::Cell;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::rc::Rc;
use std::sync::Arc;

use bytes::Bytes;
use s2g_sim::SimTime;

/// A log offset within one topic partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Offset(pub u64);

impl Offset {
    /// The first offset of every partition log.
    pub const ZERO: Offset = Offset(0);

    /// The next offset after this one.
    pub fn next(self) -> Offset {
        Offset(self.0 + 1)
    }

    /// Raw numeric value.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Offset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// Identifies a producer client for idempotence/ordering bookkeeping and for
/// the delivery-matrix monitoring of the Fig. 6b experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProducerId(pub u32);

impl fmt::Display for ProducerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prod{}", self.0)
    }
}

/// A topic name, shared: a clone bumps a reference count instead of copying
/// the string, so the `TopicPartition` every RPC, map key and log line
/// carries costs no allocation to pass on. It reads as a `str` (`Deref`),
/// compares and hashes exactly like one (so `Borrow<str>` holds: a map keyed
/// by names can be asked with a `&str`), and compares with `str`, `&str`
/// and `String` directly.
#[derive(Clone)]
pub struct TopicName(Rc<str>);

impl TopicName {
    /// The name as a shared `str`: the same allocation, one more owner.
    pub fn shared(&self) -> Rc<str> {
        Rc::clone(&self.0)
    }
}

impl Deref for TopicName {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for TopicName {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for TopicName {
    fn from(name: &str) -> Self {
        TopicName(Rc::from(name))
    }
}

impl From<String> for TopicName {
    fn from(name: String) -> Self {
        TopicName(Rc::from(name))
    }
}

impl From<&String> for TopicName {
    fn from(name: &String) -> Self {
        TopicName(Rc::from(name.as_str()))
    }
}

impl From<&TopicName> for TopicName {
    fn from(name: &TopicName) -> Self {
        name.clone()
    }
}

impl PartialEq for TopicName {
    fn eq(&self, other: &Self) -> bool {
        // Clones of one name (the common case) are equal by pointer.
        Rc::ptr_eq(&self.0, &other.0) || *self.0 == *other.0
    }
}

impl Eq for TopicName {}

impl PartialOrd for TopicName {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TopicName {
    fn cmp(&self, other: &Self) -> Ordering {
        if Rc::ptr_eq(&self.0, &other.0) {
            return Ordering::Equal;
        }
        self.0.cmp(&other.0)
    }
}

impl Hash for TopicName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl PartialEq<str> for TopicName {
    fn eq(&self, other: &str) -> bool {
        *self.0 == *other
    }
}

impl PartialEq<&str> for TopicName {
    fn eq(&self, other: &&str) -> bool {
        *self.0 == **other
    }
}

impl PartialEq<String> for TopicName {
    fn eq(&self, other: &String) -> bool {
        *self.0 == **other
    }
}

impl fmt::Debug for TopicName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl fmt::Display for TopicName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A `(topic, partition)` pair — the unit of log replication and leadership.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TopicPartition {
    /// Topic name.
    pub topic: TopicName,
    /// Partition index within the topic.
    pub partition: u32,
}

impl TopicPartition {
    /// Convenience constructor. Pass a [`TopicName`] (or a reference to
    /// one) you already hold to share it; a `&str` or `String` allocates a
    /// fresh name.
    pub fn new(topic: impl Into<TopicName>, partition: u32) -> Self {
        TopicPartition {
            topic: topic.into(),
            partition,
        }
    }
}

impl fmt::Display for TopicPartition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.topic, self.partition)
    }
}

/// A single event record.
///
/// # Examples
///
/// ```
/// use s2g_proto::Record;
/// use s2g_sim::SimTime;
///
/// let r = Record::new("key-1", "some payload", SimTime::from_millis(10));
/// assert_eq!(r.key.as_deref(), Some(b"key-1".as_slice()));
/// assert!(r.encoded_len() > r.value.len());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Optional partitioning key.
    pub key: Option<Bytes>,
    /// Payload bytes.
    pub value: Bytes,
    /// Producer-side creation timestamp (event time).
    pub timestamp: SimTime,
    /// The producer that created the record.
    pub producer: ProducerId,
    /// The producer's incarnation (Kafka's producer epoch): bumped when a
    /// crashed client restarts, so broker-side idempotence can tell a
    /// retried old batch from a fresh one that restarts at sequence zero.
    pub producer_epoch: u32,
    /// Producer-assigned sequence number (monotonic per producer
    /// incarnation), used by idempotent dedup and by monitoring to build
    /// the message-order axis of delivery matrices.
    pub producer_seq: u64,
}

/// Per-record framing overhead (length prefixes, attributes, timestamps),
/// approximating Kafka's record wire format.
pub const RECORD_OVERHEAD: usize = 24;

impl Record {
    /// Builds a record with a key.
    pub fn new(key: impl Into<Bytes>, value: impl Into<Bytes>, timestamp: SimTime) -> Self {
        Record {
            key: Some(key.into()),
            value: value.into(),
            timestamp,
            producer: ProducerId(0),
            producer_epoch: 0,
            producer_seq: 0,
        }
    }

    /// Builds a keyless record.
    pub fn keyless(value: impl Into<Bytes>, timestamp: SimTime) -> Self {
        Record {
            key: None,
            value: value.into(),
            timestamp,
            producer: ProducerId(0),
            producer_epoch: 0,
            producer_seq: 0,
        }
    }

    /// Stamps producer identity and sequence (builder style).
    pub fn from_producer(mut self, producer: ProducerId, seq: u64) -> Self {
        self.producer = producer;
        self.producer_seq = seq;
        self
    }

    /// Stamps the producer incarnation (builder style).
    pub fn with_producer_epoch(mut self, epoch: u32) -> Self {
        self.producer_epoch = epoch;
        self
    }

    /// The record's size on the wire, framing included.
    pub fn encoded_len(&self) -> usize {
        RECORD_OVERHEAD + self.key.as_ref().map_or(0, |k| k.len()) + self.value.len()
    }

    /// The payload interpreted as UTF-8 (lossy) — convenient in stream jobs.
    pub fn value_utf8(&self) -> String {
        // Validating first is much cheaper than the lossy conversion's
        // chunk walk; only an invalid payload pays for that.
        match std::str::from_utf8(&self.value) {
            Ok(text) => text.to_owned(),
            Err(_) => String::from_utf8_lossy(&self.value).into_owned(),
        }
    }
}

/// The batch compression codec. The simulator never mutates payload bytes;
/// a codec is a deterministic cost model: the batch shrinks on the wire by
/// the codec's ratio and the compressing/decompressing ends pay CPU per
/// payload byte (configured on the producer/consumer). That preserves
/// byte-exact record delivery while exposing the real trade — fewer network
/// bytes against more endpoint CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Compression {
    /// Records travel at their raw encoded size.
    #[default]
    None,
    /// An LZ4-class codec: payload bytes shrink to ~60% on the wire, at a
    /// few ns of CPU per byte on each end.
    Lz4,
}

impl Compression {
    /// True for [`Compression::None`].
    pub fn is_none(self) -> bool {
        self == Compression::None
    }

    /// Simulated on-the-wire size of `n` record bytes under this codec.
    pub fn compressed_len(self, n: usize) -> usize {
        match self {
            Compression::None => n,
            Compression::Lz4 => {
                if n == 0 {
                    0
                } else {
                    n * 60 / 100 + 1
                }
            }
        }
    }
}

impl fmt::Display for Compression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Compression::None => write!(f, "none"),
            Compression::Lz4 => write!(f, "lz4"),
        }
    }
}

thread_local! {
    /// Deep copies of *shared* batches (see
    /// [`RecordBatch::into_records`]). The data plane is designed so this
    /// never fires: senders keep an `Arc` clone for retries, receivers
    /// iterate in place or inherit sole ownership. `tests/batching.rs`
    /// asserts the count stays zero across monitored runs, so a reintroduced
    /// per-consumer copy fails CI instead of silently costing memory.
    static SHARED_BATCH_COPIES: Cell<u64> = const { Cell::new(0) };
}

/// Cumulative count of deep copies made from shared batches on this thread.
pub fn shared_batch_copies() -> u64 {
    SHARED_BATCH_COPIES.with(Cell::get)
}

/// A batch of records bound for (or fetched from) one partition.
///
/// The record set is reference counted: cloning a batch (a producer keeping
/// its retry copy next to the in-flight request, a broker handing the same
/// fetched run to many consumers) bumps an `Arc` instead of duplicating
/// records, and the payloads inside are [`Bytes`] views of the one buffer
/// the producer sealed the batch into — so a whole batch travels
/// producer→broker→consumer→operator as that one allocation. A batch may
/// also be a contiguous part of another ([`slice`](Self::slice)): the
/// broker log stores and serves its records as such views, so every
/// replica and reader of a record shares the producer's one copy.
///
/// Equality and `Debug` see the records, not how they are stored.
///
/// # Examples
///
/// ```
/// use s2g_proto::{Record, RecordBatch};
/// use s2g_sim::SimTime;
///
/// let batch = RecordBatch::from_records(vec![
///     Record::keyless("a", SimTime::ZERO),
///     Record::keyless("b", SimTime::ZERO),
/// ]);
/// let retry_copy = batch.clone(); // refcount bump, not a record copy
/// assert_eq!(batch.share_count(), 2);
/// assert_eq!(retry_copy.records().len(), 2);
/// let tail = batch.slice(1..2); // a view of the same records
/// assert!(tail.same_storage(&batch));
/// assert_eq!(tail.records()[0].value_utf8(), "b");
/// ```
#[derive(Clone, Default)]
pub struct RecordBatch {
    /// `None` is the empty batch: most fetch responses carry no record, and
    /// saying so costs no allocation. Never `Some` with `len == 0`.
    records: Option<Arc<Vec<Record>>>,
    /// The view: `records[start..start + len]`. `u32` keeps a batch three
    /// words, and a sealed batch is far below 2³² records.
    start: u32,
    len: u32,
    compression: Compression,
}

impl PartialEq for RecordBatch {
    fn eq(&self, other: &Self) -> bool {
        self.compression == other.compression && self.records() == other.records()
    }
}

impl Eq for RecordBatch {}

impl fmt::Debug for RecordBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecordBatch")
            .field("records", &self.records.as_ref().map(|_| self.records()))
            .field("compression", &self.compression)
            .finish()
    }
}

/// Per-batch framing overhead, approximating Kafka's batch header.
pub const BATCH_OVERHEAD: usize = 61;

impl RecordBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Seals a record list into a shareable batch.
    ///
    /// # Panics
    ///
    /// Panics on 2³² records or more.
    pub fn from_records(records: Vec<Record>) -> Self {
        RecordBatch {
            len: u32::try_from(records.len()).expect("a batch holds fewer than 2^32 records"),
            start: 0,
            records: (!records.is_empty()).then(|| Arc::new(records)),
            compression: Compression::None,
        }
    }

    /// The records at `range` of this batch, as a view of the same storage:
    /// no record is copied, and the view keeps the whole set alive. An empty
    /// range is the empty batch. The codec is kept.
    ///
    /// # Panics
    ///
    /// Panics when `range` is not within `0..len()`.
    pub fn slice(&self, range: std::ops::Range<usize>) -> RecordBatch {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice {range:?} of a {}-record batch",
            self.len()
        );
        let Some(records) = self.records.as_ref().filter(|_| !range.is_empty()) else {
            return RecordBatch::new().with_compression(self.compression);
        };
        let within = |n: usize| u32::try_from(n).expect("bounded by len, a u32");
        RecordBatch {
            records: Some(Arc::clone(records)),
            start: self.start + within(range.start),
            len: within(range.len()),
            compression: self.compression,
        }
    }

    /// True when both batches are non-empty views of one record set.
    pub fn same_storage(&self, other: &RecordBatch) -> bool {
        matches!((&self.records, &other.records), (Some(a), Some(b)) if Arc::ptr_eq(a, b))
    }

    /// Marks the batch as compressed under `codec` (builder style). The
    /// records themselves are untouched — compression is a wire-size and
    /// CPU cost model, not a byte transform.
    pub fn with_compression(mut self, codec: Compression) -> Self {
        self.compression = codec;
        self
    }

    /// The codec this batch travels under.
    pub fn compression(&self) -> Compression {
        self.compression
    }

    /// The records, in append order.
    pub fn records(&self) -> &[Record] {
        let (start, len) = (self.start as usize, self.len as usize);
        self.records
            .as_ref()
            .map_or(&[], |r| &r[start..start + len])
    }

    /// Iterates the records in place.
    pub fn iter(&self) -> std::slice::Iter<'_, Record> {
        self.records().iter()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_none()
    }

    /// Total uncompressed size, framing included.
    pub fn encoded_len(&self) -> usize {
        BATCH_OVERHEAD + self.record_bytes()
    }

    /// Size on the wire: the batch header plus the record bytes after the
    /// codec's ratio. Equal to [`encoded_len`](Self::encoded_len) for
    /// uncompressed batches.
    pub fn wire_len(&self) -> usize {
        BATCH_OVERHEAD + self.compression.compressed_len(self.record_bytes())
    }

    /// Record bytes without the batch header.
    pub fn record_bytes(&self) -> usize {
        self.iter().map(Record::encoded_len).sum()
    }

    /// How many handles share this batch's record set (1 = sole owner).
    pub fn share_count(&self) -> usize {
        self.records.as_ref().map_or(1, Arc::strong_count)
    }

    /// Takes the records out. Free when this handle is the sole owner (the
    /// usual case: a freshly built batch moved through one channel);
    /// otherwise falls back to a deep copy and counts it in
    /// [`shared_batch_copies`] so hot paths that regress to copying are
    /// caught by tests.
    pub fn into_records(self) -> Vec<Record> {
        let Some(records) = self.records else {
            return Vec::new();
        };
        let (start, end) = (self.start as usize, (self.start + self.len) as usize);
        match Arc::try_unwrap(records) {
            Ok(mut v) => {
                v.truncate(end);
                v.drain(..start);
                v
            }
            Err(shared) => {
                SHARED_BATCH_COPIES.with(|c| c.set(c.get() + 1));
                shared[start..end].to_vec()
            }
        }
    }
}

impl FromIterator<Record> for RecordBatch {
    fn from_iter<I: IntoIterator<Item = Record>>(iter: I) -> Self {
        RecordBatch::from_records(iter.into_iter().collect())
    }
}

impl IntoIterator for RecordBatch {
    type Item = Record;
    type IntoIter = std::vec::IntoIter<Record>;
    fn into_iter(self) -> Self::IntoIter {
        self.into_records().into_iter()
    }
}

impl<'a> IntoIterator for &'a RecordBatch {
    type Item = &'a Record;
    type IntoIter = std::slice::Iter<'a, Record>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_advance() {
        assert_eq!(Offset::ZERO.next(), Offset(1));
        assert_eq!(Offset(41).next().value(), 42);
        assert_eq!(Offset(7).to_string(), "@7");
    }

    #[test]
    fn record_stays_seven_words() {
        // Two 16-byte `Bytes` views (the key's `Option` is free), the
        // timestamp, producer id + epoch, and the sequence. Every log entry,
        // batch slot and consumer buffer holds one of these per record, so
        // growth here is resident memory per record everywhere.
        assert_eq!(std::mem::size_of::<Record>(), 56);
    }

    #[test]
    fn record_sizes_account_framing() {
        let r = Record::new("k", "vvvv", SimTime::ZERO);
        assert_eq!(r.encoded_len(), RECORD_OVERHEAD + 1 + 4);
        let r = Record::keyless("vvvv", SimTime::ZERO);
        assert_eq!(r.encoded_len(), RECORD_OVERHEAD + 4);
    }

    #[test]
    fn batch_sizes_sum_records() {
        let b: RecordBatch = (0..3)
            .map(|i| Record::keyless(vec![0u8; 10 * (i + 1)], SimTime::ZERO))
            .collect();
        assert_eq!(b.len(), 3);
        assert_eq!(b.encoded_len(), BATCH_OVERHEAD + 3 * RECORD_OVERHEAD + 60);
    }

    #[test]
    fn producer_stamping() {
        let r = Record::keyless("x", SimTime::ZERO).from_producer(ProducerId(3), 99);
        assert_eq!(r.producer, ProducerId(3));
        assert_eq!(r.producer_seq, 99);
    }

    #[test]
    fn value_utf8_lossy() {
        let r = Record::keyless("héllo", SimTime::ZERO);
        assert_eq!(r.value_utf8(), "héllo");
        let text = "日本語 ✓ 🚀 straße";
        assert_eq!(Record::keyless(text, SimTime::ZERO).value_utf8(), text);
        // An invalid byte and a truncated sequence each become one U+FFFD.
        let r = Record::keyless(vec![b'a', 0xff, b'b', 0xe6, 0x97], SimTime::ZERO);
        assert_eq!(r.value_utf8(), "a\u{fffd}b\u{fffd}");
    }

    #[test]
    fn topic_partition_display() {
        assert_eq!(TopicPartition::new("events", 2).to_string(), "events-2");
    }

    #[test]
    fn batch_collect_and_iter() {
        let b: RecordBatch = [
            Record::keyless("a", SimTime::ZERO),
            Record::keyless("b", SimTime::ZERO),
        ]
        .into_iter()
        .collect();
        assert!(!b.is_empty());
        let values: Vec<String> = b.into_iter().map(|r| r.value_utf8()).collect();
        assert_eq!(values, vec!["a", "b"]);
    }

    #[test]
    fn batch_clone_shares_instead_of_copying() {
        let b = RecordBatch::from_records(vec![Record::keyless(vec![0u8; 1024], SimTime::ZERO)]);
        assert_eq!(b.share_count(), 1);
        let c = b.clone();
        assert_eq!(b.share_count(), 2);
        assert!(std::ptr::eq(b.records().as_ptr(), c.records().as_ptr()));
        // Sole-owner unwrap is free and uncounted.
        drop(b);
        let before = shared_batch_copies();
        let v = c.into_records();
        assert_eq!(v.len(), 1);
        assert_eq!(shared_batch_copies(), before);
    }

    #[test]
    fn slices_are_views_that_compare_by_records() {
        let recs: Vec<Record> = (0..5)
            .map(|i| Record::keyless(format!("r{i}"), SimTime::ZERO))
            .collect();
        let whole = RecordBatch::from_records(recs.clone()).with_compression(Compression::Lz4);
        let mid = whole.slice(1..4);
        assert!(mid.same_storage(&whole) && whole.share_count() == 2);
        assert!(std::ptr::eq(&mid.records()[0], &whole.records()[1]));
        assert_eq!((mid.len(), mid.compression()), (3, Compression::Lz4));
        // A view of a view indexes the same set.
        let inner = mid.slice(1..3);
        assert_eq!(inner.records(), &recs[2..4]);
        assert!(inner.same_storage(&whole));
        // Equality and `Debug` see the records, not the storage.
        let fresh =
            RecordBatch::from_records(recs[1..4].to_vec()).with_compression(Compression::Lz4);
        assert!(!fresh.same_storage(&mid));
        assert_eq!(mid, fresh);
        assert_eq!(format!("{mid:?}"), format!("{fresh:?}"));
        assert_ne!(mid, whole);
        // An empty view is the empty batch and holds nothing.
        let none = whole.slice(2..2);
        assert!(none.is_empty() && !none.same_storage(&whole));
        assert_eq!(none, RecordBatch::new().with_compression(Compression::Lz4));
        assert_eq!(
            format!("{none:?}"),
            "RecordBatch { records: None, compression: Lz4 }"
        );
        // Taking a view's records copies only what it covers, and only when
        // the storage is shared.
        let before = shared_batch_copies();
        assert_eq!(inner.clone().into_records(), &recs[2..4]);
        assert_eq!(shared_batch_copies(), before + 1);
        drop((whole, mid, inner));
        let sole = RecordBatch::from_records(recs.clone()).slice(1..3);
        assert_eq!(sole.into_records(), &recs[1..3]);
        assert_eq!(
            shared_batch_copies(),
            before + 1,
            "a sole owner unwraps in place"
        );
    }

    #[test]
    #[should_panic(expected = "slice 2..6 of a 5-record batch")]
    fn a_slice_past_the_end_panics() {
        let recs = vec![Record::keyless("x", SimTime::ZERO); 5];
        let _ = RecordBatch::from_records(recs).slice(2..6);
    }

    #[test]
    fn shared_unwrap_is_counted() {
        let b = RecordBatch::from_records(vec![Record::keyless("x", SimTime::ZERO)]);
        let keep = b.clone();
        let before = shared_batch_copies();
        let _ = b.into_records();
        assert_eq!(shared_batch_copies(), before + 1);
        assert_eq!(keep.len(), 1);
    }

    #[test]
    fn compression_shrinks_wire_size_only() {
        let b = RecordBatch::from_records(vec![Record::keyless(vec![7u8; 1000], SimTime::ZERO)]);
        let plain = b.clone();
        let zipped = b.with_compression(Compression::Lz4);
        assert_eq!(zipped.encoded_len(), plain.encoded_len());
        assert!(zipped.wire_len() < plain.wire_len());
        assert_eq!(plain.wire_len(), plain.encoded_len());
        // The records themselves are untouched.
        assert_eq!(zipped.records(), plain.records());
        assert_eq!(Compression::Lz4.compressed_len(0), 0);
        assert_eq!(Compression::None.compressed_len(500), 500);
    }

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    /// The `Borrow<str>` contract: a name compares, orders and hashes as
    /// the `str` it holds, whether or not two names share an allocation.
    #[test]
    fn topic_name_agrees_with_str() {
        let names = [
            "",
            "a",
            "ab",
            "b",
            "events",
            "events-2",
            "Events",
            "événements",
        ];
        for a in names {
            for b in names {
                // Separately built: never pointer-equal, even when equal.
                let (na, nb) = (TopicName::from(a), TopicName::from(b.to_string()));
                assert_eq!(na == nb, a == b, "{a:?} == {b:?}");
                assert_eq!(na.cmp(&nb), a.cmp(b), "{a:?} cmp {b:?}");
                assert_eq!(na.partial_cmp(&nb), a.partial_cmp(b));
                assert_eq!(hash_of(&na) == hash_of(&nb), hash_of(a) == hash_of(b));
                // ... and the same through a shared allocation.
                let shared = na.clone();
                assert!(shared == na && shared.cmp(&na) == Ordering::Equal);
                assert_eq!(shared == nb, a == b);
            }
            let n = TopicName::from(a);
            assert_eq!(hash_of(&n), hash_of(a), "{a:?} hashes as its str");
            let borrowed: &str = n.borrow();
            assert_eq!(borrowed, a);
            let owned: String = a.to_string();
            assert!(n == *a && n == a && n == owned);
            assert_eq!((n.len(), &*n), (a.len(), a));
            assert_eq!(
                (format!("{n}"), format!("{n:?}")),
                (a.to_string(), format!("{a:?}"))
            );
            assert!(Rc::ptr_eq(&n.shared(), &n.clone().shared()));
        }
    }

    #[test]
    fn maps_keyed_by_topic_names_answer_to_str() {
        use std::collections::{BTreeMap, HashMap};
        let ordered: BTreeMap<TopicName, u32> = [("out", 1), ("events", 2)]
            .map(|(t, n)| (t.into(), n))
            .into();
        assert_eq!(ordered.get("events"), Some(&2));
        assert_eq!(ordered.get("event"), None);
        assert_eq!(
            ordered.keys().map(|k| &**k).collect::<Vec<_>>(),
            ["events", "out"]
        );
        let hashed: HashMap<TopicName, u32> = [("out", 1), ("events", 2)]
            .map(|(t, n)| (t.into(), n))
            .into();
        assert_eq!(hashed.get("out"), Some(&1));
        assert!(!hashed.contains_key("Out"));
        // A partition shares the name it is built from and orders by
        // (topic, partition) as before.
        let name = TopicName::from("t");
        let (a, b) = (TopicPartition::new(&name, 10), TopicPartition::new("t", 2));
        assert!(Rc::ptr_eq(&a.topic.shared(), &name.shared()));
        assert!(b < a && a.topic == b.topic && a.topic == "t");
        assert_eq!(
            format!("{a} {a:?}"),
            "t-10 TopicPartition { topic: \"t\", partition: 10 }"
        );
        assert!(TopicPartition::new("s", 99) < b && b < TopicPartition::new("t2", 0));
    }

    #[test]
    fn empty_batches_cost_nothing_and_equal_each_other() {
        let empty = RecordBatch::new();
        let sealed_empty = RecordBatch::from_records(Vec::new());
        assert_eq!(empty, sealed_empty);
        assert!(empty.is_empty() && empty.records().is_empty() && empty.iter().next().is_none());
        assert_eq!(
            (empty.len(), empty.record_bytes(), empty.share_count()),
            (0, 0, 1)
        );
        assert_eq!(empty.wire_len(), BATCH_OVERHEAD);
        let before = shared_batch_copies();
        assert!(empty.clone().into_records().is_empty());
        assert_eq!(shared_batch_copies(), before, "nothing to copy");
    }
}
