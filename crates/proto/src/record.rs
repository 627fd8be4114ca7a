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
        utf8_lossy(&self.value)
    }
}

/// `bytes` as UTF-8, each invalid sequence replaced by U+FFFD. Validating
/// first is much cheaper than the lossy conversion's chunk walk; only an
/// invalid payload pays for that.
fn utf8_lossy(bytes: &[u8]) -> String {
    match std::str::from_utf8(bytes) {
        Ok(text) => text.to_owned(),
        Err(_) => String::from_utf8_lossy(bytes).into_owned(),
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
    pub(crate) fn compressed_len(self, n: usize) -> usize {
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
    /// Owned copies taken of *shared* batches (see
    /// [`RecordBatch::into_records`]). The data plane is designed so this
    /// never fires: senders keep an `Arc` clone for retries, receivers read
    /// records in place, and a consumer builds the `Record`s it hands a sink
    /// from a borrowed view. `tests/batching.rs` asserts the count stays zero
    /// across monitored runs, so a reintroduced per-consumer copy fails CI
    /// instead of silently costing memory.
    static SHARED_BATCH_COPIES: Cell<u64> = const { Cell::new(0) };
}

/// Cumulative count of owned copies taken of shared batches on this thread.
pub fn shared_batch_copies() -> u64 {
    SHARED_BATCH_COPIES.with(Cell::get)
}

/// `Slot::key_len` of a keyless record.
const NO_KEY: u32 = u32::MAX;

/// One record's fixed part in a batch's store: where its bytes end in the
/// frame (they start where the previous record's end), how many of them
/// are the key, and the producer stamps. 32 B, where a `Record` is 56.
#[derive(Debug)]
struct Slot {
    /// One past the record's last byte in the frame.
    end: u32,
    /// Length of the key, which comes first; [`NO_KEY`] for none.
    key_len: u32,
    timestamp: SimTime,
    producer: ProducerId,
    producer_epoch: u32,
    producer_seq: u64,
}

/// What a sealed batch holds: every record's key and then its value, back
/// to back in record order in one frame, and a [`Slot`] per record. Never
/// empty: the empty batch holds no store.
struct Store {
    frame: Bytes,
    slots: Box<[Slot]>,
}

/// A record of a batch, borrowed in place: its key and value are slices of
/// the batch's frame. [`to_record`](Self::to_record) builds the owned
/// [`Record`], whose key and value are views of the same frame.
#[derive(Clone, Copy)]
pub struct RecordRef<'a> {
    frame: &'a Bytes,
    slot: &'a Slot,
    /// Where the record's bytes start in the frame.
    start: u32,
}

impl<'a> RecordRef<'a> {
    /// Where the value starts in the frame.
    fn value_start(&self) -> usize {
        match self.slot.key_len {
            NO_KEY => self.start as usize,
            n => (self.start + n) as usize,
        }
    }

    /// The partitioning key, if any.
    pub fn key(&self) -> Option<&'a [u8]> {
        let frame: &'a [u8] = self.frame;
        (self.slot.key_len != NO_KEY).then(|| &frame[self.start as usize..self.value_start()])
    }

    /// The payload bytes.
    pub fn value(&self) -> &'a [u8] {
        let frame: &'a [u8] = self.frame;
        &frame[self.value_start()..self.slot.end as usize]
    }

    /// The stamps equality compares beside the bytes.
    fn stamps(&self) -> (SimTime, ProducerId, u32, u64) {
        let s = self.slot;
        (s.timestamp, s.producer, s.producer_epoch, s.producer_seq)
    }

    /// Producer-side creation timestamp (event time).
    pub fn timestamp(&self) -> SimTime {
        self.slot.timestamp
    }

    /// The producer that created the record.
    pub fn producer(&self) -> ProducerId {
        self.slot.producer
    }

    /// The producer's incarnation.
    pub fn producer_epoch(&self) -> u32 {
        self.slot.producer_epoch
    }

    /// The producer-assigned sequence number.
    pub fn producer_seq(&self) -> u64 {
        self.slot.producer_seq
    }

    /// The record's size on the wire, framing included.
    pub fn encoded_len(&self) -> usize {
        RECORD_OVERHEAD + (self.slot.end - self.start) as usize
    }

    /// The payload interpreted as UTF-8 (lossy), as [`Record::value_utf8`].
    pub fn value_utf8(&self) -> String {
        utf8_lossy(self.value())
    }

    /// The owned record: its key and value are views of the batch's frame,
    /// so building one copies no payload.
    pub fn to_record(&self) -> Record {
        let (start, value_start) = (self.start as usize, self.value_start());
        Record {
            key: (self.slot.key_len != NO_KEY).then(|| self.frame.slice(start..value_start)),
            value: self.frame.slice(value_start..self.slot.end as usize),
            timestamp: self.slot.timestamp,
            producer: self.slot.producer,
            producer_epoch: self.slot.producer_epoch,
            producer_seq: self.slot.producer_seq,
        }
    }
}

impl PartialEq for RecordRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.stamps() == other.stamps()
            && self.key() == other.key()
            && self.value() == other.value()
    }
}

impl Eq for RecordRef<'_> {}

impl PartialEq<Record> for RecordRef<'_> {
    fn eq(&self, r: &Record) -> bool {
        let stamps = (r.timestamp, r.producer, r.producer_epoch, r.producer_seq);
        self.stamps() == stamps && self.key() == r.key.as_deref() && self.value() == &r.value[..]
    }
}

impl PartialEq<RecordRef<'_>> for Record {
    fn eq(&self, r: &RecordRef<'_>) -> bool {
        r == self
    }
}

impl fmt::Debug for RecordRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.to_record(), f)
    }
}

/// The records of a batch, borrowed in order.
#[derive(Clone)]
pub struct BatchIter<'a> {
    /// `None` only for the empty batch, whose `slots` are empty too.
    frame: Option<&'a Bytes>,
    slots: std::slice::Iter<'a, Slot>,
    /// Where the next record's bytes start.
    at: u32,
}

impl<'a> Iterator for BatchIter<'a> {
    type Item = RecordRef<'a>;

    fn next(&mut self) -> Option<RecordRef<'a>> {
        let slot = self.slots.next()?;
        let frame = self.frame.expect("a batch with records has a frame");
        let start = std::mem::replace(&mut self.at, slot.end);
        Some(RecordRef { frame, slot, start })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.slots.size_hint()
    }
}

impl ExactSizeIterator for BatchIter<'_> {}

/// Builds a batch record by record into its packed store: each record's
/// key and value are copied into the frame, its stamps into its slot.
/// Sized up front (as a producer sealing a partition's records knows it
/// exactly), the store is two exact allocations.
#[derive(Debug, Default)]
pub struct BatchBuilder {
    frame: Vec<u8>,
    slots: Vec<Slot>,
}

impl BatchBuilder {
    /// A builder with room for `records` records of `bytes` key and value
    /// bytes in all.
    pub fn with_capacity(records: usize, bytes: usize) -> Self {
        BatchBuilder {
            frame: Vec::with_capacity(bytes),
            slots: Vec::with_capacity(records),
        }
    }

    /// Appends a record.
    ///
    /// # Panics
    ///
    /// Panics when the frame would pass 4 GiB, or a key is 4 GiB − 1 long.
    pub fn push(
        &mut self,
        key: Option<&[u8]>,
        value: &[u8],
        timestamp: SimTime,
        producer: ProducerId,
        producer_epoch: u32,
        producer_seq: u64,
    ) {
        let key_len = key.map_or(NO_KEY, |k| {
            self.frame.extend_from_slice(k);
            u32::try_from(k.len())
                .ok()
                .filter(|&n| n != NO_KEY)
                .expect("a key is shorter than 4 GiB - 1")
        });
        self.frame.extend_from_slice(value);
        self.slots.push(Slot {
            end: u32::try_from(self.frame.len()).expect("a batch frame holds at most 4 GiB"),
            key_len,
            timestamp,
            producer,
            producer_epoch,
            producer_seq,
        });
    }

    /// Seals the records into a shareable batch, trimming whatever room
    /// was reserved and not used.
    ///
    /// # Panics
    ///
    /// Panics on 2³² records or more.
    pub fn finish(mut self) -> RecordBatch {
        let len = u32::try_from(self.slots.len()).expect("a batch holds fewer than 2^32 records");
        if len == 0 {
            return RecordBatch::new();
        }
        self.frame.shrink_to_fit();
        RecordBatch {
            store: Some(Arc::new(Store {
                frame: Bytes::from(self.frame),
                slots: self.slots.into_boxed_slice(),
            })),
            start: 0,
            len,
            compression: Compression::None,
        }
    }
}

/// A batch of records bound for (or fetched from) one partition.
///
/// The records live in one shared store: a frame holding each record's key
/// and value back to back, and a 32 B slot per record with where its bytes
/// end and its stamps. Cloning a batch (a producer keeping its retry copy
/// next to the in-flight request, a broker handing the same fetched run to
/// many consumers) bumps an `Arc` instead of duplicating records, so a
/// whole batch travels producer→broker→consumer as that one store. A batch
/// may also be a contiguous part of another ([`slice`](Self::slice)): the
/// broker log stores and serves its records as such views, so every
/// replica and reader of a record shares the producer's one copy.
/// Records are read in place as [`RecordRef`]s; [`RecordRef::to_record`]
/// builds an owned [`Record`] where one is needed.
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
/// assert_eq!(retry_copy.len(), 2);
/// let tail = batch.slice(1..2); // a view of the same records
/// assert!(tail.same_storage(&batch));
/// assert_eq!(tail.iter().next().map(|r| r.value()), Some(&b"b"[..]));
/// ```
#[derive(Clone, Default)]
pub struct RecordBatch {
    /// `None` is the empty batch: most fetch responses carry no record, and
    /// saying so costs no allocation. Never `Some` with `len == 0`.
    store: Option<Arc<Store>>,
    /// The view: `slots[start..start + len]`. `u32` keeps a batch three
    /// words, and a sealed batch is far below 2³² records.
    start: u32,
    len: u32,
    compression: Compression,
}

impl PartialEq for RecordBatch {
    fn eq(&self, other: &Self) -> bool {
        self.compression == other.compression && self.iter().eq(other.iter())
    }
}

impl Eq for RecordBatch {}

impl fmt::Debug for RecordBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        /// The records as a list.
        struct Records<'a>(&'a RecordBatch);
        impl fmt::Debug for Records<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("RecordBatch")
            .field("records", &self.store.as_ref().map(|_| Records(self)))
            .field("compression", &self.compression)
            .finish()
    }
}

/// Per-batch framing overhead, approximating Kafka's batch header.
pub(crate) const BATCH_OVERHEAD: usize = 61;

impl RecordBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Seals a record list into a shareable batch: the records' bytes are
    /// copied into the batch's frame.
    ///
    /// # Panics
    ///
    /// Panics on 2³² records or more.
    pub fn from_records(records: Vec<Record>) -> Self {
        let bytes = records
            .iter()
            .map(|r| r.encoded_len() - RECORD_OVERHEAD)
            .sum();
        let mut builder = BatchBuilder::with_capacity(records.len(), bytes);
        for r in &records {
            let (key, stamps) = (r.key.as_deref(), (r.producer_epoch, r.producer_seq));
            builder.push(key, &r.value, r.timestamp, r.producer, stamps.0, stamps.1);
        }
        builder.finish()
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
        let Some(store) = self.store.as_ref().filter(|_| !range.is_empty()) else {
            return RecordBatch::new().with_compression(self.compression);
        };
        let within = |n: usize| u32::try_from(n).expect("bounded by len, a u32");
        RecordBatch {
            store: Some(Arc::clone(store)),
            start: self.start + within(range.start),
            len: within(range.len()),
            compression: self.compression,
        }
    }

    /// True when both batches are non-empty views of one record set.
    pub fn same_storage(&self, other: &RecordBatch) -> bool {
        matches!((&self.store, &other.store), (Some(a), Some(b)) if Arc::ptr_eq(a, b))
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

    /// The view's slots and where its first record's bytes start.
    fn view(&self) -> Option<(&Store, &[Slot], u32)> {
        let store = self.store.as_deref()?;
        let (start, end) = (self.start as usize, (self.start + self.len) as usize);
        let at = start.checked_sub(1).map_or(0, |prev| store.slots[prev].end);
        Some((store, &store.slots[start..end], at))
    }

    /// The records, borrowed in append order.
    pub fn iter(&self) -> BatchIter<'_> {
        match self.view() {
            Some((store, slots, at)) => BatchIter {
                frame: Some(&store.frame),
                slots: slots.iter(),
                at,
            },
            None => BatchIter {
                frame: None,
                slots: [].iter(),
                at: 0,
            },
        }
    }

    /// The record at `index`, if the batch has that many.
    pub fn get(&self, index: usize) -> Option<RecordRef<'_>> {
        let (store, slots, at) = self.view()?;
        let slot = slots.get(index)?;
        let start = index.checked_sub(1).map_or(at, |prev| slots[prev].end);
        Some(RecordRef {
            frame: &store.frame,
            slot,
            start,
        })
    }

    /// The first record, if any.
    pub fn first(&self) -> Option<RecordRef<'_>> {
        self.get(0)
    }

    /// The last record, if any.
    pub fn last(&self) -> Option<RecordRef<'_>> {
        self.len().checked_sub(1).and_then(|i| self.get(i))
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.store.is_none()
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

    /// Record bytes without the batch header: each record's framing and
    /// the frame bytes the view spans.
    pub fn record_bytes(&self) -> usize {
        self.view().map_or(0, |(_, slots, at)| {
            let end = slots.last().map_or(at, |s| s.end);
            RECORD_OVERHEAD * slots.len() + (end - at) as usize
        })
    }

    /// How many handles share this batch's record set (1 = sole owner).
    pub fn share_count(&self) -> usize {
        self.store.as_ref().map_or(1, Arc::strong_count)
    }

    /// Builds the owned records. Their bytes are views of the frame either
    /// way; when other handles share the store, the `Record`s are a second
    /// copy of what it holds, so that case is counted in
    /// [`shared_batch_copies`] and hot paths that regress to it are caught
    /// by tests.
    pub(crate) fn into_records(self) -> Vec<Record> {
        if self.share_count() > 1 {
            SHARED_BATCH_COPIES.with(|c| c.set(c.get() + 1));
        }
        self.iter().map(|r| r.to_record()).collect()
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
    type Item = RecordRef<'a>;
    type IntoIter = BatchIter<'a>;
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
        // timestamp, producer id + epoch, and the sequence. A consumer's
        // delivery buffer holds one per record it hands a sink; no log or
        // batch holds any.
        assert_eq!(std::mem::size_of::<Record>(), 56);
    }

    #[test]
    fn a_stored_record_is_a_32_byte_slot() {
        // The storage gate: every sealed batch holds one slot per record
        // for as long as any replica's log holds the record, so growth here
        // is resident memory per record and topic. A batch view stays three
        // words.
        assert!(std::mem::size_of::<Slot>() <= 32);
        assert_eq!(std::mem::size_of::<RecordBatch>(), 24);
    }

    #[test]
    fn a_record_ref_reads_what_its_record_holds() {
        let keyed = Record::new("key", "value", SimTime::from_millis(3))
            .from_producer(ProducerId(4), 17)
            .with_producer_epoch(2);
        let empty_key = Record::new("", "v", SimTime::ZERO);
        let keyless = Record::keyless("", SimTime::ZERO);
        let recs = vec![keyed, empty_key, keyless];
        let batch = RecordBatch::from_records(recs.clone());
        for (r, want) in batch.iter().zip(&recs) {
            assert_eq!(r.key(), want.key.as_deref());
            assert_eq!(r.value(), &want.value[..]);
            assert_eq!(
                (r.timestamp(), r.producer(), r.producer_epoch()),
                (want.timestamp, want.producer, want.producer_epoch)
            );
            assert_eq!(r.producer_seq(), want.producer_seq);
            assert_eq!(r.encoded_len(), want.encoded_len());
            assert_eq!(r.value_utf8(), want.value_utf8());
            assert_eq!(&r.to_record(), want);
            assert_eq!(r, *want);
            assert_eq!(*want, r);
        }
        assert_eq!(batch.iter().len(), 3);
        assert_eq!(batch.get(1).map(|r| r.key()), Some(Some(&b""[..])));
        assert_eq!(batch.last().map(|r| r.key()), Some(None));
        assert!(batch.get(3).is_none() && RecordBatch::new().first().is_none());
        // A built record's bytes are views of the frame, not copies.
        let first = batch.first().expect("three records");
        let built = first.to_record();
        assert!(std::ptr::eq(built.value.as_ptr(), first.value().as_ptr()));
        assert_eq!(format!("{first:?}"), format!("{:?}", recs[0]));
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
        let value = |b: &RecordBatch| b.first().map(|r| r.value().as_ptr());
        assert_eq!(value(&b), value(&c));
        // A sole owner's records are uncounted.
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
        let value = |b: &RecordBatch, i| b.get(i).map(|r| r.value().as_ptr());
        assert_eq!(value(&mid, 0), value(&whole, 1));
        assert_eq!((mid.len(), mid.compression()), (3, Compression::Lz4));
        assert_eq!(
            mid.record_bytes(),
            recs[1..4].iter().map(Record::encoded_len).sum()
        );
        // A view of a view indexes the same set.
        let inner = mid.slice(1..3);
        assert_eq!(inner.iter().collect::<Vec<_>>(), &recs[2..4]);
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
        // Taking a view's records builds only what it covers, and counts a
        // copy only when the storage is shared.
        let before = shared_batch_copies();
        assert_eq!(inner.clone().into_records(), &recs[2..4]);
        assert_eq!(shared_batch_copies(), before + 1);
        drop((whole, mid, inner));
        let sole = RecordBatch::from_records(recs.clone()).slice(1..3);
        assert_eq!(sole.into_records(), &recs[1..3]);
        assert_eq!(
            shared_batch_copies(),
            before + 1,
            "a sole owner's records are its only copy"
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
        assert!(zipped.iter().eq(plain.iter()));
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
        assert!(empty.is_empty() && empty.iter().next().is_none());
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
