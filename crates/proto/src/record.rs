//! Records, offsets, and batches — the data plane vocabulary.

// A truncating `as` here corrupts a wire frame; narrow with `try_from`.
#![deny(clippy::cast_possible_truncation)]

use std::borrow::{Borrow, Cow};
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
        utf8_lossy(&self.value).into_owned()
    }
}

/// `bytes` as UTF-8, each invalid sequence replaced by U+FFFD. Validating
/// first is much cheaper than the lossy conversion's chunk walk; only an
/// invalid payload pays for that.
pub fn utf8_lossy(bytes: &[u8]) -> Cow<'_, str> {
    match std::str::from_utf8(bytes) {
        Ok(text) => Cow::Borrowed(text),
        Err(_) => String::from_utf8_lossy(bytes),
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

/// `key_len` of a keyless record.
const NO_KEY: u32 = u32::MAX;

/// The columns a store's rows hold, a word each. A column whose values
/// step evenly over the store's records is not held: its first value and
/// step are in the store's header ([`Shape`]), as Kafka's v2 batch derives
/// a record's offset and timestamp from its batch's. Records of one length
/// and one key length, stamped at evenly spaced instants and in sequence,
/// need no row at all; each column they break adds a word to every row of
/// their store, so a row is 0 to 16 B where a `Record` is 56.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Columns {
    /// Some record's key and value bytes differ in length from the first
    /// record's: every row holds where its record's bytes end in the frame
    /// (they start where the previous record's end).
    pub ends: bool,
    /// Some timestamp is not the first record's plus its index times the
    /// step from the first record's to the second's: every row holds its
    /// timestamp above its stretch's base.
    pub timestamps: bool,
    /// Some key length differs from the first record's, a keyless record's
    /// from any keyed one's: every row holds its key length, the key coming
    /// first in the record's bytes.
    pub key_lengths: bool,
    /// Some record's sequence is not its stretch's base plus its offset in
    /// the stretch: every row holds its sequence above the base.
    pub sequences: bool,
}

impl Columns {
    /// The columns in row order, each with whether it is held.
    fn held(self) -> [bool; 4] {
        [self.ends, self.timestamps, self.key_lengths, self.sequences]
    }

    /// Words per row.
    fn width(self) -> usize {
        let [a, b, c, d] = self.held().map(usize::from);
        a + b + c + d
    }

    /// The columns either holds.
    fn union(self, other: Columns) -> Columns {
        Columns {
            ends: self.ends || other.ends,
            timestamps: self.timestamps || other.timestamps,
            key_lengths: self.key_lengths || other.key_lengths,
            sequences: self.sequences || other.sequences,
        }
    }

    /// `row`, a record of `stretch`, packed into the first
    /// [`width`](Self::width) words: its held columns in row order.
    fn pack(self, row: &Row, stretch: &Stretch) -> [u32; 4] {
        let ts_delta = if self.timestamps {
            stretch.ts_delta(row.ts)
        } else {
            0
        };
        // Every column is stored, and the next one stored over it when it
        // is not held: no branch per column.
        let (mut words, mut n) = ([0; 4], 0);
        for (held, value) in self
            .held()
            .into_iter()
            .zip([row.end, ts_delta, row.key_len])
        {
            words[n] = value;
            n += usize::from(held);
        }
        words[n] = row.seq_delta;
        words
    }

    /// Row `index` of `rows`, whose record lies in `stretch`; a column the
    /// rows do not hold is derived from the store's `shape`.
    #[inline(always)]
    fn unpack(self, rows: &[u32], index: u32, stretch: &Stretch, shape: &Shape) -> Row {
        let (width, at) = (self.width(), index as usize);
        let mut words = rows[at * width..(at + 1) * width].iter();
        // The next held column's word; `derived` if the column is not held.
        let mut word = |held: bool, derived: u32| match held {
            true => *words.next().unwrap_or(&derived),
            false => derived,
        };
        let end = word(self.ends, (index + 1) * shape.len);
        let ts = match self.timestamps {
            true => stretch.base_ts.as_nanos() + u64::from(word(true, 0)),
            false => shape.timestamp(index),
        };
        Row {
            end,
            ts,
            key_len: word(self.key_lengths, shape.key_len),
            seq_delta: word(self.sequences, index - stretch.first),
        }
    }
}

/// A store's header: which [`Columns`] its rows hold, and what the records
/// share in those they do not: the first record's length, key length and
/// timestamp, and the step from its timestamp to the second's.
/// [`add`](Self::add) learns it record by record, as [`BatchBuilder::push`]
/// does, so that a producer sizing its batches before it builds them knows
/// the columns each needs (all but [`Columns::sequences`], which depends on
/// the stretches).
#[derive(Debug, Clone, Copy, Default)]
pub struct Shape {
    /// Records added.
    records: u32,
    /// The columns some record added breaks (in a builder, and those it
    /// was told to hold).
    columns: Columns,
    /// Every record's key and value bytes, unless `columns.ends`.
    len: u32,
    /// Every record's key length ([`NO_KEY`] for keyless), unless
    /// `columns.key_lengths`.
    key_len: u32,
    /// Record `i`'s timestamp is `ts_base + i * ts_step` ns, unless
    /// `columns.timestamps`.
    ts_base: u64,
    ts_step: u64,
}

impl Shape {
    /// Adds a record of `len` key and value bytes, `key_len` of them its
    /// key's, stamped at `timestamp`.
    pub fn add(&mut self, key_len: Option<usize>, len: usize, timestamp: SimTime) {
        let within = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
        let key_len = key_len.map_or(NO_KEY, within);
        let breaks = self.learn(within(len), key_len, timestamp.as_nanos());
        self.columns = self.columns.union(breaks);
    }

    /// The columns the records added need, but for the sequence.
    pub fn columns(&self) -> Columns {
        self.columns
    }

    /// Adds the next record, the first setting every value and the
    /// second the timestamps' step, and returns the columns it breaks
    /// (which the caller adds to `columns`).
    fn learn(&mut self, len: u32, key_len: u32, ts: u64) -> Columns {
        let index = self.records;
        self.records = index.saturating_add(1);
        if index == 0 {
            (self.len, self.key_len, self.ts_base) = (len, key_len, ts);
            return Columns::default();
        }
        if index == 1 {
            self.ts_step = ts.saturating_sub(self.ts_base);
        }
        let stepped =
            (u64::from(index).checked_mul(self.ts_step)).and_then(|d| d.checked_add(self.ts_base));
        Columns {
            ends: len != self.len,
            timestamps: stepped != Some(ts),
            key_lengths: key_len != self.key_len,
            sequences: false,
        }
    }

    /// Record `index`'s timestamp, where timestamps step evenly.
    fn timestamp(&self, index: u32) -> u64 {
        self.ts_base + u64::from(index) * self.ts_step
    }
}

/// One record's fixed part, unpacked from its row.
#[derive(Debug, Clone, Copy)]
struct Row {
    /// One past the record's last byte in the frame.
    end: u32,
    /// Length of the key, which comes first; [`NO_KEY`] for none.
    key_len: u32,
    /// The timestamp, in nanoseconds.
    ts: u64,
    /// Sequence numbers above the stretch's `base_seq`.
    seq_delta: u32,
}

/// The stamps a run of a store's records shares: Kafka v2's batch header
/// (producer id and epoch, base timestamp, base sequence), held once per
/// run so that a batch mixing producers still fits. A stretch reaches from
/// its `first` record to the next stretch's; within it the sequence never
/// falls, so its last record holds its highest `(epoch, seq)`, and every
/// timestamp lies less than 2³² ns above its base, whether or not the rows
/// hold timestamps.
#[derive(Debug)]
struct Stretch {
    /// Index of the stretch's first record among the store's rows.
    first: u32,
    producer: ProducerId,
    producer_epoch: u32,
    base_ts: SimTime,
    base_seq: u64,
}

/// What an empty batch's iterator points at; it never reads it.
static NO_STRETCH: Stretch = Stretch {
    first: 0,
    producer: ProducerId(0),
    producer_epoch: 0,
    base_ts: SimTime::ZERO,
    base_seq: 0,
};

impl Stretch {
    fn seq(&self, seq_delta: u32) -> u64 {
        self.base_seq + u64::from(seq_delta)
    }

    /// A record's sequence delta in this stretch; `None` when a stamp
    /// lies below its base or 2³² or more above it.
    fn seq_delta(&self, timestamp: SimTime, seq: u64) -> Option<u32> {
        let ts = timestamp.as_nanos().checked_sub(self.base_ts.as_nanos())?;
        u32::try_from(ts).ok()?;
        u32::try_from(seq.checked_sub(self.base_seq)?).ok()
    }

    /// How far timestamp `ts` of one of the stretch's records lies above
    /// its base.
    fn ts_delta(&self, ts: u64) -> u32 {
        u32::try_from(ts - self.base_ts.as_nanos()).expect("a stretch's stamps are deltas")
    }
}

/// What a sealed batch holds: every record's key and then its value, back
/// to back in record order in one frame, a row per record in one slice of
/// words (as wide as its [`Columns`] need, and empty when they are none),
/// the [`Shape`] the columns it does not hold derive from, and a
/// [`Stretch`] per run of records sharing a producer and epoch. Never
/// empty: the empty batch holds no store.
struct Store {
    frame: Bytes,
    /// A row per record, `shape.columns.width()` words each.
    rows: Box<[u32]>,
    shape: Shape,
    /// The first stretch, held inline: a producer's sealed batch has no
    /// other, so it allocates nothing for its stretches.
    head: Stretch,
    /// The stretches after `head`, by `first`; empty for a producer's
    /// sealed batch.
    rest: Box<[Stretch]>,
}

impl Store {
    /// Record `index`'s row, the record lying in `stretch`.
    #[inline]
    fn row(&self, index: u32, stretch: &Stretch) -> Row {
        (self.shape.columns).unpack(&self.rows, index, stretch, &self.shape)
    }

    /// Where record `index`'s bytes start in the frame: where the
    /// record before it ends.
    #[inline]
    fn start(&self, index: u32) -> u32 {
        let columns = self.shape.columns;
        if !columns.ends {
            return index * self.shape.len;
        }
        let width = columns.width();
        index
            .checked_sub(1)
            .map_or(0, |prev| self.rows[prev as usize * width])
    }

    /// The stretch holding record `index` of the store, and the
    /// stretches after it.
    fn stretch_of(&self, index: u32) -> (&Stretch, &[Stretch]) {
        let n = self.rest.partition_point(|s| s.first <= index);
        let stretch = n.checked_sub(1).map_or(&self.head, |i| &self.rest[i]);
        (stretch, &self.rest[n..])
    }
}

/// A record of a batch, borrowed in place: its key and value are slices of
/// the batch's frame. [`to_record`](Self::to_record) builds the owned
/// [`Record`], whose key and value are views of the same frame.
#[derive(Clone, Copy)]
pub struct RecordRef<'a> {
    frame: &'a Bytes,
    stretch: &'a Stretch,
    row: Row,
    /// Where the record's bytes start in the frame.
    start: u32,
}

impl<'a> RecordRef<'a> {
    /// Where the value starts in the frame.
    fn value_start(&self) -> usize {
        match self.row.key_len {
            NO_KEY => self.start as usize,
            n => (self.start + n) as usize,
        }
    }

    /// The partitioning key, if any.
    pub fn key(&self) -> Option<&'a [u8]> {
        let frame: &'a [u8] = self.frame;
        (self.row.key_len != NO_KEY).then(|| &frame[self.start as usize..self.value_start()])
    }

    /// The payload bytes.
    pub fn value(&self) -> &'a [u8] {
        let frame: &'a [u8] = self.frame;
        &frame[self.value_start()..self.row.end as usize]
    }

    /// The stamps equality compares beside the bytes.
    fn stamps(&self) -> (SimTime, ProducerId, u32, u64) {
        let (ts, seq) = (self.timestamp(), self.producer_seq());
        (ts, self.stretch.producer, self.stretch.producer_epoch, seq)
    }

    /// Producer-side creation timestamp (event time).
    pub fn timestamp(&self) -> SimTime {
        SimTime::from_nanos(self.row.ts)
    }

    /// The producer that created the record.
    pub fn producer(&self) -> ProducerId {
        self.stretch.producer
    }

    /// The producer's incarnation.
    pub fn producer_epoch(&self) -> u32 {
        self.stretch.producer_epoch
    }

    /// The producer-assigned sequence number.
    pub fn producer_seq(&self) -> u64 {
        self.stretch.seq(self.row.seq_delta)
    }

    /// The record's size on the wire, framing included.
    pub fn encoded_len(&self) -> usize {
        RECORD_OVERHEAD + (self.row.end - self.start) as usize
    }

    /// The payload interpreted as UTF-8 (lossy), as [`Record::value_utf8`].
    pub fn value_utf8(&self) -> String {
        utf8_lossy(self.value()).into_owned()
    }

    /// The owned record: its key and value are views of the batch's frame,
    /// so building one copies no payload.
    pub fn to_record(&self) -> Record {
        let (start, value_start) = (self.start as usize, self.value_start());
        Record {
            key: (self.row.key_len != NO_KEY).then(|| self.frame.slice(start..value_start)),
            value: self.frame.slice(value_start..self.row.end as usize),
            timestamp: self.timestamp(),
            producer: self.stretch.producer,
            producer_epoch: self.stretch.producer_epoch,
            producer_seq: self.producer_seq(),
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
    /// `None` only for the empty batch.
    store: Option<&'a Store>,
    /// The next record's index in the store, and one past the last.
    index: u32,
    end: u32,
    /// Where the next record's bytes start.
    at: u32,
    /// The next record's stretch and the stretches after it.
    stretch: &'a Stretch,
    rest: &'a [Stretch],
    /// The first index of the stretch after `stretch` (`u32::MAX` for
    /// none).
    bound: u32,
}

impl<'a> BatchIter<'a> {
    /// The records of `store` from index `start` to before `end`.
    fn new(store: &'a Store, start: u32, end: u32) -> Self {
        let (stretch, rest) = store.stretch_of(start);
        BatchIter {
            store: Some(store),
            index: start,
            end,
            at: store.start(start),
            stretch,
            rest,
            bound: rest.first().map_or(u32::MAX, |s| s.first),
        }
    }
}

impl<'a> Iterator for BatchIter<'a> {
    type Item = RecordRef<'a>;

    #[inline(always)]
    fn next(&mut self) -> Option<RecordRef<'a>> {
        let store = self.store.filter(|_| self.index < self.end)?;
        if self.index == self.bound {
            let (next, rest) = (self.rest.split_first()).expect("a stretch starts at the bound");
            (self.stretch, self.rest) = (next, rest);
            self.bound = rest.first().map_or(u32::MAX, |s| s.first);
        }
        let row = store.row(self.index, self.stretch);
        self.index += 1;
        Some(RecordRef {
            frame: &store.frame,
            stretch: self.stretch,
            row,
            start: std::mem::replace(&mut self.at, row.end),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.end - self.index) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for BatchIter<'_> {}

/// Builds a batch record by record into its packed store: each record's
/// key and value are copied into the frame, its stamps into its row as
/// deltas from its stretch's, and a record that cannot join the open
/// stretch opens the next. Rows are as wide as the records so far need: a
/// builder told its records' [`Columns`] writes every row at its final
/// width, and one that is not starts with no row at all and widens its rows
/// in place the first time a record breaks a column's even step. Sized up
/// front (as a producer sealing a partition's records knows it exactly),
/// the store is two exact allocations, its frame and its rows, or one when
/// the rows hold no column.
#[derive(Debug, Default)]
pub struct BatchBuilder {
    frame: Vec<u8>,
    /// A row per record, `shape.columns.width()` words each.
    rows: Vec<u32>,
    /// The records the rows are to have room for, however wide.
    room: usize,
    /// The columns the rows hold, and what the records so far share in
    /// the others.
    shape: Shape,
    /// Records pushed, and the last one's sequence.
    len: u32,
    last_seq: u64,
    /// The first record's stretch, and those opened after it.
    head: Option<Stretch>,
    rest: Vec<Stretch>,
}

impl BatchBuilder {
    /// A builder with room for `records` records of `bytes` key and value
    /// bytes in all, its rows holding `columns` (more if a record needs
    /// them).
    pub fn with_capacity(records: usize, bytes: usize, columns: Columns) -> Self {
        BatchBuilder {
            frame: Vec::with_capacity(bytes),
            rows: Vec::with_capacity(records * columns.width()),
            room: records,
            shape: Shape {
                columns,
                ..Shape::default()
            },
            len: 0,
            last_seq: 0,
            head: None,
            rest: Vec::new(),
        }
    }

    /// The stretch the last record opened or joined.
    fn open_stretch(&self) -> Option<&Stretch> {
        self.rest.last().or(self.head.as_ref())
    }

    /// The sequence delta of a record stamped so in the open stretch and
    /// its offset there, or `None` when it must open the next: there is
    /// none yet, the producer or epoch differs, the sequence falls below the
    /// previous record's, or a stamp is out of a delta's reach.
    fn join(&self, producer: ProducerId, epoch: u32, ts: SimTime, seq: u64) -> Option<[u32; 2]> {
        let stretch = self.open_stretch()?;
        if stretch.producer != producer || stretch.producer_epoch != epoch || seq < self.last_seq {
            return None;
        }
        Some([stretch.seq_delta(ts, seq)?, self.len - stretch.first])
    }

    /// Rewrites the rows, written holding `from`, at the width the columns
    /// now held need, in place and last first, keeping room for as many
    /// records as the builder was sized for: the records so far step
    /// evenly, or are in sequence, wherever a column was added.
    fn widen(&mut self, from: Columns) {
        let to = self.shape.columns;
        let width = to.width();
        let records = self.len as usize;
        self.rows
            .reserve_exact(self.room.max(records) * width - self.rows.len());
        self.rows.resize(records * width, 0);
        let mut end = self.len;
        for stretch in self.rest.iter().rev().chain(&self.head) {
            for index in (stretch.first..end).rev() {
                let row = from.unpack(&self.rows, index, stretch, &self.shape);
                let at = index as usize * width;
                self.rows[at..at + width].copy_from_slice(&to.pack(&row, stretch)[..width]);
            }
            end = stretch.first;
        }
    }

    /// Appends a record.
    ///
    /// # Panics
    ///
    /// Panics when the frame would pass 4 GiB, a key is 4 GiB − 1 long, or
    /// the batch already holds 2³² − 1 records.
    pub fn push(
        &mut self,
        key: Option<&[u8]>,
        value: &[u8],
        timestamp: SimTime,
        producer: ProducerId,
        producer_epoch: u32,
        producer_seq: u64,
    ) {
        let [seq_delta, offset] = match self.join(producer, producer_epoch, timestamp, producer_seq)
        {
            Some(joined) => joined,
            None => {
                let stretch = Stretch {
                    first: self.len,
                    producer,
                    producer_epoch,
                    base_ts: timestamp,
                    base_seq: producer_seq,
                };
                match self.head {
                    None => self.head = Some(stretch),
                    Some(_) => self.rest.push(stretch),
                }
                [0; 2]
            }
        };
        self.last_seq = producer_seq;
        let start = u32::try_from(self.frame.len()).expect("a batch frame holds at most 4 GiB");
        let key_len = key.map_or(NO_KEY, |k| {
            self.frame.extend_from_slice(k);
            u32::try_from(k.len())
                .ok()
                .filter(|&n| n != NO_KEY)
                .expect("a key is shorter than 4 GiB - 1")
        });
        self.frame.extend_from_slice(value);
        let row = Row {
            end: u32::try_from(self.frame.len()).expect("a batch frame holds at most 4 GiB"),
            key_len,
            ts: timestamp.as_nanos(),
            seq_delta,
        };
        let held = self.shape.columns;
        let breaks = self.shape.learn(row.end - start, key_len, row.ts);
        let columns = held.union(breaks).union(Columns {
            sequences: seq_delta != offset,
            ..Columns::default()
        });
        if columns != held {
            self.shape.columns = columns;
            self.widen(held);
        }
        let width = columns.width();
        if width > 0 {
            let stretch = self.open_stretch().expect("a record's stretch is open");
            let words = columns.pack(&row, stretch);
            // One constant-length copy per width: a copy of a length known
            // only at run time is a call to `memcpy`, and doubled `push`'s
            // cost.
            match width {
                1 => self.rows.extend_from_slice(&words[..1]),
                2 => self.rows.extend_from_slice(&words[..2]),
                3 => self.rows.extend_from_slice(&words[..3]),
                _ => self.rows.extend_from_slice(&words),
            }
        }
        self.len = (self.len.checked_add(1)).expect("a batch holds fewer than 2^32 records");
    }

    /// Seals the records into a shareable batch, trimming whatever room
    /// was reserved and not used.
    pub fn finish(mut self) -> RecordBatch {
        if self.len == 0 {
            return RecordBatch::new();
        }
        self.frame.shrink_to_fit();
        RecordBatch {
            store: Some(Arc::new(Store {
                frame: Bytes::from(self.frame),
                rows: self.rows.into_boxed_slice(),
                shape: self.shape,
                head: self.head.expect("a batch with records has a stretch"),
                rest: self.rest.into_boxed_slice(),
            })),
            start: 0,
            len: self.len,
            compression: Compression::None,
        }
    }
}

/// A batch of records bound for (or fetched from) one partition.
///
/// The records live in one shared store: a frame holding each record's key
/// and value back to back, a row per record with where its bytes end, its
/// key length and its stamps as deltas, each only where the store's records
/// do not step evenly in it (none for records of one length and key length
/// stamped at evenly spaced instants in sequence, up to 16 B, see
/// [`Columns`]), and a stretch header per run of records from one producer
/// incarnation with the stamps they share (Kafka v2's batch header; a
/// producer's sealed batch is one stretch). Cloning a batch (a
/// producer keeping its retry copy
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
    /// The view: the store's records `start..start + len`. `u32` keeps a batch three
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
        let columns = Columns::default();
        let mut builder = BatchBuilder::with_capacity(records.len(), bytes, columns);
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

    /// The records, borrowed in append order.
    pub fn iter(&self) -> BatchIter<'_> {
        match self.store.as_deref() {
            Some(store) => BatchIter::new(store, self.start, self.start + self.len),
            None => BatchIter {
                store: None,
                index: 0,
                end: 0,
                at: 0,
                stretch: &NO_STRETCH,
                rest: &[],
                bound: u32::MAX,
            },
        }
    }

    /// The record at `index`, if the batch has that many.
    pub fn get(&self, index: usize) -> Option<RecordRef<'_>> {
        let store = self.store.as_deref()?;
        let within = u32::try_from(index).ok().filter(|&i| i < self.len)?;
        let index = self.start + within;
        let stretch = store.stretch_of(index).0;
        Some(RecordRef {
            frame: &store.frame,
            stretch,
            row: store.row(index, stretch),
            start: store.start(index),
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
        self.store.as_deref().map_or(0, |store| {
            let (at, end) = (store.start(self.start), store.start(self.start + self.len));
            RECORD_OVERHEAD * self.len() + (end - at) as usize
        })
    }

    /// Each stretch of the view (a run of records from one producer
    /// incarnation, see [`BatchBuilder`]) clipped to it, in order, as
    /// `(producer, producer epoch, sequence of its last record)`. The
    /// sequence never falls within a stretch, so that is the highest
    /// `(epoch, seq)` stamp its records in the view hold: a producer's
    /// sealed batch, or any view of it, is one.
    pub fn producer_stretches(&self) -> impl Iterator<Item = (ProducerId, u32, u64)> + '_ {
        let end = self.start + self.len;
        self.store.as_deref().into_iter().flat_map(move |store| {
            let (first, rest) = store.stretch_of(self.start);
            let bounds = rest.iter().map(|s| s.first).chain([u32::MAX]);
            let stretches = std::iter::once(first).chain(rest).zip(bounds);
            stretches
                .take_while(move |(s, _)| s.first < end)
                .map(move |(s, next)| {
                    let last = store.row(next.min(end) - 1, s);
                    (s.producer, s.producer_epoch, s.seq(last.seq_delta))
                })
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

    /// The columns a batch's store holds.
    fn columns(batch: &RecordBatch) -> Columns {
        batch
            .store
            .as_ref()
            .map_or(Columns::default(), |s| s.shape.columns)
    }

    /// Words per record in a batch's store.
    fn row_words(batch: &RecordBatch) -> usize {
        batch
            .store
            .as_ref()
            .map_or(0, |s| s.rows.len() / batch.len())
    }

    /// A batch's rows, word by word.
    fn rows(batch: &RecordBatch) -> &[u32] {
        batch.store.as_ref().map_or(&[], |s| &s.rows)
    }

    /// Every set of columns, by the bits of `0..16`.
    fn every_columns() -> impl Iterator<Item = Columns> {
        (0..16u8).map(|bits| Columns {
            ends: bits & 1 != 0,
            timestamps: bits & 2 != 0,
            key_lengths: bits & 4 != 0,
            sequences: bits & 8 != 0,
        })
    }

    /// `recs` pushed into a builder told `columns` up front.
    fn told(recs: &[Record], columns: Columns) -> RecordBatch {
        let bytes = recs.iter().map(|r| r.encoded_len() - RECORD_OVERHEAD).sum();
        let mut builder = BatchBuilder::with_capacity(recs.len(), bytes, columns);
        for r in recs {
            let stamps = (r.producer, r.producer_epoch, r.producer_seq);
            let (key, ts) = (r.key.as_deref(), r.timestamp);
            builder.push(key, &r.value, ts, stamps.0, stamps.1, stamps.2);
        }
        builder.finish()
    }

    /// `n` records of one producer that share everything a store derives: a
    /// 2 B key and 4 B value each, 10 ns apart, in sequence.
    fn progression(n: u64) -> Vec<Record> {
        (0..n)
            .map(|i| {
                let ts = SimTime::from_nanos(1_000 + 10 * i);
                Record::new("kk", "vvvv", ts).from_producer(ProducerId(1), 100 + i)
            })
            .collect()
    }

    #[test]
    fn a_stored_record_is_a_row_of_the_columns_its_store_needs() {
        // The storage gate: every sealed batch holds one row per record for
        // as long as any replica's log holds the record, so growth here is
        // resident memory per record and topic. Records sharing one length
        // and key length, evenly spaced and in sequence need no row: the
        // store's header derives them. Each column a record breaks adds a
        // word to every row of its store, and a builder told its columns
        // keeps them, however few it needs. The producer stamps are a
        // stretch header, held inline once per sealed batch. A batch view
        // stays three words, and a record seven.
        for want in every_columns() {
            for k in 1..6 {
                let mut recs = progression(6);
                for r in &mut recs[k..] {
                    r.producer_seq += u64::from(want.sequences);
                }
                let r = &mut recs[k];
                if want.ends {
                    r.value = Bytes::from_static(b"vvvvv");
                }
                if want.key_lengths {
                    (r.key, r.value) = (Some(Bytes::from_static(b"kkk")), r.value.slice(1..));
                }
                if want.timestamps {
                    r.timestamp = SimTime::from_nanos(r.timestamp.as_nanos() + 1);
                }
                let batch = RecordBatch::from_records(recs.clone());
                assert_eq!(columns(&batch), want, "broken at {k}: {recs:?}");
                assert_eq!(row_words(&batch), want.width(), "{want:?}");
                assert_eq!(batch.iter().collect::<Vec<_>>(), recs);
                let every = told(&recs, every_columns().last().expect("sixteen"));
                assert_eq!((row_words(&every), &every), (4, &batch));
                if k == 3 {
                    check_views(&batch, &recs);
                }
            }
        }
        // Keyless records, or records at one instant, or 2³² ns or more
        // apart (each a stretch of its own), are as derivable; a sequence
        // stepping back opens a stretch, in sequence again.
        let keyless = |i: u64, ts: u64| {
            Record::keyless("v", SimTime::from_nanos(ts)).from_producer(ProducerId(1), i)
        };
        for (recs, stretches) in [
            ((0..4).map(|i| keyless(5 + i, 7)).collect::<Vec<_>>(), 1),
            ((0..4).map(|i| keyless(5 + i, i << 32)).collect(), 4),
            ((0..4).map(|i| keyless(5 + i, i * (1 << 33))).collect(), 4),
            (
                vec![keyless(5, 0), keyless(6, 1), keyless(2, 2), keyless(3, 3)],
                2,
            ),
        ] {
            let batch = RecordBatch::from_records(recs.clone());
            assert_eq!((row_words(&batch), rows(&batch).len()), (0, 0), "{recs:?}");
            assert_eq!(batch.producer_stretches().count(), stretches);
            check_views(&batch, &recs);
        }
        assert_eq!(std::mem::size_of::<RecordBatch>(), 24);
        assert_eq!(std::mem::size_of::<Record>(), 56);
    }

    /// A record that breaks an even step at record `k` (its length, its key
    /// length, a timestamp falling, or one 2³² ns or more past the step)
    /// widens its builder's rows in place to exactly the rows of a builder
    /// told the columns up front, and every accessor agrees.
    #[test]
    fn a_broken_step_widens_to_the_rows_of_a_told_builder() {
        type Break = fn(&mut Record);
        let breaks: [(Break, Columns); 4] = [
            (
                |r| r.value = Bytes::from_static(b"vvv"),
                Columns {
                    ends: true,
                    ..Columns::default()
                },
            ),
            (
                |r| (r.key, r.value) = (Some(Bytes::from_static(b"k")), "vvvvv".into()),
                Columns {
                    key_lengths: true,
                    ..Columns::default()
                },
            ),
            (
                |r| r.timestamp = SimTime::from_nanos(r.timestamp.as_nanos() - 11),
                Columns {
                    timestamps: true,
                    ..Columns::default()
                },
            ),
            (
                |r| r.timestamp = SimTime::from_nanos(r.timestamp.as_nanos() + (1 << 32)),
                Columns {
                    timestamps: true,
                    ..Columns::default()
                },
            ),
        ];
        for (k, (apply, want)) in (1..8).flat_map(|k| breaks.iter().map(move |b| (k, b))) {
            let mut recs = progression(8);
            apply(&mut recs[k]);
            let learned = RecordBatch::from_records(recs.clone());
            let told = told(&recs, *want);
            assert_eq!(columns(&learned), *want, "broken at {k}: {recs:?}");
            assert_eq!(rows(&learned), rows(&told), "broken at {k}: {recs:?}");
            assert_eq!(learned, told);
            check_views(&learned, &recs);
        }
    }

    /// SplitMix64: a seeded stream of `u64`s, so the sweep needs no crate.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }

        fn index(&mut self, n: usize) -> usize {
            usize::try_from(self.below(n as u64)).expect("below a usize")
        }
    }

    /// `n` records whose stamps cross every stretch boundary: a producer
    /// or epoch switch, a sequence stepping back, and a jump of 2³² − 1
    /// (still a delta), 2³² or 2³³ in it; most records step as a
    /// producer's do. Only where `columns` say so do the records' lengths,
    /// their key lengths and their timestamps vary (a timestamp stepping
    /// back or jumping as a sequence does), and do some step their
    /// sequence by more than one within a stretch (by 2 to 4, or 2³² − 1).
    /// Otherwise the batch shares one length, one key length (or none),
    /// and timestamps at one instant or evenly spaced, by a few ns or by
    /// 2³² − 1, 2³² or 2³³.
    fn stretchy_records(rng: &mut Mix, n: usize, columns: Columns) -> Vec<Record> {
        let (mut producer, mut epoch) = (0, 0);
        let (mut ts, mut seq) = (rng.below(1 << 40), rng.below(1 << 40));
        let jumps = [u64::from(u32::MAX), 1 << 32, 1 << 33];
        let even_step = [0, 1 + rng.below(1_000), jumps[0], jumps[1], jumps[2]][rng.index(5)];
        let (even_from, even_key, even_len) = (ts, rng.index(3), 2 + rng.index(5));
        // In sequence, a timestamp step takes the sequence one step too.
        let (gaps, step) = (
            usize::from(!columns.sequences),
            u64::from(!columns.sequences),
        );
        (0..n)
            .map(|i| {
                match rng.below(12) {
                    0 => producer = (producer + 1 + rng.below(2)) % 3,
                    1 => epoch += 1,
                    2 => seq -= 1 + rng.below(4),
                    3 => (ts, seq) = (ts - 1 - rng.below(1_000), seq + step),
                    4 => seq += jumps[gaps + rng.index(3 - gaps)],
                    5 => (ts, seq) = (ts + jumps[rng.index(3)], seq + step),
                    6 if columns.sequences => seq += 2 + rng.below(3),
                    _ => (ts, seq) = (ts + rng.below(1_000), seq + 1),
                }
                let ts = match columns.timestamps {
                    true => ts,
                    false => even_from + i as u64 * even_step,
                };
                let key = match columns.key_lengths {
                    true => rng.index(3),
                    false => even_key,
                };
                let key_len = key.saturating_sub(1);
                let len = if columns.ends {
                    key_len + i % 7
                } else {
                    even_len
                };
                let value = vec![u8::try_from(i % 256).expect("below 256"); len - key_len];
                let record = match key {
                    0 => Record::keyless(value, SimTime::from_nanos(ts)),
                    _ => Record::new(vec![b'k'; key_len], value, SimTime::from_nanos(ts)),
                };
                let producer = ProducerId(u32::try_from(producer).expect("below 3"));
                record
                    .from_producer(producer, seq)
                    .with_producer_epoch(epoch)
            })
            .collect()
    }

    /// The columns but the sequence that `recs` break: a length or key
    /// length unlike the first record's, or a timestamp off the step from
    /// the first to the second.
    fn broken_steps(recs: &[Record]) -> Columns {
        let first = &recs[0];
        let key_len = |r: &Record| r.key.as_ref().map(Bytes::len);
        let step = recs.get(1).map_or(0, |r| {
            (r.timestamp.as_nanos()).saturating_sub(first.timestamp.as_nanos())
        });
        let even = |(i, r): (usize, &Record)| {
            let at = (i as u64).checked_mul(step);
            at.and_then(|d| d.checked_add(first.timestamp.as_nanos()))
                == Some(r.timestamp.as_nanos())
        };
        Columns {
            ends: recs.iter().any(|r| r.encoded_len() != first.encoded_len()),
            timestamps: !recs.iter().enumerate().all(even),
            key_lengths: recs.iter().any(|r| key_len(r) != key_len(first)),
            sequences: false,
        }
    }

    /// The highest `(epoch, seq)` per producer among `stamps`.
    fn highest(
        stamps: impl Iterator<Item = (ProducerId, u32, u64)>,
    ) -> std::collections::BTreeMap<ProducerId, (u32, u64)> {
        let mut out = std::collections::BTreeMap::new();
        for (producer, epoch, seq) in stamps {
            let e = out.entry(producer).or_insert((epoch, seq));
            *e = (*e).max((epoch, seq));
        }
        out
    }

    /// No column `a` holds is missing from `b`.
    fn within(a: Columns, b: Columns) -> bool {
        a.union(b) == b
    }

    /// Every view of batches whose records switch producer and epoch, step
    /// back and jump past a delta's reach, in every set of columns the
    /// records may break, reads exactly the records pushed, by every
    /// accessor and through the frame codec, and its stretches hold the
    /// highest stamps its records do; its store holds exactly the columns
    /// its records break, or those its builder was told.
    #[test]
    fn stretch_sweep_reads_back_what_was_pushed() {
        let mut rng = Mix(0x5EED);
        let (mut opened, mut widths) = (0, [0; 5]);
        for allowed in every_columns() {
            for _ in 0..12 {
                let n = 1 + rng.index(24);
                let recs = stretchy_records(&mut rng, n, allowed);
                let batch = RecordBatch::from_records(recs.clone());
                opened += batch.store.as_ref().map_or(0, |s| s.rest.len());
                widths[row_words(&batch)] += 1;
                assert!(within(columns(&batch), allowed), "{recs:?}");
                // A producer sizing the batch learns what its builder does.
                let mut shape = Shape::default();
                for r in &recs {
                    let key_len = r.key.as_ref().map(Bytes::len);
                    shape.add(key_len, r.encoded_len() - RECORD_OVERHEAD, r.timestamp);
                }
                assert_eq!(shape.columns(), broken_steps(&recs), "{recs:?}");
                let steps = Columns {
                    sequences: columns(&batch).sequences,
                    ..shape.columns()
                };
                assert_eq!(columns(&batch), steps, "{recs:?}");
                let told = told(&recs, allowed);
                assert_eq!((columns(&told), &told), (allowed, &batch));
                for view in [&batch, &told] {
                    check_views(view, &recs);
                }
            }
        }
        println!("{opened} stretches opened past the first; batches by row words {widths:?}");
        assert!(opened >= 400, "the sweep crosses stretch boundaries");
        assert!(widths.iter().all(|&n| n >= 4), "every width: {widths:?}");
    }

    /// Every view of `batch` reads back its part of `recs`, which `batch`
    /// was built from.
    fn check_views(batch: &RecordBatch, recs: &[Record]) {
        let n = recs.len();
        for a in 0..n {
            for b in a + 1..=n {
                let (view, want) = (batch.slice(a..b), &recs[a..b]);
                assert_eq!(view.iter().collect::<Vec<_>>(), want, "{a}..{b}");
                assert_eq!(view.iter().len(), want.len());
                let built: Vec<Record> = view.iter().map(|r| r.to_record()).collect();
                assert_eq!(built, want);
                for (i, r) in want.iter().enumerate() {
                    let got = view.get(i).expect("within the view");
                    assert!(got == *r && got.to_record() == *r, "{a}..{b} at {i}");
                    assert_eq!(
                        (got.key(), got.value(), got.timestamp(), got.producer()),
                        (r.key.as_deref(), &r.value[..], r.timestamp, r.producer)
                    );
                    let stamps = (got.producer_epoch(), got.producer_seq());
                    assert_eq!(stamps, (r.producer_epoch, r.producer_seq));
                    assert_eq!(got.encoded_len(), r.encoded_len());
                }
                assert!(view.get(want.len()).is_none());
                assert!(view.first().is_some_and(|r| r == want[0]));
                assert!(view.last().is_some_and(|r| r == want[want.len() - 1]));
                let bytes: usize = want.iter().map(Record::encoded_len).sum();
                assert_eq!(view.record_bytes(), bytes);
                let frame = view.encode_frame(Offset(a as u64));
                let (back, base) = RecordBatch::decode_frame(&frame).expect("decodes");
                assert_eq!(base, Offset(a as u64));
                assert_eq!(back, view);
                assert_eq!(back.iter().collect::<Vec<_>>(), want);
                // A part of records that step evenly steps evenly. (Its
                // sequences need not stay in sequence: a stretch that opened
                // for a timestamp out of its base's reach may not open
                // from a later base.)
                let derived = |batch| Columns {
                    sequences: false,
                    ..columns(batch)
                };
                assert!(within(derived(&back), derived(batch)), "{a}..{b}");
                let stamps = want
                    .iter()
                    .map(|r| (r.producer, r.producer_epoch, r.producer_seq));
                assert_eq!(highest(view.producer_stretches()), highest(stamps));
                assert!(view.producer_stretches().count() <= view.len());
            }
        }
    }

    #[test]
    fn a_producers_batch_is_one_stretch() {
        let recs: Vec<Record> = (0..100)
            .map(|i| {
                Record::keyless("v", SimTime::from_millis(i))
                    .from_producer(ProducerId(7), 1_000 + i)
                    .with_producer_epoch(3)
            })
            .collect();
        let batch = RecordBatch::from_records(recs);
        assert!(batch.store.as_ref().is_some_and(|s| s.rest.is_empty()));
        let stretches: Vec<_> = batch.slice(10..20).producer_stretches().collect();
        assert_eq!(stretches, [(ProducerId(7), 3, 1_019)]);
        // A restarted producer's records open a second stretch.
        let mut builder = BatchBuilder::default();
        for (epoch, seq) in [(3, 5), (3, 6), (4, 0), (4, 1)] {
            builder.push(None, b"v", SimTime::ZERO, ProducerId(7), epoch, seq);
        }
        let both: Vec<_> = builder.finish().producer_stretches().collect();
        assert_eq!(both, [(ProducerId(7), 3, 6), (ProducerId(7), 4, 1)]);
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
