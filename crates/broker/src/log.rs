//! The replicated partition log, segmented, compactable, and recoverable.
//!
//! Each broker holds one [`PartitionLog`] per replica it hosts. Records are
//! tagged with the leader epoch under which they were appended, which is how
//! divergence is detected and reconciled after a partition heals: the
//! rejoining old leader truncates its log to match the new leader, and any
//! suffix it accepted while isolated is discarded — acknowledged or not.
//! That truncation is precisely the ZooKeeper-era silent-loss mechanism the
//! paper reproduces in Fig. 6b.
//!
//! # Runs
//!
//! A log holds no record of its own. Its unit of storage is the
//! [`LogRun`]: a base offset, a leader epoch, and a view of the batch the
//! records were produced in. A leader stores a view of the producer's
//! sealed batch, a replica fetch reply carries the leader's runs, and the
//! follower stores those, so one 16 B slot in the producer's batch (and
//! its share of the batch's stretch header) serves every replica and
//! reader of a record.
//! A run covers contiguous offsets: a segment roll, a truncation, a
//! compaction hole or a deduplicated retry splits it into views of the same
//! batch.
//!
//! # Segments and durability
//!
//! The log is stored as a list of [`LogSegment`]s (Kafka's on-disk layout):
//! an append rolls to a fresh segment once the active one reaches
//! `segment_max_records`. Segments are the unit of persistence — a broker
//! with a blob client attached (`Broker::set_durability`) flushes dirty
//! segments plus a [`BrokerLogMeta`] blob (high watermarks, consumer-group
//! offsets, and the segment manifest), and a restarted broker replays them
//! to rebuild its pre-crash state. The client's medium decides the cost
//! ([`s2g_store::BlobClient`]): a shared map outside the broker process —
//! a local disk that survives a process crash, instant and free — or an
//! [`s2g_store::StoreServer`] group, paying simulated CPU and network cost
//! per flush and a read round trip per recovered blob, exactly like the SPE
//! checkpoint subsystem's `DurableBackend` does for snapshots.
//!
//! # Compaction and retention
//!
//! Every run carries its base offset, so the log tolerates holes:
//!
//! * [`PartitionLog::compact`] keeps only the latest record per key among
//!   committed (below-high-watermark) records of sealed segments — Kafka's
//!   compacted-topic cleaner. Keyless records and the active segment are
//!   never touched, offsets never move, and readers see the same per-key
//!   final state as on the raw log.
//! * [`PartitionLog::apply_retention`] drops whole sealed, fully committed
//!   segments past a time or size bound, advancing the log start offset.
//! * [`PartitionLog::purge_to`] advances the log start to a bound its only
//!   reader has committed past (Kafka's `DeleteRecords`) and drops the
//!   whole segments below it, through the same head retirement.
//!
//! Each reports the segments it emptied so the broker can delete the dead
//! blobs through its blob client — replay cost after a restart is then
//! bounded by *live* data, not by history.

// A truncating `as` here corrupts a persisted segment; narrow with `try_from`.
#![deny(clippy::cast_possible_truncation)]

use std::collections::{BTreeMap, HashMap};

use s2g_proto::codec::{
    put_count, put_str, put_u32, put_u64, put_u8, put_uvarint, CodecError, Cursor,
};
use s2g_proto::{
    put_frame_record, read_frame_record, BatchBuilder, Columns, LeaderEpoch, LogRun, Offset,
    ProducerId, Record, RecordBatch, RecordRef, TopicPartition, MIN_FRAME_RECORD,
};
use s2g_sim::{SimDuration, SimTime};

/// Default record capacity of one log segment before the log rolls.
pub const DEFAULT_SEGMENT_MAX_RECORDS: usize = 128;

/// Version byte of the segment wire format: the shared batch-frame record
/// layout ([`put_frame_record`]) prefixed per entry with its leader epoch.
const SEGMENT_CODEC_VERSION: u8 = 3;

/// The records at offsets in `[base, end)` — the unit of persistence and
/// replay. Compaction may leave holes inside the range; the range itself
/// never shrinks.
#[derive(Debug, Clone)]
pub struct LogSegment {
    base: u64,
    /// One past the highest offset ever assigned in this segment.
    end: u64,
    /// Timestamp base the per-entry deltas are encoded against; pinned to
    /// the first record pushed, so a flush encodes the same bytes whatever
    /// truncation or compaction removed in between.
    base_ts: SimTime,
    /// The records, as runs: views of the batches they arrived in, which
    /// every other replica and reader of them shares. Flushing serializes
    /// from here on demand; only dirty segments (at most
    /// `segment_max_records` records each) are ever encoded.
    runs: Vec<LogRun>,
    /// Records held: the runs' total length.
    len: usize,
    bytes: usize,
    dirty: bool,
}

impl LogSegment {
    fn new(base: u64) -> Self {
        LogSegment {
            base,
            end: base,
            base_ts: SimTime::ZERO,
            runs: Vec::new(),
            len: 0,
            bytes: 0,
            dirty: false,
        }
    }

    /// Appends a non-empty run past the segment's end, returning its record
    /// bytes.
    fn push(&mut self, run: LogRun) -> usize {
        debug_assert!(
            run.base.value() >= self.end,
            "appends must advance the offset"
        );
        if let (0, Some(first)) = (self.len, run.batch.first()) {
            self.base_ts = first.timestamp();
        }
        let bytes = run.batch.record_bytes();
        self.bytes += bytes;
        self.len += run.len();
        self.dirty = true;
        self.end = run.end().value();
        self.runs.push(run);
        bytes
    }

    /// Replaces the runs with `runs`, which hold a subset of their records,
    /// held in a vector of exactly their count, and returns how many records
    /// and bytes that removed.
    fn keep_only(&mut self, mut runs: Vec<LogRun>) -> (usize, usize) {
        runs.shrink_to_fit();
        let len: usize = runs.iter().map(LogRun::len).sum();
        let bytes: usize = runs.iter().map(|r| r.batch.record_bytes()).sum();
        let removed = (self.len - len, self.bytes - bytes);
        (self.runs, self.len, self.bytes, self.dirty) = (runs, len, bytes, true);
        removed
    }

    /// First offset of the segment's range (set at roll time, fixed).
    pub fn base_offset(&self) -> Offset {
        Offset(self.base)
    }

    /// One past the highest offset ever assigned in the segment.
    pub fn end_offset(&self) -> Offset {
        Offset(self.end)
    }

    /// Number of records held (compaction can make this smaller than the
    /// offset range).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the segment holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Record payload bytes held (framing included).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Each record held, with its offset and epoch, in offset order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (Offset, LeaderEpoch, RecordRef<'_>)> {
        self.runs.iter().flat_map(LogRun::entries)
    }

    /// Index of the first run that ends past `offset`.
    fn run_index(&self, offset: u64) -> usize {
        self.runs.partition_point(|r| r.end().value() <= offset)
    }

    /// Serializes the segment for persistence: a versioned header plus
    /// one frame per record, encoded from the runs when a flush asks.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(29 + self.bytes);
        put_u8(&mut out, SEGMENT_CODEC_VERSION);
        put_u64(&mut out, self.base);
        put_u64(&mut out, self.end);
        put_u64(&mut out, self.base_ts.as_nanos());
        // A silent `as u32` here would truncate an oversized segment's
        // count and corrupt every replay of it; fail loudly instead.
        put_u32(
            &mut out,
            u32::try_from(self.len).expect("segment entry count fits u32"),
        );
        for (offset, epoch, record) in self.entries() {
            put_uvarint(&mut out, epoch.0);
            put_frame_record(&mut out, Offset(self.base), self.base_ts, offset, record);
        }
        out
    }

    /// Deserializes a segment written by [`encode`](LogSegment::encode),
    /// as runs split wherever the epoch changes or an offset is skipped.
    ///
    /// # Errors
    ///
    /// Those of [`read_frame_record`], and a [`CodecError`] on truncated
    /// or unknown-version input, on offsets out of order or outside the
    /// segment's range, and on bytes past the last entry.
    pub fn decode(buf: &[u8]) -> Result<LogSegment, CodecError> {
        let mut cur = Cursor::new(buf);
        match cur.u8()? {
            SEGMENT_CODEC_VERSION => {}
            v => return Err(CodecError::BadTag(v)),
        }
        let base = cur.u64()?;
        let end = cur.u64()?;
        let base_ts = SimTime::from_nanos(cur.u64()?);
        let count = cur.u32()? as usize;
        // The replayed records are one batch: every run is a view of it.
        // An entry is a frame record and at least one byte of epoch.
        let fits = count.min(buf.len() / (MIN_FRAME_RECORD + 1));
        let mut records = BatchBuilder::with_capacity(fits, buf.len(), Columns::default());
        // Where each run starts: record index, offset and epoch.
        let mut starts: Vec<(usize, Offset, LeaderEpoch)> = Vec::new();
        let mut next = Offset(base);
        for i in 0..count {
            let epoch = LeaderEpoch(cur.uvarint()?);
            let offset = read_frame_record(&mut cur, Offset(base), base_ts, &mut records)?;
            if offset < next || offset.value() >= end {
                return Err(CodecError::NonCanonical);
            }
            if offset != next || starts.last().is_none_or(|s| s.2 != epoch) {
                starts.push((i, offset, epoch));
            }
            next = offset.next();
        }
        cur.finish()?;
        let batch = records.finish();
        let ends = starts.iter().skip(1).map(|s| s.0).chain([count]);
        let mut runs = Vec::with_capacity(starts.len());
        runs.extend(
            (starts.iter().zip(ends)).map(|(&(from, base, epoch), to)| LogRun {
                base,
                epoch,
                batch: batch.slice(from..to),
            }),
        );
        Ok(LogSegment {
            base,
            end,
            base_ts,
            runs,
            len: count,
            bytes: batch.record_bytes(),
            dirty: false,
        })
    }
}

/// Emits the parts of `run` whose records `keep` accepts (asked once per
/// record, in order): each maximal accepted stretch is one view of the
/// run's records, so nothing is copied, and a rejected record ends a part.
pub(crate) fn split_run(
    run: &LogRun,
    mut keep: impl FnMut(Offset, RecordRef<'_>) -> bool,
    mut emit: impl FnMut(LogRun),
) {
    let mut from = None;
    for (offset, _, record) in run.entries() {
        match (keep(offset, record), from) {
            (true, None) => from = Some(offset),
            (false, Some(start)) => {
                emit(run.range(start, offset));
                from = None;
            }
            _ => {}
        }
    }
    if let Some(start) = from {
        emit(run.range(start, run.end()));
    }
}

/// What one cleaner pass (compaction or retention) did to a partition log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CleanOutcome {
    /// Records removed.
    pub removed_records: u64,
    /// Record bytes reclaimed.
    pub reclaimed_bytes: u64,
    /// Base offsets of segments that were dropped entirely; the broker
    /// deletes the matching backend blobs so replay never reads them again.
    pub dropped_segment_bases: Vec<u64>,
}

impl CleanOutcome {
    /// Folds another outcome into this one.
    pub fn merge(&mut self, other: CleanOutcome) {
        self.removed_records += other.removed_records;
        self.reclaimed_bytes += other.reclaimed_bytes;
        self.dropped_segment_bases
            .extend(other.dropped_segment_bases);
    }

    /// True when the pass removed nothing.
    pub(crate) fn is_noop(&self) -> bool {
        self.removed_records == 0 && self.dropped_segment_bases.is_empty()
    }
}

/// An append-only (except for truncation and cleaning) record log for one
/// partition: a list of segments, each a list of runs.
///
/// # Examples
///
/// ```
/// use s2g_broker::PartitionLog;
/// use s2g_proto::{LeaderEpoch, Offset, Record};
/// use s2g_sim::SimTime;
///
/// let mut log = PartitionLog::new();
/// log.append(LeaderEpoch(0), Record::keyless("a", SimTime::ZERO));
/// log.append(LeaderEpoch(0), Record::keyless("b", SimTime::ZERO));
/// assert_eq!(log.log_end(), Offset(2));
/// assert_eq!(log.high_watermark(), Offset(0)); // nothing committed yet
/// log.advance_high_watermark(Offset(2));
/// let runs = log.read_entries(Offset(0), 10, true);
/// assert_eq!(runs.iter().map(|r| r.len()).sum::<usize>(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct PartitionLog {
    segments: Vec<LogSegment>,
    segment_max_records: usize,
    high_watermark: Offset,
    /// First retained offset; advanced by segment retention and purges.
    log_start: Offset,
    /// Total record bytes retained (for the memory model).
    retained_bytes: usize,
    /// Cumulative bytes reclaimed by compaction, retention and purges — the
    /// replay cost this log will never pay again.
    reclaimed_bytes: u64,
}

impl Default for PartitionLog {
    fn default() -> Self {
        PartitionLog {
            segments: vec![LogSegment::new(0)],
            segment_max_records: DEFAULT_SEGMENT_MAX_RECORDS,
            high_watermark: Offset::ZERO,
            log_start: Offset::ZERO,
            retained_bytes: 0,
            reclaimed_bytes: 0,
        }
    }
}

impl PartitionLog {
    /// An empty log with the default segment size.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty log that rolls segments after `max` records.
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero.
    pub fn with_segment_max(max: usize) -> Self {
        assert!(max > 0, "segment capacity must be positive");
        PartitionLog {
            segment_max_records: max,
            ..Self::default()
        }
    }

    /// Rebuilds a log from recovered segments, a persisted high watermark,
    /// and the manifest's expected segment bases (in order). Recovery keeps
    /// the longest prefix of `expected_bases` whose blobs all arrived: a
    /// blob missing from the backend (a lost flush followed by the crash)
    /// truncates the recoverable log at the gap — offsets beyond it were
    /// never durable. Bases legitimately absent from the manifest
    /// (compacted or retired segments) never appear in `expected_bases`, so
    /// they cost nothing.
    pub fn from_recovered_segments(
        segments: Vec<LogSegment>,
        high_watermark: Offset,
        log_start: Offset,
        expected_bases: &[u64],
        segment_max_records: usize,
    ) -> Self {
        let mut by_base: BTreeMap<u64, LogSegment> = segments
            .into_iter()
            .filter(|s| !s.is_empty())
            .map(|s| (s.base, s))
            .collect();
        let mut recovered: Vec<LogSegment> = Vec::new();
        for base in expected_bases {
            match by_base.remove(base) {
                Some(seg) => recovered.push(seg),
                None => break, // lost flush: the durable log ends here
            }
        }
        let mut segments = recovered;
        if segments.is_empty() {
            segments.push(LogSegment::new(log_start.value()));
        }
        let retained_bytes = segments.iter().map(LogSegment::bytes).sum();
        let end = segments.last().map(|s| s.end_offset()).unwrap_or_default();
        let start = segments
            .first()
            .map(|s| s.base_offset())
            .unwrap_or_default()
            .max(log_start.min(end));
        PartitionLog {
            segments,
            segment_max_records: segment_max_records.max(1),
            high_watermark: high_watermark.min(end),
            log_start: start,
            retained_bytes,
            reclaimed_bytes: 0,
        }
    }

    /// Next offset to be assigned (the log end offset, "LEO").
    pub fn log_end(&self) -> Offset {
        self.segments
            .last()
            .map(LogSegment::end_offset)
            .unwrap_or_default()
    }

    /// First retained offset (advanced by retention and purges).
    pub fn log_start(&self) -> Offset {
        self.log_start
    }

    /// Highest offset known committed; consumers only see below this.
    pub fn high_watermark(&self) -> Offset {
        self.high_watermark
    }

    /// Number of records currently held (live data — holes excluded).
    pub fn len(&self) -> usize {
        self.segments.iter().map(LogSegment::len).sum()
    }

    /// True when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of record payload retained.
    pub fn retained_bytes(&self) -> usize {
        self.retained_bytes
    }

    /// Cumulative bytes reclaimed by compaction, retention and purges.
    pub fn reclaimed_bytes(&self) -> u64 {
        self.reclaimed_bytes
    }

    /// The segments, oldest first (the last one is the active segment).
    pub fn segments(&self) -> &[LogSegment] {
        &self.segments
    }

    /// Number of segments (including the active one).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    fn seg_index_for(&self, offset: u64) -> Option<usize> {
        let idx = self.segments.partition_point(|s| s.base <= offset);
        let idx = idx.checked_sub(1)?;
        (offset < self.segments[idx].end).then_some(idx)
    }

    /// Every record held, with its offset and epoch, in offset order.
    pub fn entries(&self) -> impl Iterator<Item = (Offset, LeaderEpoch, RecordRef<'_>)> {
        self.segments.iter().flat_map(LogSegment::entries)
    }

    /// Each producer stretch the log holds, clipped to its runs, in offset
    /// order ([`RecordBatch::producer_stretches`]): the highest stamps of
    /// its records, one per stretch instead of one per record.
    pub(crate) fn producer_stretches(&self) -> impl Iterator<Item = (ProducerId, u32, u64)> + '_ {
        (self.segments.iter().flat_map(|s| &s.runs)).flat_map(|r| r.batch.producer_stretches())
    }

    fn run_at(&self, offset: Offset) -> Option<&LogRun> {
        let o = offset.value();
        let seg = &self.segments[self.seg_index_for(o)?];
        (seg.runs.get(seg.run_index(o))).filter(|r| r.base <= offset)
    }

    /// Appends one record under `epoch` at the log end, returning its
    /// offset.
    pub fn append(&mut self, epoch: LeaderEpoch, record: Record) -> Offset {
        self.append_batch(epoch, [record])
    }

    /// Appends a batch under `epoch`, returning the base offset.
    pub fn append_batch(
        &mut self,
        epoch: LeaderEpoch,
        records: impl IntoIterator<Item = Record>,
    ) -> Offset {
        let batch = RecordBatch::from_records(records.into_iter().collect());
        self.append_kept(epoch, &batch, |_| true).0
    }

    /// Appends at the log end, under `epoch`, the records of `batch` that
    /// `keep` accepts (asked once per record, in order). Each stretch of
    /// accepted records is stored as a view of `batch`: nothing is copied,
    /// and the log shares the records with whoever else holds the batch.
    /// Returns the base offset and how many records were appended.
    pub(crate) fn append_kept(
        &mut self,
        epoch: LeaderEpoch,
        batch: &RecordBatch,
        mut keep: impl FnMut(RecordRef<'_>) -> bool,
    ) -> (Offset, usize) {
        let base = self.log_end();
        let whole = LogRun {
            base: Offset::ZERO,
            epoch,
            batch: batch.clone(),
        };
        let mut appended = 0;
        split_run(
            &whole,
            |_, record| keep(record),
            |part| {
                let base = self.log_end();
                appended += self.append_run(LogRun { base, ..part });
            },
        );
        (base, appended)
    }

    /// Appends the part of `run` at or past the log end, at the run's own
    /// offsets: the follower-replication path, where replicas keep the
    /// leader's offsets even across the holes a compacted leader log
    /// serves, so a run past the end leaves a hole. The part below the end
    /// is already held (a duplicate fetch reply) and is skipped; the return
    /// value counts the records appended. A segment roll splits the run.
    pub(crate) fn append_run(&mut self, run: LogRun) -> usize {
        let mut rest = run.range(self.log_end(), run.end());
        let appended = rest.len();
        while !rest.is_empty() {
            let max = self.segment_max_records;
            if self.segments.last().is_none_or(|s| s.len >= max) {
                // The sealed segment keeps its runs, moved, in a vector of
                // exactly their count; the new active one reuses the grown
                // vector.
                let mut fresh = LogSegment::new(rest.base.value());
                if let Some(sealed) = self.segments.last_mut() {
                    let exact = sealed.runs.drain(..).collect();
                    fresh.runs = std::mem::replace(&mut sealed.runs, exact);
                }
                self.segments.push(fresh);
            }
            let seg = self.segments.last_mut().expect("just ensured");
            let roll = Offset(rest.base.value() + (max - seg.len) as u64);
            let head = rest.range(rest.base, roll);
            rest = rest.range(roll, rest.end());
            self.retained_bytes += seg.push(head);
        }
        appended
    }

    /// Advances the high watermark (never moves backwards).
    pub fn advance_high_watermark(&mut self, hw: Offset) {
        if hw > self.high_watermark {
            debug_assert!(hw <= self.log_end(), "HW beyond log end");
            self.high_watermark = hw.min(self.log_end());
        }
    }

    /// The runs at offsets `>= from`, cut to hold at most `max` records:
    /// views of the log's own, no record copied. When `committed_only` is
    /// set (consumer fetches), records at or above the high watermark are
    /// withheld; replica fetches read the full log. Holes left by
    /// compaction fall between runs — callers must advance by the returned
    /// runs' offsets, not by their length.
    pub fn read_entries(&self, from: Offset, max: usize, committed_only: bool) -> Vec<LogRun> {
        let end = if committed_only {
            self.high_watermark
        } else {
            self.log_end()
        };
        self.read_below(from, end, max)
    }

    /// The runs at offsets in `[from, end)`, cut to hold at most `max`
    /// records.
    pub(crate) fn read_below(&self, from: Offset, end: Offset, max: usize) -> Vec<LogRun> {
        let end = end.min(self.log_end());
        if from >= end || max == 0 {
            return Vec::new();
        }
        let (lo, end) = (from.value(), end.value());
        // Most reads are of the tail (a consumer or follower keeping up):
        // try the last segment before bisecting for the first one whose
        // range reaches `lo`.
        let last = self.segments.len() - 1;
        let start_idx = if self.segments[last].base <= lo {
            last
        } else {
            self.segments.partition_point(|s| s.end <= lo).min(last)
        };
        let runs = self.segments[start_idx..]
            .iter()
            .flat_map(|seg| &seg.runs[seg.run_index(lo)..]);
        // Each run's part as `(run, from, to)`, until `end` or `max`.
        let mut left = max;
        let parts = runs.map_while(move |run| {
            let from = run.base.value().max(lo);
            let to = (run.end().value().min(end)).min(from.saturating_add(left as u64));
            (from < to).then(|| {
                left -= usize::try_from(to - from).expect("a part is at most `left` records");
                (run, from, to)
            })
        });
        // Counted first, so the one allocation is exact.
        let mut out = Vec::with_capacity(parts.clone().count());
        out.extend(parts.map(|(run, from, to)| run.range(Offset(from), Offset(to))));
        out
    }

    /// The epoch of the record at `offset`, if present.
    pub fn epoch_at(&self, offset: Offset) -> Option<LeaderEpoch> {
        self.run_at(offset).map(|r| r.epoch)
    }

    /// The epoch of the last record, if any.
    pub fn last_epoch(&self) -> Option<LeaderEpoch> {
        (self.segments.iter().rev()).find_map(|s| s.runs.last().map(|r| r.epoch))
    }

    /// Truncates the log to `to` (exclusive): records at offsets `>= to` are
    /// discarded, and their count is returned. This is the
    /// divergence-reconciliation step a rejoining follower performs, and the
    /// source of silent loss under ZooKeeper-mode coordination (the broker
    /// counts it in `BrokerStats::records_truncated`).
    pub fn truncate_to(&mut self, to: Offset) -> usize {
        // Never truncate below the log start: retention already dropped
        // everything before it, and regressing the log end past the start
        // would leave an inverted `[start, end)` range that later reads and
        // appends mis-handle.
        let to = to.max(self.log_start);
        if to >= self.log_end() {
            return 0;
        }
        // The first segment reaching past `to` keeps what it holds below
        // `to`; every later one goes whole.
        let mut cut = self.segments.partition_point(|s| s.end <= to.value());
        let (mut records, mut bytes) = (0, 0);
        if let Some(seg) = self.segments.get_mut(cut).filter(|s| s.base < to.value()) {
            let past = seg.run_index(to.value());
            let mut runs = std::mem::take(&mut seg.runs);
            let tail = runs.split_off(past);
            runs.extend(
                tail.first()
                    .map(|r| r.range(r.base, to))
                    .filter(|r| !r.is_empty()),
            );
            (records, bytes) = seg.keep_only(runs);
            seg.end = to.value();
            cut += 1;
        }
        for seg in self.segments.drain(cut..) {
            records += seg.len;
            bytes += seg.bytes;
        }
        if self.segments.is_empty() {
            self.segments.push(LogSegment::new(to.value()));
        }
        self.fit_segments();
        self.retained_bytes -= bytes;
        if self.high_watermark > self.log_end() {
            self.high_watermark = self.log_end();
        }
        records
    }

    /// The end offset for `epoch`: one past the last record whose epoch is
    /// at most `epoch` (0 if no such record). Records are epoch-monotonic,
    /// so this is the offset a follower stuck at `epoch` must truncate to.
    pub(crate) fn end_offset_for_epoch(&self, epoch: LeaderEpoch) -> Offset {
        for seg in self.segments.iter().rev() {
            if let Some(run) = seg.runs.iter().rev().find(|r| r.epoch <= epoch) {
                return run.end();
            }
        }
        Offset::ZERO
    }

    /// Keyed compaction: among committed (below-high-watermark) records of
    /// sealed segments, keeps only the latest record per key. Keyless
    /// records, uncommitted records, and the active segment are untouched;
    /// offsets never move, and survivors stay views of their batches.
    /// Sealed segments emptied by the pass are dropped and reported so dead
    /// backend blobs can be deleted.
    pub fn compact(&mut self) -> CleanOutcome {
        let mut outcome = CleanOutcome::default();
        if self.segments.len() < 2 {
            return outcome;
        }
        let hw = self.high_watermark;
        // Latest committed offset per key across the whole log (a committed
        // copy in the active segment shadows sealed copies; uncommitted
        // records never act as "latest" — they could still be truncated).
        let mut latest: HashMap<&[u8], Offset> = HashMap::new();
        for (offset, _, record) in self.entries().take_while(|(o, _, _)| *o < hw) {
            if let Some(k) = record.key() {
                let slot = latest.entry(k).or_default();
                *slot = (*slot).max(offset);
            }
        }
        let survives = |offset: Offset, record: RecordRef<'_>| {
            // Uncommitted records are never cleaned, keyless ones have no
            // compaction identity.
            offset >= hw || record.key().is_none_or(|k| latest.get(k) == Some(&offset))
        };
        // Each sealed segment's survivors, where the pass removes any.
        let sealed = self.segments.len() - 1;
        let cut: Vec<Option<Vec<LogRun>>> = (self.segments[..sealed].iter())
            .map(|seg| {
                let mut kept = Vec::with_capacity(seg.runs.len());
                for run in &seg.runs {
                    split_run(run, survives, |part| kept.push(part));
                }
                let held: usize = kept.iter().map(LogRun::len).sum();
                (held != seg.len).then_some(kept)
            })
            .collect();
        let mut removed_bytes = 0usize;
        for (seg, kept) in self.segments.iter_mut().zip(cut) {
            if let Some(kept) = kept {
                let (records, bytes) = seg.keep_only(kept);
                outcome.removed_records += records as u64;
                removed_bytes += bytes;
            }
        }
        // Drop sealed segments the pass emptied entirely.
        let mut dropped = Vec::new();
        let last = self.segments.len() - 1;
        let mut i = 0;
        self.segments.retain(|seg| {
            let keep = i == last || !seg.is_empty();
            if !keep {
                dropped.push(seg.base);
            }
            i += 1;
            keep
        });
        self.fit_segments();
        outcome.dropped_segment_bases = dropped;
        outcome.reclaimed_bytes = removed_bytes as u64;
        self.retained_bytes -= removed_bytes;
        self.reclaimed_bytes += removed_bytes as u64;
        outcome
    }

    /// Segment retention: drops sealed, fully committed segments whose
    /// newest record is older than `max_age` (when set), then the oldest
    /// such segments until retained bytes fit `max_bytes` (when set). The
    /// log start offset advances past dropped data; late readers get an
    /// out-of-range reset instead of the vanished records.
    pub fn apply_retention(
        &mut self,
        now: SimTime,
        max_age: Option<SimDuration>,
        max_bytes: Option<usize>,
    ) -> CleanOutcome {
        let hw = self.high_watermark.value();
        let mut outcome = CleanOutcome::default();
        let retire = |seg: &LogSegment, retained| {
            // Only whole, committed segments are retired.
            if seg.end > hw {
                return false;
            }
            let newest = seg.runs.last().and_then(|r| r.batch.last());
            let expired =
                max_age.is_some_and(|age| newest.is_some_and(|r| r.timestamp() + age < now));
            let oversize = max_bytes.is_some_and(|cap| retained > cap);
            expired || oversize || seg.is_empty()
        };
        self.retire_head(retire, |seg| {
            outcome.removed_records += seg.len as u64;
            outcome.reclaimed_bytes += seg.bytes as u64;
            outcome.dropped_segment_bases.push(seg.base);
        });
        outcome
    }

    /// Purges the log below `bound` (Kafka's `DeleteRecords`): the log
    /// start advances to `bound`, clamped to the high watermark, and the
    /// sealed segments wholly below it are dropped, each shown to `dropped`
    /// on its way out. Records of a segment the new start cuts stay held
    /// until the segment goes, but are below the start, so a reader is
    /// reset past them. Returns whether the start moved: a bound at or
    /// below it is stale and does nothing.
    pub(crate) fn purge_to(&mut self, bound: Offset, dropped: impl FnMut(&LogSegment)) -> bool {
        let bound = bound.min(self.high_watermark);
        if bound <= self.log_start {
            return false;
        }
        self.log_start = bound;
        self.retire_head(|seg, _| seg.end <= bound.value(), dropped);
        true
    }

    /// Drops the oldest segments, the active one never, while `retire`
    /// accepts the next (given the bytes still retained), advancing the log
    /// start past each and showing it to `dropped`: the one way whole
    /// segments leave the head of a log. The retired prefix leaves in one
    /// step.
    fn retire_head(
        &mut self,
        mut retire: impl FnMut(&LogSegment, usize) -> bool,
        mut dropped: impl FnMut(&LogSegment),
    ) {
        let (mut n, mut retained) = (0, self.retained_bytes);
        while n + 1 < self.segments.len() && retire(&self.segments[n], retained) {
            retained -= self.segments[n].bytes;
            n += 1;
        }
        for seg in self.segments.drain(..n) {
            self.retained_bytes -= seg.bytes;
            self.reclaimed_bytes += seg.bytes as u64;
            self.log_start = self.log_start.max(Offset(seg.end));
            dropped(&seg);
        }
        self.fit_segments();
    }

    /// Gives back the segment slots past twice the segments held, so a log
    /// whose head was dropped does not keep its longest length's room.
    fn fit_segments(&mut self) {
        let room = 2 * self.segments.len();
        if self.segments.capacity() > room {
            self.segments.shrink_to(room);
        }
    }

    /// Encodes every dirty segment and clears the dirty marks, returning
    /// `(base_offset, encoded_bytes)` pairs — the broker's flush feed.
    pub(crate) fn take_dirty_segments(&mut self) -> Vec<(u64, Vec<u8>)> {
        let mut out = Vec::new();
        for seg in &mut self.segments {
            if seg.dirty && !seg.is_empty() {
                out.push((seg.base, seg.encode()));
                seg.dirty = false;
            }
        }
        out
    }

    /// True when any segment holds un-flushed changes.
    pub(crate) fn has_dirty_segments(&self) -> bool {
        self.segments.iter().any(|s| s.dirty && !s.is_empty())
    }
}

/// The broker's durable metadata blob: per-partition high watermarks, log
/// start offsets, and segment manifests, plus consumer-group committed
/// offsets and the cumulative bytes cleaning reclaimed. Persisted alongside
/// segments on every flush; read first on recovery so the broker knows
/// which segment keys to replay.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BrokerLogMeta {
    /// Per partition: high watermark, log start, and the base offsets of
    /// live segments in order.
    pub partitions: Vec<(TopicPartition, Offset, Offset, Vec<u64>)>,
    /// Consumer-group committed positions: `(group, partition, offset)`.
    pub group_offsets: Vec<(String, TopicPartition, Offset)>,
    /// Cumulative bytes reclaimed by compaction + retention across all
    /// partitions — the replay bytes a restarted broker is spared.
    pub reclaimed_bytes: u64,
    /// Per-partition transaction state: open transactions as
    /// `(producer, txn, first_offset, end_offset, producer_epoch)` and
    /// aborted offset ranges as `[start, end)` pairs — so read-committed
    /// isolation survives a broker bounce.
    pub txns: Vec<MetaPartitionTxns>,
}

/// One open transaction in the meta blob:
/// `(producer, txn, first_offset, end_offset, producer_epoch)`.
pub(crate) type MetaTxnEntry = (u32, u64, u64, u64, u32);

/// One partition's persisted transaction state: the partition, its open
/// transactions, and its aborted `[start, end)` offset ranges.
pub(crate) type MetaPartitionTxns = (TopicPartition, Vec<MetaTxnEntry>, Vec<(u64, u64)>);

impl BrokerLogMeta {
    /// Serializes the meta blob.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_count(&mut out, self.partitions.len());
        for (tp, hw, start, bases) in &self.partitions {
            put_str(&mut out, &tp.topic);
            put_u32(&mut out, tp.partition);
            put_u64(&mut out, hw.value());
            put_u64(&mut out, start.value());
            put_count(&mut out, bases.len());
            for b in bases {
                put_u64(&mut out, *b);
            }
        }
        put_count(&mut out, self.group_offsets.len());
        for (group, tp, off) in &self.group_offsets {
            put_str(&mut out, group);
            put_str(&mut out, &tp.topic);
            put_u32(&mut out, tp.partition);
            put_u64(&mut out, off.value());
        }
        put_u64(&mut out, self.reclaimed_bytes);
        put_count(&mut out, self.txns.len());
        for (tp, ongoing, aborted) in &self.txns {
            put_str(&mut out, &tp.topic);
            put_u32(&mut out, tp.partition);
            put_count(&mut out, ongoing.len());
            for (producer, txn, first, end, epoch) in ongoing {
                put_u32(&mut out, *producer);
                put_u64(&mut out, *txn);
                put_u64(&mut out, *first);
                put_u64(&mut out, *end);
                put_u32(&mut out, *epoch);
            }
            put_count(&mut out, aborted.len());
            for (s, e) in aborted {
                put_u64(&mut out, *s);
                put_u64(&mut out, *e);
            }
        }
        out
    }

    /// Deserializes a blob written by [`encode`](BrokerLogMeta::encode).
    ///
    /// # Errors
    ///
    /// A [`CodecError`] on truncated or malformed input, and on bytes past
    /// the last transaction list.
    pub fn decode(buf: &[u8]) -> Result<BrokerLogMeta, CodecError> {
        let mut cur = Cursor::new(buf);
        let tp = |cur: &mut Cursor<'_>| -> Result<TopicPartition, CodecError> {
            Ok(TopicPartition::new(cur.str()?.to_owned(), cur.u32()?))
        };
        let partitions = cur.list(|cur| {
            let (tp, hw, start) = (tp(cur)?, Offset(cur.u64()?), Offset(cur.u64()?));
            Ok((tp, hw, start, cur.list(Cursor::u64)?))
        })?;
        let group_offsets =
            cur.list(|cur| Ok((cur.str()?.to_owned(), tp(cur)?, Offset(cur.u64()?))))?;
        let reclaimed_bytes = cur.u64()?;
        let txns = cur.list(|cur| {
            let tp = tp(cur)?;
            let ongoing =
                cur.list(|cur| Ok((cur.u32()?, cur.u64()?, cur.u64()?, cur.u64()?, cur.u32()?)))?;
            Ok((tp, ongoing, cur.list(|cur| Ok((cur.u64()?, cur.u64()?)))?))
        })?;
        cur.finish()?;
        Ok(BrokerLogMeta {
            partitions,
            group_offsets,
            reclaimed_bytes,
            txns,
        })
    }
}

/// The tag of the retry timer of a broker's blob client over a store
/// group, disjoint from the broker's own timer tags.
pub const BROKER_LOG_RETRY_TAG: u64 = 1 << 43;

#[cfg(test)]
mod tests {
    use super::*;
    use s2g_sim::SimTime;

    fn rec(v: &str) -> Record {
        Record::keyless(v.to_string(), SimTime::ZERO)
    }

    fn keyed(k: &str, v: &str, ms: u64) -> Record {
        Record::new(k.to_string(), v.to_string(), SimTime::from_millis(ms))
    }

    /// Up to `max` records from `from`, copied out of their runs.
    fn read(log: &PartitionLog, from: Offset, max: usize, committed_only: bool) -> Vec<Record> {
        let runs = log.read_entries(from, max, committed_only);
        let records = runs.iter().flat_map(|r| r.batch.iter());
        records.map(|r| r.to_record()).collect()
    }

    /// The offsets the runs hold, in order.
    fn offsets(runs: &[LogRun]) -> Vec<u64> {
        let entries = runs.iter().flat_map(LogRun::entries);
        entries.map(|(o, _, _)| o.value()).collect()
    }

    /// Each run as `(base, len, epoch)`, segment by segment.
    fn shape(log: &PartitionLog) -> Vec<Vec<(u64, usize, u64)>> {
        let runs = |s: &LogSegment| {
            s.runs
                .iter()
                .map(|r| (r.base.0, r.len(), r.epoch.0))
                .collect()
        };
        log.segments().iter().map(runs).collect()
    }

    #[test]
    fn log_run_stays_five_words() {
        // Base offset, epoch and a three-word view of a batch: this is what
        // a log holds per run and replica, beside the one shared 16 B slot
        // per record and stretch header per batch. (A per-record,
        // per-replica 72 B entry before.)
        assert_eq!(std::mem::size_of::<RecordBatch>(), 24);
        assert_eq!(std::mem::size_of::<LogRun>(), 40);
    }

    /// The runs of every segment share `batch`'s storage.
    fn all_views_of(log: &PartitionLog, batch: &RecordBatch) -> bool {
        let mut runs = log.segments().iter().flat_map(|s| &s.runs);
        runs.all(|r| r.batch.same_storage(batch))
    }

    fn batch_of(n: u64) -> RecordBatch {
        (0..n)
            .map(|i| keyed(&format!("k{i}"), &i.to_string(), i))
            .collect()
    }

    #[test]
    fn a_segment_roll_splits_a_run_at_the_roll_offset() {
        let mut log = PartitionLog::with_segment_max(4);
        let batch = batch_of(6);
        assert_eq!(
            log.append_kept(LeaderEpoch(1), &batch, |_| true),
            (Offset(0), 6)
        );
        let second = batch_of(3);
        log.append_kept(LeaderEpoch(2), &second, |_| true);
        // Rolls sit where they sat with one entry per record: every fourth
        // record, mid-batch.
        assert_eq!(
            shape(&log),
            [vec![(0, 4, 1)], vec![(4, 2, 1), (6, 2, 2)], vec![(8, 1, 2)]]
        );
        let first_runs = log.segments()[..2].iter().flat_map(|s| &s.runs);
        assert!(first_runs.take(2).all(|r| r.batch.same_storage(&batch)));
        assert!(log.segments()[2].runs[0].batch.same_storage(&second));
        // One record in memory however many runs and readers hold it.
        let read = log.read_entries(Offset(2), 10, false);
        assert_eq!(read.len(), 4, "runs [2,4) [4,6) [6,8) [8,9)");
        let value = |b: &RecordBatch, i| b.get(i).map(|r| r.value().as_ptr());
        assert_eq!(value(&read[0].batch, 0), value(&batch, 2));
        assert_eq!(offsets(&read), [2, 3, 4, 5, 6, 7, 8]);
    }

    /// Every segment but the active one holds its runs in a vector of
    /// exactly their count: after rolls, compaction, truncation and
    /// recovery.
    #[test]
    fn sealed_segments_hold_exactly_their_runs() {
        fn assert_exact(log: &PartitionLog, after: &str) {
            let segments = log.segments();
            for (i, seg) in segments[..segments.len() - 1].iter().enumerate() {
                let (held, room) = (seg.runs.len(), seg.runs.capacity());
                assert_eq!(
                    room, held,
                    "after {after}: sealed segment {i} has {room} slots"
                );
            }
        }
        let mut log = PartitionLog::with_segment_max(16);
        // Batches of 1 to 40 records, each epoch its own run: sealed
        // segments of one run to a dozen. Every other record is keyless,
        // so compaction keeps it.
        for (i, n) in [1u64, 2, 5, 40, 3, 1, 1, 7, 20, 2]
            .repeat(4)
            .into_iter()
            .enumerate()
        {
            let record = |j| match j % 2 {
                0 => rec("v"),
                _ => keyed(&format!("k{}", j % 3), "v", j),
            };
            let batch: RecordBatch = (0..n).map(record).collect();
            log.append_kept(LeaderEpoch(i as u64), &batch, |_| true);
        }
        assert!(log.segments().len() > 10);
        assert_exact(&log, "rolls");
        // Replayed segments are split into runs by epoch, some into one.
        let bases: Vec<u64> = log.segments().iter().map(|s| s.base).collect();
        let segments = (log.segments().iter())
            .map(|s| LogSegment::decode(&s.encode()).expect("decodes"))
            .collect();
        let recovered =
            PartitionLog::from_recovered_segments(segments, Offset(0), Offset(0), &bases, 16);
        assert_exact(&recovered, "recovery");
        log.advance_high_watermark(log.log_end());
        assert!(log.compact().removed_records > 0);
        assert_exact(&log, "compaction");
        let middle = log.segments()[log.segments().len() / 2]
            .base_offset()
            .value()
            + 3;
        assert!(log.truncate_to(Offset(middle)) > 0);
        assert_exact(&log, "truncation");
    }

    #[test]
    fn a_truncation_inside_a_run_shortens_it() {
        let mut log = PartitionLog::new();
        log.append(LeaderEpoch(1), rec("first"));
        let batch = batch_of(6);
        log.append_kept(LeaderEpoch(1), &batch, |_| true);
        log.append(LeaderEpoch(2), rec("last"));
        let bytes_before = log.retained_bytes();
        assert_eq!(log.truncate_to(Offset(5)), 3);
        assert_eq!(shape(&log), [vec![(0, 1, 1), (1, 4, 1)]]);
        assert!(log.segments()[0].runs[1].batch.same_storage(&batch));
        let cut: usize = batch.iter().skip(4).map(|r| r.encoded_len()).sum();
        assert_eq!(
            log.retained_bytes(),
            bytes_before - cut - rec("last").encoded_len()
        );
        assert_eq!(log.append(LeaderEpoch(2), rec("z")), Offset(5));
        assert_eq!(shape(&log), [vec![(0, 1, 1), (1, 4, 1), (5, 1, 2)]]);
    }

    #[test]
    fn a_compaction_hole_splits_a_run_into_views() {
        let mut log = PartitionLog::with_segment_max(4);
        // One batch: k0 k1 k0 k2 | k1 (active). k0@0 and k1@1 are shadowed,
        // so the survivors start past a hole.
        let keys = ["k0", "k1", "k0", "k2", "k1"];
        let batch: RecordBatch = keys.iter().map(|k| keyed(k, "v", 1)).collect();
        log.append_kept(LeaderEpoch(1), &batch, |_| true);
        log.advance_high_watermark(Offset(5));
        assert_eq!(log.compact().removed_records, 2);
        assert_eq!(shape(&log), [vec![(2, 2, 1)], vec![(4, 1, 1)]]);
        assert!(all_views_of(&log, &batch));
        // A hole between survivors splits the run in two: k1@1 is shadowed
        // by k1@3, k3@4 by the active segment's k3@5.
        let mut log = PartitionLog::with_segment_max(5);
        let keys = ["k0", "k1", "k2", "k1", "k3"];
        let batch: RecordBatch = keys.iter().map(|k| keyed(k, "v", 1)).collect();
        log.append_kept(LeaderEpoch(1), &batch, |_| true);
        log.append(LeaderEpoch(1), keyed("k3", "v", 2));
        log.advance_high_watermark(Offset(6));
        log.compact();
        assert_eq!(shape(&log), [vec![(0, 1, 1), (2, 2, 1)], vec![(5, 1, 1)]]);
        assert!(log.segments()[0]
            .runs
            .iter()
            .all(|r| r.batch.same_storage(&batch)));
    }

    #[test]
    fn an_aborted_range_splits_a_run_for_a_read_committed_reader() {
        let mut log = PartitionLog::new();
        let batch = batch_of(8);
        log.append_kept(LeaderEpoch(1), &batch, |_| true);
        let aborted = Offset(3)..Offset(5);
        let mut served = Vec::new();
        for run in &log.read_entries(Offset(1), 10, false) {
            split_run(run, |o, _| !aborted.contains(&o), |part| served.push(part));
        }
        let spans: Vec<(u64, usize)> = served.iter().map(|r| (r.base.0, r.len())).collect();
        assert_eq!(spans, [(1, 2), (5, 3)]);
        assert!(served.iter().all(|r| r.batch.same_storage(&batch)));
        // A run wholly inside the range leaves nothing; wholly outside, itself.
        let mut none = Vec::new();
        let inner = log.read_entries(Offset(3), 2, false);
        split_run(&inner[0], |o, _| !aborted.contains(&o), |p| none.push(p));
        assert!(none.is_empty());
        let mut all = Vec::new();
        split_run(&served[1], |_, _| true, |p| all.push(p));
        assert_eq!(all, [served[1].clone()]);
    }

    #[test]
    fn a_partially_deduplicated_retry_is_stored_as_views_at_contiguous_offsets() {
        let mut log = PartitionLog::new();
        log.append(LeaderEpoch(1), rec("before"));
        let retry = batch_of(6);
        // Records 0, 1 and 4 were appended before: only 2, 3 and 5 are new.
        let fresh = |r: RecordRef<'_>| !["0", "1", "4"].contains(&&*r.value_utf8());
        assert_eq!(
            log.append_kept(LeaderEpoch(2), &retry, fresh),
            (Offset(1), 3)
        );
        assert_eq!(shape(&log), [vec![(0, 1, 1), (1, 2, 2), (3, 1, 2)]]);
        let runs = &log.segments()[0].runs[1..];
        assert!(runs.iter().all(|r| r.batch.same_storage(&retry)));
        let values: Vec<String> = read(&log, Offset(1), 10, false)
            .iter()
            .map(Record::value_utf8)
            .collect();
        assert_eq!(values, ["2", "3", "5"]);
        // An all-duplicate retry appends nothing.
        assert_eq!(
            log.append_kept(LeaderEpoch(2), &retry, |_| false),
            (Offset(4), 0)
        );
        assert_eq!(log.log_end(), Offset(4));
    }

    /// `LogSegment::encode` of a fixed append sequence (a roll mid-batch,
    /// two epochs, a compaction hole) is byte-for-byte what the format
    /// wrote when the log held one entry per record.
    #[test]
    fn segment_encoding_is_unchanged_by_runs() {
        let keyed = |k: &str, v: &str, ms: u64, seq: u64| {
            Record::new(k.to_string(), v.to_string(), SimTime::from_millis(ms))
                .from_producer(s2g_proto::ProducerId(3), seq)
                .with_producer_epoch(1)
        };
        let mut log = PartitionLog::with_segment_max(4);
        log.append_batch(
            LeaderEpoch(1),
            [
                keyed("a", "a1", 5, 0),
                keyed("b", "b1", 4, 1),
                keyed("a", "a2", 6, 2),
            ],
        );
        log.append_batch(
            LeaderEpoch(2),
            [
                keyed("c", "c1", 9, 3),
                keyed("b", "b2", 7, 4),
                keyed("a", "a3", 8, 5),
            ],
        );
        log.append(
            LeaderEpoch(2),
            Record::keyless("z", SimTime::from_millis(10)),
        );
        log.advance_high_watermark(Offset(7));
        log.compact();
        let golden = [
            "0300000000000000000400000000000000404b4c000000000001000000020380a4e803010100000063\
             020000006331030103",
            "0304000000000000000700000000000000c0cf6a000000000003000000020000010100000062020000\
             006232030104020180897a0101000000610200000061330301050202809bee0200010000007a000000",
        ];
        let hex = |b: Vec<u8>| b.iter().map(|b| format!("{b:02x}")).collect::<String>();
        let encoded: Vec<String> = log.segments().iter().map(|s| hex(s.encode())).collect();
        assert_eq!(encoded, golden.map(|g| g.replace(' ', "")));
    }

    #[test]
    fn append_assigns_sequential_offsets() {
        let mut log = PartitionLog::new();
        assert_eq!(log.append(LeaderEpoch(0), rec("a")), Offset(0));
        assert_eq!(log.append(LeaderEpoch(0), rec("b")), Offset(1));
        assert_eq!(
            log.append_batch(LeaderEpoch(1), [rec("c"), rec("d")]),
            Offset(2)
        );
        assert_eq!(log.log_end(), Offset(4));
        assert_eq!(log.len(), 4);
    }

    #[test]
    fn committed_reads_stop_at_high_watermark() {
        let mut log = PartitionLog::new();
        log.append_batch(LeaderEpoch(0), [rec("a"), rec("b"), rec("c")]);
        assert!(read(&log, Offset(0), 10, true).is_empty());
        log.advance_high_watermark(Offset(2));
        let committed = read(&log, Offset(0), 10, true);
        assert_eq!(committed.len(), 2);
        let all = read(&log, Offset(0), 10, false);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn read_respects_max_and_from() {
        let mut log = PartitionLog::new();
        log.append_batch(LeaderEpoch(0), (0..10).map(|i| rec(&i.to_string())));
        log.advance_high_watermark(Offset(10));
        let r = read(&log, Offset(4), 3, true);
        assert_eq!(r.len(), 3);
        assert_eq!(r[0].value_utf8(), "4");
        assert!(read(&log, Offset(10), 5, true).is_empty());
        assert!(read(&log, Offset(99), 5, false).is_empty());
    }

    #[test]
    fn segments_roll_and_reads_span_them() {
        let mut log = PartitionLog::with_segment_max(4);
        log.append_batch(LeaderEpoch(0), (0..10).map(|i| rec(&i.to_string())));
        assert_eq!(log.segment_count(), 3);
        assert_eq!(log.segments()[0].base_offset(), Offset(0));
        assert_eq!(log.segments()[1].base_offset(), Offset(4));
        assert_eq!(log.segments()[2].base_offset(), Offset(8));
        log.advance_high_watermark(Offset(10));
        let r = read(&log, Offset(2), 6, true);
        assert_eq!(r.len(), 6);
        assert_eq!(r[0].value_utf8(), "2");
        assert_eq!(r[5].value_utf8(), "7");
        assert_eq!(log.epoch_at(Offset(9)), Some(LeaderEpoch(0)));
        assert_eq!(log.len(), 10);
    }

    #[test]
    fn purging_most_of_a_long_log_gives_back_its_segment_slots() {
        let mut log = PartitionLog::with_segment_max(2);
        log.append_batch(LeaderEpoch(0), (0..2_000).map(|i| rec(&i.to_string())));
        log.advance_high_watermark(Offset(2_000));
        assert_eq!(log.segment_count(), 1_000);
        assert!(log.segments.capacity() >= 1_000);
        let mut dropped = Vec::new();
        assert!(log.purge_to(Offset(1_990), |seg| dropped.push(seg.base_offset())));
        assert_eq!(dropped, (0..995).map(|i| Offset(2 * i)).collect::<Vec<_>>());
        assert_eq!(log.segment_count(), 5);
        assert_eq!(log.log_start(), Offset(1_990));
        assert!(
            log.segments.capacity() <= 10,
            "{} slots",
            log.segments.capacity()
        );
        // What is left reads as before.
        let r = read(&log, Offset(1_990), 20, true);
        assert_eq!(r.len(), 10);
        assert_eq!(r[0].value_utf8(), "1990");
    }

    #[test]
    fn high_watermark_never_regresses() {
        let mut log = PartitionLog::new();
        log.append_batch(LeaderEpoch(0), [rec("a"), rec("b")]);
        log.advance_high_watermark(Offset(2));
        log.advance_high_watermark(Offset(1));
        assert_eq!(log.high_watermark(), Offset(2));
    }

    #[test]
    fn truncation_discards_the_tail_and_counts_it() {
        let mut log = PartitionLog::new();
        log.append_batch(LeaderEpoch(0), [rec("a"), rec("b")]);
        log.append_batch(LeaderEpoch(1), [rec("x"), rec("y")]);
        log.advance_high_watermark(Offset(4));
        let bytes_before = log.retained_bytes();
        let n = log.truncate_to(Offset(2));
        assert_eq!(n, 2);
        assert_eq!(log.log_end(), Offset(2));
        assert_eq!(log.high_watermark(), Offset(2), "HW clamped to new end");
        let kept: Vec<String> = read(&log, Offset(0), 10, false)
            .iter()
            .map(Record::value_utf8)
            .collect();
        assert_eq!(kept, ["a", "b"]);
        assert!(log.retained_bytes() < bytes_before);
        // Truncating beyond the end is a no-op.
        assert_eq!(log.truncate_to(Offset(100)), 0);
    }

    #[test]
    fn truncation_spans_segments() {
        let mut log = PartitionLog::with_segment_max(3);
        log.append_batch(LeaderEpoch(0), (0..8).map(|i| rec(&i.to_string())));
        assert_eq!(log.segment_count(), 3);
        let n = log.truncate_to(Offset(2));
        assert_eq!(n, 6);
        assert_eq!(log.log_end(), Offset(2));
        assert_eq!(log.segment_count(), 1);
        let kept: Vec<String> = read(&log, Offset(0), 10, false)
            .iter()
            .map(Record::value_utf8)
            .collect();
        assert_eq!(kept, ["0", "1"]);
        // Appends continue at the truncation point.
        assert_eq!(log.append(LeaderEpoch(1), rec("z")), Offset(2));
    }

    #[test]
    fn end_offset_for_epoch_finds_boundaries() {
        let mut log = PartitionLog::new();
        log.append_batch(LeaderEpoch(0), [rec("a"), rec("b")]);
        log.append_batch(LeaderEpoch(2), [rec("c")]);
        assert_eq!(log.end_offset_for_epoch(LeaderEpoch(0)), Offset(2));
        assert_eq!(log.end_offset_for_epoch(LeaderEpoch(1)), Offset(2));
        assert_eq!(log.end_offset_for_epoch(LeaderEpoch(2)), Offset(3));
        let empty = PartitionLog::new();
        assert_eq!(empty.end_offset_for_epoch(LeaderEpoch(5)), Offset::ZERO);
    }

    #[test]
    fn retained_bytes_tracks_appends() {
        let mut log = PartitionLog::new();
        assert_eq!(log.retained_bytes(), 0);
        let r = rec("hello");
        let sz = r.encoded_len();
        log.append(LeaderEpoch(0), r);
        assert_eq!(log.retained_bytes(), sz);
    }

    #[test]
    fn segment_codec_round_trips() {
        let mut log = PartitionLog::with_segment_max(3);
        let keyed = Record::new("k1", "v1", SimTime::from_millis(5))
            .from_producer(s2g_proto::ProducerId(7), 42);
        log.append(LeaderEpoch(3), keyed);
        log.append(LeaderEpoch(4), rec("plain"));
        let seg = &log.segments()[0];
        let decoded = LogSegment::decode(&seg.encode()).expect("round trip");
        assert_eq!(decoded.base_offset(), seg.base_offset());
        assert_eq!(decoded.end_offset(), seg.end_offset());
        assert_eq!(decoded.len(), 2);
        let entries: Vec<_> = decoded.entries().collect();
        let (first, second) = (entries[0].2, entries[1].2);
        assert_eq!((entries[0].0, entries[0].1), (Offset(0), LeaderEpoch(3)));
        assert_eq!(first.key(), Some(&b"k1"[..]));
        assert_eq!(first.producer_seq(), 42);
        assert_eq!((entries[1].0, entries[1].1), (Offset(1), LeaderEpoch(4)));
        assert_eq!(second.value_utf8(), "plain");
        assert_eq!(decoded.bytes(), seg.bytes());
        // Replay splits runs by epoch, over one record set.
        assert_eq!(decoded.runs.len(), 2);
        assert!(decoded.runs[0].batch.same_storage(&decoded.runs[1].batch));
        // The replayed records are views of one copy of the blob, in blob
        // order; every strict prefix is rejected, never sliced past.
        let blob = seg.encode();
        let views = [first.value(), second.value()];
        let gap = views[1].as_ptr() as usize - views[0].as_ptr() as usize;
        assert!((views[0].len()..blob.len()).contains(&gap));
        for cut in 0..blob.len() {
            assert!(LogSegment::decode(&blob[..cut]).is_err(), "cut {cut}");
        }
        // Garbage is rejected, not mis-decoded.
        assert!(LogSegment::decode(&[1, 2, 3]).is_err());
        // So is any version but the current one, the retired v2 included.
        let mut other_version = seg.encode();
        for v in [0, 2, SEGMENT_CODEC_VERSION + 1] {
            other_version[0] = v;
            let got = LogSegment::decode(&other_version).map(|s| s.len());
            assert_eq!(got, Err(CodecError::BadTag(v)), "version {v}");
        }
    }

    #[test]
    fn bytes_past_the_last_entry_are_rejected() {
        // A valid segment followed by junk once decoded as the segment
        // alone.
        let mut log = PartitionLog::new();
        log.append_batch(LeaderEpoch(1), [rec("a"), keyed("k", "b", 3)]);
        let mut blob = log.segments()[0].encode();
        let back = LogSegment::decode(&blob).expect("a valid segment");
        assert_eq!(back.encode(), blob);
        blob.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        let got = LogSegment::decode(&blob).map(|s| s.len());
        assert_eq!(got, Err(CodecError::Trailing));
    }

    #[test]
    fn segments_the_encoder_never_writes_are_rejected() {
        let mut log = PartitionLog::new();
        log.append_batch(LeaderEpoch(1), [keyed("k", "v", 3), rec("plain")]);
        let blob = log.segments()[0].encode();
        // The header is 29 B; then the first entry's epoch, offset delta,
        // timestamp delta and key flag.
        assert_eq!(blob[29..33], [1, 0, 0, 1]);
        let mut flag_2 = blob.clone();
        flag_2[32] = 2;
        let got = LogSegment::decode(&flag_2).map(|s| s.len());
        assert_eq!(got, Err(CodecError::BadTag(2)), "key flag 2");
        // Epoch 1 written in two bytes, `81 00`.
        let long_epoch = [&blob[..29], &[0x81, 0x00], &blob[30..]].concat();
        let got = LogSegment::decode(&long_epoch).map(|s| s.len());
        assert_eq!(got, Err(CodecError::BadVarint), "epoch varint 81 00");
        // The second record's offset written at the first's.
        let mut repeated = blob;
        let second = 33 + 4 + 1 + 4 + 1 + 3;
        assert_eq!(repeated[second..second + 2], [1, 1], "epoch 1, delta 1");
        repeated[second + 1] = 0;
        let got = LogSegment::decode(&repeated).map(|s| s.len());
        assert_eq!(got, Err(CodecError::NonCanonical), "a repeated offset");
    }

    #[test]
    fn meta_codec_round_trips() {
        let meta = BrokerLogMeta {
            partitions: vec![
                (
                    TopicPartition::new("ta", 0),
                    Offset(7),
                    Offset(3),
                    vec![0, 128],
                ),
                (TopicPartition::new("tb", 2), Offset(0), Offset(0), vec![]),
            ],
            group_offsets: vec![("g1".into(), TopicPartition::new("ta", 0), Offset(5))],
            reclaimed_bytes: 4096,
            txns: vec![(
                TopicPartition::new("ta", 0),
                vec![(7, 3, 10, 14, 1)],
                vec![(2, 5)],
            )],
        };
        let back = BrokerLogMeta::decode(&meta.encode()).expect("round trip");
        assert_eq!(back, meta);
        assert!(BrokerLogMeta::decode(&[0xff]).is_err());
        let mut trailing = meta.encode();
        trailing.push(0);
        assert_eq!(BrokerLogMeta::decode(&trailing), Err(CodecError::Trailing));
    }

    #[test]
    fn meta_decode_rejects_truncations_and_saturated_counts() {
        // Four bytes claiming 2^32 - 1 partitions once aborted the process
        // on a 256 GiB allocation.
        assert!(BrokerLogMeta::decode(&[0xff; 4]).is_err());
        let tp = TopicPartition::new("t", 0);
        let meta = BrokerLogMeta {
            partitions: vec![(tp.clone(), Offset(7), Offset(3), vec![128])],
            group_offsets: vec![("g".into(), tp.clone(), Offset(5))],
            reclaimed_bytes: 4096,
            txns: vec![(tp, vec![(7, 3, 10, 14, 1)], vec![(2, 5)])],
        };
        let blob = meta.encode();
        for cut in 0..blob.len() {
            assert!(BrokerLogMeta::decode(&blob[..cut]).is_err(), "cut {cut}");
        }
        // Where each count sits: partitions, bases, groups, partitions with
        // transactions, open transactions, aborted ranges ("t" and "g" are
        // 5-byte strings).
        let counts = [0, 29, 41, 75, 88, 124];
        for at in counts {
            let field: [u8; 4] = blob[at..at + 4].try_into().expect("in the blob");
            assert_eq!(u32::from_le_bytes(field), 1, "a count of one at {at}");
            let mut saturated = blob.clone();
            saturated[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(BrokerLogMeta::decode(&saturated).is_err(), "count at {at}");
        }
    }

    #[test]
    fn dirty_tracking_feeds_flushes() {
        let mut log = PartitionLog::with_segment_max(2);
        log.append_batch(LeaderEpoch(0), [rec("a"), rec("b"), rec("c")]);
        assert!(log.has_dirty_segments());
        let dirty = log.take_dirty_segments();
        assert_eq!(dirty.len(), 2, "both segments were touched");
        assert_eq!(dirty[0].0, 0);
        assert_eq!(dirty[1].0, 2);
        assert!(!log.has_dirty_segments());
        // Appending again only dirties the active segment.
        log.append(LeaderEpoch(0), rec("d"));
        let dirty = log.take_dirty_segments();
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].0, 2);
    }

    #[test]
    fn recovered_segments_rebuild_the_log() {
        let mut log = PartitionLog::with_segment_max(3);
        log.append_batch(LeaderEpoch(1), (0..7).map(|i| rec(&i.to_string())));
        log.advance_high_watermark(Offset(6));
        let bases: Vec<u64> = log.segments().iter().map(|s| s.base).collect();
        let segments: Vec<LogSegment> = log
            .segments()
            .iter()
            .map(|s| LogSegment::decode(&s.encode()).expect("decodes"))
            .collect();
        let rebuilt =
            PartitionLog::from_recovered_segments(segments, Offset(6), Offset::ZERO, &bases, 3);
        assert_eq!(rebuilt.log_end(), log.log_end());
        assert_eq!(rebuilt.high_watermark(), Offset(6));
        assert_eq!(rebuilt.retained_bytes(), log.retained_bytes());
        let all = read(&rebuilt, Offset(0), 100, false);
        assert_eq!(all.len(), 7);
        assert_eq!(all[6].value_utf8(), "6");
        // A watermark beyond the recovered end is clamped.
        let clamped =
            PartitionLog::from_recovered_segments(vec![], Offset(99), Offset::ZERO, &[], 3);
        assert_eq!(clamped.high_watermark(), Offset::ZERO);
    }

    #[test]
    fn recovery_truncates_at_a_manifest_hole() {
        // A lost flush can leave a manifest-listed blob missing from the
        // backend; the recoverable log ends at the gap, and reads never
        // panic.
        let mut log = PartitionLog::with_segment_max(3);
        log.append_batch(LeaderEpoch(0), (0..9).map(|i| rec(&i.to_string())));
        log.advance_high_watermark(Offset(9));
        let bases: Vec<u64> = log.segments().iter().map(|s| s.base).collect();
        let mut segments: Vec<LogSegment> = log
            .segments()
            .iter()
            .map(|s| LogSegment::decode(&s.encode()).expect("decodes"))
            .collect();
        segments.remove(1); // the middle blob never made it to the backend
        let rebuilt =
            PartitionLog::from_recovered_segments(segments, Offset(9), Offset::ZERO, &bases, 3);
        assert_eq!(rebuilt.log_end(), Offset(3), "log ends at the gap");
        assert_eq!(rebuilt.high_watermark(), Offset(3), "HW clamped to it");
        assert_eq!(read(&rebuilt, Offset(0), 100, false).len(), 3);
        assert!(read(&rebuilt, Offset(5), 100, false).is_empty());
    }

    /// A fresh segment fed copies of `seg`'s records one by one (same
    /// range and timestamp base): what the log would hold had it never been
    /// cut, nor stored views of shared batches.
    fn rebuilt(seg: &LogSegment) -> LogSegment {
        let mut fresh = LogSegment::new(seg.base);
        for (base, epoch, record) in seg.entries() {
            let batch = RecordBatch::from_records(vec![record.to_record()]);
            fresh.push(LogRun { base, epoch, batch });
        }
        fresh.end = seg.end;
        fresh.base_ts = seg.base_ts;
        fresh
    }

    /// Every segment's flush bytes depend on its entries alone, survive a
    /// decode/encode round trip, and agree with its byte accounting.
    fn assert_encodings_consistent(log: &PartitionLog, when: &str) {
        for seg in log.segments() {
            let bytes = seg.encode();
            assert_eq!(bytes, rebuilt(seg).encode(), "{when}: base {}", seg.base);
            let back = LogSegment::decode(&bytes).expect("decodes");
            assert_eq!(back.encode(), bytes, "{when}: base {}", seg.base);
            assert_eq!(back.base_offset(), seg.base_offset());
            assert_eq!(back.end_offset(), seg.end_offset());
            assert_eq!(back.bytes(), seg.bytes());
            let triples = |s: &LogSegment| -> Vec<(Offset, LeaderEpoch, Record)> {
                s.entries().map(|(o, e, r)| (o, e, r.to_record())).collect()
            };
            assert_eq!(triples(&back), triples(seg), "{when}: base {}", seg.base);
        }
        let held: usize = log.segments().iter().map(LogSegment::bytes).sum();
        assert_eq!(held, log.retained_bytes(), "{when}: byte accounting");
    }

    #[test]
    fn encodings_follow_the_entries_through_every_mutation() {
        let mut log = PartitionLog::with_segment_max(3);
        for i in 0..11u64 {
            log.append(
                LeaderEpoch(i / 4),
                keyed(&format!("k{}", i % 4), &i.to_string(), i * 1_000),
            );
        }
        assert_encodings_consistent(&log, "push");
        // Flushing changes nothing a later flush would write.
        let first_flush = log.take_dirty_segments();
        assert_eq!(first_flush.len(), 4);
        for (seg, (base, bytes)) in log.segments().iter().zip(&first_flush) {
            assert_eq!((seg.base, &seg.encode()), (*base, bytes));
        }
        // Cut into a flushed segment, then append past the cut.
        log.truncate_to(Offset(10));
        log.append(LeaderEpoch(3), keyed("k1", "z", 20_000));
        assert_encodings_consistent(&log, "truncate_to + push");
        // Retention drops whole sealed segments.
        log.advance_high_watermark(Offset(9));
        let retired = log.apply_retention(
            SimTime::from_secs(100),
            Some(SimDuration::from_secs(97)),
            None,
        );
        assert_eq!(retired.dropped_segment_bases, vec![0]);
        assert_encodings_consistent(&log, "apply_retention");
        // Compaction leaves offset holes and removes a segment's first
        // entry; the timestamp base stays pinned.
        let cleaned = log.compact();
        assert_eq!(cleaned.removed_records, 2, "offsets 3 and 4 are shadowed");
        let first = log.segments()[0].entries().next().map(|(o, _, _)| o);
        assert_eq!(first, Some(Offset(5)));
        assert_encodings_consistent(&log, "compact");
        let dirty: Vec<u64> = log.take_dirty_segments().iter().map(|d| d.0).collect();
        assert_eq!(dirty, vec![3, 9], "the compacted and the re-cut segment");
        // Recovery from the flushed blobs, then more appends on the
        // recovered tail.
        let bases: Vec<u64> = log.segments().iter().map(|s| s.base).collect();
        let blobs: Vec<LogSegment> = log
            .segments()
            .iter()
            .map(|s| LogSegment::decode(&s.encode()).expect("decodes"))
            .collect();
        let mut recovered = PartitionLog::from_recovered_segments(
            blobs,
            log.high_watermark(),
            log.log_start(),
            &bases,
            3,
        );
        assert!(!recovered.has_dirty_segments(), "recovered blobs are clean");
        for (a, b) in recovered.segments().iter().zip(log.segments()) {
            assert_eq!(a.encode(), b.encode(), "recovery: base {}", a.base);
        }
        recovered.append(LeaderEpoch(4), keyed("k0", "after", 30_000));
        log.append(LeaderEpoch(4), keyed("k0", "after", 30_000));
        assert_encodings_consistent(&recovered, "recovery + push");
        let tail = |l: &mut PartitionLog| l.take_dirty_segments().pop().expect("dirty tail");
        assert_eq!(tail(&mut recovered), tail(&mut log));
    }

    #[test]
    fn compaction_keeps_latest_per_key() {
        let mut log = PartitionLog::with_segment_max(2);
        log.append(LeaderEpoch(0), keyed("a", "a1", 1)); // 0 — shadowed
        log.append(LeaderEpoch(0), keyed("b", "b1", 2)); // 1 — shadowed
        log.append(LeaderEpoch(0), keyed("a", "a2", 3)); // 2 — shadowed by 4
        log.append(LeaderEpoch(0), rec("nokey")); // 3 — keyless, kept
        log.append(LeaderEpoch(0), keyed("a", "a3", 5)); // 4 — latest a
        log.append(LeaderEpoch(0), keyed("b", "b2", 6)); // 5 — latest b (active)
        log.advance_high_watermark(Offset(6));
        let before = log.retained_bytes();
        let out = log.compact();
        assert_eq!(out.removed_records, 3);
        assert!(out.reclaimed_bytes > 0);
        assert_eq!(out.dropped_segment_bases, vec![0], "segment [0,2) emptied");
        assert!(log.retained_bytes() < before);
        assert_eq!(log.reclaimed_bytes(), out.reclaimed_bytes);
        // Offsets survive: reader sees keyless@3, a3@4, b2@5.
        assert_eq!(
            offsets(&log.read_entries(Offset(0), 10, true)),
            vec![3, 4, 5]
        );
        assert_eq!(read(&log, Offset(0), 10, true)[1].value_utf8(), "a3");
        // A second pass is a no-op.
        assert!(log.compact().is_noop());
    }

    #[test]
    fn compaction_never_touches_uncommitted_or_active_entries() {
        let mut log = PartitionLog::with_segment_max(2);
        log.append(LeaderEpoch(0), keyed("k", "v1", 1)); // 0
        log.append(LeaderEpoch(0), keyed("k", "v2", 2)); // 1
        log.append(LeaderEpoch(0), keyed("k", "v3", 3)); // 2 — above HW
        log.advance_high_watermark(Offset(2));
        let out = log.compact();
        // Only offset 0 is compactable (sealed, below HW, shadowed).
        assert_eq!(out.removed_records, 1);
        assert_eq!(offsets(&log.read_entries(Offset(0), 10, false)), vec![1, 2]);
    }

    #[test]
    fn compacted_log_round_trips_through_recovery() {
        let mut log = PartitionLog::with_segment_max(2);
        for i in 0..8u64 {
            log.append(
                LeaderEpoch(0),
                keyed(&format!("k{}", i % 2), &i.to_string(), i),
            );
        }
        log.advance_high_watermark(Offset(8));
        log.compact();
        let bases: Vec<u64> = log.segments().iter().map(|s| s.base).collect();
        let segments: Vec<LogSegment> = log
            .segments()
            .iter()
            .map(|s| LogSegment::decode(&s.encode()).expect("decodes"))
            .collect();
        let rebuilt = PartitionLog::from_recovered_segments(
            segments,
            log.high_watermark(),
            log.log_start(),
            &bases,
            2,
        );
        assert_eq!(rebuilt.log_end(), log.log_end());
        let a = offsets(&log.read_entries(Offset(0), 100, false));
        let b = offsets(&rebuilt.read_entries(Offset(0), 100, false));
        assert_eq!(a, b, "recovered compacted log serves identical offsets");
    }

    #[test]
    fn retention_drops_old_committed_segments() {
        let mut log = PartitionLog::with_segment_max(2);
        for i in 0..6u64 {
            log.append(
                LeaderEpoch(0),
                Record::keyless(i.to_string(), SimTime::from_secs(i)),
            );
        }
        log.advance_high_watermark(Offset(4)); // segment [4,6) uncommitted
        let out = log.apply_retention(
            SimTime::from_secs(100),
            Some(SimDuration::from_secs(50)),
            None,
        );
        // Segments [0,2) (newest record t=1s) and [2,4) (t=3s) both expired;
        // [4,6) is the active segment and stays.
        assert_eq!(out.dropped_segment_bases, vec![0, 2]);
        assert_eq!(out.removed_records, 4);
        assert_eq!(log.log_start(), Offset(4));
        assert_eq!(log.log_end(), Offset(6));
        assert!(read(&log, Offset(0), 10, false).len() == 2);
        // Appends continue past retention.
        assert_eq!(log.append(LeaderEpoch(0), rec("z")), Offset(6));
    }

    #[test]
    fn size_retention_bounds_retained_bytes() {
        let mut log = PartitionLog::with_segment_max(4);
        for i in 0..16u64 {
            log.append(
                LeaderEpoch(0),
                Record::keyless(vec![0u8; 100], SimTime::from_secs(i)),
            );
        }
        log.advance_high_watermark(Offset(16));
        let cap = log.retained_bytes() / 2;
        let out = log.apply_retention(SimTime::from_secs(20), None, Some(cap));
        assert!(!out.dropped_segment_bases.is_empty());
        assert!(log.retained_bytes() <= cap);
        assert!(log.log_start() > Offset::ZERO);
    }

    #[test]
    fn fetch_at_exact_log_start_after_retention() {
        // Retention advanced the log start; a fetch at exactly that offset
        // must serve the first retained record, and one below it must serve
        // from the start without panicking — including when only the single
        // active segment remains.
        let mut log = PartitionLog::with_segment_max(2);
        for i in 0..6u64 {
            log.append(
                LeaderEpoch(0),
                Record::keyless(i.to_string(), SimTime::from_secs(i)),
            );
        }
        log.advance_high_watermark(Offset(6));
        log.apply_retention(
            SimTime::from_secs(100),
            Some(SimDuration::from_secs(50)),
            None,
        );
        assert_eq!(log.log_start(), Offset(4));
        assert_eq!(log.segment_count(), 1, "only the active segment remains");
        assert_eq!(offsets(&log.read_entries(Offset(4), 10, true)), [4, 5]);
        // Below the start: the log serves what it has (the broker layer
        // turns this into an OffsetOutOfRange reset).
        let below = log.read_entries(Offset(0), 10, true);
        assert_eq!(below.first().map(|r| r.base), Some(Offset(4)));
        // At the end: empty, no panic.
        assert!(log.read_entries(Offset(6), 10, true).is_empty());
    }

    #[test]
    fn compact_then_fetch_first_offset() {
        // Compaction empties and drops the first sealed segment; a fetch at
        // offset 0 must skip the hole and serve the survivors.
        let mut log = PartitionLog::with_segment_max(2);
        log.append(LeaderEpoch(0), keyed("k", "v1", 1)); // 0
        log.append(LeaderEpoch(0), keyed("k", "v2", 2)); // 1
        log.append(LeaderEpoch(0), keyed("k", "v3", 3)); // 2
        log.append(LeaderEpoch(0), keyed("k", "v4", 4)); // 3
        log.append(LeaderEpoch(0), keyed("k", "v5", 5)); // 4 (active)
        log.advance_high_watermark(Offset(5));
        let out = log.compact();
        assert!(out.dropped_segment_bases.contains(&0), "segment 0 emptied");
        let from_zero = log.read_entries(Offset(0), 10, true);
        assert!(!from_zero.is_empty(), "fetch at 0 skips the dropped prefix");
        assert!(from_zero[0].base > Offset(0));
        // Recovery of the compacted shape keeps serving the same offsets.
        let bases: Vec<u64> = log.segments().iter().map(|s| s.base).collect();
        let segments: Vec<LogSegment> = log
            .segments()
            .iter()
            .map(|s| LogSegment::decode(&s.encode()).expect("decodes"))
            .collect();
        let rebuilt = PartitionLog::from_recovered_segments(
            segments,
            log.high_watermark(),
            log.log_start(),
            &bases,
            2,
        );
        let b = offsets(&rebuilt.read_entries(Offset(0), 10, true));
        assert_eq!(offsets(&from_zero), b);
    }

    #[test]
    fn truncation_below_log_start_is_clamped() {
        // After retention advances the start, a divergence truncation that
        // asks for an offset below it must clamp instead of regressing the
        // log end below the log start.
        let mut log = PartitionLog::with_segment_max(2);
        for i in 0..6u64 {
            log.append(
                LeaderEpoch(0),
                Record::keyless(i.to_string(), SimTime::from_secs(i)),
            );
        }
        log.advance_high_watermark(Offset(6));
        log.apply_retention(
            SimTime::from_secs(100),
            Some(SimDuration::from_secs(50)),
            None,
        );
        assert_eq!(log.log_start(), Offset(4));
        let n = log.truncate_to(Offset(1));
        assert_eq!(n, 2, "only the retained suffix is dropped");
        assert_eq!(log.log_end(), Offset(4), "end clamps at the log start");
        assert!(log.log_end() >= log.log_start(), "range never inverts");
        // Appends continue at the clamped end.
        assert_eq!(log.append(LeaderEpoch(1), rec("z")), Offset(4));
    }

    /// A one-record run at `offset`.
    fn run_of(offset: u64, epoch: u64, record: Record) -> LogRun {
        LogRun {
            base: Offset(offset),
            epoch: LeaderEpoch(epoch),
            batch: RecordBatch::from_records(vec![record]),
        }
    }

    #[test]
    fn replication_append_run_preserves_leader_offsets() {
        // Leader compacted: serves offsets 3, 5, 7. The follower must land
        // them at the same offsets.
        let mut follower = PartitionLog::with_segment_max(4);
        assert_eq!(follower.append_run(run_of(3, 1, rec("x"))), 1);
        assert_eq!(follower.append_run(run_of(5, 1, rec("y"))), 1);
        assert_eq!(follower.append_run(run_of(7, 2, rec("z"))), 1);
        assert_eq!(follower.log_end(), Offset(8));
        assert_eq!(follower.len(), 3);
        assert_eq!(follower.epoch_at(Offset(5)), Some(LeaderEpoch(1)));
        assert_eq!(follower.epoch_at(Offset(4)), None, "hole stays a hole");
        // Duplicate responses are no-ops, not double-appends.
        assert_eq!(follower.append_run(run_of(5, 1, rec("dup"))), 0);
        assert_eq!(follower.len(), 3);
    }

    /// `read_entries` by a walk over every record: the reference its
    /// segment and run bisections must agree with.
    fn read_entries_by_scan(
        log: &PartitionLog,
        from: Offset,
        max: usize,
        committed_only: bool,
    ) -> Vec<u64> {
        let end = if committed_only {
            log.high_watermark()
        } else {
            log.log_end()
        };
        let held = log.entries().map(|(o, _, _)| o);
        let wanted = held.filter(|o| (from..end).contains(o)).take(max);
        wanted.map(Offset::value).collect()
    }

    /// Seeded sweep: logs grown by appends and follower runs past gaps,
    /// then cut by compaction, retention and truncation, read at random
    /// `(from, max, committed_only)` after every step. Each step changes
    /// the records held exactly as its operation says, and the tail-segment
    /// shortcut and the bisections return exactly what a walk over every
    /// record returns.
    #[test]
    fn read_entries_matches_a_scan_of_every_record() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let held = |log: &PartitionLog| -> Vec<(Offset, LeaderEpoch, Record)> {
            log.entries()
                .map(|(o, e, r)| (o, e, r.to_record()))
                .collect()
        };
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let (mut reads, mut non_empty, mut holey) = (0u32, 0u32, 0u32);
        for case in 0..60 {
            let mut log = PartitionLog::with_segment_max(rng.gen_range(2..9));
            let mut ts = 0u64;
            for step in 0..40 {
                let (before, hw) = (held(&log), log.high_watermark());
                let kept = |keep: &dyn Fn(Offset) -> bool| {
                    let kept = before.iter().filter(|(o, _, _)| keep(*o));
                    kept.cloned().collect::<Vec<_>>()
                };
                match rng.gen_range(0..10) {
                    // Leader-style appends: a batch at contiguous offsets.
                    0..=4 => {
                        let mut batch = Vec::new();
                        for _ in 0..rng.gen_range(1..6) {
                            ts += 1_000;
                            let key = format!("k{}", rng.gen_range(0..5));
                            batch.push(keyed(&key, "v", ts));
                        }
                        let n = batch.len();
                        log.append_batch(LeaderEpoch(step / 10), batch);
                        let after = held(&log);
                        assert!(after.starts_with(&before) && after.len() == before.len() + n);
                    }
                    // Follower-style append past a gap (a compacted leader).
                    5 => {
                        let at = log.log_end().value() + rng.gen_range(0..4u64);
                        ts += 1_000;
                        log.append_run(run_of(at, step / 10, keyed("gap", "v", ts)));
                        let after = held(&log);
                        assert!(after.starts_with(&before) && after.len() == before.len() + 1);
                    }
                    6 => {
                        let hw =
                            rng.gen_range(log.high_watermark().value()..=log.log_end().value());
                        log.advance_high_watermark(Offset(hw));
                    }
                    7 => {
                        log.compact();
                        // Only committed keyed records go, the rest in order.
                        let after = held(&log);
                        let mut left = after.iter().peekable();
                        for entry in &before {
                            if left.next_if(|a| *a == entry).is_none() {
                                assert!(entry.0 < hw && entry.2.key.is_some(), "case {case}");
                            }
                        }
                        assert!(left.next().is_none(), "case {case}: compaction added");
                    }
                    // Retention or a purge: whole segments go from the head.
                    // Retention moves the start to the end of the last
                    // segment it dropped. A purge moves it to its bound,
                    // clamped to the watermark and never back, and drops
                    // exactly the sealed segments wholly below it.
                    8 => {
                        let start = log.log_start();
                        let spans = |log: &PartitionLog| -> Vec<(u64, u64)> {
                            log.segments().iter().map(|s| (s.base, s.end)).collect()
                        };
                        let segs = spans(&log);
                        let want = if rng.gen_bool(0.5) {
                            let age = SimDuration::from_millis(rng.gen_range(1..20));
                            let out =
                                log.apply_retention(SimTime::from_millis(ts), Some(age), None);
                            let n = out.dropped_segment_bases.len();
                            let bases: Vec<u64> = segs[..n].iter().map(|s| s.0).collect();
                            assert_eq!(out.dropped_segment_bases, bases, "case {case}");
                            match n {
                                0 => start,
                                n => start.max(Offset(segs[n - 1].1)),
                            }
                        } else {
                            let bound = Offset(rng.gen_range(0..=log.log_end().value() + 2));
                            let moved = log.purge_to(bound, |_| {});
                            let want = start.max(bound.min(hw));
                            assert_eq!(moved, want > start, "case {case}");
                            let n = segs.len() - log.segment_count();
                            let sealed = &segs[..segs.len() - 1];
                            let below = sealed.iter().take_while(|s| s.1 <= want.value());
                            assert_eq!(below.count(), n, "case {case}");
                            want
                        };
                        assert_eq!(log.log_start(), want, "case {case}");
                        let n = segs.len() - log.segment_count();
                        assert_eq!(spans(&log), segs[n..], "case {case}");
                        let first = log.segments()[0].base_offset();
                        assert_eq!(held(&log), kept(&|o| o >= first), "case {case}");
                    }
                    _ => {
                        let span = log.log_end().value() - log.log_start().value();
                        let to = Offset(log.log_start().value() + rng.gen_range(0..=span));
                        let dropped = before.iter().filter(|(o, _, _)| *o >= to).count();
                        assert_eq!(log.truncate_to(to), dropped, "case {case}");
                        assert_eq!(held(&log), kept(&|o| o < to), "case {case}");
                    }
                }
                let has_hole = |s: &LogSegment| (s.len() as u64) < s.end - s.base;
                for seg in log.segments() {
                    let held: usize = seg.runs.iter().map(LogRun::len).sum();
                    assert_eq!(held, seg.len(), "case {case} step {step}");
                    assert!(seg.runs.iter().all(|r| !r.is_empty()));
                    let ordered = seg.runs.windows(2).all(|w| w[0].end() <= w[1].base);
                    assert!(ordered, "case {case} step {step}: runs out of order");
                }
                holey += u32::from(log.segments().iter().any(has_hole));
                for _ in 0..12 {
                    let from = Offset(rng.gen_range(0..log.log_end().value() + 3));
                    let max = [0usize, 1, 2, 3, 7, 1_000][rng.gen_range(0..6usize)];
                    let committed_only = rng.gen_bool(0.5);
                    let got = offsets(&log.read_entries(from, max, committed_only));
                    let want = read_entries_by_scan(&log, from, max, committed_only);
                    assert_eq!(
                        got, want,
                        "case {case} step {step}: read({from}, {max}, {committed_only})"
                    );
                    reads += 1;
                    non_empty += u32::from(!got.is_empty());
                }
            }
        }
        // The sweep is not vacuous: most reads return entries, and a good
        // share ran against segments with holes.
        assert!(
            non_empty * 3 > reads,
            "{non_empty} of {reads} reads non-empty"
        );
        assert!(
            holey > 400,
            "{holey} of 2 400 steps saw a segment with holes"
        );
    }
}
