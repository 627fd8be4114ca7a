//! The replicated partition log, segmented, compactable, and recoverable.
//!
//! Each broker holds one [`PartitionLog`] per replica it hosts. Entries are
//! tagged with the leader epoch under which they were appended, which is how
//! divergence is detected and reconciled after a partition heals: the
//! rejoining old leader truncates its log to match the new leader, and any
//! suffix it accepted while isolated is discarded — acknowledged or not.
//! That truncation is precisely the ZooKeeper-era silent-loss mechanism the
//! paper reproduces in Fig. 6b.
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
//! Every entry carries its explicit offset, so the log tolerates holes:
//!
//! * [`PartitionLog::compact`] keeps only the latest record per key among
//!   committed (below-high-watermark) entries of sealed segments — Kafka's
//!   compacted-topic cleaner. Keyless records and the active segment are
//!   never touched, offsets never move, and readers see the same per-key
//!   final state as on the raw log.
//! * [`PartitionLog::apply_retention`] drops whole sealed, fully committed
//!   segments past a time or size bound, advancing the log start offset.
//!
//! Both report the segments they emptied so the broker can delete the dead
//! blobs through its blob client — replay cost after a restart is then
//! bounded by *live* data, not by history.

use std::collections::{BTreeMap, HashMap};

use bytes::Bytes;
use s2g_proto::codec::{put_str, put_u32, put_u64, put_u8, put_uvarint, Cursor};
use s2g_proto::{put_frame_record, read_frame_record, LeaderEpoch, Offset, Record, TopicPartition};
use s2g_sim::{SimDuration, SimTime};

/// One appended entry: the record, its explicit log offset, and the epoch
/// it was written under.
#[derive(Debug, Clone)]
pub struct LogEntry {
    /// The entry's log offset. Explicit (not derived from position) so
    /// compaction can remove neighbors without renumbering survivors.
    pub offset: Offset,
    /// Leader epoch at append time.
    pub epoch: LeaderEpoch,
    /// The record.
    pub record: Record,
}

/// Default record capacity of one log segment before the log rolls.
pub const DEFAULT_SEGMENT_MAX_RECORDS: usize = 128;

/// Version byte of the segment wire format: the shared batch-frame record
/// layout ([`put_frame_record`]) prefixed per entry with its leader epoch.
const SEGMENT_CODEC_VERSION: u8 = 3;

/// A run of log entries covering the offset range `[base, end)` — the unit
/// of persistence and replay. Compaction may leave holes inside the range;
/// the range itself never shrinks.
#[derive(Debug, Clone)]
pub struct LogSegment {
    base: u64,
    /// One past the highest offset ever assigned in this segment.
    end: u64,
    /// Timestamp base the per-entry deltas are encoded against; pinned to
    /// the first record pushed, so a flush encodes the same bytes whatever
    /// truncation or compaction removed in between.
    base_ts: SimTime,
    /// The one resident copy of each record. Flushing serializes from here
    /// on demand; only dirty segments (at most `segment_max_records`
    /// entries each) are ever encoded.
    entries: Vec<LogEntry>,
    bytes: usize,
    dirty: bool,
}

/// The most entries a segment reserves room for on its first append; a
/// log configured with larger segments grows them past this by doubling.
const SEGMENT_RESERVE_MAX: usize = 1024;

impl LogSegment {
    fn new(base: u64) -> Self {
        LogSegment {
            base,
            end: base,
            base_ts: SimTime::ZERO,
            entries: Vec::new(),
            bytes: 0,
            dirty: false,
        }
    }

    /// Appends an entry; `capacity` is the log's segment size, which the
    /// first append reserves at once (a segment that will hold 128 entries
    /// would otherwise grow there through six reallocations).
    fn push(&mut self, offset: u64, epoch: LeaderEpoch, record: Record, capacity: usize) {
        debug_assert!(offset >= self.end, "appends must advance the offset");
        if self.entries.is_empty() {
            self.base_ts = record.timestamp;
            if self.entries.capacity() == 0 {
                self.entries
                    .reserve_exact(capacity.min(SEGMENT_RESERVE_MAX));
            }
        }
        self.bytes += record.encoded_len();
        self.dirty = true;
        self.end = offset + 1;
        self.entries.push(LogEntry {
            offset: Offset(offset),
            epoch,
            record,
        });
    }

    /// First offset of the segment's range (set at roll time, fixed).
    pub fn base_offset(&self) -> Offset {
        Offset(self.base)
    }

    /// One past the highest offset ever assigned in the segment.
    pub fn end_offset(&self) -> Offset {
        Offset(self.end)
    }

    /// Number of entries held (compaction can make this smaller than the
    /// offset range).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the segment holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Record payload bytes held (framing included).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The entries held, in offset order.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Index of the first entry at an offset `>= offset`. A segment
    /// without holes (no compaction, no `append_at` gap: as many entries as
    /// offsets) holds offset `o` at index `o - base`, no search needed.
    fn first_at_or_after(&self, offset: u64) -> usize {
        if self.entries.len() as u64 == self.end - self.base {
            (offset.saturating_sub(self.base) as usize).min(self.entries.len())
        } else {
            self.entries.partition_point(|e| e.offset.value() < offset)
        }
    }

    /// Serializes the segment for persistence: a versioned header plus
    /// one frame per entry, encoded from the entries when a flush asks.
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
            u32::try_from(self.entries.len()).expect("segment entry count fits u32"),
        );
        for e in &self.entries {
            put_uvarint(&mut out, e.epoch.0);
            put_frame_record(
                &mut out,
                Offset(self.base),
                self.base_ts,
                e.offset,
                &e.record,
            );
        }
        out
    }

    /// Deserializes a segment written by [`encode`](LogSegment::encode).
    /// Returns `None` on truncated, malformed, or unknown-version input.
    pub fn decode(buf: &[u8]) -> Option<LogSegment> {
        // One copy into a shared buffer; every replayed record is a view of
        // it (and keeps it alive) instead of two allocations of its own.
        let frame = Bytes::copy_from_slice(buf);
        let mut cur = Cursor::new(&frame);
        if cur.u8()? != SEGMENT_CODEC_VERSION {
            return None;
        }
        let base = cur.u64()?;
        let end = cur.u64()?;
        let base_ts = SimTime::from_nanos(cur.u64()?);
        let count = cur.u32()? as usize;
        let mut entries = Vec::with_capacity(count.min(1 << 16));
        let mut bytes = 0;
        for _ in 0..count {
            let epoch = LeaderEpoch(cur.uvarint()?);
            let (offset, record) = read_frame_record(&frame, &mut cur, Offset(base), base_ts)?;
            bytes += record.encoded_len();
            entries.push(LogEntry {
                offset,
                epoch,
                record,
            });
        }
        Some(LogSegment {
            base,
            end,
            base_ts,
            entries,
            bytes,
            dirty: false,
        })
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
    pub fn is_noop(&self) -> bool {
        self.removed_records == 0 && self.dropped_segment_bases.is_empty()
    }
}

/// An append-only (except for truncation and cleaning) record log for one
/// partition.
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
/// assert_eq!(log.read(Offset(0), 10, true).len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct PartitionLog {
    segments: Vec<LogSegment>,
    segment_max_records: usize,
    high_watermark: Offset,
    /// First retained offset; advanced by segment retention.
    log_start: Offset,
    /// Total record bytes retained (for the memory model).
    retained_bytes: usize,
    /// Cumulative bytes reclaimed by compaction + retention — the replay
    /// cost this log will never pay again.
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

    /// First retained offset (advanced by retention).
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

    /// Cumulative bytes reclaimed by compaction and retention.
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

    fn entry_at(&self, offset: Offset) -> Option<&LogEntry> {
        let o = offset.value();
        let seg = &self.segments[self.seg_index_for(o)?];
        let at = seg.entries.get(seg.first_at_or_after(o))?;
        (at.offset == offset).then_some(at)
    }

    /// Appends one record under `epoch` at the log end, returning its
    /// offset.
    pub fn append(&mut self, epoch: LeaderEpoch, record: Record) -> Offset {
        let off = self.log_end();
        self.append_at(off, epoch, record);
        off
    }

    /// Appends one record at an explicit `offset` (the follower-replication
    /// path: replicas must preserve the leader's offsets even across the
    /// holes a compacted leader log serves). Entries at or below the
    /// current log end are ignored — duplicate fetch responses become
    /// no-ops instead of double-appends.
    pub fn append_at(&mut self, offset: Offset, epoch: LeaderEpoch, record: Record) -> bool {
        let o = offset.value();
        if o < self.log_end().value() {
            return false;
        }
        if self
            .segments
            .last()
            .is_none_or(|s| s.len() >= self.segment_max_records)
        {
            self.segments.push(LogSegment::new(o));
        }
        let seg = self.segments.last_mut().expect("just ensured");
        self.retained_bytes += record.encoded_len();
        seg.push(o, epoch, record, self.segment_max_records);
        true
    }

    /// Appends a batch under `epoch`, returning the base offset.
    pub fn append_batch(
        &mut self,
        epoch: LeaderEpoch,
        records: impl IntoIterator<Item = Record>,
    ) -> Offset {
        let base = self.log_end();
        for r in records {
            self.append(epoch, r);
        }
        base
    }

    /// Advances the high watermark (never moves backwards).
    pub fn advance_high_watermark(&mut self, hw: Offset) {
        if hw > self.high_watermark {
            debug_assert!(hw <= self.log_end(), "HW beyond log end");
            self.high_watermark = hw.min(self.log_end());
        }
    }

    /// Entries at offsets `>= from`, up to `max` of them. When
    /// `committed_only` is set (consumer fetches), entries at or above the
    /// high watermark are withheld; replica fetches read the full log.
    /// Holes left by compaction are skipped — callers must advance by the
    /// returned entries' offsets, not by their count.
    pub fn read_entries(&self, from: Offset, max: usize, committed_only: bool) -> Vec<&LogEntry> {
        let end = if committed_only {
            self.high_watermark
        } else {
            self.log_end()
        };
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
        let mut out = Vec::new();
        for seg in &self.segments[start_idx..] {
            if seg.base >= end || out.len() >= max {
                break;
            }
            let first = seg.first_at_or_after(lo);
            let below_end = if seg.end <= end {
                seg.entries.len()
            } else {
                seg.first_at_or_after(end)
            };
            let take = (below_end - first).min(max - out.len());
            if out.capacity() == 0 {
                // Sized once: all that is wanted, or all there can be.
                out.reserve_exact(max.min((end - lo) as usize));
            }
            out.extend(&seg.entries[first..first + take]);
        }
        out
    }

    /// Reads up to `max` records starting at `from` (see
    /// [`read_entries`](Self::read_entries)).
    pub fn read(&self, from: Offset, max: usize, committed_only: bool) -> Vec<Record> {
        self.read_entries(from, max, committed_only)
            .into_iter()
            .map(|e| e.record.clone())
            .collect()
    }

    /// The epoch of the entry at `offset`, if present.
    pub fn epoch_at(&self, offset: Offset) -> Option<LeaderEpoch> {
        self.entry_at(offset).map(|e| e.epoch)
    }

    /// The epoch of the last entry, if any.
    pub fn last_epoch(&self) -> Option<LeaderEpoch> {
        self.segments
            .iter()
            .rev()
            .find_map(|s| s.entries.last().map(|e| e.epoch))
    }

    /// Truncates the log to `to` (exclusive): entries at offsets `>= to` are
    /// discarded, and their count is returned. This is the
    /// divergence-reconciliation step a rejoining follower performs, and the
    /// source of silent loss under ZooKeeper-mode coordination (the broker
    /// counts it in `BrokerStats::records_truncated`).
    pub fn truncate_to(&mut self, to: Offset) -> usize {
        // Never truncate below the log start: retention already dropped
        // everything before it, and regressing the log end past the start
        // would leave an inverted `[start, end)` range that later reads and
        // appends mis-handle.
        let to = to.value().max(self.log_start.value());
        if to >= self.log_end().value() {
            return 0;
        }
        let mut dropped: Vec<LogEntry> = Vec::new();
        let mut keep_until = self.segments.len();
        for (i, seg) in self.segments.iter_mut().enumerate() {
            if seg.end <= to {
                continue;
            }
            if seg.base >= to {
                keep_until = keep_until.min(i);
                break;
            }
            // `to` falls inside this segment: cut its tail.
            let within = seg.entries.partition_point(|e| e.offset.value() < to);
            dropped.extend(seg.entries.split_off(within));
            seg.end = to;
            seg.bytes = seg.entries.iter().map(|e| e.record.encoded_len()).sum();
            seg.dirty = true;
            keep_until = keep_until.min(i + 1);
            break;
        }
        for seg in self.segments.drain(keep_until..) {
            dropped.extend(seg.entries);
        }
        if self.segments.is_empty() {
            self.segments.push(LogSegment::new(to));
        }
        let n = dropped.len();
        for e in dropped {
            self.retained_bytes -= e.record.encoded_len();
        }
        if self.high_watermark > self.log_end() {
            self.high_watermark = self.log_end();
        }
        n
    }

    /// Finds where this log diverges from a leader whose log ends at
    /// `leader_end` with `leader_last_epoch`: the offset this replica should
    /// truncate to before appending. Compares epochs from the tail down.
    pub fn divergence_point(
        &self,
        leader_end: Offset,
        leader_epoch_at: impl Fn(Offset) -> Option<LeaderEpoch>,
    ) -> Offset {
        let mut candidate = self.log_end().min(leader_end);
        while candidate > Offset::ZERO {
            let prev = Offset(candidate.value() - 1);
            match (self.epoch_at(prev), leader_epoch_at(prev)) {
                (Some(mine), Some(theirs)) if mine == theirs => return candidate,
                _ => candidate = prev,
            }
        }
        Offset::ZERO
    }

    /// The end offset for `epoch`: one past the last entry whose epoch is at
    /// most `epoch` (0 if no such entry). Entries are epoch-monotonic, so
    /// this is the offset a follower stuck at `epoch` must truncate to.
    pub fn end_offset_for_epoch(&self, epoch: LeaderEpoch) -> Offset {
        for seg in self.segments.iter().rev() {
            if let Some(e) = seg.entries.iter().rev().find(|e| e.epoch <= epoch) {
                return Offset(e.offset.value() + 1);
            }
        }
        Offset::ZERO
    }

    /// Keyed compaction: among committed (below-high-watermark) entries of
    /// sealed segments, keeps only the latest record per key. Keyless
    /// records, uncommitted entries, and the active segment are untouched;
    /// offsets never move. Sealed segments emptied by the pass are dropped
    /// and reported so dead backend blobs can be deleted.
    pub fn compact(&mut self) -> CleanOutcome {
        let mut outcome = CleanOutcome::default();
        if self.segments.len() < 2 {
            return outcome;
        }
        let hw = self.high_watermark.value();
        // Latest committed offset per key across the whole log (a committed
        // copy in the active segment shadows sealed copies; uncommitted
        // entries never act as "latest" — they could still be truncated).
        let mut latest: HashMap<Bytes, u64> = HashMap::new();
        for seg in &self.segments {
            for e in &seg.entries {
                if e.offset.value() >= hw {
                    break;
                }
                if let Some(k) = &e.record.key {
                    let slot = latest.entry(k.clone()).or_insert(0);
                    *slot = (*slot).max(e.offset.value());
                }
            }
        }
        let sealed = self.segments.len() - 1;
        let mut removed_bytes = 0usize;
        for seg in &mut self.segments[..sealed] {
            let before = seg.entries.len();
            if before == 0 {
                continue;
            }
            seg.entries.retain(|e| {
                let o = e.offset.value();
                if o >= hw {
                    return true; // uncommitted: never cleaned
                }
                match &e.record.key {
                    None => true, // keyless: no compaction identity
                    Some(k) => latest.get(k).copied() == Some(o),
                }
            });
            if seg.entries.len() != before {
                let kept: usize = seg.entries.iter().map(|e| e.record.encoded_len()).sum();
                removed_bytes += seg.bytes - kept;
                outcome.removed_records += (before - seg.entries.len()) as u64;
                seg.bytes = kept;
                seg.dirty = true;
            }
        }
        // Drop sealed segments the pass emptied entirely.
        let mut dropped = Vec::new();
        let last = self.segments.len() - 1;
        let mut i = 0;
        self.segments.retain(|seg| {
            let keep = i == last || !seg.entries.is_empty();
            if !keep {
                dropped.push(seg.base);
            }
            i += 1;
            keep
        });
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
        let mut outcome = CleanOutcome::default();
        loop {
            if self.segments.len() < 2 {
                break;
            }
            let seg = &self.segments[0];
            // Only whole, committed segments are retired.
            if seg.end > self.high_watermark.value() {
                break;
            }
            let expired = max_age.is_some_and(|age| {
                seg.entries
                    .last()
                    .is_some_and(|e| e.record.timestamp + age < now)
            });
            let oversize = max_bytes.is_some_and(|cap| self.retained_bytes > cap);
            if !expired && !oversize && !seg.is_empty() {
                break;
            }
            let seg = self.segments.remove(0);
            outcome.removed_records += seg.entries.len() as u64;
            outcome.reclaimed_bytes += seg.bytes as u64;
            outcome.dropped_segment_bases.push(seg.base);
            self.retained_bytes -= seg.bytes;
            self.reclaimed_bytes += seg.bytes as u64;
            self.log_start = self.log_start.max(Offset(seg.end));
        }
        outcome
    }

    /// Encodes every dirty segment and clears the dirty marks, returning
    /// `(base_offset, encoded_bytes)` pairs — the broker's flush feed.
    pub fn take_dirty_segments(&mut self) -> Vec<(u64, Vec<u8>)> {
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
    pub fn has_dirty_segments(&self) -> bool {
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
pub type MetaTxnEntry = (u32, u64, u64, u64, u32);

/// One partition's persisted transaction state: the partition, its open
/// transactions, and its aborted `[start, end)` offset ranges.
pub type MetaPartitionTxns = (TopicPartition, Vec<MetaTxnEntry>, Vec<(u64, u64)>);

/// Encodes a length header, failing loudly if it does not fit `u32` —
/// a silent `as u32` truncation here would corrupt every replay.
fn put_len(out: &mut Vec<u8>, len: usize) {
    put_u32(out, u32::try_from(len).expect("collection length fits u32"));
}

impl BrokerLogMeta {
    /// Serializes the meta blob.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_len(&mut out, self.partitions.len());
        for (tp, hw, start, bases) in &self.partitions {
            put_str(&mut out, &tp.topic);
            put_u32(&mut out, tp.partition);
            put_u64(&mut out, hw.value());
            put_u64(&mut out, start.value());
            put_len(&mut out, bases.len());
            for b in bases {
                put_u64(&mut out, *b);
            }
        }
        put_len(&mut out, self.group_offsets.len());
        for (group, tp, off) in &self.group_offsets {
            put_str(&mut out, group);
            put_str(&mut out, &tp.topic);
            put_u32(&mut out, tp.partition);
            put_u64(&mut out, off.value());
        }
        put_u64(&mut out, self.reclaimed_bytes);
        put_len(&mut out, self.txns.len());
        for (tp, ongoing, aborted) in &self.txns {
            put_str(&mut out, &tp.topic);
            put_u32(&mut out, tp.partition);
            put_len(&mut out, ongoing.len());
            for (producer, txn, first, end, epoch) in ongoing {
                put_u32(&mut out, *producer);
                put_u64(&mut out, *txn);
                put_u64(&mut out, *first);
                put_u64(&mut out, *end);
                put_u32(&mut out, *epoch);
            }
            put_len(&mut out, aborted.len());
            for (s, e) in aborted {
                put_u64(&mut out, *s);
                put_u64(&mut out, *e);
            }
        }
        out
    }

    /// Deserializes a blob written by [`encode`](BrokerLogMeta::encode).
    /// Returns `None` on truncated or malformed input.
    pub fn decode(buf: &[u8]) -> Option<BrokerLogMeta> {
        let mut cur = Cursor::new(buf);
        let np = cur.u32()? as usize;
        let mut partitions = Vec::with_capacity(np);
        for _ in 0..np {
            let topic = cur.str()?;
            let partition = cur.u32()?;
            let hw = Offset(cur.u64()?);
            let start = Offset(cur.u64()?);
            let nb = cur.u32()? as usize;
            let mut bases = Vec::with_capacity(nb);
            for _ in 0..nb {
                bases.push(cur.u64()?);
            }
            partitions.push((TopicPartition::new(topic, partition), hw, start, bases));
        }
        let ng = cur.u32()? as usize;
        let mut group_offsets = Vec::with_capacity(ng);
        for _ in 0..ng {
            let group = cur.str()?;
            let topic = cur.str()?;
            let partition = cur.u32()?;
            let off = Offset(cur.u64()?);
            group_offsets.push((group, TopicPartition::new(topic, partition), off));
        }
        let reclaimed_bytes = cur.u64()?;
        let nt = cur.u32()? as usize;
        let mut txns = Vec::with_capacity(nt);
        for _ in 0..nt {
            let topic = cur.str()?;
            let partition = cur.u32()?;
            let no = cur.u32()? as usize;
            let mut ongoing = Vec::with_capacity(no);
            for _ in 0..no {
                let producer = cur.u32()?;
                let txn = cur.u64()?;
                let first = cur.u64()?;
                let end = cur.u64()?;
                let epoch = cur.u32()?;
                ongoing.push((producer, txn, first, end, epoch));
            }
            let na = cur.u32()? as usize;
            let mut aborted = Vec::with_capacity(na);
            for _ in 0..na {
                let s = cur.u64()?;
                let e = cur.u64()?;
                aborted.push((s, e));
            }
            txns.push((TopicPartition::new(topic, partition), ongoing, aborted));
        }
        Some(BrokerLogMeta {
            partitions,
            group_offsets,
            reclaimed_bytes,
            txns,
        })
    }
}

/// Correlation-id base for a broker's blob client over a store group, and
/// so the tag of that client's retry timer; disjoint from the checkpoint
/// (`1 << 42`) and client tag namespaces and from the broker's own tags.
pub const BROKER_LOG_CORR_BASE: u64 = 1 << 43;

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

    #[test]
    fn log_entry_stays_nine_words() {
        // Offset, epoch and a 56 B record whose key and value are views of
        // their batch's buffer: this is what a run retains per record and
        // replica, so growth here is peak RSS everywhere.
        assert_eq!(std::mem::size_of::<LogEntry>(), 72);
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
        assert!(log.read(Offset(0), 10, true).is_empty());
        log.advance_high_watermark(Offset(2));
        let committed = log.read(Offset(0), 10, true);
        assert_eq!(committed.len(), 2);
        let all = log.read(Offset(0), 10, false);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn read_respects_max_and_from() {
        let mut log = PartitionLog::new();
        log.append_batch(LeaderEpoch(0), (0..10).map(|i| rec(&i.to_string())));
        log.advance_high_watermark(Offset(10));
        let r = log.read(Offset(4), 3, true);
        assert_eq!(r.len(), 3);
        assert_eq!(r[0].value_utf8(), "4");
        assert!(log.read(Offset(10), 5, true).is_empty());
        assert!(log.read(Offset(99), 5, false).is_empty());
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
        let r = log.read(Offset(2), 6, true);
        assert_eq!(r.len(), 6);
        assert_eq!(r[0].value_utf8(), "2");
        assert_eq!(r[5].value_utf8(), "7");
        assert_eq!(log.epoch_at(Offset(9)), Some(LeaderEpoch(0)));
        assert_eq!(log.len(), 10);
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
        let kept: Vec<String> = (log.read(Offset(0), 10, false).iter())
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
        let kept: Vec<String> = (log.read(Offset(0), 10, false).iter())
            .map(Record::value_utf8)
            .collect();
        assert_eq!(kept, ["0", "1"]);
        // Appends continue at the truncation point.
        assert_eq!(log.append(LeaderEpoch(1), rec("z")), Offset(2));
    }

    #[test]
    fn divergence_point_matches_common_prefix() {
        // Follower: epochs [0,0,1,1]; leader: epochs [0,0,2,2,2].
        let mut follower = PartitionLog::new();
        follower.append_batch(LeaderEpoch(0), [rec("a"), rec("b")]);
        follower.append_batch(LeaderEpoch(1), [rec("x"), rec("y")]);
        let mut leader = PartitionLog::new();
        leader.append_batch(LeaderEpoch(0), [rec("a"), rec("b")]);
        leader.append_batch(LeaderEpoch(2), [rec("p"), rec("q"), rec("r")]);
        let point = follower.divergence_point(leader.log_end(), |o| leader.epoch_at(o));
        assert_eq!(point, Offset(2));
    }

    #[test]
    fn divergence_point_with_identical_logs_is_end() {
        let mut a = PartitionLog::new();
        a.append_batch(LeaderEpoch(0), [rec("a"), rec("b")]);
        let b = a.clone();
        let point = a.divergence_point(b.log_end(), |o| b.epoch_at(o));
        assert_eq!(point, Offset(2));
    }

    #[test]
    fn divergence_point_when_follower_is_ahead() {
        // Follower appended extra records under the old epoch while isolated.
        let mut follower = PartitionLog::new();
        follower.append_batch(LeaderEpoch(0), [rec("a"), rec("b"), rec("c"), rec("d")]);
        let mut leader = PartitionLog::new();
        leader.append_batch(LeaderEpoch(0), [rec("a"), rec("b")]);
        leader.append_batch(LeaderEpoch(1), [rec("z")]);
        let point = follower.divergence_point(leader.log_end(), |o| leader.epoch_at(o));
        // Common prefix is [a, b]; offset 2 has epoch 0 vs leader epoch 1.
        assert_eq!(point, Offset(2));
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
        assert_eq!(decoded.entries[0].offset, Offset(0));
        assert_eq!(decoded.entries[0].epoch, LeaderEpoch(3));
        assert_eq!(decoded.entries[0].record.key.as_deref(), Some(&b"k1"[..]));
        assert_eq!(decoded.entries[0].record.producer_seq, 42);
        assert_eq!(decoded.entries[1].offset, Offset(1));
        assert_eq!(decoded.entries[1].record.value_utf8(), "plain");
        assert_eq!(decoded.bytes(), seg.bytes());
        // The replayed records are views of one copy of the blob, in blob
        // order; every strict prefix is rejected, never sliced past.
        let blob = seg.encode();
        let views = [
            &decoded.entries[0].record.value,
            &decoded.entries[1].record.value,
        ];
        let gap = views[1].as_ptr() as usize - views[0].as_ptr() as usize;
        assert!((views[0].len()..blob.len()).contains(&gap));
        for cut in 0..blob.len() {
            assert!(LogSegment::decode(&blob[..cut]).is_none(), "cut {cut}");
        }
        // Garbage is rejected, not mis-decoded.
        assert!(LogSegment::decode(&[1, 2, 3]).is_none());
        // So is any version but the current one, the retired v2 included.
        let mut other_version = seg.encode();
        for v in [0, 2, SEGMENT_CODEC_VERSION + 1] {
            other_version[0] = v;
            assert!(LogSegment::decode(&other_version).is_none(), "version {v}");
        }
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
        assert!(BrokerLogMeta::decode(&[0xff]).is_none());
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
        let all = rebuilt.read(Offset(0), 100, false);
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
        assert_eq!(rebuilt.read(Offset(0), 100, false).len(), 3);
        assert!(rebuilt.read(Offset(5), 100, false).is_empty());
    }

    /// A fresh segment fed `seg`'s entries one by one (same range and
    /// timestamp base): what the log would hold had it never been cut.
    fn rebuilt(seg: &LogSegment) -> LogSegment {
        let mut fresh = LogSegment::new(seg.base);
        for e in seg.entries() {
            fresh.push(e.offset.value(), e.epoch, e.record.clone(), seg.len());
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
                s.entries()
                    .iter()
                    .map(|e| (e.offset, e.epoch, e.record.clone()))
                    .collect()
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
        assert_eq!(log.segments()[0].entries()[0].offset, Offset(5));
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
        let entries = log.read_entries(Offset(0), 10, true);
        let offs: Vec<u64> = entries.iter().map(|e| e.offset.value()).collect();
        assert_eq!(offs, vec![3, 4, 5]);
        assert_eq!(entries[1].record.value_utf8(), "a3");
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
        let all = log.read_entries(Offset(0), 10, false);
        let offs: Vec<u64> = all.iter().map(|e| e.offset.value()).collect();
        assert_eq!(offs, vec![1, 2]);
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
        let a: Vec<u64> = log
            .read_entries(Offset(0), 100, false)
            .iter()
            .map(|e| e.offset.value())
            .collect();
        let b: Vec<u64> = rebuilt
            .read_entries(Offset(0), 100, false)
            .iter()
            .map(|e| e.offset.value())
            .collect();
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
        assert!(log.read(Offset(0), 10, false).len() == 2);
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
        let at_start = log.read_entries(Offset(4), 10, true);
        assert_eq!(at_start.len(), 2);
        assert_eq!(at_start[0].offset, Offset(4));
        // Below the start: the log serves what it has (the broker layer
        // turns this into an OffsetOutOfRange reset).
        let below = log.read_entries(Offset(0), 10, true);
        assert_eq!(below.first().map(|e| e.offset), Some(Offset(4)));
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
        assert!(from_zero[0].offset > Offset(0));
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
        let a: Vec<u64> = from_zero.iter().map(|e| e.offset.value()).collect();
        let b: Vec<u64> = rebuilt
            .read_entries(Offset(0), 10, true)
            .iter()
            .map(|e| e.offset.value())
            .collect();
        assert_eq!(a, b);
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

    #[test]
    fn replication_append_at_preserves_leader_offsets() {
        // Leader compacted: serves offsets 3, 5, 7. The follower must land
        // them at the same offsets.
        let mut follower = PartitionLog::with_segment_max(4);
        assert!(follower.append_at(Offset(3), LeaderEpoch(1), rec("x")));
        assert!(follower.append_at(Offset(5), LeaderEpoch(1), rec("y")));
        assert!(follower.append_at(Offset(7), LeaderEpoch(2), rec("z")));
        assert_eq!(follower.log_end(), Offset(8));
        assert_eq!(follower.len(), 3);
        assert_eq!(follower.epoch_at(Offset(5)), Some(LeaderEpoch(1)));
        assert_eq!(follower.epoch_at(Offset(4)), None, "hole stays a hole");
        // Duplicate responses are no-ops, not double-appends.
        assert!(!follower.append_at(Offset(5), LeaderEpoch(1), rec("dup")));
        assert_eq!(follower.len(), 3);
    }

    /// `read_entries` as it was before its fast paths: bisect for the
    /// segment, bisect inside it, walk until the end or `max`.
    fn read_entries_by_bisection(
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
        let mut out = Vec::new();
        if from >= end || max == 0 {
            return out;
        }
        let lo = from.value();
        let segments = log.segments();
        let start = segments
            .partition_point(|s| s.end <= lo)
            .min(segments.len().saturating_sub(1));
        for seg in &segments[start..] {
            if seg.base >= end.value() {
                break;
            }
            let within = seg.entries.partition_point(|e| e.offset.value() < lo);
            for e in &seg.entries[within..] {
                if e.offset >= end || out.len() >= max {
                    return out;
                }
                out.push(e.offset.value());
            }
        }
        out
    }

    /// Seeded sweep: logs grown by appends and `append_at` gaps, then cut by
    /// compaction, retention and truncation, read at random
    /// `(from, max, committed_only)` after every step. The tail-segment and
    /// hole-free shortcuts must return exactly what two bisections return.
    #[test]
    fn read_entries_matches_the_two_bisection_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let (mut reads, mut non_empty, mut holey) = (0u32, 0u32, 0u32);
        for case in 0..60 {
            let mut log = PartitionLog::with_segment_max(rng.gen_range(2..9));
            let mut ts = 0u64;
            for step in 0..40 {
                match rng.gen_range(0..10) {
                    // Leader-style appends: contiguous offsets.
                    0..=4 => {
                        for _ in 0..rng.gen_range(1..6) {
                            ts += 1_000;
                            let key = format!("k{}", rng.gen_range(0..5));
                            log.append(LeaderEpoch(step / 10), keyed(&key, "v", ts));
                        }
                    }
                    // Follower-style append past a gap (a compacted leader).
                    5 => {
                        let at = Offset(log.log_end().value() + rng.gen_range(0..4u64));
                        ts += 1_000;
                        log.append_at(at, LeaderEpoch(step / 10), keyed("gap", "v", ts));
                    }
                    6 => {
                        let hw =
                            rng.gen_range(log.high_watermark().value()..=log.log_end().value());
                        log.advance_high_watermark(Offset(hw));
                    }
                    7 => {
                        log.compact();
                    }
                    8 => {
                        let age = SimDuration::from_millis(rng.gen_range(1..20));
                        log.apply_retention(SimTime::from_millis(ts), Some(age), None);
                    }
                    _ => {
                        let span = log.log_end().value() - log.log_start().value();
                        let to = log.log_start().value() + rng.gen_range(0..=span);
                        log.truncate_to(Offset(to));
                    }
                }
                let has_hole = |s: &LogSegment| (s.len() as u64) < s.end - s.base;
                holey += u32::from(log.segments().iter().any(has_hole));
                for _ in 0..12 {
                    let from = Offset(rng.gen_range(0..log.log_end().value() + 3));
                    let max = [0usize, 1, 2, 3, 7, 1_000][rng.gen_range(0..6usize)];
                    let committed_only = rng.gen_bool(0.5);
                    let got: Vec<u64> = log
                        .read_entries(from, max, committed_only)
                        .iter()
                        .map(|e| e.offset.value())
                        .collect();
                    let want = read_entries_by_bisection(&log, from, max, committed_only);
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
