//! Event-queue implementations for the scheduler.
//!
//! Two queues live here, both preserving the exact `(at, seq)` total order:
//!
//! * [`CalendarQueue`] — the default. A bucketed calendar queue: a
//!   timing-wheel ring of sorted buckets covers the near future (where
//!   virtually all timer/delivery traffic lands), and a far-future overflow
//!   heap catches the rest. Push and pop are O(1) for in-horizon events,
//!   entries live in a slab with a freelist (no per-event allocation), and
//!   timer cancellation removes the entry's payload eagerly via a
//!   generation-tagged token → slot index instead of a grow-forever
//!   tombstone set.
//! * [`ReferenceQueue`] — the original `BinaryHeap` scheduler, kept as the
//!   differential-testing baseline; tests pick it per instance via
//!   `Sim::with_scheduler`.
//!
//! The differential property tests (in-module and `tests/differential.rs`)
//! assert that both implementations yield identical pop order and identical
//! `SimStats` on randomized workloads.

use std::cmp::Reverse;
use std::collections::BinaryHeap; // s2g-lint: allow(event-queue) — reference scheduler + overflow heap live here
use std::collections::{HashMap, HashSet};

use crate::process::{Message, ProcessId, TimerToken};
use crate::time::SimTime;

/// What a scheduled event does when it fires.
pub(crate) enum EventKind {
    /// Deliver `on_start` to a newly spawned process.
    Start(ProcessId),
    /// Deliver a message.
    Deliver {
        /// Sender.
        from: ProcessId,
        /// Receiver.
        to: ProcessId,
        /// Payload.
        msg: Box<dyn Message>,
    },
    /// Fire a timer.
    Timer {
        /// Owning process.
        pid: ProcessId,
        /// Token handed back from `set_timer`, for cancellation.
        token: TimerToken,
        /// Caller-chosen tag passed to `on_timer`.
        tag: u64,
    },
    /// A CPU slice finished.
    CpuDone {
        /// Owning process.
        pid: ProcessId,
        /// Caller-chosen tag passed to `on_cpu_done`.
        tag: u64,
    },
}

impl EventKind {
    /// The process this event is destined for.
    pub(crate) fn target(&self) -> ProcessId {
        match self {
            EventKind::Start(pid) => *pid,
            EventKind::Deliver { to, .. } => *to,
            EventKind::Timer { pid, .. } => *pid,
            EventKind::CpuDone { pid, .. } => *pid,
        }
    }
}

/// Which event-queue implementation a [`Sim`](crate::Sim) runs on.
///
/// [`Sim::new`](crate::Sim::new) runs on [`Calendar`](SchedulerKind::Calendar);
/// [`Sim::with_scheduler`](crate::Sim::with_scheduler) picks either. Both
/// orders are identical — the reference exists for differential testing
/// and benchmarking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Bucketed calendar queue (timing-wheel ring + far-future overflow
    /// heap): O(1) push/pop for near-future traffic, pooled entries, O(1)
    /// cancel.
    Calendar,
    /// The original `BinaryHeap` scheduler, kept as the differential
    /// baseline.
    Reference,
}

/// An event handed back by [`EventQueue::pop`].
pub(crate) struct Popped {
    pub at: SimTime,
    /// Scheduling sequence number; the dispatcher keys only on `at`, but
    /// the differential tests assert the full `(at, seq)` stream.
    #[allow(dead_code)]
    pub seq: u64,
    pub inc: u32,
    /// The entry is a cancelled timer: it still counts as a processed event
    /// (both queues agree), but must not dispatch or count as fired.
    pub cancelled: bool,
    pub kind: EventKind,
}

// ---------------------------------------------------------------------------
// Calendar queue
// ---------------------------------------------------------------------------

/// log2 of the bucket width in nanoseconds: 65.536 µs per bucket.
const WIDTH_BITS: u32 = 16;
/// Width of one wheel bucket in nanoseconds.
const BUCKET_WIDTH_NS: u64 = 1 << WIDTH_BITS;
/// log2 of the wheel size: 2048 buckets.
const WHEEL_BITS: u32 = 11;
/// Number of buckets in the wheel ring.
const WHEEL_BUCKETS: usize = 1 << WHEEL_BITS;
/// How far past `cur_start` the wheel reaches: ~134 ms. Events beyond this
/// land in the overflow heap and migrate in as the wheel turns.
const HORIZON_NS: u64 = BUCKET_WIDTH_NS << WHEEL_BITS;

/// A scheduled event's position: key in the bucket, payload in the slab.
///
/// Keeping `(at, seq)` inline in the bucket keeps the pop-order comparisons
/// on a dense, cache-friendly array; the slab is only touched once per event.
#[derive(Clone, Copy)]
struct BucketItem {
    at: u64,
    seq: u64,
    slot: u32,
}

impl BucketItem {
    fn key(&self) -> (u64, u64) {
        (self.at, self.seq)
    }
}

/// A pooled event payload. `gen` increments every time the slot is freed, so
/// a stale [`TimerToken`] (encoding an older generation) can never cancel an
/// unrelated event that later reuses the slot.
struct Slot {
    gen: u32,
    state: SlotState,
}

enum SlotState {
    Free {
        next: u32,
    },
    Occupied {
        inc: u32,
        cancelled: bool,
        kind: EventKind,
    },
}

const NO_SLOT: u32 = u32::MAX;

/// Bucketed calendar queue: near-future timing wheel + far-future overflow
/// heap + slab/freelist event pool. See the module docs for the layout.
///
/// Ordering invariants:
///
/// * `cur_start` never exceeds the `at` of any un-popped event (it only
///   advances inside [`pop`](CalendarQueue::pop), committing to a bucket
///   exactly when everything earlier has been drained), so a later push can
///   never alias into a bucket behind the cursor.
/// * Only the *current* bucket is sorted by `(at, seq)`: future buckets are
///   filed append-only (O(1) push, no memmove) and sorted exactly once when
///   the wheel advances into them. The popped prefix of the current bucket
///   is retained (cursor index) and cleared when the bucket is exhausted;
///   pushes landing in the current bucket insert in sorted position at or
///   after the cursor, so mid-bucket pushes stay ordered.
/// * Overflow items migrate into the wheel only when their bucket comes
///   inside the horizon, each exactly once, by plain append — the
///   activation sort establishes their order.
pub(crate) struct CalendarQueue {
    wheel: Vec<Vec<BucketItem>>,
    /// Index of the bucket `cur_start` maps into.
    cur_bucket: usize,
    /// Start (inclusive) of the current bucket's time window, in ns.
    cur_start: u64,
    /// How many items of `wheel[cur_bucket]` are already popped.
    cursor: usize,
    /// Total un-popped items across all wheel buckets.
    wheel_len: usize,
    /// Far-future events as `(at_ns, seq, slot)`, min-first.
    overflow: BinaryHeap<Reverse<(u64, u64, u32)>>, // s2g-lint: allow(event-queue) — far-future spillover of the calendar queue itself
    slab: Vec<Slot>,
    free_head: u32,
    /// Occupied slots (un-popped events, including cancelled tombstones).
    len: usize,
    /// Cancelled-but-not-yet-popped timers still occupying slots.
    tombstones: usize,
    /// Cached `(at, seq)` of the queue minimum; cleared on pop, tightened on
    /// push, so repeated peeks are O(1) without committing a wheel advance.
    peek_cache: Option<(u64, u64)>,
}

impl CalendarQueue {
    pub(crate) fn new() -> Self {
        CalendarQueue {
            wheel: (0..WHEEL_BUCKETS).map(|_| Vec::new()).collect(),
            cur_bucket: 0,
            cur_start: 0,
            cursor: 0,
            wheel_len: 0,
            overflow: BinaryHeap::new(), // s2g-lint: allow(event-queue) — far-future spillover of the calendar queue itself
            slab: Vec::new(),
            free_head: NO_SLOT,
            len: 0,
            tombstones: 0,
            peek_cache: None,
        }
    }

    /// Takes a slot off the freelist (or grows the slab) without filling it.
    fn reserve(&mut self) -> u32 {
        if self.free_head != NO_SLOT {
            let idx = self.free_head;
            match self.slab[idx as usize].state {
                SlotState::Free { next } => self.free_head = next,
                SlotState::Occupied { .. } => unreachable!("freelist head is occupied"),
            }
            idx
        } else {
            let idx = u32::try_from(self.slab.len()).expect("slab exceeds u32 slots");
            self.slab.push(Slot {
                gen: 0,
                state: SlotState::Free { next: NO_SLOT },
            });
            idx
        }
    }

    fn occupy(&mut self, slot: u32, inc: u32, kind: EventKind) {
        self.slab[slot as usize].state = SlotState::Occupied {
            inc,
            cancelled: false,
            kind,
        };
        self.len += 1;
    }

    /// Files the slot's key into its wheel bucket or the overflow heap.
    fn file(&mut self, at: u64, seq: u64, slot: u32) {
        debug_assert!(
            at >= self.cur_start,
            "event scheduled behind the wheel window"
        );
        // Robustness clamp: a contract-violating past push still lands in a
        // poppable position (the current bucket, at or after the cursor).
        let eff = at.max(self.cur_start);
        if eff < self.cur_start.saturating_add(HORIZON_NS) {
            let b = ((eff >> WIDTH_BITS) as usize) & (WHEEL_BUCKETS - 1);
            let item = BucketItem { at, seq, slot };
            let bucket = &mut self.wheel[b];
            if b == self.cur_bucket {
                // Only the bucket being consumed must stay sorted (past the
                // cursor); future buckets are filed append-only and sorted
                // once on activation.
                match bucket.last() {
                    Some(last) if last.key() > item.key() => {
                        let pos = bucket
                            .partition_point(|x| x.key() < item.key())
                            .max(self.cursor);
                        bucket.insert(pos, item);
                    }
                    _ => bucket.push(item),
                }
            } else {
                bucket.push(item);
            }
            self.wheel_len += 1;
        } else {
            self.overflow.push(Reverse((at, seq, slot)));
        }
        if let Some(cached) = self.peek_cache {
            if (at, seq) < cached {
                self.peek_cache = Some((at, seq));
            }
        }
    }

    pub(crate) fn push(&mut self, at: SimTime, seq: u64, inc: u32, kind: EventKind) {
        let slot = self.reserve();
        self.occupy(slot, inc, kind);
        self.file(at.as_nanos(), seq, slot);
    }

    /// Pushes a timer event, minting a token that encodes `(generation,
    /// slot)` so cancellation is a direct index — no hashing, no lookup
    /// table, and stale tokens (the slot was freed and reused) are rejected
    /// by the generation check.
    pub(crate) fn push_timer(
        &mut self,
        at: SimTime,
        seq: u64,
        inc: u32,
        pid: ProcessId,
        tag: u64,
    ) -> TimerToken {
        let slot = self.reserve();
        let gen = self.slab[slot as usize].gen;
        let token = TimerToken((u64::from(gen) << 32) | u64::from(slot));
        self.occupy(slot, inc, EventKind::Timer { pid, token, tag });
        self.file(at.as_nanos(), seq, slot);
        token
    }

    /// Marks a pending timer cancelled, dropping its payload eagerly.
    /// Returns the owning `(pid, inc)` if the token named a live, not yet
    /// cancelled timer; `None` for stale/fired/double-cancelled tokens.
    pub(crate) fn cancel(&mut self, token: TimerToken) -> Option<(ProcessId, u32)> {
        let slot_idx = (token.0 & u64::from(u32::MAX)) as usize;
        let gen = (token.0 >> 32) as u32;
        let slot = self.slab.get_mut(slot_idx)?;
        if slot.gen != gen {
            return None; // already fired (slot freed, generation bumped)
        }
        match &mut slot.state {
            SlotState::Occupied {
                inc,
                cancelled,
                kind: EventKind::Timer { pid, .. },
            } if !*cancelled => {
                let owner = (*pid, *inc);
                *cancelled = true;
                self.tombstones += 1;
                Some(owner)
            }
            _ => None,
        }
    }

    /// The `(at, seq)` key of the next event, without committing a wheel
    /// advance. The wheel position only moves in [`pop`](CalendarQueue::pop):
    /// a committing peek could advance `cur_start` past the caller's `now`,
    /// and a later push between `now` and the advanced `cur_start` would
    /// alias into the wrong wheel revolution.
    fn peek_key(&mut self) -> Option<(u64, u64)> {
        if self.len == 0 {
            return None;
        }
        if let Some(cached) = self.peek_cache {
            return Some(cached);
        }
        let key = if self.wheel_len > 0 {
            // First non-empty bucket scanning forward from the current one.
            // Every wheel item is within one horizon of cur_start, so the
            // first non-empty bucket in ring order holds the wheel minimum,
            // and any overflow item is at or beyond the horizon — strictly
            // later than every wheel item. The current bucket is sorted past
            // its cursor; any other bucket is unsorted until activation, so
            // its minimum is found by a linear scan (short, and amortized to
            // once per bucket by the peek cache).
            let mut b = self.cur_bucket;
            loop {
                if b == self.cur_bucket {
                    if let Some(item) = self.wheel[b].get(self.cursor) {
                        break item.key();
                    }
                } else if let Some(min) = self.wheel[b].iter().map(BucketItem::key).min() {
                    break min;
                }
                b = (b + 1) & (WHEEL_BUCKETS - 1);
            }
        } else {
            let &Reverse((at, seq, _)) = self.overflow.peek().expect("len > 0 with empty wheel");
            (at, seq)
        };
        self.peek_cache = Some(key);
        Some(key)
    }

    /// The next event's time without popping (test/diagnostic aid; the run
    /// loop uses the fused [`pop_at_most`](CalendarQueue::pop_at_most)).
    #[cfg(test)]
    fn next_at(&mut self) -> Option<SimTime> {
        self.peek_key().map(|(at, _)| SimTime::from_nanos(at))
    }

    /// Pops the next event only if its time is at most `limit`.
    ///
    /// This is the run loop's fused peek+pop: the common case (the current
    /// bucket still has items) is a single bounds-checked read, with none of
    /// [`peek_key`](CalendarQueue::peek_key)'s scan-and-cache machinery.
    pub(crate) fn pop_at_most(&mut self, limit: SimTime) -> Option<Popped> {
        if let Some(&item) = self.wheel[self.cur_bucket].get(self.cursor) {
            if item.at > limit.as_nanos() {
                return None;
            }
            self.peek_cache = None;
            self.cursor += 1;
            self.wheel_len -= 1;
            return Some(self.take(item));
        }
        if self.peek_key()? > (limit.as_nanos(), u64::MAX) {
            return None;
        }
        self.pop()
    }

    pub(crate) fn pop(&mut self) -> Option<Popped> {
        if self.len == 0 {
            return None;
        }
        self.peek_cache = None;
        loop {
            if let Some(&item) = self.wheel[self.cur_bucket].get(self.cursor) {
                self.cursor += 1;
                self.wheel_len -= 1;
                return Some(self.take(item));
            }
            // Current bucket exhausted: clear its popped prefix and advance.
            self.wheel[self.cur_bucket].clear();
            self.cursor = 0;
            if self.wheel_len > 0 {
                // Single-step advance. The window entering the horizon maps
                // to exactly the bucket just cleared.
                self.cur_start += BUCKET_WIDTH_NS;
                self.cur_bucket = (self.cur_bucket + 1) & (WHEEL_BUCKETS - 1);
            } else {
                // Wheel empty: jump straight to the overflow minimum's
                // bucket (all buckets are empty, so re-anchoring is safe).
                let &Reverse((at, _, _)) = self
                    .overflow
                    .peek()
                    .expect("non-empty queue with empty wheel");
                self.cur_start = at & !(BUCKET_WIDTH_NS - 1);
                self.cur_bucket = ((at >> WIDTH_BITS) as usize) & (WHEEL_BUCKETS - 1);
            }
            self.migrate();
            // Activate the new current bucket: it was filed append-only (and
            // may have just received migrated items), so establish its sort
            // order exactly once, now that it is about to be consumed.
            let b = self.cur_bucket;
            self.wheel[b].sort_unstable_by_key(BucketItem::key);
        }
    }

    /// Frees the popped item's slot back to the pool.
    fn take(&mut self, item: BucketItem) -> Popped {
        let slot = &mut self.slab[item.slot as usize];
        let state = std::mem::replace(
            &mut slot.state,
            SlotState::Free {
                next: self.free_head,
            },
        );
        slot.gen = slot.gen.wrapping_add(1);
        self.free_head = item.slot;
        self.len -= 1;
        match state {
            SlotState::Occupied {
                inc,
                cancelled,
                kind,
            } => {
                if cancelled {
                    self.tombstones -= 1;
                }
                Popped {
                    at: SimTime::from_nanos(item.at),
                    seq: item.seq,
                    inc,
                    cancelled,
                    kind,
                }
            }
            SlotState::Free { .. } => unreachable!("popped slot {} is free", item.slot),
        }
    }

    /// Pulls every overflow event whose bucket is now inside the horizon
    /// into the wheel. Ascending heap drain + empty target buckets keep the
    /// per-bucket sort invariant.
    fn migrate(&mut self) {
        let horizon = self.cur_start.saturating_add(HORIZON_NS);
        while let Some(&Reverse((at, seq, slot))) = self.overflow.peek() {
            if at >= horizon {
                break;
            }
            self.overflow.pop();
            let b = ((at >> WIDTH_BITS) as usize) & (WHEEL_BUCKETS - 1);
            self.wheel[b].push(BucketItem { at, seq, slot });
            self.wheel_len += 1;
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn residue(&self) -> usize {
        self.tombstones
    }
}

// ---------------------------------------------------------------------------
// Reference queue
// ---------------------------------------------------------------------------

struct HeapEntry {
    at: SimTime,
    seq: u64,
    inc: u32,
    kind: EventKind,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The original `BinaryHeap` scheduler, kept as the differential baseline.
///
/// Cancellation is lazy (a tombstone set consulted at pop), as it always
/// was — but the historical leak is fixed: `pending_timers` tracks which
/// tokens are still in flight, cancelling an already-fired token is a no-op
/// (nothing is inserted into `cancelled`), and popping a timer removes its
/// token from both maps, so neither grows beyond the live timer count.
pub(crate) struct ReferenceQueue {
    heap: BinaryHeap<Reverse<HeapEntry>>, // s2g-lint: allow(event-queue) — this is the reference implementation
    cancelled: HashSet<u64>,
    /// Token → owning `(pid, inc)` for every timer still in the heap.
    pending_timers: HashMap<u64, (ProcessId, u32)>,
    next_timer: u64,
}

impl ReferenceQueue {
    pub(crate) fn new() -> Self {
        ReferenceQueue {
            heap: BinaryHeap::new(), // s2g-lint: allow(event-queue) — this is the reference implementation
            cancelled: HashSet::new(),
            pending_timers: HashMap::new(),
            next_timer: 0,
        }
    }

    pub(crate) fn push(&mut self, at: SimTime, seq: u64, inc: u32, kind: EventKind) {
        self.heap.push(Reverse(HeapEntry { at, seq, inc, kind }));
    }

    pub(crate) fn push_timer(
        &mut self,
        at: SimTime,
        seq: u64,
        inc: u32,
        pid: ProcessId,
        tag: u64,
    ) -> TimerToken {
        let token = TimerToken(self.next_timer);
        self.next_timer += 1;
        self.pending_timers.insert(token.0, (pid, inc));
        self.push(at, seq, inc, EventKind::Timer { pid, token, tag });
        token
    }

    pub(crate) fn cancel(&mut self, token: TimerToken) -> Option<(ProcessId, u32)> {
        let owner = self.pending_timers.remove(&token.0)?;
        self.cancelled.insert(token.0);
        Some(owner)
    }

    /// Pops the next event only if its time is at most `limit`.
    pub(crate) fn pop_at_most(&mut self, limit: SimTime) -> Option<Popped> {
        let Reverse(next) = self.heap.peek()?;
        if next.at > limit {
            return None;
        }
        self.pop()
    }

    pub(crate) fn pop(&mut self) -> Option<Popped> {
        let Reverse(entry) = self.heap.pop()?;
        let mut cancelled = false;
        if let EventKind::Timer { token, .. } = &entry.kind {
            // Prune regardless of how the timer ends (fired, cancelled, or
            // voided by an incarnation bump) — this keeps both sets bounded.
            self.pending_timers.remove(&token.0);
            cancelled = self.cancelled.remove(&token.0);
        }
        Some(Popped {
            at: entry.at,
            seq: entry.seq,
            inc: entry.inc,
            cancelled,
            kind: entry.kind,
        })
    }

    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    pub(crate) fn residue(&self) -> usize {
        self.cancelled.len()
    }
}

// ---------------------------------------------------------------------------
// Dispatch enum
// ---------------------------------------------------------------------------

/// The scheduler's event queue: one of the two implementations above.
pub(crate) enum EventQueue {
    Calendar(CalendarQueue),
    Reference(ReferenceQueue),
}

impl EventQueue {
    pub(crate) fn new(kind: SchedulerKind) -> Self {
        match kind {
            SchedulerKind::Calendar => EventQueue::Calendar(CalendarQueue::new()),
            SchedulerKind::Reference => EventQueue::Reference(ReferenceQueue::new()),
        }
    }

    pub(crate) fn kind(&self) -> SchedulerKind {
        match self {
            EventQueue::Calendar(_) => SchedulerKind::Calendar,
            EventQueue::Reference(_) => SchedulerKind::Reference,
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, at: SimTime, seq: u64, inc: u32, kind: EventKind) {
        match self {
            EventQueue::Calendar(q) => q.push(at, seq, inc, kind),
            EventQueue::Reference(q) => q.push(at, seq, inc, kind),
        }
    }

    #[inline]
    pub(crate) fn push_timer(
        &mut self,
        at: SimTime,
        seq: u64,
        inc: u32,
        pid: ProcessId,
        tag: u64,
    ) -> TimerToken {
        match self {
            EventQueue::Calendar(q) => q.push_timer(at, seq, inc, pid, tag),
            EventQueue::Reference(q) => q.push_timer(at, seq, inc, pid, tag),
        }
    }

    #[inline]
    pub(crate) fn cancel(&mut self, token: TimerToken) -> Option<(ProcessId, u32)> {
        match self {
            EventQueue::Calendar(q) => q.cancel(token),
            EventQueue::Reference(q) => q.cancel(token),
        }
    }

    /// Pops the next event only if its time is at most `limit` — the run
    /// loop's fused peek+pop.
    #[inline]
    pub(crate) fn pop_at_most(&mut self, limit: SimTime) -> Option<Popped> {
        match self {
            EventQueue::Calendar(q) => q.pop_at_most(limit),
            EventQueue::Reference(q) => q.pop_at_most(limit),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            EventQueue::Calendar(q) => q.len(),
            EventQueue::Reference(q) => q.len(),
        }
    }

    /// Entries retained purely for lazy deletion: cancelled-timer
    /// tombstones (calendar) or the cancelled-token set (reference).
    pub(crate) fn residue(&self) -> usize {
        match self {
            EventQueue::Calendar(q) => q.residue(),
            EventQueue::Reference(q) => q.residue(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: u32) -> ProcessId {
        ProcessId(i)
    }

    /// Deterministic splitmix64 for workload generation (no external deps).
    struct Mix(u64);
    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    #[test]
    fn calendar_pops_in_at_seq_order_across_buckets() {
        let mut q = CalendarQueue::new();
        // Same-tick ties break by seq; spread across buckets and overflow.
        let ats = [5u64, 5, 70_000, 1, BUCKET_WIDTH_NS * 3, HORIZON_NS + 7, 2];
        for (seq, &at) in ats.iter().enumerate() {
            q.push(
                SimTime::from_nanos(at),
                seq as u64,
                0,
                EventKind::Start(pid(seq as u32)),
            );
        }
        let mut got = Vec::new();
        while let Some(p) = q.pop() {
            got.push((p.at.as_nanos(), p.seq));
        }
        let mut want: Vec<(u64, u64)> = ats
            .iter()
            .enumerate()
            .map(|(s, &a)| (a, s as u64))
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn calendar_peek_does_not_commit_the_wheel() {
        let mut q = CalendarQueue::new();
        // Only a far-future event: peeking must not advance cur_start, so a
        // subsequent near push still pops first.
        q.push(SimTime::from_secs(2), 0, 0, EventKind::Start(pid(0)));
        assert_eq!(q.next_at(), Some(SimTime::from_secs(2)));
        q.push(SimTime::from_nanos(10), 1, 0, EventKind::Start(pid(1)));
        assert_eq!(q.next_at(), Some(SimTime::from_nanos(10)));
        assert_eq!(q.pop().unwrap().seq, 1);
        assert_eq!(q.pop().unwrap().seq, 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn calendar_cancel_is_exact_and_generation_safe() {
        let mut q = CalendarQueue::new();
        let t0 = q.push_timer(SimTime::from_nanos(100), 0, 0, pid(1), 7);
        assert_eq!(q.cancel(t0), Some((pid(1), 0)));
        assert_eq!(q.cancel(t0), None, "double cancel is a no-op");
        assert_eq!(q.residue(), 1);
        let p = q.pop().unwrap();
        assert!(p.cancelled);
        assert_eq!(q.residue(), 0);
        // The slot is reused for the next timer; the stale token's
        // generation no longer matches, so it cannot cancel the new timer.
        let t1 = q.push_timer(SimTime::from_nanos(200), 1, 0, pid(2), 8);
        assert_ne!(t0, t1);
        assert_eq!(q.cancel(t0), None);
        let p = q.pop().unwrap();
        assert!(!p.cancelled, "stale token must not cancel a reused slot");
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn calendar_cancel_after_fire_is_noop() {
        let mut q = CalendarQueue::new();
        let t = q.push_timer(SimTime::from_nanos(50), 0, 0, pid(1), 1);
        let p = q.pop().unwrap();
        assert!(!p.cancelled);
        assert_eq!(q.cancel(t), None);
        assert_eq!(q.residue(), 0);
    }

    #[test]
    fn calendar_slab_is_pooled() {
        let mut q = CalendarQueue::new();
        for round in 0..100u64 {
            for i in 0..8u64 {
                q.push(
                    SimTime::from_nanos(round * 1000 + i),
                    round * 8 + i,
                    0,
                    EventKind::Start(pid(i as u32)),
                );
            }
            for _ in 0..8 {
                q.pop().unwrap();
            }
        }
        assert!(
            q.slab.len() <= 8,
            "slab grew to {} despite pooling",
            q.slab.len()
        );
    }

    #[test]
    fn reference_cancel_sets_stay_bounded() {
        let mut q = ReferenceQueue::new();
        for i in 0..1000u64 {
            let t = q.push_timer(SimTime::from_nanos(i + 1), i, 0, pid(0), i);
            if i % 2 == 0 {
                q.cancel(t);
            }
            let p = q.pop().unwrap();
            assert_eq!(p.cancelled, i % 2 == 0);
            // Cancelling after the pop must not repopulate the tombstones.
            q.cancel(t);
        }
        assert_eq!(q.residue(), 0);
        assert_eq!(q.len(), 0);
    }

    #[test]
    #[ignore = "manual profiling aid: cargo test --release -p s2g-sim raw_queue -- --ignored --nocapture"]
    fn raw_queue_throughput() {
        const LIVE: u64 = 72_000;
        const OPS: u64 = 2_000_000;
        fn delay(rng: &mut Mix) -> u64 {
            if rng.below(16) == 0 {
                200_000_000 + rng.below(300_000_000)
            } else {
                1_000_000 + rng.below(119_000_000)
            }
        }
        macro_rules! churn {
            ($q:ident) => {{
                let mut rng = Mix(7);
                let mut seq = 0u64;
                let mut tokens = Vec::new();
                for _ in 0..LIVE {
                    let d = delay(&mut rng);
                    tokens.push($q.push_timer(SimTime::from_nanos(d), seq, 0, pid(0), 0));
                    seq += 1;
                }
                for i in 0..OPS {
                    let p = $q.pop().expect("live");
                    let d = delay(&mut rng);
                    tokens[(i % LIVE) as usize] =
                        $q.push_timer(SimTime::from_nanos(p.at.as_nanos() + d), seq, 0, pid(0), 0);
                    seq += 1;
                    if i % 8 == 0 {
                        $q.cancel(tokens[rng.below(LIVE) as usize]);
                    }
                }
            }};
        }
        let mut cal = CalendarQueue::new();
        let t0 = std::time::Instant::now();
        churn!(cal);
        let cal_s = t0.elapsed().as_secs_f64();
        let mut rq = ReferenceQueue::new();
        let t0 = std::time::Instant::now();
        churn!(rq);
        let ref_s = t0.elapsed().as_secs_f64();
        println!(
            "raw queue: calendar {:.0} ops/s ({:.1} ns/op) | reference {:.0} ops/s ({:.1} ns/op) | ratio {:.2}x",
            OPS as f64 / cal_s,
            cal_s * 1e9 / OPS as f64,
            OPS as f64 / ref_s,
            ref_s * 1e9 / OPS as f64,
            ref_s / cal_s
        );
    }

    /// Randomized differential: both queues see the same interleaving of
    /// pushes, timer pushes, cancels, and pops; the popped streams must be
    /// identical in `(at, seq, cancelled)`.
    #[test]
    fn differential_pop_order_matches_reference() {
        for seed in 0..30u64 {
            let mut cal = CalendarQueue::new();
            let mut refq = ReferenceQueue::new();
            let mut rng = Mix(seed.wrapping_mul(0x5851_f42d_4c95_7f2d) + 1);
            let mut now = 0u64;
            let mut seq = 0u64;
            let mut live: Vec<(TimerToken, TimerToken)> = Vec::new();
            let mut cal_out = Vec::new();
            let mut ref_out = Vec::new();
            for _ in 0..4000 {
                match rng.below(10) {
                    0..=3 => {
                        // Delays spanning in-bucket, cross-bucket, and
                        // overflow distances.
                        let d = match rng.below(3) {
                            0 => rng.below(BUCKET_WIDTH_NS),
                            1 => rng.below(HORIZON_NS),
                            _ => HORIZON_NS + rng.below(HORIZON_NS * 4),
                        };
                        let at = SimTime::from_nanos(now + d);
                        cal.push(at, seq, 0, EventKind::Start(pid(0)));
                        refq.push(at, seq, 0, EventKind::Start(pid(0)));
                        seq += 1;
                    }
                    4..=6 => {
                        let d = rng.below(HORIZON_NS * 2);
                        let at = SimTime::from_nanos(now + d);
                        let tc = cal.push_timer(at, seq, 0, pid(1), seq);
                        let tr = refq.push_timer(at, seq, 0, pid(1), seq);
                        seq += 1;
                        live.push((tc, tr));
                    }
                    7 => {
                        if !live.is_empty() {
                            let i = rng.below(live.len() as u64) as usize;
                            let (tc, tr) = live.swap_remove(i);
                            assert_eq!(cal.cancel(tc).is_some(), refq.cancel(tr).is_some());
                        }
                    }
                    _ => {
                        let a = cal.pop();
                        let b = refq.pop();
                        match (a, b) {
                            (None, None) => {}
                            (Some(x), Some(y)) => {
                                assert_eq!(
                                    (x.at, x.seq, x.cancelled),
                                    (y.at, y.seq, y.cancelled),
                                    "seed {seed}"
                                );
                                now = x.at.as_nanos();
                                cal_out.push((x.at, x.seq));
                                ref_out.push((y.at, y.seq));
                            }
                            _ => panic!("seed {seed}: queues disagree on emptiness"),
                        }
                    }
                }
                assert_eq!(cal.len(), refq.len(), "seed {seed}");
            }
            // Drain the rest.
            loop {
                match (cal.pop(), refq.pop()) {
                    (None, None) => break,
                    (Some(x), Some(y)) => {
                        assert_eq!((x.at, x.seq, x.cancelled), (y.at, y.seq, y.cancelled));
                    }
                    _ => panic!("seed {seed}: drain length mismatch"),
                }
            }
            assert_eq!(cal_out, ref_out);
        }
    }
}
