//! Memory ledger for the resource model.
//!
//! stream2gym's §VI-C evaluation snapshots `/proc/meminfo` to report the
//! emulation's peak memory usage as components and producer buffers scale.
//! Our components register themselves with a shared [`MemLedger`] — a base
//! resident footprint (e.g. a broker JVM) plus a dynamic part they update as
//! they run (log bytes retained, producer buffer fill). The run's sampler
//! records [`MemLedger::total`] at each tick (every 500 ms by default), and
//! the report's peak is the maximum of that series.

use std::cell::RefCell;
use std::rc::Rc;

/// A shared handle to the memory ledger.
pub type LedgerHandle = Rc<RefCell<MemLedger>>;

/// A component's slot in the ledger, returned by [`MemLedger::register`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemSlot(usize);

#[derive(Debug, Clone)]
struct SlotState {
    name: String,
    base: u64,
    dynamic: u64,
}

/// Tracks the modeled resident memory of every registered component.
///
/// # Examples
///
/// ```
/// use s2g_sim::MemLedger;
///
/// let ledger = MemLedger::new(4 << 30); // 4 GiB OS/emulator baseline
/// let handle = ledger.into_handle();
/// let slot = handle.borrow_mut().register("broker-1", 400 << 20);
/// handle.borrow_mut().set_dynamic(slot, 10 << 20);
/// assert_eq!(handle.borrow().total(), (4 << 30) + (400 << 20) + (10 << 20));
/// ```
#[derive(Debug, Clone)]
pub struct MemLedger {
    baseline: u64,
    slots: Vec<SlotState>,
}

impl MemLedger {
    /// Creates a ledger with a fixed baseline (OS, emulator, switch daemons).
    pub fn new(baseline_bytes: u64) -> Self {
        MemLedger {
            baseline: baseline_bytes,
            slots: Vec::new(),
        }
    }

    /// Wraps the ledger in a shared handle.
    pub fn into_handle(self) -> LedgerHandle {
        Rc::new(RefCell::new(self))
    }

    /// Registers a component with a base resident footprint; returns its slot.
    pub fn register(&mut self, name: impl Into<String>, base_bytes: u64) -> MemSlot {
        let slot = MemSlot(self.slots.len());
        self.slots.push(SlotState {
            name: name.into(),
            base: base_bytes,
            dynamic: 0,
        });
        slot
    }

    /// Updates a component's dynamic memory (buffers, retained logs).
    pub fn set_dynamic(&mut self, slot: MemSlot, bytes: u64) {
        self.slots[slot.0].dynamic = bytes;
    }

    /// Total modeled resident bytes: baseline + all bases + all dynamics.
    pub fn total(&self) -> u64 {
        self.baseline + self.slots.iter().map(|s| s.base + s.dynamic).sum::<u64>()
    }

    /// The fixed baseline.
    pub fn baseline(&self) -> u64 {
        self.baseline
    }

    /// Per-component `(name, base, dynamic)` view for reports.
    pub fn components(&self) -> impl Iterator<Item = (&str, u64, u64)> {
        self.slots
            .iter()
            .map(|s| (s.name.as_str(), s.base, s.dynamic))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let mut l = MemLedger::new(1_000);
        let a = l.register("a", 500);
        let b = l.register("b", 300);
        assert_eq!(l.total(), 1_800);
        l.set_dynamic(a, 50);
        l.set_dynamic(b, 25);
        assert_eq!(l.total(), 1_875);
        l.set_dynamic(b, 0);
        assert_eq!(l.total(), 1_850);
    }

    #[test]
    fn components_view() {
        let mut l = MemLedger::new(0);
        let s = l.register("broker", 400);
        l.set_dynamic(s, 7);
        let v: Vec<_> = l.components().collect();
        assert_eq!(v, vec![("broker", 400, 7)]);
    }
}
