//! Processes and messages.
//!
//! Every application component in stream2gym-rs — a message broker, a data
//! producer stub, a stream-processing worker, a monitoring daemon — is a
//! [`Process`]: a deterministic state machine driven by messages and timers.
//! This mirrors the paper's design where "each application component runs as
//! an independent process", except that our processes are simulated actors
//! rather than OS processes.

use std::any::Any;
use std::fmt;

/// Identifies a process registered with the [`Sim`](crate::Sim) scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub u32);

impl ProcessId {
    /// The raw index of this process in the scheduler's table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A token returned by [`Ctx::set_timer`](crate::Ctx::set_timer) that can be
/// used to cancel a pending timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken(pub u64);

/// A message exchanged between processes.
///
/// Any `'static` type with a `Debug` impl can be a message; implementors
/// override [`wire_size`](Message::wire_size) so the network emulator can
/// charge a realistic number of bytes against link bandwidth, exactly like
/// real frames would occupy a `tc`-shaped veth link in the original
/// Mininet-based stream2gym.
///
/// # Examples
///
/// ```
/// use s2g_sim::Message;
///
/// #[derive(Debug)]
/// struct Ping { payload: Vec<u8> }
///
/// impl Message for Ping {
///     fn wire_size(&self) -> usize { 32 + self.payload.len() }
/// }
///
/// let m = Ping { payload: vec![0; 100] };
/// assert_eq!(m.wire_size(), 132);
/// ```
pub trait Message: Any + fmt::Debug {
    /// The number of bytes this message occupies on the wire (headers
    /// included). Defaults to a nominal 64-byte frame.
    fn wire_size(&self) -> usize {
        64
    }
}

/// Downcasts a boxed message to a concrete type, returning the original box
/// on mismatch so the caller can try another type.
///
/// # Examples
///
/// ```
/// use s2g_sim::{downcast, Message};
///
/// #[derive(Debug)]
/// struct A(u32);
/// impl Message for A {}
///
/// let boxed: Box<dyn Message> = Box::new(A(7));
/// let a = downcast::<A>(boxed).expect("type matches");
/// assert_eq!(a.0, 7);
/// ```
pub fn downcast<T: Message>(msg: Box<dyn Message>) -> Result<Box<T>, Box<dyn Message>> {
    if (msg.as_ref() as &dyn Any).is::<T>() {
        let any: Box<dyn Any> = msg;
        Ok(any.downcast::<T>().expect("checked by is::<T>"))
    } else {
        Err(msg)
    }
}

/// Borrow-downcasts a message reference to a concrete type.
pub fn downcast_ref<T: Message>(msg: &dyn Message) -> Option<&T> {
    (msg as &dyn Any).downcast_ref::<T>()
}

/// A deterministic, event-driven application component.
///
/// Handlers receive a [`Ctx`](crate::Ctx) which exposes the current simulated
/// time, the seeded RNG, message sending, timers, and CPU execution. All
/// state mutation happens inside handlers, so a run is fully determined by
/// the seed and the task description.
pub trait Process: Any {
    /// A human-readable name used in panics and reports.
    fn name(&self) -> &str;

    /// Called once when the simulation starts (at the process's start time).
    fn on_start(&mut self, _ctx: &mut crate::Ctx<'_>) {}

    /// Called when a message from `from` is delivered to this process.
    fn on_message(&mut self, ctx: &mut crate::Ctx<'_>, from: ProcessId, msg: Box<dyn Message>);

    /// Called when a timer set via [`Ctx::set_timer`](crate::Ctx::set_timer)
    /// fires. `tag` is the caller-chosen discriminator.
    fn on_timer(&mut self, _ctx: &mut crate::Ctx<'_>, _tag: u64) {}

    /// Called when a CPU work item scheduled via
    /// [`Ctx::exec`](crate::Ctx::exec) completes. `tag` is the caller-chosen
    /// discriminator.
    fn on_cpu_done(&mut self, _ctx: &mut crate::Ctx<'_>, _tag: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct M1(u64);
    impl Message for M1 {
        fn wire_size(&self) -> usize {
            8
        }
    }

    #[derive(Debug)]
    struct M2;
    impl Message for M2 {}

    #[test]
    fn downcast_matches_and_misses() {
        let b: Box<dyn Message> = Box::new(M1(42));
        let b = match downcast::<M2>(b) {
            Ok(_) => panic!("wrong type should not downcast"),
            Err(orig) => orig,
        };
        let m1 = downcast::<M1>(b).expect("right type");
        assert_eq!(m1.0, 42);
    }

    #[test]
    fn downcast_ref_works() {
        let b: Box<dyn Message> = Box::new(M1(9));
        assert!(downcast_ref::<M2>(b.as_ref()).is_none());
        assert_eq!(downcast_ref::<M1>(b.as_ref()).unwrap().0, 9);
    }

    #[test]
    fn default_wire_size() {
        assert_eq!(M2.wire_size(), 64);
        assert_eq!(M1(0).wire_size(), 8);
    }

    #[test]
    fn process_id_display() {
        assert_eq!(ProcessId(3).to_string(), "p3");
        assert_eq!(ProcessId(3).index(), 3);
    }
}
