//! Discrete-event simulation substrate for the flexsnoop simulator.
//!
//! This crate provides the timing machinery every other flexsnoop crate is
//! built on:
//!
//! * [`Cycle`] / [`Cycles`] — newtypes for absolute simulation time and
//!   durations, measured in processor clock cycles.
//! * [`EventQueue`] / [`queue::BucketQueue`] — deterministic time-ordered
//!   queues with FIFO tie-breaking for events scheduled at the same cycle
//!   (a binary heap and a timing wheel with identical pop order; see
//!   [`QueueKind`]).
//! * [`Scheduler`] — an event queue plus a simulation clock.
//! * [`Resource`] — a serially-occupied resource (bus, link, memory port)
//!   used to model contention.
//! * [`SplitMix64`] — a tiny deterministic RNG for reproducible simulations.
//! * [`fxhash`] — a fast deterministic hasher for simulator-internal maps.
//! * [`Executor`] — a bounded work-stealing pool for sweeping many
//!   independent simulations without oversubscribing the machine.
//!
//! # Example
//!
//! ```
//! use flexsnoop_engine::{Cycles, Scheduler};
//!
//! let mut sched: Scheduler<&str> = Scheduler::new();
//! sched.schedule_in(Cycles(10), "b");
//! sched.schedule_in(Cycles(5), "a");
//! let (t, ev) = sched.pop().unwrap();
//! assert_eq!((t.as_u64(), ev), (5, "a"));
//! let (t, ev) = sched.pop().unwrap();
//! assert_eq!((t.as_u64(), ev), (10, "b"));
//! ```

#![warn(missing_docs)]

pub mod executor;
pub mod fxhash;
pub mod queue;
pub mod resource;
pub mod rng;
pub mod snap;
pub mod time;

pub use executor::{CancelToken, Executor, ExecutorService, ExecutorStats, WorkerStats};
pub use fxhash::{FxHashMap, FxHashSet};
pub use queue::{EventQueue, QueueKind};
pub use resource::Resource;
pub use rng::SplitMix64;
pub use snap::{SnapError, SnapReader, SnapWriter, Snapshot};
pub use time::{Cycle, Cycles};

/// An event queue combined with a simulation clock.
///
/// The clock advances monotonically to the timestamp of each popped event.
/// Events may never be scheduled in the past; doing so is a logic error and
/// panics (see [`Scheduler::schedule_at`]).
///
/// The backing queue is chosen by [`QueueKind`]; both implementations pop
/// in the identical `(time, insertion order)` sequence, so the choice
/// never changes simulation results — only throughput.
#[derive(Debug, Clone)]
pub struct Scheduler<E> {
    now: Cycle,
    queue: AnyQueue<E>,
}

/// Dispatch between the two queue implementations.
#[derive(Debug, Clone)]
enum AnyQueue<E> {
    Heap(EventQueue<E>),
    Bucketed(queue::BucketQueue<E>),
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler with the clock at cycle 0, backed by the
    /// default (bucketed) queue.
    pub fn new() -> Self {
        Self::with_queue(QueueKind::default())
    }

    /// Creates an empty scheduler backed by the given queue implementation.
    pub fn with_queue(kind: QueueKind) -> Self {
        Self {
            now: Cycle::ZERO,
            queue: match kind {
                QueueKind::Heap => AnyQueue::Heap(EventQueue::new()),
                QueueKind::Bucketed => AnyQueue::Bucketed(queue::BucketQueue::new()),
            },
        }
    }

    /// Which queue implementation backs this scheduler.
    pub fn queue_kind(&self) -> QueueKind {
        match &self.queue {
            AnyQueue::Heap(_) => QueueKind::Heap,
            AnyQueue::Bucketed(_) => QueueKind::Bucketed,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.queue {
            AnyQueue::Heap(q) => q.len(),
            AnyQueue::Bucketed(q) => q.len(),
        }
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulation time: an event
    /// in the past can never be dispatched by a monotonic clock and always
    /// indicates a model bug.
    #[inline]
    pub fn schedule_at(&mut self, at: Cycle, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at}, now={}",
            self.now
        );
        match &mut self.queue {
            AnyQueue::Heap(q) => q.push(at, event),
            AnyQueue::Bucketed(q) => q.push(at, event),
        }
    }

    /// Schedules `event` after a delay of `delay` cycles from now.
    #[inline]
    pub fn schedule_in(&mut self, delay: Cycles, event: E) {
        let at = self.now + delay;
        match &mut self.queue {
            AnyQueue::Heap(q) => q.push(at, event),
            AnyQueue::Bucketed(q) => q.push(at, event),
        }
    }

    /// Pops the next event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when the queue is drained; the clock keeps its last
    /// value so a post-mortem caller can still ask "when did we finish?".
    #[inline]
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let (t, e) = match &mut self.queue {
            AnyQueue::Heap(q) => q.pop()?,
            AnyQueue::Bucketed(q) => q.pop()?,
        };
        debug_assert!(t >= self.now, "event queue returned a past event");
        self.now = t;
        Some((t, e))
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<Cycle> {
        match &self.queue {
            AnyQueue::Heap(q) => q.peek_time(),
            AnyQueue::Bucketed(q) => q.peek_time(),
        }
    }

    /// Forces the clock to `at` without popping an event.
    ///
    /// Checkpoint restore only: re-inserting a snapshot's pending events
    /// into a fresh scheduler leaves the clock at zero (pushes never
    /// advance it), so the restorer rewinds — or rather fast-forwards —
    /// the clock to the snapshot's simulation time as the final step.
    ///
    /// # Panics
    ///
    /// Panics if a pending event would end up in the past, which would
    /// break the monotonic-clock contract the queues rely on.
    pub fn restore_clock(&mut self, at: Cycle) {
        if let Some(t) = self.peek_time() {
            assert!(
                t >= at,
                "restore_clock({at}) would strand a pending event at {t}"
            );
        }
        self.now = at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_orders_by_time_then_fifo() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_at(Cycle::new(7), 1);
        s.schedule_at(Cycle::new(3), 2);
        s.schedule_at(Cycle::new(7), 3);
        assert_eq!(s.pop(), Some((Cycle::new(3), 2)));
        assert_eq!(s.now(), Cycle::new(3));
        assert_eq!(s.pop(), Some((Cycle::new(7), 1)));
        assert_eq!(s.pop(), Some((Cycle::new(7), 3)));
        assert_eq!(s.pop(), None);
        assert_eq!(s.now(), Cycle::new(7));
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule_in(Cycles(5), "x");
        let _ = s.pop();
        s.schedule_in(Cycles(5), "y");
        assert_eq!(s.pop(), Some((Cycle::new(10), "y")));
    }

    #[test]
    #[should_panic(expected = "event scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule_at(Cycle::new(10), "x");
        let _ = s.pop();
        s.schedule_at(Cycle::new(5), "y");
    }

    #[test]
    fn restore_clock_fast_forwards() {
        // Re-inserted events leave the clock at zero; restoring it must
        // not pop anything, and the pending event keeps its time.
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule_at(Cycle::new(50), "ev");
        s.restore_clock(Cycle::new(50));
        assert_eq!(s.now(), Cycle::new(50));
        assert_eq!(s.pop(), Some((Cycle::new(50), "ev")));
    }

    #[test]
    #[should_panic(expected = "strand a pending event")]
    fn restore_clock_rejects_stranding() {
        let mut s: Scheduler<&str> = Scheduler::with_queue(QueueKind::Heap);
        s.schedule_at(Cycle::new(10), "ev");
        s.restore_clock(Cycle::new(11));
    }

    #[test]
    fn empty_and_len() {
        let mut s: Scheduler<u8> = Scheduler::new();
        assert!(s.is_empty());
        s.schedule_in(Cycles(1), 0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.peek_time(), Some(Cycle::new(1)));
    }
}
