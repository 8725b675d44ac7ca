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
//! * [`Executor`] — a bounded pool, one shared task queue, for sweeping many
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

pub use executor::{Executor, ExecutorService, ExecutorStats, WorkerStats};
pub use fxhash::{map_heap_bytes, FxHashMap, FxHashSet};
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

    /// Estimated bytes the backing queue holds at its current capacity
    /// ([`EventQueue::footprint_bytes`],
    /// [`queue::BucketQueue::footprint_bytes`]).
    pub fn footprint_bytes(&self) -> u64 {
        match &self.queue {
            AnyQueue::Heap(q) => q.footprint_bytes(),
            AnyQueue::Bucketed(q) => q.footprint_bytes(),
        }
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

    /// Pops the next event if it is due before `stop`, advancing the clock
    /// to its timestamp; otherwise returns `None` and changes nothing.
    ///
    /// This is the bounded run loop's one queue search per event; calling
    /// [`peek_time`](Self::peek_time) and then [`pop`](Self::pop) searches
    /// twice. A declined pop leaves the clock, the pending events and the
    /// floor for later pushes as they were, so `schedule_at(now())` stays
    /// legal after it.
    #[inline]
    pub fn pop_before(&mut self, stop: Cycle) -> Option<(Cycle, E)> {
        let (t, e) = match &mut self.queue {
            AnyQueue::Heap(q) => q.pop_before(stop)?,
            AnyQueue::Bucketed(q) => q.pop_before(stop)?,
        };
        debug_assert!(t >= self.now, "event queue returned a past event");
        debug_assert!(t < stop, "pop_before returned an event at or past its stop");
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

    /// A declined `pop_before` is invisible: the pending count, the next
    /// time, the clock and the order of every later pop are what they
    /// would have been without it, on both backends, with the wheel
    /// holding events and with only heap events left.
    #[test]
    fn declined_pop_before_changes_nothing() {
        let times = [3u64, 3, 40, 9_000, 9_000, 12_345, 30_000_000];
        for kind in [QueueKind::Heap, QueueKind::Bucketed] {
            let fill = || {
                let mut s = Scheduler::with_queue(kind);
                for (i, &t) in times.iter().enumerate() {
                    s.schedule_at(Cycle::new(t), i);
                }
                s
            };
            let mut plain = fill();
            let expected: Vec<_> = std::iter::from_fn(|| plain.pop()).collect();
            let mut probed = fill();
            let mut order = Vec::new();
            while let Some(next) = probed.peek_time() {
                let before = (probed.len(), probed.peek_time(), probed.now());
                assert_eq!(probed.pop_before(next), None, "{kind:?}");
                assert_eq!(probed.pop_before(probed.now()), None, "{kind:?}");
                assert_eq!(
                    (probed.len(), probed.peek_time(), probed.now()),
                    before,
                    "{kind:?}: a declined pop changed the scheduler"
                );
                order.push(probed.pop().expect("an event is pending"));
            }
            assert_eq!(order, expected, "{kind:?}");
        }
    }

    /// The cursor contract: a declined `pop_before` must not move the
    /// bucketed wheel's push floor past the clock (moving the wheel to
    /// the next event's block would), so an event scheduled at `now()`
    /// right after is accepted and pops first.
    #[test]
    fn schedule_at_now_after_declined_pop() {
        for kind in [QueueKind::Heap, QueueKind::Bucketed] {
            let mut s = Scheduler::with_queue(kind);
            s.schedule_at(Cycle::new(10), "first");
            s.schedule_at(Cycle::new(9_000), "timeout");
            let first = s.pop_before(Cycle::new(11));
            assert_eq!(first, Some((Cycle::new(10), "first")));
            // Only the timeout is left, in the heap: the wheel is empty.
            assert_eq!(s.pop_before(Cycle::new(5_000)), None);
            assert_eq!(s.now(), Cycle::new(10));
            s.schedule_at(s.now(), "now");
            assert_eq!(s.pop(), Some((Cycle::new(10), "now")));
            assert_eq!(s.pop(), Some((Cycle::new(9_000), "timeout")));
        }
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
