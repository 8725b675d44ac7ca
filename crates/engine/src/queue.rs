//! Deterministic time-ordered event queues.
//!
//! Two implementations with identical pop order:
//!
//! * [`EventQueue`] — a binary heap; O(log n) everywhere, no assumptions
//!   about the time distribution.
//! * [`BucketQueue`] — a near and a far timing wheel for the
//!   near-monotonic schedules a discrete-event simulator produces (almost
//!   every event lands within a few hundred cycles of "now"); O(1)
//!   push/pop for in-horizon events, with a heap fallback for far-future
//!   ones. Near-wheel events live in one slab, so its storage follows
//!   the number of pending events.
//!
//! Both order events by `(time, insertion sequence)`, so simulations are
//! bit-for-bit reproducible whichever queue backs the [`crate::Scheduler`]
//! — a property pinned by the determinism regression tests.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::mem::size_of;

use crate::time::Cycle;

/// Which event-queue implementation a [`crate::Scheduler`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// Binary heap ([`EventQueue`]).
    Heap,
    /// Timing wheel with heap overflow ([`BucketQueue`]); the default.
    #[default]
    Bucketed,
}

/// A priority queue of `(Cycle, E)` pairs ordered by ascending time.
///
/// Events with equal timestamps are returned in insertion (FIFO) order, which
/// makes simulations bit-for-bit reproducible regardless of heap internals.
///
/// # Example
///
/// ```
/// use flexsnoop_engine::{queue::EventQueue, Cycle};
///
/// let mut q = EventQueue::new();
/// q.push(Cycle::new(5), 'b');
/// q.push(Cycle::new(5), 'c');
/// q.push(Cycle::new(1), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['a', 'b', 'c']);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    time: Cycle,
    seq: u64,
    event: E,
}

// The heap is a max-heap; invert the ordering to pop earliest-first, with
// the insertion sequence number breaking ties.
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Inserts `event` with timestamp `time`.
    pub fn push(&mut self, time: Cycle, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// Removes and returns the earliest event if it is due before `stop`;
    /// otherwise leaves the queue untouched and returns `None`.
    pub fn pop_before(&mut self, stop: Cycle) -> Option<(Cycle, E)> {
        if self.heap.peek()?.time >= stop {
            return None;
        }
        self.pop()
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Estimated bytes the queue holds: the binary heap at its current
    /// capacity.
    pub fn footprint_bytes(&self) -> u64 {
        (self.heap.capacity() * size_of::<Entry<E>>()) as u64
    }
}

/// Near-wheel span in cycles. Ring hops, snoops and cache round-trips are
/// all tens of cycles and DRAM a few hundred, so nearly every event lands
/// in the near wheel.
const WHEEL: u64 = 4096;

/// Far-wheel bucket count. Each far bucket spans `WHEEL` cycles, so the
/// far wheel covers `WHEEL * FAR_BUCKETS` ≈ 16.7M cycles beyond the near
/// horizon — enough for cross-chip torus data legs and requester timeouts
/// at million-node ring scale, which used to degrade to the heap fallback.
const FAR_BUCKETS: u64 = 4096;

/// Total horizon the two wheels cover before the heap fallback engages.
const FAR_SPAN: u64 = WHEEL * FAR_BUCKETS;

/// Near-wheel bucket count, as an array length.
const NEAR: usize = WHEEL as usize;

/// 64-bit words in the near wheel's occupancy bitmap.
const WORDS: usize = NEAR / 64;

/// End of a slab list: an empty bucket's head, or the last slot's link.
const NIL: u32 = u32::MAX;

/// One near-wheel event in the slab, linked to the next slot of its
/// bucket's FIFO or, once freed, of the free list.
#[derive(Debug, Clone)]
struct Slot<E> {
    seq: u64,
    next: u32,
    /// `None` while the slot is on the free list.
    event: Option<E>,
}

/// A hierarchical timing-wheel event queue with a heap fallback for events
/// beyond both wheel horizons.
///
/// Events within `WHEEL` cycles of the queue's clock go into per-cycle
/// FIFO *near* buckets (O(1)); events up to ~16.7M cycles out go into
/// `WHEEL`-cycle-wide *far* buckets that cascade into the near wheel as
/// the clock approaches them; only events beyond the far horizon go into
/// an overflow heap. `pop` compares the earliest wheel entry against the
/// heap top by `(time, insertion sequence)`, so the pop order is identical
/// to [`EventQueue`]'s.
///
/// Near buckets own no storage: every near event sits in one slab, and a
/// bucket is a FIFO list threaded through it by index. Near-wheel memory
/// therefore follows the most events ever pending at once, not `WHEEL`
/// times the deepest burst each bucket has seen.
///
/// **Contract:** pushes must not be earlier than the last popped time
/// (enforced by [`crate::Scheduler`], which never schedules in the past).
/// This is what lets the wheels advance monotonic cursors instead of
/// re-scanning.
#[derive(Debug, Clone)]
pub struct BucketQueue<E> {
    /// Every near-wheel event. Freed slots go on a LIFO free list headed
    /// by `free` and are reused before the slab grows, so its length is
    /// the most near events ever pending at once.
    slots: Vec<Slot<E>>,
    /// First slot of the free list, or `NIL`.
    free: u32,
    /// `WHEEL` per-cycle buckets, indexed by `time % WHEEL`: the first
    /// and last slot of a FIFO list holding the events of exactly one
    /// timestamp, in insertion order. A bucket is empty when its head is
    /// `NIL`; its tail is stale then. Near entries lie in
    /// `[cursor, far_start)`, and the push/pop invariant
    /// `far_start - cursor <= WHEEL` keeps the mapping injective (at most
    /// one timestamp per bucket).
    heads: Box<[u32; NEAR]>,
    tails: Box<[u32; NEAR]>,
    /// Bit `b % 64` of word `b / 64` is set while near bucket `b` is
    /// non-empty.
    occupied: Box<[u64; WORDS]>,
    /// `FAR_BUCKETS` buckets of `WHEEL` cycles each, indexed by
    /// `(time / WHEEL) % FAR_BUCKETS`; entries are *not* time-sorted
    /// within a bucket (they carry their timestamp) and cascade into the
    /// near wheel, in insertion order, when the clock reaches the bucket.
    far: Vec<Vec<(u64, u64, E)>>,
    /// Lower bound on every near entry's time; advances on every pop.
    cursor: u64,
    /// Lower bound on every far entry's time; always a multiple of
    /// `WHEEL`, advances one bucket per cascade. The far wheel covers
    /// `[far_start, far_start + FAR_SPAN)`.
    far_start: u64,
    /// Events currently in the near wheel.
    in_near: usize,
    /// Events currently in the far wheel.
    in_far: usize,
    /// Events at or beyond `far_start + FAR_SPAN` at push time.
    overflow: BinaryHeap<Entry<E>>,
    seq: u64,
}

impl<E> Default for BucketQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> BucketQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: NIL,
            heads: Box::new([NIL; NEAR]),
            tails: Box::new([NIL; NEAR]),
            occupied: Box::new([0; WORDS]),
            far: (0..FAR_BUCKETS).map(|_| Vec::new()).collect(),
            cursor: 0,
            far_start: WHEEL,
            in_near: 0,
            in_far: 0,
            overflow: BinaryHeap::new(),
            seq: 0,
        }
    }

    #[inline]
    fn near_index(t: u64) -> usize {
        (t % WHEEL) as usize
    }

    #[inline]
    fn far_index(t: u64) -> usize {
        ((t / WHEEL) % FAR_BUCKETS) as usize
    }

    /// Inserts `event` with timestamp `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is behind the last popped time. A past-time push
    /// would land in a bucket `WHEEL` cycles in the future and silently
    /// reorder events, so the contract is enforced unconditionally — the
    /// branch is perfectly predicted and free on the hot path.
    #[inline]
    pub fn push(&mut self, time: Cycle, event: E) {
        let t = time.as_u64();
        assert!(
            t >= self.cursor,
            "BucketQueue push at {t} behind cursor {}",
            self.cursor
        );
        let seq = self.seq;
        self.seq += 1;
        if t < self.far_start {
            self.near_push(Self::near_index(t), seq, event);
        } else if t < self.far_start + FAR_SPAN {
            self.far[Self::far_index(t)].push((t, seq, event));
            self.in_far += 1;
        } else {
            self.overflow.push(Entry { time, seq, event });
        }
    }

    /// Appends an entry to the FIFO of near bucket `b`, in a recycled
    /// slot if one is free.
    #[inline]
    fn near_push(&mut self, b: usize, seq: u64, event: E) {
        let slot = Slot {
            seq,
            next: NIL,
            event: Some(event),
        };
        let idx = if self.free == NIL {
            let idx = self.slots.len();
            assert!(idx < NIL as usize, "near wheel slab full");
            self.slots.push(slot);
            idx as u32
        } else {
            let idx = self.free;
            let reused = &mut self.slots[idx as usize];
            self.free = reused.next;
            *reused = slot;
            idx
        };
        if self.heads[b] == NIL {
            self.heads[b] = idx;
            self.occupied[b / 64] |= 1 << (b % 64);
        } else {
            self.slots[self.tails[b] as usize].next = idx;
        }
        self.tails[b] = idx;
        self.in_near += 1;
    }

    /// Removes the first entry of non-empty near bucket `b` and puts its
    /// slot on the free list.
    #[inline]
    fn near_pop(&mut self, b: usize) -> E {
        let idx = self.heads[b];
        let slot = &mut self.slots[idx as usize];
        let event = slot.event.take().expect("bucket head holds an event");
        self.heads[b] = slot.next;
        slot.next = self.free;
        self.free = idx;
        if self.heads[b] == NIL {
            self.occupied[b / 64] &= !(1 << (b % 64));
        }
        self.in_near -= 1;
        event
    }

    /// Time of the earliest non-empty near bucket: the first occupancy
    /// bit at or after the cursor's bucket. `None` when the near wheel is
    /// empty.
    #[inline]
    fn earliest_near_time(&self) -> Option<u64> {
        if self.in_near == 0 {
            return None;
        }
        // Near entries lie in [cursor, far_start), and far_start is the
        // end of the cursor's WHEEL-aligned block, so their buckets run
        // from the cursor's to the last one without wrapping around.
        debug_assert!(
            self.far_start.is_multiple_of(WHEEL) && self.far_start - self.cursor <= WHEEL
        );
        let from = Self::near_index(self.cursor);
        let ahead = self.occupied[from / 64] >> (from % 64);
        if ahead != 0 {
            return Some(self.cursor + u64::from(ahead.trailing_zeros()));
        }
        let (w, bits) = self
            .occupied
            .iter()
            .enumerate()
            .skip(from / 64 + 1)
            .find(|&(_, &bits)| bits != 0)
            .expect("near wheel count out of sync");
        let b = w * 64 + bits.trailing_zeros() as usize;
        Some(self.cursor + (b - from) as u64)
    }

    /// Cascades far buckets into the near wheel until the near wheel is
    /// non-empty (or the far wheel drains). Only called with an empty near
    /// wheel, so the cascaded bucket `[far_start, far_start + WHEEL)` maps
    /// injectively onto the near buckets. The cursor may only advance to
    /// `far_start` if the overflow heap holds nothing earlier — a heap
    /// entry below `far_start` is possible after long idle jumps, and
    /// passing it would let a later push land behind the cursor.
    fn cascade(&mut self) {
        while self.in_near == 0 && self.in_far > 0 {
            if let Some(top) = self.overflow.peek() {
                if top.time.as_u64() < self.far_start {
                    return; // the heap top pops first; do not pass it
                }
            }
            debug_assert!(self.cursor <= self.far_start);
            self.cursor = self.far_start;
            let idx = Self::far_index(self.far_start);
            self.far_start += WHEEL;
            let drained = std::mem::take(&mut self.far[idx]);
            self.in_far -= drained.len();
            for (t, seq, event) in drained {
                debug_assert!(t >= self.cursor && t < self.far_start);
                self.near_push(Self::near_index(t), seq, event);
            }
        }
    }

    /// The earliest entry of the near wheel and the overflow heap: its
    /// time, and whether it sits in the near wheel. An overflow entry wins
    /// when it is earlier — or equal-time with a smaller sequence number
    /// (an overflow push predates, hence out-ranks, any same-time wheel
    /// push, because the far horizon only moves forward between them;
    /// compared by (time, seq) for strict equivalence with EventQueue).
    /// This is the global minimum whenever the near wheel is non-empty,
    /// since every far entry lies at or past `far_start`.
    #[inline]
    fn head(&self) -> Option<(u64, bool)> {
        let near_t = self.earliest_near_time();
        match (near_t, self.overflow.peek()) {
            (None, None) => None,
            (Some(t), None) => Some((t, true)),
            (None, Some(top)) => Some((top.time.as_u64(), false)),
            (Some(wt), Some(top)) => {
                let wseq = self.slots[self.heads[Self::near_index(wt)] as usize].seq;
                if (wt, wseq) < (top.time.as_u64(), top.seq) {
                    Some((wt, true))
                } else {
                    Some((top.time.as_u64(), false))
                }
            }
        }
    }

    /// Removes the entry [`head`](Self::head) found at time `t`.
    #[inline]
    fn take(&mut self, t: u64, from_wheel: bool) -> (Cycle, E) {
        if from_wheel {
            let event = self.near_pop(Self::near_index(t));
            self.cursor = t;
            (Cycle::new(t), event)
        } else {
            let e = self.overflow.pop().expect("overflow entry present");
            // The popped time is the global minimum, so it is still a
            // valid lower bound for every wheel entry.
            self.cursor = t;
            if self.in_near == 0 && self.in_far == 0 {
                // Both wheels drained: re-anchor the far horizon next to
                // the clock so follow-up events use the wheels again
                // instead of raining into the heap.
                self.far_start = (t / WHEEL + 1) * WHEEL;
            }
            (e.time, e.event)
        }
    }

    /// Removes and returns the earliest event (FIFO within a timestamp).
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        if self.in_near == 0 {
            self.cascade();
        }
        let (t, from_wheel) = self.head()?;
        Some(self.take(t, from_wheel))
    }

    /// Removes and returns the earliest event if it is due before `stop`;
    /// otherwise leaves the queue untouched and returns `None`.
    ///
    /// While the near wheel is non-empty, one search decides: its head
    /// against the overflow top, never reading the far wheel. With the
    /// near wheel empty the decision comes before any cascade, so a
    /// declined pop does not move the cursor — the floor for later
    /// pushes stays at the last popped time.
    #[inline]
    pub fn pop_before(&mut self, stop: Cycle) -> Option<(Cycle, E)> {
        if self.in_near == 0 {
            if self.peek_time()? >= stop {
                return None;
            }
            return self.pop();
        }
        let (t, from_wheel) = self.head()?;
        if t >= stop.as_u64() {
            return None;
        }
        Some(self.take(t, from_wheel))
    }

    /// Earliest time pending in the far wheel (scans the first non-empty
    /// bucket; far entries within a bucket are unsorted).
    fn earliest_far(&self) -> Option<u64> {
        if self.in_far == 0 {
            return None;
        }
        let mut start = self.far_start;
        loop {
            let bucket = &self.far[Self::far_index(start)];
            if !bucket.is_empty() {
                return bucket.iter().map(|&(t, _, _)| t).min();
            }
            start += WHEEL;
            debug_assert!(start < self.far_start + FAR_SPAN, "far count out of sync");
        }
    }

    /// Timestamp of the earliest pending event. Near entries precede
    /// every far entry, so the far wheel is scanned only when the near
    /// wheel is empty.
    pub fn peek_time(&self) -> Option<Cycle> {
        let wheel = self.earliest_near_time().or_else(|| self.earliest_far());
        let heap = self.overflow.peek().map(|e| e.time.as_u64());
        wheel.into_iter().chain(heap).min().map(Cycle::new)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.in_near + self.in_far + self.overflow.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events currently in the overflow heap (beyond both wheel
    /// horizons). Regression guard: simulator-scale latencies must land
    /// in the wheels, not here.
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// Events currently in the far wheel.
    pub fn far_len(&self) -> usize {
        self.in_far
    }

    /// Estimated bytes the queue holds at its current capacities: the
    /// slab, the near buckets' head and tail arrays and bitmap, the far
    /// wheel and the overflow heap. Beyond the fixed arrays this follows
    /// the pending events: the slab is as long as the most near events
    /// ever pending at once, and a far bucket frees its storage when it
    /// cascades.
    pub fn footprint_bytes(&self) -> u64 {
        let near = self.slots.capacity() * size_of::<Slot<E>>()
            + 2 * size_of::<[u32; NEAR]>()
            + size_of::<[u64; WORDS]>();
        let far_entries: usize = self.far.iter().map(Vec::capacity).sum();
        let far = self.far.capacity() * size_of::<Vec<(u64, u64, E)>>()
            + far_entries * size_of::<(u64, u64, E)>();
        let overflow = self.overflow.capacity() * size_of::<Entry<E>>();
        (near + far + overflow) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(30), 3);
        q.push(Cycle::new(10), 1);
        q.push(Cycle::new(20), 2);
        assert_eq!(q.pop(), Some((Cycle::new(10), 1)));
        assert_eq!(q.pop(), Some((Cycle::new(20), 2)));
        assert_eq!(q.pop(), Some((Cycle::new(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Cycle::new(42), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycle::new(42), i)));
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_fifo_within_time() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(5), "a");
        assert_eq!(q.pop(), Some((Cycle::new(5), "a")));
        q.push(Cycle::new(5), "b");
        q.push(Cycle::new(5), "c");
        assert_eq!(q.pop(), Some((Cycle::new(5), "b")));
        assert_eq!(q.pop(), Some((Cycle::new(5), "c")));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(Cycle::new(9), ());
        assert_eq!(q.peek_time(), Some(Cycle::new(9)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    // ----- BucketQueue ----------------------------------------------------

    #[test]
    fn bucket_pops_in_time_order() {
        let mut q = BucketQueue::new();
        q.push(Cycle::new(30), 3);
        q.push(Cycle::new(10), 1);
        q.push(Cycle::new(20), 2);
        assert_eq!(q.pop(), Some((Cycle::new(10), 1)));
        assert_eq!(q.pop(), Some((Cycle::new(20), 2)));
        assert_eq!(q.pop(), Some((Cycle::new(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn bucket_equal_times_are_fifo() {
        let mut q = BucketQueue::new();
        for i in 0..100 {
            q.push(Cycle::new(42), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycle::new(42), i)));
        }
    }

    #[test]
    fn bucket_overflow_beyond_horizon_round_trips() {
        let mut q = BucketQueue::new();
        // Beyond the near wheel: lands in the far wheel, not the heap.
        q.push(Cycle::new(10 * WHEEL), "far");
        q.push(Cycle::new(1), "near");
        q.push(Cycle::new(10 * WHEEL), "far2");
        assert_eq!(q.len(), 3);
        assert_eq!(q.overflow_len(), 0);
        assert_eq!(q.far_len(), 2);
        assert_eq!(q.pop(), Some((Cycle::new(1), "near")));
        // FIFO survives the cascade path too.
        assert_eq!(q.pop(), Some((Cycle::new(10 * WHEEL), "far")));
        assert_eq!(q.pop(), Some((Cycle::new(10 * WHEEL), "far2")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn bucket_far_and_near_merge_fifo_at_equal_time() {
        let mut q = BucketQueue::new();
        // Pushed while 2*WHEEL is beyond the near horizon: far-resident.
        q.push(Cycle::new(2 * WHEEL), "far-resident");
        q.push(Cycle::new(WHEEL + 1), "mover");
        assert_eq!(q.pop(), Some((Cycle::new(WHEEL + 1), "mover")));
        // Now 2*WHEEL is inside the near horizon: same time, pushed later
        // — must pop after the far-wheel entry.
        q.push(Cycle::new(2 * WHEEL), "near-resident");
        assert_eq!(q.pop(), Some((Cycle::new(2 * WHEEL), "far-resident")));
        assert_eq!(q.pop(), Some((Cycle::new(2 * WHEEL), "near-resident")));
    }

    #[test]
    fn bucket_heap_and_wheel_merge_fifo_at_equal_time() {
        let mut q = BucketQueue::new();
        // Beyond even the far wheel at push time: goes to the heap.
        let t = WHEEL + FAR_SPAN + 5;
        q.push(Cycle::new(t), "heap-resident");
        assert_eq!(q.overflow_len(), 1);
        q.push(Cycle::new(WHEEL + 7), "mover");
        assert_eq!(q.pop(), Some((Cycle::new(WHEEL + 7), "mover")));
        // Now t fits the (advanced) far wheel: same time, pushed later —
        // must pop after the heap entry.
        q.push(Cycle::new(t), "wheel-resident");
        assert_eq!(q.overflow_len(), 1);
        assert_eq!(q.pop(), Some((Cycle::new(t), "heap-resident")));
        assert_eq!(q.pop(), Some((Cycle::new(t), "wheel-resident")));
    }

    /// Regression for million-node horizons: torus data legs (~16k cycles
    /// at a 1000×1000 mesh) and recovery timeouts (tens of thousands of
    /// cycles) must stay in the wheels. Before the far wheel existed,
    /// every event past 4096 cycles degraded to the heap fallback.
    #[test]
    fn bucket_million_node_latencies_avoid_heap_fallback() {
        let mut q = BucketQueue::new();
        let mut rng = crate::SplitMix64::new(0xabcde);
        let mut now = 0u64;
        for step in 0..20_000u64 {
            // Million-node event mix: per-hop ring events, torus data
            // legs crossing a kilonode mesh, and deep recovery timeouts.
            let delay = match rng.next_below(4) {
                0 => rng.next_below(64),
                1 => 16_000 + rng.next_below(4_000),
                2 => 100_000 + rng.next_below(50_000),
                _ => 1_000_000 + rng.next_below(500_000),
            };
            q.push(Cycle::new(now + delay), step);
            assert_eq!(q.overflow_len(), 0, "heap fallback engaged at {step}");
            if rng.next_below(3) > 0 {
                if let Some((t, _)) = q.pop() {
                    now = t.as_u64();
                }
            }
        }
        while q.pop().is_some() {}
    }

    /// After an idle jump past the far horizon drains everything to the
    /// heap, the far wheel must re-anchor so subsequent pushes use the
    /// wheels again.
    #[test]
    fn bucket_reanchors_after_idle_jump() {
        let mut q = BucketQueue::new();
        let jump = 3 * FAR_SPAN + 17;
        q.push(Cycle::new(jump), "sleeper");
        assert_eq!(q.overflow_len(), 1);
        assert_eq!(q.pop(), Some((Cycle::new(jump), "sleeper")));
        // Wheels re-anchored at the new clock: nearby pushes stay out of
        // the heap.
        q.push(Cycle::new(jump + 10), "near");
        q.push(Cycle::new(jump + 2 * WHEEL), "far");
        assert_eq!(q.overflow_len(), 0);
        assert_eq!(q.pop(), Some((Cycle::new(jump + 10), "near")));
        assert_eq!(q.pop(), Some((Cycle::new(jump + 2 * WHEEL), "far")));
    }

    #[test]
    fn bucket_peek_matches_pop() {
        let mut q = BucketQueue::new();
        q.push(Cycle::new(7), 'a');
        q.push(Cycle::new(3 + WHEEL * 5), 'z');
        assert_eq!(q.peek_time(), Some(Cycle::new(7)));
        q.pop();
        assert_eq!(q.peek_time(), Some(Cycle::new(3 + WHEEL * 5)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "behind cursor")]
    fn bucket_rejects_push_behind_cursor() {
        let mut q = BucketQueue::new();
        q.push(Cycle::new(100), 'a');
        assert_eq!(q.pop(), Some((Cycle::new(100), 'a')));
        // The cursor now sits at 100; a past-time push must panic rather
        // than land in a future bucket and reorder events.
        q.push(Cycle::new(99), 'b');
    }

    /// Property sweep over non-power-of-two horizons: delays clustered
    /// at `{0, 1, h-1, h, h+1}` for horizons straddling the near-wheel
    /// (`WHEEL`) and far-wheel (`FAR_SPAN`) boundaries, plus uniform
    /// fill, cross-checked element-wise against the heap backend. This
    /// pins the bucket-sizing arithmetic exactly where an off-by-one in
    /// `near_index`/`far_index`/`far_start` would bite.
    #[test]
    fn bucket_non_power_of_two_horizons_match_heap() {
        let horizons = [
            3u64,
            1_000,
            3_000,
            WHEEL - 1,
            WHEEL,
            WHEEL + 1,
            10_007, // prime
            100_003,
            FAR_SPAN - 1,
            FAR_SPAN,
            FAR_SPAN + 1,
        ];
        for &h in &horizons {
            let mut rng = crate::SplitMix64::new(0x51ee7 ^ h);
            let mut heap = EventQueue::new();
            let mut wheel = BucketQueue::new();
            let mut now = 0u64;
            for step in 0..4_000u64 {
                let delay = match rng.next_below(8) {
                    0 => 0,
                    1 => 1,
                    2 => h - 1,
                    3 => h,
                    4 => h + 1,
                    _ => rng.next_below(h + 1),
                };
                heap.push(Cycle::new(now + delay), step);
                wheel.push(Cycle::new(now + delay), step);
                if rng.next_below(2) > 0 {
                    let a = heap.pop();
                    let b = wheel.pop();
                    assert_eq!(a, b, "diverged at step {step} (horizon {h})");
                    if let Some((t, _)) = a {
                        now = t.as_u64();
                    }
                }
            }
            loop {
                let a = heap.pop();
                let b = wheel.pop();
                assert_eq!(a, b, "drain diverged (horizon {h})");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    /// Zero-delay pushes landing exactly when the cursor sits on a
    /// wheel-rotation boundary (a multiple of `WHEEL`, reached through
    /// the cascade path) must keep FIFO order and match the heap.
    #[test]
    fn bucket_zero_delay_at_rotation_boundary_matches_heap() {
        let mut heap = EventQueue::new();
        let mut wheel = BucketQueue::new();
        for k in 1..=6u64 {
            heap.push(Cycle::new(k * WHEEL), (k, 0));
            wheel.push(Cycle::new(k * WHEEL), (k, 0));
        }
        for k in 1..=6u64 {
            // This pop cascades and parks the cursor exactly at k*WHEEL.
            let a = heap.pop();
            let b = wheel.pop();
            assert_eq!(a, b, "boundary pop {k}");
            // Zero-delay pushes at the boundary cycle itself; must pop
            // immediately and in insertion order.
            for i in 1..=3u64 {
                heap.push(Cycle::new(k * WHEEL), (k, i));
                wheel.push(Cycle::new(k * WHEEL), (k, i));
            }
            for i in 1..=3u64 {
                let a = heap.pop();
                let b = wheel.pop();
                assert_eq!(a, b, "zero-delay at boundary {k} entry {i}");
                assert_eq!(a, Some((Cycle::new(k * WHEEL), (k, i))));
            }
        }
        assert_eq!(heap.pop(), None);
        assert_eq!(wheel.pop(), None);
    }

    /// `pop_before` on the wheel must agree call for call with the heap's
    /// on random schedules spanning the near-wheel, far-wheel and
    /// overflow-heap horizons, with stops before, exactly on and one cycle
    /// past the next pending event. A declined call leaves both queues'
    /// lengths and next times equal.
    #[test]
    fn bucket_pop_before_matches_heap() {
        for seed in 0..16u64 {
            let mut rng = crate::SplitMix64::new(0xb0_07ed ^ seed);
            let mut heap = EventQueue::new();
            let mut wheel = BucketQueue::new();
            let mut now = 0u64;
            let mut step = 0u64;
            loop {
                if step < 5_000 {
                    // Hops and snoops, delays one to two far buckets out
                    // (where recovery timeouts land), and delays
                    // straddling the far horizon, so that overflow
                    // entries later meet near-wheel entries of the same
                    // bucket. Odd seeds push few short delays, so the
                    // clock sweeps past the far horizon while pushes
                    // continue.
                    let short = if seed % 2 == 0 { 6 } else { 2 };
                    let delay = match rng.next_below(12) {
                        0 => 0,
                        k if k < short => rng.next_below(300),
                        6 | 7 => WHEEL + rng.next_below(WHEEL),
                        8 => rng.next_below(FAR_SPAN),
                        9 => FAR_SPAN - rng.next_below(2 * WHEEL),
                        10 => FAR_SPAN + rng.next_below(2 * WHEEL),
                        _ => FAR_SPAN + rng.next_below(FAR_SPAN),
                    };
                    heap.push(Cycle::new(now + delay), step);
                    wheel.push(Cycle::new(now + delay), step);
                } else if heap.is_empty() {
                    break;
                }
                step += 1;
                if step < 5_000 && rng.next_below(3) == 0 {
                    continue;
                }
                let next = heap.peek_time().map_or(now, Cycle::as_u64);
                let stop = match rng.next_below(5) {
                    0 => now,
                    1 => next,
                    2 | 3 => next + 1,
                    _ => now + rng.next_below(2 * WHEEL),
                };
                let a = heap.pop_before(Cycle::new(stop));
                let b = wheel.pop_before(Cycle::new(stop));
                assert_eq!(a, b, "seed {seed}, step {step}, stop {stop}");
                assert_eq!(heap.len(), wheel.len(), "seed {seed}, step {step}");
                assert_eq!(heap.peek_time(), wheel.peek_time(), "seed {seed}");
                if let Some((t, _)) = a {
                    assert!(t.as_u64() < stop, "popped at {t}, stop {stop}");
                    now = t.as_u64();
                }
            }
            assert_eq!(wheel.pop(), None);
        }
    }

    /// A 48-byte payload, the size of the simulator's `Event`.
    type Payload = [u64; 6];

    /// Pushes one burst at `times` into both queues, then drains both in
    /// lockstep. Checks that every pop matches and that the wheel's
    /// footprint stays within `bound` when full and when drained.
    /// Returns the clock after the drain.
    fn burst(
        heap: &mut EventQueue<Payload>,
        wheel: &mut BucketQueue<Payload>,
        times: impl Iterator<Item = u64>,
        id: &mut u64,
        bound: u64,
    ) -> u64 {
        for t in times {
            heap.push(Cycle::new(t), [*id; 6]);
            wheel.push(Cycle::new(t), [*id; 6]);
            *id += 1;
        }
        let full = wheel.footprint_bytes();
        assert!(
            full <= bound,
            "{full} B with the burst pending, bound {bound} B"
        );
        let mut now = 0;
        loop {
            let a = heap.pop();
            assert_eq!(a, wheel.pop(), "burst ending before id {id}");
            let Some((t, _)) = a else { break };
            now = t.as_u64();
        }
        let drained = wheel.footprint_bytes();
        assert!(
            drained <= bound,
            "{drained} B after the drain, bound {bound} B"
        );
        now
    }

    /// Storage follows the pending events under bursts: `WHEEL` bursts of
    /// `BURST` same-cycle events, one at every near-bucket position, each
    /// drained before the next is pushed. Even positions are pushed
    /// straight into the near wheel where the clock allows, odd ones a
    /// block ahead, so they wait in the far wheel and cascade. Every
    /// eighth position adds a burst straddling a cascade boundary: half
    /// on the block's last cycle (near wheel), half on the next block's
    /// first (far wheel). Buckets that each kept their own capacity would
    /// end this schedule holding `WHEEL × BURST` entries; the slab keeps
    /// `BURST` slots.
    #[test]
    fn bucket_storage_follows_pending_events_under_bursts() {
        const BURST: u64 = 256;
        let fixed = BucketQueue::<Payload>::new().footprint_bytes();
        let entry = size_of::<Slot<Payload>>().max(size_of::<(u64, u64, Payload)>());
        let bound = fixed + (entry as u64) * 2 * BURST;
        let per_bucket_capacity = WHEEL * BURST * size_of::<(u64, Payload)>() as u64;
        assert!(
            bound * 100 < per_bucket_capacity,
            "{bound} B vs {per_bucket_capacity} B"
        );

        let mut heap = EventQueue::<Payload>::new();
        let mut wheel = BucketQueue::<Payload>::new();
        let (mut now, mut id) = (0u64, 0u64);
        for k in 0..WHEEL {
            if k % 8 == 4 {
                let block_end = (now / WHEEL + 1) * WHEEL;
                let straddle = (0..BURST).map(|i| block_end - 1 + i % 2);
                now = burst(&mut heap, &mut wheel, straddle, &mut id, bound);
                assert_eq!(now, block_end);
            }
            let mut t = now / WHEEL * WHEEL + k;
            if k % 2 == 1 || t < now {
                t += WHEEL;
            }
            let same_cycle = std::iter::repeat_n(t, BURST as usize);
            now = burst(&mut heap, &mut wheel, same_cycle, &mut id, bound);
            assert_eq!(now, t);
        }
        assert!(wheel.is_empty());
        assert_eq!(wheel.overflow_len(), 0);
        assert_eq!(wheel.slots.len() as u64, BURST, "slab grew past the peak");
    }

    /// The two queues must pop identically on a randomized near-monotonic
    /// schedule (the exact workload a simulator produces).
    #[test]
    fn heap_and_bucket_orders_are_identical() {
        let mut rng = crate::SplitMix64::new(0xdecaf);
        let mut heap = EventQueue::new();
        let mut wheel = BucketQueue::new();
        let mut now = 0u64;
        for step in 0..50_000u64 {
            // Mix of short hops, same-cycle events, and far think times.
            let delay = match rng.next_below(12) {
                0 => 0,
                1..=7 => rng.next_below(300),
                8 => rng.next_below(WHEEL * 2),
                9 => WHEEL * 2 + rng.next_below(10_000),
                10 => rng.next_below(FAR_SPAN),
                _ => FAR_SPAN + rng.next_below(FAR_SPAN),
            };
            heap.push(Cycle::new(now + delay), step);
            wheel.push(Cycle::new(now + delay), step);
            if rng.next_below(3) > 0 {
                let a = heap.pop();
                let b = wheel.pop();
                assert_eq!(a, b, "diverged at step {step}");
                if let Some((t, _)) = a {
                    now = t.as_u64();
                }
            }
        }
        loop {
            let a = heap.pop();
            let b = wheel.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
