//! Deterministic time-ordered event queues.
//!
//! Two implementations with identical pop order:
//!
//! * [`EventQueue`] — a binary heap; O(log n) everywhere, no assumptions
//!   about the time distribution.
//! * [`BucketQueue`] — a timing wheel for the near-monotonic schedules a
//!   discrete-event simulator produces (almost every event lands within
//!   a few hundred cycles of "now"); O(1) push/pop for events in the
//!   wheel's 4096-cycle block, with a heap for later ones. Wheel events
//!   live in one slab, so its storage follows the number of pending
//!   events.
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
    /// Timing wheel plus a heap for later events ([`BucketQueue`]); the
    /// default.
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

/// Wheel span in cycles: the wheel holds the events due in the cursor's
/// `WHEEL`-cycle block. Ring hops, snoops and cache round-trips are all
/// tens of cycles and DRAM a few hundred, so nearly every event lands in
/// the wheel.
const WHEEL: u64 = 4096;

/// Wheel bucket count, as an array length.
const NEAR: usize = WHEEL as usize;

/// 64-bit words in the wheel's occupancy bitmap.
const WORDS: usize = NEAR / 64;

/// End of a slab list: an empty bucket's head, or the last slot's link.
const NIL: u32 = u32::MAX;

/// One wheel event in the slab, linked to the next slot of its bucket's
/// FIFO or, once freed, of the free list.
#[derive(Debug, Clone)]
struct Slot<E> {
    seq: u64,
    next: u32,
    /// `None` while the slot is on the free list.
    event: Option<E>,
}

/// A timing-wheel event queue with a binary heap for the events past the
/// wheel's block.
///
/// Events due before the end of the cursor's `WHEEL`-cycle block go into
/// per-cycle FIFO buckets (O(1)); every later event goes into the heap
/// (O(log n)). `pop` compares the earliest wheel entry against the heap
/// top by `(time, insertion sequence)`, so the pop order is identical to
/// [`EventQueue`]'s.
///
/// Buckets own no storage: every wheel event sits in one slab, and a
/// bucket is a FIFO list threaded through it by index. Wheel memory
/// therefore follows the most events ever pending at once, not `WHEEL`
/// times the deepest burst each bucket has seen.
///
/// **Contract:** pushes must not be earlier than the last popped time
/// (enforced by [`crate::Scheduler`], which never schedules in the past).
/// This is what lets the wheel advance a monotonic cursor instead of
/// re-scanning.
#[derive(Debug, Clone)]
pub struct BucketQueue<E> {
    /// Every wheel event. Freed slots go on a LIFO free list headed by
    /// `free` and are reused before the slab grows, so its length is the
    /// most wheel events ever pending at once.
    slots: Vec<Slot<E>>,
    /// First slot of the free list, or `NIL`.
    free: u32,
    /// `WHEEL` per-cycle buckets, indexed by `time % WHEEL`: the first
    /// and last slot of a FIFO list holding the events of exactly one
    /// timestamp, in insertion order. A bucket is empty when its head is
    /// `NIL`; its tail is stale then. Wheel entries lie in the cursor's
    /// block, at or after the cursor, which keeps the mapping injective
    /// (at most one timestamp per bucket).
    heads: Box<[u32; NEAR]>,
    tails: Box<[u32; NEAR]>,
    /// Bit `b % 64` of word `b / 64` is set while bucket `b` is non-empty.
    occupied: Box<[u64; WORDS]>,
    /// The last popped time: a lower bound on every pending entry's time.
    /// Its `WHEEL`-cycle block is the wheel's, so when a heap pop leaves
    /// the wheel empty, the wheel moves to the popped time's block.
    cursor: u64,
    /// Events currently in the wheel.
    in_near: usize,
    /// Events past the end of the cursor's block at push time.
    heap: BinaryHeap<Entry<E>>,
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
            cursor: 0,
            in_near: 0,
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    #[inline]
    fn near_index(t: u64) -> usize {
        (t % WHEEL) as usize
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
        if t / WHEEL == self.cursor / WHEEL {
            self.near_push(Self::near_index(t), seq, event);
        } else {
            self.heap.push(Entry { time, seq, event });
        }
    }

    /// Appends an entry to the FIFO of bucket `b`, in a recycled slot if
    /// one is free.
    #[inline]
    fn near_push(&mut self, b: usize, seq: u64, event: E) {
        let slot = Slot {
            seq,
            next: NIL,
            event: Some(event),
        };
        let idx = if self.free == NIL {
            let idx = self.slots.len();
            assert!(idx < NIL as usize, "wheel slab full");
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

    /// Removes the first entry of non-empty bucket `b` and puts its slot
    /// on the free list.
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

    /// Time of the earliest non-empty bucket: the first occupancy bit at
    /// or after the cursor's bucket. `None` when the wheel is empty.
    #[inline]
    fn earliest_near_time(&self) -> Option<u64> {
        if self.in_near == 0 {
            return None;
        }
        // Wheel entries lie between the cursor and the end of its block,
        // so their buckets run from the cursor's to the last one without
        // wrapping around.
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
            .expect("wheel count out of sync");
        let b = w * 64 + bits.trailing_zeros() as usize;
        Some(self.cursor + (b - from) as u64)
    }

    /// The earliest pending entry: its time, and whether it sits in the
    /// wheel. A heap entry wins when it is earlier, or equal-time with a
    /// smaller sequence number, which is the order [`EventQueue`] pops.
    #[inline]
    fn head(&self) -> Option<(u64, bool)> {
        let near_t = self.earliest_near_time();
        match (near_t, self.heap.peek()) {
            (None, None) => None,
            (Some(t), None) => Some((t, true)),
            (None, Some(top)) => Some((top.time.as_u64(), false)),
            (Some(wt), Some(top)) => {
                // Times decide almost always; the wheel head's sequence
                // number is read only on a tie.
                let ht = top.time.as_u64();
                let wheel_first = wt < ht
                    || (wt == ht
                        && self.slots[self.heads[Self::near_index(wt)] as usize].seq < top.seq);
                if wheel_first {
                    Some((wt, true))
                } else {
                    Some((ht, false))
                }
            }
        }
    }

    /// Removes the entry [`head`](Self::head) found at time `t`. The
    /// popped time is the global minimum, so it becomes the cursor; after
    /// a heap pop that left the wheel empty this moves the wheel to a
    /// later block.
    #[inline]
    fn take(&mut self, t: u64, from_wheel: bool) -> (Cycle, E) {
        self.cursor = t;
        if from_wheel {
            (Cycle::new(t), self.near_pop(Self::near_index(t)))
        } else {
            let e = self.heap.pop().expect("heap entry present");
            (e.time, e.event)
        }
    }

    /// Removes and returns the earliest event (FIFO within a timestamp).
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let (t, from_wheel) = self.head()?;
        Some(self.take(t, from_wheel))
    }

    /// Removes and returns the earliest event if it is due before `stop`;
    /// otherwise leaves the queue untouched and returns `None`. One
    /// search decides, and a declined pop does not move the cursor — the
    /// floor for later pushes stays at the last popped time.
    #[inline]
    pub fn pop_before(&mut self, stop: Cycle) -> Option<(Cycle, E)> {
        let (t, from_wheel) = self.head()?;
        if t >= stop.as_u64() {
            return None;
        }
        Some(self.take(t, from_wheel))
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.head().map(|(t, _)| Cycle::new(t))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.in_near + self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated bytes the queue holds at its current capacities: the
    /// slab, the buckets' head and tail arrays and bitmap, and the heap.
    /// Beyond the fixed arrays this follows the pending events: the slab
    /// is as long as the most wheel events ever pending at once, and the
    /// heap as the most events ever pending past the wheel's block.
    pub fn footprint_bytes(&self) -> u64 {
        let wheel = self.slots.capacity() * size_of::<Slot<E>>()
            + 2 * size_of::<[u32; NEAR]>()
            + size_of::<[u64; WORDS]>();
        let heap = self.heap.capacity() * size_of::<Entry<E>>();
        (wheel + heap) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A long delay horizon for the property tests: 4096 blocks, about
    /// 16.7M cycles.
    const LONG: u64 = WHEEL * 4096;

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
        // Past the wheel's block: lands in the heap.
        q.push(Cycle::new(10 * WHEEL), "far");
        q.push(Cycle::new(1), "near");
        q.push(Cycle::new(10 * WHEEL), "far2");
        assert_eq!(q.len(), 3);
        assert_eq!((q.in_near, q.heap.len()), (1, 2));
        assert_eq!(q.pop(), Some((Cycle::new(1), "near")));
        // FIFO survives the heap path too.
        assert_eq!(q.pop(), Some((Cycle::new(10 * WHEEL), "far")));
        assert_eq!(q.pop(), Some((Cycle::new(10 * WHEEL), "far2")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn bucket_far_and_near_merge_fifo_at_equal_time() {
        let mut q = BucketQueue::new();
        // Pushed while 2*WHEEL is past the wheel's block: heap-resident.
        q.push(Cycle::new(2 * WHEEL), "far-resident");
        q.push(Cycle::new(WHEEL + 1), "mover");
        assert_eq!(q.pop(), Some((Cycle::new(WHEEL + 1), "mover")));
        // The wheel has moved to [WHEEL, 2*WHEEL), so 2*WHEEL is still
        // past its block and this waits in the heap too: same time, pushed
        // later — must pop after the first entry.
        q.push(Cycle::new(2 * WHEEL), "near-resident");
        assert_eq!(q.pop(), Some((Cycle::new(2 * WHEEL), "far-resident")));
        assert_eq!(q.pop(), Some((Cycle::new(2 * WHEEL), "near-resident")));
    }

    /// A heap entry that the wheel's block has caught up with pops in
    /// time order against the wheel entries pushed after the block moved.
    #[test]
    fn bucket_heap_entries_inside_the_block_pop_in_order() {
        let mut q = BucketQueue::new();
        q.push(Cycle::new(WHEEL + 50), "heap-resident");
        q.push(Cycle::new(WHEEL + 1), "mover");
        assert_eq!(q.heap.len(), 2);
        // The wheel is empty, so this heap pop moves it to [WHEEL, 2*WHEEL).
        assert_eq!(q.pop(), Some((Cycle::new(WHEEL + 1), "mover")));
        q.push(Cycle::new(WHEEL + 60), "later");
        q.push(Cycle::new(WHEEL + 40), "earlier");
        assert_eq!((q.in_near, q.heap.len()), (2, 1));
        assert_eq!(q.pop(), Some((Cycle::new(WHEEL + 40), "earlier")));
        // A heap pop with the wheel non-empty leaves the wheel's block.
        assert_eq!(q.pop(), Some((Cycle::new(WHEEL + 50), "heap-resident")));
        q.push(Cycle::new(WHEEL + 50), "same-cycle");
        assert_eq!(q.in_near, 2);
        assert_eq!(q.pop(), Some((Cycle::new(WHEEL + 50), "same-cycle")));
        assert_eq!(q.pop(), Some((Cycle::new(WHEEL + 60), "later")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn bucket_heap_and_wheel_merge_fifo_at_equal_time() {
        let mut q = BucketQueue::new();
        // Past the wheel's block at push time: goes to the heap.
        let t = 2 * WHEEL + 5;
        q.push(Cycle::new(t), "heap-resident");
        assert_eq!(q.heap.len(), 1);
        q.push(Cycle::new(2 * WHEEL + 1), "mover");
        assert_eq!(q.pop(), Some((Cycle::new(2 * WHEEL + 1), "mover")));
        // Now t is in the wheel's (moved) block: same time, pushed later —
        // must pop after the heap entry.
        q.push(Cycle::new(t), "wheel-resident");
        assert_eq!((q.in_near, q.heap.len()), (1, 1));
        assert_eq!(q.pop(), Some((Cycle::new(t), "heap-resident")));
        assert_eq!(q.pop(), Some((Cycle::new(t), "wheel-resident")));
    }

    /// After an idle jump pops from the heap with the wheel empty, the
    /// wheel moves to the popped time's block, so nearby pushes use it
    /// again.
    #[test]
    fn bucket_reanchors_after_idle_jump() {
        let mut q = BucketQueue::new();
        let jump = 3 * LONG + 17;
        q.push(Cycle::new(jump), "sleeper");
        assert_eq!(q.heap.len(), 1);
        assert_eq!(q.pop(), Some((Cycle::new(jump), "sleeper")));
        q.push(Cycle::new(jump + 10), "near");
        q.push(Cycle::new(jump + 2 * WHEEL), "far");
        assert_eq!((q.in_near, q.heap.len()), (1, 1));
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
    /// at `{0, 1, h-1, h, h+1}` for horizons straddling the block
    /// (`WHEEL`) and `LONG`, plus uniform fill, cross-checked
    /// element-wise against the heap backend. This pins the bucket
    /// arithmetic exactly where an off-by-one in `near_index` or the
    /// block test in `push` would bite.
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
            LONG - 1,
            LONG,
            LONG + 1,
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

    /// Zero-delay pushes landing exactly when the cursor sits on a block
    /// boundary (a multiple of `WHEEL`, reached by a heap pop that moves
    /// the wheel) must keep FIFO order and match the heap.
    #[test]
    fn bucket_zero_delay_at_rotation_boundary_matches_heap() {
        let mut heap = EventQueue::new();
        let mut wheel = BucketQueue::new();
        for k in 1..=6u64 {
            heap.push(Cycle::new(k * WHEEL), (k, 0));
            wheel.push(Cycle::new(k * WHEEL), (k, 0));
        }
        for k in 1..=6u64 {
            // This heap pop moves the wheel to the block starting at
            // k*WHEEL and parks the cursor on its first cycle.
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
    /// on random schedules spanning the wheel's block and many blocks
    /// beyond, with stops before, exactly on and one cycle past the next
    /// pending event. A declined call leaves both queues' lengths and
    /// next times equal.
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
                    // Hops and snoops, delays one to two blocks out
                    // (where recovery timeouts land), and delays
                    // straddling `LONG`, so that heap entries later meet
                    // wheel entries of the same block. Odd seeds push few
                    // short delays, so the clock sweeps past `LONG` while
                    // pushes continue.
                    let short = if seed % 2 == 0 { 6 } else { 2 };
                    let delay = match rng.next_below(12) {
                        0 => 0,
                        k if k < short => rng.next_below(300),
                        6 | 7 => WHEEL + rng.next_below(WHEEL),
                        8 => rng.next_below(LONG),
                        9 => LONG - rng.next_below(2 * WHEEL),
                        10 => LONG + rng.next_below(2 * WHEEL),
                        _ => LONG + rng.next_below(LONG),
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
    /// `BURST` same-cycle events, one at every bucket position, each
    /// drained before the next is pushed. Even positions are pushed
    /// straight into the wheel where the clock allows, odd ones a block
    /// ahead, so they wait in the heap. Every eighth position adds a
    /// burst straddling a block boundary: half on the block's last cycle
    /// (wheel), half on the next block's first (heap). Buckets that each
    /// kept their own capacity would end this schedule holding
    /// `WHEEL × BURST` entries; the slab keeps `BURST` slots.
    #[test]
    fn bucket_storage_follows_pending_events_under_bursts() {
        const BURST: u64 = 256;
        let fixed = BucketQueue::<Payload>::new().footprint_bytes();
        let entry = size_of::<Slot<Payload>>().max(size_of::<Entry<Payload>>());
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
        assert_eq!(wheel.slots.len() as u64, BURST, "slab grew past the peak");
    }

    /// Pushes `steps` events at `delay` past the clock into both queues,
    /// popping one from each after about two of every three pushes, then
    /// drains both; every pop must match.
    fn assert_same_order(seed: u64, steps: u64, delay: impl Fn(&mut crate::SplitMix64) -> u64) {
        let mut rng = crate::SplitMix64::new(seed);
        let mut heap = EventQueue::new();
        let mut wheel = BucketQueue::new();
        let mut now = 0u64;
        for step in 0..steps {
            let delay = delay(&mut rng);
            heap.push(Cycle::new(now + delay), step);
            wheel.push(Cycle::new(now + delay), step);
            if rng.next_below(3) > 0 {
                let a = heap.pop();
                let b = wheel.pop();
                assert_eq!(a, b, "diverged at step {step} (seed {seed:#x})");
                if let Some((t, _)) = a {
                    now = t.as_u64();
                }
            }
        }
        loop {
            let a = heap.pop();
            let b = wheel.pop();
            assert_eq!(a, b, "drain diverged (seed {seed:#x})");
            if a.is_none() {
                break;
            }
        }
    }

    /// The two queues must pop identically on randomized near-monotonic
    /// schedules (the exact workload a simulator produces).
    #[test]
    fn heap_and_bucket_orders_are_identical() {
        // Mix of short hops, same-cycle events, and far think times.
        assert_same_order(0xdecaf, 50_000, |rng| match rng.next_below(12) {
            0 => 0,
            1..=7 => rng.next_below(300),
            8 => rng.next_below(WHEEL * 2),
            9 => WHEEL * 2 + rng.next_below(10_000),
            10 => rng.next_below(LONG),
            _ => LONG + rng.next_below(LONG),
        });
        // Million-node event mix: per-hop ring events, torus data legs
        // crossing a kilonode mesh (~16k cycles), and deep recovery
        // timeouts.
        assert_same_order(0xabcde, 20_000, |rng| match rng.next_below(4) {
            0 => rng.next_below(64),
            1 => 16_000 + rng.next_below(4_000),
            2 => 100_000 + rng.next_below(50_000),
            _ => 1_000_000 + rng.next_below(500_000),
        });
    }
}
