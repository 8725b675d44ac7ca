//! `map_heap_bytes` against what the allocator actually hands a map.
//!
//! A counting global allocator tracks the bytes each thread holds, so
//! the bytes a map holds are the thread's count after building it less
//! the count before.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hash::Hash;

use flexsnoop_engine::{map_heap_bytes, FxHashMap};

struct Counting;

thread_local! {
    static HELD: Cell<isize> = const { Cell::new(0) };
}

fn add(bytes: isize) {
    HELD.with(|held| held.set(held.get() + bytes));
}

fn held() -> isize {
    HELD.with(Cell::get)
}

// SAFETY: every call forwards to `System` unchanged and only counts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Builds a map of `n` entries from `entry`, then checks the estimate
/// against the bytes it holds: filled, with every other entry removed,
/// and emptied.
fn check<K: Hash + Eq, V>(n: usize, entry: impl Fn(usize) -> (K, V)) {
    let before = held();
    let mut map: FxHashMap<K, V> = FxHashMap::default();
    for i in 0..n {
        let (k, v) = entry(i);
        map.insert(k, v);
    }
    let bytes = (held() - before) as u64;
    let what = format!("{n} entries of {} bytes", size_of::<(K, V)>());
    assert_eq!(map_heap_bytes(&map), bytes, "{what}");
    for i in (0..n).step_by(2) {
        map.remove(&entry(i).0);
    }
    assert_eq!(map_heap_bytes(&map), bytes, "{what}, half removed");
    map.clear();
    assert_eq!(map_heap_bytes(&map), bytes, "{what}, cleared");
}

#[test]
fn estimates_equal_the_bytes_allocated() {
    let empty: FxHashMap<u64, u64> = FxHashMap::default();
    assert_eq!(map_heap_bytes(&empty), 0);
    // Capacities below 8, at and past the 7/8 boundary, and the 14,336
    // at which both benchmark workloads' residency maps sit.
    for n in [1, 3, 4, 7, 8, 14, 15, 100, 1_000, 14_336, 20_000] {
        check(n, |i| (i as u64, i as u64));
        check(n, |i| (i as u32, i as u32));
        check(n, |i| (i as u64, [i as u64; 2]));
        check(n, |i| (i as u8, i as u8));
        check(n, |i| (i as u64, (i as u8, Some((i as u8, i as u8)))));
    }
    let mut map: FxHashMap<u64, u64> =
        FxHashMap::with_capacity_and_hasher(14_336, Default::default());
    let before = held();
    map.insert(1, 1);
    assert_eq!(held(), before, "a sized map allocates up front");
    assert_eq!(map_heap_bytes(&map), 278_544);
}
