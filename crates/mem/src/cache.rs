//! Generic set-associative cache array with LRU replacement.
//!
//! Used for the L2 data caches, the L1 tag filters, and the Subset/Exact
//! supplier-predictor tables (paper §4.3.1), all of which are
//! set-associative structures differing only in what they store per line.

use flexsnoop_engine::snap::{SnapError, SnapReader, SnapWriter};

use crate::addr::LineAddr;
use crate::state::CoherState;

/// Geometry of a set-associative array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Number of sets (must be a power of two).
    pub sets: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheGeometry {
    /// Builds a geometry from a total entry count and associativity.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not divisible by `ways`, if the resulting set
    /// count is not a power of two, or if either argument is zero.
    pub fn from_entries(entries: usize, ways: usize) -> Self {
        assert!(entries > 0 && ways > 0, "geometry must be non-empty");
        assert!(
            entries.is_multiple_of(ways),
            "entries ({entries}) must be a multiple of ways ({ways})"
        );
        let sets = entries / ways;
        assert!(
            sets.is_power_of_two(),
            "set count ({sets}) must be a power of two"
        );
        CacheGeometry { sets, ways }
    }

    /// Builds a geometry from a capacity in bytes (e.g. a 512 KB, 8-way,
    /// 64 B-line L2).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`CacheGeometry::from_entries`].
    pub fn from_capacity(bytes: usize, ways: usize, line_bytes: usize) -> Self {
        assert!(line_bytes > 0, "line size must be positive");
        assert!(
            bytes.is_multiple_of(line_bytes),
            "capacity must be a whole number of lines"
        );
        Self::from_entries(bytes / line_bytes, ways)
    }

    /// Total entries.
    pub fn entries(&self) -> usize {
        self.sets * self.ways
    }

    /// The set index for a line address.
    #[inline]
    pub fn set_of(&self, line: LineAddr) -> usize {
        // `sets` is asserted to be a power of two at construction, so the
        // modulo reduces to a mask (a hardware divide here would sit on
        // every tag probe in the simulator's hot path).
        debug_assert!(self.sets.is_power_of_two());
        (line.0 & (self.sets as u64 - 1)) as usize
    }
}

/// An empty set's head.
const NIL: u32 = u32::MAX;

/// One way of the array. The live ways of a set's chunk come first, in
/// set order; every other slot holds `None`.
#[derive(Debug, Clone)]
struct Way<V> {
    line: LineAddr,
    value: Option<V>,
    /// The array's clock at this way's last use; see
    /// [`SetAssocCache::renumber`] for what keeps it in 32 bits.
    last_use: u32,
}

// A `u32` stamp keeps the ways of both production arrays, the L2's states
// and the tag-only L1s and predictor tables, at 16 bytes.
const _: () = assert!(size_of::<Way<CoherState>>() == 16 && size_of::<Way<()>>() == 16);

impl<V> Way<V> {
    fn vacant() -> Self {
        Way {
            line: LineAddr(0),
            value: None,
            last_use: 0,
        }
    }

    /// Whether this way is live and holds `line`.
    #[inline]
    fn holds(&self, line: LineAddr) -> bool {
        self.line == line && self.value.is_some()
    }
}

/// Equal-sized chunks of ways, numbered from 0, in segments that never
/// move: the first two hold four chunks each and every later one as many
/// as all before it, so `k + 1` segments hold `4 << k` chunks, the
/// capacities a doubling `Vec` steps through. Unlike a `Vec`, the slab
/// grows without copying and frees no outgrown buffer for the allocator
/// to strand.
#[derive(Debug, Clone)]
struct Slab<V> {
    segments: Vec<Vec<Way<V>>>,
    /// Chunks in use: chunks `0..len`.
    len: usize,
}

impl<V> Slab<V> {
    fn new() -> Self {
        Self {
            segments: Vec::new(),
            len: 0,
        }
    }

    /// Segment of chunk `c` and its place there, in chunks.
    #[inline]
    fn locate(c: usize) -> (usize, usize) {
        let seg = (usize::BITS - (c / 4).leading_zeros()) as usize;
        (seg, c - Self::first(seg))
    }

    /// The first chunk of segment `seg`: 0, 4, 8, 16, ...
    #[inline]
    fn first(seg: usize) -> usize {
        (2 << seg) & !3
    }

    /// Chunk `c`, of `size` ways.
    #[inline]
    fn chunk(&self, c: usize, size: usize) -> &[Way<V>] {
        let (seg, at) = Self::locate(c);
        &self.segments[seg][at * size..(at + 1) * size]
    }

    #[inline]
    fn chunk_mut(&mut self, c: usize, size: usize) -> &mut [Way<V>] {
        let (seg, at) = Self::locate(c);
        &mut self.segments[seg][at * size..(at + 1) * size]
    }

    /// Appends a chunk of `size` vacant ways and returns its number.
    fn push(&mut self, size: usize) -> usize {
        let c = self.len;
        let (seg, _) = Self::locate(c);
        if seg == self.segments.len() {
            let chunks = Self::first(seg + 1) - Self::first(seg);
            self.segments.push(Vec::with_capacity(chunks * size));
        }
        let ways = std::iter::repeat_with(Way::vacant).take(size);
        self.segments[seg].extend(ways);
        self.len += 1;
        c
    }

    /// Drops chunk `c`, moving the last chunk into its place; returns
    /// whether one moved.
    fn swap_remove(&mut self, c: usize, size: usize) -> bool {
        self.len -= 1;
        let (seg, at) = Self::locate(self.len);
        let moved = c != self.len;
        if moved {
            let (to_seg, to) = Self::locate(c);
            let (before, from) = self.segments.split_at_mut(seg);
            let (same, from) = from[0].split_at_mut(at * size);
            let into = if to_seg == seg {
                same
            } else {
                &mut before[to_seg][..]
            };
            into[to * size..(to + 1) * size].swap_with_slice(&mut from[..size]);
        }
        self.segments[seg].truncate(at * size);
        moved
    }

    /// Ways allocated.
    fn capacity(&self) -> usize {
        self.segments.iter().map(Vec::capacity).sum()
    }
}

/// A set-associative cache mapping [`LineAddr`] to `V` with true-LRU
/// replacement inside each set.
///
/// Sets own no storage. A set holding one line keeps it in a chunk of one
/// way, and a set holding more keeps them in a chunk of `ways` contiguous
/// ways, so a full set is probed as one run of memory. Each chunk size
/// has its own `Slab`, kept dense: a freed chunk takes the slab's last
/// chunk, so a slab holds exactly the chunks of the sets using it. Inside
/// its chunk a set keeps the order a per-set `Vec` would have under
/// `push` and `swap_remove` (a new way goes last; a removed or evicted
/// way's place takes the set's last way), so victims,
/// [`iter`](Self::iter) order and snapshot bytes follow that order. A way
/// keeps its LRU stamp in 32 bits, so it takes 16 bytes for the L2's
/// coherence states and for the tag-only L1 filters and predictor tables.
///
/// # Example
///
/// ```
/// use flexsnoop_mem::{CacheGeometry, LineAddr, SetAssocCache};
///
/// let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::from_entries(8, 2));
/// assert!(c.insert(LineAddr(1), 10).is_none());
/// assert_eq!(c.get(LineAddr(1)), Some(&10));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache<V> {
    geometry: CacheGeometry,
    /// The chunks of one way, then the chunks of `ways` ways.
    slabs: [Slab<V>; 2],
    /// One per set: `NIL` when the set is empty, else the number of its
    /// chunk shifted left one bit, the low bit set for a chunk of `ways`
    /// ways.
    heads: Box<[u32]>,
    clock: u32,
    occupied: usize,
}

impl<V> SetAssocCache<V> {
    /// Creates an empty cache with the given geometry.
    ///
    /// The way slabs are allocated on first insert and grow with the
    /// lines resident, so a million cold caches (or one huge flat
    /// predictor bank) cost only their `u32` set heads until touched —
    /// load-bearing for the `bench --scale` node counts.
    pub fn new(geometry: CacheGeometry) -> Self {
        Self {
            geometry,
            slabs: [Slab::new(), Slab::new()],
            heads: vec![NIL; geometry.sets].into_boxed_slice(),
            clock: 0,
            occupied: 0,
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// Advances the LRU clock and returns the new stamp; a clock about to
    /// pass `u32::MAX` first renumbers the stamps.
    #[inline]
    fn tick(&mut self) -> u32 {
        if self.clock == u32::MAX {
            self.renumber();
        }
        self.clock += 1;
        self.clock
    }

    /// Replaces every stamp by its rank in its set (1 for the least
    /// recently used way, up to the set's length) and restarts the clock
    /// at `ways`, so the clock can run on past `u32::MAX`. Ranks keep each
    /// set's order, ties included, so every later victim is the one the
    /// old stamps would have picked.
    #[cold]
    fn renumber(&mut self) {
        let mut stamps = Vec::new();
        for set in 0..self.heads.len() {
            let slots = self.slots_mut(set);
            stamps.clear();
            stamps.extend(
                slots
                    .iter()
                    .take_while(|w| w.value.is_some())
                    .map(|w| w.last_use),
            );
            for (way, stamp) in slots.iter_mut().zip(&stamps) {
                way.last_use = rank(&stamps, stamp);
            }
        }
        self.clock = self.geometry.ways as u32;
    }

    /// `set`'s chunk as its slab (0 for chunks of one way, 1 for chunks
    /// of `ways` ways) and its number there; `None` for an empty set.
    #[inline]
    fn chunk(&self, set: usize) -> Option<(usize, usize)> {
        let head = self.heads[set];
        (head != NIL).then_some(((head & 1) as usize, (head >> 1) as usize))
    }

    /// Ways per chunk of `slab`.
    #[inline]
    fn chunk_ways(&self, slab: usize) -> usize {
        if slab == 1 {
            self.geometry.ways
        } else {
            1
        }
    }

    /// The slots of `set`'s chunk; its live ways come first.
    #[inline]
    fn slots(&self, set: usize) -> &[Way<V>] {
        match self.chunk(set) {
            Some((slab, c)) => self.slabs[slab].chunk(c, self.chunk_ways(slab)),
            None => &[],
        }
    }

    #[inline]
    fn slots_mut(&mut self, set: usize) -> &mut [Way<V>] {
        match self.chunk(set) {
            Some((slab, c)) => {
                let size = self.chunk_ways(slab);
                self.slabs[slab].chunk_mut(c, size)
            }
            None => &mut [],
        }
    }

    /// The ways of `set`, in order.
    #[inline]
    fn set_ways(&self, set: usize) -> impl Iterator<Item = &Way<V>> {
        self.slots(set).iter().take_while(|w| w.value.is_some())
    }

    /// Moves `set`'s live ways into a chunk sized for `len` of them (none
    /// for an empty set, one way for one line, `ways` ways for more) and
    /// frees its old chunk.
    fn reseat(&mut self, set: usize, len: usize) {
        let old = self.chunk(set);
        self.heads[set] = NIL;
        if len > 0 {
            let slab = usize::from(len > 1);
            let c = self.slabs[slab].push(self.chunk_ways(slab));
            assert!(c < (NIL >> 1) as usize, "cache slab full");
            if let Some((old_slab, old_c)) = old {
                let old_size = self.chunk_ways(old_slab);
                for k in 0..old_size.min(len) {
                    let from = &mut self.slabs[old_slab].chunk_mut(old_c, old_size)[k];
                    let way = std::mem::replace(from, Way::vacant());
                    let size = self.chunk_ways(slab);
                    self.slabs[slab].chunk_mut(c, size)[k] = way;
                }
            }
            self.heads[set] = (c as u32) << 1 | slab as u32;
        }
        if let Some((old_slab, old_c)) = old {
            self.release(old_slab, old_c);
        }
    }

    /// Drops chunk `c` of `slab`, whose ways are vacant, moving the slab's
    /// last chunk into its place.
    fn release(&mut self, slab: usize, c: usize) {
        let size = self.chunk_ways(slab);
        if self.slabs[slab].swap_remove(c, size) {
            // A chunk in use holds a live first way, whose line names the
            // set to repoint.
            let first = self.slabs[slab].chunk(c, size)[0].line;
            self.heads[self.geometry.set_of(first)] = (c as u32) << 1 | slab as u32;
        }
    }

    /// Appends `way` to `set`, which holds `len` ways, fewer than the
    /// geometry allows, moving the set to a larger chunk if its own is
    /// full.
    fn append(&mut self, set: usize, len: usize, way: Way<V>) {
        if len == self.slots(set).len() {
            self.reseat(set, len + 1);
        }
        self.slots_mut(set)[len] = way;
        self.occupied += 1;
    }

    /// Looks up `line` without touching LRU state (a *probe*, as a snoop
    /// would perform on the tag array).
    #[inline]
    pub fn peek(&self, line: LineAddr) -> Option<&V> {
        let slots = self.slots(self.geometry.set_of(line));
        slots.iter().find(|w| w.holds(line))?.value.as_ref()
    }

    /// Looks up `line`, promoting it to most-recently-used on hit.
    pub fn get(&mut self, line: LineAddr) -> Option<&V> {
        self.get_mut(line).map(|v| &*v)
    }

    /// Mutable lookup, promoting to most-recently-used on hit.
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut V> {
        let stamp = self.tick();
        let slots = self.slots_mut(self.geometry.set_of(line));
        let way = slots.iter_mut().find(|w| w.holds(line))?;
        way.last_use = stamp;
        way.value.as_mut()
    }

    /// Whether `line` is present (no LRU update).
    pub fn contains(&self, line: LineAddr) -> bool {
        self.peek(line).is_some()
    }

    /// Inserts `line → value`, returning the victim `(line, value)` evicted
    /// to make room, if the set was full. Inserting an already-present line
    /// replaces its value in place (no eviction) and promotes it.
    pub fn insert(&mut self, line: LineAddr, value: V) -> Option<(LineAddr, V)> {
        let stamp = self.tick();
        let (set, ways) = (self.geometry.set_of(line), self.geometry.ways);
        let slots = self.slots_mut(set);
        // One pass finds `line`, or else the set's length and its least
        // recently used way (the first on a stamp tie).
        let (mut len, mut lru, mut lru_use) = (0, 0, u32::MAX);
        for (at, way) in slots.iter_mut().enumerate() {
            if way.value.is_none() {
                break;
            }
            if way.line == line {
                way.last_use = stamp;
                way.value = Some(value);
                return None;
            }
            if way.last_use < lru_use {
                (lru, lru_use) = (at, way.last_use);
            }
            len += 1;
        }
        let way = Way {
            line,
            value: Some(value),
            last_use: stamp,
        };
        if len == ways {
            // Evict as `swap_remove` then `push` would: the set's last way
            // fills the victim's place and the new way goes last.
            slots.swap(lru, len - 1);
            let old = std::mem::replace(&mut slots[len - 1], way);
            return Some((old.line, old.value.expect("a live way holds a value")));
        }
        if len < slots.len() {
            slots[len] = way;
            self.occupied += 1;
        } else {
            self.append(set, len, way);
        }
        None
    }

    /// Removes `line`, returning its value if present.
    pub fn remove(&mut self, line: LineAddr) -> Option<V> {
        let set = self.geometry.set_of(line);
        let slots = self.slots_mut(set);
        let at = slots.iter().position(|w| w.holds(line))?;
        // As `swap_remove`: the set's last way fills the removed way's
        // place.
        let len = slots.iter().take_while(|w| w.value.is_some()).count() - 1;
        slots.swap(at, len);
        let value = slots[len].value.take();
        let size = slots.len();
        self.occupied -= 1;
        if len < 2 && size != len {
            self.reseat(set, len);
        }
        value
    }

    /// Estimated heap footprint of this array in bytes: the struct, one
    /// `u32` head per set, and both slabs' segments. Feeds the
    /// `bytes_per_node` figure reported by `bench --scale`.
    pub fn footprint_bytes(&self) -> u64 {
        let heads = self.heads.len() * size_of::<u32>();
        let ways: usize = self.slabs.iter().map(Slab::capacity).sum();
        let segments: usize = self.slabs.iter().map(|s| s.segments.capacity()).sum();
        let bytes = size_of::<Self>()
            + heads
            + ways * size_of::<Way<V>>()
            + segments * size_of::<Vec<Way<V>>>();
        bytes as u64
    }

    /// Iterates over all `(line, value)` entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &V)> {
        (0..self.heads.len()).flat_map(move |set| self.iter_set(set))
    }

    /// Iterates over the `(line, value)` entries of one set.
    ///
    /// # Panics
    ///
    /// Panics if `set` is not below the geometry's set count.
    pub(crate) fn iter_set(&self, set: usize) -> impl Iterator<Item = (LineAddr, &V)> {
        self.set_ways(set)
            .filter_map(|w| Some((w.line, w.value.as_ref()?)))
    }

    /// Serializes the full array state — per-set way order (observable
    /// through `swap_remove`-order eviction), per-way `last_use` stamps,
    /// and the LRU clock — using `enc` to encode each stored value. The
    /// clock and the stamps are written as `u64`s.
    ///
    /// Geometry is *not* serialized: per the `Snapshot` overlay contract the
    /// restore target is freshly constructed from the same configuration,
    /// and [`restore_from_with`](Self::restore_from_with) verifies the set
    /// count matches.
    pub fn save_into_with(&self, w: &mut SnapWriter, mut enc: impl FnMut(&V, &mut SnapWriter)) {
        w.put_u64(u64::from(self.clock));
        w.put_usize(self.heads.len());
        for set in 0..self.heads.len() {
            w.put_usize(self.set_ways(set).count());
            for way in self.set_ways(set) {
                w.put_u64(way.line.0);
                w.put_u64(u64::from(way.last_use));
                enc(way.value.as_ref().expect("a live way holds a value"), w);
            }
        }
    }

    /// Restores state written by [`save_into_with`](Self::save_into_with)
    /// onto a cache built with the same geometry, using `dec` to decode each
    /// stored value. Way order within each set is reproduced exactly, so
    /// future evictions pick identical victims. The array keeps its clock
    /// and stamps in 32 bits and, before the clock would wrap, replaces
    /// each stamp by its rank in its set; a stream holding a clock or
    /// stamp of `2^32` or more, which only an older build writes, restores
    /// renumbered the same way.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] when the set count differs from the
    /// geometry's, or a set holds more ways than the geometry allows, a
    /// line of another set, or one line twice. A failed restore leaves the
    /// cache as it was.
    pub fn restore_from_with(
        &mut self,
        r: &mut SnapReader<'_>,
        dec: impl FnMut(&mut SnapReader<'_>) -> Result<V, SnapError>,
    ) -> Result<(), SnapError> {
        let restored = Self::restore_new(self.geometry, r, dec)?;
        *self = restored.unwrap_or_else(|| Self::new(self.geometry));
        Ok(())
    }

    /// Restores state written by [`save_into_with`](Self::save_into_with)
    /// into a new array of `geometry`, or `None` for the bytes of a fresh
    /// one (clock 0, every set empty), which then allocates nothing.
    pub(crate) fn restore_new(
        geometry: CacheGeometry,
        r: &mut SnapReader<'_>,
        mut dec: impl FnMut(&mut SnapReader<'_>) -> Result<V, SnapError>,
    ) -> Result<Option<Self>, SnapError> {
        let clock = r.get_u64()?;
        if r.get_usize()? != geometry.sets {
            return Err(SnapError::Corrupt("set count does not match geometry"));
        }
        let mut cache = (clock != 0).then(|| Self::new(geometry));
        let wide = |stamp: u64| stamp > u64::from(u32::MAX);
        let mut too_wide = wide(clock);
        // One set's stamps as written, to rank them if one is too wide.
        let mut stamps = Vec::new();
        for si in 0..geometry.sets {
            let len = r.get_usize()?;
            if len > geometry.ways {
                return Err(SnapError::Corrupt(
                    "set holds more ways than geometry allows",
                ));
            }
            if len == 0 {
                continue;
            }
            let cache = cache.get_or_insert_with(|| Self::new(geometry));
            stamps.clear();
            for k in 0..len {
                let line = LineAddr(r.get_u64()?);
                if geometry.set_of(line) != si {
                    return Err(SnapError::Corrupt("line indexed into the wrong set"));
                }
                if cache.slots(si).iter().any(|w| w.holds(line)) {
                    return Err(SnapError::Corrupt("set lists a line twice"));
                }
                let stamp = r.get_u64()?;
                let value = Some(dec(r)?);
                stamps.push(stamp);
                let way = Way {
                    line,
                    value,
                    last_use: stamp as u32,
                };
                cache.append(si, k, way);
            }
            if stamps.iter().any(|&s| wide(s)) {
                too_wide = true;
                for (way, stamp) in cache.slots_mut(si).iter_mut().zip(&stamps) {
                    way.last_use = rank(&stamps, stamp);
                }
            }
        }
        if let Some(cache) = &mut cache {
            if too_wide {
                cache.renumber();
            } else {
                cache.clock = clock as u32;
            }
        }
        Ok(cache)
    }
}

/// `stamp`'s rank among `stamps`: one more than the number of smaller
/// stamps, so ranks run from 1 to `stamps.len()` and keep order and ties.
fn rank<T: PartialOrd>(stamps: &[T], stamp: &T) -> u32 {
    1 + stamps.iter().filter(|s| *s < stamp).count() as u32
}

/// Writes the bytes [`SetAssocCache::save_into_with`] writes for a fresh
/// array of `geometry`, whatever it stores: clock 0, the set count, and
/// an empty count per set.
pub(crate) fn save_fresh(geometry: CacheGeometry, w: &mut SnapWriter) {
    w.put_u64(0);
    w.put_usize(geometry.sets);
    for _ in 0..geometry.sets {
        w.put_usize(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache<u32> {
        SetAssocCache::new(CacheGeometry::from_entries(8, 2)) // 4 sets x 2 ways
    }

    #[test]
    fn geometry_from_capacity() {
        let g = CacheGeometry::from_capacity(512 * 1024, 8, 64);
        assert_eq!(g.entries(), 8192);
        assert_eq!(g.sets, 1024);
        assert_eq!(g.ways, 8);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        CacheGeometry::from_entries(12, 2);
    }

    #[test]
    fn insert_then_get() {
        let mut c = small();
        assert!(c.insert(LineAddr(4), 42).is_none());
        assert_eq!(c.get(LineAddr(4)), Some(&42));
        assert_eq!(c.peek(LineAddr(4)), Some(&42));
        assert_eq!(c.get(LineAddr(8)), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn reinsert_replaces_in_place() {
        let mut c = small();
        c.insert(LineAddr(4), 1);
        assert!(c.insert(LineAddr(4), 2).is_none());
        assert_eq!(c.get(LineAddr(4)), Some(&2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = small();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.insert(LineAddr(0), 10);
        c.insert(LineAddr(4), 20);
        c.get(LineAddr(0)); // make line 0 MRU
        let victim = c.insert(LineAddr(8), 30);
        assert_eq!(victim, Some((LineAddr(4), 20)));
        assert!(c.contains(LineAddr(0)));
        assert!(c.contains(LineAddr(8)));
    }

    #[test]
    fn peek_does_not_promote() {
        let mut c = small();
        c.insert(LineAddr(0), 10);
        c.insert(LineAddr(4), 20);
        c.peek(LineAddr(0)); // must NOT refresh line 0
        let victim = c.insert(LineAddr(8), 30);
        assert_eq!(victim, Some((LineAddr(0), 10)));
    }

    #[test]
    fn remove_frees_the_way() {
        let mut c = small();
        c.insert(LineAddr(0), 10);
        c.insert(LineAddr(4), 20);
        assert_eq!(c.remove(LineAddr(0)), Some(10));
        assert_eq!(c.remove(LineAddr(0)), None);
        assert!(c.insert(LineAddr(8), 30).is_none(), "no eviction needed");
    }

    #[test]
    fn different_sets_do_not_interfere() {
        let mut c = small();
        for i in 0..4u64 {
            assert!(c.insert(LineAddr(i), i as u32).is_none());
        }
        assert_eq!(c.len(), 4);
        for i in 0..4u64 {
            assert!(c.contains(LineAddr(i)));
        }
    }

    #[test]
    fn snapshot_round_trip_preserves_lru_and_way_order() {
        let mut c = small();
        // Lines 0, 4, 8 map to set 0; build non-trivial LRU + way order
        // (insert 0 and 4, promote 0, evict 4 via 8 — swap_remove reorders).
        c.insert(LineAddr(0), 10);
        c.insert(LineAddr(4), 20);
        c.get(LineAddr(0));
        c.insert(LineAddr(8), 30);
        c.insert(LineAddr(1), 40); // second set, half full

        let mut w = flexsnoop_engine::snap::SnapWriter::new();
        c.save_into_with(&mut w, |v, w| w.put_u64(u64::from(*v)));
        let bytes = w.into_bytes();
        let mut fresh: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::from_entries(8, 2));
        let mut r = flexsnoop_engine::snap::SnapReader::new(&bytes);
        fresh
            .restore_from_with(&mut r, |r| Ok(r.get_u64()? as u32))
            .unwrap();
        r.expect_eof().unwrap();

        assert_eq!(fresh.len(), c.len());
        // Identical future behavior: the same insert evicts the same victim
        // from both the original and the restored array.
        assert_eq!(c.insert(LineAddr(12), 50), fresh.insert(LineAddr(12), 50));
        let mut a: Vec<_> = c.iter().map(|(l, &v)| (l.0, v)).collect();
        let mut b: Vec<_> = fresh.iter().map(|(l, &v)| (l.0, v)).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn snapshot_restore_rejects_geometry_mismatch() {
        let mut c = small();
        c.insert(LineAddr(3), 7);
        let mut w = flexsnoop_engine::snap::SnapWriter::new();
        c.save_into_with(&mut w, |v, w| w.put_u64(u64::from(*v)));
        let bytes = w.into_bytes();
        // 2 sets instead of 4: the restore must fail, not silently remap.
        let mut fresh: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::from_entries(4, 2));
        let mut r = flexsnoop_engine::snap::SnapReader::new(&bytes);
        let err = fresh
            .restore_from_with(&mut r, |r| Ok(r.get_u64()? as u32))
            .unwrap_err();
        assert!(matches!(err, SnapError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn iter_visits_everything() {
        let mut c = small();
        c.insert(LineAddr(1), 100);
        c.insert(LineAddr(2), 200);
        let mut all: Vec<_> = c.iter().map(|(l, &v)| (l.0, v)).collect();
        all.sort_unstable();
        assert_eq!(all, [(1, 100), (2, 200)]);
    }

    #[test]
    fn snapshot_restore_rejects_a_line_listed_twice() {
        // 4 sets x 2 ways; set 0 lists line 4 twice.
        let mut w = flexsnoop_engine::snap::SnapWriter::new();
        w.put_u64(2);
        w.put_usize(4);
        w.put_usize(2);
        for stamp in [1, 2] {
            w.put_u64(4);
            w.put_u64(stamp);
            w.put_u64(7);
        }
        for _ in 1..4 {
            w.put_usize(0);
        }
        let bytes = w.into_bytes();
        let mut fresh = small();
        let mut r = flexsnoop_engine::snap::SnapReader::new(&bytes);
        let err = fresh
            .restore_from_with(&mut r, |r| Ok(r.get_u64()? as u32))
            .unwrap_err();
        assert!(matches!(err, SnapError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn untouched_cache_costs_only_its_heads_and_reuses_freed_ways() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::from_entries(64, 4));
        let cold = c.footprint_bytes();
        assert_eq!(cold, (size_of::<SetAssocCache<u32>>() + 16 * 4) as u64);
        for i in 0..32u64 {
            c.insert(LineAddr(i), i as u32);
        }
        let warm = c.footprint_bytes();
        assert!(warm > cold);
        // Every set holds two lines, in a four-way chunk of its own.
        assert_eq!([c.slabs[0].len, c.slabs[1].len], [0, 16]);
        for i in 0..32u64 {
            assert_eq!(c.remove(LineAddr(i)), Some(i as u32));
        }
        assert_eq!([c.slabs[0].len, c.slabs[1].len], [0, 0]);
        for i in 32..64u64 {
            c.insert(LineAddr(i), i as u32);
        }
        assert_eq!(c.footprint_bytes(), warm, "freed ways are reused");
    }

    #[test]
    fn a_set_of_two_or_more_lines_sits_in_one_chunk_of_ways() {
        // 4 sets x 4 ways; lines 0, 4, 8 and 12 map to set 0.
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::from_entries(16, 4));
        c.insert(LineAddr(0), 0);
        assert_eq!(c.chunk(0), Some((0, 0)));
        for line in [4, 8, 12] {
            c.insert(LineAddr(line), line as u32);
        }
        assert_eq!(c.chunk(0), Some((1, 0)));
        let lines: Vec<u64> = c.slots(0).iter().map(|w| w.line.0).collect();
        assert_eq!(lines, [0, 4, 8, 12], "insertion order, contiguous");
        assert_eq!(c.slabs[0].len, 0, "set 0 gave up its one-way chunk");
        c.insert(LineAddr(1), 1);
        assert_eq!(c.chunk(1), Some((0, 0)));
        // Back to one line, set 0 returns to a one-way chunk.
        for line in [0, 4, 8] {
            c.remove(LineAddr(line));
        }
        assert_eq!(c.chunk(0), Some((0, 1)));
        assert_eq!(c.slabs[1].len, 0);
        // Set 1 empties, and set 0's chunk, the slab's last, takes its
        // place.
        c.remove(LineAddr(1));
        assert_eq!(c.chunk(1), None);
        assert_eq!(c.chunk(0), Some((0, 0)));
        assert_eq!(c.peek(LineAddr(12)), Some(&12));
        assert_eq!(c.slabs[0].len, 1);
    }

    #[test]
    fn slab_segments_double_and_never_move() {
        let mut slab: Slab<u32> = Slab::new();
        let chunks = 4 + 4 + 8 + 16 + 1;
        for c in 0..chunks {
            assert_eq!(slab.push(2), c);
            slab.chunk_mut(c, 2)[0].value = Some(c as u32);
        }
        let caps: Vec<usize> = slab.segments.iter().map(Vec::capacity).collect();
        assert_eq!(
            caps,
            [8, 8, 16, 32, 64],
            "segments of 4, 4, 8, 16, 32 chunks"
        );
        // Dropping chunk 1 (segment 0) moves chunk 32 (segment 4) into
        // its place; dropping chunk 20 then moves chunk 31 within
        // segment 3.
        assert!(slab.swap_remove(1, 2));
        assert_eq!(slab.chunk(1, 2)[0].value, Some(32));
        assert!(slab.swap_remove(20, 2));
        assert_eq!(slab.chunk(20, 2)[0].value, Some(31));
        assert!(!slab.swap_remove(30, 2), "the last chunk moves nowhere");
        assert_eq!(slab.len, 30);
        assert_eq!(slab.capacity(), 2 * 64, "capacity is kept");
    }

    /// The array as it was before the slab: one `Vec` of ways per set,
    /// kept unchanged as the reference the slab layout must match.
    #[derive(Debug, Clone)]
    struct VecWay<V> {
        line: LineAddr,
        value: V,
        last_use: u64,
    }

    #[derive(Debug, Clone)]
    struct VecSetCache<V> {
        geometry: CacheGeometry,
        sets: Vec<Vec<VecWay<V>>>,
        clock: u64,
        occupied: usize,
    }

    impl<V> VecSetCache<V> {
        fn new(geometry: CacheGeometry) -> Self {
            let sets = (0..geometry.sets).map(|_| Vec::new()).collect();
            Self {
                geometry,
                sets,
                clock: 0,
                occupied: 0,
            }
        }

        fn len(&self) -> usize {
            self.occupied
        }

        fn tick(&mut self) -> u64 {
            self.clock += 1;
            self.clock
        }

        fn peek(&self, line: LineAddr) -> Option<&V> {
            self.sets[self.geometry.set_of(line)]
                .iter()
                .find(|w| w.line == line)
                .map(|w| &w.value)
        }

        fn get(&mut self, line: LineAddr) -> Option<&V> {
            let stamp = self.tick();
            let set = &mut self.sets[self.geometry.set_of(line)];
            let way = set.iter_mut().find(|w| w.line == line)?;
            way.last_use = stamp;
            Some(&way.value)
        }

        fn get_mut(&mut self, line: LineAddr) -> Option<&mut V> {
            let stamp = self.tick();
            let set = &mut self.sets[self.geometry.set_of(line)];
            let way = set.iter_mut().find(|w| w.line == line)?;
            way.last_use = stamp;
            Some(&mut way.value)
        }

        fn insert(&mut self, line: LineAddr, value: V) -> Option<(LineAddr, V)> {
            let stamp = self.tick();
            let ways = self.geometry.ways;
            let set = &mut self.sets[self.geometry.set_of(line)];
            if let Some(way) = set.iter_mut().find(|w| w.line == line) {
                way.last_use = stamp;
                way.value = value;
                return None;
            }
            let mut victim = None;
            if set.len() == ways {
                // Evict the least recently used way.
                let (idx, _) = set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, w)| w.last_use)
                    .expect("full set is non-empty");
                let old = set.swap_remove(idx);
                self.occupied -= 1;
                victim = Some((old.line, old.value));
            }
            set.push(VecWay {
                line,
                value,
                last_use: stamp,
            });
            self.occupied += 1;
            victim
        }

        fn remove(&mut self, line: LineAddr) -> Option<V> {
            let set = &mut self.sets[self.geometry.set_of(line)];
            let idx = set.iter().position(|w| w.line == line)?;
            self.occupied -= 1;
            Some(set.swap_remove(idx).value)
        }

        fn iter(&self) -> impl Iterator<Item = (LineAddr, &V)> {
            self.sets
                .iter()
                .flat_map(|set| set.iter().map(|w| (w.line, &w.value)))
        }

        fn save_into_with(&self, w: &mut SnapWriter, mut enc: impl FnMut(&V, &mut SnapWriter)) {
            w.put_u64(self.clock);
            w.put_usize(self.sets.len());
            for set in &self.sets {
                w.put_usize(set.len());
                for way in set {
                    w.put_u64(way.line.0);
                    w.put_u64(way.last_use);
                    enc(&way.value, w);
                }
            }
        }

        fn restore_from_with(
            &mut self,
            r: &mut SnapReader<'_>,
            mut dec: impl FnMut(&mut SnapReader<'_>) -> Result<V, SnapError>,
        ) -> Result<(), SnapError> {
            self.clock = r.get_u64()?;
            let n_sets = r.get_usize()?;
            if n_sets != self.geometry.sets {
                return Err(SnapError::Corrupt("set count does not match geometry"));
            }
            self.occupied = 0;
            for si in 0..n_sets {
                let len = r.get_usize()?;
                if len > self.geometry.ways {
                    return Err(SnapError::Corrupt(
                        "set holds more ways than geometry allows",
                    ));
                }
                self.sets[si].clear();
                for _ in 0..len {
                    let line = LineAddr(r.get_u64()?);
                    if self.geometry.set_of(line) != si {
                        return Err(SnapError::Corrupt("line indexed into the wrong set"));
                    }
                    let last_use = r.get_u64()?;
                    let value = dec(r)?;
                    self.sets[si].push(VecWay {
                        line,
                        value,
                        last_use,
                    });
                    self.occupied += 1;
                }
            }
            Ok(())
        }
    }

    fn slab_bytes(c: &SetAssocCache<u32>) -> Vec<u8> {
        let mut w = SnapWriter::new();
        c.save_into_with(&mut w, |v, w| w.put_u32(*v));
        w.into_bytes()
    }

    fn vec_bytes(c: &VecSetCache<u32>) -> Vec<u8> {
        let mut w = SnapWriter::new();
        c.save_into_with(&mut w, |v, w| w.put_u32(*v));
        w.into_bytes()
    }

    /// Applies one random operation to both arrays and asserts they
    /// return the same thing and end in the same observable state.
    fn step_both(
        rng: &mut flexsnoop_engine::SplitMix64,
        lines: u64,
        slab: &mut SetAssocCache<u32>,
        reference: &mut VecSetCache<u32>,
    ) {
        apply_both(rng, lines, slab, reference);
        assert_eq!(slab_bytes(slab), vec_bytes(reference));
    }

    /// [`step_both`] short of comparing bytes: equal returns (victims
    /// included), `len` and `iter()` order.
    fn apply_both(
        rng: &mut flexsnoop_engine::SplitMix64,
        lines: u64,
        slab: &mut SetAssocCache<u32>,
        reference: &mut VecSetCache<u32>,
    ) {
        let line = LineAddr(rng.next_below(lines));
        let value = rng.next_u64() as u32;
        match rng.next_below(5) {
            0 => assert_eq!(slab.insert(line, value), reference.insert(line, value)),
            1 => assert_eq!(slab.get(line), reference.get(line)),
            2 => {
                let (a, b) = (slab.get_mut(line), reference.get_mut(line));
                assert_eq!(a, b);
                if let (Some(a), Some(b)) = (a, b) {
                    *a = value;
                    *b = value;
                }
            }
            3 => assert_eq!(slab.peek(line), reference.peek(line)),
            _ => assert_eq!(slab.remove(line), reference.remove(line)),
        }
        assert_eq!(slab.len(), reference.len());
        assert!(slab.iter().eq(reference.iter()));
    }

    #[test]
    fn slab_matches_the_per_set_vec_reference() {
        // 64 sets fill several segments of each slab.
        for (sets, ways) in [1, 2, 4, 8]
            .map(|w| (4, w))
            .into_iter()
            .chain([(64, 2), (64, 8)])
        {
            for seed in 0..4u64 {
                let geometry = CacheGeometry { sets, ways };
                // Twice the capacity in distinct lines: sets fill, evict,
                // and lose first, middle and last ways to `remove`.
                let lines = 2 * geometry.entries() as u64;
                let mut rng = flexsnoop_engine::SplitMix64::new(seed * 31 + ways as u64);
                let mut slab = SetAssocCache::new(geometry);
                let mut reference = VecSetCache::new(geometry);
                for _ in 0..2_000 {
                    step_both(&mut rng, lines, &mut slab, &mut reference);
                }

                // Restore each array's bytes into the other kind; the
                // crossed pair must keep agreeing.
                let mut slab_from_vec = SetAssocCache::new(geometry);
                let bytes = vec_bytes(&reference);
                let mut r = SnapReader::new(&bytes);
                slab_from_vec
                    .restore_from_with(&mut r, |r| r.get_u32())
                    .unwrap();
                r.expect_eof().unwrap();
                let mut vec_from_slab = VecSetCache::new(geometry);
                let bytes = slab_bytes(&slab);
                let mut r = SnapReader::new(&bytes);
                vec_from_slab
                    .restore_from_with(&mut r, |r| r.get_u32())
                    .unwrap();
                r.expect_eof().unwrap();
                for _ in 0..100 {
                    step_both(&mut rng, lines, &mut slab_from_vec, &mut vec_from_slab);
                }
            }
        }
    }

    /// A reference array of `geometry` after `ops` random operations.
    fn churned(geometry: CacheGeometry, seed: u64, ops: usize) -> VecSetCache<u32> {
        let lines = 2 * geometry.entries() as u64;
        let mut rng = flexsnoop_engine::SplitMix64::new(seed);
        let mut slab = SetAssocCache::new(geometry);
        let mut reference = VecSetCache::new(geometry);
        for _ in 0..ops {
            step_both(&mut rng, lines, &mut slab, &mut reference);
        }
        reference
    }

    /// The bytes `reference` would write had its clock, and every stamp
    /// with it, been moved on to `clock`: those of an array that took
    /// that many more LRU updates before reaching the same state.
    fn shifted_bytes(reference: &VecSetCache<u32>, clock: u64) -> Vec<u8> {
        let mut shifted = reference.clone();
        let by = clock - reference.clock;
        shifted.clock = clock;
        for way in shifted.sets.iter_mut().flatten() {
            way.last_use += by;
        }
        vec_bytes(&shifted)
    }

    /// Restores `bytes` into a fresh array and a fresh reference.
    fn restore_pair(
        geometry: CacheGeometry,
        bytes: &[u8],
    ) -> (SetAssocCache<u32>, VecSetCache<u32>) {
        let mut slab = SetAssocCache::new(geometry);
        let mut r = SnapReader::new(bytes);
        slab.restore_from_with(&mut r, |r| r.get_u32()).unwrap();
        r.expect_eof().unwrap();
        let mut reference = VecSetCache::new(geometry);
        let mut r = SnapReader::new(bytes);
        reference
            .restore_from_with(&mut r, |r| r.get_u32())
            .unwrap();
        (slab, reference)
    }

    const WRAP_GEOMETRIES: [(usize, usize); 5] = [(4, 1), (4, 2), (4, 8), (64, 2), (64, 8)];

    #[test]
    fn stamps_renumber_when_the_clock_wraps() {
        for (sets, ways) in WRAP_GEOMETRIES {
            for seed in 0..4u64 {
                let geometry = CacheGeometry { sets, ways };
                let lines = 2 * geometry.entries() as u64;
                let warm = churned(geometry, seed * 7 + ways as u64, 1_000);
                // Eight LRU updates before the 32-bit clock would wrap;
                // the reference's `u64` clock runs on past it.
                let bytes = shifted_bytes(&warm, (1 << 32) - 8);
                let (mut slab, mut reference) = restore_pair(geometry, &bytes);
                let mut rng = flexsnoop_engine::SplitMix64::new(seed);
                for _ in 0..2_000 {
                    apply_both(&mut rng, lines, &mut slab, &mut reference);
                    if reference.clock <= u64::from(u32::MAX) {
                        assert_eq!(slab_bytes(&slab), vec_bytes(&reference));
                    }
                }
                assert!(reference.clock > u64::from(u32::MAX), "the clock wrapped");
                assert!(
                    u64::from(slab.clock) < 2_000 + ways as u64,
                    "the clock restarted at `ways`"
                );
            }
        }
    }

    #[test]
    fn stamps_of_2_pow_32_or_more_restore_renumbered() {
        for (sets, ways) in WRAP_GEOMETRIES {
            for seed in 0..4u64 {
                let geometry = CacheGeometry { sets, ways };
                let lines = 2 * geometry.entries() as u64;
                let warm = churned(geometry, seed * 7 + ways as u64, 1_000);
                // Every stamp past 2^32, then only the newest ones: sets
                // whose stamps all fit are renumbered too.
                for clock in [1 << 40, (1 << 32) + 300] {
                    let bytes = shifted_bytes(&warm, clock);
                    let (mut slab, mut reference) = restore_pair(geometry, &bytes);
                    assert_eq!(slab.clock as usize, ways, "the clock restarts at `ways`");
                    let mut rng = flexsnoop_engine::SplitMix64::new(seed);
                    for _ in 0..1_000 {
                        apply_both(&mut rng, lines, &mut slab, &mut reference);
                    }
                }
            }
        }
    }
}
