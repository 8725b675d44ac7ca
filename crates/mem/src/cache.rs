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

// A way is its line and its value, kept in parallel arrays: 9 bytes for
// the L2's coherence states and 8 for the tag-only L1 filters and
// predictor tables.
const _: () = assert!(size_of::<LineAddr>() + size_of::<CoherState>() == 9);

/// One segment of a [`Slab`]: the lines of its chunks' ways and, at the
/// same places, their values. A vacant way holds a stale line and
/// `V::default()`.
#[derive(Debug, Clone)]
struct Segment<V> {
    lines: Vec<LineAddr>,
    values: Vec<V>,
}

/// Equal-sized chunks of ways, numbered from 0, in segments that never
/// move: the first two hold four chunks each and every later one as many
/// as all before it, so `k + 1` segments hold `4 << k` chunks, the
/// capacities a doubling `Vec` steps through. Unlike a `Vec`, the slab
/// grows without copying and frees no outgrown buffer for the allocator
/// to strand.
#[derive(Debug, Clone)]
struct Slab<V> {
    segments: Vec<Segment<V>>,
    /// Chunks in use: chunks `0..len`.
    len: usize,
}

impl<V: Default> Slab<V> {
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

    /// The first `len` ways of chunk `c`, of `size` ways: their lines and
    /// their values.
    #[inline]
    fn ways(&self, c: usize, size: usize, len: usize) -> (&[LineAddr], &[V]) {
        let (seg, at) = Self::locate(c);
        let segment = &self.segments[seg];
        let ways = at * size..at * size + len;
        (&segment.lines[ways.clone()], &segment.values[ways])
    }

    #[inline]
    fn ways_mut(&mut self, c: usize, size: usize, len: usize) -> (&mut [LineAddr], &mut [V]) {
        let (seg, at) = Self::locate(c);
        let segment = &mut self.segments[seg];
        let ways = at * size..at * size + len;
        (&mut segment.lines[ways.clone()], &mut segment.values[ways])
    }

    /// Appends a chunk of `size` vacant ways and returns its number.
    fn push(&mut self, size: usize) -> usize {
        let c = self.len;
        let (seg, _) = Self::locate(c);
        if seg == self.segments.len() {
            let ways = (Self::first(seg + 1) - Self::first(seg)) * size;
            self.segments.push(Segment {
                lines: Vec::with_capacity(ways),
                values: Vec::with_capacity(ways),
            });
        }
        let segment = &mut self.segments[seg];
        let end = segment.lines.len() + size;
        segment.lines.resize(end, LineAddr(0));
        segment.values.resize_with(end, V::default);
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
            for k in 0..size {
                let from = &mut self.segments[seg];
                let way = (
                    from.lines[at * size + k],
                    std::mem::take(&mut from.values[at * size + k]),
                );
                let into = &mut self.segments[to_seg];
                (into.lines[to * size + k], into.values[to * size + k]) = way;
            }
        }
        self.segments[seg].lines.truncate(at * size);
        self.segments[seg].values.truncate(at * size);
        moved
    }

    /// Ways allocated.
    fn capacity(&self) -> usize {
        self.segments.iter().map(|s| s.lines.capacity()).sum()
    }
}

/// Moves way `k` of a set's ways to the end, the most recently used
/// place; the ways after it move down one. Each step reads a way no
/// earlier step wrote, so no step waits on the one before: adjacent
/// swaps, which do, evicted from a full 8-way set 3.7 times slower, and
/// `rotate_left` of both arrays or a `memmove` of the lines made hits
/// slower (EXPERIMENTS.md).
#[inline]
fn to_back<V: Default>(lines: &mut [LineAddr], values: &mut [V], k: usize) {
    let n = lines.len();
    let values = &mut values[..n];
    let way = (lines[k], std::mem::take(&mut values[k]));
    for i in k..n - 1 {
        lines[i] = lines[i + 1];
        values[i] = std::mem::take(&mut values[i + 1]);
    }
    (lines[n - 1], values[n - 1]) = way;
}

/// A set-associative cache mapping [`LineAddr`] to `V` with true-LRU
/// replacement inside each set.
///
/// Each set keeps its live ways in recency order, least recently used
/// first, so no way carries a stamp and the array keeps no clock. A hit
/// ([`get`](Self::get), [`get_mut`](Self::get_mut), or
/// [`insert`](Self::insert) of a resident line) moves its way to the end;
/// an insert into a full set evicts the first way; [`remove`](Self::remove)
/// shifts the later ways down; [`peek`](Self::peek) moves nothing.
///
/// Sets own no storage. A set holding one line keeps it in a chunk of one
/// way, and a set holding more keeps them in a chunk of `ways` contiguous
/// ways, so a full set is probed as one run of memory. Each chunk size
/// has its own `Slab`, kept dense: a freed chunk takes the slab's last
/// chunk, so a slab holds exactly the chunks of the sets using it. A chunk
/// keeps its ways' lines and values in parallel arrays: a probe scans the
/// lines alone, and a way takes 9 bytes for the L2's coherence states and
/// 8 for the tag-only L1 filters and predictor tables. A set's `u32` head
/// names its chunk and, in its low bits, counts its live ways.
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
    /// One per set: the number of its chunk shifted left `shift` bits,
    /// plus its count of live ways; 0 for an empty set.
    heads: Box<[u32]>,
    /// Low bits of a head that count its set's ways: enough for `ways`.
    shift: u32,
    occupied: usize,
}

impl<V: Default> SetAssocCache<V> {
    /// Creates an empty cache with the given geometry.
    ///
    /// The way slabs are allocated on first insert and grow with the
    /// lines resident, so a million cold caches (or one huge flat
    /// predictor bank) cost only their `u32` set heads until touched —
    /// load-bearing for the `bench --scale` node counts.
    ///
    /// # Panics
    ///
    /// Panics if a set's head cannot hold both a way count up to `ways`
    /// and a chunk number below `sets`.
    pub fn new(geometry: CacheGeometry) -> Self {
        let shift = usize::BITS - geometry.ways.leading_zeros();
        assert!(
            shift < u32::BITS && geometry.sets as u64 <= 1 << (u32::BITS - shift),
            "{geometry:?} does not fit a u32 set head"
        );
        Self {
            geometry,
            slabs: [Slab::new(), Slab::new()],
            heads: vec![0; geometry.sets].into_boxed_slice(),
            shift,
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

    /// The number of live ways `head` counts.
    #[inline]
    fn count(&self, head: u32) -> usize {
        (head & ((1 << self.shift) - 1)) as usize
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

    /// `set`'s chunk, as its slab and its number there, and the set's
    /// count of live ways; `None` for an empty set.
    #[inline]
    fn chunk(&self, set: usize) -> Option<(usize, usize, usize)> {
        let head = self.heads[set];
        let len = self.count(head);
        (len > 0).then(|| (usize::from(len > 1), (head >> self.shift) as usize, len))
    }

    /// `set`'s live ways, least recently used first: their lines and
    /// their values.
    #[inline]
    fn ways_of(&self, set: usize) -> (&[LineAddr], &[V]) {
        let Some((slab, c, len)) = self.chunk(set) else {
            return (&[], &[]);
        };
        self.slabs[slab].ways(c, self.chunk_ways(slab), len)
    }

    #[inline]
    fn ways_of_mut(&mut self, set: usize) -> (&mut [LineAddr], &mut [V]) {
        let Some((slab, c, len)) = self.chunk(set) else {
            return (&mut [], &mut []);
        };
        let size = self.chunk_ways(slab);
        self.slabs[slab].ways_mut(c, size, len)
    }

    /// Moves `set` to a chunk sized for `len` ways (none for an empty set,
    /// one way for one line, `ways` ways for more), carrying its first way
    /// over, frees its old chunk, and counts `len` ways in its head. A set
    /// changes chunk only between zero, one and two lines, so its first
    /// way is all it can carry.
    fn reseat(&mut self, set: usize, len: usize) {
        let old = self.chunk(set);
        self.heads[set] = 0;
        if len > 0 {
            let slab = usize::from(len > 1);
            let size = self.chunk_ways(slab);
            let c = self.slabs[slab].push(size);
            if let Some((old_slab, old_c, _)) = old {
                let old_size = self.chunk_ways(old_slab);
                let (lines, values) = self.slabs[old_slab].ways_mut(old_c, old_size, 1);
                let way = (lines[0], std::mem::take(&mut values[0]));
                let (lines, values) = self.slabs[slab].ways_mut(c, size, 1);
                (lines[0], values[0]) = way;
            }
            self.heads[set] = (c as u32) << self.shift | len as u32;
        }
        if let Some((old_slab, old_c, _)) = old {
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
            let set = self.geometry.set_of(self.slabs[slab].ways(c, size, 1).0[0]);
            let len = self.count(self.heads[set]);
            self.heads[set] = (c as u32) << self.shift | len as u32;
        }
    }

    /// Adds `line` to `set`, which holds fewer ways than the geometry
    /// allows, as its most recently used way.
    fn append(&mut self, set: usize, line: LineAddr, value: V) {
        let len = self.count(self.heads[set]);
        if len < 2 {
            // An empty set has no chunk, and a set of one line fills its
            // one-way chunk.
            self.reseat(set, len + 1);
        } else {
            self.heads[set] += 1;
        }
        let (lines, values) = self.ways_of_mut(set);
        (lines[len], values[len]) = (line, value);
        self.occupied += 1;
    }

    /// Looks up `line` without touching LRU state (a *probe*, as a snoop
    /// would perform on the tag array).
    #[inline]
    pub fn peek(&self, line: LineAddr) -> Option<&V> {
        let (lines, values) = self.ways_of(self.geometry.set_of(line));
        let k = lines.iter().position(|&l| l == line)?;
        Some(&values[k])
    }

    /// Looks up `line`, promoting it to most-recently-used on hit.
    pub fn get(&mut self, line: LineAddr) -> Option<&V> {
        self.get_mut(line).map(|v| &*v)
    }

    /// Mutable lookup, promoting to most-recently-used on hit.
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut V> {
        let (lines, values) = self.ways_of_mut(self.geometry.set_of(line));
        let k = lines.iter().position(|&l| l == line)?;
        to_back(lines, values, k);
        values.last_mut()
    }

    /// Whether `line` is present (no LRU update).
    pub fn contains(&self, line: LineAddr) -> bool {
        self.peek(line).is_some()
    }

    /// Inserts `line → value`, returning the victim `(line, value)` evicted
    /// to make room, if the set was full. Inserting an already-present line
    /// replaces its value in place (no eviction) and promotes it.
    pub fn insert(&mut self, line: LineAddr, value: V) -> Option<(LineAddr, V)> {
        let (set, ways) = (self.geometry.set_of(line), self.geometry.ways);
        let (lines, values) = self.ways_of_mut(set);
        let len = lines.len();
        if let Some(k) = lines.iter().position(|&l| l == line) {
            to_back(lines, values, k);
            values[len - 1] = value;
            return None;
        }
        if len == ways {
            // The least recently used way, the first, makes room; the new
            // way goes last.
            to_back(lines, values, 0);
            let old = std::mem::replace(&mut lines[len - 1], line);
            return Some((old, std::mem::replace(&mut values[len - 1], value)));
        }
        self.append(set, line, value);
        None
    }

    /// Removes `line`, returning its value if present.
    pub fn remove(&mut self, line: LineAddr) -> Option<V> {
        let set = self.geometry.set_of(line);
        let (lines, values) = self.ways_of_mut(set);
        let len = lines.len();
        let k = lines.iter().position(|&l| l == line)?;
        to_back(lines, values, k);
        let value = std::mem::take(&mut values[len - 1]);
        self.occupied -= 1;
        if len > 2 {
            self.heads[set] -= 1;
        } else {
            self.reseat(set, len - 1);
        }
        Some(value)
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
            + ways * (size_of::<LineAddr>() + size_of::<V>())
            + segments * size_of::<Segment<V>>();
        bytes as u64
    }

    /// Iterates over all `(line, value)` entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &V)> {
        (0..self.heads.len()).flat_map(move |set| self.iter_set(set))
    }

    /// Iterates over the `(line, value)` entries of one set, least
    /// recently used first.
    ///
    /// # Panics
    ///
    /// Panics if `set` is not below the geometry's set count.
    pub(crate) fn iter_set(&self, set: usize) -> impl Iterator<Item = (LineAddr, &V)> {
        let (lines, values) = self.ways_of(set);
        lines.iter().copied().zip(values)
    }

    /// Serializes the array's state, using `enc` to encode each stored
    /// value: the set count, then each set's way count and its ways in
    /// recency order, least recently used first, each as its line and its
    /// value. That order is all LRU replacement keeps, so no clock or
    /// stamp is written.
    ///
    /// Geometry is *not* serialized: per the `Snapshot` overlay contract the
    /// restore target is freshly constructed from the same configuration,
    /// and [`restore_from_with`](Self::restore_from_with) verifies the set
    /// count matches.
    pub fn save_into_with(&self, w: &mut SnapWriter, mut enc: impl FnMut(&V, &mut SnapWriter)) {
        w.put_usize(self.heads.len());
        for set in 0..self.heads.len() {
            let (lines, values) = self.ways_of(set);
            w.put_usize(lines.len());
            for (line, value) in lines.iter().zip(values) {
                w.put_u64(line.0);
                enc(value, w);
            }
        }
    }

    /// Restores state written by [`save_into_with`](Self::save_into_with)
    /// onto a cache built with the same geometry, using `dec` to decode each
    /// stored value. Each set's recency order is reproduced exactly, so
    /// future evictions pick identical victims.
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
    /// into a new array of `geometry`, or `None` for the bytes of an array
    /// that holds no line, which then allocates nothing.
    pub(crate) fn restore_new(
        geometry: CacheGeometry,
        r: &mut SnapReader<'_>,
        mut dec: impl FnMut(&mut SnapReader<'_>) -> Result<V, SnapError>,
    ) -> Result<Option<Self>, SnapError> {
        if r.get_usize()? != geometry.sets {
            return Err(SnapError::Corrupt("set count does not match geometry"));
        }
        let mut cache: Option<Self> = None;
        for si in 0..geometry.sets {
            let len = r.get_usize()?;
            if len > geometry.ways {
                return Err(SnapError::Corrupt(
                    "set holds more ways than geometry allows",
                ));
            }
            for _ in 0..len {
                let line = LineAddr(r.get_u64()?);
                if geometry.set_of(line) != si {
                    return Err(SnapError::Corrupt("line indexed into the wrong set"));
                }
                let cache = cache.get_or_insert_with(|| Self::new(geometry));
                if cache.ways_of(si).0.contains(&line) {
                    return Err(SnapError::Corrupt("set lists a line twice"));
                }
                let value = dec(r)?;
                cache.append(si, line, value);
            }
        }
        Ok(cache)
    }
}

/// Writes the bytes [`SetAssocCache::save_into_with`] writes for an array
/// of `geometry` that holds no line, whatever it stores: the set count
/// and an empty count per set.
pub(crate) fn save_fresh(geometry: CacheGeometry, w: &mut SnapWriter) {
    w.put_usize(geometry.sets);
    for _ in 0..geometry.sets {
        w.put_usize(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsnoop_engine::SplitMix64;

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

    /// The lines of `set`, least recently used first.
    fn recency(c: &SetAssocCache<u32>, set: usize) -> Vec<u64> {
        c.iter_set(set).map(|(line, _)| line.0).collect()
    }

    #[test]
    fn a_set_keeps_its_ways_in_recency_order() {
        // 4 sets x 4 ways; lines 0, 4, 8, 12 and 16 map to set 0.
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::from_entries(16, 4));
        for line in [0, 4, 8, 12] {
            c.insert(LineAddr(line), line as u32);
        }
        assert_eq!(recency(&c, 0), [0, 4, 8, 12]);
        c.get(LineAddr(4));
        assert_eq!(recency(&c, 0), [0, 8, 12, 4], "a hit moves to the end");
        c.insert(LineAddr(8), 80);
        assert_eq!(recency(&c, 0), [0, 12, 4, 8], "so does a reinsert");
        c.peek(LineAddr(0));
        assert_eq!(recency(&c, 0), [0, 12, 4, 8], "a probe moves nothing");
        assert_eq!(c.insert(LineAddr(16), 16), Some((LineAddr(0), 0)));
        assert_eq!(recency(&c, 0), [12, 4, 8, 16], "the first way is evicted");
        c.remove(LineAddr(4));
        assert_eq!(recency(&c, 0), [12, 8, 16], "later ways shift down");
        assert_eq!(c.peek(LineAddr(8)), Some(&80));
    }

    /// `c`'s bytes, restored into a fresh array of its geometry, which
    /// must write the same bytes.
    fn round_trip(c: &SetAssocCache<u32>) -> SetAssocCache<u32> {
        let bytes = bytes_of(c);
        let mut fresh = SetAssocCache::new(c.geometry());
        fresh.insert(LineAddr(0), 99); // overlay: restore replaces it
        let mut r = SnapReader::new(&bytes);
        fresh.restore_from_with(&mut r, |r| r.get_u32()).unwrap();
        r.expect_eof().unwrap();
        assert_eq!(bytes_of(&fresh), bytes);
        fresh
    }

    fn bytes_of(c: &SetAssocCache<u32>) -> Vec<u8> {
        let mut w = SnapWriter::new();
        c.save_into_with(&mut w, |v, w| w.put_u32(*v));
        w.into_bytes()
    }

    #[test]
    fn snapshot_round_trip_preserves_lru_order() {
        let mut c = small();
        // Lines 0, 4, 8 map to set 0: insert 0 and 4, promote 0, evict 4
        // with 8.
        c.insert(LineAddr(0), 10);
        c.insert(LineAddr(4), 20);
        c.get(LineAddr(0));
        c.insert(LineAddr(8), 30);
        c.insert(LineAddr(1), 40); // second set, half full
        let mut fresh = round_trip(&c);
        assert_eq!(fresh.len(), c.len());
        assert_eq!(recency(&fresh, 0), [0, 8]);
        // Identical future behavior: the same insert evicts the same victim
        // from both the original and the restored array.
        assert_eq!(c.insert(LineAddr(12), 50), fresh.insert(LineAddr(12), 50));
        assert!(c.iter().eq(fresh.iter()));
    }

    #[test]
    fn a_snapshot_is_the_set_count_then_each_sets_ways_in_recency_order() {
        let mut c = small();
        c.insert(LineAddr(4), 40);
        c.insert(LineAddr(0), 0);
        c.insert(LineAddr(1), 10);
        c.get(LineAddr(4));
        let mut w = SnapWriter::new();
        w.put_usize(4);
        w.put_usize(2);
        for (line, value) in [(0, 0), (4, 40)] {
            w.put_u64(line);
            w.put_u32(value);
        }
        w.put_usize(1);
        w.put_u64(1);
        w.put_u32(10);
        w.put_usize(0);
        w.put_usize(0);
        assert_eq!(bytes_of(&c), w.into_bytes());
    }

    #[test]
    fn an_array_that_holds_no_line_restores_as_none() {
        let mut c = small();
        c.insert(LineAddr(1), 1);
        c.remove(LineAddr(1));
        let bytes = bytes_of(&c);
        let mut w = SnapWriter::new();
        save_fresh(c.geometry(), &mut w);
        assert_eq!(bytes, w.into_bytes());
        let mut r = SnapReader::new(&bytes);
        let restored = SetAssocCache::restore_new(c.geometry(), &mut r, |r| r.get_u32());
        assert!(matches!(restored, Ok(None)));
    }

    #[test]
    fn snapshot_restore_rejects_geometry_mismatch() {
        let mut c = small();
        c.insert(LineAddr(3), 7);
        let bytes = bytes_of(&c);
        // 2 sets instead of 4: the restore must fail, not silently remap.
        let mut fresh: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::from_entries(4, 2));
        let mut r = SnapReader::new(&bytes);
        let err = fresh
            .restore_from_with(&mut r, |r| r.get_u32())
            .unwrap_err();
        assert!(matches!(err, SnapError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn snapshot_restore_rejects_a_bad_set() {
        // 4 sets x 2 ways; each stream lists `lines` in set 0.
        for (lines, why) in [
            (&[0, 4, 8][..], "more ways than geometry allows"),
            (&[0, 1], "wrong set"),
            (&[4, 4], "a line twice"),
        ] {
            let mut w = SnapWriter::new();
            w.put_usize(4);
            w.put_usize(lines.len());
            for &line in lines {
                w.put_u64(line);
                w.put_u32(7);
            }
            for _ in 1..4 {
                w.put_usize(0);
            }
            let bytes = w.into_bytes();
            let mut c = small();
            c.insert(LineAddr(2), 2);
            let before = bytes_of(&c);
            let mut r = SnapReader::new(&bytes);
            let err = c.restore_from_with(&mut r, |r| r.get_u32()).unwrap_err();
            assert!(
                matches!(err, SnapError::Corrupt(what) if what.contains(why)),
                "{err:?}"
            );
            assert_eq!(bytes_of(&c), before, "a failed restore changes nothing");
        }
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
    fn untouched_cache_costs_only_its_heads_and_reuses_freed_ways() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::from_entries(64, 4));
        let cold = c.footprint_bytes();
        assert_eq!(cold, (size_of::<SetAssocCache<u32>>() + 16 * 4) as u64);
        for i in 0..32u64 {
            c.insert(LineAddr(i), i as u32);
        }
        let warm = c.footprint_bytes();
        // Every set holds two lines, in a four-way chunk of its own. On
        // the way each passed through a one-way chunk: each slab has
        // segments of 4, 4 and 8 chunks, 16 + 64 ways of 12 bytes.
        assert_eq!([c.slabs[0].len, c.slabs[1].len], [0, 16]);
        let segments = 2 * 4 * size_of::<Segment<u32>>() as u64;
        assert_eq!(warm, cold + (16 + 64) * 12 + segments);
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
    fn a_way_costs_9_bytes_with_a_coherence_state_and_8_without() {
        let geometry = CacheGeometry::from_entries(16, 8); // 2 sets
        let mut tags: SetAssocCache<()> = SetAssocCache::new(geometry);
        let mut states: SetAssocCache<CoherState> = SetAssocCache::new(geometry);
        let cold = tags.footprint_bytes();
        assert_eq!(states.footprint_bytes(), cold);
        for i in 0..4u64 {
            tags.insert(LineAddr(i), ());
            states.insert(LineAddr(i), CoherState::S);
        }
        // Each set went from a one-way chunk to an eight-way one: each
        // slab's first segment of four chunks, 4 + 32 ways.
        let segments = 2 * 4 * size_of::<Segment<()>>() as u64;
        assert_eq!(tags.footprint_bytes(), cold + 36 * 8 + segments);
        assert_eq!(states.footprint_bytes(), cold + 36 * 9 + segments);
    }

    #[test]
    fn a_set_of_two_or_more_lines_sits_in_one_chunk_of_ways() {
        // 4 sets x 4 ways; lines 0, 4, 8 and 12 map to set 0.
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::from_entries(16, 4));
        c.insert(LineAddr(0), 0);
        assert_eq!(c.chunk(0), Some((0, 0, 1)));
        for line in [4, 8, 12] {
            c.insert(LineAddr(line), line as u32);
        }
        assert_eq!(c.chunk(0), Some((1, 0, 4)));
        let (lines, _) = c.slabs[1].ways(0, 4, 4);
        assert_eq!(lines, [0, 4, 8, 12].map(LineAddr), "contiguous");
        assert_eq!(c.slabs[0].len, 0, "set 0 gave up its one-way chunk");
        c.insert(LineAddr(1), 1);
        assert_eq!(c.chunk(1), Some((0, 0, 1)));
        // Back to one line, set 0 returns to a one-way chunk.
        for line in [0, 4, 8] {
            c.remove(LineAddr(line));
        }
        assert_eq!(c.chunk(0), Some((0, 1, 1)));
        assert_eq!(c.slabs[1].len, 0);
        // Set 1 empties, and set 0's chunk, the slab's last, takes its
        // place.
        c.remove(LineAddr(1));
        assert_eq!(c.chunk(1), None);
        assert_eq!(c.chunk(0), Some((0, 0, 1)));
        assert_eq!(c.peek(LineAddr(12)), Some(&12));
        assert_eq!(c.slabs[0].len, 1);
    }

    #[test]
    fn slab_segments_double_and_never_move() {
        let mut slab: Slab<u32> = Slab::new();
        let chunks = 4 + 4 + 8 + 16 + 1;
        for c in 0..chunks {
            assert_eq!(slab.push(2), c);
            slab.ways_mut(c, 2, 1).1[0] = c as u32;
        }
        let caps: Vec<usize> = slab.segments.iter().map(|s| s.lines.capacity()).collect();
        assert_eq!(
            caps,
            [8, 8, 16, 32, 64],
            "segments of 4, 4, 8, 16, 32 chunks"
        );
        // Dropping chunk 1 (segment 0) moves chunk 32 (segment 4) into
        // its place; dropping chunk 20 then moves chunk 31 within
        // segment 3.
        assert!(slab.swap_remove(1, 2));
        assert_eq!(slab.ways(1, 2, 1).1, [32]);
        assert!(slab.swap_remove(20, 2));
        assert_eq!(slab.ways(20, 2, 1).1, [31]);
        assert!(!slab.swap_remove(30, 2), "the last chunk moves nowhere");
        assert_eq!(slab.len, 30);
        assert_eq!(slab.capacity(), 2 * 64, "capacity is kept");
    }

    #[test]
    fn a_head_counts_up_to_ways_below_the_chunk_number() {
        for (ways, shift) in [(1, 1), (2, 2), (4, 3), (8, 4), (16, 5)] {
            let c: SetAssocCache<()> = SetAssocCache::new(CacheGeometry { sets: 4, ways });
            assert_eq!(c.shift, shift, "{ways} ways");
        }
    }

    #[test]
    #[should_panic(expected = "does not fit a u32 set head")]
    fn more_sets_than_a_head_can_number_panic() {
        // 8 ways leave 28 bits for a chunk number: 2^28 sets fit, 2^29 do
        // not. The check comes before the heads are allocated.
        SetAssocCache::<()>::new(CacheGeometry {
            sets: 1 << 29,
            ways: 8,
        });
    }

    /// The array as it was before sets kept recency order: one `Vec` of
    /// ways per set, each way stamped from the array's clock at its last
    /// use, the least recently stamped way evicted, and a removed or
    /// evicted way's place taken by the set's last way. Its replacement
    /// logic is kept as it was, as the reference the recency order must
    /// match.
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

    impl<V: Copy> VecSetCache<V> {
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
            self.get_mut(line).map(|v| &*v)
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

        /// `set`'s ways sorted by stamp, least recently used first.
        fn by_stamp(&self, set: usize) -> Vec<(LineAddr, V)> {
            let mut ways = self.sets[set].clone();
            ways.sort_unstable_by_key(|w| w.last_use);
            ways.iter().map(|w| (w.line, w.value)).collect()
        }
    }

    /// Applies one random operation to both arrays and asserts they
    /// return the same thing (victims included), hold as many lines, and
    /// keep every set's lines in the same recency order.
    fn step_both(
        rng: &mut SplitMix64,
        lines: u64,
        cache: &mut SetAssocCache<u32>,
        reference: &mut VecSetCache<u32>,
    ) {
        let line = LineAddr(rng.next_below(lines));
        let value = rng.next_u64() as u32;
        match rng.next_below(5) {
            0 => assert_eq!(cache.insert(line, value), reference.insert(line, value)),
            1 => assert_eq!(cache.get(line), reference.get(line)),
            2 => {
                let (a, b) = (cache.get_mut(line), reference.get_mut(line));
                assert_eq!(a, b);
                if let (Some(a), Some(b)) = (a, b) {
                    *a = value;
                    *b = value;
                }
            }
            3 => assert_eq!(cache.peek(line), reference.peek(line)),
            _ => assert_eq!(cache.remove(line), reference.remove(line)),
        }
        assert_eq!(cache.len(), reference.len());
        for set in 0..cache.geometry().sets {
            let ways: Vec<(LineAddr, u32)> = cache.iter_set(set).map(|(l, &v)| (l, v)).collect();
            assert_eq!(ways, reference.by_stamp(set), "set {set}");
        }
    }

    #[test]
    fn recency_order_matches_the_stamped_reference() {
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
                let mut rng = SplitMix64::new(seed * 31 + ways as u64);
                let mut cache = SetAssocCache::new(geometry);
                let mut reference = VecSetCache::new(geometry);
                for _ in 0..2_000 {
                    step_both(&mut rng, lines, &mut cache, &mut reference);
                }
                // A restored array goes on in step with the reference.
                let mut restored = round_trip(&cache);
                for _ in 0..100 {
                    step_both(&mut rng, lines, &mut restored, &mut reference);
                }
            }
        }
    }
}
