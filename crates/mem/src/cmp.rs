//! A CMP's group of private caches and its snoop-side lookups.
//!
//! Each CMP holds one private L2 per core plus an L1 tag filter per core
//! (the L1 only affects hit latency; coherence is kept at the L2, with L1s
//! maintained inclusive by invalidation). This module implements the two
//! lookups the protocol needs:
//!
//! * a **local lookup** when a core misses its own caches — can another
//!   cache *in the same CMP* supply (`SL, SG, E, D, T`)?
//! * a **snoop** when a ring request arrives — does any L2 hold the line in
//!   a *supplier state* (`SG, E, D, T`)? All L2s are probed in parallel.

use flexsnoop_engine::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use flexsnoop_engine::{map_heap_bytes, FxHashMap};

use crate::addr::LineAddr;
use crate::cache::{save_fresh, CacheGeometry, SetAssocCache};
use crate::l2::{Eviction, L2Cache};
use crate::state::CoherState;

/// Where a core's access was satisfied within its own CMP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalLookup {
    /// Hit in the requesting core's own L1 (fast path).
    OwnL1(CoherState),
    /// Hit in the requesting core's own L2.
    OwnL2(CoherState),
    /// Another L2 in the same CMP can supply; carries its local core index
    /// and state.
    Peer {
        /// Index of the supplying core within this CMP.
        peer: usize,
        /// The supplier's state.
        state: CoherState,
    },
    /// No cache in this CMP can supply the line.
    Miss,
}

/// Result of a ring snoop probing all L2s of a CMP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnoopResult {
    /// The supplier, if one of the L2s holds the line in `SG`, `E`, `D`, `T`:
    /// `(local core index, state)`.
    pub supplier: Option<(usize, CoherState)>,
    /// Whether *any* L2 holds a valid copy (used to prove exclusivity for
    /// `E` fills when every node is snooped).
    pub any_copy: bool,
}

/// What a CMP-wide invalidation dropped ([`CmpCaches::invalidate_all`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidateOutcome {
    /// Number of valid copies invalidated across the CMP's L2s.
    pub copies: u32,
    /// Whether one of them was in a supplier state (`SG`, `E`, `D`, `T`).
    pub had_supplier: bool,
    /// How many dropped copies were in `E`, `D` or `T` — the states under
    /// which memory's own copy must not be used for fills. Kept as a count
    /// (not a flag) so callers maintaining machine-wide residency totals
    /// stay exact even when fault-injection mutations violate the
    /// one-owner invariant.
    pub strong_copies: u32,
}

/// A line's presence summary within one CMP, kept in sync with the L2
/// arrays by every mutating method and rebuilt from them on restore.
///
/// The Figure 2(b) storage invariants bound what a snoop can find: at most
/// one copy per CMP is in a locally-supplying state (`SL, SG, E, D, T` —
/// any pair of those is same-CMP incompatible, see
/// [`CoherState::compatible_with`]), so one `(core, state)` slot plus a
/// copy count answers every snoop-side question without scanning tag
/// arrays.
#[derive(Debug, Clone, Copy)]
struct Residency {
    /// Valid copies across the CMP's L2s (entry removed when it hits 0).
    copies: u8,
    /// The unique copy in a locally-supplying state, if any.
    local: Option<(u8, CoherState)>,
}

/// The caches of one CMP: per-core L1 tag filters and L2s, plus a
/// residency index that turns snoop probes into single hash lookups.
///
/// In hardware a snoop probes every L2 tag array in parallel; modeling
/// that as a literal scan made `snoop`/`supplier_of` the simulator's
/// hottest functions. The index is a pure lookup accelerator — it never
/// changes any answer (debug builds cross-check it against a full scan on
/// every snoop).
///
/// The per-core arrays are allocated at the CMP's first
/// [`fill`](Self::fill) or [`set_state`](Self::set_state). Until then the
/// CMP is *idle*: it holds no line, every other method answers from the
/// empty index (a [`local_lookup`](Self::local_lookup) misses), and a
/// snapshot writes the bytes of empty arrays. On a million-node ring,
/// where only the requesters' CMPs ever fill a line and every other CMP
/// is only snooped, an idle CMP costs its struct alone.
#[derive(Debug, Clone)]
pub struct CmpCaches {
    /// One L1 tag filter and one L2 per core; both empty while the CMP
    /// is idle.
    l1s: Box<[SetAssocCache<()>]>,
    l2s: Box<[L2Cache]>,
    cores: usize,
    l1_geometry: CacheGeometry,
    l2_geometry: CacheGeometry,
    index: FxHashMap<LineAddr, Residency>,
}

impl CmpCaches {
    /// The most cores one CMP holds: the residency index stores a core
    /// index and a copy count in a `u8` each.
    pub const MAX_CORES: usize = u8::MAX as usize;

    /// Creates an idle CMP with `cores` cores and the given cache
    /// geometries; its arrays are allocated at its first access.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or above [`Self::MAX_CORES`].
    pub fn new(cores: usize, l1_geometry: CacheGeometry, l2_geometry: CacheGeometry) -> Self {
        assert!(cores > 0, "a CMP needs at least one core");
        assert!(
            cores <= Self::MAX_CORES,
            "a CMP holds at most {} cores, not {cores}",
            Self::MAX_CORES
        );
        Self {
            l1s: Box::default(),
            l2s: Box::default(),
            cores,
            l1_geometry,
            l2_geometry,
            // The index holds at most one entry per resident line, bounded
            // by the CMP's total L2 capacity. It starts empty and grows on
            // demand: at million-node scale most CMPs never cache a line,
            // and pre-sizing every CMP's map would dwarf the caches
            // themselves.
            index: FxHashMap::default(),
        }
    }

    /// Whether the CMP is idle: not yet accessed, so it holds no arrays
    /// and no line.
    pub(crate) fn is_idle(&self) -> bool {
        self.l2s.is_empty()
    }

    /// Allocates the per-core arrays if the CMP is idle. Only `fill` and
    /// `set_state` call this: a lookup that misses changes no array, so
    /// an idle CMP answers it as its empty arrays would.
    #[inline]
    fn activate(&mut self) {
        if self.is_idle() {
            self.allocate();
        }
    }

    #[cold]
    fn allocate(&mut self) {
        self.l1s = (0..self.cores)
            .map(|_| SetAssocCache::new(self.l1_geometry))
            .collect();
        self.l2s = (0..self.cores)
            .map(|_| L2Cache::new(self.l2_geometry))
            .collect();
    }

    /// Records that `core`'s copy of `line` (which was in `state`) left
    /// its L2 — by eviction or invalidation.
    fn index_drop(&mut self, core: usize, line: LineAddr, state: CoherState) {
        let entry = self
            .index
            .get_mut(&line)
            .expect("residency index missed a resident line");
        entry.copies -= 1;
        if state.supplies_locally() {
            debug_assert_eq!(entry.local.map(|(c, _)| c as usize), Some(core));
            entry.local = None;
        }
        if entry.copies == 0 {
            self.index.remove(&line);
        }
    }

    /// Records that `core` now holds `line` in `state` (fill or state
    /// change); `old` is the state the core held it in before (`I` if it
    /// did not).
    fn index_update(&mut self, core: usize, line: LineAddr, old: CoherState, state: CoherState) {
        let entry = self.index.entry(line).or_insert(Residency {
            copies: 0,
            local: None,
        });
        if !old.is_valid() {
            entry.copies += 1;
        }
        if old.supplies_locally() {
            debug_assert_eq!(entry.local.map(|(c, _)| c as usize), Some(core));
            entry.local = None;
        }
        if state.supplies_locally() {
            // A correct protocol never has two locally-supplying copies in
            // one CMP; last-writer-wins here so the storage-invariant
            // checks (`invariants::check_line`, not the index) stay the
            // detector for injected protocol bugs.
            entry.local = Some((core as u8, state));
        }
    }

    /// Number of cores in this CMP.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// The geometry of every L2 in this CMP.
    pub(crate) fn l2_geometry(&self) -> CacheGeometry {
        self.l2_geometry
    }

    /// The state of `line` in `core`'s L2 (`I` if not cached), without
    /// touching LRU state: what a snoop probe of that L2 would see.
    pub fn state_of(&self, core: usize, line: LineAddr) -> CoherState {
        debug_assert!(core < self.cores, "core {core} out of range");
        self.l2s
            .get(core)
            .map_or(CoherState::I, |l2| l2.state_of(line))
    }

    /// Iterates over the `(line, state)` pairs resident in `core`'s L2,
    /// in unspecified order.
    pub fn l2_lines(&self, core: usize) -> impl Iterator<Item = (LineAddr, CoherState)> + '_ {
        debug_assert!(core < self.cores, "core {core} out of range");
        self.l2s.get(core).into_iter().flat_map(L2Cache::iter)
    }

    /// Iterates over every copy held in L2 set `set` of this CMP, as
    /// `(core, line, state)`, core by core.
    pub(crate) fn l2_set(
        &self,
        set: usize,
    ) -> impl Iterator<Item = (usize, LineAddr, CoherState)> + '_ {
        self.l2s.iter().enumerate().flat_map(move |(core, l2)| {
            l2.iter_set(set)
                .map(move |(line, state)| (core, line, state))
        })
    }

    /// A core's access as seen by its own CMP: own L1, own L2, then peer
    /// L2s over the intra-CMP bus.
    ///
    /// The L1 tag filter is refreshed on L1 hits and filled on L2 hits
    /// (inclusive hierarchy: the L1 never holds a line its L2 does not).
    pub fn local_lookup(&mut self, core: usize, line: LineAddr) -> LocalLookup {
        if self.is_idle() {
            return LocalLookup::Miss;
        }
        let own_state = self.l2s[core].access(line);
        if own_state.is_valid() {
            if self.l1s[core].get(line).is_some() {
                return LocalLookup::OwnL1(own_state);
            }
            self.l1s[core].insert(line, ());
            return LocalLookup::OwnL2(own_state);
        }
        // The line is not in the core's own hierarchy; drop any stale L1 tag.
        self.l1s[core].remove(line);
        if let Some(entry) = self.index.get(&line) {
            if let Some((peer, state)) = entry.local {
                let peer = peer as usize;
                if peer != core {
                    debug_assert_eq!(self.l2s[peer].state_of(line), state);
                    return LocalLookup::Peer { peer, state };
                }
            }
        }
        LocalLookup::Miss
    }

    /// Probes every L2 for a ring snoop (parallel tag lookup in hardware;
    /// here a single residency-index lookup).
    pub fn snoop(&self, line: LineAddr) -> SnoopResult {
        let result = match self.index.get(&line) {
            None => SnoopResult {
                supplier: None,
                any_copy: false,
            },
            Some(entry) => SnoopResult {
                supplier: entry
                    .local
                    .filter(|&(_, s)| s.is_supplier())
                    .map(|(c, s)| (c as usize, s)),
                any_copy: entry.copies > 0,
            },
        };
        debug_assert_eq!(result, self.snoop_scan(line), "residency index drifted");
        result
    }

    /// The scan the hardware's parallel tag probe corresponds to; used to
    /// cross-check the residency index in debug builds (release builds
    /// compile the check and this scan away).
    fn snoop_scan(&self, line: LineAddr) -> SnoopResult {
        let mut supplier = None;
        let mut any_copy = false;
        for (idx, l2) in self.l2s.iter().enumerate() {
            let state = l2.state_of(line);
            if state.is_valid() {
                any_copy = true;
                if state.is_supplier() {
                    debug_assert!(supplier.is_none(), "two suppliers in one CMP for {line}");
                    supplier = Some((idx, state));
                }
            }
        }
        SnoopResult { supplier, any_copy }
    }

    /// Finds the supplier among this CMP's L2s without marking presence
    /// (convenience over [`snoop`](Self::snoop)).
    pub fn supplier_of(&self, line: LineAddr) -> Option<(usize, CoherState)> {
        self.snoop(line).supplier
    }

    /// Every line with at least one valid copy somewhere in this CMP,
    /// sorted so iteration order is deterministic (the residency index is
    /// a hash map). Used by node churn to purge or demote a whole CMP.
    pub fn resident_lines(&self) -> Vec<LineAddr> {
        let mut lines: Vec<LineAddr> = self
            .index
            .iter()
            .filter(|(_, entry)| entry.copies > 0)
            .map(|(&line, _)| line)
            .collect();
        lines.sort_unstable();
        lines
    }

    /// Invalidates `line` everywhere in this CMP (a write snoop hit).
    /// Returns the counts the protocol acts on, so the per-write-snoop hot
    /// path does not allocate.
    pub fn invalidate_all(&mut self, line: LineAddr) -> InvalidateOutcome {
        let mut out = InvalidateOutcome {
            copies: 0,
            had_supplier: false,
            strong_copies: 0,
        };
        if self.index.remove(&line).is_none() {
            // No L2 holds the line, so (inclusive hierarchy) no L1 does
            // either: nothing to do.
            return out;
        }
        for (l1, l2) in self.l1s.iter_mut().zip(&mut self.l2s) {
            l1.remove(line);
            if let Some(state) = l2.invalidate(line) {
                out.copies += 1;
                out.had_supplier |= state.is_supplier();
                if matches!(state, CoherState::E | CoherState::D | CoherState::T) {
                    out.strong_copies += 1;
                }
            }
        }
        out
    }

    /// Fills `line` into `core`'s L2 (and L1) in `state`, returning the L2
    /// victim if one was evicted. The victim's L1 tag is dropped to keep
    /// the hierarchy inclusive.
    pub fn fill(&mut self, core: usize, line: LineAddr, state: CoherState) -> Option<Eviction> {
        self.activate();
        let old = self.l2s[core].state_of(line);
        let victim = self.l2s[core].fill(line, state);
        if let Some(ev) = victim {
            self.l1s[core].remove(ev.line);
            self.index_drop(core, ev.line, ev.state);
        }
        self.l1s[core].insert(line, ());
        self.index_update(core, line, old, state);
        victim
    }

    /// Changes the state of a resident line in `core`'s L2.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident there (see [`L2Cache::set_state`]).
    pub fn set_state(&mut self, core: usize, line: LineAddr, state: CoherState) {
        self.activate();
        let old = self.l2s[core].state_of(line);
        self.l2s[core].set_state(line, state);
        self.index_update(core, line, old, state);
    }

    /// Whether any valid copy of `line` exists in this CMP.
    pub fn has_copy(&self, line: LineAddr) -> bool {
        debug_assert_eq!(
            self.index.contains_key(&line),
            self.l2s.iter().any(|l2| l2.state_of(line).is_valid()),
            "residency index drifted for {line}"
        );
        self.index.contains_key(&line)
    }

    /// Estimated heap footprint of this CMP's cache structures in bytes:
    /// L1 tag filters, L2 arrays, and the residency index. An idle CMP
    /// costs its struct alone.
    pub fn footprint_bytes(&self) -> u64 {
        let l1s: u64 = self.l1s.iter().map(SetAssocCache::footprint_bytes).sum();
        let l2s: u64 = self.l2s.iter().map(L2Cache::footprint_bytes).sum();
        size_of::<Self>() as u64 + l1s + l2s + map_heap_bytes(&self.index)
    }
}

/// Serializes every L1 tag filter and every L2; an idle CMP writes the
/// bytes of empty arrays, and restoring bytes in which no array holds a
/// line leaves the CMP idle. The residency index is not stored: restore
/// rebuilds it from the restored L2 arrays, core by core, through the same
/// update every fill makes. A legal CMP holds at most one
/// locally-supplying copy of a line (Figure 2(b)), so the rebuilt index
/// equals the live one. Only an injected protocol mutation can leave two;
/// the live `local` slot then names the last one written and the rebuilt
/// slot the highest core's.
impl Snapshot for CmpCaches {
    fn save_into(&self, w: &mut SnapWriter) {
        w.put_usize(self.cores);
        if self.is_idle() {
            for geometry in [self.l1_geometry, self.l2_geometry] {
                for _ in 0..self.cores {
                    save_fresh(geometry, w);
                }
            }
            return;
        }
        for l1 in &self.l1s {
            l1.save_into_with(w, |_, _| {});
        }
        for l2 in &self.l2s {
            l2.save_into(w);
        }
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let cores = r.get_usize()?;
        if cores != self.cores {
            return Err(SnapError::Corrupt("CMP core count does not match config"));
        }
        // Empty arrays restore as nothing; the first array that holds a
        // line allocates them all, as the CMP's first fill would.
        (self.l1s, self.l2s, self.index) = Default::default();
        for core in 0..cores {
            if let Some(l1) = SetAssocCache::restore_new(self.l1_geometry, r, |_| Ok(()))? {
                self.activate();
                self.l1s[core] = l1;
            }
        }
        for core in 0..cores {
            if let Some(l2) = L2Cache::restore_new(self.l2_geometry, r)? {
                self.activate();
                self.l2s[core] = l2;
            }
        }
        for core in 0..self.l2s.len() {
            let lines: Vec<_> = self.l2s[core].iter().collect();
            for (line, state) in lines {
                self.index_update(core, line, CoherState::I, state);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use CoherState::*;

    fn cmp() -> CmpCaches {
        CmpCaches::new(
            4,
            CacheGeometry::from_entries(4, 2),
            CacheGeometry::from_entries(16, 4),
        )
    }

    #[test]
    fn the_largest_cmp_indexes_its_last_core() {
        let mut c = CmpCaches::new(
            CmpCaches::MAX_CORES,
            CacheGeometry::from_entries(4, 2),
            CacheGeometry::from_entries(16, 4),
        );
        let last = CmpCaches::MAX_CORES - 1;
        c.fill(last, LineAddr(7), Sl);
        assert_eq!(
            c.local_lookup(1, LineAddr(7)),
            LocalLookup::Peer {
                peer: last,
                state: Sl
            }
        );
        c.fill(last - 1, LineAddr(8), E);
        assert_eq!(c.supplier_of(LineAddr(8)), Some((last - 1, E)));
    }

    #[test]
    #[should_panic(expected = "a CMP holds at most 255 cores, not 256")]
    fn a_cmp_of_more_than_255_cores_is_rejected() {
        CmpCaches::new(
            256,
            CacheGeometry::from_entries(4, 2),
            CacheGeometry::from_entries(16, 4),
        );
    }

    #[test]
    fn miss_everywhere() {
        let mut c = cmp();
        assert_eq!(c.local_lookup(0, LineAddr(1)), LocalLookup::Miss);
        assert_eq!(
            c.snoop(LineAddr(1)),
            SnoopResult {
                supplier: None,
                any_copy: false
            }
        );
    }

    #[test]
    fn own_l2_then_own_l1() {
        let mut c = cmp();
        c.fill(1, LineAddr(5), E);
        // fill() pre-loads the L1 tag, so the first lookup already hits L1.
        assert_eq!(c.local_lookup(1, LineAddr(5)), LocalLookup::OwnL1(E));
        // After an L1-tag eviction the next access reports an L2 hit.
        c.l1s[1].remove(LineAddr(5));
        assert_eq!(c.local_lookup(1, LineAddr(5)), LocalLookup::OwnL2(E));
        assert_eq!(c.local_lookup(1, LineAddr(5)), LocalLookup::OwnL1(E));
    }

    #[test]
    fn peer_supplies_local_master() {
        let mut c = cmp();
        c.fill(2, LineAddr(7), Sl);
        assert_eq!(
            c.local_lookup(0, LineAddr(7)),
            LocalLookup::Peer { peer: 2, state: Sl }
        );
    }

    #[test]
    fn plain_shared_peer_cannot_supply() {
        let mut c = cmp();
        c.fill(2, LineAddr(7), S);
        assert_eq!(c.local_lookup(0, LineAddr(7)), LocalLookup::Miss);
    }

    #[test]
    fn snoop_finds_supplier_and_presence() {
        let mut c = cmp();
        c.fill(0, LineAddr(9), S);
        c.fill(3, LineAddr(9), T);
        let r = c.snoop(LineAddr(9));
        assert_eq!(r.supplier, Some((3, T)));
        assert!(r.any_copy);
    }

    #[test]
    fn snoop_sees_copies_without_supplier() {
        let mut c = cmp();
        c.fill(0, LineAddr(9), S);
        c.fill(1, LineAddr(9), Sl);
        let r = c.snoop(LineAddr(9));
        assert_eq!(r.supplier, None);
        assert!(r.any_copy, "SL is a copy but not a ring supplier");
    }

    #[test]
    fn invalidate_all_clears_cmp() {
        let mut c = cmp();
        c.fill(0, LineAddr(9), S);
        c.fill(1, LineAddr(9), Sl);
        let dropped = c.invalidate_all(LineAddr(9));
        assert_eq!(dropped.copies, 2);
        assert!(!c.has_copy(LineAddr(9)));
        assert_eq!(c.local_lookup(0, LineAddr(9)), LocalLookup::Miss);
    }

    #[test]
    fn fill_eviction_drops_l1_tag() {
        let mut c = cmp();
        // L2 set 0 (4 sets in a 16-entry, 4-way array) holds 4 ways.
        for i in 0..4 {
            c.fill(0, LineAddr(i * 4), S);
        }
        let ev = c.fill(0, LineAddr(16), S).expect("one way must be evicted");
        // The victim's L1 tag must be gone (inclusive hierarchy).
        assert!(c.l1s[0].peek(ev.line).is_none());
    }

    #[test]
    fn snapshot_round_trip_preserves_lookups_and_future_behavior() {
        let mut c = cmp();
        c.fill(0, LineAddr(9), S);
        c.fill(3, LineAddr(9), T);
        c.fill(2, LineAddr(7), Sl);
        c.fill(1, LineAddr(5), D);
        c.invalidate_all(LineAddr(5));

        let bytes = flexsnoop_engine::snap::snapshot_bytes(&c);
        let mut fresh = cmp();
        // Overlay: restoring replaces whatever the fresh CMP held.
        fresh.fill(0, LineAddr(100), E);
        flexsnoop_engine::snap::restore_bytes(&mut fresh, &bytes).unwrap();

        assert_eq!(fresh.snoop(LineAddr(9)), c.snoop(LineAddr(9)));
        assert_eq!(fresh.snoop(LineAddr(5)), c.snoop(LineAddr(5)));
        assert!(!fresh.has_copy(LineAddr(100)));
        assert_eq!(
            fresh.local_lookup(0, LineAddr(7)),
            LocalLookup::Peer { peer: 2, state: Sl }
        );
        // The rebuilt residency index matches the live one: mutating both
        // copies identically keeps them in lock-step (debug builds
        // cross-check the index against a full tag scan on every snoop).
        assert_eq!(
            c.invalidate_all(LineAddr(9)),
            fresh.invalidate_all(LineAddr(9))
        );
        assert_eq!(fresh.snoop(LineAddr(9)), c.snoop(LineAddr(9)));
    }

    #[test]
    fn snapshot_restore_rejects_core_count_mismatch() {
        let c = cmp();
        let bytes = flexsnoop_engine::snap::snapshot_bytes(&c);
        let mut fresh = CmpCaches::new(
            2,
            CacheGeometry::from_entries(4, 2),
            CacheGeometry::from_entries(16, 4),
        );
        let err = flexsnoop_engine::snap::restore_bytes(&mut fresh, &bytes).unwrap_err();
        assert!(matches!(err, SnapError::Corrupt(_)), "{err:?}");
    }

    /// The bytes of a CMP of [`cmp`]'s shape with its arrays allocated.
    fn eager_bytes() -> Vec<u8> {
        let mut eager = cmp();
        eager.activate();
        bytes_of(&eager)
    }

    fn bytes_of(c: &CmpCaches) -> Vec<u8> {
        let mut w = SnapWriter::new();
        c.save_into(&mut w);
        w.into_bytes()
    }

    fn restored(bytes: &[u8]) -> CmpCaches {
        let mut c = cmp();
        c.fill(0, LineAddr(100), E);
        let mut r = SnapReader::new(bytes);
        c.restore_from(&mut r).unwrap();
        r.expect_eof().unwrap();
        c
    }

    #[test]
    fn read_only_calls_leave_an_idle_cmp_unallocated() {
        let mut c = cmp();
        for line in (0..32).map(LineAddr) {
            assert_eq!(
                c.snoop(line),
                SnoopResult {
                    supplier: None,
                    any_copy: false
                }
            );
            assert_eq!(c.supplier_of(line), None);
            assert!(!c.has_copy(line));
            assert_eq!(c.invalidate_all(line).copies, 0);
            for core in 0..4 {
                assert_eq!(c.local_lookup(core, line), LocalLookup::Miss);
                assert_eq!(c.state_of(core, line), I);
                assert_eq!(c.l2_lines(core).count(), 0);
            }
        }
        assert!(c.resident_lines().is_empty());
        assert_eq!(c.l2_set(0).count(), 0);
        assert!(c.is_idle());
        assert_eq!(c.footprint_bytes(), size_of::<CmpCaches>() as u64);
        c.fill(2, LineAddr(1), E);
        assert!(!c.is_idle());
        assert!(c.footprint_bytes() > size_of::<CmpCaches>() as u64);
    }

    #[test]
    fn an_idle_cmp_saves_the_bytes_of_empty_arrays() {
        assert_eq!(bytes_of(&cmp()), eager_bytes());
    }

    #[test]
    fn emptied_arrays_restore_idle_and_a_line_allocates() {
        let idle = restored(&eager_bytes());
        assert!(idle.is_idle());
        assert_eq!(idle.footprint_bytes(), size_of::<CmpCaches>() as u64);
        // Arrays that held lines and lost them all write what empty ones
        // do.
        let mut emptied = cmp();
        emptied.fill(1, LineAddr(3), D);
        emptied.fill(2, LineAddr(7), S);
        emptied.invalidate_all(LineAddr(3));
        emptied.invalidate_all(LineAddr(7));
        assert!(!emptied.is_idle());
        assert_eq!(bytes_of(&emptied), eager_bytes());
        assert!(restored(&bytes_of(&emptied)).is_idle());
        // One line in one L2 allocates every array.
        emptied.fill(3, LineAddr(5), E);
        let bytes = bytes_of(&emptied);
        let one_line = restored(&bytes);
        assert!(!one_line.is_idle());
        assert_eq!(bytes_of(&one_line), bytes);
    }

    #[test]
    fn allocating_at_the_first_fill_matches_eager_arrays() {
        let mut lazy = cmp();
        let mut eager = cmp();
        eager.activate();
        for c in [&mut lazy, &mut eager] {
            assert_eq!(c.local_lookup(1, LineAddr(5)), LocalLookup::Miss);
        }
        assert!(lazy.is_idle(), "a missing lookup allocates nothing");
        assert_eq!(bytes_of(&lazy), bytes_of(&eager));
        for c in [&mut lazy, &mut eager] {
            c.fill(1, LineAddr(5), E);
            c.fill(1, LineAddr(9), S);
            assert_eq!(c.local_lookup(1, LineAddr(5)), LocalLookup::OwnL1(E));
        }
        assert_eq!(bytes_of(&lazy), bytes_of(&eager));
    }
}
