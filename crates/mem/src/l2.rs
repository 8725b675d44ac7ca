//! Per-core private L2 cache with coherence-state tracking.
//!
//! The L2 is the coherence point in the modeled machine (paper Figure 2a):
//! snoops probe L2 tag arrays, and the supplier predictor tracks which lines
//! the CMP's L2s hold in supplier states. Only valid lines are stored;
//! absence means state `I`.

use flexsnoop_engine::snap::{SnapError, SnapReader, SnapWriter, Snapshot};

use crate::addr::LineAddr;
use crate::cache::{CacheGeometry, SetAssocCache};
use crate::state::CoherState;

/// A line evicted from an L2 by a conflicting fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// The evicted line.
    pub line: LineAddr,
    /// Its state at eviction time; `D`/`T` victims must be written back.
    pub state: CoherState,
}

impl Eviction {
    /// Whether this victim must be written back to memory.
    pub fn needs_writeback(&self) -> bool {
        self.state.is_dirty()
    }
}

/// A private L2 cache: a set-associative array of coherence states.
///
/// # Example
///
/// ```
/// use flexsnoop_mem::{CacheGeometry, CoherState, L2Cache, LineAddr};
///
/// let mut l2 = L2Cache::new(CacheGeometry::from_entries(8, 2));
/// l2.fill(LineAddr(3), CoherState::E);
/// assert_eq!(l2.state_of(LineAddr(3)), CoherState::E);
/// assert_eq!(l2.state_of(LineAddr(9)), CoherState::I);
/// ```
#[derive(Debug, Clone)]
pub struct L2Cache {
    array: SetAssocCache<CoherState>,
}

impl L2Cache {
    /// Creates an empty L2 with the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        Self {
            array: SetAssocCache::new(geometry),
        }
    }

    /// The coherence state of `line` (`I` if not cached). Does not disturb
    /// LRU — this is what a snoop probe does.
    pub fn state_of(&self, line: LineAddr) -> CoherState {
        self.array.peek(line).copied().unwrap_or(CoherState::I)
    }

    /// Like [`state_of`](Self::state_of) but refreshes LRU — this is what a
    /// demand access by the owning core does.
    pub fn access(&mut self, line: LineAddr) -> CoherState {
        self.array.get(line).copied().unwrap_or(CoherState::I)
    }

    /// Installs `line` in `state`, returning the victim evicted to make
    /// room, if any.
    ///
    /// # Panics
    ///
    /// Panics if `state` is `I` (fill an invalid line by not filling it).
    pub fn fill(&mut self, line: LineAddr, state: CoherState) -> Option<Eviction> {
        assert!(state.is_valid(), "cannot fill a line in state I");
        self.array
            .insert(line, state)
            .map(|(line, state)| Eviction { line, state })
    }

    /// Changes the state of a resident line.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident or `state` is `I`
    /// (use [`invalidate`](Self::invalidate) to drop a line).
    pub fn set_state(&mut self, line: LineAddr, state: CoherState) {
        assert!(state.is_valid(), "use invalidate() to set state I");
        let slot = self
            .array
            .get_mut(line)
            .unwrap_or_else(|| panic!("set_state on non-resident {line}"));
        *slot = state;
    }

    /// Drops `line`, returning its prior state if it was resident.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<CoherState> {
        self.array.remove(line)
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.array.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.array.is_empty()
    }

    /// Estimated heap footprint in bytes (see
    /// [`SetAssocCache::footprint_bytes`]).
    pub fn footprint_bytes(&self) -> u64 {
        self.array.footprint_bytes()
    }

    /// Iterates over resident `(line, state)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, CoherState)> + '_ {
        self.array.iter().map(|(l, &s)| (l, s))
    }

    /// Iterates over the resident `(line, state)` pairs of one set.
    pub(crate) fn iter_set(&self, set: usize) -> impl Iterator<Item = (LineAddr, CoherState)> + '_ {
        self.array.iter_set(set).map(|(l, &s)| (l, s))
    }

    /// Restores an L2 written by [`Snapshot::save_into`] into a new cache
    /// of `geometry`, or `None` for the bytes of a fresh one.
    pub(crate) fn restore_new(
        geometry: CacheGeometry,
        r: &mut SnapReader<'_>,
    ) -> Result<Option<Self>, SnapError> {
        let array = SetAssocCache::restore_new(geometry, r, decode_state)?;
        Ok(array.map(|array| Self { array }))
    }
}

/// Decodes one stored line's state; a resident line is never `I`.
fn decode_state(r: &mut SnapReader<'_>) -> Result<CoherState, SnapError> {
    let mut s = CoherState::I;
    s.restore_from(r)?;
    if !s.is_valid() {
        return Err(SnapError::Corrupt("L2 snapshot holds a line in state I"));
    }
    Ok(s)
}

/// Serializes the underlying array (each set's lines in recency order,
/// with their coherence states); geometry is reconstructed from
/// configuration per the overlay contract.
impl Snapshot for L2Cache {
    fn save_into(&self, w: &mut SnapWriter) {
        self.array.save_into_with(w, |s, w| s.save_into(w));
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.array.restore_from_with(r, decode_state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use CoherState::*;

    fn l2() -> L2Cache {
        L2Cache::new(CacheGeometry::from_entries(8, 2))
    }

    #[test]
    fn absent_lines_are_invalid() {
        let c = l2();
        assert_eq!(c.state_of(LineAddr(1)), I);
    }

    #[test]
    fn fill_and_transition() {
        let mut c = l2();
        assert!(c.fill(LineAddr(1), E).is_none());
        c.set_state(LineAddr(1), Sg);
        assert_eq!(c.state_of(LineAddr(1)), Sg);
    }

    #[test]
    fn eviction_reports_dirty() {
        let mut c = l2();
        // Set 0 holds lines 0, 4; filling 8 evicts the LRU one.
        c.fill(LineAddr(0), D);
        c.fill(LineAddr(4), S);
        let ev = c.fill(LineAddr(8), E).expect("eviction");
        assert_eq!(
            ev,
            Eviction {
                line: LineAddr(0),
                state: D
            }
        );
        assert!(ev.needs_writeback());
    }

    #[test]
    fn clean_victim_needs_no_writeback() {
        let ev = Eviction {
            line: LineAddr(0),
            state: Sg,
        };
        assert!(!ev.needs_writeback());
    }

    #[test]
    fn invalidate_removes() {
        let mut c = l2();
        c.fill(LineAddr(2), S);
        assert_eq!(c.invalidate(LineAddr(2)), Some(S));
        assert_eq!(c.invalidate(LineAddr(2)), None);
        assert_eq!(c.state_of(LineAddr(2)), I);
    }

    #[test]
    #[should_panic(expected = "state I")]
    fn filling_invalid_panics() {
        l2().fill(LineAddr(0), I);
    }

    #[test]
    #[should_panic(expected = "non-resident")]
    fn set_state_on_absent_line_panics() {
        l2().set_state(LineAddr(0), S);
    }

    #[test]
    fn snapshot_round_trip_preserves_states_and_lru() {
        let mut c = l2();
        c.fill(LineAddr(0), D);
        c.fill(LineAddr(4), S);
        c.access(LineAddr(0)); // make line 0 MRU
        let bytes = flexsnoop_engine::snap::snapshot_bytes(&c);
        let mut fresh = L2Cache::new(CacheGeometry::from_entries(8, 2));
        flexsnoop_engine::snap::restore_bytes(&mut fresh, &bytes).unwrap();
        assert_eq!(fresh.state_of(LineAddr(0)), D);
        assert_eq!(fresh.state_of(LineAddr(4)), S);
        // LRU survives the round trip: the next conflicting fill evicts
        // line 4 in both copies.
        assert_eq!(c.fill(LineAddr(8), E), fresh.fill(LineAddr(8), E));
    }

    #[test]
    fn access_promotes_lru() {
        let mut c = l2();
        c.fill(LineAddr(0), S);
        c.fill(LineAddr(4), S);
        c.access(LineAddr(0)); // line 0 becomes MRU
        let ev = c.fill(LineAddr(8), S).unwrap();
        assert_eq!(ev.line, LineAddr(4));
    }

    #[test]
    fn state_of_does_not_promote() {
        let mut c = l2();
        c.fill(LineAddr(0), S);
        c.fill(LineAddr(4), S);
        c.state_of(LineAddr(0)); // probe only
        let ev = c.fill(LineAddr(8), S).unwrap();
        assert_eq!(ev.line, LineAddr(0), "probe must not refresh LRU");
    }
}
