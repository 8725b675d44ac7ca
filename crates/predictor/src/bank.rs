//! Machine-wide predictor banks: one logical predictor per CMP, stored flat.
//!
//! The simulator used to hold `Vec<Box<dyn SupplierPredictor + Send>>` — one
//! heap allocation (plus vtable dispatch) per node. At the 8-node paper
//! configuration that is invisible; at the million-node scale targeted by
//! `bench --scale` the boxes dominate both memory and cache misses. A
//! [`PredictorBank`] keeps the same per-node *semantics* while letting the
//! common cases collapse into flat storage:
//!
//! * [`PredictorBank::Null`] — algorithms that never predict (Lazy, Eager,
//!   Oracle) need no storage at all, regardless of node count.
//! * [`PredictorBank::Subset`] — every node's Subset table lives in one
//!   shared [`SetAssocCache`], with an address transform that gives each
//!   node a disjoint range of sets ([`SubsetBank`]).
//! * [`PredictorBank::Boxed`] — the general fallback (Superset, Exact,
//!   Perfect, fault-injecting wrappers) keeps the original boxed layout.
//!
//! The flat Subset layout is **bit-identical** to per-node tables: each
//! flat set is touched by exactly one node, so LRU victim selection — which
//! only orders the ways *within* a set — orders entries exactly as the
//! per-node table would. The equivalence property test at the bottom of
//! this file pins that down against randomized op streams.

use flexsnoop_engine::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use flexsnoop_mem::{CacheGeometry, LineAddr, SetAssocCache};

use crate::spec::PredictorSpec;
use crate::{PredictorCounters, SupplierPredictor};

/// Every node's Subset predictor in one flat set-associative array.
///
/// A node's table of `S` sets becomes sets `[node * S, (node + 1) * S)` of
/// the shared array via the key transform (`node_bits` sized for the node
/// count rounded up to a power of two)
///
/// ```text
/// key = (line >> set_bits) << (set_bits + node_bits)
///     | node << set_bits
///     | line & (S - 1)
/// ```
///
/// which is injective per node and maps `(node, line)` to flat set
/// `node * S + (line mod S)` — the same set, holding the same tags in the
/// same LRU order, as the node's private table would use.
#[derive(Debug, Clone)]
pub struct SubsetBank {
    table: SetAssocCache<()>,
    node_set_bits: u32,
    node_bits: u32,
    entries_per_node: usize,
    entry_bits: usize,
    counters: Vec<PredictorCounters>,
}

impl SubsetBank {
    /// Creates a bank of `nodes` Subset predictors of `entries` entries
    /// each (8-way, as in the paper's Table 4 configurations). A node count
    /// that is not a power of two is rounded up for the key's node field:
    /// the unused node ranges cost only their set heads, never ways.
    ///
    /// # Panics
    ///
    /// Panics if `entries` does not give an 8-way table with a power-of-two
    /// set count (see [`CacheGeometry::from_entries`]).
    pub fn new(nodes: usize, entries: usize, entry_bits: usize) -> Self {
        let node = CacheGeometry::from_entries(entries, 8);
        let node_slots = nodes.next_power_of_two();
        let geometry = CacheGeometry {
            sets: node.sets * node_slots,
            ways: node.ways,
        };
        Self {
            table: SetAssocCache::new(geometry),
            node_set_bits: node.sets.trailing_zeros(),
            node_bits: node_slots.trailing_zeros(),
            entries_per_node: entries,
            entry_bits,
            counters: vec![PredictorCounters::default(); nodes],
        }
    }

    /// Number of nodes in the bank.
    pub fn nodes(&self) -> usize {
        self.counters.len()
    }

    #[inline]
    fn key(&self, node: usize, line: LineAddr) -> LineAddr {
        let sb = self.node_set_bits;
        // Line addresses must fit in the bits above the (node, set) fields;
        // aliasing there would introduce false positives, which Subset must
        // never produce.
        debug_assert!(
            line.0 >> sb < 1 << (64 - sb - self.node_bits),
            "line address {line} too wide for the flat bank key transform"
        );
        LineAddr(
            ((line.0 >> sb) << (sb + self.node_bits))
                | ((node as u64) << sb)
                | (line.0 & ((1 << sb) - 1)),
        )
    }

    fn predict(&mut self, node: usize, line: LineAddr) -> bool {
        self.counters[node].lookups += 1;
        // Prediction refreshes LRU, exactly as SubsetPredictor::predict.
        self.table.get(self.key(node, line)).is_some()
    }

    fn supplier_gained(&mut self, node: usize, line: LineAddr) {
        self.counters[node].trainings += 1;
        // Conflicts silently drop the victim (a future false negative);
        // Subset never requests downgrades.
        let _victim = self.table.insert(self.key(node, line), ());
    }

    fn supplier_lost(&mut self, node: usize, line: LineAddr) {
        self.counters[node].trainings += 1;
        self.table.remove(self.key(node, line));
    }
}

impl Snapshot for SubsetBank {
    fn save_into(&self, w: &mut SnapWriter) {
        self.table.save_into_with(w, |_, _| {});
        w.put_usize(self.counters.len());
        for c in &self.counters {
            c.save_into(w);
        }
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.table.restore_from_with(r, |_| Ok(()))?;
        let n = r.get_usize()?;
        if n != self.counters.len() {
            return Err(SnapError::Corrupt("bank node count does not match config"));
        }
        for c in &mut self.counters {
            c.restore_from(r)?;
        }
        Ok(())
    }
}

/// A machine's worth of supplier predictors, indexed by node id.
///
/// Built by [`PredictorSpec::build_bank`]; pre-built boxed predictors (e.g.
/// fault-injecting wrappers) are wrapped via [`PredictorBank::Boxed`].
#[derive(Debug)]
pub enum PredictorBank {
    /// No predictor at any node (Lazy, Eager, Oracle): zero storage.
    Null {
        /// Number of nodes the bank answers for.
        nodes: usize,
    },
    /// Flat shared Subset tables (see [`SubsetBank`]).
    Subset(SubsetBank),
    /// One boxed predictor per node — the general fallback.
    Boxed(Vec<Box<dyn SupplierPredictor + Send>>),
}

impl PredictorBank {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        match self {
            PredictorBank::Null { nodes } => *nodes,
            PredictorBank::Subset(bank) => bank.nodes(),
            PredictorBank::Boxed(v) => v.len(),
        }
    }

    /// Whether the bank covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Predicts whether node `node` can supply `line`.
    pub fn predict(&mut self, node: usize, line: LineAddr) -> bool {
        match self {
            PredictorBank::Null { .. } => false,
            PredictorBank::Subset(bank) => bank.predict(node, line),
            PredictorBank::Boxed(v) => v[node].predict(line),
        }
    }

    /// Records that `line` entered a supplier state at `node`; returns a
    /// line the protocol must downgrade (Exact predictors only).
    pub fn supplier_gained(&mut self, node: usize, line: LineAddr) -> Option<LineAddr> {
        match self {
            PredictorBank::Null { .. } => None,
            PredictorBank::Subset(bank) => {
                bank.supplier_gained(node, line);
                None
            }
            PredictorBank::Boxed(v) => v[node].supplier_gained(line),
        }
    }

    /// Records that `line` left supplier state at `node`.
    pub fn supplier_lost(&mut self, node: usize, line: LineAddr) {
        match self {
            PredictorBank::Null { .. } => {}
            PredictorBank::Subset(bank) => bank.supplier_lost(node, line),
            PredictorBank::Boxed(v) => v[node].supplier_lost(line),
        }
    }

    /// Ground-truth feedback after an actual snoop of `node`.
    pub fn feedback(&mut self, node: usize, line: LineAddr, was_supplier: bool) {
        match self {
            // Null and Subset ignore feedback, exactly as their per-node
            // predictors do (only Superset trains its Exclude cache on it).
            PredictorBank::Null { .. } | PredictorBank::Subset(_) => {}
            PredictorBank::Boxed(v) => v[node].feedback(line, was_supplier),
        }
    }

    /// Access/training counters for node `node`.
    pub fn counters(&self, node: usize) -> PredictorCounters {
        match self {
            PredictorBank::Null { .. } => PredictorCounters::default(),
            PredictorBank::Subset(bank) => bank.counters[node],
            PredictorBank::Boxed(v) => v[node].counters(),
        }
    }

    /// Storage occupied by node `node`'s predictor, in bits.
    pub fn storage_bits(&self, node: usize) -> usize {
        match self {
            PredictorBank::Null { .. } => 0,
            PredictorBank::Subset(bank) => bank.entries_per_node * (bank.entry_bits + 1),
            PredictorBank::Boxed(v) => v[node].storage_bits(),
        }
    }

    /// Total predictions deliberately corrupted across all nodes
    /// (fault-injection studies; zero for honest banks).
    pub fn injected_faults_total(&self) -> u64 {
        match self {
            PredictorBank::Null { .. } | PredictorBank::Subset(_) => 0,
            PredictorBank::Boxed(v) => v.iter().map(|p| p.injected_faults()).sum(),
        }
    }

    /// Estimated heap footprint of the whole bank in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        match self {
            PredictorBank::Null { .. } => 0,
            PredictorBank::Subset(bank) => {
                bank.table.footprint_bytes()
                    + (bank.counters.capacity() * size_of::<PredictorCounters>()) as u64
            }
            // Boxed internals are opaque; charge the advertised storage
            // budget plus the box headers.
            PredictorBank::Boxed(v) => v.iter().map(|p| (p.storage_bits() / 8 + 32) as u64).sum(),
        }
    }
}

/// Serializes the bank behind a one-byte layout tag so restoring onto a
/// bank built from a different spec (or node count) fails loudly instead
/// of silently misreading the stream.
impl Snapshot for PredictorBank {
    fn save_into(&self, w: &mut SnapWriter) {
        match self {
            PredictorBank::Null { nodes } => {
                w.put_u8(0);
                w.put_usize(*nodes);
            }
            PredictorBank::Subset(bank) => {
                w.put_u8(1);
                bank.save_into(w);
            }
            PredictorBank::Boxed(v) => {
                w.put_u8(2);
                w.put_usize(v.len());
                for p in v {
                    p.save_into(w);
                }
            }
        }
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let tag = r.get_u8()?;
        match (self, tag) {
            (PredictorBank::Null { nodes }, 0) => {
                if r.get_usize()? != *nodes {
                    return Err(SnapError::Corrupt("bank node count does not match config"));
                }
                Ok(())
            }
            (PredictorBank::Subset(bank), 1) => bank.restore_from(r),
            (PredictorBank::Boxed(v), 2) => {
                if r.get_usize()? != v.len() {
                    return Err(SnapError::Corrupt("bank node count does not match config"));
                }
                for p in v {
                    p.restore_from(r)?;
                }
                Ok(())
            }
            _ => Err(SnapError::Corrupt(
                "predictor bank layout does not match config",
            )),
        }
    }
}

impl PredictorSpec {
    /// Builds predictors for all `nodes` CMPs at once, picking the most
    /// compact layout that preserves per-node semantics exactly.
    ///
    /// `None` becomes storage-free; `Subset` flattens into one shared table
    /// at any node count; everything else falls back to one boxed
    /// predictor per node, identical to calling [`PredictorSpec::build`]
    /// `nodes` times.
    pub fn build_bank(&self, nodes: usize) -> PredictorBank {
        match *self {
            PredictorSpec::None => PredictorBank::Null { nodes },
            PredictorSpec::Subset { entries } => {
                PredictorBank::Subset(SubsetBank::new(nodes, entries, Self::entry_bits(entries)))
            }
            _ => PredictorBank::Boxed((0..nodes).map(|_| self.build()).collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SubsetPredictor;
    use flexsnoop_engine::SplitMix64;

    #[test]
    fn null_bank_is_inert_and_free() {
        let mut bank = PredictorSpec::None.build_bank(1024);
        assert_eq!(bank.len(), 1024);
        assert!(!bank.predict(7, LineAddr(1)));
        assert_eq!(bank.supplier_gained(7, LineAddr(1)), None);
        bank.supplier_lost(7, LineAddr(1));
        bank.feedback(7, LineAddr(1), true);
        assert_eq!(bank.counters(7), PredictorCounters::default());
        assert_eq!(bank.storage_bits(7), 0);
        assert_eq!(bank.footprint_bytes(), 0);
    }

    #[test]
    fn subset_spec_flattens_and_matches_paper_storage() {
        let bank = PredictorSpec::SUB2K.build_bank(8);
        assert!(matches!(bank, PredictorBank::Subset(_)));
        let per_node = SubsetPredictor::sub2k().storage_bits();
        assert_eq!(bank.storage_bits(3), per_node);
    }

    #[test]
    fn non_power_of_two_nodes_flatten_too() {
        let bank = PredictorSpec::SUB2K.build_bank(6);
        assert!(matches!(bank, PredictorBank::Subset(_)));
        assert_eq!(bank.len(), 6);
        assert_eq!(
            bank.storage_bits(5),
            SubsetPredictor::sub2k().storage_bits()
        );
    }

    #[test]
    fn superset_spec_stays_boxed() {
        let bank = PredictorSpec::SUP_Y2K.build_bank(8);
        assert!(matches!(bank, PredictorBank::Boxed(_)));
    }

    /// The flat Subset bank must be observationally identical to one
    /// private SubsetPredictor per node under any interleaving of
    /// operations: same predictions, same counters. Run at a power-of-two
    /// node count and at one the bank pads.
    #[test]
    fn flat_subset_bank_matches_private_tables() {
        for nodes in [8, 6] {
            flat_subset_bank_matches_private_tables_at(nodes);
        }
    }

    fn flat_subset_bank_matches_private_tables_at(nodes: usize) {
        const ENTRIES: usize = 16; // 2 sets x 8 ways per node: tiny, conflict-heavy
        let spec = PredictorSpec::Subset { entries: ENTRIES };
        let mut bank = spec.build_bank(nodes);
        assert!(matches!(bank, PredictorBank::Subset(_)));
        let mut private: Vec<SubsetPredictor> = (0..nodes)
            .map(|_| SubsetPredictor::new(CacheGeometry::from_entries(ENTRIES, 8), 18))
            .collect();

        let mut rng = SplitMix64::new(0xBA4C);
        for _ in 0..20_000 {
            let node = (rng.next_u64() % nodes as u64) as usize;
            // A small, clashing line pool plus some sparse high addresses.
            let line = match rng.next_u64() % 4 {
                0..=2 => LineAddr(rng.next_u64() % 48),
                _ => LineAddr((rng.next_u64() % 48) << 34),
            };
            match rng.next_u64() % 3 {
                0 => {
                    let flat = bank.predict(node, line);
                    let boxed = private[node].predict(line);
                    assert_eq!(flat, boxed, "prediction diverged at {node}/{line}");
                }
                1 => {
                    assert_eq!(
                        bank.supplier_gained(node, line),
                        private[node].supplier_gained(line)
                    );
                }
                _ => {
                    bank.supplier_lost(node, line);
                    private[node].supplier_lost(line);
                }
            }
        }
        for (node, boxed) in private.iter().enumerate() {
            assert_eq!(
                bank.counters(node),
                boxed.counters(),
                "counters diverged at node {node}"
            );
        }
    }

    /// Snapshot/restore of a flat Subset bank must be invisible to future
    /// behavior: restored and original banks answer identically forever.
    #[test]
    fn flat_subset_bank_snapshot_round_trip() {
        use flexsnoop_engine::snap::{restore_bytes, snapshot_bytes};
        const NODES: usize = 4;
        let spec = PredictorSpec::Subset { entries: 16 };
        let mut bank = spec.build_bank(NODES);
        let mut rng = SplitMix64::new(0x5A9);
        let drive = |bank: &mut PredictorBank, rng: &mut SplitMix64, n: usize| {
            (0..n)
                .map(|_| {
                    let node = (rng.next_u64() % NODES as u64) as usize;
                    let line = LineAddr(rng.next_u64() % 64);
                    match rng.next_u64() % 3 {
                        0 => bank.predict(node, line),
                        1 => bank.supplier_gained(node, line).is_some(),
                        _ => {
                            bank.supplier_lost(node, line);
                            false
                        }
                    }
                })
                .collect::<Vec<bool>>()
        };
        drive(&mut bank, &mut rng, 5_000);

        let bytes = snapshot_bytes(&bank);
        let mut restored = spec.build_bank(NODES);
        restore_bytes(&mut restored, &bytes).expect("restore");

        let mut rng_a = SplitMix64::new(0xFEED);
        let mut rng_b = SplitMix64::new(0xFEED);
        assert_eq!(
            drive(&mut bank, &mut rng_a, 5_000),
            drive(&mut restored, &mut rng_b, 5_000),
            "restored bank diverged from the original"
        );
        for node in 0..NODES {
            assert_eq!(bank.counters(node), restored.counters(node));
        }
    }

    /// Boxed predictors round-trip through the trait-object forwarding
    /// impl — including Superset's Bloom counters and Exclude cache.
    #[test]
    fn boxed_superset_bank_snapshot_round_trip() {
        use flexsnoop_engine::snap::{restore_bytes, snapshot_bytes};
        let spec = PredictorSpec::SUP_Y2K;
        let mut bank = spec.build_bank(2);
        let mut rng = SplitMix64::new(0xC0DE);
        // Superset's Bloom filter forbids losing a line that was never
        // gained, so track the gained multiset per node.
        let mut gained: [Vec<LineAddr>; 2] = [Vec::new(), Vec::new()];
        for _ in 0..4_000 {
            let node = (rng.next_u64() & 1) as usize;
            let line = LineAddr(rng.next_u64() % 512);
            match rng.next_u64() % 4 {
                0 => {
                    bank.predict(node, line);
                }
                1 => {
                    bank.supplier_gained(node, line);
                    gained[node].push(line);
                }
                2 => {
                    if let Some(l) = gained[node].pop() {
                        bank.supplier_lost(node, l);
                    }
                }
                // Trains the Exclude cache on false positives.
                _ => bank.feedback(node, line, rng.next_u64() & 1 == 0),
            }
        }

        let bytes = snapshot_bytes(&bank);
        let mut restored = spec.build_bank(2);
        restore_bytes(&mut restored, &bytes).expect("restore");

        for i in 0..2_000u64 {
            let node = (i & 1) as usize;
            let line = LineAddr(i % 512);
            assert_eq!(
                bank.predict(node, line),
                restored.predict(node, line),
                "prediction diverged after restore at {node}/{line}"
            );
        }
        assert_eq!(bank.counters(0), restored.counters(0));
        assert_eq!(bank.counters(1), restored.counters(1));
    }

    #[test]
    fn snapshot_restore_rejects_layout_mismatch() {
        use flexsnoop_engine::snap::{restore_bytes, snapshot_bytes};
        let bank = PredictorSpec::SUB2K.build_bank(8);
        let bytes = snapshot_bytes(&bank);
        let mut wrong_layout = PredictorSpec::None.build_bank(8);
        assert!(matches!(
            restore_bytes(&mut wrong_layout, &bytes),
            Err(SnapError::Corrupt(
                "predictor bank layout does not match config"
            ))
        ));
        let mut wrong_nodes = PredictorSpec::None.build_bank(8);
        let none_bytes = snapshot_bytes(&PredictorSpec::None.build_bank(4));
        assert!(matches!(
            restore_bytes(&mut wrong_nodes, &none_bytes),
            Err(SnapError::Corrupt("bank node count does not match config"))
        ));
    }

    #[test]
    fn boxed_bank_forwards_everything() {
        let mut bank = PredictorBank::Boxed(vec![
            PredictorSpec::SUB512.build(),
            PredictorSpec::SUB512.build(),
        ]);
        bank.supplier_gained(0, LineAddr(5));
        assert!(bank.predict(0, LineAddr(5)));
        assert!(!bank.predict(1, LineAddr(5)), "nodes stay independent");
        assert_eq!(bank.counters(0).trainings, 1);
        assert_eq!(bank.counters(1).lookups, 1);
        assert!(bank.injected_faults_total() == 0);
    }
}
