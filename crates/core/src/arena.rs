//! A generational slab arena for in-flight transactions.
//!
//! The simulator touches its transaction table on nearly every event, and
//! the set of *live* transactions is small (bounded by cores × outstanding
//! misses) even though billions of ids are issued over a run. A
//! `HashMap<TxnId, Txn>` pays a hash + probe on every access and
//! reallocates buckets as the map churns; this slab instead indexes a
//! `Vec` directly with the slot packed into the [`TxnId`] (low 32 bits)
//! and recycles slots through a LIFO free list, so lookups are one bounds
//! check plus one generation compare.
//!
//! Generations make recycled slots safe: removing a transaction bumps the
//! slot's generation, so a stale id (same slot, older generation) can
//! never alias the transaction that later reuses the slot —
//! [`TxnArena::get`] simply returns `None` for it, exactly like a
//! `HashMap` lookup for a removed key.

use flexsnoop_engine::snap::{SnapError, SnapReader, SnapWriter};

use crate::message::TxnId;

/// One arena slot: its current generation plus the value, if occupied.
#[derive(Debug, Clone)]
struct Slot<T> {
    generation: u32,
    value: Option<T>,
}

/// A generational slab keyed by [`TxnId`].
///
/// Ids are issued by [`insert`](Self::insert) in a deterministic order
/// (the free list is LIFO, so replaying the same insert/remove sequence
/// yields the same ids — required for bit-identical simulations).
#[derive(Debug, Clone, Default)]
pub struct TxnArena<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    live: usize,
}

impl<T> TxnArena<T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        TxnArena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Number of live (inserted, not yet removed) entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no entries are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates over the live entries in slot order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(|slot| slot.value.as_ref())
    }

    /// Inserts `value`, returning the id that now refers to it.
    ///
    /// Reuses the most recently freed slot if one exists (LIFO), keeping
    /// the slab as dense as the peak live population.
    ///
    /// # Panics
    ///
    /// Panics if the arena would exceed `u32::MAX` slots.
    #[inline]
    pub fn insert(&mut self, value: T) -> TxnId {
        self.live += 1;
        if let Some(slot) = self.free.pop() {
            let entry = &mut self.slots[slot as usize];
            debug_assert!(entry.value.is_none(), "free list pointed at a live slot");
            entry.value = Some(value);
            TxnId::from_parts(slot, entry.generation)
        } else {
            let slot = u32::try_from(self.slots.len()).expect("txn arena overflow");
            self.slots.push(Slot {
                generation: 0,
                value: Some(value),
            });
            TxnId::from_parts(slot, 0)
        }
    }

    /// Looks up a live entry; `None` if the id was removed (or never
    /// issued by this arena).
    #[inline]
    pub fn get(&self, id: TxnId) -> Option<&T> {
        let entry = self.slots.get(id.slot() as usize)?;
        if entry.generation != id.generation() {
            return None;
        }
        entry.value.as_ref()
    }

    /// Mutable lookup; `None` if the id was removed.
    #[inline]
    pub fn get_mut(&mut self, id: TxnId) -> Option<&mut T> {
        let entry = self.slots.get_mut(id.slot() as usize)?;
        if entry.generation != id.generation() {
            return None;
        }
        entry.value.as_mut()
    }

    /// Removes and returns the entry, freeing its slot for reuse.
    ///
    /// Removing an already-removed id is a no-op returning `None`, so
    /// idempotent cleanup paths need no extra liveness check.
    #[inline]
    pub fn remove(&mut self, id: TxnId) -> Option<T> {
        let entry = self.slots.get_mut(id.slot() as usize)?;
        if entry.generation != id.generation() {
            return None;
        }
        let value = entry.value.take()?;
        // Bump the generation so any stale copy of this id stops resolving.
        entry.generation = entry.generation.wrapping_add(1);
        self.free.push(id.slot());
        self.live -= 1;
        Some(value)
    }

    /// Serializes the whole slab — every slot's generation, each live
    /// value through `enc`, and the free list *in order* — so a restored
    /// arena issues future ids in exactly the sequence the original would
    /// have (the LIFO free list is part of observable behavior).
    pub fn save_into_with(&self, w: &mut SnapWriter, mut enc: impl FnMut(&T, &mut SnapWriter)) {
        w.put_usize(self.slots.len());
        for slot in &self.slots {
            w.put_u32(slot.generation);
            w.put_bool(slot.value.is_some());
            if let Some(v) = &slot.value {
                enc(v, w);
            }
        }
        w.put_usize(self.free.len());
        for &f in &self.free {
            w.put_u32(f);
        }
    }

    /// Restores a slab serialized by
    /// [`save_into_with`](Self::save_into_with), decoding each live value
    /// through `dec`. Replaces this arena's entire contents.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] if the stream is malformed or the free list
    /// is inconsistent with the slots (a free entry pointing at a live or
    /// out-of-range slot).
    pub fn restore_from_with(
        &mut self,
        r: &mut SnapReader<'_>,
        mut dec: impl FnMut(&mut SnapReader<'_>) -> Result<T, SnapError>,
    ) -> Result<(), SnapError> {
        // A slot encodes as a generation (4 bytes) plus a liveness flag.
        let n_slots = r.get_len(5)?;
        let mut slots = Vec::with_capacity(n_slots);
        let mut live = 0;
        for _ in 0..n_slots {
            let generation = r.get_u32()?;
            let value = if r.get_bool()? {
                live += 1;
                Some(dec(r)?)
            } else {
                None
            };
            slots.push(Slot { generation, value });
        }
        let n_free = r.get_len(4)?;
        if n_free != n_slots - live {
            return Err(SnapError::Corrupt("free-list length disagrees with slots"));
        }
        let mut free = Vec::with_capacity(n_free);
        for _ in 0..n_free {
            let f = r.get_u32()?;
            match slots.get(f as usize) {
                Some(slot) if slot.value.is_none() => free.push(f),
                _ => return Err(SnapError::Corrupt("free list points at a live slot")),
            }
        }
        self.slots = slots;
        self.free = free;
        self.live = live;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_get() {
        let mut a = TxnArena::new();
        let id = a.insert("hello");
        assert_eq!(a.get(id), Some(&"hello"));
        assert_eq!(a.len(), 1);
        assert_eq!(id.slot(), 0);
        assert_eq!(id.generation(), 0);
    }

    #[test]
    fn remove_frees_and_stale_id_misses() {
        let mut a = TxnArena::new();
        let id = a.insert(7u32);
        assert_eq!(a.remove(id), Some(7));
        assert!(a.is_empty());
        // The stale id must not see whatever reuses the slot.
        let id2 = a.insert(8u32);
        assert_eq!(id2.slot(), id.slot(), "LIFO free list reuses the slot");
        assert_ne!(id2, id, "generation differs");
        assert_eq!(a.get(id), None);
        assert_eq!(a.get_mut(id), None);
        assert_eq!(a.remove(id), None, "double remove is a no-op");
        assert_eq!(a.get(id2), Some(&8));
    }

    #[test]
    fn lifo_reuse_is_deterministic() {
        let mut a = TxnArena::new();
        let ids: Vec<TxnId> = (0..4).map(|i| a.insert(i)).collect();
        a.remove(ids[1]);
        a.remove(ids[3]);
        // LIFO: slot 3 comes back first, then slot 1, then fresh slot 4.
        assert_eq!(a.insert(10).slot(), 3);
        assert_eq!(a.insert(11).slot(), 1);
        assert_eq!(a.insert(12).slot(), 4);
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn get_mut_edits_in_place() {
        let mut a = TxnArena::new();
        let id = a.insert(vec![1, 2]);
        a.get_mut(id).unwrap().push(3);
        assert_eq!(a.get(id), Some(&vec![1, 2, 3]));
    }

    #[test]
    fn unknown_slot_is_none() {
        let a: TxnArena<u8> = TxnArena::new();
        assert_eq!(a.get(TxnId::from_parts(5, 0)), None);
    }

    #[test]
    fn snapshot_round_trip_preserves_future_id_sequence() {
        let mut a = TxnArena::new();
        let ids: Vec<TxnId> = (0..5).map(|i| a.insert(i)).collect();
        a.remove(ids[0]);
        a.remove(ids[2]);
        a.remove(ids[4]);

        let mut w = SnapWriter::new();
        a.save_into_with(&mut w, |v, w| w.put_u32(*v));
        let bytes = w.into_bytes();
        let mut b: TxnArena<u32> = TxnArena::new();
        let mut r = SnapReader::new(&bytes);
        b.restore_from_with(&mut r, |r| r.get_u32())
            .expect("restore");
        r.expect_eof().expect("clean end");

        assert_eq!(b.len(), a.len());
        assert_eq!(b.get(ids[1]), Some(&1));
        assert_eq!(b.get(ids[0]), None, "stale id stays stale");
        // Future ids must come out in the same order from both arenas.
        for _ in 0..6 {
            assert_eq!(a.insert(9), b.insert(9));
        }
    }

    #[test]
    fn snapshot_restore_rejects_corrupt_free_list() {
        let mut a = TxnArena::new();
        let id = a.insert(1u32);
        let mut w = SnapWriter::new();
        a.save_into_with(&mut w, |v, w| w.put_u32(*v));
        // Hand-craft a stream whose free list points at the live slot 0.
        let mut w2 = SnapWriter::new();
        w2.put_usize(1);
        w2.put_u32(id.generation());
        w2.put_bool(true);
        w2.put_u32(1);
        w2.put_usize(1); // free list of length 1 — but the only slot is live
        w2.put_u32(0);
        let bytes = w2.into_bytes();
        let mut b: TxnArena<u32> = TxnArena::new();
        let mut r = SnapReader::new(&bytes);
        assert!(b.restore_from_with(&mut r, |r| r.get_u32()).is_err());
    }

    #[test]
    fn snapshot_restore_rejects_oversized_slot_count() {
        let mut w = SnapWriter::new();
        w.put_usize(1 << 40);
        w.put_u32(0);
        let bytes = w.into_bytes();
        let mut b: TxnArena<u32> = TxnArena::new();
        let err = b
            .restore_from_with(&mut SnapReader::new(&bytes), |r| r.get_u32())
            .unwrap_err();
        assert!(matches!(err, SnapError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn id_round_trips_parts() {
        let id = TxnId::from_parts(0xdead_beef, 0x1234_5678);
        assert_eq!(id.slot(), 0xdead_beef);
        assert_eq!(id.generation(), 0x1234_5678);
    }
}
