//! Serially-occupied resource model.
//!
//! Ring links, intra-CMP snoop ports and memory controllers all behave the
//! same way at the fidelity this simulator targets: requests are serviced one
//! at a time in arrival order, each holding the resource for a fixed service
//! time. [`Resource`] captures that pattern: callers ask "if I arrive at
//! cycle T needing S cycles of service, when do I start and finish?" and the
//! resource answers. The only state it keeps is the cycle it is next free;
//! traffic counts belong to the layer that reads them (`RunStats`).

use crate::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use crate::time::{Cycle, Cycles};

/// A FIFO resource that services one request at a time.
///
/// # Example
///
/// ```
/// use flexsnoop_engine::{Cycle, Cycles, Resource};
///
/// let mut link = Resource::new();
/// // Two messages arrive back-to-back at cycle 0, each needing 10 cycles.
/// let first = link.acquire(Cycle::new(0), Cycles(10));
/// let second = link.acquire(Cycle::new(0), Cycles(10));
/// assert_eq!(first.end, Cycle::new(10));
/// assert_eq!(second.start, Cycle::new(10)); // queued behind the first
/// assert_eq!(second.end, Cycle::new(20));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Resource {
    next_free: Cycle,
}

// Every ring link, torus link and port is one of these: a million-node
// ring holds millions, so the struct stays one cycle wide.
const _: () = assert!(size_of::<Resource>() == 8);

/// The time window granted to one request by [`Resource::acquire`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When service actually begins (>= arrival time).
    pub start: Cycle,
    /// When service completes.
    pub end: Cycle,
}

impl Resource {
    /// Creates an idle resource.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves the resource for `service` cycles for a request arriving at
    /// `arrival`. Requests are serviced in the order `acquire` is called.
    pub fn acquire(&mut self, arrival: Cycle, service: Cycles) -> Grant {
        let start = arrival.max(self.next_free);
        let end = start + service;
        self.next_free = end;
        Grant { start, end }
    }
}

impl Snapshot for Resource {
    fn save_into(&self, w: &mut SnapWriter) {
        w.put_cycle(self.next_free);
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.next_free = r.get_cycle()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_services_immediately() {
        let mut r = Resource::new();
        let g = r.acquire(Cycle::new(100), Cycles(7));
        assert_eq!(g.start, Cycle::new(100));
        assert_eq!(g.end, Cycle::new(107));
    }

    #[test]
    fn contention_queues_fifo() {
        let mut r = Resource::new();
        let a = r.acquire(Cycle::new(0), Cycles(10));
        let b = r.acquire(Cycle::new(3), Cycles(10));
        let c = r.acquire(Cycle::new(4), Cycles(10));
        assert_eq!(a.end, Cycle::new(10));
        assert_eq!(b.start, Cycle::new(10));
        assert_eq!(c.start, Cycle::new(20));
    }

    #[test]
    fn snapshot_round_trip_preserves_occupancy() {
        let mut r = Resource::new();
        r.acquire(Cycle::new(0), Cycles(10));
        r.acquire(Cycle::new(3), Cycles(4));
        let bytes = crate::snap::snapshot_bytes(&r);
        let mut fresh = Resource::new();
        crate::snap::restore_bytes(&mut fresh, &bytes).unwrap();
        // The restored resource queues new arrivals identically.
        assert_eq!(
            fresh.acquire(Cycle::new(5), Cycles(2)),
            r.acquire(Cycle::new(5), Cycles(2))
        );
    }

    #[test]
    fn gap_leaves_resource_idle() {
        let mut r = Resource::new();
        r.acquire(Cycle::new(0), Cycles(5));
        let g = r.acquire(Cycle::new(50), Cycles(5));
        assert_eq!(g.start, Cycle::new(50));
        assert_eq!(g.end, Cycle::new(55));
    }
}
