//! Per-transaction event timelines.
//!
//! [`Timeline`] is a [`Probe`] sink: it records the life of each ring
//! transaction — issue, every gateway arrival, snoop start/finish, message
//! forwarding, data transfer, memory access, faults and retries,
//! completion — with cycle timestamps, as the simulator reports them
//! through [`Probe::txn_event`]. This is the observability layer for
//! debugging protocol behaviour and for producing the kind of per-request
//! walkthroughs in the paper's Figure 3.
//!
//! [`crate::Simulator::enable_timeline`] installs one as the run's probe;
//! [`crate::Simulator::timeline`] reads it back.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use flexsnoop_engine::Cycle;
use flexsnoop_mem::CmpId;

use crate::message::TxnId;
use crate::probe::Probe;

/// One event in a transaction's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnEvent {
    /// The requesting core issued the access (read or write miss).
    Issued {
        /// The requester node.
        node: CmpId,
    },
    /// A ring message for this transaction arrived at a gateway.
    Arrived {
        /// The node whose gateway received it.
        node: CmpId,
        /// A short label of the message kind (`"Req"`, `"Rep"`, `"R/R"`).
        kind: &'static str,
    },
    /// The gateway consulted its supplier predictor.
    Predicted {
        /// The predicting node.
        node: CmpId,
        /// The prediction.
        positive: bool,
    },
    /// A CMP snoop operation started.
    SnoopStarted {
        /// The snooping node.
        node: CmpId,
    },
    /// A CMP snoop completed.
    SnoopFinished {
        /// The snooped node.
        node: CmpId,
        /// Whether this CMP supplied the line.
        supplier: bool,
    },
    /// A ring message left a gateway toward the next node.
    Forwarded {
        /// The sending node.
        node: CmpId,
        /// Message kind label.
        kind: &'static str,
    },
    /// The line data left a supplier toward the requester.
    DataSent {
        /// The supplying node.
        node: CmpId,
    },
    /// The line data reached the requester.
    DataArrived,
    /// A memory access for this transaction started at the home node.
    MemoryStarted {
        /// The home node.
        home: CmpId,
        /// Whether this was the speculative gateway prefetch.
        prefetch: bool,
    },
    /// The requesting core resumed.
    Completed,
    /// The transaction retired (ring message returned, line released).
    Retired,
    /// A ring message for this transaction was dropped by the fault plan.
    Dropped {
        /// The node whose outgoing link lost the message.
        node: CmpId,
    },
    /// The requester's timeout fired with the ring phase unresolved.
    TimedOut {
        /// The attempt that timed out (0 = original issue).
        attempt: u32,
    },
    /// The transaction was re-issued on the ring after a timeout.
    Retried {
        /// The new attempt number (1 = first retry).
        attempt: u32,
    },
    /// A local-scope circulation (hierarchical topologies) missed in-ring
    /// and was escalated to a full global circulation.
    Escalated,
}

impl std::fmt::Display for TxnEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnEvent::Issued { node } => write!(f, "issued at {node}"),
            TxnEvent::Arrived { node, kind } => write!(f, "{kind} arrives at {node}"),
            TxnEvent::Predicted { node, positive } => {
                write!(
                    f,
                    "{node} predicts {}",
                    if *positive { "supplier" } else { "no supplier" }
                )
            }
            TxnEvent::SnoopStarted { node } => write!(f, "snoop starts at {node}"),
            TxnEvent::SnoopFinished { node, supplier } => {
                write!(
                    f,
                    "snoop at {node}: {}",
                    if *supplier { "SUPPLIER" } else { "miss" }
                )
            }
            TxnEvent::Forwarded { node, kind } => write!(f, "{kind} leaves {node}"),
            TxnEvent::DataSent { node } => write!(f, "data sent from {node}"),
            TxnEvent::DataArrived => write!(f, "data at requester"),
            TxnEvent::MemoryStarted { home, prefetch } => {
                write!(
                    f,
                    "memory {} at {home}",
                    if *prefetch { "prefetch" } else { "access" }
                )
            }
            TxnEvent::Completed => write!(f, "core resumes"),
            TxnEvent::Retired => write!(f, "retired"),
            TxnEvent::Dropped { node } => write!(f, "message DROPPED leaving {node}"),
            TxnEvent::TimedOut { attempt } => write!(f, "timeout (attempt {attempt})"),
            TxnEvent::Retried { attempt } => write!(f, "retry: attempt {attempt} issued"),
            TxnEvent::Escalated => write!(f, "local miss: escalated to global"),
        }
    }
}

/// A bounded recorder of per-transaction events.
#[derive(Debug, Clone)]
pub struct Timeline {
    limit: usize,
    events: BTreeMap<TxnId, Vec<(Cycle, TxnEvent)>>,
}

impl Timeline {
    /// A recorder keeping events for the first `limit` transactions.
    pub fn with_limit(limit: usize) -> Self {
        Timeline {
            limit,
            events: BTreeMap::new(),
        }
    }

    /// Transactions captured, in id order.
    pub fn transactions(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.events.keys().copied()
    }

    /// The events of one transaction, in record order.
    pub fn events(&self, txn: TxnId) -> &[(Cycle, TxnEvent)] {
        self.events.get(&txn).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Renders one transaction as a human-readable walkthrough with
    /// relative timestamps.
    pub fn render(&self, txn: TxnId) -> String {
        let events = self.events(txn);
        let mut out = format!("{txn}:\n");
        let start = events.first().map(|(t, _)| *t).unwrap_or(Cycle::ZERO);
        for (t, ev) in events {
            let _ = writeln!(out, "  +{:>5}  {ev}", t.since(start).as_u64());
        }
        out
    }
}

impl Probe for Timeline {
    /// Records one event (no-op for a transaction past the limit).
    fn txn_event(&mut self, txn: TxnId, at: Cycle, event: TxnEvent) {
        if !self.events.contains_key(&txn) && self.events.len() >= self.limit {
            return;
        }
        self.events.entry(txn).or_default().push((at, event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_with_limit() {
        let mut t = Timeline::with_limit(2);
        t.txn_event(TxnId(0), Cycle::new(1), TxnEvent::Issued { node: CmpId(0) });
        t.txn_event(TxnId(1), Cycle::new(2), TxnEvent::Issued { node: CmpId(1) });
        t.txn_event(TxnId(2), Cycle::new(3), TxnEvent::Issued { node: CmpId(2) });
        t.txn_event(TxnId(0), Cycle::new(9), TxnEvent::Completed);
        assert_eq!(t.transactions().count(), 2, "third txn dropped");
        assert_eq!(t.events(TxnId(0)).len(), 2);
        assert_eq!(t.events(TxnId(2)).len(), 0);
    }

    #[test]
    fn render_uses_relative_times() {
        let mut t = Timeline::with_limit(1);
        t.txn_event(
            TxnId(7),
            Cycle::new(100),
            TxnEvent::Issued { node: CmpId(3) },
        );
        t.txn_event(TxnId(7), Cycle::new(143), TxnEvent::DataArrived);
        let text = t.render(TxnId(7));
        assert!(text.contains("txn7"), "{text}");
        assert!(text.contains("+    0"), "{text}");
        assert!(text.contains("+   43"), "{text}");
        assert!(text.contains("data at requester"), "{text}");
    }

    #[test]
    fn event_display_is_informative() {
        let samples = [
            TxnEvent::Predicted {
                node: CmpId(2),
                positive: true,
            },
            TxnEvent::SnoopFinished {
                node: CmpId(5),
                supplier: true,
            },
            TxnEvent::MemoryStarted {
                home: CmpId(1),
                prefetch: true,
            },
        ];
        let texts: Vec<String> = samples.iter().map(|e| e.to_string()).collect();
        assert_eq!(texts[0], "cmp2 predicts supplier");
        assert_eq!(texts[1], "snoop at cmp5: SUPPLIER");
        assert_eq!(texts[2], "memory prefetch at cmp1");
    }
}
