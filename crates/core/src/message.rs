//! Ring message representation.
//!
//! A snoop transaction travels the ring as at most two messages at a time:
//! a *request carrier* ([`MsgKind::Request`] or [`MsgKind::Combined`]) and,
//! when split, a trailing *reply* ([`MsgKind::Reply`]). Table 2's
//! primitives split, merge and recombine these; the reply accumulator
//! ([`ReplyInfo`]) rides inside `Reply` and `Combined` messages.

use flexsnoop_engine::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use flexsnoop_mem::{CmpId, LineAddr};

/// Unique transaction identifier.
///
/// Packs an arena slot (low 32 bits) and a generation counter (high
/// 32 bits) so the in-flight transaction table can be a slab indexed by
/// slot while stale ids from a recycled slot can never alias a newer
/// transaction (see [`crate::arena::TxnArena`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

impl TxnId {
    /// Builds an id from an arena slot index and that slot's generation.
    #[inline]
    pub fn from_parts(slot: u32, generation: u32) -> Self {
        TxnId(((generation as u64) << 32) | slot as u64)
    }

    /// The arena slot this id refers to.
    #[inline]
    pub fn slot(self) -> u32 {
        self.0 as u32
    }

    /// The generation the slot had when this id was issued.
    #[inline]
    pub fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

impl std::fmt::Display for TxnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // First-generation ids print as plain "txnN"; recycled slots add a
        // generation suffix so every live id renders uniquely in traces.
        if self.generation() == 0 {
            write!(f, "txn{}", self.slot())
        } else {
            write!(f, "txn{}g{}", self.slot(), self.generation())
        }
    }
}

impl Snapshot for TxnId {
    fn save_into(&self, w: &mut SnapWriter) {
        w.put_u64(self.0);
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.0 = r.get_u64()?;
        Ok(())
    }
}

/// Read or write transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOp {
    /// A read snoop transaction (miss looking for a supplier).
    Read,
    /// A write snoop transaction (invalidation; may also collect data).
    Write,
}

/// The accumulated outcome a reply carries around the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyInfo {
    /// A supplier was found; data is on its way to the requester.
    pub found: bool,
    /// Every node visited so far actually snooped (false once any node
    /// filtered). Needed to prove exclusivity for `E` fills.
    pub all_snooped: bool,
    /// Some node held a valid (even non-supplier) copy.
    pub any_copy: bool,
}

impl ReplyInfo {
    /// The accumulator's initial value at the requester.
    pub fn start() -> Self {
        ReplyInfo {
            found: false,
            all_snooped: true,
            any_copy: false,
        }
    }

    /// Folds one node's snoop outcome into the accumulator.
    pub fn merge_snoop(&mut self, found_here: bool, any_copy_here: bool) {
        self.found |= found_here;
        self.any_copy |= any_copy_here;
    }

    /// Marks that a node was skipped without snooping.
    pub fn mark_filtered(&mut self) {
        self.all_snooped = false;
    }

    /// Whether a memory fill may install `E`: no supplier, every node
    /// snooped, no copy anywhere.
    pub fn proves_exclusive(&self) -> bool {
        !self.found && self.all_snooped && !self.any_copy
    }
}

impl Snapshot for TxnOp {
    fn save_into(&self, w: &mut SnapWriter) {
        w.put_u8(match self {
            TxnOp::Read => 0,
            TxnOp::Write => 1,
        });
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = match r.get_u8()? {
            0 => TxnOp::Read,
            1 => TxnOp::Write,
            _ => return Err(SnapError::Corrupt("transaction-op tag out of range")),
        };
        Ok(())
    }
}

impl Snapshot for ReplyInfo {
    fn save_into(&self, w: &mut SnapWriter) {
        w.put_bool(self.found);
        w.put_bool(self.all_snooped);
        w.put_bool(self.any_copy);
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.found = r.get_bool()?;
        self.all_snooped = r.get_bool()?;
        self.any_copy = r.get_bool()?;
        Ok(())
    }
}

/// What a ring message is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgKind {
    /// A bare snoop request running ahead of its reply.
    Request,
    /// A trailing snoop reply with the accumulator.
    Reply(ReplyInfo),
    /// A combined request/reply (Table 2's "Combined R/R").
    Combined(ReplyInfo),
}

impl MsgKind {
    /// The accumulator, if this message carries one.
    pub fn info(&self) -> Option<ReplyInfo> {
        match self {
            MsgKind::Request => None,
            MsgKind::Reply(i) | MsgKind::Combined(i) => Some(*i),
        }
    }
}

/// How far a snoop circulation is allowed to travel on a hierarchical
/// topology. Flat rings always run [`SnoopScope::Global`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnoopScope {
    /// The circulation stays inside the requester's local ring; a
    /// negative outcome escalates to a fresh global circulation instead
    /// of going to memory (the locality predictor was wrong).
    Local,
    /// The circulation visits every node in the machine: all local rings,
    /// stitched together through the global bridge ring. This is the
    /// scope that preserves the paper's eventually-visits-every-supplier
    /// guarantee; a negative global outcome may go to memory.
    Global,
}

impl Snapshot for SnoopScope {
    fn save_into(&self, w: &mut SnapWriter) {
        w.put_u8(match self {
            SnoopScope::Local => 0,
            SnoopScope::Global => 1,
        });
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = match r.get_u8()? {
            0 => SnoopScope::Local,
            1 => SnoopScope::Global,
            _ => return Err(SnapError::Corrupt("snoop-scope tag out of range")),
        };
        Ok(())
    }
}

/// One message on the embedded ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingMsg {
    /// The transaction it belongs to.
    pub txn: TxnId,
    /// The line being snooped.
    pub line: LineAddr,
    /// Read or write.
    pub op: TxnOp,
    /// The node that started the transaction (messages stop there).
    pub requester: CmpId,
    /// Payload.
    pub kind: MsgKind,
    /// Which circulation attempt of the transaction this message belongs
    /// to (0 = the original issue; bumped by timeout retries). Deliveries
    /// from superseded attempts are discarded on an unreliable ring.
    pub attempt: u32,
    /// Emission sequence number, unique per `(txn, attempt)` emission.
    /// Each emitted message reaches exactly one downstream gateway, so a
    /// repeated `(attempt, seq)` delivery is an injected duplicate and is
    /// suppressed. Always 0 on a lossless ring (never consulted).
    pub seq: u32,
    /// Circulation scope (always [`SnoopScope::Global`] on a flat ring).
    pub scope: SnoopScope,
    /// Whether the last hop this message took was a global (bridge) link.
    /// Nodes reached over the global ring act as pure switches: they
    /// inject the message into their local ring without snooping, so a
    /// global circulation snoops every node exactly once.
    pub via_global: bool,
}

impl Snapshot for MsgKind {
    fn save_into(&self, w: &mut SnapWriter) {
        match self {
            MsgKind::Request => w.put_u8(0),
            MsgKind::Reply(info) => {
                w.put_u8(1);
                info.save_into(w);
            }
            MsgKind::Combined(info) => {
                w.put_u8(2);
                info.save_into(w);
            }
        }
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let mut info = ReplyInfo::start();
        *self = match r.get_u8()? {
            0 => MsgKind::Request,
            1 => {
                info.restore_from(r)?;
                MsgKind::Reply(info)
            }
            2 => {
                info.restore_from(r)?;
                MsgKind::Combined(info)
            }
            _ => return Err(SnapError::Corrupt("message-kind tag out of range")),
        };
        Ok(())
    }
}

impl Snapshot for RingMsg {
    fn save_into(&self, w: &mut SnapWriter) {
        self.txn.save_into(w);
        w.put_u64(self.line.0);
        self.op.save_into(w);
        w.put_usize(self.requester.0);
        self.kind.save_into(w);
        w.put_u32(self.attempt);
        w.put_u32(self.seq);
        self.scope.save_into(w);
        w.put_bool(self.via_global);
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.txn.restore_from(r)?;
        self.line = LineAddr(r.get_u64()?);
        self.op.restore_from(r)?;
        self.requester = CmpId(r.get_usize()?);
        self.kind.restore_from(r)?;
        self.attempt = r.get_u32()?;
        self.seq = r.get_u32()?;
        self.scope.restore_from(r)?;
        self.via_global = r.get_bool()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_starts_open() {
        let i = ReplyInfo::start();
        assert!(!i.found);
        assert!(i.all_snooped);
        assert!(!i.any_copy);
        assert!(i.proves_exclusive() || i.proves_exclusive());
    }

    #[test]
    fn merge_snoop_accumulates() {
        let mut i = ReplyInfo::start();
        i.merge_snoop(false, true);
        assert!(!i.found && i.any_copy);
        i.merge_snoop(true, true);
        assert!(i.found);
        assert!(i.all_snooped, "snooping keeps the all-snooped proof");
    }

    #[test]
    fn filtering_destroys_exclusivity_proof() {
        let mut i = ReplyInfo::start();
        assert!(i.proves_exclusive());
        i.mark_filtered();
        assert!(!i.proves_exclusive());
    }

    #[test]
    fn copies_destroy_exclusivity_proof() {
        let mut i = ReplyInfo::start();
        i.merge_snoop(false, true);
        assert!(!i.proves_exclusive());
    }

    #[test]
    fn info_extraction() {
        assert_eq!(MsgKind::Request.info(), None);
        let i = ReplyInfo::start();
        assert_eq!(MsgKind::Reply(i).info(), Some(i));
        assert_eq!(MsgKind::Combined(i).info(), Some(i));
    }
}
