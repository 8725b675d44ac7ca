//! Versioned binary snapshot codec for checkpoint/restore.
//!
//! Checkpointing a discrete-event simulation only works if the restored
//! run is *bit-identical* to an uninterrupted one, so the codec is a
//! deliberately boring hand-rolled little-endian format with no external
//! dependencies and no implicit layout decisions:
//!
//! * [`SnapWriter`] / [`SnapReader`] — primitive put/get pairs. Every
//!   multi-byte value is little-endian; `f64` travels as its IEEE-754 bit
//!   pattern (never through text); byte strings are length-prefixed.
//! * [`Snapshot`] — the trait a checkpointable component implements.
//!   `restore_from` overlays saved state onto a **freshly constructed**
//!   object built from the same configuration, which sidesteps
//!   serializing constructor-only data (geometry, latency tables, trait
//!   objects' vtables).
//! * [`seal`] / [`unseal`] — the file envelope: magic, schema version,
//!   and a trailing FNV-1a checksum so a truncated or corrupted file is
//!   rejected before any state is touched.
//! * [`Fingerprint`] — an incremental FNV-1a hasher used to fingerprint
//!   the configuration a snapshot was taken under; restore refuses to
//!   overlay state onto a simulator built from a different config.
//!
//! The schema version ([`SNAP_VERSION`]) is bumped on any layout change;
//! there is no in-place migration — an old snapshot is simply rejected,
//! which is the honest behavior for a deterministic simulator (state from
//! an older code version would not replay identically anyway).

use std::fmt;

use crate::time::{Cycle, Cycles};

/// Leading magic bytes of a sealed snapshot envelope.
pub const SNAP_MAGIC: [u8; 4] = *b"FSNP";

/// Current snapshot schema version. Bump on any layout change.
/// v2: partition-blocked fault counter, churn state, recovery timestamps.
/// v3: hierarchical topologies — message scope/via-global, bridge
/// crossings and bridge fault stream, locality tables, hier counters.
/// v4: derived state is rebuilt on restore, not stored — the residency
/// indexes, line-busy counts, active-core count, timeout bounds and the
/// per-transaction blocking flag.
/// v5: a set-associative array writes each set's ways in recency order,
/// with no LRU clock and no per-way stamps.
/// v6: a link or port saves only the cycle it is next free; the ring's
/// crossing counters, the fault streams' spent budgets, the stall and
/// delay cycle totals and the filtered-write-snoop count are gone.
pub const SNAP_VERSION: u32 = 6;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a hash of `bytes`; used for the envelope checksum.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Incremental FNV-1a hasher for building configuration fingerprints
/// field by field.
///
/// The fingerprint is *not* a hash of memory layout: callers feed each
/// semantic field explicitly, so two configs fingerprint equal exactly
/// when every field is equal.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    state: u64,
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Mixes raw bytes into the fingerprint.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Mixes a byte into the fingerprint.
    pub fn push_u8(&mut self, v: u8) {
        self.push_bytes(&[v]);
    }

    /// Mixes a 64-bit value into the fingerprint (little-endian).
    pub fn push_u64(&mut self, v: u64) {
        self.push_bytes(&v.to_le_bytes());
    }

    /// Mixes a length-tagged string into the fingerprint. The length tag
    /// keeps adjacent string fields from aliasing each other.
    pub fn push_str(&mut self, s: &str) {
        self.push_u64(s.len() as u64);
        self.push_bytes(s.as_bytes());
    }

    /// The fingerprint accumulated so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Why a snapshot could not be decoded or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The reader ran out of bytes mid-value.
    Eof,
    /// The envelope does not start with [`SNAP_MAGIC`].
    BadMagic,
    /// The envelope's schema version is not [`SNAP_VERSION`].
    BadVersion {
        /// Version found in the file.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// The envelope checksum does not match its contents.
    BadChecksum,
    /// The snapshot was taken under a different configuration.
    FingerprintMismatch {
        /// Fingerprint stored in the snapshot.
        found: u64,
        /// Fingerprint of the configuration being restored onto.
        expected: u64,
    },
    /// A decoded value violates an internal invariant.
    Corrupt(&'static str),
    /// Bytes remained after the payload was fully decoded.
    TrailingBytes,
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Eof => write!(f, "snapshot truncated: unexpected end of data"),
            SnapError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapError::BadVersion { found, expected } => write!(
                f,
                "snapshot schema version {found} unsupported (this build reads {expected})"
            ),
            SnapError::BadChecksum => write!(f, "snapshot checksum mismatch (corrupted file)"),
            SnapError::FingerprintMismatch { found, expected } => write!(
                f,
                "snapshot was taken under a different configuration \
                 (fingerprint {found:#018x}, expected {expected:#018x})"
            ),
            SnapError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
            SnapError::TrailingBytes => write!(f, "snapshot has trailing bytes after payload"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Serializer: appends little-endian primitives to a growing buffer.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, yielding the raw (unsealed) payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u128`, little-endian.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64` as its two's-complement bit pattern.
    pub fn put_i64(&mut self, v: i64) {
        self.put_u64(v as u64);
    }

    /// Writes a `usize` widened to `u64` (platform-independent).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Writes an `f64` as its IEEE-754 bit pattern — exact, never lossy.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes an absolute timestamp.
    pub fn put_cycle(&mut self, v: Cycle) {
        self.put_u64(v.as_u64());
    }

    /// Writes a duration.
    pub fn put_cycles(&mut self, v: Cycles) {
        self.put_u64(v.as_u64());
    }

    /// Writes a length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

/// Deserializer: consumes little-endian primitives from a byte slice.
///
/// Every getter returns [`SnapError::Eof`] rather than panicking when the
/// data runs out, so a truncated file degrades to a clean error.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Eof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads the length prefix of `n` items that each encode in at least
    /// `min_item_bytes` bytes, and rejects a count the bytes left could
    /// not hold. Restores size allocations from this count, so a corrupt
    /// (even correctly re-sealed) stream fails with
    /// [`SnapError::Corrupt`] instead of aborting on a huge allocation.
    pub fn get_len(&mut self, min_item_bytes: usize) -> Result<usize, SnapError> {
        let n = self.get_usize()?;
        if n.saturating_mul(min_item_bytes.max(1)) > self.remaining() {
            return Err(SnapError::Corrupt("length prefix exceeds the bytes left"));
        }
        Ok(n)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u128`.
    pub fn get_u128(&mut self) -> Result<u128, SnapError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Reads an `i64` stored as its two's-complement bit pattern.
    pub fn get_i64(&mut self) -> Result<i64, SnapError> {
        Ok(self.get_u64()? as i64)
    }

    /// Reads a `usize` stored as `u64`; errors if it overflows `usize`.
    pub fn get_usize(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.get_u64()?).map_err(|_| SnapError::Corrupt("usize overflow"))
    }

    /// Reads a `bool`; errors on any byte other than 0 or 1.
    pub fn get_bool(&mut self) -> Result<bool, SnapError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("bool out of range")),
        }
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads an absolute timestamp.
    pub fn get_cycle(&mut self) -> Result<Cycle, SnapError> {
        Ok(Cycle::new(self.get_u64()?))
    }

    /// Reads a duration.
    pub fn get_cycles(&mut self) -> Result<Cycles, SnapError> {
        Ok(Cycles(self.get_u64()?))
    }

    /// Reads a length-prefixed byte string (borrowed from the input).
    pub fn get_bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.get_usize()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, SnapError> {
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::Corrupt("invalid utf-8"))
    }

    /// Errors with [`SnapError::TrailingBytes`] unless fully consumed.
    pub fn expect_eof(&self) -> Result<(), SnapError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(SnapError::TrailingBytes)
        }
    }
}

/// A component whose mutable state can be checkpointed and restored.
///
/// The contract is **overlay semantics**: `restore_from` is called on an
/// object freshly constructed from the *same configuration* the snapshot
/// was taken under, and replaces only the state that evolves during a
/// run. Constructor-derived data (geometries, latencies, trait-object
/// implementations) is never serialized — it is reproduced by rebuilding.
/// After a successful restore the object must behave bit-identically to
/// the one `save_into` was called on.
pub trait Snapshot {
    /// Appends this component's mutable state to `w`.
    fn save_into(&self, w: &mut SnapWriter);

    /// Overlays state previously written by [`Snapshot::save_into`] onto
    /// `self`. On error, `self` may be left partially restored and must
    /// be discarded.
    fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

/// Wraps `payload` in the snapshot envelope: magic, schema version, and
/// a trailing FNV-1a checksum over everything before it.
pub fn seal(payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 16);
    out.extend_from_slice(&SNAP_MAGIC);
    out.extend_from_slice(&SNAP_VERSION.to_le_bytes());
    out.extend_from_slice(&payload);
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Validates a sealed envelope and returns the payload slice.
///
/// Checks, in order: minimum length, checksum, magic, schema version —
/// so corruption anywhere in the file is caught before the payload is
/// interpreted.
pub fn unseal(bytes: &[u8]) -> Result<&[u8], SnapError> {
    if bytes.len() < 16 {
        return Err(SnapError::Eof);
    }
    let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(sum_bytes.try_into().unwrap());
    if fnv1a(body) != stored {
        return Err(SnapError::BadChecksum);
    }
    if body[..4] != SNAP_MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = u32::from_le_bytes(body[4..8].try_into().unwrap());
    if version != SNAP_VERSION {
        return Err(SnapError::BadVersion {
            found: version,
            expected: SNAP_VERSION,
        });
    }
    Ok(&body[8..])
}

/// Serializes `value` into a sealed, checksummed snapshot buffer.
pub fn snapshot_bytes<T: Snapshot>(value: &T) -> Vec<u8> {
    let mut w = SnapWriter::new();
    value.save_into(&mut w);
    seal(w.into_bytes())
}

/// Restores `value` from a buffer produced by [`snapshot_bytes`],
/// requiring the payload to be consumed exactly.
pub fn restore_bytes<T: Snapshot>(value: &mut T, bytes: &[u8]) -> Result<(), SnapError> {
    let payload = unseal(bytes)?;
    let mut r = SnapReader::new(payload);
    value.restore_from(&mut r)?;
    r.expect_eof()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_prefixes_must_fit_the_bytes_left() {
        let mut w = SnapWriter::new();
        w.put_usize(2);
        w.put_u32(7);
        w.put_u32(9);
        let buf = w.into_bytes();
        assert_eq!(SnapReader::new(&buf).get_len(4), Ok(2));
        // Two 8-byte items cannot fit in the 8 bytes that follow.
        assert!(matches!(
            SnapReader::new(&buf).get_len(8),
            Err(SnapError::Corrupt(_))
        ));
        let mut w = SnapWriter::new();
        w.put_usize(1 << 40);
        let huge = w.into_bytes();
        assert!(matches!(
            SnapReader::new(&huge).get_len(1),
            Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.put_u8(0xab);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 3);
        w.put_u128(u128::MAX / 7);
        w.put_i64(-42);
        w.put_usize(123_456);
        w.put_bool(true);
        w.put_bool(false);
        w.put_f64(-0.125);
        w.put_f64(f64::NAN);
        w.put_cycle(Cycle::new(99));
        w.put_cycles(Cycles(7));
        w.put_bytes(b"raw");
        w.put_str("héllo");
        let buf = w.into_bytes();
        let mut r = SnapReader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 0xab);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_u128().unwrap(), u128::MAX / 7);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_usize().unwrap(), 123_456);
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert_eq!(r.get_f64().unwrap(), -0.125);
        assert!(r.get_f64().unwrap().is_nan()); // bit pattern preserved
        assert_eq!(r.get_cycle().unwrap(), Cycle::new(99));
        assert_eq!(r.get_cycles().unwrap(), Cycles(7));
        assert_eq!(r.get_bytes().unwrap(), b"raw");
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert!(r.expect_eof().is_ok());
    }

    #[test]
    fn reader_reports_eof_not_panic() {
        let mut r = SnapReader::new(&[1, 2]);
        assert_eq!(r.get_u64(), Err(SnapError::Eof));
        // A failed read consumes nothing; the bytes are still there.
        assert_eq!(r.remaining(), 2);
        assert_eq!(r.get_u8(), Ok(1));
    }

    #[test]
    fn bool_rejects_garbage() {
        let mut r = SnapReader::new(&[7]);
        assert_eq!(r.get_bool(), Err(SnapError::Corrupt("bool out of range")));
    }

    #[test]
    fn seal_unseal_round_trips() {
        let sealed = seal(b"payload".to_vec());
        assert_eq!(unseal(&sealed).unwrap(), b"payload");
    }

    #[test]
    fn unseal_rejects_corruption() {
        let mut sealed = seal(b"payload".to_vec());
        // Flip one payload byte: checksum must catch it.
        sealed[9] ^= 0x40;
        assert_eq!(unseal(&sealed), Err(SnapError::BadChecksum));
    }

    #[test]
    fn unseal_rejects_truncation() {
        let sealed = seal(b"payload".to_vec());
        assert!(matches!(
            unseal(&sealed[..sealed.len() - 1]),
            Err(SnapError::BadChecksum) | Err(SnapError::Eof)
        ));
        assert_eq!(unseal(&[]), Err(SnapError::Eof));
    }

    #[test]
    fn unseal_rejects_wrong_magic_and_version() {
        let mut bad_magic = seal(Vec::new());
        bad_magic[0] = b'X';
        // Re-checksum so only the magic is wrong.
        let n = bad_magic.len() - 8;
        let sum = fnv1a(&bad_magic[..n]);
        bad_magic[n..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(unseal(&bad_magic), Err(SnapError::BadMagic));

        let mut bad_ver = seal(Vec::new());
        bad_ver[4] = 0xEE;
        let n = bad_ver.len() - 8;
        let sum = fnv1a(&bad_ver[..n]);
        bad_ver[n..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            unseal(&bad_ver),
            Err(SnapError::BadVersion { found: 0xEE, .. })
        ));
    }

    #[test]
    fn snapshot_trait_round_trips_and_rejects_trailing() {
        struct Counter(u64);
        impl Snapshot for Counter {
            fn save_into(&self, w: &mut SnapWriter) {
                w.put_u64(self.0);
            }
            fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
                self.0 = r.get_u64()?;
                Ok(())
            }
        }
        let bytes = snapshot_bytes(&Counter(77));
        let mut fresh = Counter(0);
        restore_bytes(&mut fresh, &bytes).unwrap();
        assert_eq!(fresh.0, 77);

        // Payload longer than the consumer reads → TrailingBytes.
        let mut w = SnapWriter::new();
        w.put_u64(1);
        w.put_u64(2);
        let sealed = seal(w.into_bytes());
        let mut c = Counter(0);
        assert_eq!(
            restore_bytes(&mut c, &sealed),
            Err(SnapError::TrailingBytes)
        );
    }

    #[test]
    fn fingerprint_is_field_sensitive() {
        let mut a = Fingerprint::new();
        a.push_u64(1);
        a.push_str("ring");
        let mut b = Fingerprint::new();
        b.push_u64(1);
        b.push_str("ring");
        assert_eq!(a.finish(), b.finish());
        let mut c = Fingerprint::new();
        c.push_u64(2);
        c.push_str("ring");
        assert_ne!(a.finish(), c.finish());
        // Length tagging keeps adjacent strings from aliasing.
        let mut d = Fingerprint::new();
        d.push_str("ab");
        d.push_str("c");
        let mut e = Fingerprint::new();
        e.push_str("a");
        e.push_str("bc");
        assert_ne!(d.finish(), e.finish());
    }
}
