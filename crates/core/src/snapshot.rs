//! Versioned, checksummed binary snapshots of warm serving state.
//!
//! Shahin's speedup lives in accumulated warm state — the materialized
//! [`crate::PerturbationStore`] and the shared Anchor caches — and that
//! state normally dies with the process. This module defines the on-disk
//! format that makes it durable and the validation that makes loading it
//! safe:
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ magic  b"SHAHINWS"                                   8 bytes │
//! │ format version   u32 LE                              4 bytes │
//! │ config fingerprint  u64 LE                           8 bytes │
//! ├───────────────── repeated, one per section ──────────────────┤
//! │ tag u32 │ payload len u64 │ payload crc32 u32 │ payload ...  │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Everything is little-endian; payloads are raw contiguous vector dumps
//! (a length prefix, then elements) in the style of the typed-vector
//! `load_from`/`write_to` io of route-planning engines. Sections appear
//! in a fixed order: [`TAG_META`], [`TAG_STORE`], [`TAG_CACHES`].
//!
//! **Validation order on load**: magic → format version → config
//! fingerprint → per-section framing (a length running past the buffer is
//! [`SnapshotError::Truncated`]) → per-section CRC32
//! ([`SnapshotError::CrcMismatch`]) → structural checks inside the
//! payload ([`SnapshotError::Corrupt`]). Every failure is typed so
//! callers can log and count it, then degrade to a cold start — a bad
//! snapshot must never panic, and never serve.
//!
//! Writes never go through this module directly: callers serialize with
//! [`SnapshotWriter`] and persist via `shahin_obs::write_atomic`
//! (temp file + fsync + rename), so a crash mid-snapshot leaves the last
//! good file untouched.
//!
//! The [`fault`] submodule is the seeded fault injector the recovery
//! tests (and the CI metrics drill) use to manufacture each corruption
//! class deterministically.

use std::fmt;

/// First bytes of every warm-state snapshot.
pub const MAGIC: [u8; 8] = *b"SHAHINWS";

/// Current snapshot format version. Bump on any layout change; loaders
/// reject other versions rather than guessing.
pub const FORMAT_VERSION: u32 = 1;

/// Section tag: run metadata (seed, base value, explainer, warm dims).
pub(crate) const TAG_META: u32 = 1;
/// Section tag: the perturbation store (itemsets, samples, LRU state,
/// embedded bitset dictionary).
pub(crate) const TAG_STORE: u32 = 2;
/// Section tag: the shared Anchor caches.
pub(crate) const TAG_CACHES: u32 = 3;

/// Why a snapshot was rejected. Every variant maps to a stable
/// [`SnapshotError::kind`] string used for logging and `persist.*`
/// metric attribution.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file could not be read or written at all.
    Io(std::io::Error),
    /// The first 8 bytes are not [`MAGIC`] — not a snapshot.
    BadMagic,
    /// The snapshot was written by a different format version.
    WrongVersion {
        /// Version found in the header.
        found: u32,
        /// Version this binary writes and reads.
        expected: u32,
    },
    /// The snapshot was taken under a different configuration (config,
    /// seed, warm set, or explainer differ) — its state would be wrong,
    /// not merely stale.
    FingerprintMismatch {
        /// Fingerprint found in the header.
        found: u64,
        /// Fingerprint of the running configuration.
        expected: u64,
    },
    /// The file ends before the advertised data does (torn write, partial
    /// copy, truncation).
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// A section's checksum does not match its payload (bit rot, torn
    /// overwrite).
    CrcMismatch {
        /// Which section failed.
        section: &'static str,
    },
    /// The payload passed its CRC but violates a structural invariant
    /// (should only happen for snapshots corrupted *before* checksumming,
    /// i.e. writer bugs — still rejected, never served).
    Corrupt {
        /// Which invariant failed.
        context: &'static str,
    },
}

impl SnapshotError {
    /// Stable short name of the rejection class, for logs and metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            SnapshotError::Io(_) => "io",
            SnapshotError::BadMagic => "bad_magic",
            SnapshotError::WrongVersion { .. } => "wrong_version",
            SnapshotError::FingerprintMismatch { .. } => "fingerprint_mismatch",
            SnapshotError::Truncated { .. } => "truncated",
            SnapshotError::CrcMismatch { .. } => "crc_mismatch",
            SnapshotError::Corrupt { .. } => "corrupt",
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a Shahin snapshot (bad magic)"),
            SnapshotError::WrongVersion { found, expected } => {
                write!(
                    f,
                    "snapshot format version {found} (this binary reads {expected})"
                )
            }
            SnapshotError::FingerprintMismatch { found, expected } => write!(
                f,
                "snapshot config fingerprint {found:#018x} does not match the running \
                 configuration {expected:#018x}"
            ),
            SnapshotError::Truncated { context } => {
                write!(f, "snapshot truncated while reading {context}")
            }
            SnapshotError::CrcMismatch { section } => {
                write!(f, "snapshot section '{section}' failed its checksum")
            }
            SnapshotError::Corrupt { context } => {
                write!(f, "snapshot is structurally corrupt: {context}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant), table-driven.
/// Implemented locally — the workspace is dependency-free by policy.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc_table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

// ---------------------------------------------------------------------
// Payload primitives: a little-endian encoder/decoder pair shared by the
// store, cache, and engine dump/load methods (which live in their own
// modules, next to the private fields they serialize).
// ---------------------------------------------------------------------

/// Little-endian payload encoder.
#[derive(Default)]
pub(crate) struct Enc {
    pub(crate) buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn new() -> Enc {
        Enc::default()
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Length-prefixed raw bytes.
    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub(crate) fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// An itemset as item count + per-item `(attr, code)` pairs. Items
    /// are already sorted and deduped inside `Itemset`, so the encoding
    /// is canonical.
    pub(crate) fn itemset(&mut self, set: &shahin_fim::Itemset) {
        self.u32(set.len() as u32);
        for item in set.items() {
            self.u32(u32::from(item.attr));
            self.u32(item.code);
        }
    }
}

/// Bounds-checked little-endian payload decoder. Every read failure is a
/// typed [`SnapshotError::Truncated`] carrying the caller's context.
pub(crate) struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Context for truncation errors ("store section", "caches section").
    context: &'static str,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(bytes: &'a [u8], context: &'static str) -> Dec<'a> {
        Dec {
            bytes,
            pos: 0,
            context,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(SnapshotError::Truncated {
                context: self.context,
            })?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A length prefix (bytes or element count — every element is at
    /// least one byte), bounded by the remaining payload so a corrupted
    /// length can never trigger a huge allocation.
    pub(crate) fn len(&mut self) -> Result<usize, SnapshotError> {
        let n = self.u64()? as usize;
        if n > self.bytes.len() - self.pos {
            return Err(SnapshotError::Truncated {
                context: self.context,
            });
        }
        Ok(n)
    }

    /// Length-prefixed raw bytes.
    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.len()?;
        self.take(n)
    }

    /// Length-prefixed UTF-8 string.
    pub(crate) fn str(&mut self) -> Result<String, SnapshotError> {
        String::from_utf8(self.bytes()?.to_vec()).map_err(|_| SnapshotError::Corrupt {
            context: "non-UTF-8 string",
        })
    }

    pub(crate) fn itemset(&mut self) -> Result<shahin_fim::Itemset, SnapshotError> {
        let n = self.u32()? as usize;
        // The bitset engine stores itemset sizes in a u8; anything wider
        // is not a value this codebase can have written.
        if n > usize::from(u8::MAX) {
            return Err(SnapshotError::Corrupt {
                context: "itemset longer than the supported maximum",
            });
        }
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            let attr = self.u32()?;
            let code = self.u32()?;
            if attr > u32::from(u16::MAX) {
                return Err(SnapshotError::Corrupt {
                    context: "itemset attribute exceeds u16",
                });
            }
            items.push(shahin_fim::Item::new(attr as usize, code));
        }
        Ok(shahin_fim::Itemset::new(items))
    }

    /// True once every payload byte has been consumed; dump/load pairs
    /// assert this so silent trailing garbage cannot hide a version skew.
    pub(crate) fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }

    pub(crate) fn finish(self) -> Result<(), SnapshotError> {
        if self.done() {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt {
                context: "trailing bytes after payload",
            })
        }
    }
}

// ---------------------------------------------------------------------
// File-level framing.
// ---------------------------------------------------------------------

/// Serializes a whole snapshot: header, then checksummed sections.
pub(crate) struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    pub(crate) fn new(fingerprint: u64) -> SnapshotWriter {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&fingerprint.to_le_bytes());
        SnapshotWriter { buf }
    }

    /// Appends one `[tag][len][crc][payload]` section.
    pub(crate) fn section(&mut self, tag: u32, payload: &[u8]) {
        self.buf.extend_from_slice(&tag.to_le_bytes());
        self.buf
            .extend_from_slice(&(payload.len() as u64).to_le_bytes());
        self.buf.extend_from_slice(&crc32(payload).to_le_bytes());
        self.buf.extend_from_slice(payload);
    }

    pub(crate) fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Validating reader over a whole snapshot. [`SnapshotReader::open`]
/// checks magic, version, and fingerprint; each
/// [`SnapshotReader::section`] call checks framing and the payload CRC
/// before handing the payload out.
#[derive(Debug)]
pub(crate) struct SnapshotReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    pub(crate) fn open(
        bytes: &'a [u8],
        expected_fingerprint: u64,
    ) -> Result<SnapshotReader<'a>, SnapshotError> {
        if bytes.len() < MAGIC.len() + 4 + 8 {
            // Too short to even carry a header: classify by what *is*
            // there so a torn write of the first bytes still reads as
            // "not a snapshot" when the magic itself is wrong.
            if !MAGIC.starts_with(&bytes[..bytes.len().min(MAGIC.len())]) {
                return Err(SnapshotError::BadMagic);
            }
            return Err(SnapshotError::Truncated { context: "header" });
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(SnapshotError::WrongVersion {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let fingerprint = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
        if fingerprint != expected_fingerprint {
            return Err(SnapshotError::FingerprintMismatch {
                found: fingerprint,
                expected: expected_fingerprint,
            });
        }
        Ok(SnapshotReader { bytes, pos: 20 })
    }

    /// Reads the next section, which must carry `tag`, and returns its
    /// CRC-verified payload.
    pub(crate) fn section(
        &mut self,
        tag: u32,
        name: &'static str,
    ) -> Result<&'a [u8], SnapshotError> {
        let header_end = self.pos.checked_add(16).filter(|&e| e <= self.bytes.len());
        let Some(header_end) = header_end else {
            return Err(SnapshotError::Truncated {
                context: "section header",
            });
        };
        let found_tag = u32::from_le_bytes(self.bytes[self.pos..self.pos + 4].try_into().unwrap());
        if found_tag != tag {
            return Err(SnapshotError::Corrupt {
                context: "unexpected section tag",
            });
        }
        let len = u64::from_le_bytes(self.bytes[self.pos + 4..self.pos + 12].try_into().unwrap())
            as usize;
        let crc = u32::from_le_bytes(self.bytes[self.pos + 12..header_end].try_into().unwrap());
        let end = header_end
            .checked_add(len)
            .filter(|&e| e <= self.bytes.len());
        let Some(end) = end else {
            return Err(SnapshotError::Truncated { context: name });
        };
        let payload = &self.bytes[header_end..end];
        if crc32(payload) != crc {
            return Err(SnapshotError::CrcMismatch { section: name });
        }
        self.pos = end;
        Ok(payload)
    }
}

// ---------------------------------------------------------------------
// Fault injection.
// ---------------------------------------------------------------------

/// Seeded corruption of snapshot bytes, one constructor per failure class
/// the recovery path must survive. Deterministic — the same `(bytes,
/// corruption, seed)` triple always yields the same damaged file — so
/// recovery tests reproduce exactly. Extends the PR-4 chaos approach
/// (deterministic injected faults, typed observable outcomes) from the
/// classifier boundary to the persistence boundary.
pub mod fault {
    /// One class of snapshot damage.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Corruption {
        /// The tail of the file never made it to disk: the bytes are cut
        /// at a seeded point in the second half (as if the writer died
        /// mid-`write`). Detected as `Truncated`.
        TornWrite,
        /// The file is cut to a seeded point anywhere, including inside
        /// the header. Detected as `Truncated` (or `BadMagic` for cuts
        /// inside the magic itself).
        Truncation,
        /// A single seeded bit is flipped somewhere in a section payload.
        /// Detected as `CrcMismatch`.
        BitFlip,
        /// The header's format version is rewritten to a future version
        /// (a downgrade scenario). Detected as `WrongVersion`.
        StaleVersion,
    }

    impl Corruption {
        /// All classes, for exhaustive test sweeps.
        pub const ALL: [Corruption; 4] = [
            Corruption::TornWrite,
            Corruption::Truncation,
            Corruption::BitFlip,
            Corruption::StaleVersion,
        ];
    }

    /// SplitMix64 step — the same generator the store uses for stream
    /// splitting; good enough to pick damage sites uniformly.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a damaged copy of `bytes` exhibiting `corruption`.
    pub fn corrupt(bytes: &[u8], corruption: Corruption, seed: u64) -> Vec<u8> {
        let mut state = seed ^ 0xC0FF_EE00_5EED_D00D;
        let mut out = bytes.to_vec();
        match corruption {
            Corruption::TornWrite => {
                // Cut in the second half: the header survives, data does
                // not — the classic power-loss-mid-write shape.
                let lo = bytes.len() / 2;
                let cut = lo + (splitmix(&mut state) as usize) % (bytes.len() - lo).max(1);
                out.truncate(cut);
            }
            Corruption::Truncation => {
                let cut = (splitmix(&mut state) as usize) % bytes.len().max(1);
                out.truncate(cut);
            }
            Corruption::BitFlip => {
                // Flip past the 20-byte header so the damage lands in a
                // section (header damage is the other classes' job).
                let lo = 20.min(bytes.len().saturating_sub(1));
                let idx = lo + (splitmix(&mut state) as usize) % (bytes.len() - lo).max(1);
                let bit = splitmix(&mut state) % 8;
                out[idx] ^= 1u8 << bit;
            }
            Corruption::StaleVersion => {
                if out.len() >= 12 {
                    let future = super::FORMAT_VERSION + 1 + (splitmix(&mut state) as u32 % 7);
                    out[8..12].copy_from_slice(&future.to_le_bytes());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn enc_dec_round_trip() {
        let mut e = Enc::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 1);
        e.f64(std::f64::consts::PI);
        e.bytes(b"abc");
        e.str("warm");
        let set = shahin_fim::Itemset::new(vec![
            shahin_fim::Item::new(3, 9),
            shahin_fim::Item::new(1, 2),
        ]);
        e.itemset(&set);
        let mut d = Dec::new(&e.buf, "test");
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.f64().unwrap(), std::f64::consts::PI);
        assert_eq!(d.bytes().unwrap(), b"abc");
        assert_eq!(d.str().unwrap(), "warm");
        assert_eq!(d.itemset().unwrap(), set);
        d.finish().unwrap();
    }

    #[test]
    fn dec_truncation_is_typed() {
        let mut d = Dec::new(&[1, 2], "unit");
        let err = d.u32().unwrap_err();
        assert_eq!(err.kind(), "truncated");
        assert!(err.to_string().contains("unit"));
    }

    fn sample_snapshot(fingerprint: u64) -> Vec<u8> {
        let mut w = SnapshotWriter::new(fingerprint);
        let mut meta = Enc::new();
        meta.u64(42);
        meta.str("LIME");
        w.section(TAG_META, &meta.buf);
        let mut store = Enc::new();
        store.bytes(&[9u8; 100]);
        w.section(TAG_STORE, &store.buf);
        w.section(TAG_CACHES, &[]);
        w.finish()
    }

    #[test]
    fn writer_reader_round_trip() {
        let bytes = sample_snapshot(0xFEED);
        let mut r = SnapshotReader::open(&bytes, 0xFEED).unwrap();
        let meta = r.section(TAG_META, "meta").unwrap();
        let mut d = Dec::new(meta, "meta");
        assert_eq!(d.u64().unwrap(), 42);
        assert_eq!(d.str().unwrap(), "LIME");
        let store = r.section(TAG_STORE, "store").unwrap();
        assert_eq!(store.len(), 108);
        assert!(r.section(TAG_CACHES, "caches").unwrap().is_empty());
    }

    #[test]
    fn open_rejects_wrong_magic_version_and_fingerprint() {
        let bytes = sample_snapshot(1);
        let mut not_ours = bytes.clone();
        not_ours[0] = b'X';
        assert_eq!(
            SnapshotReader::open(&not_ours, 1).unwrap_err().kind(),
            "bad_magic"
        );
        let mut future = bytes.clone();
        future[8..12].copy_from_slice(&(FORMAT_VERSION + 3).to_le_bytes());
        match SnapshotReader::open(&future, 1).unwrap_err() {
            SnapshotError::WrongVersion { found, expected } => {
                assert_eq!(found, FORMAT_VERSION + 3);
                assert_eq!(expected, FORMAT_VERSION);
            }
            other => panic!("expected WrongVersion, got {other:?}"),
        }
        match SnapshotReader::open(&bytes, 2).unwrap_err() {
            SnapshotError::FingerprintMismatch { found, expected } => {
                assert_eq!(found, 1);
                assert_eq!(expected, 2);
            }
            other => panic!("expected FingerprintMismatch, got {other:?}"),
        }
    }

    #[test]
    fn every_fault_class_is_rejected_with_its_typed_error() {
        let bytes = sample_snapshot(7);
        for seed in 0..50u64 {
            for class in fault::Corruption::ALL {
                let damaged = fault::corrupt(&bytes, class, seed);
                let result = SnapshotReader::open(&damaged, 7).and_then(|mut r| {
                    r.section(TAG_META, "meta")?;
                    r.section(TAG_STORE, "store")?;
                    r.section(TAG_CACHES, "caches")?;
                    Ok(())
                });
                let err = match result {
                    // A bit flip can land in unread trailing slack only if
                    // sections didn't cover the file; here they do, so
                    // every class must error.
                    Ok(()) => panic!("{class:?} seed {seed} was not detected"),
                    Err(e) => e,
                };
                let kind = err.kind();
                match class {
                    fault::Corruption::TornWrite => {
                        assert!(
                            kind == "truncated" || kind == "crc_mismatch",
                            "{class:?} seed {seed} -> {kind}"
                        );
                    }
                    fault::Corruption::Truncation => {
                        assert!(
                            kind == "truncated" || kind == "bad_magic" || kind == "crc_mismatch",
                            "{class:?} seed {seed} -> {kind}"
                        );
                    }
                    fault::Corruption::BitFlip => {
                        // A flip in a section header reads as framing
                        // damage; anywhere else the CRC catches it.
                        assert!(
                            kind == "crc_mismatch" || kind == "truncated" || kind == "corrupt",
                            "{class:?} seed {seed} -> {kind}"
                        );
                    }
                    fault::Corruption::StaleVersion => {
                        assert_eq!(kind, "wrong_version", "{class:?} seed {seed}");
                    }
                }
            }
        }
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let bytes = sample_snapshot(3);
        for class in fault::Corruption::ALL {
            assert_eq!(
                fault::corrupt(&bytes, class, 11),
                fault::corrupt(&bytes, class, 11)
            );
        }
    }
}
