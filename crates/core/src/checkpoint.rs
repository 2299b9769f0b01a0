//! Versioned, per-section-checksummed snapshot container for
//! checkpoint/restore.
//!
//! A [`Snapshot`] is an ordered list of tagged byte sections. The binary
//! encoding is:
//!
//! ```text
//! "FFCP"  magic (4 bytes)
//! u32 LE  format version (currently 1)
//! u32 LE  section count
//! then per section:
//!   [u8; 4]  tag
//!   u64 LE   payload length
//!   u32 LE   CRC-32 of the payload
//!   payload bytes
//! ```
//!
//! Every section carries its own CRC-32, so corruption is localized to a
//! named section in the error message, and a truncated file fails with
//! the exact section that was cut. [`Snapshot::decode`] rejects trailing
//! bytes, duplicate tags, wrong magic, and unsupported versions — a
//! snapshot either decodes completely or not at all.
//!
//! The checksum is a slicing-by-16 CRC-32: sixteen input bytes per
//! step through sixteen lookup tables built at compile time, where the
//! textbook loop chains one dependent lookup per byte. Writes and
//! resumes share it.
//!
//! Durability is layered on top: [`Snapshot::write_atomic`] streams the
//! header and then each section's frame and payload straight into a
//! temporary sibling — the file is never assembled in memory — and
//! renames, so a crash mid-write never leaves a half-written file under
//! the final name; [`Snapshot::encode`] produces the same bytes as one
//! buffer and is the reference the streamed writer is tested against.
//! [`checkpoint_files_newest_first`] lists a directory's `*.ckpt`
//! candidates newest-first, and [`latest_valid`] walks that list and
//! returns the first snapshot that decodes — the corruption fallback
//! ladder of the crash-recovery harness.
//!
//! What goes *into* the sections is owned by the state being frozen:
//! `FloodingSim::snapshot` documents the engine's section set and the
//! serialize-vs-rebuild split (see `docs/ARCHITECTURE.md`, "Checkpoint &
//! recovery contract").

use std::error::Error;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// File magic of the snapshot format.
pub const MAGIC: [u8; 4] = *b"FFCP";

/// Current format version; decoders reject anything else.
pub const FORMAT_VERSION: u32 = 1;

/// File extension checkpoint files use (without the dot).
pub const CKPT_EXTENSION: &str = "ckpt";

// ---- section tags written by FloodingSim::snapshot ----

/// Run metadata: population, seed, radius, protocol, engine,
/// parallelism class, time, model fingerprint.
pub const TAG_META: [u8; 4] = *b"META";
/// The main simulation RNG stream.
pub const TAG_MRNG: [u8; 4] = *b"MRNG";
/// Per-chunk move streams (chunked-parallelism class only).
pub const TAG_CRNG: [u8; 4] = *b"CRNG";
/// Per-agent trajectory states plus informed/crashed/inform-time lanes.
pub const TAG_AGNT: [u8; 4] = *b"AGNT";
/// Per-agent positions as raw IEEE-754 bits (positions accumulate
/// incrementally in the move kernel, so they are state, not derivable).
pub const TAG_POSN: [u8; 4] = *b"POSN";
/// Flood rosters and curve: the live uninformed agents ascending (derived
/// from the flags, checked against them on restore), transmitter roster
/// (in roster order — coin order and gossip visitation depend on it),
/// spread.
pub const TAG_FLOD: [u8; 4] = *b"FLOD";
/// Turn-recorder timestamps (present iff turn recording is on).
pub const TAG_TURN: [u8; 4] = *b"TURN";

const CRC_TABLE: [u32; 256] = crc32_table();

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
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

/// Slicing-by-16 tables: `CRC_SLICES[k][b]` is the CRC register
/// contribution of byte `b` followed by `k` zero bytes, so one step can
/// fold sixteen input bytes with sixteen independent lookups.
/// `CRC_SLICES[0]` is the bytewise [`CRC_TABLE`].
const CRC_SLICES: [[u32; 256]; 16] = crc32_slices();

const fn crc32_slices() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    t[0] = CRC_TABLE;
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3 polynomial) of `bytes` — the per-section checksum.
///
/// Slicing-by-16: sixteen bytes per step through sixteen lookup
/// tables, then a bytewise tail. The value is the classic reflected
/// CRC-32 (`crc32(b"123456789") == 0xCBF4_3926`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_SLICES;
    let mut c = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(lo & 0xFF) as usize]
            ^ t[14][((lo >> 8) & 0xFF) as usize]
            ^ t[13][((lo >> 16) & 0xFF) as usize]
            ^ t[12][(lo >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Renders a section tag for error messages (`META`, or `\x00\x01..`
/// escaped for non-ASCII tags).
fn tag_str(tag: [u8; 4]) -> String {
    if tag.iter().all(|b| b.is_ascii_graphic() || *b == b' ') {
        String::from_utf8_lossy(&tag).into_owned()
    } else {
        format!("{tag:02x?}")
    }
}

/// Why a snapshot failed to decode, restore, or reach disk.
///
/// Every variant names what was wrong precisely enough to act on: the
/// section whose checksum failed, the version found, the field that was
/// incompatible.
#[derive(Debug)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The underlying file operation failed.
    Io(io::Error),
    /// The file does not start with the `FFCP` magic — not a snapshot.
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion {
        /// The version the file declared.
        found: u32,
    },
    /// The byte stream ended inside the named structure.
    Truncated {
        /// What was being read when the bytes ran out.
        what: &'static str,
    },
    /// A section's payload does not match its stored CRC-32 (bit flips,
    /// torn writes).
    ChecksumMismatch {
        /// The corrupted section's tag.
        section: [u8; 4],
    },
    /// Bytes remain after the declared sections — the file is not a
    /// clean encoding.
    TrailingBytes {
        /// Number of unconsumed bytes.
        extra: usize,
    },
    /// The same tag appears twice.
    DuplicateSection {
        /// The repeated tag.
        section: [u8; 4],
    },
    /// A section the restore needs is absent.
    MissingSection {
        /// The absent tag.
        section: [u8; 4],
    },
    /// A section decoded structurally but its contents are invalid
    /// (out-of-range index, unsorted roster, bad RNG state, …).
    Corrupt {
        /// The offending section's tag.
        section: [u8; 4],
        /// What was invalid.
        what: &'static str,
    },
    /// The snapshot is valid but was taken from a different run shape
    /// than the simulation it is being restored into (different `n`,
    /// radius, seed, model, or parallelism class).
    Incompatible {
        /// Which field disagreed, with both values.
        what: String,
    },
    /// No valid checkpoint exists in the directory (every candidate was
    /// rejected, or there were none).
    NoValidCheckpoint {
        /// Number of candidate files that failed to decode.
        rejected: usize,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O: {e}"),
            CheckpointError::BadMagic => {
                write!(f, "not a snapshot: file does not start with FFCP magic")
            }
            CheckpointError::UnsupportedVersion { found } => write!(
                f,
                "unsupported snapshot version {found} (this build reads version {FORMAT_VERSION})"
            ),
            CheckpointError::Truncated { what } => {
                write!(f, "snapshot truncated while reading {what}")
            }
            CheckpointError::ChecksumMismatch { section } => write!(
                f,
                "section {} failed its CRC-32 check (corrupted payload)",
                tag_str(*section)
            ),
            CheckpointError::TrailingBytes { extra } => {
                write!(f, "{extra} unexpected bytes after the last section")
            }
            CheckpointError::DuplicateSection { section } => {
                write!(f, "section {} appears twice", tag_str(*section))
            }
            CheckpointError::MissingSection { section } => {
                write!(f, "required section {} is missing", tag_str(*section))
            }
            CheckpointError::Corrupt { section, what } => {
                write!(f, "section {} is corrupt: {what}", tag_str(*section))
            }
            CheckpointError::Incompatible { what } => {
                write!(f, "snapshot incompatible with this simulation: {what}")
            }
            CheckpointError::NoValidCheckpoint { rejected } => write!(
                f,
                "no valid checkpoint found ({rejected} candidate file(s) rejected)"
            ),
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// An ordered set of tagged, individually-checksummed byte sections —
/// the unit a run freezes to and thaws from.
///
/// # Examples
///
/// ```
/// use fastflood_core::checkpoint::Snapshot;
///
/// let mut snap = Snapshot::new();
/// snap.push(*b"DEMO", vec![1, 2, 3]);
/// let bytes = snap.encode();
/// let back = Snapshot::decode(&bytes)?;
/// assert_eq!(back.section(*b"DEMO"), Some(&[1u8, 2, 3][..]));
/// # Ok::<(), fastflood_core::checkpoint::CheckpointError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    sections: Vec<([u8; 4], Vec<u8>)>,
}

impl Snapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Snapshot {
        Snapshot::default()
    }

    /// Appends a section.
    ///
    /// # Panics
    ///
    /// Panics when `tag` is already present — section tags are unique by
    /// construction so decode can reject duplicates as corruption.
    pub fn push(&mut self, tag: [u8; 4], payload: Vec<u8>) {
        assert!(
            self.section(tag).is_none(),
            "duplicate snapshot section {}",
            tag_str(tag)
        );
        self.sections.push((tag, payload));
    }

    /// The payload of the section tagged `tag`, if present.
    pub fn section(&self, tag: [u8; 4]) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, p)| p.as_slice())
    }

    /// The payload of a section the caller requires.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::MissingSection`] when absent.
    pub fn require(&self, tag: [u8; 4]) -> Result<&[u8], CheckpointError> {
        self.section(tag)
            .ok_or(CheckpointError::MissingSection { section: tag })
    }

    /// The section tags, in stored order.
    pub fn tags(&self) -> impl Iterator<Item = [u8; 4]> + '_ {
        self.sections.iter().map(|(t, _)| *t)
    }

    /// Total payload bytes across sections (encoded size minus framing).
    pub fn payload_len(&self) -> usize {
        self.sections.iter().map(|(_, p)| p.len()).sum()
    }

    /// Serializes the snapshot (see the module docs for the layout).
    pub fn encode(&self) -> Vec<u8> {
        let total: usize = self
            .sections
            .iter()
            .map(|(_, p)| 4 + 8 + 4 + p.len())
            .sum::<usize>()
            + 12;
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (tag, payload) in &self.sections {
            out.extend_from_slice(tag);
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&crc32(payload).to_le_bytes());
            out.extend_from_slice(payload);
        }
        out
    }

    /// Decodes an encoded snapshot, verifying magic, version, framing,
    /// every section checksum, tag uniqueness, and that no bytes trail
    /// the last section.
    ///
    /// # Errors
    ///
    /// The precise [`CheckpointError`] variant for the first violation.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, CheckpointError> {
        let mut pos = 0usize;
        let mut take = |n: usize, what: &'static str| -> Result<&[u8], CheckpointError> {
            if bytes.len() - pos < n {
                return Err(CheckpointError::Truncated { what });
            }
            let out = &bytes[pos..pos + n];
            pos += n;
            Ok(out)
        };
        if take(4, "magic")? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = u32::from_le_bytes(take(4, "version")?.try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(CheckpointError::UnsupportedVersion { found: version });
        }
        let count = u32::from_le_bytes(take(4, "section count")?.try_into().expect("4 bytes"));
        let mut sections = Vec::with_capacity(count.min(64) as usize);
        for _ in 0..count {
            let tag: [u8; 4] = take(4, "section tag")?.try_into().expect("4 bytes");
            let len = u64::from_le_bytes(take(8, "section length")?.try_into().expect("8 bytes"));
            let crc = u32::from_le_bytes(take(4, "section crc")?.try_into().expect("4 bytes"));
            let len = usize::try_from(len).map_err(|_| CheckpointError::Truncated {
                what: "section payload",
            })?;
            let payload = take(len, "section payload")?;
            if crc32(payload) != crc {
                return Err(CheckpointError::ChecksumMismatch { section: tag });
            }
            if sections.iter().any(|(t, _): &([u8; 4], Vec<u8>)| *t == tag) {
                return Err(CheckpointError::DuplicateSection { section: tag });
            }
            sections.push((tag, payload.to_vec()));
        }
        if pos != bytes.len() {
            return Err(CheckpointError::TrailingBytes {
                extra: bytes.len() - pos,
            });
        }
        Ok(Snapshot { sections })
    }

    /// A 64-bit FNV-1a digest over every section *except* those in
    /// `skip`, in stored order — the state-equality probe the divergence
    /// bisector compares across runs. Skipping [`TAG_META`] lets two
    /// runs that differ only in recorded engine mode or parallelism
    /// class compare their actual simulation state.
    pub fn digest(&self, skip: &[[u8; 4]]) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for (tag, payload) in &self.sections {
            if skip.contains(tag) {
                continue;
            }
            eat(tag);
            eat(&(payload.len() as u64).to_le_bytes());
            eat(payload);
        }
        h
    }

    /// Streams the encoding into `out`: the 12-byte header, then per
    /// section its 16-byte frame (tag, length, CRC-32 of the payload
    /// computed in place) followed by the payload itself. The bytes are
    /// exactly [`Snapshot::encode`]'s, but no copy of the whole file is
    /// ever built.
    fn write_to(&self, out: &mut impl Write) -> io::Result<()> {
        let mut header = [0u8; 12];
        header[..4].copy_from_slice(&MAGIC);
        header[4..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        header[8..].copy_from_slice(&(self.sections.len() as u32).to_le_bytes());
        out.write_all(&header)?;
        for (tag, payload) in &self.sections {
            let mut frame = [0u8; 16];
            frame[..4].copy_from_slice(tag);
            frame[4..12].copy_from_slice(&(payload.len() as u64).to_le_bytes());
            frame[12..].copy_from_slice(&crc32(payload).to_le_bytes());
            out.write_all(&frame)?;
            out.write_all(payload)?;
        }
        Ok(())
    }

    /// Writes the snapshot to `path` atomically and durably: the header
    /// and then each section's frame and payload are streamed straight
    /// into a `.tmp` sibling (no whole-file encoding is built in
    /// memory), which is fsync'd and renamed into place, then the
    /// **parent directory** is fsync'd. The file bytes are exactly
    /// [`Snapshot::encode`]'s.
    ///
    /// The guarantee after `Ok(())`: the file exists under its final
    /// name with complete contents even across a power failure. The
    /// file fsync makes the *contents* durable and the rename makes the
    /// swap atomic, but on journaling filesystems the rename itself is
    /// a directory-entry mutation that only becomes durable when the
    /// directory is synced — without it, a crash right after `rename`
    /// can roll the directory back to a state where the checkpoint
    /// never existed. Platforms whose directory handles refuse fsync
    /// (e.g. Windows) skip that last step and keep the weaker
    /// atomic-but-not-crash-durable contract.
    ///
    /// # Errors
    ///
    /// Any I/O failure (the temporary file is removed best-effort).
    pub fn write_atomic(&self, path: &Path) -> Result<(), CheckpointError> {
        let tmp = tmp_sibling(path);
        let result = (|| -> io::Result<()> {
            let mut out = io::BufWriter::new(fs::File::create(&tmp)?);
            self.write_to(&mut out)?;
            let f = out.into_inner().map_err(io::IntoInnerError::into_error)?;
            f.sync_all()?;
            drop(f);
            fs::rename(&tmp, path)?;
            if cfg!(unix) {
                // `path` came from the caller and may be relative with
                // no parent component; resolve "" to the cwd
                let parent = match path.parent() {
                    Some(p) if !p.as_os_str().is_empty() => p,
                    _ => Path::new("."),
                };
                fs::File::open(parent)?.sync_all()?;
            }
            Ok(())
        })();
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result.map_err(CheckpointError::Io)
    }

    /// Reads and decodes a snapshot file.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on read failure, otherwise decode errors.
    pub fn read_file(path: &Path) -> Result<Snapshot, CheckpointError> {
        Snapshot::decode(&fs::read(path)?)
    }
}

fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// The `*.ckpt` files directly under `dir`, newest first. "Newest" is
/// by file name, descending — checkpoint writers embed the zero-padded
/// step number in the name precisely so lexicographic order is step
/// order. Entries that cannot be read are skipped.
///
/// # Errors
///
/// The I/O error when the directory itself cannot be read.
pub fn checkpoint_files_newest_first(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut names: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(CKPT_EXTENSION))
        .collect();
    names.sort();
    names.reverse();
    Ok(names)
}

/// Outcome of scanning a checkpoint directory for the newest usable
/// snapshot (the corruption fallback ladder).
#[derive(Debug)]
pub struct LatestValid {
    /// The newest decodable snapshot and its path, if any survived.
    pub snapshot: Option<(PathBuf, Snapshot)>,
    /// Newer candidates that were rejected, newest first, each with the
    /// precise reason — surfaced so a resume can report what it skipped.
    pub rejected: Vec<(PathBuf, CheckpointError)>,
}

/// Scans `dir` for `*.ckpt` files and returns the newest one that
/// decodes, falling back file-by-file past corrupted or truncated
/// snapshots, in [`checkpoint_files_newest_first`] order.
///
/// # Errors
///
/// [`CheckpointError::Io`] only when the directory itself cannot be
/// read; unreadable or invalid *files* become `rejected` entries.
pub fn latest_valid(dir: &Path) -> Result<LatestValid, CheckpointError> {
    let mut rejected = Vec::new();
    for path in checkpoint_files_newest_first(dir)? {
        match Snapshot::read_file(&path) {
            Ok(snap) => {
                return Ok(LatestValid {
                    snapshot: Some((path, snap)),
                    rejected,
                })
            }
            Err(e) => rejected.push((path, e)),
        }
    }
    Ok(LatestValid {
        snapshot: None,
        rejected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot::new();
        s.push(TAG_META, vec![1, 2, 3, 4, 5]);
        s.push(
            TAG_AGNT,
            (0..200u16).flat_map(|v| v.to_le_bytes()).collect(),
        );
        s.push(*b"EMTY", Vec::new());
        s
    }

    /// The byte-at-a-time CRC-32 the sliced version must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    /// Deterministic pseudo-random bytes (SplitMix64).
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                ((z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_known_vector() {
        // the classic IEEE check value
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_bytewise_reference() {
        // every block/tail split of short inputs
        let short = noise(64, 1);
        for len in 0..=64 {
            assert_eq!(
                crc32(&short[..len]),
                crc32_bytewise(&short[..len]),
                "len {len}"
            );
        }
        // long buffers at unaligned starts, odd lengths up to 1 MiB
        let long = noise((1 << 20) + 32, 2);
        for (start, len) in [(1, 17), (3, 1000), (5, 4099), (7, 65_537), (15, 1 << 20)] {
            let slice = &long[start..start + len];
            assert_eq!(
                crc32(slice),
                crc32_bytewise(slice),
                "start {start} len {len}"
            );
        }
    }

    #[test]
    fn streamed_write_is_byte_identical_to_encode() {
        let dir = std::env::temp_dir().join(format!("ffcp-stream-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let mut big = Snapshot::new();
        big.push(*b"EMTY", Vec::new());
        big.push(*b"TINY", vec![7, 8, 9]);
        big.push(*b"HUGE", noise((1 << 20) + 123, 3));
        big.push(*b"TAIL", vec![1]);
        for (i, snap) in [Snapshot::new(), sample(), big].iter().enumerate() {
            let path = dir.join(format!("s{i}.ckpt"));
            snap.write_atomic(&path).expect("atomic write");
            assert_eq!(fs::read(&path).unwrap(), snap.encode(), "snapshot {i}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = sample();
        let bytes = s.encode();
        let back = Snapshot::decode(&bytes).expect("valid encoding");
        assert_eq!(back.section(TAG_META), Some(&[1u8, 2, 3, 4, 5][..]));
        assert_eq!(back.section(*b"EMTY"), Some(&[][..]));
        assert_eq!(back.section(TAG_TURN), None);
        assert!(back.require(TAG_TURN).is_err());
        assert_eq!(
            back.tags().collect::<Vec<_>>(),
            vec![TAG_META, TAG_AGNT, *b"EMTY"]
        );
        assert_eq!(back.payload_len(), s.payload_len());
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(CheckpointError::BadMagic)
        ));
    }

    #[test]
    fn decode_rejects_wrong_version() {
        let mut bytes = sample().encode();
        bytes[4] = 99;
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(CheckpointError::UnsupportedVersion { found: 99 })
        ));
    }

    #[test]
    fn decode_rejects_every_truncation() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            let err = Snapshot::decode(&bytes[..cut]).expect_err("truncation must fail");
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated { .. } | CheckpointError::BadMagic
                ),
                "cut at {cut} gave {err}"
            );
        }
    }

    #[test]
    fn decode_rejects_bit_flips_in_payload() {
        let s = sample();
        let clean = s.encode();
        // flip one bit inside the META payload (after 12-byte header +
        // 16-byte section header)
        let mut bytes = clean.clone();
        bytes[12 + 16] ^= 0x40;
        match Snapshot::decode(&bytes) {
            Err(CheckpointError::ChecksumMismatch { section }) => assert_eq!(section, TAG_META),
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(CheckpointError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn decode_rejects_duplicate_tags() {
        // hand-craft two sections with the same tag
        let mut s = Snapshot::new();
        s.push(TAG_META, vec![1]);
        let mut bytes = s.encode();
        // bump the count to 2 and append a copy of the first section
        bytes[8] = 2;
        let section = bytes[12..].to_vec();
        bytes.extend_from_slice(&section);
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(CheckpointError::DuplicateSection { section: TAG_META })
        ));
    }

    #[test]
    #[should_panic(expected = "duplicate snapshot section")]
    fn push_rejects_duplicate_tag() {
        let mut s = Snapshot::new();
        s.push(TAG_META, vec![1]);
        s.push(TAG_META, vec![2]);
    }

    #[test]
    fn digest_skips_named_sections() {
        let a = sample();
        let mut b = sample();
        // mutate META only
        b.sections[0].1[0] ^= 0xFF;
        assert_ne!(a.digest(&[]), b.digest(&[]));
        assert_eq!(a.digest(&[TAG_META]), b.digest(&[TAG_META]));
    }

    #[test]
    fn atomic_write_and_read_roundtrip() {
        let dir = std::env::temp_dir().join(format!("ffcp-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap-step00000010.ckpt");
        let s = sample();
        s.write_atomic(&path).expect("atomic write");
        // no tmp residue
        assert!(!tmp_sibling(&path).exists());
        let back = Snapshot::read_file(&path).expect("read back");
        assert_eq!(back.encode(), s.encode());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn latest_valid_falls_back_past_corruption() {
        let dir = std::env::temp_dir().join(format!("ffcp-ladder-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let s = sample();
        // three checkpoints; corrupt the newest (bit flip) and truncate
        // the middle one — the ladder must land on the oldest
        s.write_atomic(&dir.join("run-step00000010.ckpt")).unwrap();
        s.write_atomic(&dir.join("run-step00000020.ckpt")).unwrap();
        s.write_atomic(&dir.join("run-step00000030.ckpt")).unwrap();
        let newest = dir.join("run-step00000030.ckpt");
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&newest, &bytes).unwrap();
        let middle = dir.join("run-step00000020.ckpt");
        let bytes = fs::read(&middle).unwrap();
        fs::write(&middle, &bytes[..bytes.len() / 2]).unwrap();
        // non-ckpt files are ignored entirely
        fs::write(dir.join("notes.txt"), b"not a checkpoint").unwrap();

        let scan = latest_valid(&dir).expect("directory readable");
        let (path, snap) = scan.snapshot.expect("oldest survives");
        assert!(path.ends_with("run-step00000010.ckpt"));
        assert_eq!(snap.section(TAG_META), Some(&[1u8, 2, 3, 4, 5][..]));
        assert_eq!(scan.rejected.len(), 2, "both bad files reported");
        assert!(scan.rejected[0].0.ends_with("run-step00000030.ckpt"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn latest_valid_empty_dir() {
        let dir = std::env::temp_dir().join(format!("ffcp-empty-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let scan = latest_valid(&dir).expect("directory readable");
        assert!(scan.snapshot.is_none());
        assert!(scan.rejected.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_is_an_io_error() {
        let dir = std::env::temp_dir().join(format!("ffcp-missing-{}", std::process::id()));
        assert!(checkpoint_files_newest_first(&dir).is_err());
        assert!(matches!(latest_valid(&dir), Err(CheckpointError::Io(_))));
    }

    #[test]
    fn error_display_is_precise() {
        for (err, needle) in [
            (CheckpointError::BadMagic, "FFCP"),
            (
                CheckpointError::UnsupportedVersion { found: 9 },
                "version 9",
            ),
            (
                CheckpointError::Truncated {
                    what: "section payload",
                },
                "section payload",
            ),
            (
                CheckpointError::ChecksumMismatch { section: TAG_AGNT },
                "AGNT",
            ),
            (CheckpointError::TrailingBytes { extra: 3 }, "3"),
            (
                CheckpointError::MissingSection { section: TAG_MRNG },
                "MRNG",
            ),
            (
                CheckpointError::Corrupt {
                    section: TAG_FLOD,
                    what: "roster index out of range",
                },
                "roster index",
            ),
            (
                CheckpointError::Incompatible {
                    what: "n: snapshot 10, sim 20".into(),
                },
                "snapshot 10",
            ),
            (CheckpointError::NoValidCheckpoint { rejected: 2 }, "2"),
        ] {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} lacks {needle:?}");
        }
    }
}
