//! Versioned, per-section-checksummed snapshot container for
//! checkpoint/restore.
//!
//! A [`Snapshot`] is an ordered list of tagged byte sections. The binary
//! encoding is:
//!
//! ```text
//! "FFCP"  magic (4 bytes)
//! u32 LE  format version (currently 2)
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
//! The checksum is a four-lane slicing-by-16 CRC-32: sixteen input
//! bytes per step through sixteen lookup tables built at compile time,
//! where the textbook loop chains one dependent lookup per byte, on
//! four quarters of the payload at once, whose registers are then
//! joined in GF(2) as zlib's `crc32_combine` joins two CRCs. The value
//! is the plain CRC-32 of the payload. Writes and resumes share it.
//!
//! Version 2 (the current one) stores the same engine state as version
//! 1 in about half the bytes: positions as varint deltas from each
//! agent's trajectory point, the MRWP leg cache as one bit, and no
//! live-uninformed list (see `docs/ARCHITECTURE.md`, "Checkpoint &
//! recovery contract", for the table). A version-1 file is
//! [`CheckpointError::UnsupportedVersion`], so a resume ladder passes
//! over it and the run starts fresh.
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
pub const FORMAT_VERSION: u32 = 2;

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
/// Per-agent trajectory states plus an informed/crashed flags byte and
/// the inform time.
pub const TAG_AGNT: [u8; 4] = *b"AGNT";
/// Per-agent positions, each coordinate a zigzag varint of its IEEE-754
/// bits minus those of the agent's trajectory point (positions
/// accumulate incrementally in the move kernel, so they are state, not
/// derivable, but they stay within a few ulps of it).
pub const TAG_POSN: [u8; 4] = *b"POSN";
/// Flood curve and roster: the spread curve, then the transmitter roster
/// (in roster order — coin order and gossip visitation depend on it).
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
                CRC_POLY ^ (c >> 1)
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

/// Reflected CRC-32 polynomial (IEEE 802.3).
const CRC_POLY: u32 = 0xEDB8_8320;

/// Inputs at least this long run on four lanes: one 16-byte block
/// for each.
const LANES_MIN: usize = 4 * 16;

/// CRC-32 (IEEE 802.3 polynomial) of `bytes` — the per-section checksum.
///
/// Slicing-by-16 (sixteen bytes per step through sixteen lookup
/// tables) on four lanes: the input splits into four quarters, the
/// loop folds one block of each per step, so four independent register
/// chains overlap where one would wait on its own lookups, and the
/// quarters' registers are joined as zlib's `crc32_combine` joins two
/// CRCs (a multiplication in GF(2)). The value is the classic reflected
/// CRC-32 (`crc32(b"123456789") == 0xCBF4_3926`).
pub fn crc32(bytes: &[u8]) -> u32 {
    if bytes.len() < LANES_MIN {
        return !crc_update(!0, bytes);
    }
    // three whole-block quarters; the last lane also takes the tail
    let q = bytes.len() / LANES_MIN * 16;
    let (a, rest) = bytes.split_at(q);
    let (b, rest) = rest.split_at(q);
    let (c, d) = rest.split_at(q);
    // lane 0 starts from the CRC's initial register, the others from
    // zero: by linearity, the register after `x ‖ y` is that after `x`
    // shifted over |y| zero bytes, xor the zero-started register of `y`
    let mut r = [!0u32, 0, 0, 0];
    let lanes = a
        .chunks_exact(16)
        .zip(b.chunks_exact(16))
        .zip(c.chunks_exact(16));
    for (((x0, x1), x2), x3) in lanes.zip(d.chunks_exact(16)) {
        r[0] = fold16(r[0], x0);
        r[1] = fold16(r[1], x1);
        r[2] = fold16(r[2], x2);
        r[3] = fold16(r[3], x3);
    }
    r[3] = crc_update(r[3], &d[q..]);
    let shift_q = x8n_mod_p(q);
    let mut joined = mul_mod_p(shift_q, r[0]) ^ r[1];
    joined = mul_mod_p(shift_q, joined) ^ r[2];
    !(mul_mod_p(x8n_mod_p(d.len()), joined) ^ r[3])
}

/// Feeds `bytes` to the raw (not pre- or post-inverted) CRC register
/// `c`: whole 16-byte blocks by slicing, then a bytewise tail.
fn crc_update(mut c: u32, bytes: &[u8]) -> u32 {
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        c = fold16(c, b);
    }
    for &b in blocks.remainder() {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Folds one 16-byte block into the raw register `c` with sixteen
/// independent table lookups.
#[inline(always)]
fn fold16(c: u32, b: &[u8]) -> u32 {
    let t = &CRC_SLICES;
    let b: &[u8; 16] = b.try_into().expect("a 16-byte block");
    let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    t[15][(lo & 0xFF) as usize]
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
        ^ t[0][b[15] as usize]
}

/// `a · b` modulo the CRC polynomial, both in the reflected bit order
/// (bit 31 is x⁰).
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0;
    while m != 0 {
        if a & m != 0 {
            p ^= b;
        }
        m >>= 1;
        b = if b & 1 != 0 {
            (b >> 1) ^ CRC_POLY
        } else {
            b >> 1
        };
    }
    p
}

/// `X2N[k]` = x^(2^k) modulo the CRC polynomial, reflected. Squaring
/// cycles with period 32 (x^(2^32) = x modulo this polynomial), so
/// `X2N[k & 31]` serves every k, as in zlib.
const X2N: [u32; 32] = x2n_table();

const fn x2n_table() -> [u32; 32] {
    let mut t = [0u32; 32];
    // x¹
    let mut p = 1u32 << 30;
    let mut k = 0;
    while k < 32 {
        t[k] = p;
        p = mul_mod_p(p, p);
        k += 1;
    }
    t
}

/// x^(8·n) modulo the CRC polynomial, reflected. Multiplying a raw
/// register by it feeds the register n zero bytes — zlib's
/// `crc32_combine` step, in O(log n) instead of O(n).
fn x8n_mod_p(n: usize) -> u32 {
    // x⁰
    let mut p = 1u32 << 31;
    let mut n = n as u64;
    // 8·n = n · 2³: start at x^(2^3)
    let mut k = 3;
    while n != 0 {
        if n & 1 != 0 {
            p = mul_mod_p(X2N[k & 31], p);
        }
        n >>= 1;
        k += 1;
    }
    p
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

    /// The byte-at-a-time CRC-32 the four-lane version must agree with.
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
    fn four_lane_crc32_matches_bytewise_at_lane_boundaries() {
        let buf = noise(1 << 16, 4);
        // below, at and past the four-lane minimum, a page and one
        for len in [0, 1, 15, 16, 63, 64, 65, 79, 127, 128, 4095, 4096, 4097] {
            assert_eq!(crc32(&buf[..len]), crc32_bytewise(&buf[..len]), "len {len}");
        }
        // a seeded sweep of lengths and unaligned starts
        let mut x = 0x5EEDu64;
        for _ in 0..300 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let start = (x >> 60) as usize;
            let len = (x >> 20) as usize % (buf.len() - 16);
            let slice = &buf[start..start + len];
            assert_eq!(
                crc32(slice),
                crc32_bytewise(slice),
                "start {start} len {len}"
            );
        }
    }

    #[test]
    fn shifting_a_register_feeds_it_zero_bytes() {
        // squaring x^(2^k) cycles with period 32, which X2N[k & 31] uses
        assert_eq!(mul_mod_p(X2N[31], X2N[31]), X2N[0]);
        let zeros = [0u8; 300];
        for c in [0, 1, 0xDEAD_BEEF, !0] {
            for len in [0, 1, 7, 16, 255, 300] {
                let shifted = mul_mod_p(x8n_mod_p(len), c);
                assert_eq!(shifted, crc_update(c, &zeros[..len]), "{c:#x} {len}");
            }
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
