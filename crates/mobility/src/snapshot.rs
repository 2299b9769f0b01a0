//! Byte-exact state serialization for the checkpoint/restore subsystem.
//!
//! Every mobility model implements [`SnapshotState`] for its per-agent
//! state so the flooding engine can freeze a run and later resume it
//! **bitwise-identically** — floats travel as raw IEEE-754 bits
//! ([`f64::to_bits`]), never through text, so `restore(snapshot_at_k)`
//! followed by stepping to `m` replays the exact trajectory of the
//! uninterrupted run. Derived quantities that a model can rebuild
//! deterministically from the serialized fields (e.g. the L-path corner
//! and leg lengths of [`LPath`](fastflood_geom::LPath)) are *not*
//! stored: [`LPath::new`](fastflood_geom::LPath::new) is a pure
//! function of `(start, dest, first_axis)`, so rebuilding is exact.
//!
//! The encoding is deliberately primitive — fixed-width little-endian
//! words with no self-description, plus LEB128 varints for values that
//! are usually small (position deltas) — because the snapshot container
//! (`fastflood-core`'s checkpoint format) owns versioning, checksums,
//! and section framing. [`SnapshotState::STATE_TAG`] feeds the
//! container's model fingerprint so a snapshot of one model is never
//! silently decoded as another.

use fastflood_geom::{Axis, Point};

/// Longest varint [`ByteWriter::put_var_u64`] writes: ⌈64 / 7⌉ bytes.
pub const MAX_VARINT_LEN: usize = 10;

/// Little-endian byte sink for snapshot payloads.
///
/// # Examples
///
/// ```
/// use fastflood_mobility::snapshot::{ByteReader, ByteWriter};
///
/// let mut w = ByteWriter::new();
/// w.put_u32(7);
/// w.put_f64(0.25);
/// let bytes = w.into_bytes();
/// let mut r = ByteReader::new(&bytes);
/// assert_eq!(r.get_u32(), Some(7));
/// assert_eq!(r.get_f64(), Some(0.25));
/// assert!(r.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Creates a writer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> ByteWriter {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Reserves room for at least `additional` more bytes, so a caller
    /// that learns its record size mid-write can allocate once.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Consumes the writer, returning the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its raw IEEE-754 bits (bitwise-exact, NaN
    /// payloads and signed zeros included).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `u64` as an unsigned LEB128 varint: seven bits per
    /// byte, low group first, the high bit set on every byte but the
    /// last. 1 byte below 128, at most [`MAX_VARINT_LEN`] bytes.
    pub fn put_var_u64(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Appends an `i64` zigzag-mapped (0, −1, 1, −2, … → 0, 1, 2, 3, …)
    /// and then as a [`ByteWriter::put_var_u64`] varint, so a value near
    /// zero of either sign takes one or two bytes.
    pub fn put_var_i64(&mut self, v: i64) {
        self.put_var_u64(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Appends a [`Point`] as two raw `f64`s.
    pub fn put_point(&mut self, p: Point) {
        self.put_f64(p.x);
        self.put_f64(p.y);
    }

    /// Appends an [`Axis`] as one byte (`X` = 0, `Y` = 1).
    pub fn put_axis(&mut self, a: Axis) {
        self.put_u8(match a {
            Axis::X => 0,
            Axis::Y => 1,
        });
    }

    /// Appends raw bytes verbatim (length is *not* prefixed; the caller
    /// owns framing).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed (`u64` LE) byte block.
    pub fn put_block(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.put_bytes(bytes);
    }

    /// Appends a `u64`-length-prefixed list of little-endian `u32`s.
    pub fn put_u32_list(&mut self, xs: &[u32]) {
        self.put_u64(xs.len() as u64);
        for &x in xs {
            self.put_u32(x);
        }
    }
}

/// Cursor over snapshot payload bytes; every getter returns `None` on
/// underrun instead of panicking, so truncated snapshots surface as
/// decode errors, never aborts.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> ByteReader<'a> {
        ByteReader { bytes, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Whether the reader is exhausted.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes the next `n` bytes, or `None` if fewer remain.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Some(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads an `f64` from raw IEEE-754 bits.
    pub fn get_f64(&mut self) -> Option<f64> {
        self.get_u64().map(f64::from_bits)
    }

    /// Reads a varint written by [`ByteWriter::put_var_u64`]. `None`
    /// when it is truncated, or overlong: longer than
    /// [`MAX_VARINT_LEN`] bytes, past 64 bits, or ending in a zero
    /// group that a minimal encoding would not write. So every `u64`
    /// has exactly one accepted encoding. A failed read consumes
    /// nothing.
    pub fn get_var_u64(&mut self) -> Option<u64> {
        let mut v = 0u64;
        for (i, &b) in self.bytes[self.pos..]
            .iter()
            .take(MAX_VARINT_LEN)
            .enumerate()
        {
            let group = u64::from(b & 0x7F);
            // the tenth byte holds bit 63 only
            if i == MAX_VARINT_LEN - 1 && b > 1 {
                return None;
            }
            v |= group << (7 * i);
            if b & 0x80 == 0 {
                if b == 0 && i > 0 {
                    return None;
                }
                self.pos += i + 1;
                return Some(v);
            }
        }
        None
    }

    /// Reads an `i64` written by [`ByteWriter::put_var_i64`], with the
    /// rejections of [`ByteReader::get_var_u64`].
    pub fn get_var_i64(&mut self) -> Option<i64> {
        let z = self.get_var_u64()?;
        Some((z >> 1) as i64 ^ -((z & 1) as i64))
    }

    /// Reads a [`Point`] (two raw `f64`s).
    pub fn get_point(&mut self) -> Option<Point> {
        let x = self.get_f64()?;
        let y = self.get_f64()?;
        Some(Point::new(x, y))
    }

    /// Reads an `f64` like [`ByteReader::get_f64`], but `None` when it
    /// is NaN or infinite (the word is consumed either way) — what
    /// trajectory state words must be.
    pub fn get_finite_f64(&mut self) -> Option<f64> {
        self.get_f64().filter(|v| v.is_finite())
    }

    /// Reads a [`Point`] whose coordinates must both be finite.
    pub fn get_finite_point(&mut self) -> Option<Point> {
        let x = self.get_finite_f64()?;
        let y = self.get_finite_f64()?;
        Some(Point::new(x, y))
    }

    /// Reads an [`Axis`]; `None` on underrun *or* an invalid code.
    pub fn get_axis(&mut self) -> Option<Axis> {
        match self.get_u8()? {
            0 => Some(Axis::X),
            1 => Some(Axis::Y),
            _ => None,
        }
    }

    /// Reads a length-prefixed block written by [`ByteWriter::put_block`].
    pub fn get_block(&mut self) -> Option<&'a [u8]> {
        let len = self.get_u64()?;
        let len = usize::try_from(len).ok()?;
        self.take(len)
    }

    /// Reads a list written by [`ByteWriter::put_u32_list`]; `None` on
    /// truncation or a length that cannot fit the remaining bytes.
    pub fn get_u32_list(&mut self) -> Option<Vec<u32>> {
        let len = usize::try_from(self.get_u64()?).ok()?;
        // a length longer than the bytes behind it cannot be honest, and
        // must not drive with_capacity
        if len > self.remaining() / 4 {
            return None;
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.get_u32()?);
        }
        Some(out)
    }
}

/// Per-agent mobility state that can round-trip through a checkpoint
/// **bitwise-exactly**: for every reachable state `s`,
/// `read_state(write_state(s)) == Some(s)` with all float fields equal
/// as raw bits, so a restored run's trajectories continue identically.
///
/// Implementations serialize only what cannot be rebuilt; deterministic
/// derived caches (path corners, leg lengths) are recomputed on read.
pub trait SnapshotState: Sized {
    /// Four-byte model tag mixed into the snapshot's model fingerprint,
    /// so a checkpoint of one model is rejected by another at decode
    /// time instead of producing garbage trajectories.
    const STATE_TAG: u32;

    /// Serializes this state into `w` (fixed layout per model).
    fn write_state(&self, w: &mut ByteWriter);

    /// Rebuilds a state written by [`SnapshotState::write_state`];
    /// `None` when the bytes are truncated or encode an invalid state,
    /// including any non-finite `f64` word (no reachable state has one,
    /// and stepping one would panic in the spatial index).
    fn read_state(r: &mut ByteReader<'_>) -> Option<Self>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mobility;

    #[test]
    fn writer_reader_roundtrip_primitives() {
        let mut w = ByteWriter::with_capacity(64);
        w.put_u8(9);
        w.put_u32(u32::MAX);
        w.put_u64(0xDEAD_BEEF_0123_4567);
        w.put_f64(-0.0);
        w.put_point(Point::new(1.5, -2.25));
        w.put_axis(Axis::Y);
        w.put_block(b"abc");
        assert!(!w.is_empty());
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8(), Some(9));
        assert_eq!(r.get_u32(), Some(u32::MAX));
        assert_eq!(r.get_u64(), Some(0xDEAD_BEEF_0123_4567));
        // -0.0 must survive as -0.0, not 0.0
        assert_eq!(r.get_f64().map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(r.get_point(), Some(Point::new(1.5, -2.25)));
        assert_eq!(r.get_axis(), Some(Axis::Y));
        assert_eq!(r.get_block(), Some(&b"abc"[..]));
        assert!(r.is_empty());
    }

    #[test]
    fn reader_underrun_returns_none() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.get_u32(), None);
        // a failed read consumes nothing
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.get_u8(), Some(1));
        assert_eq!(r.get_u64(), None);
        assert_eq!(r.take(2), Some(&[2u8, 3u8][..]));
        assert_eq!(r.get_u8(), None);
    }

    #[test]
    fn axis_rejects_bad_code() {
        let mut r = ByteReader::new(&[2]);
        assert_eq!(r.get_axis(), None);
    }

    #[test]
    fn block_rejects_truncation() {
        let mut w = ByteWriter::new();
        w.put_block(b"hello");
        let mut bytes = w.into_bytes();
        bytes.truncate(bytes.len() - 1);
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_block(), None);
    }

    #[test]
    fn u32_list_roundtrips_and_rejects_hostile_lengths() {
        let mut w = ByteWriter::new();
        w.put_u32_list(&[7, 0, u32::MAX]);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 8 + 3 * 4);
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u32_list(), Some(vec![7, 0, u32::MAX]));
        assert!(r.is_empty());
        // one element short, and a length no payload could back
        let short = &bytes[..bytes.len() - 4];
        assert_eq!(ByteReader::new(short).get_u32_list(), None);
        let huge = u64::MAX.to_le_bytes();
        assert_eq!(ByteReader::new(&huge).get_u32_list(), None);
    }

    #[test]
    fn varints_roundtrip_at_the_edges() {
        let unsigned = [0, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX];
        let signed = [0, 1, -1, 63, -64, 64, -65, i64::MAX, i64::MIN];
        let mut w = ByteWriter::new();
        unsigned.iter().for_each(|&v| w.put_var_u64(v));
        signed.iter().for_each(|&v| w.put_var_i64(v));
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        for &v in &unsigned {
            assert_eq!(r.get_var_u64(), Some(v));
        }
        for &v in &signed {
            assert_eq!(r.get_var_i64(), Some(v));
        }
        assert!(r.is_empty());
        // the lengths: zigzag keeps small values of either sign short
        let len = |v: i64| {
            let mut w = ByteWriter::new();
            w.put_var_i64(v);
            w.len()
        };
        assert_eq!([0, 1, -1, 63, -64].map(len), [1; 5]);
        assert_eq!([64, -65].map(len), [2; 2]);
        assert_eq!([i64::MAX, i64::MIN].map(len), [MAX_VARINT_LEN; 2]);
        let mut w = ByteWriter::new();
        w.put_var_u64(u64::MAX);
        assert_eq!(
            w.as_slice(),
            [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01]
        );
    }

    #[test]
    fn varints_reject_truncated_and_overlong_input() {
        let max = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        let rejects: [&[u8]; 7] = [
            // empty, and cut inside a varint
            &[],
            &[0x80],
            &max[..9],
            // an eleventh byte
            &[
                0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00,
            ],
            // past 64 bits in the tenth byte
            &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02],
            // non-minimal: a trailing zero group
            &[0x80, 0x00],
            &[0xFF, 0x80, 0x00],
        ];
        for bytes in rejects {
            let mut r = ByteReader::new(bytes);
            assert_eq!(r.get_var_u64(), None, "{bytes:02x?}");
            // a failed read consumes nothing
            assert_eq!(r.remaining(), bytes.len());
            assert_eq!(ByteReader::new(bytes).get_var_i64(), None, "{bytes:02x?}");
        }
        // the one accepted encoding of zero, and the longest one
        assert_eq!(ByteReader::new(&[0x00]).get_var_u64(), Some(0));
        assert_eq!(ByteReader::new(&max).get_var_u64(), Some(u64::MAX));
    }

    #[test]
    fn nan_bits_survive_exactly() {
        let weird = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        let mut w = ByteWriter::new();
        w.put_f64(weird);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_f64().map(f64::to_bits), Some(weird.to_bits()));
    }

    /// Roundtrips `steps`-aged stationary states of `model` through the
    /// snapshot encoding and checks the restored copy continues the
    /// trajectory identically under a cloned rng stream.
    fn roundtrip_continues<M>(model: M, steps: usize)
    where
        M: crate::Mobility,
        M::State: SnapshotState + PartialEq,
    {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(41);
        for trial in 0..32 {
            let mut st = model.init_stationary(&mut rng);
            for _ in 0..steps {
                model.step(&mut st, &mut rng);
            }
            let mut w = ByteWriter::new();
            st.write_state(&mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            let mut restored = M::State::read_state(&mut r).expect("valid state bytes");
            assert!(r.is_empty(), "trailing bytes after state read");
            assert!(restored == st, "trial {trial}: state changed in roundtrip");
            // the restored state must continue identically, bit for bit
            let mut ra = rng.clone();
            let mut rb = rng.clone();
            for k in 0..steps.max(4) {
                model.step(&mut st, &mut ra);
                model.step(&mut restored, &mut rb);
                assert_eq!(
                    model.position(&st).x.to_bits(),
                    model.position(&restored).x.to_bits(),
                    "trial {trial}, step {k}: x diverged"
                );
                assert_eq!(
                    model.position(&st).y.to_bits(),
                    model.position(&restored).y.to_bits(),
                    "trial {trial}, step {k}: y diverged"
                );
            }
        }
    }

    /// Like [`roundtrip_continues`], but ages and continues the states
    /// through the fused [`crate::Mobility::step_from`], whose leg cache
    /// a record keeps only as a warm bit: the re-encoded record must be
    /// byte-equal and the continuation bit-equal.
    fn fused_roundtrip_continues<M>(model: M, steps: usize)
    where
        M: crate::Mobility,
        M::State: SnapshotState + Clone,
    {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(43);
        for trial in 0..64 {
            let mut st = model.init_stationary(&mut rng);
            let mut p = model.position(&st);
            for _ in 0..trial % steps {
                p = model.step_from(&mut st, p, &mut rng).0;
            }
            let mut w = ByteWriter::new();
            st.write_state(&mut w);
            let bytes = w.into_bytes();
            let mut restored =
                M::State::read_state(&mut ByteReader::new(&bytes)).expect("valid state bytes");
            let mut again = ByteWriter::new();
            restored.write_state(&mut again);
            assert_eq!(again.as_slice(), &bytes[..], "trial {trial}");
            let (mut ra, mut rb) = (rng.clone(), rng.clone());
            let mut q = p;
            for k in 0..steps {
                p = model.step_from(&mut st, p, &mut ra).0;
                q = model.step_from(&mut restored, q, &mut rb).0;
                assert_eq!(
                    (p.x.to_bits(), p.y.to_bits()),
                    (q.x.to_bits(), q.y.to_bits()),
                    "trial {trial}, step {k}"
                );
            }
        }
    }

    #[test]
    fn fused_mrwp_and_mixture_records_continue_bitwise() {
        fused_roundtrip_continues(crate::Mrwp::new(50.0, 1.3).unwrap(), 40);
        fused_roundtrip_continues(crate::Mrwp::new(50.0, 2.0).unwrap().with_pause(3), 40);
        let mix = crate::Mixture::new(
            vec![
                crate::Mrwp::new(40.0, 0.3).unwrap(),
                crate::Mrwp::new(40.0, 1.9).unwrap().with_pause(2),
            ],
            vec![0.6, 0.4],
        )
        .unwrap();
        fused_roundtrip_continues(mix, 40);
    }

    #[test]
    fn mrwp_state_roundtrips_bitwise() {
        roundtrip_continues(crate::Mrwp::new(50.0, 1.3).unwrap(), 17);
        roundtrip_continues(crate::Mrwp::new(50.0, 2.0).unwrap().with_pause(3), 9);
    }

    #[test]
    fn rwp_state_roundtrips_bitwise() {
        roundtrip_continues(crate::Rwp::new(50.0, 1.7).unwrap(), 13);
    }

    #[test]
    fn disk_walk_state_roundtrips_bitwise() {
        roundtrip_continues(crate::DiskWalk::new(50.0, 1.1, 6.0).unwrap(), 13);
    }

    #[test]
    fn static_state_roundtrips_bitwise() {
        roundtrip_continues(
            crate::Static::new(50.0, crate::Placement::MrwpStationary).unwrap(),
            3,
        );
    }

    #[test]
    fn street_state_roundtrips_bitwise() {
        roundtrip_continues(crate::StreetMrwp::new(60.0, 2.1, 6).unwrap(), 11);
        roundtrip_continues(
            crate::StreetMrwp::new(60.0, 2.1, 6).unwrap().with_pause(2),
            11,
        );
    }

    #[test]
    fn mixture_state_roundtrips_bitwise() {
        let mix = crate::Mixture::new(
            vec![
                crate::Mrwp::new(40.0, 0.3).unwrap(),
                crate::Mrwp::new(40.0, 1.9).unwrap(),
            ],
            vec![0.6, 0.4],
        )
        .unwrap();
        roundtrip_continues(mix, 15);
    }

    #[test]
    fn state_tags_are_distinct() {
        use crate::{
            DiskWalkState, MixtureState, MrwpState, RwpState, StaticState, StreetMrwpState,
        };
        let tags = [
            MrwpState::STATE_TAG,
            RwpState::STATE_TAG,
            DiskWalkState::STATE_TAG,
            StaticState::STATE_TAG,
            StreetMrwpState::STATE_TAG,
            MixtureState::<MrwpState>::STATE_TAG,
        ];
        for i in 0..tags.len() {
            for j in i + 1..tags.len() {
                assert_ne!(tags[i], tags[j], "tag collision between {i} and {j}");
            }
        }
    }

    #[test]
    fn truncated_state_bytes_rejected() {
        use rand::SeedableRng;
        let model = crate::Mrwp::new(50.0, 1.0).unwrap();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let st = model.init_stationary(&mut rng);
        let mut w = ByteWriter::new();
        st.write_state(&mut w);
        let bytes = w.into_bytes();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(
                crate::MrwpState::read_state(&mut r).is_none(),
                "accepted a state truncated to {cut} bytes"
            );
        }
    }

    /// Writes a stationary state of `model`, then overwrites each `f64`
    /// word (at the byte offsets `words`, which must cover every one)
    /// with NaN, +inf and −inf in turn: each must be rejected.
    fn non_finite_words_rejected<M>(model: M, len: usize, words: &[usize])
    where
        M: crate::Mobility,
        M::State: SnapshotState,
    {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let mut w = ByteWriter::new();
        model.init_stationary(&mut rng).write_state(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), len, "state layout changed");
        assert!(M::State::read_state(&mut ByteReader::new(&bytes)).is_some());
        for &at in words {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut b = bytes.clone();
                b[at..at + 8].copy_from_slice(&bad.to_bits().to_le_bytes());
                assert!(
                    M::State::read_state(&mut ByteReader::new(&b)).is_none(),
                    "accepted {bad} at byte {at}"
                );
            }
        }
    }

    #[test]
    fn non_finite_state_words_rejected() {
        // start, dest, flags byte, s, pause u32
        non_finite_words_rejected(
            crate::Mrwp::new(50.0, 1.0).unwrap(),
            45,
            &[0, 8, 16, 24, 33],
        );
        // start, dest, s
        non_finite_words_rejected(crate::Rwp::new(50.0, 1.0).unwrap(), 40, &[0, 8, 16, 24, 32]);
        // start, dest, axis byte, s, pause u32
        non_finite_words_rejected(
            crate::StreetMrwp::new(60.0, 2.1, 6).unwrap(),
            45,
            &[0, 8, 16, 24, 33],
        );
        non_finite_words_rejected(
            crate::DiskWalk::new(50.0, 1.1, 6.0).unwrap(),
            40,
            &[0, 8, 16, 24, 32],
        );
        non_finite_words_rejected(
            crate::Static::new(50.0, crate::Placement::MrwpStationary).unwrap(),
            16,
            &[0, 8],
        );
    }
}
