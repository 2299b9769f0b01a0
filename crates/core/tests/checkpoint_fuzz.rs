//! Deterministic mutation fuzzing of the checkpoint input surface:
//! `Snapshot::decode` followed by `FloodingSim::restore`.
//!
//! A snapshot file is input from outside the process — a disk that
//! flipped bits, a writer killed mid-file, a directory another run
//! wrote into. Starting from valid snapshots of small simulations, a
//! seeded loop applies four kinds of damage:
//!
//! - **bit flips** anywhere in the encoded file;
//! - **truncations** at any byte;
//! - **splices**: sections swapped in from a second snapshot (a later
//!   step, or another run shape), added, or dropped;
//! - **re-framed payload edits**: a section's payload is edited and the
//!   snapshot re-encoded with a fresh CRC, so decode succeeds and
//!   `restore`'s own validation has to catch what is wrong; POSN's
//!   varints also get continuation-bit flips, inserted bytes and cut
//!   tails.
//!
//! Every outcome must be a clean `Ok` or a precise [`CheckpointError`]
//! naming what was wrong — never a panic. Where the damage pins the
//! answer down (a single flipped payload bit, a cut file) the exact
//! variant is asserted, and a rejected restore must leave the
//! simulation untouched.
//!
//! Accepted snapshots are not stepped here: restore rejects non-finite
//! trajectory words but does not yet check that per-agent states agree
//! with the positions, so a hostile but well-framed snapshot can still
//! fail later, inside `step`.

use fastflood_core::checkpoint::{
    Snapshot, TAG_AGNT, TAG_CRNG, TAG_FLOD, TAG_META, TAG_MRNG, TAG_POSN, TAG_TURN,
};
use fastflood_core::{
    CheckpointError, EngineMode, FloodingSim, Parallelism, Protocol, SimConfig, SourcePlacement,
};
use fastflood_mobility::{ByteReader, ByteWriter, Mrwp};

const SIDE: f64 = 30.0;
const SPEED: f64 = 0.5;
const RADIUS: f64 = 2.5;
const N: usize = 120;
/// Mutations per target run shape.
const ROUNDS: u32 = 2500;

const ALL_TAGS: [[u8; 4]; 7] = [
    TAG_META, TAG_MRNG, TAG_CRNG, TAG_AGNT, TAG_POSN, TAG_FLOD, TAG_TURN,
];

/// SplitMix64: a tiny seeded generator, so every mutation is
/// reproducible from the round number alone.
struct Fuzz(u64);

impl Fuzz {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn model() -> Mrwp {
    Mrwp::new(SIDE, SPEED).expect("valid model")
}

fn sequential() -> SimConfig {
    SimConfig::new(N, RADIUS)
        .seed(91)
        .source(SourcePlacement::Agent(0))
        .engine(EngineMode::Adaptive)
}

/// The other determinism class, with the optional sections (`CRNG`,
/// `TURN`) present.
fn chunked() -> SimConfig {
    sequential()
        .parallelism(Parallelism::Chunked { threads: 1 })
        .protocol(Protocol::Parsimonious { p: 0.8 })
        .record_turns(true)
}

/// A valid snapshot after `steps` steps, with a crash and a revival on
/// the way so the rosters carry fault surgery.
fn donor(cfg: &SimConfig, steps: u32) -> Snapshot {
    let mut sim = FloodingSim::new(model(), cfg.clone()).expect("valid config");
    for t in 0..steps {
        match t {
            2 => [5, 9, 33].into_iter().for_each(|a| sim.crash_agent(a)),
            5 => sim.revive_agent(9),
            _ => {}
        }
        sim.step();
    }
    sim.snapshot()
}

/// The section whose CRC field or payload holds byte `at` of `snap`'s
/// encoding (the two are adjacent: the CRC ends its 16-byte frame).
fn crc_or_payload_owner(snap: &Snapshot, at: usize) -> Option<[u8; 4]> {
    let mut pos = 12;
    for tag in snap.tags() {
        let end = pos + 16 + snap.section(tag).expect("listed").len();
        if (pos + 12..end).contains(&at) {
            return Some(tag);
        }
        pos = end;
    }
    None
}

fn is_decode_error(e: &CheckpointError) -> bool {
    matches!(
        e,
        CheckpointError::BadMagic
            | CheckpointError::UnsupportedVersion { .. }
            | CheckpointError::Truncated { .. }
            | CheckpointError::ChecksumMismatch { .. }
            | CheckpointError::TrailingBytes { .. }
            | CheckpointError::DuplicateSection { .. }
    )
}

/// Rebuilds `snap` with `tag`'s payload replaced (`Some`) or dropped
/// (`None`), keeping section order; a tag `snap` lacks is appended.
fn with_section(snap: &Snapshot, tag: [u8; 4], payload: Option<Vec<u8>>) -> Snapshot {
    let mut out = Snapshot::new();
    let mut placed = false;
    for t in snap.tags() {
        if t != tag {
            out.push(t, snap.section(t).expect("listed").to_vec());
        } else if let Some(p) = &payload {
            out.push(t, p.clone());
            placed = true;
        } else {
            placed = true;
        }
    }
    if let (false, Some(p)) = (placed, payload) {
        out.push(tag, p);
    }
    out
}

/// Edits a payload in place: flips, interesting words at aligned
/// offsets, length changes.
fn edit_payload(fz: &mut Fuzz, mut p: Vec<u8>) -> Vec<u8> {
    const WORDS: [u64; 8] = [
        0,
        1,
        N as u64 - 1,
        N as u64,
        u32::MAX as u64,
        u64::MAX,
        0x7FF0_0000_0000_0000, // +inf
        0x7FF8_0000_0000_0000, // NaN
    ];
    match fz.below(5) {
        0 if !p.is_empty() => {
            for _ in 0..1 + fz.below(3) {
                let i = fz.below(p.len());
                p[i] ^= 1 << fz.below(8);
            }
        }
        1 if p.len() >= 4 => {
            let i = fz.below(p.len() / 4) * 4;
            let w = WORDS[fz.below(WORDS.len())] as u32;
            p[i..i + 4].copy_from_slice(&w.to_le_bytes());
        }
        2 if p.len() >= 8 => {
            let i = fz.below(p.len() / 8) * 8;
            let w = WORDS[fz.below(WORDS.len())];
            p[i..i + 8].copy_from_slice(&w.to_le_bytes());
        }
        3 => {
            let cut = fz.below(p.len() + 1);
            p.truncate(cut);
        }
        _ => {
            for _ in 0..1 + fz.below(9) {
                p.push(fz.next() as u8);
            }
        }
    }
    p
}

/// Damages POSN's varints: sets or clears a continuation bit, inserts a
/// continuation byte (a non-minimal or overlong varint), or cuts the
/// tail inside a varint.
fn edit_varints(fz: &mut Fuzz, mut p: Vec<u8>) -> Vec<u8> {
    if p.is_empty() {
        return p;
    }
    match fz.below(3) {
        0 => {
            let i = fz.below(p.len());
            p[i] ^= 0x80;
        }
        1 => {
            for _ in 0..1 + fz.below(10) {
                let i = fz.below(p.len() + 1);
                p.insert(i, 0x80);
            }
        }
        _ => {
            let last = p.len() - 1;
            p[last] |= 0x80;
        }
    }
    p
}

/// Restores `snap` into `sim` and checks the outcome: a rejection must
/// be a restore-class error naming a real section, and must leave `sim`
/// exactly as it was. Returns whether the snapshot was accepted.
fn check_restore(sim: &mut FloodingSim<Mrwp>, snap: &Snapshot, what: &str) -> bool {
    let before = sim.snapshot().encode();
    match sim.restore(snap) {
        Ok(()) => true,
        Err(e) => {
            match &e {
                CheckpointError::MissingSection { section } => {
                    assert!(snap.section(*section).is_none(), "{what}: {e}")
                }
                CheckpointError::Corrupt { section, .. } => {
                    assert!(ALL_TAGS.contains(section), "{what}: {e}")
                }
                CheckpointError::Incompatible { .. } => {}
                other => panic!("{what}: restore gave a non-restore error {other:?}"),
            }
            assert!(!e.to_string().is_empty());
            assert_eq!(
                sim.snapshot().encode(),
                before,
                "{what}: rejected restore ({e}) touched the sim"
            );
            false
        }
    }
}

/// Runs `ROUNDS` mutations of `base` (a snapshot of `cfg`), splicing
/// from `donors`; returns how many mutated snapshots restored cleanly.
fn fuzz(cfg: &SimConfig, base: &Snapshot, donors: &[Snapshot], seed: u64) -> u32 {
    let mut fz = Fuzz(seed);
    let mut sim = FloodingSim::new(model(), cfg.clone()).expect("valid config");
    let clean = base.encode();
    let mut accepted = 0;
    for round in 0..ROUNDS {
        let what = format!("seed {seed} round {round}");
        // a fresh, valid state before every attempt
        sim.restore(base).expect("clean snapshot restores");
        let snap = match round % 4 {
            0 => {
                let mut bytes = clean.clone();
                let flips = 1 + fz.below(3);
                let mut hit = 0;
                for _ in 0..flips {
                    hit = fz.below(bytes.len());
                    bytes[hit] ^= 1 << fz.below(8);
                }
                let decoded = Snapshot::decode(&bytes);
                if flips == 1 {
                    // one flip in a payload or its CRC field pins the
                    // answer: that section fails its checksum
                    if let Some(tag) = crc_or_payload_owner(base, hit) {
                        match &decoded {
                            Err(CheckpointError::ChecksumMismatch { section }) => {
                                assert_eq!(*section, tag, "{what}")
                            }
                            other => panic!("{what}: flip at {hit} gave {other:?}"),
                        }
                    }
                }
                match decoded {
                    Ok(s) => s,
                    Err(e) => {
                        assert!(is_decode_error(&e), "{what}: {e:?}");
                        continue;
                    }
                }
            }
            1 => {
                let cut = fz.below(clean.len());
                match Snapshot::decode(&clean[..cut]) {
                    Err(CheckpointError::Truncated { .. }) => continue,
                    other => panic!("{what}: cut at {cut} gave {other:?}"),
                }
            }
            2 => {
                let donor = &donors[fz.below(donors.len())];
                let mut s = base.clone();
                for _ in 0..1 + fz.below(3) {
                    let tag = ALL_TAGS[fz.below(ALL_TAGS.len())];
                    // swap in the donor's section, or drop ours when
                    // the donor has none
                    s = with_section(&s, tag, donor.section(tag).map(<[u8]>::to_vec));
                }
                let back = Snapshot::decode(&s.encode()).expect("a splice is well-framed");
                assert_eq!(back.encode(), s.encode(), "{what}");
                back
            }
            _ => {
                let tags: Vec<_> = base.tags().collect();
                let tag = tags[fz.below(tags.len())];
                let payload = base.section(tag).expect("listed").to_vec();
                let edited = if tag == TAG_POSN && fz.below(2) == 0 {
                    edit_varints(&mut fz, payload)
                } else {
                    edit_payload(&mut fz, payload)
                };
                let s = with_section(base, tag, Some(edited));
                Snapshot::decode(&s.encode()).expect("a re-framed edit decodes")
            }
        };
        accepted += u32::from(check_restore(&mut sim, &snap, &what));
    }
    accepted
}

#[test]
fn mutated_snapshots_never_panic_and_fail_precisely() {
    let seq = [donor(&sequential(), 6), donor(&sequential(), 14)];
    let chk = [donor(&chunked(), 6), donor(&chunked(), 14)];
    let donors: Vec<Snapshot> = seq.iter().chain(&chk).cloned().collect();
    let seq_ok = fuzz(&sequential(), &seq[0], &donors, 0xF00D);
    let chk_ok = fuzz(&chunked(), &chk[0], &donors, 0xBEEF);
    // the loop must get past restore's validation too: some damage (a
    // position lane from another step, an edited inform time) passes it
    assert!(seq_ok > 0 && chk_ok > 0, "accepted {seq_ok} / {chk_ok}");
}

/// Turn timestamps later than the snapshot's own time cannot come from
/// a real run, and the next step would record behind them: restore
/// rejects them instead of leaving the recorder to panic mid-step.
#[test]
fn turn_stamps_after_the_snapshot_time_are_corrupt() {
    let early = donor(&chunked(), 6);
    let late = donor(&chunked(), 14);
    let spliced = with_section(&early, TAG_TURN, late.section(TAG_TURN).map(<[u8]>::to_vec));
    let mut sim = FloodingSim::new(model(), chunked()).expect("valid config");
    match sim.restore(&spliced) {
        Err(CheckpointError::Corrupt { section, .. }) => assert_eq!(section, TAG_TURN),
        other => panic!("expected a corrupt TURN section, got {other:?}"),
    }
    sim.restore(&early).expect("the clean snapshot restores");
    sim.step();
}

/// A NaN or infinite trajectory word in a well-framed AGNT section
/// (re-encoded with a fresh CRC) is `Corrupt` at restore, instead of a
/// panic in the next step's grid rebuild or position clamp.
#[test]
fn non_finite_trajectory_words_are_corrupt() {
    let snap = donor(&sequential(), 6);
    let agnt = snap.section(TAG_AGNT).expect("present");
    // AGNT opens with agent 0's MRWP state: start point, dest point,
    // axis byte, then the arc position `s`
    for (at, bad) in [(0, f64::NAN), (8, f64::INFINITY), (33, f64::NEG_INFINITY)] {
        let mut payload = agnt.to_vec();
        payload[at..at + 8].copy_from_slice(&bad.to_bits().to_le_bytes());
        let reframed = Snapshot::decode(&with_section(&snap, TAG_AGNT, Some(payload)).encode())
            .expect("a fresh CRC frames the edit");
        let mut sim = FloodingSim::new(model(), sequential()).expect("valid config");
        assert!(!check_restore(&mut sim, &reframed, "non-finite AGNT word"));
        match sim.restore(&reframed) {
            Err(CheckpointError::Corrupt { section, what }) => {
                assert_eq!((section, what), (TAG_AGNT, "invalid trajectory state"));
            }
            other => panic!("expected a corrupt AGNT section, got {other:?}"),
        }
    }
}

/// Restores `snap` with `tag`'s payload replaced, into a fresh sim, and
/// requires exactly `Corrupt { tag, what }`.
fn expect_corrupt(snap: &Snapshot, tag: [u8; 4], payload: Vec<u8>, what: &str) {
    let reframed = Snapshot::decode(&with_section(snap, tag, Some(payload)).encode())
        .expect("a fresh CRC frames the edit");
    let mut sim = FloodingSim::new(model(), sequential()).expect("valid config");
    assert!(!check_restore(&mut sim, &reframed, what));
    match sim.restore(&reframed) {
        Err(CheckpointError::Corrupt { section, what: got }) => {
            assert_eq!((section, got), (tag, what));
        }
        other => panic!("expected a corrupt section for {what:?}, got {other:?}"),
    }
}

/// Truncated or overlong POSN varints, decoded positions that are not
/// finite or lie outside the region, and flags bytes with unknown bits
/// are each a precise `Corrupt`.
#[test]
fn bad_varints_positions_and_flags_are_corrupt() {
    let snap = donor(&sequential(), 6);
    let posn = snap.section(TAG_POSN).expect("present").to_vec();
    // agent 0's x delta, and where its varint ends
    let mut r = ByteReader::new(&posn);
    let dx = r.get_var_i64().expect("a valid varint");
    let end = posn.len() - r.remaining();
    let with_first = |bytes: &[u8]| [bytes, &posn[end..]].concat();
    let varint = "truncated or overlong varint";

    let mut cut = posn.clone();
    cut.pop();
    expect_corrupt(&snap, TAG_POSN, cut, varint);
    let mut open = posn.clone();
    *open.last_mut().unwrap() |= 0x80;
    expect_corrupt(&snap, TAG_POSN, open, varint);
    let mut eleven = vec![0x80; 10];
    eleven.push(0x00);
    expect_corrupt(&snap, TAG_POSN, with_first(&eleven), varint);
    let mut padded = posn[..end].to_vec();
    *padded.last_mut().unwrap() |= 0x80;
    padded.push(0x00);
    expect_corrupt(&snap, TAG_POSN, with_first(&padded), varint);

    // agent 0's trajectory point: its real x minus the stored delta
    let mut sim = FloodingSim::new(model(), sequential()).expect("valid config");
    sim.restore(&snap).expect("clean snapshot restores");
    let base = (sim.positions()[0].x.to_bits() as i64).wrapping_sub(dx);
    let delta_to = |x: f64| {
        let mut w = ByteWriter::new();
        w.put_var_i64((x.to_bits() as i64).wrapping_sub(base));
        with_first(w.as_slice())
    };
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        expect_corrupt(&snap, TAG_POSN, delta_to(x), "non-finite position");
    }
    for x in [-1.0, SIDE + 1.0, 1e300] {
        expect_corrupt(&snap, TAG_POSN, delta_to(x), "position outside the region");
    }
    // the unchanged delta restores: the edits above are what was wrong
    let mut same = FloodingSim::new(model(), sequential()).expect("valid config");
    let back = Snapshot::decode(&with_section(&snap, TAG_POSN, Some(posn.clone())).encode());
    same.restore(&back.expect("decodes"))
        .expect("the clean POSN restores");

    // AGNT opens with agent 0's 45-byte MRWP record (its flags byte at
    // 32), then the agent's informed/crashed flags byte
    let agnt = snap.section(TAG_AGNT).expect("present");
    for (at, bits, what) in [
        (32, 0x04, "invalid trajectory state"),
        (32, 0x80, "invalid trajectory state"),
        (45, 0x04, "malformed informed/crashed flags"),
        (45, 0x80, "malformed informed/crashed flags"),
    ] {
        let mut payload = agnt.to_vec();
        payload[at] |= bits;
        expect_corrupt(&snap, TAG_AGNT, payload, what);
    }
}
