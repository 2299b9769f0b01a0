//! The checkpoint/restore contract, property-tested:
//! `restore(snapshot_at_step_k)` followed by stepping to `m` is
//! **bitwise-identical** to the uninterrupted run — for every engine
//! mode, every parallelism mode within the snapshot's determinism
//! class, every thread count, with and without mid-flight fault
//! schedules (crashes, revivals, extra sources).

use fastflood_core::checkpoint::{self, Snapshot, TAG_FLOD, TAG_META, TAG_MRNG};
use fastflood_core::{
    CheckpointError, EngineMode, FloodingSim, Parallelism, Protocol, SimConfig, SourcePlacement,
};
use fastflood_mobility::{Mixture, Mobility, Mrwp, SnapshotState};
use rand::SnapshotRng;

const SIDE: f64 = 30.0;
const SPEED: f64 = 0.5;
const RADIUS: f64 = 2.5;
const N: usize = 200;

fn model() -> Mrwp {
    Mrwp::new(SIDE, SPEED).expect("valid model")
}

fn config(engine: EngineMode, par: Parallelism, protocol: Protocol, seed: u64) -> SimConfig {
    SimConfig::new(N, RADIUS)
        .seed(seed)
        // fixed source so the fault schedule can avoid it
        .source(SourcePlacement::Agent(0))
        .protocol(protocol)
        .engine(engine)
        .parallelism(par)
}

/// The deterministic fault schedule: applied *before* the step at the
/// named times, exactly like the scenario driver applies events. Agent
/// 0 is the source and is never touched.
fn apply_faults<M>(sim: &mut FloodingSim<M>)
where
    M: Mobility,
{
    match sim.time() {
        4 => {
            for a in [3usize, 17, 40] {
                sim.crash_agent(a);
            }
        }
        11 => sim.revive_agent(3),
        16 => sim.inform_agent(29),
        _ => {}
    }
}

/// One continuation step under the fault schedule, returning a bitwise
/// fingerprint of the post-step state.
fn step_fingerprint<M>(sim: &mut FloodingSim<M>, faults: bool) -> (Vec<(u64, u64)>, usize)
where
    M: Mobility,
{
    if faults {
        apply_faults(sim);
    }
    sim.step();
    let bits = sim
        .positions()
        .iter()
        .map(|p| (p.x.to_bits(), p.y.to_bits()))
        .collect();
    (bits, sim.informed_count())
}

/// Runs the contract for one configuration: an uninterrupted reference
/// run vs. a run that snapshots at step `k`, round-trips the snapshot
/// through the binary encoding, restores it into a **fresh** simulator,
/// and continues. Every post-`k` step must match bitwise.
fn assert_resume_identical(cfg: SimConfig, k: u32, m: u32, faults: bool) {
    let label = format!(
        "engine {:?}, par {:?}, proto {:?}, k {k}, faults {faults}",
        cfg.engine, cfg.parallelism, cfg.protocol
    );

    let mut reference = FloodingSim::new(model(), cfg.clone()).expect("valid config");
    let mut interrupted = FloodingSim::new(model(), cfg.clone()).expect("valid config");
    for _ in 0..k {
        step_fingerprint(&mut reference, faults);
        step_fingerprint(&mut interrupted, faults);
    }

    // freeze mid-run, cross the wire, thaw into a fresh simulator
    let snap = interrupted.snapshot();
    let decoded = Snapshot::decode(&snap.encode()).expect("encoding round-trips");
    let mut resumed = FloodingSim::new(model(), cfg).expect("valid config");
    resumed
        .restore(&decoded)
        .unwrap_or_else(|e| panic!("restore failed ({label}): {e}"));
    assert_eq!(resumed.time(), k, "{label}");

    for step in 0..m {
        let want = step_fingerprint(&mut reference, faults);
        let got = step_fingerprint(&mut resumed, faults);
        assert_eq!(
            got.1, want.1,
            "informed count diverged at +{step} ({label})"
        );
        assert_eq!(got.0, want.0, "positions diverged at +{step} ({label})");
    }
    assert_eq!(resumed.report(), reference.report(), "{label}");
}

const PAR_MODES: [Parallelism; 3] = [
    Parallelism::Sequential,
    Parallelism::Chunked { threads: 1 },
    Parallelism::Chunked { threads: 2 },
];

const PROTOCOLS: [Protocol; 3] = [
    Protocol::Flooding,
    Protocol::Parsimonious { p: 0.7 },
    Protocol::Gossip { k: 2 },
];

#[test]
fn resume_is_bitwise_identical_across_modes() {
    let mut idx = 0u64;
    for (p, par) in PAR_MODES.into_iter().enumerate() {
        for (q, protocol) in PROTOCOLS.into_iter().enumerate() {
            // the production engine meets every parallelism mode and
            // protocol pair; the oracle, a Latin square of them
            let oracle = q == (p + 1) % PROTOCOLS.len();
            for engine in [EngineMode::Adaptive, EngineMode::Oracle] {
                if engine == EngineMode::Oracle && !oracle {
                    continue;
                }
                // snapshot step varies per combination, straddling the
                // fault times (before, between, and after them)
                let k = 3 + (idx * 7 + 3) % 17;
                assert_resume_identical(
                    config(engine, par, protocol, 1000 + idx),
                    k as u32,
                    18,
                    true,
                );
                idx += 1;
            }
        }
    }
}

#[test]
fn resume_without_faults_matches_too() {
    assert_resume_identical(
        config(
            EngineMode::Adaptive,
            Parallelism::Chunked { threads: 2 },
            Protocol::Flooding,
            77,
        ),
        9,
        15,
        false,
    );
}

#[test]
fn resume_preserves_turn_recorder() {
    let cfg = config(
        EngineMode::Adaptive,
        Parallelism::Sequential,
        Protocol::Flooding,
        5,
    )
    .record_turns(true);
    let mut reference = FloodingSim::new(model(), cfg.clone()).expect("valid config");
    let mut interrupted = FloodingSim::new(model(), cfg.clone()).expect("valid config");
    for _ in 0..10 {
        reference.step();
        interrupted.step();
    }
    let snap = interrupted.snapshot();
    let mut resumed = FloodingSim::new(model(), cfg).expect("valid config");
    resumed.restore(&snap).expect("restore");
    for _ in 0..10 {
        reference.step();
        resumed.step();
    }
    let want = reference.turn_recorder().expect("recording on");
    let got = resumed.turn_recorder().expect("recording on");
    assert_eq!(
        got.max_in_window_per_agent(5),
        want.max_in_window_per_agent(5)
    );
}

/// Thread counts share one determinism class: a snapshot taken on a
/// two-thread pool restores into a one-thread simulator and the
/// continuation still matches the two-thread reference bitwise.
#[test]
fn snapshot_moves_within_the_chunked_class() {
    let chunked = config(
        EngineMode::Adaptive,
        Parallelism::Chunked { threads: 2 },
        Protocol::Flooding,
        42,
    );
    let single = config(
        EngineMode::Adaptive,
        Parallelism::Chunked { threads: 1 },
        Protocol::Flooding,
        42,
    );

    let mut reference = FloodingSim::new(model(), chunked.clone()).expect("valid config");
    let mut donor = FloodingSim::new(model(), chunked).expect("valid config");
    for _ in 0..8 {
        reference.step();
        donor.step();
    }
    let mut resumed = FloodingSim::new(model(), single).expect("valid config");
    resumed.restore(&donor.snapshot()).expect("same class");
    for step in 0..12 {
        reference.step();
        resumed.step();
        let want: Vec<_> = reference
            .positions()
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect();
        let got: Vec<_> = resumed
            .positions()
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect();
        assert_eq!(got, want, "two threads -> one diverged at +{step}");
    }
    assert_eq!(resumed.report(), reference.report());
}

#[test]
fn resume_spans_multiple_move_chunks() {
    // > MOVE_CHUNK agents so the per-chunk CRNG section holds several
    // independent streams
    let cfg = SimConfig::new(5000, 3.0)
        .seed(9)
        .source(SourcePlacement::Agent(0))
        .parallelism(Parallelism::Chunked { threads: 2 });
    let model = Mrwp::new(70.0, SPEED).expect("valid model");
    let mut reference = FloodingSim::new(model.clone(), cfg.clone()).expect("valid config");
    let mut interrupted = FloodingSim::new(model.clone(), cfg.clone()).expect("valid config");
    for _ in 0..4 {
        reference.step();
        interrupted.step();
    }
    let mut resumed = FloodingSim::new(model, cfg).expect("valid config");
    resumed.restore(&interrupted.snapshot()).expect("restore");
    for _ in 0..4 {
        reference.step();
        resumed.step();
    }
    assert_eq!(
        reference
            .positions()
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect::<Vec<_>>(),
        resumed
            .positions()
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect::<Vec<_>>(),
    );
    assert_eq!(resumed.report(), reference.report());
}

#[test]
fn mixture_snapshots_carry_speed_classes() {
    let mix = Mixture::new(
        vec![
            Mrwp::new(SIDE, 0.2).expect("ok"),
            Mrwp::new(SIDE, 1.2).expect("ok"),
        ],
        vec![0.6, 0.4],
    )
    .expect("valid mixture");
    let cfg = SimConfig::new(120, RADIUS)
        .seed(3)
        .source(SourcePlacement::Agent(0));
    let mut reference = FloodingSim::new(mix.clone(), cfg.clone()).expect("valid config");
    let mut interrupted = FloodingSim::new(mix.clone(), cfg.clone()).expect("valid config");
    for _ in 0..6 {
        reference.step();
        interrupted.step();
    }
    let mut resumed = FloodingSim::new(mix, cfg).expect("valid config");
    resumed.restore(&interrupted.snapshot()).expect("restore");
    for _ in 0..10 {
        reference.step();
        resumed.step();
    }
    assert_eq!(
        reference
            .positions()
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect::<Vec<_>>(),
        resumed
            .positions()
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect::<Vec<_>>(),
    );
}

/// Re-freezing a thawed simulator reproduces the identical byte stream:
/// snapshot → restore → snapshot is the identity on encodings.
#[test]
fn snapshot_restore_snapshot_is_identity() {
    let cfg = config(
        EngineMode::Adaptive,
        Parallelism::Chunked { threads: 2 },
        Protocol::Parsimonious { p: 0.5 },
        13,
    );
    let mut sim = FloodingSim::new(model(), cfg.clone()).expect("valid config");
    for _ in 0..12 {
        sim.step();
    }
    let first = sim.snapshot();
    let mut thawed = FloodingSim::new(model(), cfg).expect("valid config");
    thawed.restore(&first).expect("restore");
    assert_eq!(thawed.snapshot().encode(), first.encode());
}

// ---- graceful rejection -------------------------------------------------

fn donor_snapshot(cfg: &SimConfig) -> Snapshot {
    let mut sim = FloodingSim::new(model(), cfg.clone()).expect("valid config");
    for _ in 0..5 {
        sim.step();
    }
    sim.snapshot()
}

#[test]
fn restore_rejects_incompatible_runs() {
    let base = config(
        EngineMode::Adaptive,
        Parallelism::Sequential,
        Protocol::Flooding,
        21,
    );
    let snap = donor_snapshot(&base);

    // a sim that differs in exactly one identity field must refuse
    let mismatches: Vec<(&str, SimConfig)> = vec![
        ("seed", base.clone().seed(22)),
        (
            "radius",
            SimConfig::new(N, RADIUS * 2.0)
                .seed(21)
                .source(SourcePlacement::Agent(0)),
        ),
        ("protocol", base.clone().protocol(Protocol::Gossip { k: 1 })),
        ("turns", base.clone().record_turns(true)),
        (
            "class",
            base.clone()
                .parallelism(Parallelism::Chunked { threads: 1 }),
        ),
    ];
    for (what, cfg) in mismatches {
        let mut sim = FloodingSim::new(model(), cfg).expect("valid config");
        match sim.restore(&snap) {
            Err(CheckpointError::Incompatible { .. }) => {}
            other => panic!("{what}: expected Incompatible, got {other:?}"),
        }
        assert_eq!(sim.time(), 0, "{what}: sim must be untouched on error");
    }

    // population size mismatch
    let mut small =
        FloodingSim::new(model(), SimConfig::new(50, RADIUS).seed(21)).expect("valid config");
    assert!(matches!(
        small.restore(&snap),
        Err(CheckpointError::Incompatible { .. })
    ));

    // different mobility model (fingerprint): same n/seed/radius, other speed
    let other = Mrwp::new(SIDE, SPEED * 2.0).expect("valid model");
    let mut sim = FloodingSim::new(other, base.clone()).expect("valid config");
    assert!(matches!(
        sim.restore(&snap),
        Err(CheckpointError::Incompatible { .. })
    ));

    // engine mode is NOT identity: restoring into another engine works
    let mut sim = FloodingSim::new(model(), base.engine(EngineMode::Oracle)).expect("valid");
    sim.restore(&snap).expect("engines are interchangeable");
}

/// Rebuilds a snapshot with one section's payload swapped.
fn with_section(snap: &Snapshot, tag: [u8; 4], payload: Vec<u8>) -> Snapshot {
    let mut out = Snapshot::new();
    for t in snap.tags() {
        if t == tag {
            out.push(t, payload.clone());
        } else {
            out.push(t, snap.section(t).expect("listed").to_vec());
        }
    }
    out
}

/// Engine codes 1, 3 and 4 named three retired engine modes. Only
/// version-1 files carried them, and those no longer decode, so restore
/// rejects them as `Corrupt`, like any other unknown code, and leaves
/// the sim as it was. The two live codes still restore either way.
#[test]
fn retired_engine_codes_are_corrupt() {
    // META opens with n, seed, radius (8 bytes each), time (4), source
    // and informed count (8 each), join steps (4), protocol tag (1) and
    // parameter (8); the engine byte follows
    const ENGINE_BYTE: usize = 57;
    let cfg = config(
        EngineMode::Adaptive,
        Parallelism::Sequential,
        Protocol::Flooding,
        21,
    );
    let mut reference = FloodingSim::new(model(), cfg.clone()).expect("valid config");
    let mut interrupted = FloodingSim::new(model(), cfg.clone()).expect("valid config");
    for _ in 0..6 {
        reference.step();
        interrupted.step();
    }
    let snap = interrupted.snapshot();
    let meta = snap.section(TAG_META).expect("present").to_vec();
    assert_eq!(meta[ENGINE_BYTE], 0, "Adaptive's code sits at the offset");

    let patch = |code: u8| {
        let mut patched = meta.clone();
        patched[ENGINE_BYTE] = code;
        with_section(&snap, TAG_META, patched)
    };
    // Adaptive (0) and Oracle (2)
    for code in [0u8, 2] {
        let mut sim = FloodingSim::new(model(), cfg.clone()).expect("valid config");
        sim.restore(&patch(code))
            .unwrap_or_else(|e| panic!("engine code {code} must restore: {e}"));
    }
    for code in [1u8, 3, 4, 5, u8::MAX] {
        match interrupted.restore(&patch(code)) {
            Err(CheckpointError::Corrupt { section, what }) => {
                assert_eq!((section, what), (TAG_META, "unknown engine code"));
            }
            other => panic!("engine code {code} must be corrupt: {other:?}"),
        }
    }

    // the rejected restores left the sim untouched
    for step in 0..15 {
        reference.step();
        interrupted.step();
        let bits = |sim: &FloodingSim<Mrwp>| -> Vec<_> {
            sim.positions()
                .iter()
                .map(|p| (p.x.to_bits(), p.y.to_bits()))
                .collect()
        };
        assert_eq!(bits(&interrupted), bits(&reference), "diverged at +{step}");
    }
    assert_eq!(interrupted.report(), reference.report());
}

#[test]
fn restore_rejects_corrupt_sections() {
    let base = config(
        EngineMode::Adaptive,
        Parallelism::Sequential,
        Protocol::Flooding,
        33,
    );
    let snap = donor_snapshot(&base);
    let mut sim = FloodingSim::new(model(), base).expect("valid config");

    // an all-zero xoshiro state is the generator's fixed point and is
    // rejected as an invalid stream
    let mrng = snap.section(TAG_MRNG).expect("present").to_vec();
    let mut zeroed = mrng.clone();
    for b in &mut zeroed[8..] {
        *b = 0;
    }
    let bad = with_section(&snap, TAG_MRNG, zeroed);
    assert!(matches!(
        sim.restore(&bad),
        Err(CheckpointError::Corrupt { section, .. }) if section == TAG_MRNG
    ));

    // a roster that disagrees with the informed flags
    let flod = snap.section(TAG_FLOD).expect("present").to_vec();
    let mut swapped = flod.clone();
    // first live-uninformed entry lives right after the u64 length prefix
    swapped[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    let bad = with_section(&snap, TAG_FLOD, swapped);
    assert!(matches!(
        sim.restore(&bad),
        Err(CheckpointError::Corrupt { section, .. }) if section == TAG_FLOD
    ));

    // restore keeps only the live-uninformed list's length, as the count
    // behind `all_informed`: a list that is not exactly the live
    // uninformed agents, ascending, must not get that far
    let len = u64::from_le_bytes(flod[..8].try_into().unwrap());
    assert!(len >= 2, "the donor must leave two live uninformed agents");
    // one live uninformed agent missing, the length prefix adjusted
    let mut short = (len - 1).to_le_bytes().to_vec();
    short.extend_from_slice(&flod[12..]);
    // two entries out of order
    let mut unordered = flod.clone();
    unordered[8..16].copy_from_slice(&[&flod[12..16], &flod[8..12]].concat());
    for mutated in [short, unordered] {
        let bad = with_section(&snap, TAG_FLOD, mutated);
        assert!(matches!(
            sim.restore(&bad),
            Err(CheckpointError::Corrupt { section, .. }) if section == TAG_FLOD
        ));
    }

    // a missing required section
    let mut partial = Snapshot::new();
    for t in snap.tags().filter(|&t| t != TAG_MRNG) {
        partial.push(t, snap.section(t).expect("listed").to_vec());
    }
    assert!(matches!(
        sim.restore(&partial),
        Err(CheckpointError::MissingSection { section }) if section == TAG_MRNG
    ));

    // the sim is pristine after all those rejections: it still resumes
    sim.restore(&snap).expect("clean snapshot restores");
    assert_eq!(sim.time(), 5);
}

/// The per-agent state tags keep models apart even through the mixture
/// wrapper, and the snapshot exposes them for tooling.
#[test]
fn fingerprint_tags_are_model_specific() {
    use fastflood_mobility::{MixtureState, MrwpState};
    assert_ne!(
        <MrwpState as SnapshotState>::STATE_TAG,
        <MixtureState<MrwpState> as SnapshotState>::STATE_TAG
    );
}

/// End-to-end durability: atomic write, directory fallback ladder.
#[test]
fn checkpoint_directory_ladder_survives_corruption() {
    let dir = std::env::temp_dir().join(format!("ffcp-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let cfg = config(
        EngineMode::Adaptive,
        Parallelism::Sequential,
        Protocol::Flooding,
        55,
    );
    let mut reference = FloodingSim::new(model(), cfg.clone()).expect("valid config");
    let mut sim = FloodingSim::new(model(), cfg.clone()).expect("valid config");
    for step in 1..=9u32 {
        reference.step();
        sim.step();
        if step % 3 == 0 {
            sim.snapshot()
                .write_atomic(&dir.join(format!("run-step{step:08}.ckpt")))
                .expect("write");
        }
    }
    // truncate the newest checkpoint: the ladder must fall back to step 6
    let newest = dir.join("run-step00000009.ckpt");
    let bytes = std::fs::read(&newest).expect("read");
    std::fs::write(&newest, &bytes[..bytes.len() - 7]).expect("truncate");

    let scan = checkpoint::latest_valid(&dir).expect("scan");
    let (path, snap) = scan.snapshot.expect("step 6 survives");
    assert!(path.ends_with("run-step00000006.ckpt"));
    assert_eq!(scan.rejected.len(), 1);

    let mut resumed = FloodingSim::new(model(), cfg).expect("valid config");
    resumed.restore(&snap).expect("restore from disk");
    assert_eq!(resumed.time(), 6);
    // replay past the crash point and on: must track the reference
    for _ in 6..9 {
        resumed.step();
    }
    for _ in 0..5 {
        reference.step();
        resumed.step();
    }
    assert_eq!(
        reference
            .positions()
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect::<Vec<_>>(),
        resumed
            .positions()
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect::<Vec<_>>(),
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The vendored generators expose exact-state serialization; sanity-check
/// the trait surface the checkpoint layer builds on.
#[test]
fn snapshot_rng_roundtrip_surface() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(7);
    let _: u64 = rng.gen();
    let bytes = rng.state_bytes();
    let mut back = SmallRng::from_state_bytes(&bytes).expect("valid state");
    assert_eq!(rng.gen::<u64>(), back.gen::<u64>());
    assert!(SmallRng::from_state_bytes(&[0u8; 32]).is_none());
}
