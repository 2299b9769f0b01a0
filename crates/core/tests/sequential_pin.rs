//! Pins the sequential determinism class to fixed values.
//!
//! The agreement suites compare engine modes and thread counts with
//! each other, so a change that shifts every sequential trajectory the
//! same way passes them all; this test does not. For small sequential
//! sims it asserts the inform-time digest after 40 steps and the exact
//! `MRNG` (main stream) section of the snapshot. The main stream also
//! feeds parsimonious coins and gossip sampling, so a move pass that
//! prefetched main-stream words would keep the flooding digest but
//! shift the `MRNG` bytes and the other two protocols.
//!
//! The constants were recorded on the engine that still had a separate
//! main-stream move path, before the sequential class became the
//! one-chunk case of the chunked move; they must never need
//! re-recording unless the sequential sample is meant to change.

use fastflood_core::checkpoint::TAG_MRNG;
use fastflood_core::{FloodingSim, Protocol, SimConfig, SourcePlacement};
use fastflood_mobility::{Mobility, Mrwp, Rwp, SnapshotState};

const N: usize = 500;
const STEPS: usize = 40;

/// 64-bit FNV-1a over per-agent inform times (`u32::MAX` = never).
fn inform_digest<M: Mobility>(sim: &FloodingSim<M>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for a in 0..sim.n() {
        for b in sim.inform_time(a).unwrap_or(u32::MAX).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Runs `STEPS` sequential steps and returns `(informed, inform-time
/// digest, MRNG section as hex)`.
fn run<M>(model: M, protocol: Protocol) -> (usize, u64, String)
where
    M: Mobility,
    M::State: SnapshotState,
{
    let config = SimConfig::new(N, 1.5)
        .seed(2010)
        .source(SourcePlacement::Center)
        .protocol(protocol);
    let mut sim = FloodingSim::new(model, config).unwrap();
    for _ in 0..STEPS {
        sim.step();
    }
    let snap = sim.snapshot();
    let mrng = snap.section(TAG_MRNG).expect("MRNG section");
    let hex = mrng.iter().map(|b| format!("{b:02x}")).collect();
    (sim.informed_count(), inform_digest(&sim), hex)
}

fn mrwp() -> Mrwp {
    Mrwp::new(40.0, 0.5).unwrap()
}

#[track_caller]
fn assert_pinned(got: (usize, u64, String), informed: usize, digest: u64, mrng: &str) {
    assert_eq!(got, (informed, digest, mrng.to_string()));
}

#[test]
fn mrwp_flooding_is_pinned() {
    assert_pinned(
        run(mrwp(), Protocol::Flooding),
        468,
        11_583_269_107_531_815_288,
        "2000000000000000835aa5330089854fbe8238b82135fadc27a1f62a57b6654975d6aded1c73050a",
    );
}

#[test]
fn mrwp_parsimonious_is_pinned() {
    assert_pinned(
        run(mrwp(), Protocol::Parsimonious { p: 0.5 }),
        400,
        9_093_528_095_278_532_781,
        "20000000000000005f9f053f569cae36308444bced988c9d9709e1a76ed3fe832206b9b1c300d554",
    );
}

#[test]
fn mrwp_gossip_is_pinned() {
    assert_pinned(
        run(mrwp(), Protocol::Gossip { k: 2 }),
        458,
        1_057_376_141_084_439_092,
        "2000000000000000b5c808fb063ee6ceb377563a4a6a5fffd2293d8445f5679e99ba808fbe668873",
    );
}

#[test]
fn rwp_flooding_is_pinned() {
    let model = Rwp::new(40.0, 0.5).unwrap();
    assert_pinned(
        run(model, Protocol::Flooding),
        482,
        4_046_067_374_169_860_282,
        "2000000000000000f5d0aff92d4d5e17070abf4357987bd39dcf689c44b0eaae62b3d7d0274bb8bf",
    );
}
