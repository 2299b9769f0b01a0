//! Quickstart: build a MANET, flood it, inspect the paper's bound.
//!
//! Run with: `cargo run --release --example quickstart`

use fastflood::core::{EngineMode, FloodingSim, SimConfig, SimParams, SourcePlacement, ZoneMap};
use fastflood::mobility::Mrwp;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's standard setting: n agents on the square of side L = √n.
    // Radius a few multiples of the natural scale L·√(ln n / n); slow
    // mobility (v a fraction of R, per Theorem 3's assumption v ≤ R/c₂).
    let n = 4_000;
    let scale = SimParams::standard(n, 1.0, 0.0)?.radius_scale();
    let radius = 2.2 * scale;
    let params = SimParams::standard(n, radius, 0.2 * radius)?;

    println!("network: {params}");
    println!(
        "  Theorem 3 bound shape L/R + S/v  = {:.1} steps",
        params.flooding_time_bound()
    );
    println!(
        "  Theorem 10 central-zone bound    = {:.1} steps",
        params.central_zone_time_bound()
    );

    // The cell partition of §4: Central Zone vs Suburb.
    let zones = ZoneMap::new(&params)?;
    println!(
        "  zones: {} central cells, {} suburb cells (suburb mass {:.3})",
        zones.num_central(),
        zones.num_suburb(),
        zones.suburb_mass()
    );

    // Flood from an agent near the center, in the stationary phase
    // (perfect simulation — no warm-up). The transmit engine can be
    // pinned explicitly (Adaptive is the default; the brute-force Oracle
    // is lockstep-identical per seed and exists to test against — see
    // docs/ARCHITECTURE.md).
    let model = Mrwp::new(params.side(), params.speed())?;
    let mut sim = FloodingSim::new(
        model,
        SimConfig::new(params.n(), params.radius())
            .seed(2010)
            .source(SourcePlacement::Center)
            .engine(EngineMode::Adaptive),
    )?
    .with_zones(zones);

    let report = sim.run(200_000);
    println!("\nflooded: {report}");
    if let (Some(total), Some(cz), Some(sub)) = (
        report.flooding_time,
        report.central_zone_time,
        report.suburb_time,
    ) {
        println!("  central zone informed by step {cz}");
        println!("  suburb informed by step {sub}");
        println!(
            "  measured/bound ratio: {:.2}",
            f64::from(total) / params.flooding_time_bound()
        );
    }

    // The spread curve: how many agents know the message after each step.
    let spread = &report.spread;
    for &q in &[0.25, 0.5, 0.9, 1.0] {
        if let Some(t) = report.time_to_fraction(q) {
            println!("  {:>3.0}% informed by step {t}", q * 100.0);
        }
    }
    let _ = spread;
    Ok(())
}
