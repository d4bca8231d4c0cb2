//! Purification planner: provision the purification subsystem for a
//! machine, comparing protocols and placement strategies.
//!
//! Run with `cargo run --example purification_planner [hops]`.

use qic::prelude::*;
use qic_analytic::plan::ChannelModel;
use qic_analytic::strategy::PurifyPlacement;
use qic_physics::bell::BellDiagonal;

fn main() {
    let hops: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30);
    println!("provisioning a {hops}-hop channel (hop = 600 cells)\n");

    // Protocol choice: DEJMPS vs BBPSSW round counts from a raw link.
    let noise = RoundNoise::ion_trap();
    let raw = qic_analytic::link::raw_link_state(600, &ErrorRates::ion_trap());
    println!("raw link pair error: {:.2e}", raw.error());
    let arriving = BellDiagonal::werner_f64(1.0 - (f64::from(hops) * raw.error()).min(0.5))
        .expect("valid fidelity");
    println!(
        "== protocol comparison (from Werner error {:.2e}) ==",
        arriving.error()
    );
    for protocol in Protocol::ALL {
        match rounds_to_reach(protocol, arriving, constants::THRESHOLD_ERROR, &noise, 64) {
            Some(r) => {
                let (pairs, out) = pairs_for_rounds(protocol, arriving, r, &noise);
                println!(
                    "  {protocol:<7}: {r} rounds, {pairs:.1} raw pairs per output, final error {:.1e}",
                    out.error()
                );
            }
            None => println!("  {protocol:<7}: cannot reach threshold"),
        }
    }

    // PurifyPlacement comparison at this distance.
    println!("\n== placement comparison at {hops} hops ==");
    let base = ChannelModel::ion_trap();
    println!(
        "  {:<40} {:>8} {:>12} {:>12}",
        "placement", "rounds", "teleported", "total"
    );
    for placement in PurifyPlacement::FIGURE_SET {
        let model = base.clone().with_placement(placement);
        match model.plan(hops) {
            Ok(plan) => println!(
                "  {:<40} {:>8} {:>12.1} {:>12.3e}",
                placement.legend(),
                plan.endpoint_rounds,
                plan.teleported_pairs,
                plan.total_pairs
            ),
            Err(e) => println!("  {:<40} infeasible: {e}", placement.legend()),
        }
    }
}
