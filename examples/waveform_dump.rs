//! Physical-layer tour: the electrode pulse schedule that shuttles one
//! ion six cells down a channel (Figure 2).
//!
//! Run with `cargo run --example waveform_dump`.

use qic::physics::waveform::ShuttlePlan;
use qic::prelude::*;

fn main() {
    let times = OpTimes::ion_trap();

    // The Figure 2 shuttle: cell 3 to cell 9.
    println!("== electrode schedule for a 6-cell shuttle (Figure 2) ==");
    let schedule = ShuttlePlan::new(3, 9)
        .expect("distinct cells")
        .waveforms(&times);
    print!("{}", schedule.render());
    println!(
        "phases: {}, total {}, well trajectory {:?}",
        schedule.phases(),
        schedule.total_time(),
        schedule.well_trajectory()
    );
}
