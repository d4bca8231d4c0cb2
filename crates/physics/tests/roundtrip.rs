//! Integration: an electrode schedule shuttled out and back must mirror
//! itself — the same phase count, the same time, and the reversed well
//! trajectory.

use qic_physics::optime::OpTimes;
use qic_physics::waveform::ShuttlePlan;

#[test]
fn waveform_out_and_back_mirrors_exactly() {
    let times = OpTimes::ion_trap();
    let out = ShuttlePlan::new(3, 9).unwrap().waveforms(&times);
    let back = ShuttlePlan::new(9, 3).unwrap().waveforms(&times);

    assert!(out.is_well_formed());
    assert!(back.is_well_formed());
    assert_eq!(out.phases(), back.phases());
    assert_eq!(out.total_time(), back.total_time());

    // The return trajectory is the reverse of the outbound one, shifted by
    // one cell (trajectories record the cell *after* each phase).
    let mut forward: Vec<u32> = std::iter::once(3).chain(out.well_trajectory()).collect();
    forward.reverse();
    let reverse: Vec<u32> = std::iter::once(9).chain(back.well_trajectory()).collect();
    assert_eq!(forward, reverse);
}
