//! Property-based tests for purification: the closed-form recurrences
//! must agree with the independent Pauli-frame circuit simulation on all
//! inputs, and outputs must stay physical.

use proptest::prelude::*;

use qic_physics::bell::BellDiagonal;
use qic_purify::frame::{simulate, PreRotation};
use qic_purify::protocol::{Protocol, RoundNoise};

fn bell_diagonal() -> impl Strategy<Value = BellDiagonal> {
    (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64)
        .prop_filter("non-degenerate", |(a, b, c, d)| a + b + c + d > 1e-6)
        .prop_map(|(a, b, c, d)| {
            let sum = a + b + c + d;
            BellDiagonal::new([a / sum, b / sum, c / sum, d / sum]).expect("valid")
        })
}

proptest! {
    #[test]
    fn dejmps_recurrence_equals_frame_simulation(
        kept in bell_diagonal(),
        sacrificed in bell_diagonal(),
    ) {
        let formula = Protocol::Dejmps.step_asymmetric(&kept, &sacrificed);
        let sim = simulate(&kept, &sacrificed, PreRotation::Dejmps);
        prop_assert!((formula.success_prob - sim.success_prob).abs() < 1e-12);
        if sim.success_prob > 1e-9 {
            prop_assert!(
                formula.state.approx_eq(&sim.state, 1e-9),
                "formula {} vs frame {}",
                formula.state,
                sim.state
            );
        }
    }

    #[test]
    fn bbpssw_matches_frame_simulation_on_werner(
        f in 0.26..0.999f64,
    ) {
        let w = BellDiagonal::werner_f64(f).unwrap();
        let formula = Protocol::Bbpssw.step(&w);
        let sim = simulate(&w, &w, PreRotation::None);
        prop_assert!((formula.success_prob - sim.success_prob).abs() < 1e-12);
        prop_assert!(
            (formula.state.fidelity().value() - sim.state.fidelity().value()).abs() < 1e-9
        );
    }

    #[test]
    fn outputs_are_distributions_with_valid_probabilities(
        kept in bell_diagonal(),
        sacrificed in bell_diagonal(),
    ) {
        for protocol in Protocol::ALL {
            let out = protocol.step_asymmetric(&kept, &sacrificed);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&out.success_prob));
            let coeffs = out.state.coeffs();
            prop_assert!(coeffs.iter().all(|&c| c >= -1e-12));
            prop_assert!((coeffs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn noise_never_improves_the_outcome(state in bell_diagonal()) {
        let noise = RoundNoise::ion_trap();
        for protocol in Protocol::ALL {
            let ideal = protocol.step(&state);
            // Depolarization pulls toward fidelity 1/4, so it only hurts
            // states that are better than maximally mixed.
            if ideal.state.fidelity().value() < 0.25 {
                continue;
            }
            let noisy = protocol.noisy_step(&state, &noise);
            prop_assert!(noisy.state.fidelity() <= ideal.state.fidelity());
        }
    }

    #[test]
    fn werner_above_half_improves_under_dejmps(f in 0.51..0.999f64) {
        let w = BellDiagonal::werner_f64(f).unwrap();
        let out = Protocol::Dejmps.step(&w);
        prop_assert!(out.state.fidelity().value() > f);
    }
}
