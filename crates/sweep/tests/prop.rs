//! Property-based tests for the campaign engine: point enumeration,
//! seed derivation, and scheduling-independence of reports.

use proptest::prelude::*;

use qic_sweep::{derive_seed, Axis, Campaign, Metrics, ParamSpace, RunOptions};

fn small_space(a: usize, b: usize, c: usize) -> ParamSpace {
    ParamSpace::new()
        .axis(Axis::ints("a", (0..a as i64).collect::<Vec<_>>()))
        .axis(Axis::ints("b", (0..b as i64).collect::<Vec<_>>()))
        .axis(Axis::ints("c", (0..c as i64).collect::<Vec<_>>()))
}

proptest! {
    #[test]
    fn point_index_round_trips(a in 1usize..5, b in 1usize..5, c in 1usize..5) {
        let space = small_space(a, b, c);
        prop_assert_eq!(space.len(), a * b * c);
        for (i, point) in space.points().enumerate() {
            prop_assert_eq!(point.index(), i);
            // Recompose the row-major index from the coordinates.
            let recomposed = (point.coord(0) * b + point.coord(1)) * c + point.coord(2);
            prop_assert_eq!(recomposed, i);
            prop_assert_eq!(point.i64("a") as usize, point.coord(0));
        }
    }

    #[test]
    fn derived_seeds_are_pure_and_distinct(s in 0u64..1_000_000, i in 0u64..10_000, r in 0u64..64) {
        prop_assert_eq!(derive_seed(s, i, r), derive_seed(s, i, r));
        prop_assert_ne!(derive_seed(s, i, r), derive_seed(s, i + 1, r));
        prop_assert_ne!(derive_seed(s, i, r), derive_seed(s, i, r + 1));
    }

    #[test]
    fn report_is_scheduling_independent(
        a in 1usize..4,
        b in 1usize..4,
        workers in 2usize..6,
        reps in 1u32..4,
        seed in 0u64..1000,
    ) {
        let space = ParamSpace::new()
            .axis(Axis::ints("a", (0..a as i64).collect::<Vec<_>>()))
            .axis(Axis::ints("b", (0..b as i64).collect::<Vec<_>>()))
            ;
        let eval = |point: &qic_sweep::SweepPoint<'_>, ctx: qic_sweep::RunCtx| {
            Metrics::new()
                .with("v", (point.i64("a") * 10 + point.i64("b")) as f64)
                .with("s", (ctx.seed % 4096) as f64)
        };
        let serial = Campaign::new("p", space.clone())
            .seed(seed)
            .replicates(reps)
            .workers(1)
            .run(&RunOptions::default(), eval)
            .unwrap()
            .complete()
            .unwrap();
        let parallel = Campaign::new("p", space)
            .seed(seed)
            .replicates(reps)
            .workers(workers)
            .run(&RunOptions::default(), eval)
            .unwrap()
            .complete()
            .unwrap();
        prop_assert_eq!(&serial, &parallel);
        prop_assert_eq!(serial.to_json(), parallel.to_json());
    }
}
