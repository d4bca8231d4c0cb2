//! # qic-sweep — parallel campaign engine for parameter sweeps
//!
//! Every figure and table of *Isailovic et al., ISCA 2006* is a sweep
//! over the same simulator: resource ratios (Fig. 16), purification
//! placements × distance (Figs. 10–11), placements × error rate
//! (Fig. 12), layouts × mesh size (Fig. 13). This crate turns those
//! hand-rolled loops into declarative **campaigns**:
//!
//! 1. a [`ParamSpace`] of named [`Axis`] values (explicit lists, linear
//!    grids, log-spaced grids) whose Cartesian product enumerates in a
//!    fixed row-major order;
//! 2. a [`Campaign`] binding the space to replication, seeding and a
//!    worker budget;
//! 3. one entry point, [`Campaign::run`], whose [`RunOptions`] pick
//!    the pool (shared or per-call), shard, checkpoint, budget,
//!    progress sink and cancel token, on one multi-threaded
//!    [`Executor`] (shared-cursor work stealing over `std::thread`)
//!    that streams per-point results into a [`CampaignReport`];
//! 4. replicate aggregation (mean / 95% CI via `qic_des::stats`) with
//!    deterministic CSV and JSON emitters.
//!
//! # Determinism and the seed-derivation scheme
//!
//! A campaign's output must not depend on how it was scheduled. Two
//! mechanisms guarantee that:
//!
//! * **Index-addressed aggregation.** Every point task carries its
//!   row-major index; results are placed by index, so the
//!   report — including its JSON/CSV bytes — is identical for 1 worker
//!   or 64.
//! * **Derived seeds.** The seed for point `i`, replicate `r` of a
//!   campaign with seed `s` is a pure function of `(s, i, r)`:
//!
//!   ```text
//!   seed(s, i, r) = mix(mix(s ⊕ φ·(i+1)) ⊕ φ·(r+2))
//!   ```
//!
//!   where `φ = 0x9E3779B97F4A7C15` (the 64-bit golden ratio), `·` is
//!   wrapping multiplication, and `mix` is the SplitMix64 finaliser.
//!   The `+1` / `+2` offsets keep the zero point, zero replicate and
//!   zero campaign-seed cases from collapsing onto each other. The
//!   scheme means a point's stochastic inputs are identical whether the
//!   campaign ran serially, sharded over threads, or resumed point by
//!   point — see [`derive_seed`].
//!
//! # Example
//!
//! ```
//! use qic_sweep::prelude::*;
//!
//! // A 2-axis campaign, 2 replicates per point, 4 worker threads.
//! let space = ParamSpace::new()
//!     .axis(Axis::ints("depth", [1, 2, 3]))
//!     .axis(Axis::log_spaced("error", -6, -4, 1));
//! let report = Campaign::new("demo", space)
//!     .replicates(2)
//!     .seed(2006)
//!     .workers(4)
//!     .run(&RunOptions::default(), |point, ctx| {
//!         // A real campaign would build and run a simulator here,
//!         // seeding it with `ctx.seed`.
//!         let score = point.f64("depth") / point.f64("error");
//!         Metrics::new()
//!             .with("score", score)
//!             .with("noise", (ctx.seed % 7) as f64)
//!     })?
//!     .complete()
//!     .expect("an unbudgeted run completes");
//! assert_eq!(report.points.len(), 9);
//! let csv = report.to_csv();
//! assert!(csv.starts_with("index,depth,error,score.mean"));
//! # Ok::<(), CheckpointError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod campaign;
pub mod checkpoint;
pub mod exec;
pub mod progress;
pub mod report;
pub mod shard;
pub mod space;

pub use campaign::{Campaign, CampaignProgress, RunCtx, RunOptions};
pub use checkpoint::{CheckpointConfig, CheckpointError, CHECKPOINT_VERSION};
pub use exec::{default_workers, parse_workers, CancelToken, Executor};
pub use progress::{JsonlProgress, NoProgress, ProgressSink};
/// The strict JSON reader and writer every workspace document goes
/// through; it lives in `qic-des` and keeps this established path.
pub use qic_des::json;
// The metric record type lives in `qic-des` (so simulator crates can
// produce it without depending on the orchestration layer); campaigns
// consume and aggregate it.
pub use qic_des::metrics::Metrics;
pub use report::{CampaignReport, MetricSummary, PointReport, RECORD_VERSION};
pub use shard::{MergeError, Shard};
pub use space::{Axis, AxisValue, ParamSpace, SweepPoint};

use qic_des::rng::{mix64, GOLDEN};

/// Convenient glob-import surface: `use qic_sweep::prelude::*;`.
pub mod prelude {
    pub use crate::campaign::{Campaign, CampaignProgress, RunCtx, RunOptions};
    pub use crate::checkpoint::{CheckpointConfig, CheckpointError};
    pub use crate::derive_seed;
    pub use crate::digest_str;
    pub use crate::exec::{CancelToken, Executor};
    pub use crate::progress::{JsonlProgress, NoProgress, ProgressSink};
    pub use crate::report::{CampaignReport, MetricSummary, PointReport};
    pub use crate::shard::{MergeError, Shard};
    pub use crate::space::{Axis, AxisValue, ParamSpace, SweepPoint};
    pub use qic_des::metrics::Metrics;
}

/// Derives the RNG seed for `(point_index, replicate)` of a campaign.
///
/// This is the scheme documented in the crate docs: a pure function of
/// its three arguments, so a point's seed never depends on execution
/// order, worker count, or which other points ran. Campaign evaluation
/// functions receive the result as [`RunCtx::seed`]; it is public so
/// external tooling can re-derive the seed of any point (e.g. to replay
/// one point of a large campaign in isolation).
pub fn derive_seed(campaign_seed: u64, point_index: u64, replicate: u64) -> u64 {
    let a = mix64(campaign_seed ^ GOLDEN.wrapping_mul(point_index.wrapping_add(1)));
    mix64(a ^ GOLDEN.wrapping_mul(replicate.wrapping_add(2)))
}

/// Fingerprints a canonical document: a SplitMix64 fold over its bytes,
/// seeded with the golden-ratio constant.
///
/// This is the primitive behind the checkpoint manifest's spec hash and
/// `qic_core::scenario::SpecDigest` (the content-addressed result-cache
/// key) — both hash the **canonical JSON emission** of an identity, so
/// the digest is stable across JSON re-encoding round-trips and changes
/// exactly when the identity changes. Not cryptographic: it guards
/// against accidental drift, not adversaries.
pub fn digest_str(text: &str) -> u64 {
    let mut h = GOLDEN;
    for byte in text.bytes() {
        h = mix64(h ^ u64::from(byte));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_pure() {
        assert_eq!(derive_seed(7, 3, 1), derive_seed(7, 3, 1));
    }

    #[test]
    fn derive_seed_separates_all_arguments() {
        let base = derive_seed(7, 3, 1);
        assert_ne!(base, derive_seed(8, 3, 1));
        assert_ne!(base, derive_seed(7, 4, 1));
        assert_ne!(base, derive_seed(7, 3, 2));
        // The degenerate all-zero case still yields a scrambled seed.
        assert_ne!(derive_seed(0, 0, 0), 0);
        // (point 0, rep 1) and (point 1, rep 0) must not collide the way
        // naive `s + i + r` mixing would.
        assert_ne!(derive_seed(0, 0, 1), derive_seed(0, 1, 0));
    }

    #[test]
    fn digest_str_is_stable_and_sensitive() {
        assert_eq!(digest_str(""), GOLDEN, "empty fold is the seed");
        assert_eq!(digest_str("qic"), digest_str("qic"));
        assert_ne!(digest_str("qic"), digest_str("qiC"));
        assert_ne!(digest_str("ab"), digest_str("ba"), "order matters");
        // Pinned value: this primitive keys checkpoint manifests and the
        // serve result cache on disk — drift would orphan both.
        assert_eq!(digest_str("qic"), 0x5965_4BAF_691F_DA99);
    }

    #[test]
    fn derive_seed_has_no_cheap_collisions() {
        let mut seen = std::collections::BTreeSet::new();
        for s in 0..4u64 {
            for i in 0..64u64 {
                for r in 0..4u64 {
                    seen.insert(derive_seed(s, i, r));
                }
            }
        }
        assert_eq!(seen.len(), 4 * 64 * 4, "seed collision in a tiny grid");
    }
}
