//! End-to-end channel planning — the resource model behind **Figures
//! 10–12** and the "392 pairs per logical communication" estimate of
//! Section 5.3.
//!
//! A [`ChannelModel`] fixes device parameters and a purification placement;
//! [`ChannelModel::plan`] then computes, for a given hop count, the
//! delivered pair state and the expected EPR-pair budget:
//!
//! * `endpoint_pairs` — pairs arriving at the endpoints per delivered
//!   threshold-quality pair (`∏ 2/pᵢ` over the endpoint rounds),
//! * `teleported_pairs` — teleport operations (pair-hops) through the
//!   channel per delivered pair (the Figure 11 quantity),
//! * `total_pairs` — raw generated pairs consumed anywhere, including
//!   virtual-wire purification losses (the Figure 10 quantity).
//!
//! Endpoint purification always runs at least one round — the paper's
//! standing design decision ("purification before teleport **and at
//! endpoints**", Section 4.7) — and additional rounds are added until the
//! fault-tolerance threshold is met.

use std::fmt;

use qic_physics::bell::BellDiagonal;
use qic_physics::constants::THRESHOLD_ERROR;
use qic_physics::error::ErrorRates;
use qic_physics::optime::OpTimes;
use qic_physics::teleport;
use qic_physics::time::Duration;

use qic_purify::analysis;
use qic_purify::protocol::{Protocol, RoundNoise};

use crate::link::{self, LinkSpec};
use crate::strategy::PurifyPlacement;

/// Errors from channel planning.
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelError {
    /// No number of endpoint purification rounds reaches the target error:
    /// the channel is infeasible at these device parameters (the Figure 12
    /// "abrupt ends").
    Unreachable {
        /// Best error achievable at the endpoints.
        best_error: f64,
        /// The target that could not be met.
        target_error: f64,
    },
    /// A zero-hop channel was requested.
    ZeroHops,
}

impl fmt::Display for ChannelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelError::Unreachable { best_error, target_error } => write!(
                f,
                "purification cannot reach target error {target_error:.2e} (best achievable {best_error:.2e})"
            ),
            ChannelError::ZeroHops => f.write_str("channel must span at least one hop"),
        }
    }
}

impl std::error::Error for ChannelError {}

/// A fully resolved channel budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelPlan {
    /// Hops planned for.
    pub hops: u32,
    /// State of the link pairs feeding each teleporter.
    pub link_state: BellDiagonal,
    /// Raw pairs consumed per link pair (1 unless the virtual wire
    /// purifies).
    pub link_cost: f64,
    /// State of a chained pair on arrival at the endpoints, before
    /// endpoint purification.
    pub arriving_state: BellDiagonal,
    /// Endpoint purification rounds performed (≥ 1).
    pub endpoint_rounds: u32,
    /// State of a delivered pair after endpoint purification.
    pub final_state: BellDiagonal,
    /// Chained pairs arriving at the endpoints per delivered pair.
    pub endpoint_pairs: f64,
    /// Teleport operations through the channel per delivered pair
    /// (Figure 11's "EPR pairs teleported").
    pub teleported_pairs: f64,
    /// Raw generated pairs consumed anywhere per delivered pair
    /// (Figure 10's "EPR pairs total used").
    pub total_pairs: f64,
    /// Estimated channel setup latency for the first delivered pair:
    /// sequential hop teleports plus serialised endpoint purification.
    pub setup_latency: Duration,
}

impl ChannelPlan {
    /// EPR pairs that must arrive at the endpoints to teleport one logical
    /// qubit encoded in `qubits_per_logical` physical qubits — the paper's
    /// `2³ × 49 = 392` estimate (Section 5.3).
    pub fn pairs_per_logical_comm(&self, qubits_per_logical: u32) -> f64 {
        self.endpoint_pairs * f64::from(qubits_per_logical)
    }
}

/// Device parameters plus a placement strategy; the entry point for all
/// analytical channel questions.
///
/// # Example
///
/// ```
/// use qic_analytic::plan::ChannelModel;
/// use qic_analytic::strategy::PurifyPlacement;
///
/// let endpoints_only = ChannelModel::ion_trap();
/// let virtual_wire = endpoints_only.clone().with_placement(PurifyPlacement::VirtualWire { rounds: 1 });
/// let a = endpoints_only.plan(40)?;
/// let b = virtual_wire.plan(40)?;
/// // Virtual-wire purification reduces strain on the teleporters…
/// assert!(b.teleported_pairs < a.teleported_pairs);
/// // …but costs more raw pairs in total (Figures 10 vs 11).
/// assert!(b.total_pairs > a.total_pairs);
/// # Ok::<(), qic_analytic::plan::ChannelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelModel {
    rates: ErrorRates,
    times: OpTimes,
    protocol: Protocol,
    placement: PurifyPlacement,
    hop_cells: u64,
    target_error: f64,
    max_endpoint_rounds: u32,
}

impl ChannelModel {
    /// The paper's configuration: Table 1–2 parameters, DEJMPS protocol,
    /// endpoints-only placement, 600-cell hops, `7.5e-5` target error.
    pub fn ion_trap() -> Self {
        ChannelModel {
            rates: ErrorRates::ion_trap(),
            times: OpTimes::ion_trap(),
            protocol: Protocol::Dejmps,
            placement: PurifyPlacement::EndpointsOnly,
            hop_cells: qic_physics::constants::DEFAULT_HOP_CELLS,
            target_error: THRESHOLD_ERROR,
            max_endpoint_rounds: 25,
        }
    }

    /// Replaces the error rates.
    pub fn with_rates(mut self, rates: ErrorRates) -> Self {
        self.rates = rates;
        self
    }

    /// Replaces the time constants.
    pub fn with_times(mut self, times: OpTimes) -> Self {
        self.times = times;
        self
    }

    /// Replaces the purification protocol.
    pub fn with_protocol(mut self, protocol: Protocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Replaces the purification placement.
    pub fn with_placement(mut self, placement: PurifyPlacement) -> Self {
        self.placement = placement;
        self
    }

    /// Replaces the hop length in ballistic cells.
    pub fn with_hop_cells(mut self, cells: u64) -> Self {
        self.hop_cells = cells;
        self
    }

    /// Replaces the target error (default: the fault-tolerance threshold).
    pub fn with_target_error(mut self, e: f64) -> Self {
        self.target_error = e;
        self
    }

    /// The configured error rates.
    pub fn rates(&self) -> &ErrorRates {
        &self.rates
    }

    /// The configured time constants.
    pub fn times(&self) -> &OpTimes {
        &self.times
    }

    /// The configured placement.
    pub fn placement(&self) -> PurifyPlacement {
        self.placement
    }

    /// The configured protocol.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// The configured target error.
    pub fn target_error(&self) -> f64 {
        self.target_error
    }

    /// Round-noise model derived from the configured rates.
    pub fn round_noise(&self) -> RoundNoise {
        RoundNoise::from_rates(&self.rates)
    }

    /// Plans a channel of `hops` teleport hops.
    ///
    /// # Errors
    ///
    /// [`ChannelError::ZeroHops`] if `hops == 0`;
    /// [`ChannelError::Unreachable`] if no amount of endpoint purification
    /// reaches the target error (the regime beyond Figure 12's breakdown
    /// point).
    pub fn plan(&self, hops: u32) -> Result<ChannelPlan, ChannelError> {
        if hops == 0 {
            return Err(ChannelError::ZeroHops);
        }
        let noise = self.round_noise();
        let link_spec = LinkSpec {
            hop_cells: self.hop_cells,
            purify_rounds: self.placement.virtual_wire_rounds(),
            protocol: self.protocol,
        };
        let link_state = link::link_state(&link_spec, &self.rates, &noise);
        let link_cost = link::link_cost(&link_spec, &self.rates, &noise);

        // Walk the chain, tracking per-delivered-pair expectations:
        //   generated — chained pairs generated,
        //   ops       — teleport operations performed.
        let between_rounds = self.placement.between_rounds();
        let mut state = link::raw_link_state(self.hop_cells, &self.rates);
        if self.placement.virtual_wire_rounds() > 0 {
            // The pair that will travel starts life as a link pair too.
            state = link_state;
        }
        let mut generated = 1.0f64;
        let mut ops = 0.0f64;
        for _ in 0..hops {
            state = teleport::teleport_pair(&state, &link_state, &self.rates);
            ops += 1.0;
            for _ in 0..between_rounds {
                let step = self.protocol.noisy_step(&state, &noise);
                let mult = 2.0 / step.success_prob.max(f64::EPSILON);
                state = step.state;
                generated *= mult;
                ops *= mult;
            }
        }
        let arriving_state = state;

        // Endpoint purification: always at least one round, then as many
        // as the threshold demands.
        let needed = analysis::rounds_to_reach(
            self.protocol,
            arriving_state,
            self.target_error,
            &noise,
            self.max_endpoint_rounds,
        );
        let endpoint_rounds = match needed {
            Some(r) => r.max(1),
            None => {
                let best = analysis::max_achievable(self.protocol, arriving_state, &noise);
                return Err(ChannelError::Unreachable {
                    best_error: best.error(),
                    target_error: self.target_error,
                });
            }
        };
        let traj = analysis::trajectory(self.protocol, arriving_state, endpoint_rounds, &noise);
        let last = traj.last().expect("non-empty trajectory");
        let endpoint_pairs = last.expected_pairs;
        let final_state = last.state;

        let teleported_pairs = endpoint_pairs * ops;
        // Virtual-wire purification keeps a queue of in-flight pairs per
        // wire; filling it before the first purified link pair emerges is a
        // real one-time cost of 2^k − 1 pairs per wire (cf. footnote 4 of
        // the paper on spatial vs. total resources).
        let vw_rounds = self.placement.virtual_wire_rounds().min(62);
        let wire_priming = f64::from(hops) * ((1u64 << vw_rounds) - 1) as f64;
        let total_pairs = endpoint_pairs * generated + teleported_pairs * link_cost + wire_priming;

        // Latency: hops are store-and-forward teleports; endpoint
        // purification is serialised on a queue purifier.
        let span_cells = self.hop_cells * u64::from(hops);
        let per_hop = self.times.teleport(self.hop_cells);
        let purify_ops = (1u64 << endpoint_rounds.min(62)) - 1;
        let setup_latency =
            per_hop * u64::from(hops) + self.times.purify_round(span_cells) * purify_ops;

        Ok(ChannelPlan {
            hops,
            link_state,
            link_cost,
            arriving_state,
            endpoint_rounds,
            final_state,
            endpoint_pairs,
            teleported_pairs,
            total_pairs,
            setup_latency,
        })
    }
}

impl Default for ChannelModel {
    fn default() -> Self {
        ChannelModel::ion_trap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qic_physics::constants::LEVEL2_STEANE_QUBITS;

    #[test]
    fn endpoints_only_matches_392_estimate() {
        // §5.3: longest path (≈30 hops on the 16×16 grid) needs
        // 2³ × 49 = 392 endpoint pairs per logical communication.
        let model = ChannelModel::ion_trap();
        let plan = model.plan(30).unwrap();
        assert_eq!(plan.endpoint_rounds, 3, "depth-3 purification (§5.3)");
        let pairs = plan.pairs_per_logical_comm(LEVEL2_STEANE_QUBITS);
        assert!(
            (pairs - 392.0).abs() / 392.0 < 0.2,
            "≈392 pairs per logical comm, got {pairs}"
        );
    }

    #[test]
    fn final_state_meets_threshold() {
        let model = ChannelModel::ion_trap();
        for hops in [1, 5, 10, 30, 60] {
            let plan = model.plan(hops).unwrap();
            assert!(
                plan.final_state.error() <= THRESHOLD_ERROR,
                "hops={hops}: {}",
                plan.final_state.error()
            );
            assert!(plan.arriving_state.error() > plan.final_state.error());
        }
    }

    #[test]
    fn figure10_ordering_total_pairs() {
        // Endpoints-only uses the fewest TOTAL pairs; virtual-wire once is
        // next; twice costs most (of the non-exponential schemes).
        let base = ChannelModel::ion_trap();
        for hops in [20u32, 40, 60] {
            let only = base.clone().plan(hops).unwrap().total_pairs;
            let once = base
                .clone()
                .with_placement(PurifyPlacement::VirtualWire { rounds: 1 })
                .plan(hops)
                .unwrap()
                .total_pairs;
            let twice = base
                .clone()
                .with_placement(PurifyPlacement::VirtualWire { rounds: 2 })
                .plan(hops)
                .unwrap()
                .total_pairs;
            assert!(only < once, "hops={hops}: endpoints {only} < once {once}");
            assert!(once < twice, "hops={hops}: once {once} < twice {twice}");
        }
    }

    #[test]
    fn figure11_ordering_teleported_pairs() {
        // For TELEPORTED pairs, the order flips: virtual-wire purification
        // reduces strain on the teleporters.
        let base = ChannelModel::ion_trap();
        for hops in [20u32, 40, 60] {
            let only = base.clone().plan(hops).unwrap().teleported_pairs;
            let once = base
                .clone()
                .with_placement(PurifyPlacement::VirtualWire { rounds: 1 })
                .plan(hops)
                .unwrap()
                .teleported_pairs;
            let twice = base
                .clone()
                .with_placement(PurifyPlacement::VirtualWire { rounds: 2 })
                .plan(hops)
                .unwrap()
                .teleported_pairs;
            assert!(once < only, "hops={hops}");
            assert!(twice < once, "hops={hops}");
        }
    }

    #[test]
    fn between_teleports_is_exponential() {
        let base = ChannelModel::ion_trap();
        let nested = base
            .clone()
            .with_placement(PurifyPlacement::BetweenTeleports { rounds: 1 });
        let p20 = nested.plan(20).unwrap();
        let p30 = nested.plan(30).unwrap();
        // Each extra hop multiplies cost by ≥ 2.
        assert!(p30.total_pairs / p20.total_pairs > 2f64.powi(9));
        // And it dwarfs endpoints-only at the same distance.
        let flat = base.plan(30).unwrap();
        assert!(p30.total_pairs > 1e3 * flat.total_pairs);
        assert!(p30.teleported_pairs > 1e3 * flat.teleported_pairs);
    }

    #[test]
    fn endpoints_only_total_asymptotics() {
        // total ≈ endpoint_pairs × (hops + 1): the chained pairs plus one
        // raw link pair per hop each.
        let plan = ChannelModel::ion_trap().plan(60).unwrap();
        let expect = plan.endpoint_pairs * 61.0;
        assert!((plan.total_pairs - expect).abs() / expect < 1e-9);
        assert!(plan.total_pairs > 100.0 && plan.total_pairs < 2000.0);
    }

    #[test]
    fn unreachable_at_high_error_rates() {
        // Figure 12 breakdown: uniform 3e-5 error rates sink every scheme.
        let rates = ErrorRates::uniform(3e-5).unwrap();
        let model = ChannelModel::ion_trap().with_rates(rates);
        let err = model.plan(30).unwrap_err();
        match err {
            ChannelError::Unreachable {
                best_error,
                target_error,
            } => {
                assert!(best_error > target_error);
            }
            other => panic!("expected Unreachable, got {other}"),
        }
    }

    #[test]
    fn zero_hops_rejected() {
        assert_eq!(
            ChannelModel::ion_trap().plan(0),
            Err(ChannelError::ZeroHops)
        );
        assert!(ChannelError::ZeroHops
            .to_string()
            .contains("at least one hop"));
    }

    #[test]
    fn setup_latency_grows_with_distance_and_rounds() {
        let model = ChannelModel::ion_trap();
        let near = model.plan(5).unwrap();
        let far = model.plan(40).unwrap();
        assert!(far.setup_latency > near.setup_latency);
        // Order of magnitude: 40 hops × ~122µs ≈ 5 ms plus purification.
        assert!(far.setup_latency > Duration::from_millis(4));
        assert!(far.setup_latency < Duration::from_millis(20));
    }

    #[test]
    fn builders_cover_all_fields() {
        let m = ChannelModel::ion_trap()
            .with_protocol(Protocol::Bbpssw)
            .with_hop_cells(100)
            .with_target_error(1e-4)
            .with_times(OpTimes::ion_trap())
            .with_rates(ErrorRates::ion_trap());
        assert_eq!(m.protocol(), Protocol::Bbpssw);
        assert_eq!(m.target_error(), 1e-4);
        assert_eq!(m.placement(), PurifyPlacement::EndpointsOnly);
        let plan = m.plan(10).unwrap();
        assert!(plan.final_state.error() <= 1e-4);
    }
}
