//! Simulation reports.

use qic_des::metrics::Metrics;
use qic_des::stats::{Percentiles, Tally};
use qic_physics::time::Duration;
use qic_probe::TimelineReport;

/// Resilience statistics of a run over a fault-aware topology (a
/// `qic-fault` `DegradedFabric`). Healthy runs carry no fault block, so
/// their reports — and the golden figure outputs derived from them —
/// are byte-identical to the pre-fault-layer simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultStats {
    /// Communications that reached their destination and teleported
    /// their data (`comms_completed − dropped`).
    pub delivered: u64,
    /// Communications dropped with a structured `Unreachable` outcome
    /// (dead endpoint, or no surviving path).
    pub dropped: u64,
    /// Delivered communications whose route was longer than the healthy
    /// fabric's minimal distance (detours around masked links).
    pub rerouted: u64,
    /// Mean ratio of routed hops to healthy minimal hops over delivered
    /// communications (`1.0` when nothing detoured; `0.0` with no
    /// delivered communications).
    pub mean_route_inflation: f64,
}

/// Aggregate results of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct NetReport {
    /// Total simulated time until the driver finished.
    pub makespan: Duration,
    /// Logical communications completed.
    pub comms_completed: u64,
    /// Teleport operations performed (pair-hops through T' nodes).
    pub teleport_ops: u64,
    /// Link pairs generated by G nodes.
    pub pairs_generated: u64,
    /// Link pairs consumed by teleports.
    pub pairs_consumed: u64,
    /// Purification operations performed at endpoints.
    pub purify_ops: u64,
    /// Purified pairs delivered to endpoints.
    pub purified_outputs: u64,
    /// Times a pair-hop stalled waiting for a teleporter.
    pub teleporter_stalls: u64,
    /// Times a pair-hop stalled waiting for a link pair.
    pub wire_stalls: u64,
    /// Times a pair-hop stalled waiting for downstream storage.
    pub storage_stalls: u64,
    /// Latency (µs) of completed communications, end to end.
    pub comm_latency_us: Tally,
    /// Exact p50/p95/p99 of the end-to-end communication latency (µs);
    /// `None` when no communication completed.
    pub latency_percentiles: Option<Percentiles>,
    /// Mean teleporter utilization across all nodes.
    pub teleporter_utilization: f64,
    /// Mean purifier utilization across all sites.
    pub purifier_utilization: f64,
    /// Events processed by the engine.
    pub events: u64,
    /// Resilience statistics; `Some` exactly when the run's topology was
    /// fault-aware (see [`crate::topology::Topology::fault_aware`]), even
    /// if the fault plan turned out to be empty.
    pub fault: Option<FaultStats>,
    /// Deterministic per-resource time series; `Some` exactly when a
    /// recording probe was attached (`NetworkSim::with_probe` and
    /// friends). Unprobed runs carry `None`, so their reports — and the
    /// golden figure outputs derived from them — are byte-identical to
    /// the uninstrumented simulator's.
    pub timeline: Option<TimelineReport>,
}

impl NetReport {
    /// Mean communication latency, if any communication completed.
    pub fn mean_latency(&self) -> Option<Duration> {
        self.comm_latency_us.mean().map(Duration::from_us_f64)
    }

    /// Median communication latency, if any communication completed.
    pub fn latency_p50(&self) -> Option<Duration> {
        self.latency_percentiles
            .map(|p| Duration::from_us_f64(p.p50))
    }

    /// 95th-percentile communication latency (tail behaviour under
    /// contention), if any communication completed.
    pub fn latency_p95(&self) -> Option<Duration> {
        self.latency_percentiles
            .map(|p| Duration::from_us_f64(p.p95))
    }

    /// 99th-percentile communication latency, if any communication
    /// completed.
    pub fn latency_p99(&self) -> Option<Duration> {
        self.latency_percentiles
            .map(|p| Duration::from_us_f64(p.p99))
    }

    /// Makespan ratio against a baseline run (the Figure 16 y-axis:
    /// "execution normalized to execution on t = g = p = 1024").
    pub fn normalized_to(&self, baseline: &NetReport) -> f64 {
        self.makespan / baseline.makespan
    }

    /// Flattens the report into named metrics (`qic_des::metrics`, the
    /// record type `qic-sweep` campaigns aggregate).
    ///
    /// Latency percentiles appear only when at least one communication
    /// completed, matching [`NetReport::latency_percentiles`].
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::new()
            .with("makespan_us", self.makespan.as_us_f64())
            .with("comms_completed", self.comms_completed as f64)
            .with("teleport_ops", self.teleport_ops as f64)
            .with("pairs_generated", self.pairs_generated as f64)
            .with("pairs_consumed", self.pairs_consumed as f64)
            .with("purify_ops", self.purify_ops as f64)
            .with("purified_outputs", self.purified_outputs as f64)
            .with("teleporter_stalls", self.teleporter_stalls as f64)
            .with("wire_stalls", self.wire_stalls as f64)
            .with("storage_stalls", self.storage_stalls as f64)
            .with("teleporter_utilization", self.teleporter_utilization)
            .with("purifier_utilization", self.purifier_utilization)
            .with("events", self.events as f64);
        if let Some(mean) = self.comm_latency_us.mean() {
            m.push("latency_mean_us", mean);
        }
        if let Some(p) = self.latency_percentiles {
            m.push("latency_p50_us", p.p50);
            m.push("latency_p95_us", p.p95);
            m.push("latency_p99_us", p.p99);
        }
        if let Some(f) = self.fault {
            m.push("comms_delivered", f.delivered as f64);
            m.push("comms_dropped", f.dropped as f64);
            m.push("comms_rerouted", f.rerouted as f64);
            m.push("route_inflation", f.mean_route_inflation);
        }
        if let Some(t) = &self.timeline {
            m.extend("trace", &t.metrics());
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blank() -> NetReport {
        NetReport {
            makespan: Duration::from_millis(10),
            comms_completed: 1,
            teleport_ops: 0,
            pairs_generated: 0,
            pairs_consumed: 0,
            purify_ops: 0,
            purified_outputs: 0,
            teleporter_stalls: 0,
            wire_stalls: 0,
            storage_stalls: 0,
            comm_latency_us: Tally::new(),
            latency_percentiles: None,
            teleporter_utilization: 0.0,
            purifier_utilization: 0.0,
            events: 0,
            fault: None,
            timeline: None,
        }
    }

    #[test]
    fn normalization() {
        let mut fast = blank();
        fast.makespan = Duration::from_millis(10);
        let mut slow = blank();
        slow.makespan = Duration::from_millis(25);
        assert!((slow.normalized_to(&fast) - 2.5).abs() < 1e-12);
        assert!((fast.normalized_to(&fast) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn latency_helpers() {
        let mut r = blank();
        assert_eq!(r.mean_latency(), None);
        r.comm_latency_us.record(100.0);
        r.comm_latency_us.record(300.0);
        assert_eq!(r.mean_latency(), Some(Duration::from_micros(200)));
    }

    #[test]
    fn percentile_helpers() {
        let mut r = blank();
        assert_eq!(r.latency_p50(), None);
        assert_eq!(r.latency_p95(), None);
        assert_eq!(r.latency_p99(), None);
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        r.latency_percentiles = Percentiles::from_samples(&samples);
        assert_eq!(r.latency_p50(), Some(Duration::from_micros(50)));
        assert_eq!(r.latency_p95(), Some(Duration::from_micros(95)));
        assert_eq!(r.latency_p99(), Some(Duration::from_micros(99)));
    }

    #[test]
    fn metrics_flatten() {
        let mut r = blank();
        r.teleport_ops = 42;
        let m = r.metrics();
        assert_eq!(m.get("makespan_us"), Some(10_000.0));
        assert_eq!(m.get("teleport_ops"), Some(42.0));
        assert_eq!(m.get("latency_mean_us"), None, "no latency samples yet");
        assert_eq!(m.get("latency_p95_us"), None);

        r.comm_latency_us.record(100.0);
        r.latency_percentiles = Percentiles::from_samples(&[100.0]);
        let m = r.metrics();
        assert_eq!(m.get("latency_mean_us"), Some(100.0));
        assert_eq!(m.get("latency_p50_us"), Some(100.0));
        assert_eq!(m.get("latency_p99_us"), Some(100.0));
    }

    #[test]
    fn fault_metrics_appear_only_with_a_fault_block() {
        let mut r = blank();
        assert_eq!(r.metrics().get("comms_dropped"), None, "healthy runs");
        r.fault = Some(FaultStats {
            delivered: 3,
            dropped: 1,
            rerouted: 2,
            mean_route_inflation: 1.25,
        });
        let m = r.metrics();
        assert_eq!(m.get("comms_delivered"), Some(3.0));
        assert_eq!(m.get("comms_dropped"), Some(1.0));
        assert_eq!(m.get("comms_rerouted"), Some(2.0));
        assert_eq!(m.get("route_inflation"), Some(1.25));
    }

    #[test]
    fn timeline_metrics_appear_only_with_a_timeline_block() {
        use qic_probe::{Probe, RecordingProbe};
        let mut r = blank();
        assert_eq!(r.metrics().get("trace.bins"), None, "unprobed runs");
        let mut probe = RecordingProbe::with_bins(8);
        r.timeline = probe.finish(10_000);
        let m = r.metrics();
        assert_eq!(m.get("trace.bins"), Some(8.0));
        assert_eq!(m.get("trace.stall_wire"), Some(0.0));
        // Namespacing keeps the scalar names untouched.
        assert_eq!(m.get("teleporter_utilization"), Some(0.0));
    }
}
