//! The recording probe and its deterministic time-series report.

use qic_des::metrics::Metrics;

use crate::{EventKind, FabricInfo, Probe, StallCause};

/// One recorded structured event: a simulation timestamp plus the
/// hook-specific payload. The stream is chronological by construction
/// (simulation time is monotone) and fully deterministic for a given
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation time in nanoseconds.
    pub t_ns: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

/// Payload of a [`TraceEvent`]. Resource ids follow the
/// [`FabricInfo`] indexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A communication entered the system.
    Submit {
        /// Communication id (dense, submission order).
        comm: u32,
        /// Routed hop count (0 = co-located or unreachable).
        hops: u32,
    },
    /// A submission detoured beyond the healthy minimal distance.
    Reroute {
        /// Communication id.
        comm: u32,
    },
    /// A pair-hop stalled on a resource.
    Stall {
        /// Which resource class blocked.
        cause: StallCause,
        /// Dense resource index within its class.
        resource: u32,
        /// Communication id of the blocked pair.
        comm: u32,
    },
    /// One EPR pair was consumed from a link wire.
    WireTake {
        /// Link index.
        link: u32,
    },
    /// A pair-hop committed; the teleporter slot span starts here.
    HopFire {
        /// Communication id.
        comm: u32,
        /// Hop position along the route.
        pos: u32,
        /// Link crossed.
        link: u32,
        /// Teleporter pool held.
        teleset: u32,
        /// Hold duration in nanoseconds.
        service_ns: u64,
    },
    /// A teleporter slot was released.
    TelesetRelease {
        /// Teleporter pool index.
        teleset: u32,
    },
    /// A storage bank's occupancy changed.
    Storage {
        /// Storage bank index.
        storage: u32,
        /// Cells used after the change.
        used: u32,
    },
    /// A purification cascade job started; the unit span starts here.
    PurifyStart {
        /// Purifier site (node index).
        site: u32,
        /// Communication id.
        comm: u32,
        /// Purify operations in the job.
        ops: u32,
        /// Job duration in nanoseconds.
        dur_ns: u64,
    },
    /// A communication dropped (`Unreachable`).
    Drop {
        /// Communication id.
        comm: u32,
    },
    /// A communication's data teleport completed.
    Done {
        /// Communication id.
        comm: u32,
        /// Submission time in nanoseconds.
        issued_ns: u64,
    },
}

/// Event-dispatch counters, one per simulator event class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DispatchCounts {
    /// `SourceTry` dispatches.
    pub source_try: u64,
    /// `TeleportDone` dispatches.
    pub teleport_done: u64,
    /// `WireWake` dispatches.
    pub wire_wake: u64,
    /// `PurifyDone` dispatches.
    pub purify_done: u64,
    /// `DataTeleportDone` dispatches.
    pub data_teleport_done: u64,
    /// `Dropped` dispatches.
    pub dropped: u64,
    /// `Submit` dispatches.
    pub submit: u64,
    /// `Notify` dispatches.
    pub notify: u64,
}

impl DispatchCounts {
    fn bump(&mut self, kind: EventKind) {
        match kind {
            EventKind::SourceTry => self.source_try += 1,
            EventKind::TeleportDone => self.teleport_done += 1,
            EventKind::WireWake => self.wire_wake += 1,
            EventKind::PurifyDone => self.purify_done += 1,
            EventKind::DataTeleportDone => self.data_teleport_done += 1,
            EventKind::Dropped => self.dropped += 1,
            EventKind::Submit => self.submit += 1,
            EventKind::Notify => self.notify += 1,
        }
    }

    /// Total events dispatched.
    pub fn total(&self) -> u64 {
        self.source_try
            + self.teleport_done
            + self.wire_wake
            + self.purify_done
            + self.data_teleport_done
            + self.dropped
            + self.submit
            + self.notify
    }
}

/// Stall-cause breakdown counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StallBreakdown {
    /// Stalls waiting for a teleporter slot.
    pub teleporter: u64,
    /// Stalls waiting for a link pair.
    pub wire: u64,
    /// Stalls waiting for downstream storage.
    pub storage: u64,
}

/// One teleport-hop span of a communication's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopSpan {
    /// Hop position along the route.
    pub pos: u32,
    /// Link crossed.
    pub link: u32,
    /// Span start (simulation nanoseconds).
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub service_ns: u64,
}

/// Per-communication timeline: submission, every pair-hop fired on its
/// behalf, and how it ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommTimeline {
    /// Communication id.
    pub comm: u32,
    /// Submission time in nanoseconds.
    pub submitted_ns: u64,
    /// Routed hop count at submission.
    pub route_hops: u32,
    /// Completion (or drop-decision) time, if the run saw it end.
    pub completed_ns: Option<u64>,
    /// Whether the communication dropped instead of delivering.
    pub dropped: bool,
    /// Pair-hops fired for this communication, in fire order.
    pub hops: Vec<HopSpan>,
}

/// Deterministic time-series distilled from a recorded run: per-resource
/// utilization traces on a fixed sampling grid, storage occupancy,
/// stall-cause and dispatch breakdowns, and per-communication hop
/// timelines.
///
/// The sampling grid divides `[0, makespan_ns]` into `bins` intervals
/// with integer-nanosecond edges `edge(k) = makespan_ns · k / bins`
/// (floor division; the last bin absorbs the remainder), so the traces
/// are pure functions of the run — no float accumulation order, no
/// wall-clock anywhere.
///
/// Conservation: integrating a utilization trace over the grid
/// ([`TimelineReport::mean_teleporter_utilization`] /
/// [`TimelineReport::mean_purifier_utilization`]) reproduces the
/// corresponding end-of-run scalar in the simulator's report to within
/// float round-off — the property tests in the workspace hold this to
/// `1e-9`.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineReport {
    /// Total simulated time covered by the grid.
    pub makespan_ns: u64,
    /// Number of sampling bins.
    pub bins: u32,
    /// Mean teleporter utilization per bin (averaged over every pool,
    /// weighted by pool capacity — same convention as the scalar).
    pub teleporter_utilization: Vec<f64>,
    /// Mean purifier utilization per bin.
    pub purifier_utilization: Vec<f64>,
    /// Mean storage occupancy per bin, as a fraction of all cells.
    pub storage_occupancy: Vec<f64>,
    /// Stall-cause breakdown over the whole run.
    pub stalls: StallBreakdown,
    /// Event-dispatch counts over the whole run.
    pub dispatch: DispatchCounts,
    /// Largest event-queue depth observed at a batch boundary.
    pub max_queue_depth: u64,
    /// Per-communication hop timelines, by communication id.
    pub comms: Vec<CommTimeline>,
}

impl TimelineReport {
    /// Grid edge `k` in nanoseconds, `k ∈ 0..=bins`.
    pub fn bin_edge(&self, k: u32) -> u64 {
        bin_edge(self.makespan_ns, self.bins, k)
    }

    /// Width of bin `k` in nanoseconds.
    pub fn bin_width(&self, k: u32) -> u64 {
        self.bin_edge(k + 1) - self.bin_edge(k)
    }

    /// Integrates the teleporter trace back to the run-mean scalar
    /// (`NetReport::teleporter_utilization`).
    pub fn mean_teleporter_utilization(&self) -> f64 {
        self.integrate(&self.teleporter_utilization)
    }

    /// Integrates the purifier trace back to the run-mean scalar
    /// (`NetReport::purifier_utilization`).
    pub fn mean_purifier_utilization(&self) -> f64 {
        self.integrate(&self.purifier_utilization)
    }

    fn integrate(&self, trace: &[f64]) -> f64 {
        if self.makespan_ns == 0 {
            return 0.0;
        }
        let mut total = 0.0;
        for (k, v) in trace.iter().enumerate() {
            let w = self.bin_width(k as u32);
            if w > 0 && *v != 0.0 {
                total += v * w as f64;
            }
        }
        total / self.makespan_ns as f64
    }

    /// Flattens the timeline into named metrics, ready to be merged
    /// into a run's metric record under a namespace prefix
    /// (`Metrics::extend`).
    pub fn metrics(&self) -> Metrics {
        let peak = |t: &[f64]| t.iter().copied().fold(0.0, f64::max);
        Metrics::new()
            .with("bins", f64::from(self.bins))
            .with("teleporter_util_peak", peak(&self.teleporter_utilization))
            .with("purifier_util_peak", peak(&self.purifier_utilization))
            .with("storage_occupancy_peak", peak(&self.storage_occupancy))
            .with("max_queue_depth", self.max_queue_depth as f64)
            .with("stall_teleporter", self.stalls.teleporter as f64)
            .with("stall_wire", self.stalls.wire as f64)
            .with("stall_storage", self.stalls.storage as f64)
            .with("events_dispatched", self.dispatch.total() as f64)
            .with("comms_tracked", self.comms.len() as f64)
    }
}

fn bin_edge(makespan_ns: u64, bins: u32, k: u32) -> u64 {
    debug_assert!(k <= bins);
    ((u128::from(makespan_ns) * u128::from(k)) / u128::from(bins)) as u64
}

/// The bin whose `[edge(k), edge(k+1))` range contains `t`.
fn locate_bin(makespan_ns: u64, bins: u32, t: u64) -> u32 {
    if makespan_ns == 0 || t >= makespan_ns {
        return bins - 1;
    }
    let mut k = ((u128::from(t) * u128::from(bins)) / u128::from(makespan_ns)) as u32;
    k = k.min(bins - 1);
    // Floor-division edges can land the estimate one bin off.
    while k + 1 < bins && bin_edge(makespan_ns, bins, k + 1) <= t {
        k += 1;
    }
    while k > 0 && bin_edge(makespan_ns, bins, k) > t {
        k -= 1;
    }
    k
}

/// Accumulates `weight_per_ns` over the span `[start, start + dur_ns)`
/// into the bins it overlaps. Any tail past the grid (spans never
/// extend past the makespan in practice, but conservation must hold
/// regardless) lands in the final bin, so the integral of the
/// accumulated trace always equals `dur_ns × weight_per_ns`.
fn add_span(
    acc: &mut [f64],
    makespan_ns: u64,
    bins: u32,
    start: u64,
    dur_ns: u64,
    weight_per_ns: f64,
) {
    if dur_ns == 0 || makespan_ns == 0 {
        return;
    }
    let end = start + dur_ns;
    let mut k = locate_bin(makespan_ns, bins, start);
    loop {
        let lo = bin_edge(makespan_ns, bins, k).max(start);
        let hi = if k + 1 == bins {
            end
        } else {
            bin_edge(makespan_ns, bins, k + 1).min(end)
        };
        if hi > lo {
            acc[k as usize] += (hi - lo) as f64 * weight_per_ns;
        }
        if k + 1 == bins || bin_edge(makespan_ns, bins, k + 1) >= end {
            break;
        }
        k += 1;
    }
}

/// A probe that records every hook into a structured event stream and
/// distills it into a [`TimelineReport`] at the end of the run.
///
/// Attach it with the simulator's `with_probe` constructors and recover
/// it (for the exporters) from `run_traced`. Recording the same
/// configuration twice yields byte-identical exporter output.
#[derive(Debug, Clone, Default)]
pub struct RecordingProbe {
    bins: u32,
    fabric: Option<FabricInfo>,
    events: Vec<TraceEvent>,
    dispatch: DispatchCounts,
    stalls: StallBreakdown,
    max_queue_depth: u64,
}

/// Default sampling-grid resolution.
const DEFAULT_BINS: u32 = 64;

impl RecordingProbe {
    /// A recording probe with the default sampling grid (64 bins).
    pub fn new() -> RecordingProbe {
        RecordingProbe::with_bins(DEFAULT_BINS)
    }

    /// A recording probe with a custom sampling-grid resolution.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero.
    pub fn with_bins(bins: u32) -> RecordingProbe {
        assert!(bins > 0, "the sampling grid needs at least one bin");
        RecordingProbe {
            bins,
            fabric: None,
            events: Vec::new(),
            dispatch: DispatchCounts::default(),
            stalls: StallBreakdown::default(),
            max_queue_depth: 0,
        }
    }

    /// The fabric under instrumentation, once the run has started.
    pub fn fabric(&self) -> Option<&FabricInfo> {
        self.fabric.as_ref()
    }

    /// The recorded event stream, chronological.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    fn record(&mut self, t_ns: u64, kind: TraceEventKind) {
        self.events.push(TraceEvent { t_ns, kind });
    }

    /// Builds the timeline without consuming the probe (also used by
    /// [`Probe::finish`]).
    pub fn timeline(&self, makespan_ns: u64) -> TimelineReport {
        let bins = self.bins;
        let nb = bins as usize;
        let info = self.fabric.as_ref();
        let empty: &[u32] = &[];
        let tele_caps: &[u32] = info.map_or(empty, |i| i.teleset_capacity.as_slice());
        let n_tele = tele_caps.len();
        let n_sites = info.map_or(0, |i| i.nodes as usize);
        let puri_units = info.map_or(1, |i| i.purifier_units).max(1);
        let n_banks = info.map_or(0, |i| (i.nodes * i.ports_per_node) as usize);
        let store_cap = info.map_or(1, |i| i.storage_capacity).max(1);

        let mut tele = vec![0.0; nb];
        let mut puri = vec![0.0; nb];
        let mut occ = vec![0.0; nb];
        let mut used = vec![0u32; n_banks];
        let mut total_used: u64 = 0;
        let mut seg_start = 0u64;
        let mut comms: Vec<CommTimeline> = Vec::new();

        for ev in &self.events {
            match ev.kind {
                TraceEventKind::Submit { comm, hops } => comms.push(CommTimeline {
                    comm,
                    submitted_ns: ev.t_ns,
                    route_hops: hops,
                    completed_ns: None,
                    dropped: false,
                    hops: Vec::new(),
                }),
                TraceEventKind::HopFire {
                    comm,
                    pos,
                    link,
                    teleset,
                    service_ns,
                } => {
                    let cap = tele_caps.get(teleset as usize).copied().unwrap_or(1).max(1);
                    add_span(
                        &mut tele,
                        makespan_ns,
                        bins,
                        ev.t_ns,
                        service_ns,
                        1.0 / f64::from(cap),
                    );
                    if let Some(c) = comms.get_mut(comm as usize) {
                        c.hops.push(HopSpan {
                            pos,
                            link,
                            start_ns: ev.t_ns,
                            service_ns,
                        });
                    }
                }
                TraceEventKind::PurifyStart { dur_ns, .. } => {
                    add_span(
                        &mut puri,
                        makespan_ns,
                        bins,
                        ev.t_ns,
                        dur_ns,
                        1.0 / f64::from(puri_units),
                    );
                }
                TraceEventKind::Storage { storage, used: u } => {
                    if ev.t_ns > seg_start && total_used > 0 {
                        add_span(
                            &mut occ,
                            makespan_ns,
                            bins,
                            seg_start,
                            ev.t_ns - seg_start,
                            total_used as f64,
                        );
                    }
                    seg_start = ev.t_ns;
                    if let Some(prev) = used.get_mut(storage as usize) {
                        total_used = total_used + u64::from(u) - u64::from(*prev);
                        *prev = u;
                    }
                }
                TraceEventKind::Drop { comm } => {
                    if let Some(c) = comms.get_mut(comm as usize) {
                        c.dropped = true;
                        c.completed_ns = Some(ev.t_ns);
                    }
                }
                TraceEventKind::Done { comm, .. } => {
                    if let Some(c) = comms.get_mut(comm as usize) {
                        c.completed_ns = Some(ev.t_ns);
                    }
                }
                TraceEventKind::Reroute { .. }
                | TraceEventKind::Stall { .. }
                | TraceEventKind::WireTake { .. }
                | TraceEventKind::TelesetRelease { .. } => {}
            }
        }
        if makespan_ns > seg_start && total_used > 0 {
            add_span(
                &mut occ,
                makespan_ns,
                bins,
                seg_start,
                makespan_ns - seg_start,
                total_used as f64,
            );
        }

        // Normalise each bin from weighted nanoseconds to a mean-over-
        // resources fraction of the bin width.
        for k in 0..bins {
            let w = bin_edge(makespan_ns, bins, k + 1) - bin_edge(makespan_ns, bins, k);
            let i = k as usize;
            if w == 0 {
                tele[i] = 0.0;
                puri[i] = 0.0;
                occ[i] = 0.0;
                continue;
            }
            let wf = w as f64;
            if n_tele > 0 {
                tele[i] /= wf * n_tele as f64;
            }
            if n_sites > 0 {
                puri[i] /= wf * n_sites as f64;
            }
            if n_banks > 0 {
                occ[i] /= wf * n_banks as f64 * f64::from(store_cap);
            }
        }

        TimelineReport {
            makespan_ns,
            bins,
            teleporter_utilization: tele,
            purifier_utilization: puri,
            storage_occupancy: occ,
            stalls: self.stalls,
            dispatch: self.dispatch,
            max_queue_depth: self.max_queue_depth,
            comms,
        }
    }
}

impl Probe for RecordingProbe {
    const ACTIVE: bool = true;

    fn on_fabric(&mut self, info: &FabricInfo) {
        self.fabric = Some(info.clone());
    }

    fn on_event(&mut self, _now_ns: u64, kind: EventKind) {
        self.dispatch.bump(kind);
    }

    fn on_queue_depth(&mut self, _now_ns: u64, depth: usize) {
        self.max_queue_depth = self.max_queue_depth.max(depth as u64);
    }

    fn on_submit(&mut self, now_ns: u64, comm: u32, hops: u32) {
        self.record(now_ns, TraceEventKind::Submit { comm, hops });
    }

    fn on_reroute(&mut self, now_ns: u64, comm: u32) {
        self.record(now_ns, TraceEventKind::Reroute { comm });
    }

    fn on_stall(&mut self, now_ns: u64, cause: StallCause, resource: u32, comm: u32) {
        match cause {
            StallCause::Teleporter => self.stalls.teleporter += 1,
            StallCause::Wire => self.stalls.wire += 1,
            StallCause::Storage => self.stalls.storage += 1,
        }
        self.record(
            now_ns,
            TraceEventKind::Stall {
                cause,
                resource,
                comm,
            },
        );
    }

    fn on_wire_take(&mut self, now_ns: u64, link: u32) {
        self.record(now_ns, TraceEventKind::WireTake { link });
    }

    fn on_hop_fire(
        &mut self,
        now_ns: u64,
        comm: u32,
        pos: u32,
        link: u32,
        teleset: u32,
        service_ns: u64,
    ) {
        self.record(
            now_ns,
            TraceEventKind::HopFire {
                comm,
                pos,
                link,
                teleset,
                service_ns,
            },
        );
    }

    fn on_teleset_release(&mut self, now_ns: u64, teleset: u32) {
        self.record(now_ns, TraceEventKind::TelesetRelease { teleset });
    }

    fn on_storage(&mut self, now_ns: u64, storage: u32, used: u32) {
        self.record(now_ns, TraceEventKind::Storage { storage, used });
    }

    fn on_purify_start(&mut self, now_ns: u64, site: u32, comm: u32, ops: u32, dur_ns: u64) {
        self.record(
            now_ns,
            TraceEventKind::PurifyStart {
                site,
                comm,
                ops,
                dur_ns,
            },
        );
    }

    fn on_comm_drop(&mut self, now_ns: u64, comm: u32) {
        self.record(now_ns, TraceEventKind::Drop { comm });
    }

    fn on_comm_done(&mut self, now_ns: u64, comm: u32, issued_ns: u64) {
        self.record(now_ns, TraceEventKind::Done { comm, issued_ns });
    }

    fn finish(&mut self, makespan_ns: u64) -> Option<TimelineReport> {
        Some(self.timeline(makespan_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_fabric() -> FabricInfo {
        FabricInfo {
            topology: "mesh".into(),
            width: 2,
            height: 1,
            nodes: 2,
            links: 1,
            port_classes: 1,
            ports_per_node: 2,
            teleset_capacity: vec![2, 2],
            storage_capacity: 2,
            purifier_units: 1,
        }
    }

    #[test]
    fn grid_edges_cover_the_horizon_exactly() {
        for (span, bins) in [(1000u64, 64u32), (7u64, 3u32), (3u64, 8u32)] {
            assert_eq!(bin_edge(span, bins, 0), 0);
            assert_eq!(bin_edge(span, bins, bins), span);
            let total: u64 = (0..bins)
                .map(|k| bin_edge(span, bins, k + 1) - bin_edge(span, bins, k))
                .sum();
            assert_eq!(total, span);
            for t in 0..span {
                let k = locate_bin(span, bins, t);
                assert!(bin_edge(span, bins, k) <= t && t < bin_edge(span, bins, k + 1));
            }
        }
    }

    #[test]
    fn spans_conserve_their_integral() {
        let (span, bins) = (997u64, 13u32);
        let mut acc = vec![0.0; bins as usize];
        add_span(&mut acc, span, bins, 100, 473, 0.5);
        let total: f64 = acc.iter().sum();
        assert!((total - 473.0 * 0.5).abs() < 1e-9, "{total}");
        // A span that would overhang the grid still conserves.
        let mut acc = vec![0.0; bins as usize];
        add_span(&mut acc, span, bins, 990, 50, 1.0);
        let total: f64 = acc.iter().sum();
        assert!((total - 50.0).abs() < 1e-9, "{total}");
    }

    #[test]
    fn utilization_trace_integrates_to_the_scalar() {
        let mut p = RecordingProbe::with_bins(7);
        p.on_fabric(&tiny_fabric());
        // Two teleporter holds on pool 0 (capacity 2): 400 ns at t=0,
        // 200 ns at t=300.
        p.on_hop_fire(0, 0, 0, 0, 0, 400);
        p.on_hop_fire(300, 0, 1, 0, 0, 200);
        // One purify job at the single-unit site.
        p.on_purify_start(500, 1, 0, 1, 250);
        let makespan = 1000u64;
        let t = p.timeline(makespan);
        // Scalar reference, the simulator's arithmetic: per-pool
        // busy/(horizon·cap), averaged over pools.
        let tele_ref = (600.0 / (1000.0 * 2.0)) / 2.0;
        let puri_ref = (250.0 / 1000.0) / 2.0;
        assert!((t.mean_teleporter_utilization() - tele_ref).abs() < 1e-12);
        assert!((t.mean_purifier_utilization() - puri_ref).abs() < 1e-12);
    }

    #[test]
    fn storage_occupancy_is_a_step_function() {
        let mut p = RecordingProbe::with_bins(4);
        p.on_fabric(&tiny_fabric());
        // Bank 0 holds one of its two cells for [100, 500).
        p.on_storage(100, 0, 1);
        p.on_storage(500, 0, 0);
        let t = p.timeline(800);
        // 400 cell·ns over 4 banks × 2 cells × 800 ns horizon.
        let mean: f64 = (0..4)
            .map(|k| t.storage_occupancy[k as usize] * t.bin_width(k) as f64)
            .sum::<f64>()
            / 800.0;
        assert!((mean - 400.0 / (800.0 * 8.0)).abs() < 1e-12, "{mean}");
    }

    #[test]
    fn comm_timelines_assemble() {
        let mut p = RecordingProbe::new();
        p.on_fabric(&tiny_fabric());
        p.on_submit(0, 0, 1);
        p.on_hop_fire(10, 0, 0, 0, 0, 100);
        p.on_comm_done(500, 0, 0);
        p.on_submit(20, 1, 0);
        p.on_comm_drop(20, 1);
        let t = p.timeline(500);
        assert_eq!(t.comms.len(), 2);
        assert_eq!(t.comms[0].hops.len(), 1);
        assert_eq!(t.comms[0].completed_ns, Some(500));
        assert!(!t.comms[0].dropped);
        assert!(t.comms[1].dropped);
        assert_eq!(t.comms[1].completed_ns, Some(20));
    }

    #[test]
    fn counters_and_metrics_flatten() {
        let mut p = RecordingProbe::new();
        p.on_fabric(&tiny_fabric());
        p.on_event(0, EventKind::SourceTry);
        p.on_event(0, EventKind::SourceTry);
        p.on_event(5, EventKind::TeleportDone);
        p.on_queue_depth(5, 17);
        p.on_stall(1, StallCause::Wire, 0, 0);
        p.on_stall(2, StallCause::Storage, 3, 0);
        let t = p.timeline(100);
        assert_eq!(t.dispatch.source_try, 2);
        assert_eq!(t.dispatch.total(), 3);
        assert_eq!(t.max_queue_depth, 17);
        assert_eq!(t.stalls.wire, 1);
        assert_eq!(t.stalls.storage, 1);
        let m = t.metrics();
        assert_eq!(m.get("stall_wire"), Some(1.0));
        assert_eq!(m.get("max_queue_depth"), Some(17.0));
        assert_eq!(m.get("events_dispatched"), Some(3.0));
    }

    #[test]
    fn zero_makespan_yields_flat_zero_traces() {
        let mut p = RecordingProbe::with_bins(3);
        p.on_fabric(&tiny_fabric());
        let t = p.timeline(0);
        assert!(t.teleporter_utilization.iter().all(|&v| v == 0.0));
        assert_eq!(t.mean_teleporter_utilization(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_rejected() {
        let _ = RecordingProbe::with_bins(0);
    }
}
