//! # qic-probe — zero-cost structured tracing for the simulator stack
//!
//! The paper's analysis lives on *where time goes*: teleporter
//! occupancy, link contention, EPR-pair pipeline stalls. End-of-run
//! scalars (`NetReport`) answer *how much*; this crate answers *when
//! and where* — without perturbing the hot path when nobody is looking.
//!
//! The design is a monomorphized [`Probe`] trait:
//!
//! * every hook has an empty default body and the trait carries an
//!   associated `const ACTIVE: bool`;
//! * the simulator guards each call site with `if P::ACTIVE { … }`, so
//!   for the default [`NoProbe`] (`ACTIVE = false`) the branch — and
//!   the argument computation inside it — is statically eliminated:
//!   the instrumented hot path compiles to the uninstrumented one;
//! * attaching a [`RecordingProbe`] turns the same hooks into
//!   structured events, deterministic per-resource time series
//!   ([`TimelineReport`]), a JSONL event log and a Chrome-trace /
//!   Perfetto `trace.json`.
//!
//! Determinism contract: the simulator replays the identical event
//! sequence for a given configuration, so a [`RecordingProbe`]'s event
//! stream — and every exporter's output bytes — are identical across
//! runs, worker counts and machines. The [`schema`] module validates
//! emitted files structurally (CI's observability smoke test).
//!
//! This crate sits below `qic-net` (which threads the probe through its
//! event loop) and deliberately speaks only primitive resource indices,
//! so it can be depended on from anywhere in the stack without cycles.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod export;
mod record;
pub mod schema;

pub use record::{
    CommTimeline, DispatchCounts, HopSpan, RecordingProbe, StallBreakdown, TimelineReport,
    TraceEvent, TraceEventKind,
};

/// The simulator event classes, as seen by [`Probe::on_event`] at
/// dispatch time. Mirrors the (private) event enum of the `qic-net`
/// event loop one-for-one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A communication's head-of-line pair attempted injection.
    SourceTry,
    /// A chained pair finished a teleport hop.
    TeleportDone,
    /// A wire may have produced pairs for its waiters.
    WireWake,
    /// A purifier unit finished a cascade job.
    PurifyDone,
    /// The final data teleport of a communication finished.
    DataTeleportDone,
    /// A communication with no surviving path was dropped.
    Dropped,
    /// A deferred driver submission fired.
    Submit,
    /// A driver timer fired.
    Notify,
}

impl EventKind {
    /// Every event class, in dispatch-enum order.
    pub const ALL: [EventKind; 8] = [
        EventKind::SourceTry,
        EventKind::TeleportDone,
        EventKind::WireWake,
        EventKind::PurifyDone,
        EventKind::DataTeleportDone,
        EventKind::Dropped,
        EventKind::Submit,
        EventKind::Notify,
    ];

    /// Stable lowercase label (used by the exporters).
    pub fn label(self) -> &'static str {
        match self {
            EventKind::SourceTry => "source_try",
            EventKind::TeleportDone => "teleport_done",
            EventKind::WireWake => "wire_wake",
            EventKind::PurifyDone => "purify_done",
            EventKind::DataTeleportDone => "data_teleport_done",
            EventKind::Dropped => "dropped",
            EventKind::Submit => "submit",
            EventKind::Notify => "notify",
        }
    }
}

/// Why a pair-hop could not fire — the three stallable resources of the
/// simulator's commit check, in check order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// Downstream storage had no free cell (or bubble reserve held one).
    Storage,
    /// The link wire had no stocked EPR pair.
    Wire,
    /// The teleporter pool was fully busy.
    Teleporter,
}

impl StallCause {
    /// Stable lowercase label (used by the exporters).
    pub fn label(self) -> &'static str {
        match self {
            StallCause::Storage => "storage",
            StallCause::Wire => "wire",
            StallCause::Teleporter => "teleporter",
        }
    }
}

/// Static description of the fabric a run instruments, captured once at
/// construction ([`Probe::on_fabric`]). Resource ids in every later
/// hook index into this: teleporter pools as `node × port_classes +
/// class`, storage banks as `node × ports_per_node + incoming port`,
/// purifier sites and links by their dense indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricInfo {
    /// Topology name (`"mesh"`, `"torus"`, `"hypercube"`, …).
    pub topology: String,
    /// Grid width in sites.
    pub width: u16,
    /// Grid height in sites.
    pub height: u16,
    /// Node count.
    pub nodes: u32,
    /// Link count.
    pub links: u32,
    /// Port classes (dimension sets) per node.
    pub port_classes: u32,
    /// Ports per node.
    pub ports_per_node: u32,
    /// Teleporter-pool capacities, indexed `node × port_classes + class`
    /// (degraded fabrics may vary per node).
    pub teleset_capacity: Vec<u32>,
    /// Storage cells per (node, incoming-link) bank.
    pub storage_capacity: u32,
    /// Purifier units per endpoint site.
    pub purifier_units: u32,
}

/// The instrumentation interface the simulator is generic over.
///
/// Every hook has an empty default body; implementors override what
/// they need. The simulator calls hooks only inside `if P::ACTIVE`
/// guards, so a probe with `ACTIVE = false` costs literally nothing —
/// the guard is a compile-time constant and the whole call site is
/// eliminated.
///
/// Time is simulation time in integer nanoseconds; resource ids follow
/// the [`FabricInfo`] indexing.
pub trait Probe {
    /// Whether the simulator should emit events to this probe. Call
    /// sites are guarded by this constant; `false` compiles the hooks
    /// away entirely.
    const ACTIVE: bool;

    /// The fabric under instrumentation, once, at construction.
    fn on_fabric(&mut self, info: &FabricInfo) {
        let _ = info;
    }

    /// An event left the queue and is about to be handled.
    fn on_event(&mut self, now_ns: u64, kind: EventKind) {
        let _ = (now_ns, kind);
    }

    /// Queue depth observed at a dispatch batch boundary.
    fn on_queue_depth(&mut self, now_ns: u64, depth: usize) {
        let _ = (now_ns, depth);
    }

    /// A communication was submitted (`hops = 0` for an unreachable
    /// submission that will drop, or co-located endpoints).
    fn on_submit(&mut self, now_ns: u64, comm: u32, hops: u32) {
        let _ = (now_ns, comm, hops);
    }

    /// A submission routed longer than the healthy minimal distance
    /// (fault-aware topologies only).
    fn on_reroute(&mut self, now_ns: u64, comm: u32) {
        let _ = (now_ns, comm);
    }

    /// A pair-hop could not fire and queued on `resource`.
    fn on_stall(&mut self, now_ns: u64, cause: StallCause, resource: u32, comm: u32) {
        let _ = (now_ns, cause, resource, comm);
    }

    /// One EPR pair was consumed from a link wire.
    fn on_wire_take(&mut self, now_ns: u64, link: u32) {
        let _ = (now_ns, link);
    }

    /// A pair-hop committed: the teleporter slot is held for
    /// `service_ns` starting now.
    fn on_hop_fire(
        &mut self,
        now_ns: u64,
        comm: u32,
        pos: u32,
        link: u32,
        teleset: u32,
        service_ns: u64,
    ) {
        let _ = (now_ns, comm, pos, link, teleset, service_ns);
    }

    /// A teleporter slot was released.
    fn on_teleset_release(&mut self, now_ns: u64, teleset: u32) {
        let _ = (now_ns, teleset);
    }

    /// A storage bank's occupancy changed to `used` cells.
    fn on_storage(&mut self, now_ns: u64, storage: u32, used: u32) {
        let _ = (now_ns, storage, used);
    }

    /// A purification cascade job started: one unit at `site` is held
    /// for `dur_ns` starting now.
    fn on_purify_start(&mut self, now_ns: u64, site: u32, comm: u32, ops: u32, dur_ns: u64) {
        let _ = (now_ns, site, comm, ops, dur_ns);
    }

    /// A communication was dropped with a structured `Unreachable`
    /// outcome.
    fn on_comm_drop(&mut self, now_ns: u64, comm: u32) {
        let _ = (now_ns, comm);
    }

    /// A communication's data teleport completed.
    fn on_comm_done(&mut self, now_ns: u64, comm: u32, issued_ns: u64) {
        let _ = (now_ns, comm, issued_ns);
    }

    /// Called once at report time; a recording probe folds its event
    /// stream into a [`TimelineReport`] here.
    fn finish(&mut self, makespan_ns: u64) -> Option<TimelineReport> {
        let _ = makespan_ns;
        None
    }
}

/// The default probe: inert, and statically so. With `ACTIVE = false`
/// every hook call site in the simulator is eliminated at compile time,
/// so `NetworkSim<T, NoProbe>` (the default) is bit-for-bit the
/// uninstrumented hot path — the `bench_gate` trajectory holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoProbe;

impl Probe for NoProbe {
    const ACTIVE: bool = false;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noprobe_is_inactive_and_yields_no_timeline() {
        const { assert!(!NoProbe::ACTIVE) };
        let mut p = NoProbe;
        // Hooks are callable no-ops.
        p.on_event(0, EventKind::Submit);
        p.on_stall(1, StallCause::Wire, 0, 0);
        assert_eq!(p.finish(1000), None);
    }

    #[test]
    fn labels_are_stable_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for kind in EventKind::ALL {
            assert!(seen.insert(kind.label()), "duplicate label {kind:?}");
        }
        assert_eq!(StallCause::Storage.label(), "storage");
        assert_eq!(StallCause::Wire.label(), "wire");
        assert_eq!(StallCause::Teleporter.label(), "teleporter");
    }
}
