//! The event-driven communication simulator — **Section 5**.
//!
//! A logical communication opens a *channel*: a minimal route of
//! teleport hops from source to destination, chosen by the configured
//! [`Router`] over the configured [`Topology`] (the paper's setup is
//! dimension-order routing on a mesh). The channel streams
//! `outputs × 2^depth` chained EPR pairs; every hop consumes one link pair
//! from the link's G node, one teleporter slot in the router's
//! per-dimension-set pool, and one storage cell at the downstream router
//! (non-multiplexed per incoming link). Arriving pairs cascade through
//! the endpoint's queue purifiers; when enough purified pairs
//! accumulate, the logical qubit is teleported and the driver is
//! notified.
//!
//! All contention is explicit: teleporter sets are time-multiplexed FIFO,
//! wires produce at finite rate into bounded buffers, and storage exerts
//! backpressure upstream. On fabrics whose channel-dependency graph has
//! cycles (torus wraps, adaptive routing) the simulator additionally
//! applies **bubble flow control**: a hop that enters a new dimension
//! ring — injection or a class change — must leave one downstream
//! storage cell free, so a ring can never fill completely and deadlock.
//! Determinism: strict FIFO tie-breaking throughout — every run with
//! the same configuration replays the identical event sequence.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

use qic_des::queue::EventQueue;
use qic_des::stats::{Percentiles, Tally};
use qic_des::time::SimTime;
use qic_physics::time::Duration;
use qic_probe::{EventKind, FabricInfo, NoProbe, Probe, StallCause};

use crate::config::NetConfig;
use crate::report::{FaultStats, NetReport};
use crate::routing::Router;
use crate::topology::{Coord, Fabric, Port, Topology};

/// Identifier of a logical communication within one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CommId(pub u32);

/// How a communication finished.
///
/// On healthy fabrics every communication is [`CommOutcome::Delivered`].
/// Over a fault-aware topology (`qic-fault`'s `DegradedFabric`) a
/// communication whose endpoints are dead or disconnected finishes
/// immediately as [`CommOutcome::Unreachable`] — a structured outcome
/// the driver can react to, instead of a simulator hang.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommOutcome {
    /// The logical qubit teleported to its destination.
    Delivered,
    /// No surviving path (or a dead endpoint); nothing moved.
    Unreachable,
}

/// Completion record handed to the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommDone {
    /// The completed communication.
    pub id: CommId,
    /// Caller-supplied tag.
    pub tag: u64,
    /// Channel source.
    pub src: Coord,
    /// Channel destination.
    pub dst: Coord,
    /// Submission time.
    pub issued_at: SimTime,
    /// Completion time (data teleport finished, or the drop decision).
    pub completed_at: SimTime,
    /// Whether the data arrived or the communication was dropped.
    pub outcome: CommOutcome,
}

/// The workload side of a simulation: submits communications and reacts
/// to completions. Implemented by the layout schedulers in `qic-core`.
pub trait Driver {
    /// Called once at time zero; submit the initial communications here.
    fn start(&mut self, api: &mut SimApi<'_>);

    /// Called whenever a communication completes.
    fn on_complete(&mut self, done: CommDone, api: &mut SimApi<'_>);

    /// Called when a timer set by [`SimApi::notify_after`] fires. Layout
    /// schedulers use this to model logical gate latency between a
    /// channel's completion and the follow-up communication.
    fn on_notify(&mut self, tag: u64, api: &mut SimApi<'_>) {
        let _ = (tag, api);
    }
}

/// A driver that submits exactly one communication.
#[derive(Debug, Clone)]
pub struct OneShotDriver {
    src: Coord,
    dst: Coord,
    /// Completion record, if finished.
    pub done: Option<CommDone>,
}

impl OneShotDriver {
    /// One communication from `src` to `dst`.
    pub fn new(src: Coord, dst: Coord) -> Self {
        OneShotDriver {
            src,
            dst,
            done: None,
        }
    }
}

impl Driver for OneShotDriver {
    fn start(&mut self, api: &mut SimApi<'_>) {
        api.submit_now(self.src, self.dst, 0);
    }

    fn on_complete(&mut self, done: CommDone, _api: &mut SimApi<'_>) {
        self.done = Some(done);
    }
}

/// A driver that submits a fixed batch at time zero.
#[derive(Debug, Clone)]
pub struct BatchDriver {
    batch: Vec<(Coord, Coord)>,
    /// Completion records in completion order.
    pub completions: Vec<CommDone>,
}

impl BatchDriver {
    /// Submits every `(src, dst)` pair at start.
    pub fn new(batch: Vec<(Coord, Coord)>) -> Self {
        BatchDriver {
            batch,
            completions: Vec::new(),
        }
    }
}

impl Driver for BatchDriver {
    fn start(&mut self, api: &mut SimApi<'_>) {
        for (i, &(src, dst)) in self.batch.iter().enumerate() {
            api.submit_now(src, dst, i as u64);
        }
    }

    fn on_complete(&mut self, done: CommDone, _api: &mut SimApi<'_>) {
        self.completions.push(done);
    }
}

// ---------------------------------------------------------------------------
// Events and world state
// ---------------------------------------------------------------------------

/// A simulator event: eight bytes, so the queue moves as little as
/// possible per event (pinned below). Payloads that do not fit — a
/// deferred driver call's coordinates and tag — wait in
/// [`World::calls`], and the purifier site of a [`Event::PurifyDone`]
/// is its comm's destination site.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// The comm's head-of-line pair attempts injection at the source.
    SourceTry { comm: u32 },
    /// A chained pair finished a teleport hop.
    TeleportDone { token: u32 },
    /// A wire may have produced pairs for its waiters.
    WireWake { edge: u32 },
    /// A purifier unit at the comm's destination site finished a
    /// cascade job of `ops` rounds (at most the validated depth cap, 20).
    PurifyDone { comm: u32, ops: u8, produces: bool },
    /// The final data teleport of a communication finished.
    DataTeleportDone { comm: u32 },
    /// A communication with no surviving path is dropped (fault-aware
    /// topologies only).
    Dropped { comm: u32 },
    /// A deferred driver call, by its slot in [`World::calls`].
    Driver { call: u32 },
}

const _: () = assert!(std::mem::size_of::<Event>() == 8);

/// A driver call deferred by [`SimApi::submit_after`] or
/// [`SimApi::notify_after`]. Its payload would triple the size of
/// [`Event`], and such calls are under 0.2% of a QFT run's events, so
/// it waits in a slab of [`World`] and the event carries its slot.
#[derive(Debug, Clone, Copy)]
enum DriverCall {
    /// A deferred submission.
    Submit { src: Coord, dst: Coord, tag: u64 },
    /// A driver timer.
    Notify { tag: u64 },
}

/// Waiter-id encoding: tokens use their index, comm sources set the high
/// bit.
const SOURCE_FLAG: u64 = 1 << 63;

#[derive(Debug, Clone, Copy)]
struct Token {
    comm: u32,
    /// Index into the comm's route nodes where the pair currently sits.
    pos: u16,
    alive: bool,
}

/// Everything one hop of a channel needs, precomputed at route-build
/// time so the per-event hot path is pure array lookups — no topology
/// virtual calls, no port arithmetic.
#[derive(Debug, Clone, Copy)]
struct Hop {
    /// Link crossed by this hop.
    link: u32,
    /// Teleporter pool serving this hop (`node * classes + class`).
    teleset: u32,
    /// Storage bank at the landing node (`next * ports + incoming`).
    storage: u32,
    /// Service time: turn penalty (dimension change) + local teleport.
    service: Duration,
    /// Whether this hop enters a new dimension ring (injection or a
    /// port-class change) — the bubble-flow-control reserve point.
    ring_entry: bool,
}

/// A fully precomputed channel route, shared via `Rc` between the
/// owning [`Comm`] and the per-pair route cache (dimension-order
/// routes are pure functions of the endpoints, so healthy fabrics
/// build each pair's path once).
#[derive(Debug)]
struct RoutePath {
    /// Per-hop resource indices and service times.
    hops: Vec<Hop>,
    /// Purifier site at the destination (dense node index).
    dst_site: u32,
    purify_op_time: Duration,
    data_teleport_time: Duration,
}

#[derive(Debug)]
struct Comm {
    src: Coord,
    dst: Coord,
    tag: u64,
    /// The channel's precomputed route.
    path: Rc<RoutePath>,
    raw_to_spawn: u64,
    arrivals: u64,
    outputs: u64,
    needed_outputs: u64,
    issued_at: SimTime,
    source_waiting: bool,
    done: bool,
}

// --- struct-of-arrays resource state ----------------------------------
//
// The simulator keeps each resource's state as parallel flat vectors
// over the dense indices `Topology` provides, so the hot path touches
// one primitive array per field instead of pointer-chasing whole
// structs. Shared scalars (wire interval/cap, storage capacity,
// purifier units — uniform across instances by construction) are
// stored once.

/// Marks an empty intrusive list slot / the end of a chain.
const NO_WAITER: u32 = u32::MAX;

/// Intrusive FIFO waiter lists for every stallable resource, in one
/// arena. The previous layout kept a `VecDeque` per resource instance —
/// cloning ~160 of them dominated simulator construction. Here every
/// resource owns only a `(head, tail)` slot pair in `lists`; the queued
/// entries live in a shared node pool (`next`/`payload`) recycled
/// through `free`, so constructing the arena is one allocation no
/// matter how many resources the fabric has.
///
/// Resource ids share one dense space, offsets fixed at construction:
/// telesets first, then storages, then wires, then purifier sites.
#[derive(Debug)]
struct Waiters {
    /// Interleaved `head, tail` per resource id; `NO_WAITER` = empty.
    lists: Vec<u32>,
    next: Vec<u32>,
    payload: Vec<u64>,
    free: Vec<u32>,
}

impl Waiters {
    fn new(resources: usize) -> Waiters {
        Waiters {
            lists: vec![NO_WAITER; resources * 2],
            next: Vec::new(),
            payload: Vec::new(),
            free: Vec::new(),
        }
    }

    #[inline]
    fn is_empty(&self, id: usize) -> bool {
        self.lists[id * 2] == NO_WAITER
    }

    #[inline]
    fn push_back(&mut self, id: usize, value: u64) {
        let node = match self.free.pop() {
            Some(n) => {
                self.next[n as usize] = NO_WAITER;
                self.payload[n as usize] = value;
                n
            }
            None => {
                let n = u32::try_from(self.next.len()).expect("waiter nodes fit u32");
                self.next.push(NO_WAITER);
                self.payload.push(value);
                n
            }
        };
        let tail = self.lists[id * 2 + 1];
        if tail == NO_WAITER {
            self.lists[id * 2] = node;
        } else {
            self.next[tail as usize] = node;
        }
        self.lists[id * 2 + 1] = node;
    }

    #[inline]
    fn pop_front(&mut self, id: usize) -> Option<u64> {
        self.pop_front_node(id).map(|(_, value)| value)
    }

    /// Pops the first waiter on `id` with the node it occupied (now
    /// free for reuse).
    #[inline]
    fn pop_front_node(&mut self, id: usize) -> Option<(u32, u64)> {
        let head = self.lists[id * 2];
        if head == NO_WAITER {
            return None;
        }
        let h = head as usize;
        let next = self.next[h];
        self.lists[id * 2] = next;
        if next == NO_WAITER {
            self.lists[id * 2 + 1] = NO_WAITER;
        }
        self.free.push(head);
        Some((head, self.payload[h]))
    }

    /// The last queued node on `id`, or `NO_WAITER` if none.
    #[inline]
    fn tail(&self, id: usize) -> u32 {
        self.lists[id * 2 + 1]
    }
}

/// Teleporter pools, `node * port_classes + port_class` (Figure 6's
/// per-dimension sets). Capacity varies per node on degraded fabrics.
#[derive(Debug)]
struct Telesets {
    capacity: Vec<u32>,
    busy: Vec<u32>,
    /// Busy-time integrals for utilization reporting (widened to `u128`
    /// at report time; `u64` nanoseconds hold ~584 years of busy time).
    busy_ns: Vec<u64>,
}

impl Telesets {
    #[inline]
    fn available(&self, i: usize) -> bool {
        self.busy[i] < self.capacity[i]
    }

    #[inline]
    fn acquire(&mut self, i: usize, hold: Duration) {
        debug_assert!(self.available(i), "acquire on a full pool");
        self.busy[i] += 1;
        self.busy_ns[i] += hold.as_nanos();
    }

    #[inline]
    fn release(&mut self, i: usize) {
        debug_assert!(self.busy[i] > 0, "release without acquire");
        self.busy[i] -= 1;
    }
}

/// Link-pair wires by link index (Figure 5's G nodes). Every wire
/// shares the config-derived production interval and buffer cap.
#[derive(Debug)]
struct Wires {
    interval: Duration,
    cap: u64,
    stock: Vec<u64>,
    /// Completion time of the pair in production (meaningful only
    /// while `stock < cap`).
    next_ready: Vec<SimTime>,
    produced: Vec<u64>,
    consumed: Vec<u64>,
    /// Whether a wake event is already scheduled for the wire.
    wake_pending: Vec<bool>,
}

impl Wires {
    /// Brings wire `i`'s lazy production up to date with the clock —
    /// integer-exact, so behaviour is independent of observation times.
    ///
    /// Closed form of the produce-one-per-interval loop: with the next
    /// completion at `next ≤ now`, `(now − next) / interval + 1` pairs
    /// have finished; production pauses when the buffer fills, keeping
    /// the *last* completion time (the filling step does not advance
    /// `next_ready` — it resumes from consumption instead).
    #[inline]
    fn refresh(&mut self, i: usize, now: SimTime) {
        let stock = self.stock[i];
        if stock >= self.cap || self.next_ready[i] > now {
            return;
        }
        let interval = self.interval.as_nanos();
        let next = self.next_ready[i].as_nanos();
        let avail = (now.as_nanos() - next) / interval + 1;
        let k = avail.min(self.cap - stock);
        self.stock[i] = stock + k;
        self.produced[i] += k;
        let steps = if stock + k == self.cap { k - 1 } else { k };
        self.next_ready[i] = SimTime::from_nanos(next + steps * interval);
    }

    /// Consumes one pair from a **refreshed** wire with stock.
    #[inline]
    fn take_refreshed(&mut self, i: usize, now: SimTime) {
        debug_assert!(self.stock[i] > 0, "take on an empty wire");
        if self.stock[i] == self.cap {
            // Production was paused at full buffer; it resumes now.
            self.next_ready[i] = now + self.interval;
        }
        self.stock[i] -= 1;
        self.consumed[i] += 1;
    }
}

/// Per-(node, incoming-link) storage cells (§5.3: not multiplexed).
/// Capacity is uniform: `teleporters_per_node` cells per link.
#[derive(Debug)]
struct Storages {
    capacity: u32,
    used: Vec<u32>,
}

impl Storages {
    #[inline]
    fn free_cells(&self, i: usize) -> u32 {
        self.capacity - self.used[i]
    }

    #[inline]
    fn reserve(&mut self, i: usize) {
        debug_assert!(self.used[i] < self.capacity, "storage overflow");
        self.used[i] += 1;
    }

    #[inline]
    fn free(&mut self, i: usize) {
        assert!(self.used[i] > 0, "free on empty storage");
        self.used[i] -= 1;
    }
}

/// Endpoint purifier sites by node index; every site has the same
/// configured unit count. Jobs waiting for a unit queue in the shared
/// [`Waiters`] arena as packed words (see [`pack_purify_job`]).
#[derive(Debug)]
struct Purifiers {
    units: u32,
    busy: Vec<u32>,
    busy_ns: Vec<u64>,
}

/// Packs a queued purifier job into a [`Waiters`] payload word:
/// `comm` in the low 32 bits, `ops` above it, `produces` in the top
/// bit. The job duration is not stored — it is recomputed on dequeue
/// from the comm's route (`purify_op_time × ops`, the same
/// multiplication that produced it, hence the identical value).
#[inline]
fn pack_purify_job(comm: u32, ops: u32, produces: bool) -> u64 {
    debug_assert!(ops < 1 << 31, "purify cascade depth fits 31 bits");
    u64::from(comm) | u64::from(ops) << 32 | u64::from(produces) << 63
}

#[inline]
fn unpack_purify_job(word: u64) -> (u32, u32, bool) {
    (
        word as u32,
        (word >> 32) as u32 & 0x7fff_ffff,
        word >> 63 != 0,
    )
}

/// A cascade's round count as [`Event::PurifyDone`] carries it.
#[inline]
fn cascade_ops(ops: u32) -> u8 {
    u8::try_from(ops).expect("cascade depth fits u8")
}

/// Hasher for the route cache: keys are already well-mixed
/// `(src << 32) | dst` pairs, so one multiply-rotate round suffices
/// (no external hash crates in this workspace).
#[derive(Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("route-cache keys hash as u64");
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29);
    }
}

/// Fabrics at or below this node count use the direct-indexed dense
/// route table (`nodes²` slots of `Option<Rc<_>>` — null-niche, so the
/// empty table is one zeroed allocation).
const DENSE_CACHE_MAX_NODES: usize = 64;

/// The per-pair route cache, armed only when the router declares its
/// routes load-independent ([`Router::cacheable`]) and the fabric is
/// healthy; adaptive and degraded cases keep the dynamic path.
enum RouteCache {
    /// Every communication routes dynamically.
    Off,
    /// Direct-indexed `src * nodes + dst` table for small fabrics.
    Dense(Vec<Option<Rc<RoutePath>>>),
    /// Hash table for fabrics where `nodes²` slots would be wasteful.
    Sparse(HashMap<u64, Rc<RoutePath>, BuildHasherDefault<PairHasher>>),
}

/// The teleporters of one dimension set: `t` split as evenly as possible
/// across the fabric's port classes (the mesh's X set rounds up, exactly
/// as in Figure 6). [`World::new`] requires `t ≥ classes`, so every
/// class gets at least one without inflating the per-node budget.
fn teleset_share(t: u32, classes: usize, class: usize) -> u32 {
    let classes = classes as u32;
    let base = t / classes;
    let extra = u32::from((class as u32) < t % classes);
    (base + extra).max(1)
}

struct World<T: Topology, P: Probe> {
    cfg: NetConfig,
    /// Instrumentation sink. Every hook call site is guarded by
    /// `P::ACTIVE`, a compile-time constant, so with the default
    /// [`NoProbe`] the probe costs nothing — field, guards and argument
    /// computation all vanish in codegen.
    probe: P,
    topo: T,
    router: Box<dyn Router>,
    /// Cached `topo.ports_per_node()`.
    ports_per_node: usize,
    /// Cached `topo.port_classes()`.
    classes: usize,
    /// Whether bubble flow control is active (cyclic fabric or adaptive
    /// routing; see [`NetConfig::needs_bubble`]).
    bubble: bool,
    /// Cached `topo.fault_aware()`: gates drop/reroute accounting and
    /// the report's fault block, so healthy runs cost (and emit) nothing.
    fault_aware: bool,
    /// Cached `topo.link_penalties()`: gates the per-hop
    /// `hop_penalty_ns` lookup, so fabrics without a penalty model pay
    /// nothing on the hot path.
    penalties: bool,
    queue: EventQueue<Event>,
    /// Pending deferred driver calls, by the slot an [`Event::Driver`]
    /// names; freed slots are reused through `free_calls`.
    calls: Vec<DriverCall>,
    free_calls: Vec<u32>,
    comms: Vec<Comm>,
    tokens: Vec<Token>,
    free_tokens: Vec<u32>,
    /// Teleporter pools: `node_index * port_classes + port_class`.
    telesets: Telesets,
    /// Link wires by link index.
    wires: Wires,
    /// Storage: `node_index * ports_per_node + incoming port index`.
    storage: Storages,
    /// Purifier sites by node index.
    sites: Purifiers,
    /// One waiter arena for all stallable resources. Telesets use their
    /// own index; the other kinds add these offsets.
    waiters: Waiters,
    wait_storage0: usize,
    wait_wire0: usize,
    wait_site0: usize,
    /// Precomputed per-hop service constants (`cfg.times` is fixed for
    /// the run, so the turn penalty and local teleport time are too).
    hop_time: Duration,
    turn_time: Duration,
    route_cache: RouteCache,
    /// Open channels per link — the contention signal adaptive routing
    /// consults.
    channel_load: Vec<u32>,
    live_comms: u64,
    // statistics
    teleport_ops: u64,
    purify_ops: u64,
    purified_outputs: u64,
    teleporter_stalls: u64,
    wire_stalls: u64,
    storage_stalls: u64,
    comms_completed: u64,
    comms_dropped: u64,
    comms_rerouted: u64,
    /// Sum over delivered comms of `routed hops / healthy hops`.
    route_inflation_sum: f64,
    comm_latency_us: Tally,
    /// Raw per-communication latencies (µs), kept for exact
    /// end-of-run percentiles.
    latency_samples: Vec<f64>,
}

/// The non-generic slice of [`World`] the driver-facing API needs, so
/// [`SimApi`] (and therefore [`Driver`]) stays independent of the
/// topology type parameter.
trait WorldApi {
    fn now(&self) -> SimTime;
    fn submit(&mut self, src: Coord, dst: Coord, tag: u64) -> CommId;
    fn schedule_submit(&mut self, delay: Duration, src: Coord, dst: Coord, tag: u64);
    fn schedule_notify(&mut self, delay: Duration, tag: u64);
    fn live_comms(&self) -> u64;
}

impl<T: Topology, P: Probe> WorldApi for World<T, P> {
    fn now(&self) -> SimTime {
        self.queue.now()
    }

    fn submit(&mut self, src: Coord, dst: Coord, tag: u64) -> CommId {
        World::submit(self, src, dst, tag)
    }

    fn schedule_submit(&mut self, delay: Duration, src: Coord, dst: Coord, tag: u64) {
        self.defer(delay, DriverCall::Submit { src, dst, tag });
    }

    fn schedule_notify(&mut self, delay: Duration, tag: u64) {
        self.defer(delay, DriverCall::Notify { tag });
    }

    fn live_comms(&self) -> u64 {
        self.live_comms
    }
}

/// The driver-facing API: submit communications, read the clock.
pub struct SimApi<'a> {
    world: &'a mut (dyn WorldApi + 'a),
}

impl SimApi<'_> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    /// Submits a communication immediately. Returns its id.
    pub fn submit_now(&mut self, src: Coord, dst: Coord, tag: u64) -> CommId {
        self.world.submit(src, dst, tag)
    }

    /// Submits a communication after a delay (e.g. a logical gate time).
    pub fn submit_after(&mut self, delay: Duration, src: Coord, dst: Coord, tag: u64) {
        self.world.schedule_submit(delay, src, dst, tag);
    }

    /// Requests a [`Driver::on_notify`] callback after `delay`.
    pub fn notify_after(&mut self, delay: Duration, tag: u64) {
        self.world.schedule_notify(delay, tag);
    }

    /// Communications submitted so far that have not completed.
    pub fn live_comms(&self) -> u64 {
        self.world.live_comms()
    }
}

// ---------------------------------------------------------------------------
// World mechanics
// ---------------------------------------------------------------------------

impl<T: Topology, P: Probe> World<T, P> {
    fn new(cfg: NetConfig, topo: T, router: Box<dyn Router>, mut probe: P) -> World<T, P> {
        cfg.validate().expect("configuration must validate");
        let nodes = topo.nodes();
        let classes = topo.port_classes();
        let ports_per_node = topo.ports_per_node();
        let t = cfg.teleporters_per_node;
        // `NetConfig::validate` checks these against the config's own
        // fabric; re-check against the topology actually supplied, which
        // may differ via `NetworkSim::with_topology` / `with_router`.
        assert!(
            t as usize >= classes,
            "teleporters_per_node ({t}) must cover the fabric's {classes} \
             port classes (one teleporter set per dimension)"
        );
        let bubble = cfg.needs_bubble() || !topo.dor_is_acyclic();
        assert!(
            !bubble || t >= 2,
            "bubble flow control (cyclic fabric or adaptive routing) needs \
             at least two storage cells per link, i.e. teleporters_per_node ≥ 2"
        );
        let mut teleset_capacity = Vec::with_capacity(nodes * classes);
        for node in 0..nodes {
            // Fault-aware topologies may degrade a node's teleporter
            // pool; healthy fabrics keep the configured budget.
            let t_node = topo.teleporter_capacity(node, t);
            for class in 0..classes {
                teleset_capacity.push(teleset_share(t_node, classes, class));
            }
        }
        let telesets = Telesets {
            capacity: teleset_capacity,
            busy: vec![0; nodes * classes],
            busy_ns: vec![0; nodes * classes],
        };
        let storage = Storages {
            capacity: t.max(1),
            used: vec![0; nodes * ports_per_node],
        };
        let sites = Purifiers {
            units: cfg.purifiers_per_site,
            busy: vec![0; nodes],
            busy_ns: vec![0; nodes],
        };
        // One pair per tgen per generator; `link_cost_factor` models extra
        // raw-pair consumption (virtual-wire purification).
        let tgen = cfg.times.generate();
        let interval_ns = (tgen.as_nanos() as f64 * cfg.link_cost_factor
            / f64::from(cfg.generators_per_edge))
        .round()
        .max(1.0) as u64;
        let links = topo.links();
        let interval = Duration::from_nanos(interval_ns);
        let wires = Wires {
            interval,
            cap: u64::from(cfg.teleporters_per_node.max(1)),
            stock: vec![0; links],
            next_ready: vec![SimTime::ZERO + interval; links],
            produced: vec![0; links],
            consumed: vec![0; links],
            wake_pending: vec![false; links],
        };
        let wait_storage0 = nodes * classes;
        let wait_wire0 = wait_storage0 + nodes * ports_per_node;
        let wait_site0 = wait_wire0 + links;
        let waiters = Waiters::new(wait_site0 + nodes);
        let channel_load = vec![0; links];
        let fault_aware = topo.fault_aware();
        let penalties = topo.link_penalties();
        let route_cache = if router.cacheable() && !fault_aware {
            if nodes <= DENSE_CACHE_MAX_NODES {
                RouteCache::Dense(vec![None; nodes * nodes])
            } else {
                RouteCache::Sparse(HashMap::default())
            }
        } else {
            RouteCache::Off
        };
        let hop_time = cfg.times.teleport(cfg.hop_cells);
        let turn_time = cfg.times.ballistic(cfg.turn_cells);
        if P::ACTIVE {
            probe.on_fabric(&FabricInfo {
                topology: topo.name().to_string(),
                width: topo.width(),
                height: topo.height(),
                nodes: u32::try_from(nodes).expect("node counts fit u32"),
                links: u32::try_from(links).expect("link counts fit u32"),
                port_classes: u32::try_from(classes).expect("port classes fit u32"),
                ports_per_node: u32::try_from(ports_per_node).expect("port counts fit u32"),
                teleset_capacity: telesets.capacity.clone(),
                storage_capacity: storage.capacity,
                purifier_units: sites.units,
            });
        }
        World {
            cfg,
            probe,
            topo,
            router,
            ports_per_node,
            classes,
            bubble,
            fault_aware,
            penalties,
            // Hop completions, three in four events of a QFT run, recur
            // at two delays: straight and turning hops. Each delay gets a
            // lane whose head sits beside the heap, so pushing or popping
            // a hop completion never sifts the heap.
            queue: EventQueue::with_lanes(&[hop_time, turn_time + hop_time]),
            calls: Vec::new(),
            free_calls: Vec::new(),
            comms: Vec::new(),
            tokens: Vec::new(),
            free_tokens: Vec::new(),
            telesets,
            wires,
            storage,
            sites,
            waiters,
            wait_storage0,
            wait_wire0,
            wait_site0,
            hop_time,
            turn_time,
            route_cache,
            channel_load,
            live_comms: 0,
            teleport_ops: 0,
            purify_ops: 0,
            purified_outputs: 0,
            teleporter_stalls: 0,
            wire_stalls: 0,
            storage_stalls: 0,
            comms_completed: 0,
            comms_dropped: 0,
            comms_rerouted: 0,
            route_inflation_sum: 0.0,
            comm_latency_us: Tally::new(),
            latency_samples: Vec::new(),
        }
    }

    /// Parks `call` in the slab and schedules its event after `delay`.
    fn defer(&mut self, delay: Duration, call: DriverCall) {
        let slot = match self.free_calls.pop() {
            Some(slot) => {
                self.calls[slot as usize] = call;
                slot
            }
            None => {
                self.calls.push(call);
                u32::try_from(self.calls.len() - 1).expect("deferred driver calls fit u32")
            }
        };
        self.queue
            .schedule_after(delay, Event::Driver { call: slot });
    }

    fn submit(&mut self, src: Coord, dst: Coord, tag: u64) -> CommId {
        assert!(
            self.topo.contains(src) && self.topo.contains(dst),
            "endpoints must be on the fabric grid"
        );
        let id = u32::try_from(self.comms.len()).expect("communication ids fit u32");
        let s = self.topo.node_index(src);
        let d = self.topo.node_index(dst);
        if self.fault_aware && !self.topo.is_reachable(s, d) {
            // No surviving path (or a dead endpoint): surface a
            // structured Unreachable outcome instead of hanging. The
            // drop completes through the normal event flow so drivers
            // still see every submission finish.
            let comm = Comm {
                src,
                dst,
                tag,
                path: Rc::new(RoutePath {
                    hops: Vec::new(),
                    dst_site: 0,
                    purify_op_time: Duration::ZERO,
                    data_teleport_time: Duration::ZERO,
                }),
                raw_to_spawn: 0,
                arrivals: 0,
                outputs: 0,
                needed_outputs: 0,
                issued_at: self.queue.now(),
                source_waiting: false,
                done: false,
            };
            self.comms.push(comm);
            self.live_comms += 1;
            if P::ACTIVE {
                self.probe.on_submit(self.queue.now().as_nanos(), id, 0);
            }
            self.queue.schedule_now(Event::Dropped { comm: id });
            return CommId(id);
        }
        let path = self.route_path(s, d);
        for hop in &path.hops {
            self.channel_load[hop.link as usize] += 1;
        }
        if self.fault_aware {
            // Detour accounting: routed hops vs the healthy fabric's
            // minimal distance.
            let healthy = self.topo.healthy_distance(s, d);
            if path.hops.len() as u32 > healthy {
                self.comms_rerouted += 1;
                if P::ACTIVE {
                    self.probe.on_reroute(self.queue.now().as_nanos(), id);
                }
            }
            self.route_inflation_sum += if healthy == 0 {
                1.0
            } else {
                path.hops.len() as f64 / f64::from(healthy)
            };
        }
        let hops = path.hops.len();
        let dt = path.data_teleport_time;
        let comm = Comm {
            src,
            dst,
            tag,
            path,
            raw_to_spawn: self.cfg.raw_pairs_per_comm(),
            arrivals: 0,
            outputs: 0,
            needed_outputs: u64::from(self.cfg.outputs_per_comm),
            issued_at: self.queue.now(),
            source_waiting: false,
            done: false,
        };
        self.live_comms += 1;
        self.comms.push(comm);
        if P::ACTIVE {
            self.probe.on_submit(
                self.queue.now().as_nanos(),
                id,
                u32::try_from(hops).expect("route length fits u32"),
            );
        }
        if hops == 0 {
            // Co-located endpoints: only the local data handoff remains.
            self.queue
                .schedule_after(dt, Event::DataTeleportDone { comm: id });
        } else {
            self.queue.schedule_now(Event::SourceTry { comm: id });
        }
        CommId(id)
    }

    // --- route precomputation -----------------------------------------

    /// The route for `(s, d)`: served from the per-pair cache when the
    /// router's routes are load-independent and the fabric is healthy,
    /// otherwise freshly routed (adaptive policies read the live
    /// channel load; degraded fabrics stay on the dynamic path).
    fn route_path(&mut self, s: usize, d: usize) -> Rc<RoutePath> {
        let nodes = self.topo.nodes();
        match &self.route_cache {
            RouteCache::Dense(table) => {
                if let Some(path) = &table[s * nodes + d] {
                    return Rc::clone(path);
                }
            }
            RouteCache::Sparse(map) => {
                if let Some(path) = map.get(&(((s as u64) << 32) | d as u64)) {
                    return Rc::clone(path);
                }
            }
            RouteCache::Off => {}
        }
        let ports = {
            let topo = &self.topo;
            let load = &self.channel_load;
            self.router.route(topo, s, d, &|link| load[link])
        };
        debug_assert_eq!(
            ports.len() as u32,
            self.topo.distance(s, d),
            "routers must return minimal routes"
        );
        let path = Rc::new(self.build_path(s, d, ports));
        match &mut self.route_cache {
            RouteCache::Dense(table) => table[s * nodes + d] = Some(Rc::clone(&path)),
            RouteCache::Sparse(map) => {
                map.insert(((s as u64) << 32) | d as u64, Rc::clone(&path));
            }
            RouteCache::Off => {}
        }
        path
    }

    /// Precomputes every per-hop quantity the event loop needs: resource
    /// indices (the same arithmetic the per-hop helpers used to redo per
    /// event), ring-entry flags, and service times.
    fn build_path(&self, s: usize, d: usize, ports: Vec<Port>) -> RoutePath {
        let mut hops = Vec::with_capacity(ports.len());
        let mut at = s;
        // `usize::MAX` never equals a real class, so hop 0 enters a ring.
        let mut prev_class = usize::MAX;
        for (pos, &port) in ports.iter().enumerate() {
            let class = self.topo.port_class(port);
            let link = self.topo.link_index(at, port);
            let next = self
                .topo
                .neighbor(at, port)
                .expect("routes follow wired ports");
            let incoming = self.topo.reverse_port(at, port);
            let ring_entry = class != prev_class;
            // Turn penalty (dimension change) plus the local teleport
            // operations plus the classical notification.
            let service = if pos > 0 && ring_entry {
                self.turn_time + self.hop_time
            } else {
                self.hop_time
            };
            hops.push(Hop {
                link: u32::try_from(link).expect("link indices fit u32"),
                teleset: u32::try_from(at * self.classes + class).expect("teleset indices fit u32"),
                storage: u32::try_from(next * self.ports_per_node + incoming.index())
                    .expect("storage indices fit u32"),
                service,
                ring_entry,
            });
            prev_class = class;
            at = next;
        }
        debug_assert_eq!(at, d, "routes must end at the destination");
        let span_cells = (hops.len() as u64)
            .checked_mul(self.cfg.hop_cells)
            .expect("route span in cells overflows u64");
        RoutePath {
            hops,
            dst_site: u32::try_from(d).expect("node indices fit u32"),
            purify_op_time: self.cfg.times.purify_round(span_cells),
            data_teleport_time: self.cfg.times.teleport(span_cells),
        }
    }

    // --- token machinery ----------------------------------------------

    fn alloc_token(&mut self, comm: u32) -> u32 {
        let token = Token {
            comm,
            pos: 0,
            alive: true,
        };
        if let Some(idx) = self.free_tokens.pop() {
            self.tokens[idx as usize] = token;
            idx
        } else {
            self.tokens.push(token);
            u32::try_from(self.tokens.len() - 1).expect("token ids fit u32")
        }
    }

    fn free_token(&mut self, idx: u32) {
        self.tokens[idx as usize].alive = false;
        self.free_tokens.push(idx);
    }

    /// Attempts to fire hop `pos` for `comm`: returns `false` (after
    /// queueing the waiter) if any resource is missing.
    ///
    /// `waiter` is the id to enqueue on the blocking resource: the token
    /// id for in-flight pairs, or `SOURCE_FLAG | comm` for injection.
    fn try_fire_hop(&mut self, comm_id: u32, pos: usize, waiter: u64) -> bool {
        let hop = self.comms[comm_id as usize].path.hops[pos];
        // Bubble flow control: ring-entry hops must leave one free
        // downstream cell so cyclic fabrics cannot deadlock.
        let reserve = u32::from(self.bubble && hop.ring_entry);
        let (edge, teleset, storage) = (
            hop.link as usize,
            hop.teleset as usize,
            hop.storage as usize,
        );
        let now = self.queue.now();
        // Check all three, commit only if all are available.
        if self.storage.free_cells(storage) <= reserve {
            self.storage_stalls += 1;
            if P::ACTIVE {
                self.probe
                    .on_stall(now.as_nanos(), StallCause::Storage, hop.storage, comm_id);
            }
            self.waiters.push_back(self.wait_storage0 + storage, waiter);
            return false;
        }
        self.wires.refresh(edge, now);
        if self.wires.stock[edge] == 0 {
            self.wire_stalls += 1;
            if P::ACTIVE {
                self.probe
                    .on_stall(now.as_nanos(), StallCause::Wire, hop.link, comm_id);
            }
            self.waiters.push_back(self.wait_wire0 + edge, waiter);
            if !self.wires.wake_pending[edge] {
                self.wires.wake_pending[edge] = true;
                // Stock is zero after a refresh, so the next pair lands
                // strictly in the future at `next_ready`.
                self.queue.schedule_at(
                    self.wires.next_ready[edge],
                    Event::WireWake { edge: hop.link },
                );
            }
            return false;
        }
        if !self.telesets.available(teleset) {
            self.teleporter_stalls += 1;
            if P::ACTIVE {
                self.probe
                    .on_stall(now.as_nanos(), StallCause::Teleporter, hop.teleset, comm_id);
            }
            self.waiters.push_back(teleset, waiter);
            return false;
        }
        // Commit. Penalty-bearing topologies (fault wrappers with hot
        // spots, modular fabrics with a slow inter-module tier) may
        // charge extra service on this link; fabrics without a penalty
        // model add zero (the trait default), so the lookup is skipped
        // entirely for them.
        let service = if self.penalties {
            hop.service + Duration::from_nanos(self.topo.hop_penalty_ns(edge, now.as_nanos()))
        } else {
            hop.service
        };
        self.wires.take_refreshed(edge, now);
        self.telesets.acquire(teleset, service);
        self.storage.reserve(storage);
        self.teleport_ops += 1;
        if P::ACTIVE {
            let t = now.as_nanos();
            self.probe.on_wire_take(t, hop.link);
            self.probe.on_hop_fire(
                t,
                comm_id,
                u32::try_from(pos).expect("route length fits u32"),
                hop.link,
                hop.teleset,
                service.as_nanos(),
            );
            self.probe
                .on_storage(t, hop.storage, self.storage.used[storage]);
        }
        let token_idx = if waiter & SOURCE_FLAG != 0 {
            self.alloc_token(comm_id)
        } else {
            waiter as u32
        };
        // Position it fired FROM; lands at pos+1.
        self.tokens[token_idx as usize].pos = u16::try_from(pos).expect("route length fits u16");
        self.queue
            .schedule_after(service, Event::TeleportDone { token: token_idx });
        true
    }

    /// Re-activates a waiter after a resource freed up.
    fn wake(&mut self, waiter: u64) {
        if waiter & SOURCE_FLAG != 0 {
            let comm = (waiter & !SOURCE_FLAG) as u32;
            self.comms[comm as usize].source_waiting = false;
            self.source_try(comm);
        } else {
            let token = waiter as u32;
            if !self.tokens[token as usize].alive {
                return;
            }
            let pos = usize::from(self.tokens[token as usize].pos);
            let comm = self.tokens[token as usize].comm;
            let _ = self.try_fire_hop(comm, pos, u64::from(token));
        }
    }

    fn drain_teleset_waiters(&mut self, teleset: usize) {
        while self.telesets.available(teleset) {
            match self.waiters.pop_front(teleset) {
                Some(w) => self.wake(w),
                None => break,
            }
        }
    }

    fn drain_storage_waiters(&mut self, storage: usize) {
        // Bounded drain: a bubble-reserved waiter can re-enqueue itself
        // on this same storage while cells remain free, so give each
        // waiter queued when the drain starts at most one chance: stop
        // once the tail captured now is popped. Re-enqueued waiters land
        // behind it and nothing drains inside `wake`, so each waiter
        // queued at the start gets exactly one chance.
        let id = self.wait_storage0 + storage;
        let last = self.waiters.tail(id);
        while self.storage.free_cells(storage) > 0 {
            match self.waiters.pop_front_node(id) {
                Some((node, w)) => {
                    self.wake(w);
                    if node == last {
                        break;
                    }
                }
                None => break,
            }
        }
    }

    /// The comm's head-of-line injection attempt.
    fn source_try(&mut self, comm_id: u32) {
        let c = &mut self.comms[comm_id as usize];
        if c.raw_to_spawn == 0 || c.source_waiting {
            return;
        }
        let waiter = SOURCE_FLAG | u64::from(comm_id);
        // Mark waiting before the attempt; cleared on success.
        self.comms[comm_id as usize].source_waiting = true;
        if self.try_fire_hop(comm_id, 0, waiter) {
            let c = &mut self.comms[comm_id as usize];
            c.source_waiting = false;
            c.raw_to_spawn -= 1;
            if c.raw_to_spawn > 0 {
                self.queue.schedule_now(Event::SourceTry { comm: comm_id });
            }
        }
    }

    // --- endpoint purification ----------------------------------------

    /// Runs one arrival through the destination site's depth-`d` queue
    /// purifier (Figure 14). The queue is a binary counter over the
    /// comm's arrivals: arrival `k` (0-based, mod `2^d`) carries
    /// `trailing_ones(k)` promotions, each one purification round, and
    /// every `2^d`-th arrival emits one purified output, so an output
    /// costs `2^d − 1` rounds. A job takes one of the site's
    /// `purifiers_per_site` units for `ops × purify_op_time`; a job that
    /// finds every unit busy waits FIFO.
    fn feed_purifier(&mut self, comm_id: u32) {
        let depth = self.cfg.purify_depth;
        let (site_idx, ops, produces, dur) = {
            let c = &mut self.comms[comm_id as usize];
            c.arrivals += 1;
            let period = 1u64 << depth;
            let k = (c.arrivals - 1) % period;
            let ops = k.trailing_ones().min(depth);
            let produces = c.arrivals % period == 0;
            (
                c.path.dst_site as usize,
                ops,
                produces,
                c.path.purify_op_time,
            )
        };
        if ops == 0 {
            // Parked at L0; no purifier time consumed.
            return;
        }
        let job_dur = dur * u64::from(ops);
        if self.sites.busy[site_idx] < self.sites.units {
            self.sites.busy[site_idx] += 1;
            self.sites.busy_ns[site_idx] += job_dur.as_nanos();
            if P::ACTIVE {
                self.probe.on_purify_start(
                    self.queue.now().as_nanos(),
                    site_idx as u32,
                    comm_id,
                    ops,
                    job_dur.as_nanos(),
                );
            }
            self.queue.schedule_after(
                job_dur,
                Event::PurifyDone {
                    comm: comm_id,
                    ops: cascade_ops(ops),
                    produces,
                },
            );
        } else {
            self.waiters.push_back(
                self.wait_site0 + site_idx,
                pack_purify_job(comm_id, ops, produces),
            );
        }
    }

    fn purify_done(&mut self, comm_id: u32, ops: u8, produces: bool) {
        let site_idx = self.comms[comm_id as usize].path.dst_site;
        self.purify_ops += u64::from(ops);
        if produces {
            self.purified_outputs += 1;
            let c = &mut self.comms[comm_id as usize];
            c.outputs += 1;
            if c.outputs == c.needed_outputs && !c.done {
                c.done = true;
                let dt = c.path.data_teleport_time;
                self.queue
                    .schedule_after(dt, Event::DataTeleportDone { comm: comm_id });
            }
        }
        // Free the unit; start the next queued job.
        let s = site_idx as usize;
        self.sites.busy[s] -= 1;
        if let Some(job) = self.waiters.pop_front(self.wait_site0 + s) {
            let (c, ops, produces) = unpack_purify_job(job);
            let dur = self.comms[c as usize].path.purify_op_time * u64::from(ops);
            self.sites.busy[s] += 1;
            self.sites.busy_ns[s] += dur.as_nanos();
            if P::ACTIVE {
                self.probe.on_purify_start(
                    self.queue.now().as_nanos(),
                    site_idx,
                    c,
                    ops,
                    dur.as_nanos(),
                );
            }
            self.queue.schedule_after(
                dur,
                Event::PurifyDone {
                    comm: c,
                    ops: cascade_ops(ops),
                    produces,
                },
            );
        }
    }

    // --- event dispatch -------------------------------------------------

    fn handle(&mut self, ev: Event, driver: &mut dyn Driver) {
        if P::ACTIVE {
            let kind = match ev {
                Event::SourceTry { .. } => EventKind::SourceTry,
                Event::TeleportDone { .. } => EventKind::TeleportDone,
                Event::WireWake { .. } => EventKind::WireWake,
                Event::PurifyDone { .. } => EventKind::PurifyDone,
                Event::DataTeleportDone { .. } => EventKind::DataTeleportDone,
                Event::Dropped { .. } => EventKind::Dropped,
                Event::Driver { call } => match self.calls[call as usize] {
                    DriverCall::Submit { .. } => EventKind::Submit,
                    DriverCall::Notify { .. } => EventKind::Notify,
                },
            };
            self.probe.on_event(self.queue.now().as_nanos(), kind);
        }
        match ev {
            Event::SourceTry { comm } => {
                // Clear the waiting latch set by a previous failed attempt
                // only if it was set by this path; source_try handles it.
                if !self.comms[comm as usize].source_waiting {
                    self.source_try(comm);
                }
            }
            Event::TeleportDone { token } => self.teleport_done(token),
            Event::WireWake { edge } => self.wire_wake(edge as usize),
            Event::PurifyDone {
                comm,
                ops,
                produces,
            } => self.purify_done(comm, ops, produces),
            Event::DataTeleportDone { comm } => {
                let done = {
                    let c = &mut self.comms[comm as usize];
                    c.done = true;
                    CommDone {
                        id: CommId(comm),
                        tag: c.tag,
                        src: c.src,
                        dst: c.dst,
                        issued_at: c.issued_at,
                        completed_at: self.queue.now(),
                        outcome: CommOutcome::Delivered,
                    }
                };
                // The channel closes: release its link load so adaptive
                // routing sees fresh contention.
                let path = Rc::clone(&self.comms[comm as usize].path);
                for hop in &path.hops {
                    self.channel_load[hop.link as usize] -= 1;
                }
                self.live_comms -= 1;
                self.comms_completed += 1;
                let latency = done.completed_at.since(done.issued_at);
                self.comm_latency_us.record_duration(latency);
                self.latency_samples.push(latency.as_us_f64());
                if P::ACTIVE {
                    self.probe.on_comm_done(
                        done.completed_at.as_nanos(),
                        comm,
                        done.issued_at.as_nanos(),
                    );
                }
                driver.on_complete(done, &mut SimApi { world: self });
            }
            Event::Dropped { comm } => {
                let done = {
                    let c = &mut self.comms[comm as usize];
                    c.done = true;
                    CommDone {
                        id: CommId(comm),
                        tag: c.tag,
                        src: c.src,
                        dst: c.dst,
                        issued_at: c.issued_at,
                        completed_at: self.queue.now(),
                        outcome: CommOutcome::Unreachable,
                    }
                };
                // A drop finishes the communication (live-comm accounting
                // and driver chaining both proceed) but records no
                // latency sample: latency statistics cover deliveries.
                self.live_comms -= 1;
                self.comms_completed += 1;
                self.comms_dropped += 1;
                if P::ACTIVE {
                    self.probe.on_comm_drop(done.completed_at.as_nanos(), comm);
                }
                driver.on_complete(done, &mut SimApi { world: self });
            }
            Event::Driver { call } => {
                let deferred = self.calls[call as usize];
                self.free_calls.push(call);
                match deferred {
                    DriverCall::Submit { src, dst, tag } => {
                        let _ = World::submit(self, src, dst, tag);
                    }
                    DriverCall::Notify { tag } => {
                        driver.on_notify(tag, &mut SimApi { world: self });
                    }
                }
            }
        }
    }

    fn teleport_done(&mut self, token_idx: u32) {
        let (comm_id, fired_pos) = {
            let t = &self.tokens[token_idx as usize];
            (t.comm, usize::from(t.pos))
        };
        let landed = fired_pos + 1;
        let (teleset, held_storage, hops) = {
            let path = &self.comms[comm_id as usize].path;
            (
                path.hops[fired_pos].teleset as usize,
                // Storage this token held at the node it fired from: the
                // landing bank of the previous hop (injection hops fire
                // from the source and hold none).
                (fired_pos > 0).then(|| path.hops[fired_pos - 1].storage as usize),
                path.hops.len(),
            )
        };
        // Free the teleporter that served this hop.
        self.telesets.release(teleset);
        if P::ACTIVE {
            self.probe.on_teleset_release(
                self.queue.now().as_nanos(),
                u32::try_from(teleset).expect("teleset indices fit u32"),
            );
        }
        if let Some(sidx) = held_storage {
            self.storage.free(sidx);
            if P::ACTIVE {
                self.probe.on_storage(
                    self.queue.now().as_nanos(),
                    u32::try_from(sidx).expect("storage indices fit u32"),
                    self.storage.used[sidx],
                );
            }
            self.drain_storage_waiters(sidx);
        }
        self.drain_teleset_waiters(teleset);

        self.tokens[token_idx as usize].pos = u16::try_from(landed).expect("route length fits u16");
        if landed == hops {
            // Arrived: hand off to the P node, freeing network storage
            // (the landing bank of the final hop).
            let sidx = self.comms[comm_id as usize].path.hops[landed - 1].storage as usize;
            self.storage.free(sidx);
            if P::ACTIVE {
                self.probe.on_storage(
                    self.queue.now().as_nanos(),
                    u32::try_from(sidx).expect("storage indices fit u32"),
                    self.storage.used[sidx],
                );
            }
            self.free_token(token_idx);
            self.drain_storage_waiters(sidx);
            self.feed_purifier(comm_id);
        } else {
            let _ = self.try_fire_hop(comm_id, landed, u64::from(token_idx));
        }
    }

    fn wire_wake(&mut self, edge: usize) {
        let now = self.queue.now();
        let id = self.wait_wire0 + edge;
        self.wires.wake_pending[edge] = false;
        loop {
            self.wires.refresh(edge, now);
            if self.wires.stock[edge] == 0 {
                break;
            }
            match self.waiters.pop_front(id) {
                Some(w) => self.wake(w),
                None => break,
            }
        }
        // If tokens still wait and the wire is dry, re-arm the wake.
        self.wires.refresh(edge, now);
        if !self.waiters.is_empty(id)
            && self.wires.stock[edge] == 0
            && !self.wires.wake_pending[edge]
        {
            self.wires.wake_pending[edge] = true;
            self.queue.schedule_at(
                self.wires.next_ready[edge],
                Event::WireWake {
                    edge: u32::try_from(edge).expect("link indices fit u32"),
                },
            );
        }
    }

    fn report(&mut self) -> NetReport {
        let makespan = self.queue.now().as_duration();
        let pairs_generated: u64 = self.wires.produced.iter().sum();
        let pairs_consumed: u64 = self.wires.consumed.iter().sum();
        let horizon_ns = u128::from(makespan.as_nanos());
        let tele_util = if makespan == Duration::ZERO {
            0.0
        } else {
            // Mean over teleporter sets, in index order, of each set's
            // busy time over `makespan × capacity`. Idle sets contribute
            // exactly 0.0, so they are skipped.
            let mut total = 0.0;
            for i in 0..self.telesets.capacity.len() {
                if self.telesets.busy_ns[i] != 0 {
                    total += self.telesets.busy_ns[i] as f64
                        / (horizon_ns * u128::from(self.telesets.capacity[i])) as f64;
                }
            }
            total / self.telesets.capacity.len() as f64
        };
        let puri_util = if makespan == Duration::ZERO {
            0.0
        } else {
            let mut total = 0.0;
            for &busy_ns in &self.sites.busy_ns {
                if busy_ns != 0 {
                    total += busy_ns as f64 / (horizon_ns * u128::from(self.sites.units)) as f64;
                }
            }
            total / self.sites.busy_ns.len() as f64
        };
        NetReport {
            makespan,
            comms_completed: self.comms_completed,
            teleport_ops: self.teleport_ops,
            pairs_generated,
            pairs_consumed,
            purify_ops: self.purify_ops,
            purified_outputs: self.purified_outputs,
            teleporter_stalls: self.teleporter_stalls,
            wire_stalls: self.wire_stalls,
            storage_stalls: self.storage_stalls,
            comm_latency_us: self.comm_latency_us,
            latency_percentiles: Percentiles::from_samples(&self.latency_samples),
            teleporter_utilization: tele_util,
            purifier_utilization: puri_util,
            events: self.queue.events_processed(),
            fault: self.fault_aware.then(|| {
                let delivered = self.comms_completed - self.comms_dropped;
                FaultStats {
                    delivered,
                    dropped: self.comms_dropped,
                    rerouted: self.comms_rerouted,
                    mean_route_inflation: if delivered == 0 {
                        0.0
                    } else {
                        self.route_inflation_sum / delivered as f64
                    },
                }
            }),
            timeline: if P::ACTIVE {
                self.probe.finish(makespan.as_nanos())
            } else {
                None
            },
        }
    }
}

/// The communication simulator, generic over the interconnect fabric.
///
/// The default type parameter is the config-driven [`Fabric`] enum, so
/// `NetworkSim::new(cfg)` keeps working untyped; custom [`Topology`]
/// implementations plug in through [`NetworkSim::with_topology`] (and
/// custom routing policies through [`NetworkSim::with_router`]) with
/// static dispatch on the simulation hot path.
///
/// See the crate docs for an overview; construct with a validated
/// [`NetConfig`] and run a [`Driver`] to completion. Instrumentation is
/// the second type parameter: the default [`NoProbe`] compiles every
/// hook away; attach a recording probe with [`NetworkSim::with_probe`]
/// (or the `_probe` variants of the other constructors) and recover it
/// through [`NetworkSim::run_traced`].
pub struct NetworkSim<T: Topology = Fabric, P: Probe = NoProbe> {
    world: World<T, P>,
}

impl NetworkSim<Fabric> {
    /// Builds a simulator for the given configuration, with the fabric
    /// and routing policy the config selects.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`NetConfig::validate`].
    pub fn new(cfg: NetConfig) -> Self {
        NetworkSim::with_probe(cfg, NoProbe)
    }
}

impl<P: Probe> NetworkSim<Fabric, P> {
    /// Builds a simulator for the given configuration with an attached
    /// probe (e.g. `qic_probe::RecordingProbe`).
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`NetConfig::validate`].
    pub fn with_probe(cfg: NetConfig, probe: P) -> Self {
        // `World::new` validates the full config; only an unbuildable grid
        // needs catching here, and then `validate` supplies the real error.
        let fabric = match cfg.topology.build(cfg.mesh_width, cfg.mesh_height) {
            Ok(fabric) => fabric,
            Err(_) => {
                cfg.validate().expect("configuration must validate");
                unreachable!("validate rejects unbuildable fabrics")
            }
        };
        NetworkSim::with_topology_probe(cfg, fabric, probe)
    }
}

impl<T: Topology> NetworkSim<T> {
    /// Builds a simulator over a caller-supplied topology, using the
    /// config's routing policy. The config's grid fields are ignored in
    /// favour of the topology's own shape.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`NetConfig::validate`].
    pub fn with_topology(cfg: NetConfig, topo: T) -> Self {
        NetworkSim::with_topology_probe(cfg, topo, NoProbe)
    }

    /// Builds a simulator over a caller-supplied topology and routing
    /// policy — the fully pluggable constructor.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`NetConfig::validate`].
    pub fn with_router(cfg: NetConfig, topo: T, router: Box<dyn Router>) -> Self {
        NetworkSim::with_router_probe(cfg, topo, router, NoProbe)
    }
}

impl<T: Topology, P: Probe> NetworkSim<T, P> {
    /// [`NetworkSim::with_topology`] with an attached probe.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`NetConfig::validate`].
    pub fn with_topology_probe(cfg: NetConfig, topo: T, probe: P) -> Self {
        let router = cfg.routing.router();
        NetworkSim::with_router_probe(cfg, topo, router, probe)
    }

    /// [`NetworkSim::with_router`] with an attached probe.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`NetConfig::validate`].
    pub fn with_router_probe(cfg: NetConfig, topo: T, router: Box<dyn Router>, probe: P) -> Self {
        NetworkSim {
            world: World::new(cfg, topo, router, probe),
        }
    }

    /// The simulator's topology.
    pub fn topology(&self) -> &T {
        &self.world.topo
    }

    /// Runs the driver's workload to completion and reports.
    ///
    /// # Panics
    ///
    /// Panics if the event budget (`max_events`) is exhausted — a sign of
    /// a runaway workload or a configuration far beyond the intended
    /// scale.
    pub fn run(self, driver: &mut dyn Driver) -> NetReport {
        self.run_traced(driver).0
    }

    /// Runs the driver's workload to completion, returning the report
    /// and the probe (so a recording probe's event stream can be
    /// exported after the run).
    ///
    /// # Panics
    ///
    /// Panics if the event budget (`max_events`) is exhausted.
    pub fn run_traced(mut self, driver: &mut dyn Driver) -> (NetReport, P) {
        driver.start(&mut SimApi {
            world: &mut self.world,
        });
        let max_events = self.world.cfg.max_events;
        // Batched dispatch: drain each instant's events in one queue
        // operation. `handled` counts per-event so the budget panic
        // fires at exactly the same event a pop-one-at-a-time loop
        // would have reached.
        let mut handled: u64 = 0;
        let mut batch: Vec<Event> = Vec::with_capacity(16);
        while self.world.queue.pop_batch(&mut batch).is_some() {
            if P::ACTIVE {
                self.world.probe.on_queue_depth(
                    self.world.queue.now().as_nanos(),
                    batch.len() + self.world.queue.len(),
                );
            }
            for &ev in &batch {
                self.world.handle(ev, driver);
                handled += 1;
                if handled > max_events {
                    panic!(
                        "event budget exceeded ({max_events}); {} comms incomplete",
                        self.world.live_comms
                    );
                }
            }
        }
        assert_eq!(
            self.world.live_comms, 0,
            "simulation drained with live comms"
        );
        let report = self.world.report();
        (report, self.world.probe)
    }
}

impl<T: Topology, P: Probe> std::fmt::Debug for NetworkSim<T, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetworkSim")
            .field("topology", &self.world.topo.name())
            .field("grid", &(self.world.topo.width(), self.world.topo.height()))
            .field("routing", &self.world.router.name())
            .field("queue", &self.world.queue)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::RoutingPolicy;
    use crate::topology::{Mesh, TopologyKind};

    fn cfg() -> NetConfig {
        NetConfig::small_test()
    }

    #[test]
    fn single_comm_completes() {
        let mut driver = OneShotDriver::new(Coord::new(0, 0), Coord::new(3, 3));
        let report = NetworkSim::new(cfg()).run(&mut driver);
        assert_eq!(report.comms_completed, 1);
        let done = driver.done.expect("completion recorded");
        assert_eq!(done.src, Coord::new(0, 0));
        assert!(done.completed_at > done.issued_at);
        // raw pairs = outputs × 2^depth = 2 × 2 = 4; hops = 6.
        assert_eq!(report.teleport_ops, 4 * 6);
        assert_eq!(report.pairs_consumed, 4 * 6);
        assert_eq!(report.purified_outputs, 2);
        assert!(report.pairs_generated >= report.pairs_consumed);
    }

    #[test]
    fn latency_exceeds_physical_floor() {
        let c = cfg();
        let mut driver = OneShotDriver::new(Coord::new(0, 0), Coord::new(3, 0));
        let report = NetworkSim::new(c.clone()).run(&mut driver);
        // At minimum: 3 sequential hops for the last pair + a purify op +
        // the data teleport.
        let floor = c.times.teleport(c.hop_cells) * 3;
        assert!(report.makespan > floor);
        assert!(report.mean_latency().unwrap() > floor);
    }

    #[test]
    fn zero_hop_comm() {
        let mut driver = OneShotDriver::new(Coord::new(1, 1), Coord::new(1, 1));
        let report = NetworkSim::new(cfg()).run(&mut driver);
        assert_eq!(report.comms_completed, 1);
        assert_eq!(report.teleport_ops, 0);
        assert_eq!(report.purify_ops, 0);
    }

    #[test]
    fn latency_percentiles_populated_and_ordered() {
        let mut driver = BatchDriver::new(vec![
            (Coord::new(0, 0), Coord::new(3, 3)),
            (Coord::new(3, 0), Coord::new(0, 3)),
            (Coord::new(1, 1), Coord::new(2, 2)),
            (Coord::new(0, 2), Coord::new(3, 1)),
        ]);
        let report = NetworkSim::new(cfg()).run(&mut driver);
        let p = report.latency_percentiles.expect("comms completed");
        assert!(p.p50 <= p.p95 && p.p95 <= p.p99, "{p:?}");
        // Percentiles are actual samples, so they sit inside the tally's
        // observed range.
        assert!(p.p50 >= report.comm_latency_us.min().unwrap());
        assert!(p.p99 <= report.comm_latency_us.max().unwrap());
        assert!(report.latency_p95().unwrap() >= report.latency_p50().unwrap());
    }

    #[test]
    fn determinism() {
        let run = || {
            let mut driver = BatchDriver::new(vec![
                (Coord::new(0, 0), Coord::new(3, 2)),
                (Coord::new(3, 0), Coord::new(0, 3)),
                (Coord::new(1, 1), Coord::new(2, 2)),
            ]);
            NetworkSim::new(cfg()).run(&mut driver)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn contention_slows_sharing_channels() {
        // Two channels crossing the same column contend for teleporters;
        // two disjoint rows do not.
        let mut c = cfg();
        c.teleporters_per_node = 2;
        c.generators_per_edge = 2;
        let mut crossing = BatchDriver::new(vec![
            (Coord::new(0, 0), Coord::new(3, 0)),
            (Coord::new(0, 0), Coord::new(3, 0)),
        ]);
        let shared = NetworkSim::new(c.clone()).run(&mut crossing);
        let mut disjoint = BatchDriver::new(vec![
            (Coord::new(0, 0), Coord::new(3, 0)),
            (Coord::new(0, 2), Coord::new(3, 2)),
        ]);
        let apart = NetworkSim::new(c).run(&mut disjoint);
        assert!(
            shared.makespan > apart.makespan,
            "shared {} vs disjoint {}",
            shared.makespan,
            apart.makespan
        );
        assert!(shared.teleporter_stalls + shared.wire_stalls > 0);
    }

    #[test]
    fn more_generators_help_when_wire_limited() {
        let mut starved = cfg();
        starved.generators_per_edge = 1;
        starved.teleporters_per_node = 8;
        let mut rich = starved.clone();
        rich.generators_per_edge = 8;
        let route = (Coord::new(0, 0), Coord::new(3, 3));
        let slow = NetworkSim::new(starved).run(&mut OneShotDriver::new(route.0, route.1));
        let fast = NetworkSim::new(rich).run(&mut OneShotDriver::new(route.0, route.1));
        assert!(slow.makespan > fast.makespan);
        assert!(slow.wire_stalls > 0, "the starved run must hit empty wires");
    }

    #[test]
    fn driver_chaining_submits_follow_ups() {
        struct PingPong {
            remaining: u32,
        }
        impl Driver for PingPong {
            fn start(&mut self, api: &mut SimApi<'_>) {
                api.submit_now(Coord::new(0, 0), Coord::new(2, 2), 1);
            }
            fn on_complete(&mut self, done: CommDone, api: &mut SimApi<'_>) {
                if self.remaining > 0 {
                    self.remaining -= 1;
                    // Return trip after a 20µs "gate".
                    api.submit_after(Duration::from_micros(20), done.dst, done.src, done.tag + 1);
                }
            }
        }
        let mut driver = PingPong { remaining: 3 };
        let report = NetworkSim::new(cfg()).run(&mut driver);
        assert_eq!(report.comms_completed, 4);
        assert_eq!(driver.remaining, 0);
    }

    #[test]
    fn no_deadlock_under_tight_storage() {
        // Minimal resources everywhere; four crossing channels.
        let mut c = cfg();
        c.teleporters_per_node = 2;
        c.generators_per_edge = 1;
        c.purifiers_per_site = 1;
        let mut driver = BatchDriver::new(vec![
            (Coord::new(0, 0), Coord::new(3, 3)),
            (Coord::new(3, 3), Coord::new(0, 0)),
            (Coord::new(0, 3), Coord::new(3, 0)),
            (Coord::new(3, 0), Coord::new(0, 3)),
        ]);
        let report = NetworkSim::new(c).run(&mut driver);
        assert_eq!(
            report.comms_completed, 4,
            "dimension-order + per-link storage is deadlock-free"
        );
        assert!(report.storage_stalls > 0 || report.teleporter_stalls > 0);
    }

    #[test]
    fn purifier_counts_are_exact() {
        // Depth 2, 3 outputs: raw = 12; per output the cascade does
        // 2^2 − 1 = 3 ops → 9 ops total.
        let mut c = cfg();
        c.purify_depth = 2;
        c.outputs_per_comm = 3;
        let mut driver = OneShotDriver::new(Coord::new(0, 0), Coord::new(2, 0));
        let report = NetworkSim::new(c).run(&mut driver);
        assert_eq!(report.purified_outputs, 3);
        assert_eq!(report.purify_ops, 9);
        assert_eq!(report.teleport_ops, 12 * 2);
    }

    #[test]
    fn utilizations_are_probabilities() {
        let mut driver = BatchDriver::new(vec![
            (Coord::new(0, 0), Coord::new(3, 3)),
            (Coord::new(1, 0), Coord::new(2, 3)),
        ]);
        let report = NetworkSim::new(cfg()).run(&mut driver);
        assert!((0.0..=1.0).contains(&report.teleporter_utilization));
        assert!((0.0..=1.0).contains(&report.purifier_utilization));
        assert!(report.teleporter_utilization > 0.0);
        assert!(report.purifier_utilization > 0.0);
        assert!(report.events > 0);
    }

    #[test]
    #[should_panic(expected = "event budget exceeded")]
    fn event_budget_guard() {
        let mut c = cfg();
        c.max_events = 10;
        let mut driver = OneShotDriver::new(Coord::new(0, 0), Coord::new(3, 3));
        let _ = NetworkSim::new(c).run(&mut driver);
    }

    #[test]
    #[should_panic(expected = "route span in cells overflows u64")]
    fn absurd_hop_cells_fail_loudly_instead_of_wrapping() {
        // Cast audit regression: `route hops × hop_cells` is the one
        // multiplication user input can push past u64, and it must panic
        // rather than wrap into a silently wrong latency model. Zero the
        // per-cell classical time so the per-hop service computation
        // stays in range and the span product is the first overflow.
        let mut c = cfg();
        c.hop_cells = u64::MAX / 2;
        c.times = c.times.with_classical_per_cell(Duration::ZERO);
        let mut driver = OneShotDriver::new(Coord::new(0, 0), Coord::new(3, 3));
        let _ = NetworkSim::new(c).run(&mut driver);
    }

    #[test]
    fn repeat_submissions_hit_the_route_cache_and_match_fresh_runs() {
        // Two identical batched comms (cache hit on the second) must
        // report exactly twice the single-comm op counts.
        let mut batch = BatchDriver::new(vec![
            (Coord::new(0, 0), Coord::new(3, 3)),
            (Coord::new(0, 0), Coord::new(3, 3)),
        ]);
        let report = NetworkSim::new(cfg()).run(&mut batch);
        let mut single = OneShotDriver::new(Coord::new(0, 0), Coord::new(3, 3));
        let one = NetworkSim::new(cfg()).run(&mut single);
        assert_eq!(report.comms_completed, 2);
        assert_eq!(report.teleport_ops, 2 * one.teleport_ops);
        assert_eq!(report.purified_outputs, 2 * one.purified_outputs);
    }

    // --- multi-topology behaviour -------------------------------------

    #[test]
    fn explicit_mesh_topology_matches_config_driven_runs() {
        let run_config = || {
            let mut d = OneShotDriver::new(Coord::new(0, 0), Coord::new(3, 2));
            NetworkSim::new(cfg()).run(&mut d)
        };
        let run_explicit = || {
            let mut d = OneShotDriver::new(Coord::new(0, 0), Coord::new(3, 2));
            NetworkSim::with_topology(cfg(), Mesh::new(4, 4)).run(&mut d)
        };
        assert_eq!(run_config(), run_explicit());
    }

    #[test]
    fn torus_wraps_shorten_corner_routes() {
        let c = cfg().with_topology(TopologyKind::Torus);
        let raw = c.raw_pairs_per_comm();
        let mut driver = OneShotDriver::new(Coord::new(0, 0), Coord::new(3, 3));
        let report = NetworkSim::new(c).run(&mut driver);
        assert_eq!(report.comms_completed, 1);
        // Corner to corner is 2 hops over the wraps (6 on the mesh).
        assert_eq!(report.teleport_ops, raw * 2);

        let mesh =
            NetworkSim::new(cfg()).run(&mut OneShotDriver::new(Coord::new(0, 0), Coord::new(3, 3)));
        assert!(
            report.makespan < mesh.makespan,
            "shorter route, faster comm"
        );
    }

    #[test]
    fn hypercube_routes_by_hamming_distance() {
        let c = cfg().with_topology(TopologyKind::Hypercube);
        let raw = c.raw_pairs_per_comm();
        // (0,0) is node 0, (3,3) is node 15: Hamming distance 4.
        let mut driver = OneShotDriver::new(Coord::new(0, 0), Coord::new(3, 3));
        let report = NetworkSim::new(c).run(&mut driver);
        assert_eq!(report.comms_completed, 1);
        assert_eq!(report.teleport_ops, raw * 4);
    }

    #[test]
    fn every_fabric_and_policy_completes_crossing_traffic() {
        for kind in TopologyKind::ALL {
            for routing in RoutingPolicy::ALL {
                let c = cfg().with_topology(kind).with_routing(routing);
                let mut driver = BatchDriver::new(vec![
                    (Coord::new(0, 0), Coord::new(3, 3)),
                    (Coord::new(3, 3), Coord::new(0, 0)),
                    (Coord::new(0, 3), Coord::new(3, 0)),
                    (Coord::new(3, 0), Coord::new(0, 3)),
                    (Coord::new(1, 2), Coord::new(2, 1)),
                ]);
                let report = NetworkSim::new(c).run(&mut driver);
                assert_eq!(report.comms_completed, 5, "{kind}/{routing}");
            }
        }
    }

    #[test]
    fn cyclic_fabrics_survive_tight_storage() {
        // The bubble-flow-control stress: minimal legal resources on a
        // wrapped fabric with adaptive routing and crossing traffic.
        let mut c = cfg()
            .with_topology(TopologyKind::Torus)
            .with_routing(RoutingPolicy::MinimalAdaptive);
        c.teleporters_per_node = 2;
        c.generators_per_edge = 1;
        c.purifiers_per_site = 1;
        let mut driver = BatchDriver::new(vec![
            (Coord::new(0, 0), Coord::new(2, 2)),
            (Coord::new(2, 2), Coord::new(0, 0)),
            (Coord::new(0, 2), Coord::new(2, 0)),
            (Coord::new(2, 0), Coord::new(0, 2)),
            (Coord::new(3, 1), Coord::new(1, 3)),
            (Coord::new(1, 3), Coord::new(3, 1)),
        ]);
        let report = NetworkSim::new(c).run(&mut driver);
        assert_eq!(report.comms_completed, 6);
    }

    #[test]
    fn adaptive_routing_is_deterministic() {
        let run = || {
            let mut driver = BatchDriver::new(vec![
                (Coord::new(0, 0), Coord::new(3, 3)),
                (Coord::new(0, 0), Coord::new(3, 3)),
                (Coord::new(3, 0), Coord::new(0, 3)),
            ]);
            let c = cfg().with_routing(RoutingPolicy::MinimalAdaptive);
            NetworkSim::new(c).run(&mut driver)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn adaptive_spreads_identical_channels_across_paths() {
        // Two same-endpoint channels on a mesh: dimension-order stacks
        // them on one path; minimal-adaptive opens the second on a
        // disjoint minimal path, cutting wire contention.
        let mut c = cfg();
        c.teleporters_per_node = 2;
        c.generators_per_edge = 1;
        let batch = vec![
            (Coord::new(0, 0), Coord::new(3, 3)),
            (Coord::new(0, 0), Coord::new(3, 3)),
        ];
        let dor = NetworkSim::new(c.clone()).run(&mut BatchDriver::new(batch.clone()));
        let ada = NetworkSim::new(c.with_routing(RoutingPolicy::MinimalAdaptive))
            .run(&mut BatchDriver::new(batch));
        assert!(
            ada.wire_stalls < dor.wire_stalls,
            "adaptive {} vs dor {} wire stalls",
            ada.wire_stalls,
            dor.wire_stalls
        );
        // (Makespans are close but not strictly ordered: adaptive also
        // pays the bubble-flow-control injection reserve.)
    }

    #[test]
    #[should_panic(expected = "port classes")]
    fn with_topology_rechecks_teleporter_coverage() {
        // The config validates as a mesh (2 classes), but the supplied
        // hypercube has 4 — `with_topology` must re-check against the
        // fabric actually used, not the config's.
        let mut c = cfg();
        c.teleporters_per_node = 2;
        let _ = NetworkSim::with_topology(c, crate::topology::Hypercube::new(4));
    }

    #[test]
    fn debug_names_the_fabric() {
        let sim = NetworkSim::new(cfg().with_topology(TopologyKind::Hypercube));
        let dbg = format!("{sim:?}");
        assert!(dbg.contains("hypercube"), "{dbg}");
        assert!(dbg.contains("dor"), "{dbg}");
    }
}
