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

/// A chained pair in flight: the comm it serves and the absolute index,
/// in [`World::hops`], of the hop it fires (or waits to fire) next, so
/// a hop completion reaches its hop record without reading the comm.
///
/// A token waits on at most one resource, and only while no hop of it
/// is in flight, so it is never freed while queued: a woken token id
/// always names a live token.
#[derive(Debug, Clone, Copy)]
struct Token {
    comm: u32,
    hop: u32,
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
    /// The route's injection hop: it fires from the source, holding no
    /// storage cell.
    first: bool,
    /// The route's final hop: landing delivers the pair to the
    /// destination's purifier.
    last: bool,
}

const _: () = assert!(std::mem::size_of::<Hop>() == 24);

/// A precomputed channel route: a handle to its hops, contiguous in
/// [`World::hops`], plus its purifier site and round time. `Copy`, so a
/// [`Comm`] and the route cache each hold it by value.
#[derive(Debug, Clone, Copy)]
struct RoutePath {
    /// Index of the route's first hop in [`World::hops`].
    start: u32,
    /// Hop count.
    len: u32,
    /// Purifier site at the destination (dense node index).
    dst_site: u32,
    purify_op_time: Duration,
}

impl RoutePath {
    /// The route's hop indices in [`World::hops`].
    #[inline]
    fn hops(&self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

#[derive(Debug)]
struct Comm {
    src: Coord,
    dst: Coord,
    tag: u64,
    /// The channel's precomputed route.
    path: RoutePath,
    raw_to_spawn: u64,
    arrivals: u64,
    outputs: u32,
    issued_at: SimTime,
    source_waiting: bool,
    done: bool,
}

// --- resource records --------------------------------------------------
//
// Each resource instance is one small record over the dense indices
// `Topology` provides, holding its state and the head and tail of its
// FIFO waiter list, so a hop touches one record per resource. Shared
// scalars (wire interval/cap, storage capacity, purifier units —
// uniform across instances by construction) are stored once.

/// Marks an empty waiter list / the end of a chain.
const NO_WAITER: u32 = u32::MAX;

/// The first and last queued node of one resource's waiters in the
/// [`Waiters`] arena (`NO_WAITER` when empty).
#[derive(Debug, Clone, Copy)]
struct WaitList {
    head: u32,
    tail: u32,
}

impl WaitList {
    const EMPTY: WaitList = WaitList {
        head: NO_WAITER,
        tail: NO_WAITER,
    };

    #[inline]
    fn is_empty(&self) -> bool {
        self.head == NO_WAITER
    }
}

/// One queued waiter: the next node of its list and its payload (a
/// token id, a source flag with its comm, or a packed purifier job).
#[derive(Debug, Clone, Copy)]
struct WaitNode {
    next: u32,
    payload: u64,
}

/// The node pool behind every resource's [`WaitList`]: queued entries
/// of all resources live here, and freed nodes chain through `next`
/// from `free` for reuse, so constructing the pool is free no matter
/// how many resources the fabric has.
#[derive(Debug)]
struct Waiters {
    nodes: Vec<WaitNode>,
    /// First free node, `NO_WAITER` if none.
    free: u32,
}

impl Waiters {
    fn new() -> Waiters {
        Waiters {
            nodes: Vec::new(),
            free: NO_WAITER,
        }
    }

    #[inline]
    fn push_back(&mut self, list: &mut WaitList, payload: u64) {
        let entry = WaitNode {
            next: NO_WAITER,
            payload,
        };
        let node = if self.free == NO_WAITER {
            let n = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&n| n != NO_WAITER)
                .expect("waiter nodes fit u32");
            self.nodes.push(entry);
            n
        } else {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = entry;
            n
        };
        if list.tail == NO_WAITER {
            list.head = node;
        } else {
            self.nodes[list.tail as usize].next = node;
        }
        list.tail = node;
    }

    #[inline]
    fn pop_front(&mut self, list: &mut WaitList) -> Option<u64> {
        self.pop_front_node(list).map(|(_, payload)| payload)
    }

    /// Pops the first waiter on `list` with the node it occupied (now
    /// free for reuse).
    #[inline]
    fn pop_front_node(&mut self, list: &mut WaitList) -> Option<(u32, u64)> {
        let head = list.head;
        if head == NO_WAITER {
            return None;
        }
        let WaitNode { next, payload } = self.nodes[head as usize];
        list.head = next;
        if next == NO_WAITER {
            list.tail = NO_WAITER;
        }
        self.nodes[head as usize].next = self.free;
        self.free = head;
        Some((head, payload))
    }
}

/// A teleporter pool, `node * port_classes + port_class` (Figure 6's
/// per-dimension sets). Capacity varies per node on degraded fabrics.
#[derive(Debug, Clone, Copy)]
struct Teleset {
    busy: u32,
    capacity: u32,
    wait: WaitList,
    /// Busy-time integral for utilization reporting (widened to `u128`
    /// at report time; `u64` nanoseconds hold ~584 years of busy time).
    busy_ns: u64,
}

impl Teleset {
    #[inline]
    fn available(&self) -> bool {
        self.busy < self.capacity
    }

    #[inline]
    fn acquire(&mut self, hold: Duration) {
        debug_assert!(self.available(), "acquire on a full pool");
        self.busy += 1;
        self.busy_ns += hold.as_nanos();
    }

    #[inline]
    fn release(&mut self) {
        debug_assert!(self.busy > 0, "release without acquire");
        self.busy -= 1;
    }
}

/// The production parameters every wire shares: one pair per
/// `interval` into a buffer of `cap` pairs.
#[derive(Debug, Clone, Copy)]
struct WireRate {
    interval: Duration,
    cap: u64,
}

/// A link-pair wire by link index (Figure 5's G nodes).
#[derive(Debug, Clone, Copy)]
struct Wire {
    stock: u64,
    /// Completion time of the pair in production (meaningful only
    /// while `stock < cap`).
    next_ready: SimTime,
    produced: u64,
    consumed: u64,
    wait: WaitList,
    /// Whether a wake event is already scheduled for the wire.
    wake_pending: bool,
}

impl Wire {
    /// Brings the wire's lazy production up to date with the clock —
    /// integer-exact, so behaviour is independent of observation times.
    ///
    /// Closed form of the produce-one-per-interval loop: with the next
    /// completion at `next ≤ now`, `(now − next) / interval + 1` pairs
    /// have finished; production pauses when the buffer fills, keeping
    /// the *last* completion time (the filling step does not advance
    /// `next_ready` — it resumes from consumption instead).
    #[inline]
    fn refresh(&mut self, rate: WireRate, now: SimTime) {
        let stock = self.stock;
        if stock >= rate.cap || self.next_ready > now {
            return;
        }
        let interval = rate.interval.as_nanos();
        let next = self.next_ready.as_nanos();
        let elapsed = now.as_nanos() - next;
        // Most refreshes land within one interval of the last
        // completion; skip the division for them.
        let avail = if elapsed < interval {
            1
        } else {
            elapsed / interval + 1
        };
        let k = avail.min(rate.cap - stock);
        self.stock = stock + k;
        self.produced += k;
        let steps = if stock + k == rate.cap { k - 1 } else { k };
        self.next_ready = SimTime::from_nanos(next + steps * interval);
    }

    /// Consumes one pair from a **refreshed** wire with stock.
    #[inline]
    fn take_refreshed(&mut self, rate: WireRate, now: SimTime) {
        debug_assert!(self.stock > 0, "take on an empty wire");
        if self.stock == rate.cap {
            // Production was paused at full buffer; it resumes now.
            self.next_ready = now + rate.interval;
        }
        self.stock -= 1;
        self.consumed += 1;
    }
}

/// A per-(node, incoming-link) storage bank (§5.3: not multiplexed).
/// Capacity is uniform, [`World::storage_capacity`].
#[derive(Debug, Clone, Copy)]
struct Storage {
    used: u32,
    wait: WaitList,
}

/// An endpoint purifier site by node index; every site has
/// [`World::purifier_units`] units. Jobs waiting for a unit queue as
/// packed words (see [`pack_purify_job`]).
#[derive(Debug, Clone, Copy)]
struct Site {
    busy: u32,
    wait: WaitList,
    busy_ns: u64,
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
/// route table (`nodes²` `u32` slots, zero meaning empty, so the empty
/// table is one zeroed allocation).
const DENSE_CACHE_MAX_NODES: usize = 64;

/// The per-pair route cache, armed only when the router declares its
/// routes load-independent ([`Router::cacheable`]) and the fabric is
/// healthy; adaptive and degraded cases keep the dynamic path. Cached
/// routes' hops stay in [`World::hops`]; the cache keeps their handles.
enum RouteCache {
    /// Every communication routes dynamically.
    Off,
    /// Direct-indexed `src * nodes + dst` table for small fabrics: slot
    /// `i + 1` names `paths[i]`, zero an uncached pair.
    Dense {
        slots: Vec<u32>,
        paths: Vec<RoutePath>,
    },
    /// Hash table for fabrics where `nodes²` slots would be wasteful.
    Sparse(HashMap<u64, RoutePath, BuildHasherDefault<PairHasher>>),
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
    /// Every route's hops, each route contiguous (see [`RoutePath`]).
    hops: Vec<Hop>,
    tokens: Vec<Token>,
    free_tokens: Vec<u32>,
    /// Teleporter pools: `node_index * port_classes + port_class`.
    telesets: Vec<Teleset>,
    /// Link wires by link index.
    wires: Vec<Wire>,
    wire_rate: WireRate,
    /// Storage: `node_index * ports_per_node + incoming port index`.
    storages: Vec<Storage>,
    /// Cells per storage bank.
    storage_capacity: u32,
    /// Purifier sites by node index.
    sites: Vec<Site>,
    /// Units per purifier site.
    purifier_units: u32,
    /// The node pool of every resource's waiter list.
    waiters: Waiters,
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
        let mut telesets = Vec::with_capacity(nodes * classes);
        for node in 0..nodes {
            // Fault-aware topologies may degrade a node's teleporter
            // pool; healthy fabrics keep the configured budget.
            let t_node = topo.teleporter_capacity(node, t);
            for class in 0..classes {
                telesets.push(Teleset {
                    busy: 0,
                    capacity: teleset_share(t_node, classes, class),
                    wait: WaitList::EMPTY,
                    busy_ns: 0,
                });
            }
        }
        let storage_capacity = t.max(1);
        let purifier_units = cfg.purifiers_per_site;
        let storages = vec![
            Storage {
                used: 0,
                wait: WaitList::EMPTY,
            };
            nodes * ports_per_node
        ];
        let sites = vec![
            Site {
                busy: 0,
                wait: WaitList::EMPTY,
                busy_ns: 0,
            };
            nodes
        ];
        // One pair per tgen per generator; `link_cost_factor` models extra
        // raw-pair consumption (virtual-wire purification).
        let tgen = cfg.times.generate();
        let interval_ns = (tgen.as_nanos() as f64 * cfg.link_cost_factor
            / f64::from(cfg.generators_per_edge))
        .round()
        .max(1.0) as u64;
        let links = topo.links();
        let wire_rate = WireRate {
            interval: Duration::from_nanos(interval_ns),
            cap: u64::from(cfg.teleporters_per_node.max(1)),
        };
        let wires = vec![
            Wire {
                stock: 0,
                next_ready: SimTime::ZERO + wire_rate.interval,
                produced: 0,
                consumed: 0,
                wait: WaitList::EMPTY,
                wake_pending: false,
            };
            links
        ];
        let channel_load = vec![0; links];
        let fault_aware = topo.fault_aware();
        let penalties = topo.link_penalties();
        let route_cache = if router.cacheable() && !fault_aware {
            if nodes <= DENSE_CACHE_MAX_NODES {
                RouteCache::Dense {
                    slots: vec![0; nodes * nodes],
                    paths: Vec::new(),
                }
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
                teleset_capacity: telesets.iter().map(|set| set.capacity).collect(),
                storage_capacity,
                purifier_units,
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
            hops: Vec::new(),
            tokens: Vec::new(),
            free_tokens: Vec::new(),
            telesets,
            wires,
            wire_rate,
            storages,
            storage_capacity,
            sites,
            purifier_units,
            waiters: Waiters::new(),
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
                path: RoutePath {
                    start: 0,
                    len: 0,
                    dst_site: 0,
                    purify_op_time: Duration::ZERO,
                },
                raw_to_spawn: 0,
                arrivals: 0,
                outputs: 0,
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
        for hop in &self.hops[path.hops()] {
            self.channel_load[hop.link as usize] += 1;
        }
        if self.fault_aware {
            // Detour accounting: routed hops vs the healthy fabric's
            // minimal distance.
            let healthy = self.topo.healthy_distance(s, d);
            if path.len > healthy {
                self.comms_rerouted += 1;
                if P::ACTIVE {
                    self.probe.on_reroute(self.queue.now().as_nanos(), id);
                }
            }
            self.route_inflation_sum += if healthy == 0 {
                1.0
            } else {
                f64::from(path.len) / f64::from(healthy)
            };
        }
        let hops = path.len;
        let dt = self.data_teleport_time(path);
        let comm = Comm {
            src,
            dst,
            tag,
            path,
            raw_to_spawn: self.cfg.raw_pairs_per_comm(),
            arrivals: 0,
            outputs: 0,
            issued_at: self.queue.now(),
            source_waiting: false,
            done: false,
        };
        self.live_comms += 1;
        self.comms.push(comm);
        if P::ACTIVE {
            self.probe.on_submit(self.queue.now().as_nanos(), id, hops);
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
    fn route_path(&mut self, s: usize, d: usize) -> RoutePath {
        let nodes = self.topo.nodes();
        match &self.route_cache {
            RouteCache::Dense { slots, paths } => {
                if let Some(i) = slots[s * nodes + d].checked_sub(1) {
                    return paths[i as usize];
                }
            }
            RouteCache::Sparse(map) => {
                if let Some(&path) = map.get(&(((s as u64) << 32) | d as u64)) {
                    return path;
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
        let path = self.build_path(s, d, &ports);
        match &mut self.route_cache {
            RouteCache::Dense { slots, paths } => {
                paths.push(path);
                slots[s * nodes + d] = u32::try_from(paths.len()).expect("cached routes fit u32");
            }
            RouteCache::Sparse(map) => {
                map.insert(((s as u64) << 32) | d as u64, path);
            }
            RouteCache::Off => {}
        }
        path
    }

    /// Appends the route's hops to [`World::hops`], precomputing every
    /// per-hop quantity the event loop needs: resource indices (the
    /// same arithmetic the per-hop helpers used to redo per event),
    /// ring-entry flags, and service times.
    fn build_path(&mut self, s: usize, d: usize, ports: &[Port]) -> RoutePath {
        let start = u32::try_from(self.hops.len()).expect("hop arena indices fit u32");
        let len = u32::try_from(ports.len()).expect("route length fits u32");
        // `RoutePath::hops` and a token's `hop + 1` stay in `u32`.
        assert!(
            start.checked_add(len).is_some(),
            "hop arena indices fit u32"
        );
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
            self.hops.push(Hop {
                link: u32::try_from(link).expect("link indices fit u32"),
                teleset: u32::try_from(at * self.classes + class).expect("teleset indices fit u32"),
                storage: u32::try_from(next * self.ports_per_node + incoming.index())
                    .expect("storage indices fit u32"),
                service,
                ring_entry,
                first: pos == 0,
                last: pos + 1 == ports.len(),
            });
            prev_class = class;
            at = next;
        }
        debug_assert_eq!(at, d, "routes must end at the destination");
        let span_cells = u64::from(len)
            .checked_mul(self.cfg.hop_cells)
            .expect("route span in cells overflows u64");
        RoutePath {
            start,
            len,
            dst_site: u32::try_from(d).expect("node indices fit u32"),
            purify_op_time: self.cfg.times.purify_round(span_cells),
        }
    }

    /// The final data teleport's duration over `path`'s span (whose
    /// cell count [`World::build_path`] checked fits `u64`).
    fn data_teleport_time(&self, path: RoutePath) -> Duration {
        self.cfg
            .times
            .teleport(u64::from(path.len) * self.cfg.hop_cells)
    }

    // --- token machinery ----------------------------------------------

    fn alloc_token(&mut self, comm: u32, hop: u32) -> u32 {
        let token = Token { comm, hop };
        if let Some(idx) = self.free_tokens.pop() {
            self.tokens[idx as usize] = token;
            idx
        } else {
            self.tokens.push(token);
            u32::try_from(self.tokens.len() - 1).expect("token ids fit u32")
        }
    }

    fn free_token(&mut self, idx: u32) {
        self.free_tokens.push(idx);
    }

    /// Attempts to fire hop `hop_idx` (an index into [`World::hops`])
    /// for `comm`: returns `false` (after queueing the waiter) if any
    /// resource is missing.
    ///
    /// `waiter` is the id to enqueue on the blocking resource: the token
    /// id for in-flight pairs (whose `hop` already names `hop_idx`), or
    /// `SOURCE_FLAG | comm` for injection.
    fn try_fire_hop(&mut self, comm_id: u32, hop_idx: u32, waiter: u64) -> bool {
        let hop = self.hops[hop_idx as usize];
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
        if self.storage_capacity - self.storages[storage].used <= reserve {
            self.storage_stalls += 1;
            if P::ACTIVE {
                self.probe
                    .on_stall(now.as_nanos(), StallCause::Storage, hop.storage, comm_id);
            }
            self.waiters
                .push_back(&mut self.storages[storage].wait, waiter);
            return false;
        }
        let rate = self.wire_rate;
        let wire = &mut self.wires[edge];
        wire.refresh(rate, now);
        if wire.stock == 0 {
            self.wire_stalls += 1;
            if P::ACTIVE {
                self.probe
                    .on_stall(now.as_nanos(), StallCause::Wire, hop.link, comm_id);
            }
            let wire = &mut self.wires[edge];
            self.waiters.push_back(&mut wire.wait, waiter);
            if !wire.wake_pending {
                wire.wake_pending = true;
                // Stock is zero after a refresh, so the next pair lands
                // strictly in the future at `next_ready`.
                self.queue
                    .schedule_at(wire.next_ready, Event::WireWake { edge: hop.link });
            }
            return false;
        }
        if !self.telesets[teleset].available() {
            self.teleporter_stalls += 1;
            if P::ACTIVE {
                self.probe
                    .on_stall(now.as_nanos(), StallCause::Teleporter, hop.teleset, comm_id);
            }
            self.waiters
                .push_back(&mut self.telesets[teleset].wait, waiter);
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
        self.wires[edge].take_refreshed(rate, now);
        self.telesets[teleset].acquire(service);
        debug_assert!(
            self.storages[storage].used < self.storage_capacity,
            "storage overflow"
        );
        self.storages[storage].used += 1;
        self.teleport_ops += 1;
        if P::ACTIVE {
            let t = now.as_nanos();
            let pos = hop_idx - self.comms[comm_id as usize].path.start;
            self.probe.on_wire_take(t, hop.link);
            self.probe
                .on_hop_fire(t, comm_id, pos, hop.link, hop.teleset, service.as_nanos());
            self.probe
                .on_storage(t, hop.storage, self.storages[storage].used);
        }
        let token_idx = if waiter & SOURCE_FLAG != 0 {
            self.alloc_token(comm_id, hop_idx)
        } else {
            debug_assert_eq!(self.tokens[waiter as usize].hop, hop_idx);
            waiter as u32
        };
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
            let token = self.tokens[waiter as usize];
            let _ = self.try_fire_hop(token.comm, token.hop, waiter);
        }
    }

    fn drain_teleset_waiters(&mut self, teleset: usize) {
        while self.telesets[teleset].available() {
            match self.waiters.pop_front(&mut self.telesets[teleset].wait) {
                Some(w) => self.wake(w),
                None => break,
            }
        }
    }

    /// Frees one cell of storage bank `storage`; its waiters drain
    /// separately ([`World::drain_storage_waiters`]).
    fn release_storage(&mut self, storage: usize) {
        let bank = &mut self.storages[storage];
        assert!(bank.used > 0, "free on empty storage");
        bank.used -= 1;
        if P::ACTIVE {
            self.probe.on_storage(
                self.queue.now().as_nanos(),
                u32::try_from(storage).expect("storage indices fit u32"),
                self.storages[storage].used,
            );
        }
    }

    fn drain_storage_waiters(&mut self, storage: usize) {
        // Bounded drain: a bubble-reserved waiter can re-enqueue itself
        // on this same storage while cells remain free, so give each
        // waiter queued when the drain starts at most one chance: stop
        // once the tail captured now is popped. Re-enqueued waiters land
        // behind it and nothing drains inside `wake`, so each waiter
        // queued at the start gets exactly one chance.
        let last = self.storages[storage].wait.tail;
        while self.storages[storage].used < self.storage_capacity {
            match self
                .waiters
                .pop_front_node(&mut self.storages[storage].wait)
            {
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
        c.source_waiting = true;
        let first = c.path.start;
        if self.try_fire_hop(comm_id, first, waiter) {
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
            // Arrival number mod `2^d`, as a mask: the period is a power
            // of two.
            let mask = (1u64 << depth) - 1;
            let k = (c.arrivals - 1) & mask;
            let ops = k.trailing_ones().min(depth);
            let produces = c.arrivals & mask == 0;
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
        let site = &mut self.sites[site_idx];
        if site.busy < self.purifier_units {
            site.busy += 1;
            site.busy_ns += job_dur.as_nanos();
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
            self.waiters
                .push_back(&mut site.wait, pack_purify_job(comm_id, ops, produces));
        }
    }

    fn purify_done(&mut self, comm_id: u32, ops: u8, produces: bool) {
        let site_idx = self.comms[comm_id as usize].path.dst_site;
        self.purify_ops += u64::from(ops);
        if produces {
            self.purified_outputs += 1;
            let needed = self.cfg.outputs_per_comm;
            let c = &mut self.comms[comm_id as usize];
            c.outputs += 1;
            if c.outputs == needed && !c.done {
                c.done = true;
                let path = c.path;
                let dt = self.data_teleport_time(path);
                self.queue
                    .schedule_after(dt, Event::DataTeleportDone { comm: comm_id });
            }
        }
        // Free the unit; start the next queued job.
        let site = &mut self.sites[site_idx as usize];
        site.busy -= 1;
        if let Some(job) = self.waiters.pop_front(&mut site.wait) {
            let (c, ops, produces) = unpack_purify_job(job);
            let dur = self.comms[c as usize].path.purify_op_time * u64::from(ops);
            site.busy += 1;
            site.busy_ns += dur.as_nanos();
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
                for hop in &self.hops[self.comms[comm as usize].path.hops()] {
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
        let Token {
            comm, hop: fired, ..
        } = self.tokens[token_idx as usize];
        let hop = self.hops[fired as usize];
        // Free the teleporter that served this hop.
        let teleset = hop.teleset as usize;
        self.telesets[teleset].release();
        if P::ACTIVE {
            self.probe
                .on_teleset_release(self.queue.now().as_nanos(), hop.teleset);
        }
        if !hop.first {
            // Storage this token held at the node it fired from: the
            // landing bank of the previous hop (injection hops fire from
            // the source and hold none).
            let held = self.hops[fired as usize - 1].storage as usize;
            self.release_storage(held);
            self.drain_storage_waiters(held);
        }
        self.drain_teleset_waiters(teleset);

        if hop.last {
            // Arrived: hand off to the P node, freeing network storage
            // (the landing bank of the final hop).
            let landed = hop.storage as usize;
            self.release_storage(landed);
            self.free_token(token_idx);
            self.drain_storage_waiters(landed);
            self.feed_purifier(comm);
        } else {
            self.tokens[token_idx as usize].hop = fired + 1;
            let _ = self.try_fire_hop(comm, fired + 1, u64::from(token_idx));
        }
    }

    fn wire_wake(&mut self, edge: usize) {
        let now = self.queue.now();
        let rate = self.wire_rate;
        self.wires[edge].wake_pending = false;
        loop {
            let wire = &mut self.wires[edge];
            wire.refresh(rate, now);
            if wire.stock == 0 {
                break;
            }
            match self.waiters.pop_front(&mut wire.wait) {
                Some(w) => self.wake(w),
                None => break,
            }
        }
        // If tokens still wait and the wire is dry, re-arm the wake.
        let wire = &mut self.wires[edge];
        wire.refresh(rate, now);
        if !wire.wait.is_empty() && wire.stock == 0 && !wire.wake_pending {
            wire.wake_pending = true;
            self.queue.schedule_at(
                wire.next_ready,
                Event::WireWake {
                    edge: u32::try_from(edge).expect("link indices fit u32"),
                },
            );
        }
    }

    fn report(&mut self) -> NetReport {
        let makespan = self.queue.now().as_duration();
        let pairs_generated: u64 = self.wires.iter().map(|w| w.produced).sum();
        let pairs_consumed: u64 = self.wires.iter().map(|w| w.consumed).sum();
        let horizon_ns = u128::from(makespan.as_nanos());
        let tele_util = if makespan == Duration::ZERO {
            0.0
        } else {
            // Mean over teleporter sets, in index order, of each set's
            // busy time over `makespan × capacity`. Idle sets contribute
            // exactly 0.0, so they are skipped.
            let mut total = 0.0;
            for set in &self.telesets {
                if set.busy_ns != 0 {
                    total += set.busy_ns as f64 / (horizon_ns * u128::from(set.capacity)) as f64;
                }
            }
            total / self.telesets.len() as f64
        };
        let puri_util = if makespan == Duration::ZERO {
            0.0
        } else {
            let mut total = 0.0;
            for site in &self.sites {
                if site.busy_ns != 0 {
                    total +=
                        site.busy_ns as f64 / (horizon_ns * u128::from(self.purifier_units)) as f64;
                }
            }
            total / self.sites.len() as f64
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
