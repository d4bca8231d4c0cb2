//! The classical logical-level scheduler — **Section 5**.
//!
//! "The logical instruction stream is processed by a control unit which
//! determines a path for each logical communication … The scheduler
//! attempts to execute as many logical instructions in parallel as
//! possible while maintaining instruction order dependencies."
//!
//! [`LayoutScheduler`] implements the `qic-net` [`Driver`] trait: it
//! issues an instruction as soon as it is at the head of both operands'
//! program-order queues and the layout's placement rules allow it, turns
//! it into channel set-ups, models the logical gate latency, and (layout
//! depending) sends qubits home afterwards.

use std::collections::VecDeque;

use qic_net::sim::{CommDone, Driver, SimApi};
use qic_net::topology::Coord;
use qic_physics::time::Duration;
use qic_workload::{LogicalQubit, Program};

use crate::layout::{CapacityError, Layout, Placement};

/// Tag phases (low two bits of a comm/notify tag).
const PHASE_OUTBOUND: u64 = 0;
const PHASE_RETURN: u64 = 1;
const PHASE_RETURN_HOME: u64 = 2;
const PHASE_GATE_END: u64 = 3;

fn tag(payload: u64, phase: u64) -> u64 {
    (payload << 2) | phase
}

fn untag(t: u64) -> (u64, u64) {
    (t >> 2, t & 3)
}

/// The logical gate latency charged between a channel's completion and
/// the follow-up movement: one two-qubit gate (Table 1's `t2q`).
const GATE_TIME: Duration = Duration::from_micros(20);

/// The layout-aware scheduler driving the network simulator.
#[derive(Debug)]
pub struct LayoutScheduler {
    layout: Layout,
    placement: Placement,
    instr: Vec<(u32, u32)>,
    /// Per-qubit program-order queues of instruction indices.
    queues: Vec<VecDeque<u32>>,
    busy: Vec<bool>,
    /// Current site of each logical qubit.
    loc: Vec<Coord>,
    /// Site where the qubit currently holds a visitor slot, if any.
    visitor_slot: Vec<Option<Coord>>,
    /// Visitors currently hosted per site (dense by node index).
    visitors_used: Vec<u32>,
    visitor_cap: u32,
    width: u16,
    issued: Vec<bool>,
    /// Instructions ready to issue but blocked on a visitor slot.
    blocked: Vec<u32>,
    /// Logical instructions completed (gate finished).
    pub completed: u64,
}

impl LayoutScheduler {
    /// Builds a scheduler for `program` under the given layout.
    pub fn new(program: &Program, layout: Layout, placement: Placement) -> Self {
        let n = program.n_qubits() as usize;
        let mut queues = vec![VecDeque::new(); n];
        let instr: Vec<(u32, u32)> = program.iter().map(|i| (i.a.index(), i.b.index())).collect();
        for (k, &(a, b)) in instr.iter().enumerate() {
            queues[a as usize].push_back(k as u32);
            queues[b as usize].push_back(k as u32);
        }
        let loc: Vec<Coord> = (0..n)
            .map(|q| placement.home(LogicalQubit(q as u32)))
            .collect();
        let sites = usize::from(placement.width()) * usize::from(placement.height());
        let width = placement.width();
        LayoutScheduler {
            layout,
            placement,
            queues,
            busy: vec![false; n],
            loc,
            visitor_slot: vec![None; n],
            visitors_used: vec![0; sites],
            visitor_cap: 1,
            width,
            issued: vec![false; instr.len()],
            instr,
            blocked: Vec::new(),
            completed: 0,
        }
    }

    fn site_index(&self, c: Coord) -> usize {
        usize::from(c.y) * usize::from(self.width) + usize::from(c.x)
    }

    fn home(&self, q: u32) -> Coord {
        self.placement.home(LogicalQubit(q))
    }

    /// Whether instruction `k` heads both operands' queues.
    fn is_head_of_both(&self, k: u32) -> bool {
        let (a, b) = self.instr[k as usize];
        self.queues[a as usize].front() == Some(&k) && self.queues[b as usize].front() == Some(&k)
    }

    fn try_issue(&mut self, k: u32, api: &mut SimApi<'_>) {
        if self.issued[k as usize] || !self.is_head_of_both(k) {
            return;
        }
        let (a, b) = self.instr[k as usize];
        if self.busy[a as usize] || self.busy[b as usize] {
            return;
        }
        match self.layout {
            Layout::HomeBase => {
                // b teleports to a's home.
                let src = self.home(b);
                let dst = self.home(a);
                self.issued[k as usize] = true;
                self.busy[a as usize] = true;
                self.busy[b as usize] = true;
                self.loc[b as usize] = dst;
                api.submit_now(src, dst, tag(u64::from(k), PHASE_OUTBOUND));
            }
            Layout::MobileQubit => {
                // a walks to b's current site and stays.
                let src = self.loc[a as usize];
                let dst = self.loc[b as usize];
                let needs_slot = dst != self.home(a) && self.visitor_slot[a as usize] != Some(dst);
                if needs_slot {
                    let s = self.site_index(dst);
                    if self.visitors_used[s] >= self.visitor_cap {
                        if !self.blocked.contains(&k) {
                            self.blocked.push(k);
                        }
                        // Cycle breaking. Two camping patterns can wedge
                        // the walk: (1) the blocked walker itself holds a
                        // slot elsewhere, and (2) an *idle* visitor camps
                        // on `dst` while its own next instruction waits on
                        // this one. Send both kinds home; the op re-issues
                        // once the slot frees.
                        self.send_home_if_camping(a, api);
                        let campers: Vec<u32> = (0..self.loc.len() as u32)
                            .filter(|&q| {
                                self.visitor_slot[q as usize] == Some(dst) && !self.busy[q as usize]
                            })
                            .collect();
                        for q in campers {
                            self.send_home_if_camping(q, api);
                        }
                        return;
                    }
                    self.visitors_used[s] += 1;
                }
                self.issued[k as usize] = true;
                self.busy[a as usize] = true;
                self.busy[b as usize] = true;
                api.submit_now(src, dst, tag(u64::from(k), PHASE_OUTBOUND));
            }
        }
    }

    fn retry_blocked(&mut self, api: &mut SimApi<'_>) {
        let blocked = std::mem::take(&mut self.blocked);
        for k in blocked {
            self.try_issue(k, api);
            // Still unissued (e.g. an operand is mid-flight): keep it
            // parked so a later wake retries it.
            if !self.issued[k as usize] && !self.blocked.contains(&k) {
                self.blocked.push(k);
            }
        }
    }

    /// Pops `k` from qubit `q`'s queue and tries to issue the successor.
    fn advance_queue(&mut self, q: u32, k: u32, api: &mut SimApi<'_>) {
        let head = self.queues[q as usize].pop_front();
        debug_assert_eq!(head, Some(k), "queue discipline violated for q{q}");
        self.busy[q as usize] = false;
        if let Some(&next) = self.queues[q as usize].front() {
            self.try_issue(next, api);
        } else if self.layout == Layout::MobileQubit {
            // Stream finished: walk home if away.
            let home = self.home(q);
            if self.loc[q as usize] != home {
                self.busy[q as usize] = true;
                let src = self.loc[q as usize];
                api.submit_now(src, home, tag(u64::from(q), PHASE_RETURN_HOME));
            }
        }
    }

    /// Sends an idle, slot-holding qubit back to its home site.
    fn send_home_if_camping(&mut self, q: u32, api: &mut SimApi<'_>) {
        if !self.busy[q as usize] && self.visitor_slot[q as usize].is_some() {
            self.busy[q as usize] = true;
            let src = self.loc[q as usize];
            let home = self.home(q);
            api.submit_now(src, home, tag(u64::from(q), PHASE_RETURN_HOME));
        }
    }

    fn release_visitor_slot(&mut self, q: u32) {
        if let Some(site) = self.visitor_slot[q as usize].take() {
            let s = self.site_index(site);
            debug_assert!(self.visitors_used[s] > 0);
            self.visitors_used[s] -= 1;
        }
    }
}

impl Driver for LayoutScheduler {
    fn start(&mut self, api: &mut SimApi<'_>) {
        let heads: Vec<u32> = self
            .queues
            .iter()
            .filter_map(|q| q.front().copied())
            .collect();
        for k in heads {
            self.try_issue(k, api);
        }
    }

    fn on_complete(&mut self, done: CommDone, api: &mut SimApi<'_>) {
        let (payload, phase) = untag(done.tag);
        match phase {
            PHASE_OUTBOUND => {
                let k = payload as u32;
                if self.layout == Layout::MobileQubit {
                    let (a, _) = self.instr[k as usize];
                    // The walker's data has left its previous site.
                    self.release_visitor_slot(a);
                    self.loc[a as usize] = done.dst;
                    if done.dst != self.home(a) {
                        self.visitor_slot[a as usize] = Some(done.dst);
                    }
                    self.retry_blocked(api);
                }
                api.notify_after(GATE_TIME, tag(payload, PHASE_GATE_END));
            }
            PHASE_RETURN => {
                // Home-Base: b is home again.
                let k = payload as u32;
                let (_, b) = self.instr[k as usize];
                self.loc[b as usize] = self.home(b);
                self.advance_queue(b, k, api);
            }
            PHASE_RETURN_HOME => {
                // Mobile: the walker reached home (end of its stream, or
                // evicted while camping on a contested site).
                let q = payload as u32;
                self.release_visitor_slot(q);
                self.loc[q as usize] = self.home(q);
                self.busy[q as usize] = false;
                // An evicted qubit may still have work: retry its head.
                if let Some(&next) = self.queues[q as usize].front() {
                    self.try_issue(next, api);
                }
                self.retry_blocked(api);
            }
            _ => unreachable!("comm tags only use outbound/return phases"),
        }
    }

    fn on_notify(&mut self, t: u64, api: &mut SimApi<'_>) {
        let (payload, phase) = untag(t);
        debug_assert_eq!(phase, PHASE_GATE_END);
        let k = payload as u32;
        let (a, b) = self.instr[k as usize];
        self.completed += 1;
        match self.layout {
            Layout::HomeBase => {
                // a's side of the instruction is done; b must teleport
                // home before its next instruction.
                self.advance_queue(a, k, api);
                let src = self.home(a);
                let dst = self.home(b);
                api.submit_now(src, dst, tag(u64::from(k), PHASE_RETURN));
            }
            Layout::MobileQubit => {
                self.advance_queue(a, k, api);
                self.advance_queue(b, k, api);
                self.retry_blocked(api);
            }
        }
    }
}

impl LayoutScheduler {
    /// Debug dump of the scheduler's stuck state (for development tools).
    pub fn debug_state(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (q, queue) in self.queues.iter().enumerate() {
            if queue.is_empty() && !self.busy[q] {
                continue;
            }
            let _ = writeln!(
                s,
                "q{q}: busy={} head={:?} loc={} slot={:?}",
                self.busy[q],
                queue.front().map(|&k| self.instr[k as usize]),
                self.loc[q],
                self.visitor_slot[q]
            );
        }
        let _ = writeln!(s, "blocked: {:?}", self.blocked);
        s
    }
}

/// A ready-to-run [`Driver`] for a logical [`Program`] — the
/// `Program → Driver` adapter that lets `qic-workload` programs drive
/// [`qic_net::sim::NetworkSim`] directly.
///
/// The adapter picks the fabric-appropriate placement (the snake for
/// mesh/torus grids, the Gray-code walk for hypercubes), builds the
/// layout scheduler, and tracks completion; the scenario runner drives
/// every program workload through it:
///
/// ```
/// use qic_core::scheduler::ProgramDriver;
/// use qic_core::Layout;
/// use qic_net::config::NetConfig;
/// use qic_net::sim::NetworkSim;
/// use qic_workload::Program;
///
/// let net = NetConfig::small_test();
/// let program = Program::qft(4);
/// let mut driver = ProgramDriver::new(&net, Layout::HomeBase, &program)?;
/// let report = NetworkSim::new(net).run(&mut driver);
/// assert!(driver.is_finished());
/// assert!(report.comms_completed > 0);
/// # Ok::<(), qic_core::layout::CapacityError>(())
/// ```
#[derive(Debug)]
pub struct ProgramDriver {
    scheduler: LayoutScheduler,
    expected: u64,
}

impl ProgramDriver {
    /// Builds a driver for `program` on `net`'s grid under `layout`.
    ///
    /// # Errors
    ///
    /// [`CapacityError`] if the program needs more qubits than the
    /// config's grid has sites.
    pub fn new(
        net: &qic_net::config::NetConfig,
        layout: Layout,
        program: &Program,
    ) -> Result<Self, CapacityError> {
        // Placement follows the fabric: the snake keeps consecutive
        // qubits one mesh/torus hop apart; its hypercube analogue is the
        // Gray-code walk (one address bit between consecutive qubits).
        let place = if net.topology == qic_net::topology::TopologyKind::Hypercube {
            Placement::gray
        } else {
            Placement::snake
        };
        let placement = place(net.mesh_width, net.mesh_height, program.n_qubits())?;
        Ok(ProgramDriver {
            scheduler: LayoutScheduler::new(program, layout, placement),
            expected: program.len() as u64,
        })
    }

    /// Logical instructions completed so far.
    pub fn completed(&self) -> u64 {
        self.scheduler.completed
    }

    /// Whether every instruction of the program has completed.
    pub fn is_finished(&self) -> bool {
        self.scheduler.completed == self.expected
    }

    /// Panics with the scheduler's stuck-state dump unless the program
    /// ran to completion — the invariant every simulation asserts after
    /// [`qic_net::sim::NetworkSim::run`] returns.
    ///
    /// # Panics
    ///
    /// Panics if any instruction failed to complete.
    pub fn assert_finished(&self) {
        assert!(
            self.is_finished(),
            "scheduler wedged: {} of {} instructions completed\n{}",
            self.scheduler.completed,
            self.expected,
            self.scheduler.debug_state()
        );
    }
}

impl Driver for ProgramDriver {
    fn start(&mut self, api: &mut SimApi<'_>) {
        self.scheduler.start(api);
    }

    fn on_complete(&mut self, done: CommDone, api: &mut SimApi<'_>) {
        self.scheduler.on_complete(done, api);
    }

    fn on_notify(&mut self, tag: u64, api: &mut SimApi<'_>) {
        self.scheduler.on_notify(tag, api);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qic_net::config::NetConfig;
    use qic_net::sim::NetworkSim;

    fn run(program: &Program, layout: Layout) -> (qic_net::report::NetReport, u64) {
        let cfg = NetConfig::small_test();
        let placement =
            Placement::snake(cfg.mesh_width, cfg.mesh_height, program.n_qubits()).unwrap();
        let mut driver = LayoutScheduler::new(program, layout, placement);
        let report = NetworkSim::new(cfg).run(&mut driver);
        (report, driver.completed)
    }

    #[test]
    fn qft_completes_under_both_layouts() {
        let program = Program::qft(8);
        for layout in Layout::ALL {
            let (report, completed) = run(&program, layout);
            assert_eq!(completed as usize, program.len(), "{layout}");
            assert!(report.makespan.as_us_f64() > 0.0);
        }
    }

    #[test]
    fn home_base_makes_two_channels_per_instruction() {
        // Every instruction = outbound + return; qubits 0 and 1 are
        // adjacent on the snake, so each channel is 1 hop.
        let program = Program::new(2, vec![qic_workload::Instruction::interact(0, 1)]).unwrap();
        let (report, _) = run(&program, Layout::HomeBase);
        assert_eq!(report.comms_completed, 2);
    }

    #[test]
    fn mobile_returns_walkers_home() {
        // One instruction: walker 0 visits 1's site, then returns home
        // because its stream is empty → 2 comms.
        let program = Program::new(2, vec![qic_workload::Instruction::interact(0, 1)]).unwrap();
        let (report, _) = run(&program, Layout::MobileQubit);
        assert_eq!(report.comms_completed, 2);
    }

    #[test]
    fn mobile_walker_stays_for_consecutive_ops() {
        // Walker 0 interacts with 1 then 2: channels are 0→1 (1 hop),
        // then 1's site→2's site (1 hop), then home return (2 hops):
        // 3 comms, not 4.
        let program = Program::new(
            3,
            vec![
                qic_workload::Instruction::interact(0, 1),
                qic_workload::Instruction::interact(0, 2),
            ],
        )
        .unwrap();
        let (report, _) = run(&program, Layout::MobileQubit);
        assert_eq!(report.comms_completed, 3);
    }

    #[test]
    fn mobile_is_faster_than_home_base_for_qft() {
        // The Mobile layout turns QFT's all-to-all into mostly one-hop
        // walks — the whole point of Figure 15.
        let program = Program::qft(12);
        let (hb, _) = run(&program, Layout::HomeBase);
        let (mb, _) = run(&program, Layout::MobileQubit);
        assert!(
            mb.makespan < hb.makespan,
            "mobile {} vs home-base {}",
            mb.makespan,
            hb.makespan
        );
        // And it teleports far fewer pairs.
        assert!(mb.teleport_ops < hb.teleport_ops);
    }

    #[test]
    fn dependency_order_is_respected() {
        // A serial chain must take at least 3 × (channel + gate) time.
        let program = Program::new(
            3,
            vec![
                qic_workload::Instruction::interact(0, 1),
                qic_workload::Instruction::interact(1, 2),
                qic_workload::Instruction::interact(0, 2),
            ],
        )
        .unwrap();
        let (serial, completed) = run(&program, Layout::HomeBase);
        assert_eq!(completed, 3);
        let parallel_program = Program::new(
            6,
            vec![
                qic_workload::Instruction::interact(0, 1),
                qic_workload::Instruction::interact(2, 3),
                qic_workload::Instruction::interact(4, 5),
            ],
        )
        .unwrap();
        let (parallel, _) = run(&parallel_program, Layout::HomeBase);
        assert!(serial.makespan > parallel.makespan);
    }

    #[test]
    fn modular_multiplication_completes() {
        let program = Program::modular_multiplication(4);
        for layout in Layout::ALL {
            let (_, completed) = run(&program, layout);
            assert_eq!(completed as usize, program.len(), "{layout}");
        }
    }
}
