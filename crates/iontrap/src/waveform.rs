//! Electrode waveforms for ballistic shuttling — **Figure 2**.
//!
//! A channel cell `k` is the space between electrode columns `k` and
//! `k+1` (each column is a top/bottom electrode pair driven together).
//! Holding an ion at cell `k` means biasing columns `k` and `k+1` to trap;
//! moving it one cell right is one *phase*: push from behind (column `k`)
//! and open the next well (columns `k+1`/`k+2`). Chaining phases walks the
//! ion down the channel at one cell per `tmv` (0.2 µs).

use std::fmt;

use qic_physics::optime::OpTimes;
use qic_physics::time::Duration;

/// Drive level of an electrode column during one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// Grounded (no influence).
    Ground,
    /// Negative bias: forms a trapping well (attracts the positive ion).
    Trap,
    /// Positive bias: repels the ion out of its current well.
    Push,
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Level::Ground => f.write_str("·"),
            Level::Trap => f.write_str("T"),
            Level::Push => f.write_str("P"),
        }
    }
}

/// Error raised for a degenerate shuttle request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptyShuttleError;

impl fmt::Display for EmptyShuttleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("shuttle source and destination cells are equal")
    }
}

impl std::error::Error for EmptyShuttleError {}

/// A planned shuttle of one ion along a channel, from `from_cell` to
/// `to_cell` (either direction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShuttlePlan {
    from_cell: u32,
    to_cell: u32,
}

impl ShuttlePlan {
    /// Plans a shuttle between two distinct cells.
    ///
    /// # Errors
    ///
    /// Returns [`EmptyShuttleError`] if the cells are equal.
    pub fn new(from_cell: u32, to_cell: u32) -> Result<Self, EmptyShuttleError> {
        if from_cell == to_cell {
            return Err(EmptyShuttleError);
        }
        Ok(ShuttlePlan { from_cell, to_cell })
    }

    /// Source cell.
    pub fn from_cell(&self) -> u32 {
        self.from_cell
    }

    /// Destination cell.
    pub fn to_cell(&self) -> u32 {
        self.to_cell
    }

    /// Number of single-cell moves.
    pub fn cells(&self) -> u32 {
        self.from_cell.abs_diff(self.to_cell)
    }

    /// Whether the ion moves toward higher cell indices.
    pub fn forward(&self) -> bool {
        self.to_cell > self.from_cell
    }

    /// Generates the per-electrode pulse schedule realising this shuttle.
    pub fn waveforms(&self, times: &OpTimes) -> WaveformSchedule {
        let phase_time = times.move_cell();
        let n_phases = self.cells();
        let dir: i64 = if self.forward() { 1 } else { -1 };
        let mut phases = Vec::with_capacity(n_phases as usize);
        let mut cell = i64::from(self.from_cell);
        for i in 0..n_phases {
            let next = cell + dir;
            // Trap well opens at `next` (columns next, next+1); the column
            // behind the ion pushes.
            let push_col = if dir > 0 { cell } else { cell + 1 };
            let trap_cols = [next, next + 1];
            phases.push(Phase {
                index: i,
                start: phase_time * u64::from(i),
                duration: phase_time,
                ion_cell_before: cell as u32,
                ion_cell_after: next as u32,
                push_column: push_col.max(0) as u32,
                trap_columns: [trap_cols[0].max(0) as u32, trap_cols[1].max(0) as u32],
            });
            cell = next;
        }
        WaveformSchedule {
            plan: *self,
            phases,
        }
    }
}

/// One phase of a shuttle: the drive state for the duration of a
/// single-cell move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase {
    /// Phase number (0-based).
    pub index: u32,
    /// Offset from shuttle start.
    pub start: Duration,
    /// Phase duration (`tmv`).
    pub duration: Duration,
    /// Ion's cell at phase start.
    pub ion_cell_before: u32,
    /// Ion's cell at phase end.
    pub ion_cell_after: u32,
    /// Electrode column driven to [`Level::Push`].
    pub push_column: u32,
    /// Electrode columns driven to [`Level::Trap`].
    pub trap_columns: [u32; 2],
}

impl Phase {
    /// The drive level of electrode `column` during this phase.
    pub fn level_of(&self, column: u32) -> Level {
        if self.trap_columns.contains(&column) {
            Level::Trap
        } else if column == self.push_column {
            Level::Push
        } else {
            Level::Ground
        }
    }
}

/// The full electrode schedule for one shuttle (Figure 2's waveform set).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaveformSchedule {
    plan: ShuttlePlan,
    phases: Vec<Phase>,
}

impl WaveformSchedule {
    /// The plan this schedule realises.
    pub fn plan(&self) -> ShuttlePlan {
        self.plan
    }

    /// Number of pulse phases (one per cell moved).
    pub fn phases(&self) -> u32 {
        self.phases.len() as u32
    }

    /// The phase list in time order.
    pub fn phase_list(&self) -> &[Phase] {
        &self.phases
    }

    /// Total schedule duration (`tmv × cells`, Equation 2).
    pub fn total_time(&self) -> Duration {
        self.phases.iter().map(|p| p.duration).sum()
    }

    /// The ion's cell at the end of each phase — the well trajectory.
    pub fn well_trajectory(&self) -> Vec<u32> {
        self.phases.iter().map(|p| p.ion_cell_after).collect()
    }

    /// Checks the physical invariants of the schedule:
    ///
    /// 1. the well moves exactly one cell per phase, with no gaps,
    /// 2. the push electrode is never also a trap electrode,
    /// 3. phases tile time contiguously.
    pub fn is_well_formed(&self) -> bool {
        let mut expected_start = Duration::ZERO;
        let mut cell = self.plan.from_cell;
        for p in &self.phases {
            if p.start != expected_start {
                return false;
            }
            expected_start += p.duration;
            if p.ion_cell_before != cell || p.ion_cell_after.abs_diff(cell) != 1 {
                return false;
            }
            cell = p.ion_cell_after;
            if p.trap_columns.contains(&p.push_column) {
                return false;
            }
        }
        cell == self.plan.to_cell
    }

    /// Renders the schedule as a text table: one row per electrode column,
    /// one character per phase (`·` ground, `T` trap, `P` push) — an ASCII
    /// rendition of Figure 2.
    pub fn render(&self) -> String {
        let max_col = self
            .phases
            .iter()
            .flat_map(|p| p.trap_columns.iter().copied().chain([p.push_column]))
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        for col in 0..=max_col {
            out.push_str(&format!("e{col:02} "));
            for p in &self.phases {
                out.push_str(&p.level_of(col).to_string());
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times() -> OpTimes {
        OpTimes::ion_trap()
    }

    #[test]
    fn figure2_example_three_to_nine() {
        // Figure 2 moves an ion from between electrodes 3 and 4 to between
        // 9 and 10 — six cells in our numbering (cell 3 → cell 9).
        let plan = ShuttlePlan::new(3, 9).unwrap();
        let s = plan.waveforms(&times());
        assert_eq!(s.phases(), 6);
        assert!(s.is_well_formed());
        assert_eq!(s.total_time(), Duration::from_us_f64(1.2));
        assert_eq!(s.well_trajectory(), vec![4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn backward_shuttle() {
        let plan = ShuttlePlan::new(9, 3).unwrap();
        let s = plan.waveforms(&times());
        assert!(s.is_well_formed());
        assert!(!plan.forward());
        assert_eq!(s.well_trajectory(), vec![8, 7, 6, 5, 4, 3]);
    }

    #[test]
    fn zero_length_rejected() {
        assert_eq!(ShuttlePlan::new(5, 5), Err(EmptyShuttleError));
        assert!(EmptyShuttleError.to_string().contains("equal"));
    }

    #[test]
    fn single_cell_move() {
        let plan = ShuttlePlan::new(0, 1).unwrap();
        let s = plan.waveforms(&times());
        assert_eq!(s.phases(), 1);
        assert_eq!(s.total_time(), times().move_cell());
        assert!(s.is_well_formed());
    }

    #[test]
    fn push_is_behind_trap_ahead() {
        let plan = ShuttlePlan::new(2, 4).unwrap();
        let s = plan.waveforms(&times());
        let p0 = &s.phase_list()[0];
        // Moving right from cell 2: push from column 2, trap at 3 & 4.
        assert_eq!(p0.push_column, 2);
        assert_eq!(p0.trap_columns, [3, 4]);
        assert_eq!(p0.level_of(2), Level::Push);
        assert_eq!(p0.level_of(3), Level::Trap);
        assert_eq!(p0.level_of(7), Level::Ground);
    }

    #[test]
    fn render_has_one_row_per_column() {
        let s = ShuttlePlan::new(0, 3).unwrap().waveforms(&times());
        let text = s.render();
        let rows: Vec<&str> = text.lines().collect();
        // Columns 0..=4 participate.
        assert_eq!(rows.len(), 5);
        assert!(rows[0].starts_with("e00 "));
        // Each row has one symbol per phase after the label.
        for r in &rows {
            assert_eq!(r.chars().count(), 4 + 3);
        }
    }

    #[test]
    fn schedule_matches_equation2_for_long_moves() {
        let plan = ShuttlePlan::new(0, 600).unwrap();
        let s = plan.waveforms(&times());
        assert_eq!(s.total_time(), Duration::from_micros(120));
        assert!(s.is_well_formed());
    }
}
