//! Occupancy-checked ballistic channels.
//!
//! A channel is a linear run of trap cells. Ions are physical objects: two
//! ions cannot pass through each other, so a shuttle reserves its whole
//! span. The channel tracks per-ion accumulated movement error using the
//! Equation 1 model.

use std::collections::HashMap;
use std::fmt;

use qic_physics::error::ErrorRates;
use qic_physics::fidelity::Fidelity;
use qic_physics::optime::OpTimes;
use qic_physics::time::Duration;
use qic_physics::transport;

use crate::waveform::{ShuttlePlan, WaveformSchedule};

/// Identifier of a physical ion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IonId(pub u64);

impl fmt::Display for IonId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ion{}", self.0)
    }
}

/// Errors raised by channel operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChannelError {
    /// A cell index beyond the channel length.
    OutOfRange {
        /// The offending cell.
        cell: u32,
        /// Channel length in cells.
        len: u32,
    },
    /// The target cell (or a cell on the path) is occupied.
    Blocked {
        /// The blocking ion.
        by: IonId,
        /// The occupied cell.
        at: u32,
    },
    /// The named ion is not in this channel.
    UnknownIon(IonId),
    /// The cell already holds an ion.
    Occupied {
        /// The occupied cell.
        cell: u32,
        /// The resident ion.
        by: IonId,
    },
}

impl fmt::Display for ChannelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelError::OutOfRange { cell, len } => {
                write!(f, "cell {cell} outside channel of {len} cells")
            }
            ChannelError::Blocked { by, at } => write!(f, "path blocked by {by} at cell {at}"),
            ChannelError::UnknownIon(ion) => write!(f, "{ion} is not in this channel"),
            ChannelError::Occupied { cell, by } => write!(f, "cell {cell} already holds {by}"),
        }
    }
}

impl std::error::Error for ChannelError {}

/// A completed shuttle: schedule, timing and fidelity outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ShuttleOutcome {
    /// The electrode schedule that was (virtually) executed.
    pub schedule: WaveformSchedule,
    /// Wall-clock duration (`tmv × cells`).
    pub elapsed: Duration,
    /// Ion state fidelity after the move (Equation 1 applied to its
    /// fidelity before the move).
    pub fidelity_after: Fidelity,
}

/// A linear ballistic channel of `len` trap cells.
///
/// # Example
///
/// ```
/// use qic_iontrap::channel::{Channel, IonId};
///
/// let mut ch = Channel::new(16);
/// ch.insert(IonId(1), 0)?;
/// let out = ch.shuttle(IonId(1), 10)?;
/// assert_eq!(out.elapsed.as_us_f64(), 2.0);
/// assert_eq!(ch.position(IonId(1)), Some(10));
/// # Ok::<(), qic_iontrap::channel::ChannelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Channel {
    len: u32,
    times: OpTimes,
    rates: ErrorRates,
    /// cell → ion
    occupancy: HashMap<u32, IonId>,
    /// ion → (cell, fidelity)
    ions: HashMap<IonId, (u32, Fidelity)>,
    /// Total cell-moves executed (for utilisation accounting).
    cell_moves: u64,
}

impl Channel {
    /// An empty channel of `len` cells with ion-trap default parameters.
    pub fn new(len: u32) -> Self {
        Channel::with_params(len, OpTimes::ion_trap(), ErrorRates::ion_trap())
    }

    /// An empty channel with explicit parameters.
    pub fn with_params(len: u32, times: OpTimes, rates: ErrorRates) -> Self {
        Channel {
            len,
            times,
            rates,
            occupancy: HashMap::new(),
            ions: HashMap::new(),
            cell_moves: 0,
        }
    }

    /// Channel length in cells.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the channel holds no ions.
    pub fn is_empty(&self) -> bool {
        self.ions.is_empty()
    }

    /// Number of ions currently in the channel.
    pub fn ion_count(&self) -> usize {
        self.ions.len()
    }

    /// Total single-cell moves executed so far.
    pub fn cell_moves(&self) -> u64 {
        self.cell_moves
    }

    /// The cell an ion occupies, if present.
    pub fn position(&self, ion: IonId) -> Option<u32> {
        self.ions.get(&ion).map(|(c, _)| *c)
    }

    /// The state fidelity of an ion, if present.
    pub fn fidelity(&self, ion: IonId) -> Option<Fidelity> {
        self.ions.get(&ion).map(|(_, f)| *f)
    }

    /// Places a fresh ion (perfect fidelity) at `cell`.
    ///
    /// # Errors
    ///
    /// [`ChannelError::OutOfRange`] or [`ChannelError::Occupied`].
    pub fn insert(&mut self, ion: IonId, cell: u32) -> Result<(), ChannelError> {
        self.insert_with_fidelity(ion, cell, Fidelity::ONE)
    }

    /// Places an ion carrying existing state at `cell`.
    ///
    /// # Errors
    ///
    /// [`ChannelError::OutOfRange`] or [`ChannelError::Occupied`].
    pub fn insert_with_fidelity(
        &mut self,
        ion: IonId,
        cell: u32,
        fidelity: Fidelity,
    ) -> Result<(), ChannelError> {
        self.check_cell(cell)?;
        if let Some(&by) = self.occupancy.get(&cell) {
            return Err(ChannelError::Occupied { cell, by });
        }
        self.occupancy.insert(cell, ion);
        self.ions.insert(ion, (cell, fidelity));
        Ok(())
    }

    /// Removes an ion (e.g. consumed by a gate or recycled).
    ///
    /// # Errors
    ///
    /// [`ChannelError::UnknownIon`] if absent.
    pub fn remove(&mut self, ion: IonId) -> Result<Fidelity, ChannelError> {
        let (cell, f) = self
            .ions
            .remove(&ion)
            .ok_or(ChannelError::UnknownIon(ion))?;
        self.occupancy.remove(&cell);
        Ok(f)
    }

    /// Shuttles an ion to `to_cell`, checking the whole path for
    /// collisions, generating the electrode schedule and applying movement
    /// decoherence.
    ///
    /// # Errors
    ///
    /// [`ChannelError::UnknownIon`], [`ChannelError::OutOfRange`], or
    /// [`ChannelError::Blocked`] if another ion sits anywhere on the path.
    pub fn shuttle(&mut self, ion: IonId, to_cell: u32) -> Result<ShuttleOutcome, ChannelError> {
        let (from, fid) = *self.ions.get(&ion).ok_or(ChannelError::UnknownIon(ion))?;
        self.check_cell(to_cell)?;
        if from == to_cell {
            // Degenerate move: nothing happens; report an empty-duration
            // outcome with a trivial one-cell schedule as documentation.
            return Ok(ShuttleOutcome {
                schedule: ShuttlePlan::new(from, from + 1)
                    .expect("adjacent cells differ")
                    .waveforms(&self.times),
                elapsed: Duration::ZERO,
                fidelity_after: fid,
            });
        }
        let (lo, hi) = (from.min(to_cell), from.max(to_cell));
        for cell in lo..=hi {
            if cell == from {
                continue;
            }
            if let Some(&by) = self.occupancy.get(&cell) {
                return Err(ChannelError::Blocked { by, at: cell });
            }
        }
        let plan = ShuttlePlan::new(from, to_cell).expect("cells differ");
        let schedule = plan.waveforms(&self.times);
        let elapsed = schedule.total_time();
        let fidelity_after =
            transport::ballistic_fidelity(fid, u64::from(plan.cells()), &self.rates);
        self.occupancy.remove(&from);
        self.occupancy.insert(to_cell, ion);
        self.ions.insert(ion, (to_cell, fidelity_after));
        self.cell_moves += u64::from(plan.cells());
        Ok(ShuttleOutcome {
            schedule,
            elapsed,
            fidelity_after,
        })
    }

    fn check_cell(&self, cell: u32) -> Result<(), ChannelError> {
        if cell >= self.len {
            Err(ChannelError::OutOfRange {
                cell,
                len: self.len,
            })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_shuttle() {
        let mut ch = Channel::new(20);
        ch.insert(IonId(1), 2).unwrap();
        let out = ch.shuttle(IonId(1), 12).unwrap();
        assert_eq!(out.elapsed, Duration::from_micros(2));
        assert!(out.schedule.is_well_formed());
        assert_eq!(ch.position(IonId(1)), Some(12));
        assert_eq!(ch.cell_moves(), 10);
        // Ten cells of movement error.
        let e = ch.fidelity(IonId(1)).unwrap().infidelity();
        assert!((e - 1e-5).abs() / 1e-5 < 1e-3);
    }

    #[test]
    fn collisions_are_detected() {
        let mut ch = Channel::new(20);
        ch.insert(IonId(1), 0).unwrap();
        ch.insert(IonId(2), 5).unwrap();
        let err = ch.shuttle(IonId(1), 10).unwrap_err();
        assert_eq!(
            err,
            ChannelError::Blocked {
                by: IonId(2),
                at: 5
            }
        );
        // The failed shuttle must not have moved anything.
        assert_eq!(ch.position(IonId(1)), Some(0));
    }

    #[test]
    fn occupied_insert_rejected() {
        let mut ch = Channel::new(4);
        ch.insert(IonId(1), 1).unwrap();
        let err = ch.insert(IonId(2), 1).unwrap_err();
        assert!(matches!(
            err,
            ChannelError::Occupied {
                cell: 1,
                by: IonId(1)
            }
        ));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut ch = Channel::new(4);
        assert!(matches!(
            ch.insert(IonId(1), 9),
            Err(ChannelError::OutOfRange { cell: 9, len: 4 })
        ));
        ch.insert(IonId(1), 0).unwrap();
        assert!(ch.shuttle(IonId(1), 99).is_err());
    }

    #[test]
    fn unknown_ion() {
        let mut ch = Channel::new(4);
        assert_eq!(
            ch.shuttle(IonId(7), 1).unwrap_err(),
            ChannelError::UnknownIon(IonId(7))
        );
        assert!(ch.remove(IonId(7)).is_err());
    }

    #[test]
    fn remove_frees_cell() {
        let mut ch = Channel::new(4);
        ch.insert(IonId(1), 2).unwrap();
        let f = ch.remove(IonId(1)).unwrap();
        assert_eq!(f, Fidelity::ONE);
        assert!(ch.is_empty());
        ch.insert(IonId(2), 2).unwrap();
        assert_eq!(ch.ion_count(), 1);
    }

    #[test]
    fn fidelity_carries_across_inserts() {
        let mut ch = Channel::new(10);
        let f = Fidelity::new(0.999).unwrap();
        ch.insert_with_fidelity(IonId(1), 0, f).unwrap();
        let out = ch.shuttle(IonId(1), 5).unwrap();
        assert!(out.fidelity_after < f);
    }

    #[test]
    fn degenerate_move_costs_nothing() {
        let mut ch = Channel::new(10);
        ch.insert(IonId(1), 3).unwrap();
        let out = ch.shuttle(IonId(1), 3).unwrap();
        assert_eq!(out.elapsed, Duration::ZERO);
        assert_eq!(ch.cell_moves(), 0);
    }

    #[test]
    fn error_messages() {
        let e = ChannelError::Blocked {
            by: IonId(3),
            at: 7,
        };
        assert!(e.to_string().contains("ion3"));
        assert!(e.to_string().contains("7"));
    }
}
