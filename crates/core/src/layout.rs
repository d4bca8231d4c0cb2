//! Logical-qubit layouts — **Figure 15 and Section 5**.

use std::fmt;

use qic_net::topology::Coord;
use qic_workload::LogicalQubit;

/// The two machine organisations the paper simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    /// Each LQ node is a *home base* for one logical qubit, "requiring
    /// each logical qubit to teleport home after each logical operation".
    HomeBase,
    /// LQ nodes can error-correct two logical qubits, so a qubit can stay
    /// where it interacted — "capitalizes on the sequential nature of
    /// QFT" (Figure 15, right).
    MobileQubit,
}

impl Layout {
    /// Both layouts, for sweeps.
    pub const ALL: [Layout; 2] = [Layout::HomeBase, Layout::MobileQubit];

    /// Parses a campaign label (`"Home Base"` / `"Mobile Qubit"`, as
    /// produced by the `Display` impl).
    pub fn parse(label: &str) -> Option<Layout> {
        match label {
            "Home Base" => Some(Layout::HomeBase),
            "Mobile Qubit" => Some(Layout::MobileQubit),
            _ => None,
        }
    }
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Layout::HomeBase => f.write_str("Home Base"),
            Layout::MobileQubit => f.write_str("Mobile Qubit"),
        }
    }
}

/// Error raised when a program needs more qubits than the grid has sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityError {
    /// Qubits the program declares.
    pub qubits: u32,
    /// Sites the grid provides.
    pub sites: u32,
}

impl fmt::Display for CapacityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "program needs {} logical qubits but the grid has {} sites",
            self.qubits, self.sites
        )
    }
}

impl std::error::Error for CapacityError {}

/// The assignment of logical qubits to home sites.
///
/// Qubits are laid out along a serpentine ("snake") path through the
/// grid — row 0 left-to-right, row 1 right-to-left, and so on — so that
/// consecutively numbered qubits are physically adjacent. This is exactly
/// the structure the Mobile-Qubit QFT walk exploits (Figure 15).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    width: u16,
    height: u16,
    homes: Vec<Coord>,
}

impl Placement {
    /// Snake placement of `n_qubits` on a `width × height` grid.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if the grid is too small.
    pub fn snake(width: u16, height: u16, n_qubits: u32) -> Result<Self, CapacityError> {
        let sites = u32::from(width) * u32::from(height);
        if n_qubits > sites {
            return Err(CapacityError {
                qubits: n_qubits,
                sites,
            });
        }
        let homes = (0..n_qubits)
            .map(|q| {
                let row = (q / u32::from(width)) as u16;
                let col = (q % u32::from(width)) as u16;
                let x = if row % 2 == 0 { col } else { width - 1 - col };
                Coord::new(x, row)
            })
            .collect();
        Ok(Placement {
            width,
            height,
            homes,
        })
    }

    /// Gray-code placement of `n_qubits` on a `width × height` grid whose
    /// node count is a power of two — the hypercube analogue of the snake:
    /// qubit `q` homes at node index `q ^ (q >> 1)`, so consecutively
    /// numbered qubits sit one **hypercube hop** apart (one address bit),
    /// exactly as the snake keeps them one mesh hop apart.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if the grid is too small.
    ///
    /// # Panics
    ///
    /// Panics if `width × height` is not a power of two (no Gray cycle).
    pub fn gray(width: u16, height: u16, n_qubits: u32) -> Result<Self, CapacityError> {
        let sites = u32::from(width) * u32::from(height);
        assert!(
            sites.is_power_of_two(),
            "gray placement needs a power-of-two site count"
        );
        if n_qubits > sites {
            return Err(CapacityError {
                qubits: n_qubits,
                sites,
            });
        }
        let homes = (0..n_qubits)
            .map(|q| {
                let node = q ^ (q >> 1);
                Coord::new(
                    (node % u32::from(width)) as u16,
                    (node / u32::from(width)) as u16,
                )
            })
            .collect();
        Ok(Placement {
            width,
            height,
            homes,
        })
    }

    /// The home site of a logical qubit.
    ///
    /// # Panics
    ///
    /// Panics if the qubit is outside the placement.
    pub fn home(&self, q: LogicalQubit) -> Coord {
        self.homes[q.index() as usize]
    }

    /// Number of placed qubits.
    pub fn len(&self) -> usize {
        self.homes.len()
    }

    /// Whether the placement is empty.
    pub fn is_empty(&self) -> bool {
        self.homes.is_empty()
    }

    /// Grid width.
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Grid height.
    pub fn height(&self) -> u16 {
        self.height
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snake_adjacency() {
        // Consecutive qubits are Manhattan-adjacent along the snake.
        let p = Placement::snake(4, 4, 16).unwrap();
        for q in 0..15u32 {
            let a = p.home(LogicalQubit(q));
            let b = p.home(LogicalQubit(q + 1));
            assert_eq!(a.manhattan(b), 1, "q{q} at {a} vs q{} at {b}", q + 1);
        }
    }

    #[test]
    fn snake_reverses_odd_rows() {
        let p = Placement::snake(4, 2, 8).unwrap();
        assert_eq!(p.home(LogicalQubit(0)), Coord::new(0, 0));
        assert_eq!(p.home(LogicalQubit(3)), Coord::new(3, 0));
        assert_eq!(p.home(LogicalQubit(4)), Coord::new(3, 1));
        assert_eq!(p.home(LogicalQubit(7)), Coord::new(0, 1));
    }

    #[test]
    fn homes_are_unique() {
        let p = Placement::snake(5, 5, 25).unwrap();
        let mut seen = std::collections::HashSet::new();
        for q in 0..25 {
            assert!(seen.insert(p.home(LogicalQubit(q))));
        }
        assert_eq!(p.len(), 25);
        assert!(!p.is_empty());
        assert_eq!(p.width(), 5);
        assert_eq!(p.height(), 5);
    }

    #[test]
    fn gray_neighbours_are_one_hypercube_hop_apart() {
        let p = Placement::gray(4, 4, 16).unwrap();
        let node = |q: u32| {
            let c = p.home(LogicalQubit(q));
            u32::from(c.y) * 4 + u32::from(c.x)
        };
        let mut seen = std::collections::HashSet::new();
        for q in 0..16u32 {
            assert!(seen.insert(node(q)), "gray homes are unique");
            if q > 0 {
                let diff = node(q) ^ node(q - 1);
                assert_eq!(diff.count_ones(), 1, "q{q}: {:#b}", diff);
            }
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn gray_rejects_non_power_grids() {
        let _ = Placement::gray(3, 4, 4);
    }

    #[test]
    fn capacity_checked() {
        let err = Placement::snake(2, 2, 5).unwrap_err();
        assert_eq!(
            err,
            CapacityError {
                qubits: 5,
                sites: 4
            }
        );
        assert!(err.to_string().contains("4 sites"));
    }

    #[test]
    fn layout_display() {
        assert_eq!(Layout::HomeBase.to_string(), "Home Base");
        assert_eq!(Layout::MobileQubit.to_string(), "Mobile Qubit");
        assert_eq!(Layout::ALL.len(), 2);
    }
}
