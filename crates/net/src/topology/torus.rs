//! A 2D torus: the mesh with wrap-around links in each dimension.

use super::{Coord, Dir, Port, Topology};

/// A `width × height` torus.
///
/// Every dimension of extent ≥ 2 wraps: node `(w−1, y)` has an East
/// link back to `(0, y)`. A dimension of extent 2 therefore carries
/// **two parallel links** between its node pairs (the standard radix-2
/// torus), and each node owns its own East and North links so link
/// indices stay dense. Wrap-around halves the diameter and doubles the
/// bisection width relative to the mesh at the same node count.
///
/// # Examples
///
/// ```
/// use qic_net::topology::{Coord, Port, Topology, Torus};
///
/// let t = Torus::new(8, 8);
/// // Corner to corner is one hop in each dimension via the wraps.
/// let (a, b) = (t.node_index(Coord::new(0, 0)), t.node_index(Coord::new(7, 7)));
/// assert_eq!(t.distance(a, b), 2);
/// // Port 1 is West: node (0,0) wraps to (7,0).
/// assert_eq!(t.neighbor(a, Port(1)), Some(t.node_index(Coord::new(7, 0))));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Torus {
    width: u16,
    height: u16,
}

impl Torus {
    /// A `width × height` torus.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the torus has fewer than
    /// two nodes.
    pub fn new(width: u16, height: u16) -> Self {
        assert!(width > 0 && height > 0, "torus must be non-empty");
        assert!(
            usize::from(width) * usize::from(height) >= 2,
            "a torus needs at least two nodes"
        );
        Torus { width, height }
    }

    fn wired_x(&self) -> bool {
        self.width >= 2
    }

    fn wired_y(&self) -> bool {
        self.height >= 2
    }

    /// Ring distance along one dimension of extent `len`.
    fn ring_dist(a: u16, b: u16, len: u16) -> u32 {
        let d = u32::from(a.abs_diff(b));
        d.min(u32::from(len) - d)
    }

    /// One position around a ring of extent `len` (`delta` ∈ {+1, −1}).
    fn ring_step(at: u16, len: u16, delta: i32) -> u16 {
        (((i64::from(at) + i64::from(delta)) + i64::from(len)) % i64::from(len)) as u16
    }

    /// Steps one hop around the torus (always wired for extent ≥ 2).
    fn step(&self, c: Coord, d: Dir) -> Option<Coord> {
        let (w, h) = (self.width, self.height);
        match d {
            Dir::East if self.wired_x() => Some(Coord::new(Torus::ring_step(c.x, w, 1), c.y)),
            Dir::West if self.wired_x() => Some(Coord::new(Torus::ring_step(c.x, w, -1), c.y)),
            Dir::North if self.wired_y() => Some(Coord::new(c.x, Torus::ring_step(c.y, h, 1))),
            Dir::South if self.wired_y() => Some(Coord::new(c.x, Torus::ring_step(c.y, h, -1))),
            _ => None,
        }
    }
}

impl Topology for Torus {
    fn name(&self) -> &'static str {
        "torus"
    }

    fn width(&self) -> u16 {
        self.width
    }

    fn height(&self) -> u16 {
        self.height
    }

    fn ports_per_node(&self) -> usize {
        4
    }

    fn port_classes(&self) -> usize {
        2
    }

    fn port_class(&self, port: Port) -> usize {
        usize::from(port.0 >= 2)
    }

    fn neighbor(&self, node: usize, port: Port) -> Option<usize> {
        let d = Dir::from_port(port)?;
        self.step(self.coord_of(node), d)
            .map(|c| self.node_index(c))
    }

    fn reverse_port(&self, _node: usize, port: Port) -> Port {
        Port(port.0 ^ 1)
    }

    fn links(&self) -> usize {
        let n = self.nodes();
        let x = if self.wired_x() { n } else { 0 };
        let y = if self.wired_y() { n } else { 0 };
        x + y
    }

    fn link_index(&self, node: usize, port: Port) -> usize {
        // Each node owns its East link (index = node) and its North link
        // (index = x_links + node); West/South cross the neighbour's.
        let x_links = if self.wired_x() { self.nodes() } else { 0 };
        let d = Dir::from_port(port).expect("torus ports are 0..4");
        let owner = match d {
            Dir::East | Dir::North => node,
            Dir::West | Dir::South => self
                .neighbor(node, port)
                .expect("wired dimensions always wrap"),
        };
        match d {
            Dir::East | Dir::West => {
                assert!(self.wired_x(), "no X links on a width-1 torus");
                owner
            }
            Dir::North | Dir::South => {
                assert!(self.wired_y(), "no Y links on a height-1 torus");
                x_links + owner
            }
        }
    }

    fn distance(&self, a: usize, b: usize) -> u32 {
        let (ca, cb) = (self.coord_of(a), self.coord_of(b));
        Torus::ring_dist(ca.x, cb.x, self.width) + Torus::ring_dist(ca.y, cb.y, self.height)
    }

    fn min_ports(&self, node: usize, dst: usize) -> Vec<Port> {
        let at = self.coord_of(node);
        let to = self.coord_of(dst);
        let mut ports = Vec::with_capacity(2);
        if at.x != to.x {
            let w = u32::from(self.width);
            let east = (u32::from(to.x) + w - u32::from(at.x)) % w;
            let west = w - east;
            // Both directions are minimal on an even ring's antipode.
            if east <= west {
                ports.push(Dir::East.port());
            }
            if west <= east {
                ports.push(Dir::West.port());
            }
        }
        if at.y != to.y {
            let h = u32::from(self.height);
            let north = (u32::from(to.y) + h - u32::from(at.y)) % h;
            let south = h - north;
            if north <= south {
                ports.push(Dir::North.port());
            }
            if south <= north {
                ports.push(Dir::South.port());
            }
        }
        ports
    }

    fn min_port(&self, node: usize, dst: usize) -> Option<Port> {
        let at = self.coord_of(node);
        let to = self.coord_of(dst);
        if at.x != to.x {
            let w = u32::from(self.width);
            let east = (u32::from(to.x) + w - u32::from(at.x)) % w;
            // East (port 0) wins antipodal ties, as in `min_ports`.
            return Some(if east <= w - east {
                Dir::East.port()
            } else {
                Dir::West.port()
            });
        }
        if at.y != to.y {
            let h = u32::from(self.height);
            let north = (u32::from(to.y) + h - u32::from(at.y)) % h;
            return Some(if north <= h - north {
                Dir::North.port()
            } else {
                Dir::South.port()
            });
        }
        None
    }

    fn diameter(&self) -> u32 {
        u32::from(self.width / 2) + u32::from(self.height / 2)
    }

    fn bisection_width(&self) -> usize {
        // Cutting a ring severs two links per ring crossed; a balanced
        // cut needs an even extent in the cut dimension. Both odd falls
        // back to the near-balanced 2·min(w, h).
        let w = usize::from(self.width);
        let h = usize::from(self.height);
        let mut candidates = Vec::with_capacity(2);
        if self.wired_x() && w % 2 == 0 {
            candidates.push(2 * h);
        }
        if self.wired_y() && h % 2 == 0 {
            candidates.push(2 * w);
        }
        candidates.into_iter().min().unwrap_or(2 * w.min(h))
    }

    fn dor_is_acyclic(&self) -> bool {
        // Wrap links close ring cycles in the channel-dependency graph;
        // the simulator compensates with bubble flow control.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraparound_neighbors() {
        let t = Torus::new(4, 3);
        let corner = t.node_index(Coord::new(3, 2));
        assert_eq!(
            t.neighbor(corner, Dir::East.port()),
            Some(t.node_index(Coord::new(0, 2)))
        );
        assert_eq!(
            t.neighbor(corner, Dir::North.port()),
            Some(t.node_index(Coord::new(3, 0)))
        );
        // Every port is wired on a ≥2×≥2 torus.
        for node in 0..t.nodes() {
            for p in 0..4u8 {
                assert!(t.neighbor(node, Port(p)).is_some());
            }
        }
    }

    #[test]
    fn link_indices_are_dense_and_symmetric() {
        let t = Torus::new(4, 4);
        assert_eq!(t.links(), 32);
        let mut hits = vec![0u32; t.links()];
        for node in 0..t.nodes() {
            for p in 0..4u8 {
                let port = Port(p);
                let i = t.link_index(node, port);
                hits[i] += 1;
                let n = t.neighbor(node, port).unwrap();
                assert_eq!(i, t.link_index(n, t.reverse_port(node, port)));
            }
        }
        // Each undirected link is crossed by exactly two (node, port)
        // pairs... except radix-2 rings, absent on a 4×4.
        assert!(hits.iter().all(|&c| c == 2), "{hits:?}");
    }

    #[test]
    fn radix_two_rings_carry_parallel_links() {
        let t = Torus::new(2, 3);
        // X links: one East link per node (parallel pairs); Y links: one
        // North link per node.
        assert_eq!(t.links(), 12);
        let a = t.node_index(Coord::new(0, 0));
        let b = t.node_index(Coord::new(1, 0));
        // a's East link and b's East link join the same nodes but are
        // distinct channels.
        assert_ne!(
            t.link_index(a, Dir::East.port()),
            t.link_index(b, Dir::East.port())
        );
        // Going West from a crosses b's East link.
        assert_eq!(
            t.link_index(a, Dir::West.port()),
            t.link_index(b, Dir::East.port())
        );
    }

    #[test]
    fn ring_distance() {
        let t = Torus::new(6, 4);
        let d = |a: (u16, u16), b: (u16, u16)| {
            t.distance(
                t.node_index(Coord::new(a.0, a.1)),
                t.node_index(Coord::new(b.0, b.1)),
            )
        };
        assert_eq!(d((0, 0), (5, 0)), 1, "wrap beats walking the row");
        assert_eq!(d((0, 0), (3, 0)), 3, "antipode either way");
        assert_eq!(d((0, 0), (3, 2)), 5);
        assert_eq!(d((2, 1), (2, 1)), 0);
    }

    #[test]
    fn min_ports_take_the_short_way_and_split_ties() {
        let t = Torus::new(6, 6);
        let at = t.node_index(Coord::new(0, 0));
        // 5 east or 1 west: west only.
        assert_eq!(
            t.min_ports(at, t.node_index(Coord::new(5, 0))),
            vec![Dir::West.port()]
        );
        // Antipode: both x ports minimal.
        assert_eq!(
            t.min_ports(at, t.node_index(Coord::new(3, 0))),
            vec![Dir::East.port(), Dir::West.port()]
        );
        // Mixed: east then both y ports at the y-antipode.
        assert_eq!(
            t.min_ports(at, t.node_index(Coord::new(1, 3))),
            vec![Dir::East.port(), Dir::North.port(), Dir::South.port()]
        );
    }

    #[test]
    fn metadata() {
        let t = Torus::new(8, 8);
        assert_eq!(t.diameter(), 8);
        assert_eq!(t.bisection_width(), 16);
        assert!(!t.dor_is_acyclic());
        assert_eq!(t.name(), "torus");
        assert_eq!(Torus::new(1, 6).links(), 6);
        assert_eq!(Torus::new(1, 6).diameter(), 3);
        // A 1×6 ring's balanced cut severs two links.
        assert_eq!(Torus::new(1, 6).bisection_width(), 2);
        assert_eq!(Torus::new(5, 5).bisection_width(), 10);
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn degenerate_torus_rejected() {
        let _ = Torus::new(1, 1);
    }
}
