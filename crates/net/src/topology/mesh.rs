//! The paper's fabric: a rectangular mesh with dimension-order routes.

use super::{Coord, Dir, Port, Topology};

/// An undirected mesh edge, identified by its lower-left endpoint and
/// orientation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId {
    /// The endpoint with the smaller coordinate.
    pub base: Coord,
    /// `true` for a horizontal (x-direction) edge.
    pub horizontal: bool,
}

/// A rectangular mesh of T' nodes — the fabric every figure of the
/// paper is computed on.
///
/// # Examples
///
/// ```
/// use qic_net::topology::{Coord, Mesh, Port, Topology};
///
/// let mesh = Mesh::new(4, 4);
/// assert_eq!(mesh.ports_per_node(), 4);
/// // Port 0 is East; the border ports are unwired.
/// assert_eq!(mesh.neighbor(0, Port(0)), Some(1));
/// assert_eq!(mesh.neighbor(0, Port(1)), None);
/// // Distance is Manhattan distance.
/// let (a, b) = (mesh.node_index(Coord::new(0, 0)), mesh.node_index(Coord::new(3, 2)));
/// assert_eq!(Topology::distance(&mesh, a, b), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh {
    width: u16,
    height: u16,
}

impl Mesh {
    /// A `width × height` mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u16, height: u16) -> Self {
        assert!(width > 0 && height > 0, "mesh must be non-empty");
        Mesh { width, height }
    }

    /// Mesh width.
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Mesh height.
    pub fn height(&self) -> u16 {
        self.height
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        usize::from(self.width) * usize::from(self.height)
    }

    /// Number of undirected edges.
    pub fn edges(&self) -> usize {
        let w = usize::from(self.width);
        let h = usize::from(self.height);
        (w - 1) * h + w * (h - 1)
    }

    /// Whether a coordinate lies on the mesh.
    pub fn contains(&self, c: Coord) -> bool {
        c.x < self.width && c.y < self.height
    }

    /// Dense index of a node.
    pub fn node_index(&self, c: Coord) -> usize {
        usize::from(c.y) * usize::from(self.width) + usize::from(c.x)
    }

    /// The neighbour of `c` in direction `d`, if on the mesh.
    pub fn step(&self, c: Coord, d: Dir) -> Option<Coord> {
        let next = match d {
            Dir::East => Coord {
                x: c.x.checked_add(1)?,
                y: c.y,
            },
            Dir::West => Coord {
                x: c.x.checked_sub(1)?,
                y: c.y,
            },
            Dir::North => Coord {
                x: c.x,
                y: c.y.checked_add(1)?,
            },
            Dir::South => Coord {
                x: c.x,
                y: c.y.checked_sub(1)?,
            },
        };
        self.contains(next).then_some(next)
    }

    /// The edge crossed when stepping from `c` in direction `d`.
    ///
    /// # Panics
    ///
    /// Panics if the step leaves the mesh.
    pub fn edge(&self, c: Coord, d: Dir) -> EdgeId {
        let next = self.step(c, d).expect("edge step must stay on the mesh");
        let base = if (next.x, next.y) < (c.x, c.y) {
            next
        } else {
            c
        };
        EdgeId {
            base,
            horizontal: d.is_x(),
        }
    }

    /// Dense index of an edge (horizontal edges first, row-major).
    pub fn edge_index(&self, e: EdgeId) -> usize {
        let w = usize::from(self.width);
        let h = usize::from(self.height);
        if e.horizontal {
            usize::from(e.base.y) * (w - 1) + usize::from(e.base.x)
        } else {
            (w - 1) * h + usize::from(e.base.y) * w + usize::from(e.base.x)
        }
    }

    /// The dimension-order (X then Y) route from `from` to `to`: the
    /// sequence of directions to follow. Empty when `from == to`.
    pub fn route(&self, from: Coord, to: Coord) -> Vec<Dir> {
        assert!(
            self.contains(from) && self.contains(to),
            "route endpoints must be on the mesh"
        );
        let mut dirs = Vec::with_capacity(from.manhattan(to) as usize);
        let dx = i32::from(to.x) - i32::from(from.x);
        let dy = i32::from(to.y) - i32::from(from.y);
        for _ in 0..dx.abs() {
            dirs.push(if dx > 0 { Dir::East } else { Dir::West });
        }
        for _ in 0..dy.abs() {
            dirs.push(if dy > 0 { Dir::North } else { Dir::South });
        }
        dirs
    }

    /// The node sequence of a route, including both endpoints.
    pub fn route_nodes(&self, from: Coord, to: Coord) -> Vec<Coord> {
        let mut nodes = vec![from];
        let mut at = from;
        for d in self.route(from, to) {
            at = self.step(at, d).expect("route stays on mesh");
            nodes.push(at);
        }
        nodes
    }

    /// Iterates over all node coordinates in row-major order.
    pub fn iter_nodes(&self) -> impl Iterator<Item = Coord> + '_ {
        let w = self.width;
        (0..self.height).flat_map(move |y| (0..w).map(move |x| Coord { x, y }))
    }
}

impl Topology for Mesh {
    fn name(&self) -> &'static str {
        "mesh"
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
        let c = self.coord_of(node);
        let d = Dir::from_port(port)?;
        self.step(c, d).map(|n| Mesh::node_index(self, n))
    }

    fn reverse_port(&self, _node: usize, port: Port) -> Port {
        // E↔W and N↔S swap: ports are paired by the low bit.
        Port(port.0 ^ 1)
    }

    fn links(&self) -> usize {
        self.edges()
    }

    fn link_index(&self, node: usize, port: Port) -> usize {
        let c = self.coord_of(node);
        let d = Dir::from_port(port).expect("mesh ports are 0..4");
        self.edge_index(self.edge(c, d))
    }

    fn distance(&self, a: usize, b: usize) -> u32 {
        self.coord_of(a).manhattan(self.coord_of(b))
    }

    fn min_ports(&self, node: usize, dst: usize) -> Vec<Port> {
        let at = self.coord_of(node);
        let to = self.coord_of(dst);
        let mut ports = Vec::with_capacity(2);
        if to.x > at.x {
            ports.push(Dir::East.port());
        } else if to.x < at.x {
            ports.push(Dir::West.port());
        }
        if to.y > at.y {
            ports.push(Dir::North.port());
        } else if to.y < at.y {
            ports.push(Dir::South.port());
        }
        ports
    }

    fn min_port(&self, node: usize, dst: usize) -> Option<Port> {
        // X first (East/West are the low ports), then Y — the same
        // ascending order `min_ports` lists.
        let at = self.coord_of(node);
        let to = self.coord_of(dst);
        if to.x > at.x {
            Some(Dir::East.port())
        } else if to.x < at.x {
            Some(Dir::West.port())
        } else if to.y > at.y {
            Some(Dir::North.port())
        } else if to.y < at.y {
            Some(Dir::South.port())
        } else {
            None
        }
    }

    fn diameter(&self) -> u32 {
        u32::from(self.width - 1) + u32::from(self.height - 1)
    }

    fn bisection_width(&self) -> usize {
        // A balanced cut must split an even dimension; it severs one
        // link per row (or column) of the other dimension. With both
        // dimensions odd no perfectly balanced cut exists; the
        // near-balanced min(w, h) is reported.
        let w = usize::from(self.width);
        let h = usize::from(self.height);
        match (w % 2 == 0, h % 2 == 0) {
            (true, true) => w.min(h),
            (true, false) => h,
            (false, true) => w,
            (false, false) => w.min(h),
        }
    }

    fn dor_is_acyclic(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts() {
        let m = Mesh::new(4, 3);
        assert_eq!(m.nodes(), 12);
        assert_eq!(m.edges(), 3 * 3 + 4 * 2);
        assert_eq!(m.iter_nodes().count(), 12);
        assert_eq!(m.links(), m.edges());
    }

    #[test]
    fn node_indices_are_dense_and_unique() {
        let m = Mesh::new(5, 7);
        let mut seen = vec![false; m.nodes()];
        for c in m.iter_nodes() {
            let i = m.node_index(c);
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn edge_indices_are_dense_and_unique() {
        let m = Mesh::new(4, 4);
        let mut seen = vec![false; m.edges()];
        for c in m.iter_nodes() {
            for d in [Dir::East, Dir::North] {
                if m.step(c, d).is_some() {
                    let i = m.edge_index(m.edge(c, d));
                    assert!(!seen[i], "duplicate edge index {i}");
                    seen[i] = true;
                }
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn edges_are_direction_symmetric() {
        let m = Mesh::new(4, 4);
        let c = Coord::new(1, 1);
        let e_east = m.edge(c, Dir::East);
        let e_back = m.edge(Coord::new(2, 1), Dir::West);
        assert_eq!(e_east, e_back);
        let e_north = m.edge(c, Dir::North);
        let e_south = m.edge(Coord::new(1, 2), Dir::South);
        assert_eq!(e_north, e_south);
    }

    #[test]
    fn steps_respect_borders() {
        let m = Mesh::new(3, 3);
        assert_eq!(m.step(Coord::new(0, 0), Dir::West), None);
        assert_eq!(m.step(Coord::new(0, 0), Dir::South), None);
        assert_eq!(m.step(Coord::new(2, 2), Dir::East), None);
        assert_eq!(m.step(Coord::new(1, 1), Dir::East), Some(Coord::new(2, 1)));
    }

    #[test]
    fn dimension_order_routes_x_first() {
        let m = Mesh::new(8, 8);
        let r = m.route(Coord::new(1, 1), Coord::new(4, 6));
        assert_eq!(r.len(), 8);
        assert!(r[..3].iter().all(|d| *d == Dir::East));
        assert!(r[3..].iter().all(|d| *d == Dir::North));
        // At most one turn.
        let turns = r.windows(2).filter(|w| w[0].is_x() != w[1].is_x()).count();
        assert!(turns <= 1);
    }

    #[test]
    fn route_nodes_connect() {
        let m = Mesh::new(8, 8);
        let nodes = m.route_nodes(Coord::new(7, 0), Coord::new(0, 3));
        assert_eq!(nodes.len(), 11);
        assert_eq!(nodes[0], Coord::new(7, 0));
        assert_eq!(*nodes.last().unwrap(), Coord::new(0, 3));
        for w in nodes.windows(2) {
            assert_eq!(w[0].manhattan(w[1]), 1);
        }
    }

    #[test]
    fn trait_neighbors_match_steps() {
        let m = Mesh::new(4, 3);
        for node in 0..m.nodes() {
            let c = m.coord_of(node);
            for port in 0..4u8 {
                let d = Dir::from_port(Port(port)).unwrap();
                let via_step = m.step(c, d).map(|n| m.node_index(n));
                assert_eq!(m.neighbor(node, Port(port)), via_step);
                if let Some(n) = via_step {
                    let back = m.reverse_port(node, Port(port));
                    assert_eq!(m.neighbor(n, back), Some(node));
                    assert_eq!(m.link_index(node, Port(port)), m.link_index(n, back));
                }
            }
        }
    }

    #[test]
    fn min_ports_realise_manhattan_distance() {
        let m = Mesh::new(6, 5);
        let (a, b) = (
            m.node_index(Coord::new(5, 0)),
            m.node_index(Coord::new(1, 4)),
        );
        assert_eq!(Topology::distance(&m, a, b), 8);
        // West (port 1) sorts before North (port 2).
        assert_eq!(m.min_ports(a, b), vec![Port(1), Port(2)]);
        assert!(m.min_ports(a, a).is_empty());
    }

    #[test]
    fn metadata() {
        let m = Mesh::new(8, 8);
        assert_eq!(m.diameter(), 14);
        assert_eq!(m.bisection_width(), 8);
        assert!(m.dor_is_acyclic());
        assert_eq!(m.name(), "mesh");
        assert_eq!(Mesh::new(5, 4).bisection_width(), 5);
        assert_eq!(Mesh::new(4, 5).bisection_width(), 5);
        assert_eq!(Mesh::new(5, 5).bisection_width(), 5);
        assert_eq!(m.port_classes(), 2);
        assert_eq!(m.port_class(Dir::West.port()), 0);
        assert_eq!(m.port_class(Dir::South.port()), 1);
    }
}
