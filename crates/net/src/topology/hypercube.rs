//! A binary hypercube: log-diameter fabric for teleporter routers.

use super::{Port, Topology};

/// A `dim`-dimensional binary hypercube (`2^dim` nodes).
///
/// Node `n`'s neighbour through port `i` is `n ^ (1 << i)`: ports are
/// address bits, distance is Hamming distance, and ascending-port
/// routing is the classic e-cube (dimension-order) walk. For site
/// addressing the cube is unfolded onto a `2^⌈dim/2⌉ × 2^⌊dim/2⌋` grid
/// in node-index order.
///
/// # Examples
///
/// ```
/// use qic_net::topology::{Hypercube, Port, Topology};
///
/// let cube = Hypercube::new(6);
/// assert_eq!((cube.nodes(), cube.width(), cube.height()), (64, 8, 8));
/// // Port i flips address bit i, so distance is the Hamming distance.
/// assert_eq!(cube.neighbor(0b000000, Port(4)), Some(0b010000));
/// assert_eq!(cube.distance(0b000000, 0b010110), 3);
/// // Each of the 6 dimensions is its own port class (teleporter set).
/// assert_eq!(cube.port_classes(), 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hypercube {
    dim: u32,
}

impl Hypercube {
    /// A hypercube of `dim` dimensions.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ dim ≤ 16` (the grid addressing is `u16`).
    pub fn new(dim: u32) -> Self {
        assert!(
            (1..=16).contains(&dim),
            "hypercube dimension must be 1..=16"
        );
        Hypercube { dim }
    }

    /// The cube's dimension (`log2` of the node count).
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// `node` with bit `port` squeezed out: a dense index among the
    /// `2^(dim−1)` links of one dimension.
    fn squeeze(node: usize, bit: u8) -> usize {
        let low = node & ((1 << bit) - 1);
        let high = (node >> (bit + 1)) << bit;
        high | low
    }
}

impl Topology for Hypercube {
    fn name(&self) -> &'static str {
        "hypercube"
    }

    fn width(&self) -> u16 {
        1u16 << self.dim.div_ceil(2)
    }

    fn height(&self) -> u16 {
        1u16 << (self.dim / 2)
    }

    fn ports_per_node(&self) -> usize {
        self.dim as usize
    }

    fn port_classes(&self) -> usize {
        self.dim as usize
    }

    fn port_class(&self, port: Port) -> usize {
        port.index()
    }

    fn neighbor(&self, node: usize, port: Port) -> Option<usize> {
        (u32::from(port.0) < self.dim).then(|| node ^ (1usize << port.0))
    }

    fn reverse_port(&self, _node: usize, port: Port) -> Port {
        // Flipping the same bit leads back.
        port
    }

    fn links(&self) -> usize {
        self.dim as usize * (self.nodes() / 2)
    }

    fn link_index(&self, node: usize, port: Port) -> usize {
        assert!(u32::from(port.0) < self.dim, "hypercube port out of range");
        usize::from(port.0) * (self.nodes() / 2) + Hypercube::squeeze(node, port.0)
    }

    fn distance(&self, a: usize, b: usize) -> u32 {
        (a ^ b).count_ones()
    }

    fn min_ports(&self, node: usize, dst: usize) -> Vec<Port> {
        let mut diff = node ^ dst;
        let mut ports = Vec::with_capacity(diff.count_ones() as usize);
        while diff != 0 {
            let bit = diff.trailing_zeros();
            ports.push(Port(bit as u8));
            diff &= diff - 1;
        }
        ports
    }

    fn min_port(&self, node: usize, dst: usize) -> Option<Port> {
        let diff = node ^ dst;
        (diff != 0).then(|| Port(diff.trailing_zeros() as u8))
    }

    fn diameter(&self) -> u32 {
        self.dim
    }

    fn bisection_width(&self) -> usize {
        self.nodes() / 2
    }

    fn dor_is_acyclic(&self) -> bool {
        // E-cube routing fixes bits in ascending order: acyclic.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::super::Coord;
    use super::*;

    #[test]
    fn grid_unfolding_covers_the_cube() {
        for dim in 1..=7u32 {
            let c = Hypercube::new(dim);
            assert_eq!(c.nodes(), 1 << dim);
            assert_eq!(
                usize::from(c.width()) * usize::from(c.height()),
                c.nodes(),
                "dim {dim}"
            );
            for node in 0..c.nodes() {
                assert_eq!(c.node_index(c.coord_of(node)), node);
            }
        }
        let c = Hypercube::new(4);
        assert_eq!((c.width(), c.height()), (4, 4));
        assert_eq!(c.node_index(Coord::new(3, 2)), 11);
    }

    #[test]
    fn neighbors_flip_one_bit() {
        let c = Hypercube::new(5);
        for node in 0..c.nodes() {
            for p in 0..5u8 {
                let n = c.neighbor(node, Port(p)).unwrap();
                assert_eq!(c.distance(node, n), 1);
                assert_eq!(n ^ node, 1 << p);
                assert_eq!(c.neighbor(n, c.reverse_port(node, Port(p))), Some(node));
            }
            assert_eq!(c.neighbor(node, Port(5)), None);
        }
    }

    #[test]
    fn link_indices_are_dense_and_symmetric() {
        let c = Hypercube::new(4);
        assert_eq!(c.links(), 32);
        let mut hits = vec![0u32; c.links()];
        for node in 0..c.nodes() {
            for p in 0..4u8 {
                let i = c.link_index(node, Port(p));
                hits[i] += 1;
                let n = c.neighbor(node, Port(p)).unwrap();
                assert_eq!(i, c.link_index(n, c.reverse_port(node, Port(p))));
            }
        }
        assert!(hits.iter().all(|&h| h == 2), "{hits:?}");
    }

    #[test]
    fn min_ports_are_ascending_set_bits() {
        let c = Hypercube::new(6);
        let ports = c.min_ports(0b000000, 0b101001);
        assert_eq!(ports, vec![Port(0), Port(3), Port(5)]);
        assert!(c.min_ports(7, 7).is_empty());
        assert_eq!(c.distance(0b000000, 0b101001), 3);
    }

    #[test]
    fn metadata() {
        let c = Hypercube::new(6);
        assert_eq!(c.diameter(), 6);
        assert_eq!(c.bisection_width(), 32);
        assert_eq!(c.dim(), 6);
        assert!(c.dor_is_acyclic());
        assert_eq!(c.name(), "hypercube");
    }

    #[test]
    #[should_panic(expected = "dimension must be 1..=16")]
    fn oversized_cube_rejected() {
        let _ = Hypercube::new(17);
    }
}
