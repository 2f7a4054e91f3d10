//! Device coupling maps: which physical qubit pairs support two-qubit
//! gates.

use std::collections::{BTreeSet, VecDeque};

/// An undirected device connectivity graph.
///
/// # Example
///
/// ```
/// use qdt_compile::coupling::CouplingMap;
///
/// let line = CouplingMap::linear(5);
/// assert!(line.connected(1, 2));
/// assert!(!line.connected(0, 4));
/// assert_eq!(line.distance(0, 4), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CouplingMap {
    num_qubits: usize,
    edges: BTreeSet<(usize, usize)>,
    /// `dist[a * num_qubits + b]`: hop distance (`usize::MAX` if none).
    dist: Vec<usize>,
}

impl CouplingMap {
    /// Builds a map from an explicit edge list, with the hop distance of
    /// every qubit pair (one breadth-first search per qubit).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range or self-loop edges.
    pub fn from_edges(num_qubits: usize, edges: &[(usize, usize)]) -> Self {
        let mut set = BTreeSet::new();
        for &(a, b) in edges {
            assert!(a < num_qubits && b < num_qubits, "edge out of range");
            assert_ne!(a, b, "self-loop in coupling map");
            set.insert((a.min(b), a.max(b)));
        }
        let mut map = CouplingMap {
            num_qubits,
            edges: set,
            dist: Vec::new(),
        };
        map.dist = (0..num_qubits)
            .flat_map(|from| map.bfs(from).into_iter().map(|(_, hops)| hops))
            .collect();
        map
    }

    /// A line: 0—1—2—…—(n−1).
    pub fn linear(n: usize) -> Self {
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        Self::from_edges(n, &edges)
    }

    /// A ring: the line plus the closing edge.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    pub fn ring(n: usize) -> Self {
        assert!(n >= 3, "ring needs at least 3 qubits");
        let mut edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        edges.push((n - 1, 0));
        Self::from_edges(n, &edges)
    }

    /// An `rows × cols` grid (qubit `r·cols + c`).
    pub fn grid(rows: usize, cols: usize) -> Self {
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let q = r * cols + c;
                if c + 1 < cols {
                    edges.push((q, q + 1));
                }
                if r + 1 < rows {
                    edges.push((q, q + cols));
                }
            }
        }
        Self::from_edges(rows * cols, &edges)
    }

    /// A heavy-hex-flavoured sparse map (IBM-style): a grid with every
    /// second vertical rung removed, mimicking degree-2/3 devices.
    pub fn heavy_hex(rows: usize, cols: usize) -> Self {
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let q = r * cols + c;
                if c + 1 < cols {
                    edges.push((q, q + 1));
                }
                // Keep only rungs where (r + c) is even.
                if r + 1 < rows && (r + c) % 2 == 0 {
                    edges.push((q, q + cols));
                }
            }
        }
        Self::from_edges(rows * cols, &edges)
    }

    /// All-to-all connectivity.
    pub fn full(n: usize) -> Self {
        let mut edges = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                edges.push((a, b));
            }
        }
        Self::from_edges(n, &edges)
    }

    /// The number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Whether a two-qubit gate on `(a, b)` is directly executable.
    pub fn connected(&self, a: usize, b: usize) -> bool {
        self.edges.contains(&(a.min(b), a.max(b)))
    }

    /// The neighbours of `q`.
    pub fn neighbors(&self, q: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for &(a, b) in &self.edges {
            if a == q {
                out.push(b);
            } else if b == q {
                out.push(a);
            }
        }
        out
    }

    /// BFS hop distance between two qubits (`usize::MAX` if unreachable).
    pub fn distance(&self, from: usize, to: usize) -> usize {
        self.dist[from * self.num_qubits + to]
    }

    /// Breadth-first search from `from`: each qubit's predecessor on a
    /// shortest path and its hop distance (`usize::MAX` if unreachable).
    fn bfs(&self, from: usize) -> Vec<(usize, usize)> {
        let mut tree = vec![(usize::MAX, usize::MAX); self.num_qubits];
        tree[from] = (from, 0);
        let mut queue = VecDeque::from([from]);
        while let Some(q) = queue.pop_front() {
            for n in self.neighbors(q) {
                if tree[n].1 == usize::MAX {
                    tree[n] = (q, tree[q].1 + 1);
                    queue.push_back(n);
                }
            }
        }
        tree
    }

    /// A shortest path between two qubits (inclusive of both endpoints),
    /// or `None` if disconnected.
    pub fn shortest_path(&self, from: usize, to: usize) -> Option<Vec<usize>> {
        let tree = self.bfs(from);
        if tree[to].1 == usize::MAX {
            return None;
        }
        let mut path: Vec<usize> =
            std::iter::successors(Some(to), |&q| (q != from).then(|| tree[q].0)).collect();
        path.reverse();
        Some(path)
    }

    /// Whether every qubit can reach every other.
    pub fn is_connected(&self) -> bool {
        // Row 0 of the distance table: every qubit reachable from qubit 0.
        self.dist
            .iter()
            .take(self.num_qubits)
            .all(|&d| d != usize::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_structure() {
        let m = CouplingMap::linear(4);
        assert_eq!(m.num_edges(), 3);
        assert!(m.connected(2, 3));
        assert!(!m.connected(0, 2));
        assert_eq!(m.distance(0, 3), 3);
        assert_eq!(m.shortest_path(0, 3).unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn ring_closes() {
        let m = CouplingMap::ring(6);
        assert!(m.connected(5, 0));
        assert_eq!(m.distance(0, 3), 3);
        assert_eq!(m.distance(0, 5), 1);
    }

    #[test]
    fn grid_distances() {
        let m = CouplingMap::grid(3, 3);
        assert_eq!(m.num_qubits(), 9);
        assert_eq!(m.distance(0, 8), 4); // Manhattan
        assert!(m.connected(4, 5));
        assert!(!m.connected(0, 4));
    }

    #[test]
    fn heavy_hex_is_sparser_than_grid() {
        let hh = CouplingMap::heavy_hex(4, 4);
        let g = CouplingMap::grid(4, 4);
        assert!(hh.num_edges() < g.num_edges());
        assert!(hh.is_connected());
    }

    #[test]
    fn full_map_distance_one() {
        let m = CouplingMap::full(5);
        for a in 0..5 {
            for b in 0..5 {
                if a != b {
                    assert_eq!(m.distance(a, b), 1);
                }
            }
        }
    }

    #[test]
    fn disconnected_detected() {
        let m = CouplingMap::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!m.is_connected());
        assert_eq!(m.distance(0, 3), usize::MAX);
        assert!(m.shortest_path(0, 3).is_none());
    }

    #[test]
    fn all_presets_connected() {
        assert!(CouplingMap::linear(7).is_connected());
        assert!(CouplingMap::ring(7).is_connected());
        assert!(CouplingMap::grid(3, 5).is_connected());
        assert!(CouplingMap::heavy_hex(3, 5).is_connected());
        assert!(CouplingMap::full(7).is_connected());
    }
}
