//! Compressed-sparse-row graphs and generators.

use impact_core::rng::SimRng;

/// An undirected graph in CSR form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<usize>,
    edges: Vec<u32>,
}

impl Graph {
    /// Builds a graph from an edge list over `n` vertices. Each undirected
    /// edge is stored in both directions; self-loops and duplicates are
    /// removed.
    #[must_use]
    pub fn from_edges(n: usize, edge_list: &[(u32, u32)]) -> Graph {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(u, v) in edge_list {
            let (u, v) = (u as usize, v as usize);
            if u == v || u >= n || v >= n {
                continue;
            }
            adj[u].push(v as u32);
            adj[v].push(u as u32);
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut edges = Vec::new();
        offsets.push(0);
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
            edges.extend_from_slice(list);
            offsets.push(edges.len());
        }
        Graph { offsets, edges }
    }

    /// Uniform random graph with `n` vertices and about `m` undirected
    /// edges (Erdős–Rényi style).
    #[must_use]
    pub fn uniform_random(n: usize, m: usize, seed: u64) -> Graph {
        let mut rng = SimRng::seed(seed);
        let list: Vec<(u32, u32)> = (0..m)
            .map(|_| (rng.below(n as u64) as u32, rng.below(n as u64) as u32))
            .collect();
        Graph::from_edges(n, &list)
    }

    /// RMAT-style skewed random graph (power-law-ish degree distribution),
    /// the GraphBIG-style input shape.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    #[must_use]
    pub fn rmat(n: usize, m: usize, seed: u64) -> Graph {
        assert!(
            n.is_power_of_two(),
            "RMAT needs a power-of-two vertex count"
        );
        let bits = n.trailing_zeros();
        let mut rng = SimRng::seed(seed);
        // Standard RMAT quadrant probabilities (a, b, c, d).
        let (a, b, c) = (0.57, 0.19, 0.19);
        let mut list = Vec::with_capacity(m);
        for _ in 0..m {
            let (mut u, mut v) = (0u32, 0u32);
            for _ in 0..bits {
                let r = rng.unit();
                let (ub, vb) = if r < a {
                    (0, 0)
                } else if r < a + b {
                    (0, 1)
                } else if r < a + b + c {
                    (1, 0)
                } else {
                    (1, 1)
                };
                u = (u << 1) | ub;
                v = (v << 1) | vb;
            }
            list.push((u, v));
        }
        Graph::from_edges(n, &list)
    }

    /// Number of vertices.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edge entries (2× undirected edges).
    #[must_use]
    pub fn num_edge_entries(&self) -> usize {
        self.edges.len()
    }

    /// Neighbors of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.edges[self.offsets[v]..self.offsets[v + 1]]
    }

    /// CSR offset of `v`'s adjacency list (for trace address synthesis).
    #[must_use]
    pub fn edge_offset(&self, v: usize) -> usize {
        self.offsets[v]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_symmetrizes_and_dedups() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 0), (0, 1), (2, 2), (1, 3)]);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 3]);
        assert_eq!(g.neighbors(2), &[] as &[u32]);
        assert_eq!(g.neighbors(3), &[1]);
    }

    #[test]
    fn uniform_graph_shape() {
        let g = Graph::uniform_random(100, 400, 7);
        assert_eq!(g.num_vertices(), 100);
        assert!(
            g.num_edge_entries() > 600,
            "entries = {}",
            g.num_edge_entries()
        );
        // Symmetry: u in N(v) <=> v in N(u).
        for v in 0..100 {
            for &u in g.neighbors(v) {
                assert!(g.neighbors(u as usize).contains(&(v as u32)));
            }
        }
    }

    #[test]
    fn rmat_is_skewed() {
        let g = Graph::rmat(256, 2048, 3);
        let max_deg = (0..256).map(|v| g.neighbors(v).len()).max().unwrap();
        let avg = g.num_edge_entries() / 256;
        assert!(
            max_deg > avg * 3,
            "max degree {max_deg} not skewed vs avg {avg}"
        );
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rmat_rejects_non_pow2() {
        let _ = Graph::rmat(100, 10, 1);
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(
            Graph::uniform_random(50, 100, 9),
            Graph::uniform_random(50, 100, 9)
        );
        assert_eq!(Graph::rmat(64, 128, 9), Graph::rmat(64, 128, 9));
    }
}
