//! The Fig. 12 workload kernels: BC, BFS, CC, TC (GraphBIG-style) and
//! XSBench.
//!
//! Every kernel computes its real algorithmic result *and* emits the memory
//! trace of its data-structure accesses. Array element sizes follow the
//! usual layouts (8-byte offsets/labels/scores, 4-byte edge ids).

use std::collections::VecDeque;

use impact_core::rng::SimRng;

use crate::graph::Graph;
use crate::trace::{Trace, TraceBuilder};

const OFF_BYTES: u64 = 8;
const EDGE_BYTES: u64 = 4;
const PROP_BYTES: u64 = 8;

struct GraphRegions {
    offsets: u64,
    edges: u64,
    prop_a: u64,
    prop_b: u64,
}

fn graph_regions(b: &mut TraceBuilder, g: &Graph) -> GraphRegions {
    let n = g.num_vertices() as u64;
    let m = g.num_edge_entries() as u64;
    GraphRegions {
        offsets: b.region((n + 1) * OFF_BYTES),
        edges: b.region(m.max(1) * EDGE_BYTES),
        prop_a: b.region(n.max(1) * PROP_BYTES),
        prop_b: b.region(n.max(1) * PROP_BYTES),
    }
}

/// Breadth-first search from `src`: returns per-vertex levels and the
/// memory trace.
#[must_use]
pub fn bfs(g: &Graph, src: usize) -> (Vec<Option<u32>>, Trace) {
    let n = g.num_vertices();
    let mut levels: Vec<Option<u32>> = vec![None; n];
    let mut b = TraceBuilder::new();
    let r = graph_regions(&mut b, g);
    let mut queue = VecDeque::new();
    if src < n {
        levels[src] = Some(0);
        queue.push_back(src);
    }
    while let Some(u) = queue.pop_front() {
        // Read the CSR offset pair, then stream the adjacency list.
        b.load(r.offsets, u as u64, OFF_BYTES, 2);
        let base = g.edge_offset(u) as u64;
        for (i, &v) in g.neighbors(u).iter().enumerate() {
            b.load(r.edges, base + i as u64, EDGE_BYTES, 1);
            // Check the level of v (random access).
            b.load(r.prop_a, u64::from(v), PROP_BYTES, 2);
            let v = v as usize;
            if levels[v].is_none() {
                levels[v] = Some(levels[u].expect("u visited") + 1);
                b.store(r.prop_a, v as u64, PROP_BYTES, 1);
                queue.push_back(v);
            }
        }
    }
    (levels, b.finish())
}

/// Connected components by label propagation: returns per-vertex component
/// labels (minimum vertex id in the component) and the trace.
#[must_use]
pub fn cc(g: &Graph) -> (Vec<u32>, Trace) {
    let n = g.num_vertices();
    let mut labels: Vec<u32> = (0..n as u32).collect();
    let mut b = TraceBuilder::new();
    let r = graph_regions(&mut b, g);
    let mut changed = true;
    while changed {
        changed = false;
        for u in 0..n {
            b.load(r.offsets, u as u64, OFF_BYTES, 2);
            b.load(r.prop_a, u as u64, PROP_BYTES, 1);
            let base = g.edge_offset(u) as u64;
            for (i, &v) in g.neighbors(u).iter().enumerate() {
                b.load(r.edges, base + i as u64, EDGE_BYTES, 1);
                b.load(r.prop_a, u64::from(v), PROP_BYTES, 1);
                let lv = labels[v as usize];
                if lv < labels[u] {
                    labels[u] = lv;
                    b.store(r.prop_a, u as u64, PROP_BYTES, 1);
                    changed = true;
                }
            }
        }
    }
    (labels, b.finish())
}

/// Triangle counting over sorted adjacency lists: returns the triangle
/// count and the trace.
#[must_use]
pub fn tc(g: &Graph) -> (u64, Trace) {
    let n = g.num_vertices();
    let mut triangles = 0u64;
    let mut b = TraceBuilder::new();
    let r = graph_regions(&mut b, g);
    for u in 0..n {
        b.load(r.offsets, u as u64, OFF_BYTES, 2);
        let nu = g.neighbors(u);
        let ubase = g.edge_offset(u) as u64;
        for (iu, &v) in nu.iter().enumerate() {
            if (v as usize) <= u {
                continue;
            }
            b.load(r.edges, ubase + iu as u64, EDGE_BYTES, 1);
            let nv = g.neighbors(v as usize);
            let vbase = g.edge_offset(v as usize) as u64;
            // Sorted-list intersection, counting w > v.
            let (mut i, mut j) = (0usize, 0usize);
            while i < nu.len() && j < nv.len() {
                b.load(r.edges, ubase + i as u64, EDGE_BYTES, 1);
                b.load(r.edges, vbase + j as u64, EDGE_BYTES, 1);
                let (a, c) = (nu[i], nv[j]);
                if a == c {
                    if a > v {
                        triangles += 1;
                    }
                    i += 1;
                    j += 1;
                } else if a < c {
                    i += 1;
                } else {
                    j += 1;
                }
            }
        }
    }
    (triangles, b.finish())
}

/// Betweenness centrality (Brandes) from the given source vertices:
/// returns per-vertex centrality and the trace.
#[must_use]
pub fn bc(g: &Graph, sources: &[usize]) -> (Vec<f64>, Trace) {
    let n = g.num_vertices();
    let mut centrality = vec![0.0f64; n];
    let mut b = TraceBuilder::new();
    let r = graph_regions(&mut b, g);
    for &s in sources {
        if s >= n {
            continue;
        }
        let mut sigma = vec![0.0f64; n];
        let mut dist = vec![-1i64; n];
        let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut stack = Vec::new();
        sigma[s] = 1.0;
        dist[s] = 0;
        let mut queue = VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            stack.push(u);
            b.load(r.offsets, u as u64, OFF_BYTES, 2);
            let base = g.edge_offset(u) as u64;
            for (i, &v) in g.neighbors(u).iter().enumerate() {
                b.load(r.edges, base + i as u64, EDGE_BYTES, 1);
                b.load(r.prop_a, u64::from(v), PROP_BYTES, 1);
                let v = v as usize;
                if dist[v] < 0 {
                    dist[v] = dist[u] + 1;
                    b.store(r.prop_a, v as u64, PROP_BYTES, 1);
                    queue.push_back(v);
                }
                if dist[v] == dist[u] + 1 {
                    sigma[v] += sigma[u];
                    b.store(r.prop_b, v as u64, PROP_BYTES, 1);
                    preds[v].push(u as u32);
                }
            }
        }
        // Dependency accumulation in reverse BFS order.
        let mut delta = vec![0.0f64; n];
        while let Some(w) = stack.pop() {
            b.load(r.prop_b, w as u64, PROP_BYTES, 2);
            for &u in &preds[w] {
                let u = u as usize;
                b.load(r.prop_b, u as u64, PROP_BYTES, 1);
                delta[u] += sigma[u] / sigma[w] * (1.0 + delta[w]);
                b.store(r.prop_b, u as u64, PROP_BYTES, 1);
            }
            if w != s {
                centrality[w] += delta[w];
            }
        }
    }
    (centrality, b.finish())
}

/// XSBench-style macroscopic cross-section lookups: binary search on a
/// unionized energy grid followed by random nuclide-table reads. Returns a
/// checksum (so the work cannot be optimized away) and the trace.
#[must_use]
pub fn xsbench(lookups: usize, grid_points: usize, nuclides: usize, seed: u64) -> (u64, Trace) {
    let grid_points = grid_points.max(2);
    let nuclides = nuclides.max(1);
    let mut rng = SimRng::seed(seed);
    let mut b = TraceBuilder::new();
    let energy_grid = b.region(grid_points as u64 * PROP_BYTES);
    let xs_table = b.region((grid_points * nuclides) as u64 * PROP_BYTES);
    let mut checksum = 0u64;
    for _ in 0..lookups {
        let target = rng.below(grid_points as u64);
        // Binary search over the energy grid.
        let (mut lo, mut hi) = (0u64, grid_points as u64 - 1);
        while lo < hi {
            let mid = (lo + hi) / 2;
            b.load(energy_grid, mid, PROP_BYTES, 3);
            if mid < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        checksum = checksum.wrapping_add(lo);
        // Gather the cross sections of a handful of random nuclides at the
        // found grid point — scattered, low-locality reads.
        for _ in 0..5 {
            let nuc = rng.below(nuclides as u64);
            let idx = lo * nuclides as u64 + nuc;
            b.load(xs_table, idx, PROP_BYTES, 4);
            checksum = checksum.wrapping_add(idx);
        }
    }
    (checksum, b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn bfs_levels_on_path() {
        let g = path_graph(5);
        let (levels, trace) = bfs(&g, 0);
        assert_eq!(levels, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
        assert!(!trace.is_empty());
    }

    #[test]
    fn bfs_unreachable_is_none() {
        let g = Graph::from_edges(4, &[(0, 1)]);
        let (levels, _) = bfs(&g, 0);
        assert_eq!(levels[2], None);
        assert_eq!(levels[3], None);
    }

    #[test]
    fn cc_finds_components() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let (labels, _) = cc(&g);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_ne!(labels[5], labels[0]);
        assert_ne!(labels[5], labels[3]);
    }

    #[test]
    fn tc_counts_triangles() {
        // A 4-clique has 4 triangles.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let (t, _) = tc(&g);
        assert_eq!(t, 4);
        // A path has none.
        let (t2, _) = tc(&path_graph(5));
        assert_eq!(t2, 0);
    }

    #[test]
    fn bc_path_center_is_highest() {
        let g = path_graph(5);
        let sources: Vec<usize> = (0..5).collect();
        let (c, _) = bc(&g, &sources);
        // The middle vertex lies on the most shortest paths.
        let max_idx = (0..5).max_by(|&a, &b| c[a].total_cmp(&c[b])).unwrap();
        assert_eq!(max_idx, 2, "centrality = {c:?}");
    }

    #[test]
    fn xsbench_deterministic_checksum() {
        let (c1, t1) = xsbench(100, 1000, 16, 5);
        let (c2, t2) = xsbench(100, 1000, 16, 5);
        assert_eq!(c1, c2);
        assert_eq!(t1.len(), t2.len());
        // ~log2(1000) ≈ 10 grid loads + 5 table loads per lookup.
        let per_lookup = t1.len() / 100;
        assert!((10..=20).contains(&per_lookup), "per lookup = {per_lookup}");
    }

    #[test]
    fn traces_have_disjoint_structure_regions() {
        let g = Graph::uniform_random(128, 512, 2);
        let (_, trace) = bfs(&g, 0);
        assert!(trace.footprint() > 0);
        assert!(trace
            .ops()
            .iter()
            .all(|o| u64::from(o.offset) < trace.footprint()));
    }

    #[test]
    fn kernels_on_rmat_run() {
        let g = Graph::rmat(128, 512, 4);
        let (levels, t1) = bfs(&g, 0);
        let (labels, t2) = cc(&g);
        let (tri, t3) = tc(&g);
        let (cent, t4) = bc(&g, &[0, 1]);
        assert_eq!(levels.len(), 128);
        assert_eq!(labels.len(), 128);
        assert_eq!(cent.len(), 128);
        let _ = tri;
        for t in [t1, t2, t3, t4] {
            assert!(!t.is_empty());
        }
    }
}

#[cfg(test)]
mod reference_tests {
    //! Kernels checked against independent reference implementations on
    //! randomized inputs.

    use super::*;

    /// Union-find reference for connected components.
    fn uf_components(g: &Graph) -> Vec<u32> {
        let n = g.num_vertices();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        for u in 0..n {
            for &v in g.neighbors(u) {
                let (ru, rv) = (find(&mut parent, u), find(&mut parent, v as usize));
                if ru != rv {
                    parent[ru.max(rv)] = ru.min(rv);
                }
            }
        }
        (0..n).map(|v| find(&mut parent, v) as u32).collect()
    }

    /// Brute-force O(n^3) triangle count.
    fn brute_triangles(g: &Graph) -> u64 {
        let n = g.num_vertices();
        let mut count = 0u64;
        for a in 0..n {
            for &b in g.neighbors(a) {
                let b = b as usize;
                if b <= a {
                    continue;
                }
                for &c in g.neighbors(b) {
                    let c = c as usize;
                    if c <= b {
                        continue;
                    }
                    if g.neighbors(a).binary_search(&(c as u32)).is_ok() {
                        count += 1;
                    }
                }
            }
        }
        count
    }

    /// Reference BFS distances via a plain queue (independent coding).
    fn ref_bfs(g: &Graph, src: usize) -> Vec<Option<u32>> {
        let n = g.num_vertices();
        let mut dist = vec![None; n];
        let mut frontier = vec![src];
        dist[src] = Some(0);
        let mut level = 0;
        while !frontier.is_empty() {
            level += 1;
            let mut next = Vec::new();
            for &u in &frontier {
                for &v in g.neighbors(u) {
                    let v = v as usize;
                    if dist[v].is_none() {
                        dist[v] = Some(level);
                        next.push(v);
                    }
                }
            }
            frontier = next;
        }
        dist
    }

    #[test]
    fn cc_matches_union_find_on_random_graphs() {
        for seed in 0..8 {
            let g = Graph::uniform_random(80, 90, seed);
            let (labels, _) = cc(&g);
            let reference = uf_components(&g);
            // Same partition: labels agree iff reference roots agree.
            for u in 0..80 {
                for v in (u + 1)..80 {
                    assert_eq!(
                        labels[u] == labels[v],
                        reference[u] == reference[v],
                        "seed {seed}: partition mismatch at ({u},{v})"
                    );
                }
            }
        }
    }

    #[test]
    fn tc_matches_brute_force_on_random_graphs() {
        for seed in 0..8 {
            let g = Graph::uniform_random(40, 120, seed);
            let (fast, _) = tc(&g);
            assert_eq!(fast, brute_triangles(&g), "seed {seed}");
        }
    }

    #[test]
    fn bfs_matches_reference_on_random_graphs() {
        for seed in 0..8 {
            let g = Graph::uniform_random(60, 100, seed);
            let (levels, _) = bfs(&g, 0);
            assert_eq!(levels, ref_bfs(&g, 0), "seed {seed}");
        }
    }

    #[test]
    fn bc_nonnegative_and_zero_on_leaves_of_star() {
        // In a star graph all shortest paths pass through the center.
        let edges: Vec<(u32, u32)> = (1..10).map(|i| (0, i)).collect();
        let g = Graph::from_edges(10, &edges);
        let sources: Vec<usize> = (0..10).collect();
        let (c, _) = bc(&g, &sources);
        assert!(c[0] > 0.0, "center centrality {}", c[0]);
        for (leaf, &score) in c.iter().enumerate().skip(1) {
            assert_eq!(score, 0.0, "leaf {leaf} has centrality");
        }
    }
}
