//! Scientific graph workloads (paper Table 3, Scientific; original uses
//! igraph).
//!
//! The paper picks three data-intensive kernels with deliberately different
//! access characteristics (§4.2): direction-optimizing **BFS** (irregular,
//! data-driven pressure varying per iteration), power-iteration **PageRank**
//! (every edge touched every iteration, streaming-predictable) and
//! **MST** (dynamic data structures updated in unpredictable patterns).
//! This module provides the shared substrate — a CSR graph and Graph500-
//! style generators — and one submodule per kernel.

pub mod bfs;
pub mod mst;
pub mod pagerank;

use sebs_sim::rng::{Rng, StreamRng};

pub use bfs::GraphBfs;
pub use mst::GraphMst;
pub use pagerank::GraphPagerank;

/// A directed graph in Compressed Sparse Row form (undirected graphs store
/// both arc directions).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` indexes `targets` with v's out-neighbors.
    offsets: Vec<u64>,
    targets: Vec<u32>,
    /// Optional per-edge weights, parallel to `targets`.
    weights: Option<Vec<u32>>,
}

/// An edge record the CSR builders read: a `(src, dst)` pair, or a
/// `(src, dst, weight)` triple whose weight an unweighted graph ignores.
pub trait Edge: Copy {
    /// The edge's `(src, dst)` endpoints.
    fn ends(self) -> (u32, u32);
    /// The edge's weight (1 for a pair).
    fn weight(self) -> u32;
}

impl Edge for (u32, u32) {
    fn ends(self) -> (u32, u32) {
        self
    }

    fn weight(self) -> u32 {
        1
    }
}

impl Edge for (u32, u32, u32) {
    fn ends(self) -> (u32, u32) {
        (self.0, self.1)
    }

    fn weight(self) -> u32 {
        self.2
    }
}

impl CsrGraph {
    /// Builds an unweighted CSR graph from an edge list over `n` vertices:
    /// `(src, dst)` pairs, or weighted triples whose weights it drops.
    ///
    /// Self-loops are kept; parallel edges are kept (multigraph semantics,
    /// like Graph500). If `undirected`, each edge is inserted both ways.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges<E: Edge>(n: u32, edges: &[E], undirected: bool) -> CsrGraph {
        Self::build(n, edges, undirected, false)
    }

    /// Builds a weighted CSR graph from `(src, dst, weight)` triples.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn from_weighted_edges(n: u32, edges: &[(u32, u32, u32)], undirected: bool) -> CsrGraph {
        Self::build(n, edges, undirected, true)
    }

    /// Lays `edges` out in CSR form, keeping each arc's weight when
    /// `weighted`.
    fn build<E: Edge>(n: u32, edges: &[E], undirected: bool, weighted: bool) -> CsrGraph {
        let mut offsets = vec![0u64; n as usize + 1];
        for &e in edges {
            let (a, b) = e.ends();
            assert!(a < n && b < n, "edge endpoint out of range");
            offsets[a as usize + 1] += 1;
            if undirected {
                offsets[b as usize + 1] += 1;
            }
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let m = offsets[n as usize] as usize;
        let mut targets = vec![0u32; m];
        let mut weights = vec![0u32; if weighted { m } else { 0 }];
        let mut cursor = offsets.clone();
        let mut place = |from: u32, to: u32, w: u32| {
            let slot = cursor[from as usize] as usize;
            targets[slot] = to;
            if weighted {
                weights[slot] = w;
            }
            cursor[from as usize] += 1;
        };
        for &e in edges {
            let (a, b) = e.ends();
            place(a, b, e.weight());
            if undirected {
                place(b, a, e.weight());
            }
        }
        CsrGraph {
            offsets,
            targets,
            weights: weighted.then_some(weights),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of stored arcs (undirected edges count twice).
    pub fn num_arcs(&self) -> u64 {
        self.targets.len() as u64
    }

    /// Out-degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: u32) -> u64 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Out-neighbors of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Out-neighbors of `v` with weights; `None` if the graph is unweighted.
    pub fn weighted_neighbors(&self, v: u32) -> Option<impl Iterator<Item = (u32, u32)> + '_> {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        let w = self.weights.as_ref()?;
        Some(
            self.targets[lo..hi]
                .iter()
                .copied()
                .zip(w[lo..hi].iter().copied()),
        )
    }

    /// `true` if the graph stores edge weights.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Iterates all arcs as `(src, dst, weight)` (weight 1 if unweighted).
    pub fn arcs(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        (0..self.num_vertices()).flat_map(move |v| {
            let lo = self.offsets[v as usize] as usize;
            let hi = self.offsets[v as usize + 1] as usize;
            (lo..hi).map(move |i| {
                let w = self.weights.as_ref().map_or(1, |ws| ws[i]);
                (v, self.targets[i], w)
            })
        })
    }

    /// Rough memory footprint in bytes.
    pub fn byte_len(&self) -> usize {
        self.offsets.len() * 8
            + self.targets.len() * 4
            + self.weights.as_ref().map_or(0, |w| w.len() * 4)
    }
}

/// Generates an R-MAT / Kronecker-style power-law edge list with `2^scale`
/// vertices and `edge_factor · 2^scale` edges — the Graph500 generator
/// family (the suite cites Graph500 as the home of BFS benchmarking).
///
/// Uses the standard (A, B, C) = (0.57, 0.19, 0.19) parameters.
pub fn rmat_edges(
    scale: u32,
    edge_factor: u32,
    rng: &mut StreamRng,
) -> (u32, Vec<(u32, u32, u32)>) {
    let n = 1u32 << scale;
    let m = (n as u64 * edge_factor as u64) as usize;
    let (a, b, c) = (0.57, 0.19, 0.19);
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let (mut src, mut dst) = (0u32, 0u32);
        for bit in (0..scale).rev() {
            let r: f64 = rng.gen();
            // The quadrant is the number of cumulative thresholds `r` has
            // passed: 0 below A, 1 below A+B, 2 below A+B+C, else 3. Its
            // high bit picks the source half, its low bit the target half.
            let quadrant = u32::from(r >= a) + u32::from(r >= a + b) + u32::from(r >= a + b + c);
            src |= (quadrant >> 1) << bit;
            dst |= (quadrant & 1) << bit;
        }
        let w = rng.gen_range(1..=255u32);
        edges.push((src, dst, w));
    }
    (n, edges)
}

/// Generates a uniformly random connected graph: a random spanning tree
/// plus `extra` random edges. Useful where kernels need guaranteed
/// connectivity (MST of a forest is ill-posed in single-tree form).
pub fn random_connected_edges(n: u32, extra: usize, rng: &mut StreamRng) -> Vec<(u32, u32, u32)> {
    assert!(n >= 1, "graph needs at least one vertex");
    let mut edges = Vec::with_capacity(n as usize - 1 + extra);
    for v in 1..n {
        let parent = rng.gen_range(0..v);
        edges.push((parent, v, rng.gen_range(1..=1000u32)));
    }
    for _ in 0..extra {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        edges.push((a, b, rng.gen_range(1..=1000u32)));
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebs_sim::SimRng;

    #[test]
    fn csr_from_edges_directed() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (2, 3), (3, 0)], false);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_arcs(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[] as &[u32]);
        assert_eq!(g.degree(3), 1);
        assert!(!g.is_weighted());
    }

    #[test]
    fn csr_from_edges_undirected_doubles_arcs() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)], true);
        assert_eq!(g.num_arcs(), 4);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn weighted_neighbors_expose_weights() {
        let g = CsrGraph::from_weighted_edges(3, &[(0, 1, 7), (0, 2, 9)], false);
        let ns: Vec<(u32, u32)> = g.weighted_neighbors(0).unwrap().collect();
        assert_eq!(ns, vec![(1, 7), (2, 9)]);
        assert!(g.is_weighted());
        let unweighted = CsrGraph::from_edges(2, &[(0, 1)], false);
        assert!(unweighted.weighted_neighbors(0).is_none());
    }

    #[test]
    fn arcs_iterator_covers_everything() {
        let g = CsrGraph::from_weighted_edges(3, &[(0, 1, 5), (1, 2, 6)], true);
        let mut arcs: Vec<(u32, u32, u32)> = g.arcs().collect();
        arcs.sort();
        assert_eq!(arcs, vec![(0, 1, 5), (1, 0, 5), (1, 2, 6), (2, 1, 6)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_endpoint_rejected() {
        let _ = CsrGraph::from_edges(2, &[(0, 2)], false);
    }

    #[test]
    fn self_loops_and_parallel_edges_kept() {
        let g = CsrGraph::from_edges(2, &[(0, 0), (0, 1), (0, 1)], false);
        assert_eq!(g.degree(0), 3);
    }

    #[test]
    fn rmat_shape_and_determinism() {
        let mut rng = SimRng::new(1).stream("rmat");
        let (n, edges) = rmat_edges(8, 4, &mut rng);
        assert_eq!(n, 256);
        assert_eq!(edges.len(), 1024);
        assert!(edges.iter().all(|&(a, b, w)| a < n && b < n && w >= 1));
        let mut rng2 = SimRng::new(1).stream("rmat");
        let (_, edges2) = rmat_edges(8, 4, &mut rng2);
        assert_eq!(edges, edges2);
    }

    #[test]
    fn rmat_is_skewed() {
        // Power-law generators concentrate edges on low-id vertices.
        let mut rng = SimRng::new(2).stream("rmat");
        let (n, edges) = rmat_edges(10, 8, &mut rng);
        let g = CsrGraph::from_weighted_edges(n, &edges, false);
        let max_deg = (0..n).map(|v| g.degree(v)).max().unwrap();
        let avg = g.num_arcs() as f64 / n as f64;
        assert!(
            max_deg as f64 > 6.0 * avg,
            "hub degree {max_deg} should dwarf avg {avg}"
        );
    }

    /// The R-MAT generator before the branchless quadrant pick.
    fn rmat_edges_branching(
        scale: u32,
        edge_factor: u32,
        rng: &mut StreamRng,
    ) -> (u32, Vec<(u32, u32, u32)>) {
        let n = 1u32 << scale;
        let m = (n as u64 * edge_factor as u64) as usize;
        let (a, b, c) = (0.57, 0.19, 0.19);
        let mut edges = Vec::with_capacity(m);
        for _ in 0..m {
            let (mut src, mut dst) = (0u32, 0u32);
            for bit in (0..scale).rev() {
                let r: f64 = rng.gen();
                let (sbit, dbit) = if r < a {
                    (0, 0)
                } else if r < a + b {
                    (0, 1)
                } else if r < a + b + c {
                    (1, 0)
                } else {
                    (1, 1)
                };
                src |= sbit << bit;
                dst |= dbit << bit;
            }
            let w = rng.gen_range(1..=255u32);
            edges.push((src, dst, w));
        }
        (n, edges)
    }

    /// The weighted CSR builder before the shared one.
    fn csr_weighted_before(n: u32, edges: &[(u32, u32, u32)], undirected: bool) -> CsrGraph {
        let mut degree = vec![0u64; n as usize + 1];
        for &(a, b, _) in edges {
            assert!(a < n && b < n, "edge endpoint out of range");
            degree[a as usize + 1] += 1;
            if undirected {
                degree[b as usize + 1] += 1;
            }
        }
        for i in 1..degree.len() {
            degree[i] += degree[i - 1];
        }
        let m = degree[n as usize] as usize;
        let mut targets = vec![0u32; m];
        let mut weights = vec![0u32; m];
        let mut cursor = degree.clone();
        for &(a, b, w) in edges {
            let slot = cursor[a as usize] as usize;
            targets[slot] = b;
            weights[slot] = w;
            cursor[a as usize] += 1;
            if undirected {
                let slot = cursor[b as usize] as usize;
                targets[slot] = a;
                weights[slot] = w;
                cursor[b as usize] += 1;
            }
        }
        CsrGraph {
            offsets: degree,
            targets,
            weights: Some(weights),
        }
    }

    #[test]
    fn rmat_matches_the_branching_generator() {
        for scale in 1..=12u32 {
            for edge_factor in [1u32, 3, 16] {
                let label = format!("rmat/{scale}/{edge_factor}");
                let mut fast = SimRng::new(0x4A7).stream(&label);
                let mut slow = fast.clone();
                let got = rmat_edges(scale, edge_factor, &mut fast);
                let want = rmat_edges_branching(scale, edge_factor, &mut slow);
                assert_eq!(got, want, "scale {scale}, edge factor {edge_factor}");
                assert_eq!(fast, slow, "RNG end state, scale {scale}");
            }
        }
    }

    #[test]
    fn csr_matches_the_builders_it_replaces() {
        for case in 0..48u64 {
            let mut rng = SimRng::new(0xC5A).child(case).stream("inputs");
            let (n, edges) = rmat_edges(rng.gen_range(1u32..10), rng.gen_range(1u32..6), &mut rng);
            let pairs: Vec<(u32, u32)> = edges.iter().map(|&(a, b, _)| (a, b)).collect();
            let ones: Vec<(u32, u32, u32)> = pairs.iter().map(|&(a, b)| (a, b, 1)).collect();
            for undirected in [false, true] {
                // An unweighted graph used to be the weighted layout of
                // weight-1 edges with the weights dropped.
                let unweighted = CsrGraph {
                    weights: None,
                    ..csr_weighted_before(n, &ones, undirected)
                };
                assert_eq!(
                    CsrGraph::from_edges(n, &pairs, undirected),
                    unweighted,
                    "case {case}"
                );
                assert_eq!(
                    CsrGraph::from_edges(n, &edges, undirected),
                    unweighted,
                    "case {case}"
                );
                assert_eq!(
                    CsrGraph::from_weighted_edges(n, &edges, undirected),
                    csr_weighted_before(n, &edges, undirected),
                    "case {case}"
                );
            }
        }
    }

    #[test]
    fn random_connected_is_connected() {
        let mut rng = SimRng::new(3).stream("conn");
        let edges = random_connected_edges(200, 50, &mut rng);
        let g = CsrGraph::from_weighted_edges(200, &edges, true);
        // BFS from 0 reaches everything.
        let dist = bfs::bfs_distances(&g, 0).0;
        assert!(dist.iter().all(|&d| d != u32::MAX));
    }

    #[test]
    fn byte_len_accounts_weights() {
        let g = CsrGraph::from_weighted_edges(3, &[(0, 1, 1)], false);
        let unw = CsrGraph::from_edges(3, &[(0, 1)], false);
        assert!(g.byte_len() > unw.byte_len());
    }
}
