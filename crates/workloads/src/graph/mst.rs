//! `graph-mst`: minimum spanning tree / forest via Borůvka's algorithm —
//! the paper's kernel with "additional dynamic data structures updated at
//! every iteration in an unpredictable pattern" (the union-find forest).
//!
//! A Kruskal implementation is included as the test oracle.

use sebs_sim::rng::StreamRng;
use sebs_storage::ObjectStorage;

use crate::harness::{
    InvocationCtx, Language, Payload, Response, Scale, Workload, WorkloadError, WorkloadSpec,
};

use super::bfs::{generate_input, rmat_scale_for};
use super::CsrGraph;

/// Disjoint-set forest with union by rank and path compression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    components: u32,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: u32) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n as usize],
            components: n,
        }
    }

    /// Representative of `v`'s set (with path compression).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn find(&mut self, v: u32) -> u32 {
        let mut root = v;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Compress.
        let mut cur = v;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets of `a` and `b`; returns `false` if already joined.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        self.components -= 1;
        true
    }

    /// Number of disjoint sets remaining.
    pub fn components(&self) -> u32 {
        self.components
    }
}

/// Result of an MST computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MstResult {
    /// Chosen edges as `(u, v, weight)`.
    pub edges: Vec<(u32, u32, u32)>,
    /// Total weight of the spanning forest.
    pub total_weight: u64,
    /// Borůvka rounds executed (1 for Kruskal).
    pub rounds: u32,
    /// Edge inspections (work measure).
    pub edges_inspected: u64,
}

/// Borůvka's algorithm over an undirected weighted CSR graph. Computes a
/// minimum spanning forest (one tree per connected component). Ties are
/// broken by `(weight, min-endpoint, max-endpoint)` so the result is unique.
///
/// # Panics
///
/// Panics if the graph is unweighted.
pub fn boruvka_mst(g: &CsrGraph) -> MstResult {
    assert!(g.is_weighted(), "MST requires edge weights");
    let n = g.num_vertices();
    let mut uf = UnionFind::new(n);
    let mut mst = Vec::new();
    let mut total = 0u64;
    let mut rounds = 0;
    let mut inspected = 0u64;

    loop {
        rounds += 1;
        // Cheapest outgoing edge per component, keyed by representative.
        let mut best: Vec<Option<(u32, u32, u32)>> = vec![None; n as usize];
        let mut progress = false;
        for v in 0..n {
            let rv = uf.find(v);
            // audit:allow(panic-hygiene): the graph was built with from_weighted_edges in this function
            for (u, w) in g.weighted_neighbors(v).expect("weighted graph") {
                inspected += 1;
                let ru = uf.find(u);
                if rv == ru {
                    continue;
                }
                let canon = (w, v.min(u), v.max(u));
                let better = match best[rv as usize] {
                    None => true,
                    Some((bw, ba, bb)) => canon < (bw, ba, bb),
                };
                if better {
                    best[rv as usize] = Some(canon);
                }
            }
        }
        for entry in best.iter().flatten() {
            let &(w, a, b) = entry;
            if uf.union(a, b) {
                mst.push((a, b, w));
                total += w as u64;
                progress = true;
            }
        }
        if !progress {
            break;
        }
        if uf.components() == 1 {
            break;
        }
    }
    mst.sort();
    MstResult {
        edges: mst,
        total_weight: total,
        rounds,
        edges_inspected: inspected,
    }
}

/// Kruskal's algorithm over an explicit edge list (the oracle).
pub fn kruskal_mst(n: u32, edges: &[(u32, u32, u32)]) -> MstResult {
    let mut sorted: Vec<(u32, u32, u32)> = edges
        .iter()
        .map(|&(a, b, w)| (w, a.min(b), a.max(b)))
        .map(|(w, a, b)| (a, b, w))
        .collect();
    sorted.sort_by_key(|&(a, b, w)| (w, a, b));
    let mut uf = UnionFind::new(n);
    let mut mst = Vec::new();
    let mut total = 0u64;
    let mut inspected = 0u64;
    for (a, b, w) in sorted {
        inspected += 1;
        if uf.union(a, b) {
            mst.push((a, b, w));
            total += w as u64;
        }
    }
    mst.sort();
    MstResult {
        edges: mst,
        total_weight: total,
        rounds: 1,
        edges_inspected: inspected,
    }
}

/// Input key for the MST benchmark.
pub const INPUT_KEY: &str = "mst-graph.bin";

/// The `graph-mst` benchmark.
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphMst {
    /// Language variant.
    pub language: Language,
}

impl GraphMst {
    /// Creates the benchmark.
    pub fn new(language: Language) -> Self {
        GraphMst { language }
    }
}

impl Workload for GraphMst {
    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            name: "graph-mst".into(),
            language: self.language,
            dependencies: vec!["igraph".into()],
            code_package_bytes: 18_000_000,
            default_memory_mb: 512,
        }
    }

    fn prepare(
        &self,
        scale: Scale,
        _rng: &mut StreamRng,
        _storage: &mut dyn ObjectStorage,
    ) -> Payload {
        Payload::with_params(vec![
            ("scale".into(), rmat_scale_for(scale).to_string()),
            ("edge-factor".into(), "16".into()),
        ])
    }

    fn execute(
        &self,
        payload: &Payload,
        ctx: &mut InvocationCtx<'_>,
    ) -> Result<Response, WorkloadError> {
        let (n, edges) = generate_input(payload, ctx)?;
        let g = CsrGraph::from_weighted_edges(n, &edges, true);
        ctx.alloc(g.byte_len() as u64);
        ctx.work(edges.len() as u64 * 8);

        let result = boruvka_mst(&g);
        // Calibration: union-find pointer chasing costs ~11 ops per
        // inspected edge.
        ctx.work(result.edges_inspected * 11 + n as u64 * 3);

        ctx.free(g.byte_len() as u64);
        Ok(Response::new(format!(
            "{{\"mst_edges\":{},\"weight\":{},\"rounds\":{}}}",
            result.edges.len(),
            result.total_weight,
            result.rounds
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::rmat_edges;
    use sebs_sim::rng::Rng;
    use sebs_sim::SimRng;
    use sebs_storage::SimObjectStore;

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.components(), 4);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0), "already joined");
        assert!(uf.union(2, 3));
        assert_eq!(uf.components(), 2);
        assert_eq!(uf.find(1), uf.find(0));
        assert_ne!(uf.find(0), uf.find(2));
        assert!(uf.union(0, 3));
        assert_eq!(uf.components(), 1);
    }

    #[test]
    fn known_mst() {
        // Classic 4-vertex example.
        let edges = vec![
            (0u32, 1u32, 1u32),
            (1, 2, 2),
            (2, 3, 3),
            (3, 0, 4),
            (0, 2, 5),
        ];
        let g = CsrGraph::from_weighted_edges(4, &edges, true);
        let mst = boruvka_mst(&g);
        assert_eq!(mst.total_weight, 6);
        assert_eq!(mst.edges, vec![(0, 1, 1), (1, 2, 2), (2, 3, 3)]);
    }

    #[test]
    fn forest_on_disconnected_graph() {
        let edges = vec![(0u32, 1u32, 5u32), (2, 3, 7)];
        let g = CsrGraph::from_weighted_edges(4, &edges, true);
        let mst = boruvka_mst(&g);
        assert_eq!(mst.edges.len(), 2, "one edge per component");
        assert_eq!(mst.total_weight, 12);
    }

    #[test]
    fn single_vertex_graph() {
        let g = CsrGraph::from_weighted_edges(1, &[], true);
        let mst = boruvka_mst(&g);
        assert!(mst.edges.is_empty());
        assert_eq!(mst.total_weight, 0);
    }

    #[test]
    #[should_panic(expected = "requires edge weights")]
    fn unweighted_graph_rejected() {
        let g = CsrGraph::from_edges(2, &[(0, 1)], true);
        let _ = boruvka_mst(&g);
    }

    #[test]
    fn boruvka_matches_kruskal_on_rmat() {
        let mut rng = SimRng::new(71).stream("mst");
        let (n, edges) = rmat_edges(9, 8, &mut rng);
        let g = CsrGraph::from_weighted_edges(n, &edges, true);
        let b = boruvka_mst(&g);
        let k = kruskal_mst(n, &edges);
        assert_eq!(b.total_weight, k.total_weight);
        assert_eq!(b.edges.len(), k.edges.len());
    }

    #[test]
    fn boruvka_rounds_are_logarithmic() {
        let mut rng = SimRng::new(72).stream("mst");
        let edges = super::super::random_connected_edges(1024, 2048, &mut rng);
        let g = CsrGraph::from_weighted_edges(1024, &edges, true);
        let mst = boruvka_mst(&g);
        assert_eq!(mst.edges.len(), 1023, "spanning tree of connected graph");
        assert!(
            mst.rounds <= 11,
            "components at least halve per round: {} rounds",
            mst.rounds
        );
    }

    #[test]
    fn benchmark_end_to_end() {
        let wl = GraphMst::new(Language::Python);
        let mut store = SimObjectStore::local_minio_model();
        let mut rng = SimRng::new(73).stream("mst");
        let payload = wl.prepare(Scale::Test, &mut rng, &mut store);
        let mut ctx = InvocationCtx::new(&mut store, &mut rng);
        let resp = wl.execute(&payload, &mut ctx).unwrap();
        let body = std::str::from_utf8(resp.body().unwrap()).unwrap();
        assert!(body.starts_with("{\"mst_edges\":"), "{body}");
        assert!(ctx.counters().instructions > 10_000);
    }

    fn random_weighted_edges(
        rng: &mut sebs_sim::rng::StreamRng,
        n: u32,
        vertex_cap: u32,
        max_edges: usize,
        max_weight: u32,
    ) -> Vec<(u32, u32, u32)> {
        (0..rng.gen_range(1..max_edges))
            .map(|_| {
                (
                    rng.gen_range(0..vertex_cap) % n,
                    rng.gen_range(0..vertex_cap) % n,
                    rng.gen_range(1..max_weight),
                )
            })
            .filter(|&(a, b, _)| a != b) // drop self-loops; MST ignores them anyway
            .collect()
    }

    #[test]
    fn boruvka_weight_equals_kruskal() {
        for case in 0..24u64 {
            let mut rng = SimRng::new(0xB02).child(case).stream("inputs");
            let n = rng.gen_range(2u32..50);
            let edges = random_weighted_edges(&mut rng, n, 50, 150, 100);
            let g = CsrGraph::from_weighted_edges(n, &edges, true);
            let b = boruvka_mst(&g);
            let k = kruskal_mst(n, &edges);
            assert_eq!(b.total_weight, k.total_weight, "failing case seed {case}");
            assert_eq!(b.edges.len(), k.edges.len(), "failing case seed {case}");
        }
    }

    #[test]
    fn mst_edge_count_is_n_minus_components() {
        for case in 0..24u64 {
            let mut input_rng = SimRng::new(0xED6E).child(case).stream("inputs");
            let n = input_rng.gen_range(2u32..40);
            let extra = input_rng.gen_range(0usize..80);
            let seed = input_rng.gen_range(0u64..1000);
            let mut rng = SimRng::new(seed).stream("mstprop");
            let edges = super::super::random_connected_edges(n, extra, &mut rng);
            let g = CsrGraph::from_weighted_edges(n, &edges, true);
            let mst = boruvka_mst(&g);
            assert_eq!(mst.edges.len() as u32, n - 1, "failing case seed {case}");
        }
    }

    #[test]
    fn weight_permutation_invariant() {
        for case in 0..24u64 {
            let mut rng = SimRng::new(0x9E2).child(case).stream("inputs");
            let n = rng.gen_range(2u32..30);
            let edges = random_weighted_edges(&mut rng, n, 30, 60, 50);
            let mut shuffled = edges.clone();
            shuffled.reverse();
            let w1 = kruskal_mst(n, &edges).total_weight;
            let w2 = kruskal_mst(n, &shuffled).total_weight;
            assert_eq!(w1, w2, "failing case seed {case}");
        }
    }
}
