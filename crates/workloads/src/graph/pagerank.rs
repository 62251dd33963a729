//! `graph-pagerank`: power-iteration PageRank (Page, Brin, Motwani &
//! Winograd) — the paper's streaming-predictable graph kernel: every edge
//! is touched in every iteration with an identical access pattern.

use sebs_sim::rng::StreamRng;
use sebs_storage::ObjectStorage;

use crate::harness::{
    InvocationCtx, Language, Payload, Response, Scale, Workload, WorkloadError, WorkloadSpec,
};

use super::bfs::{generate_input, rmat_scale_for};
use super::CsrGraph;

/// Result of a PageRank run.
#[derive(Debug, Clone, PartialEq)]
pub struct PagerankResult {
    /// Final rank vector (sums to 1).
    pub ranks: Vec<f64>,
    /// Iterations until the L1 delta dropped below tolerance (or the cap).
    pub iterations: u32,
    /// Edge traversals performed (work measure).
    pub edges_traversed: u64,
    /// Final L1 change between the last two iterations.
    pub final_delta: f64,
}

/// Power-iteration PageRank with damping `d`, run until the L1 delta is
/// below `tol` or `max_iters` is hit. Dangling-vertex mass is redistributed
/// uniformly (the standard "power scheme" fix-up).
///
/// # Panics
///
/// Panics if `d` is outside `(0, 1)`, `tol` is not positive, or the graph
/// has no vertices.
pub fn pagerank(g: &CsrGraph, d: f64, tol: f64, max_iters: u32) -> PagerankResult {
    assert!(
        (0.0..1.0).contains(&d) && d > 0.0,
        "damping must be in (0,1)"
    );
    assert!(tol > 0.0, "tolerance must be positive");
    let n = g.num_vertices() as usize;
    assert!(n > 0, "pagerank of an empty graph");

    let mut ranks = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    let mut edges_traversed = 0u64;
    let mut iterations = 0;
    let mut delta = f64::INFINITY;

    while iterations < max_iters && delta > tol {
        iterations += 1;
        let mut dangling = 0.0;
        next.fill((1.0 - d) / n as f64);
        for v in 0..n as u32 {
            let deg = g.degree(v);
            if deg == 0 {
                dangling += ranks[v as usize];
                continue;
            }
            let share = d * ranks[v as usize] / deg as f64;
            for &u in g.neighbors(v) {
                next[u as usize] += share;
                edges_traversed += 1;
            }
        }
        let dangling_share = d * dangling / n as f64;
        for r in next.iter_mut() {
            *r += dangling_share;
        }
        delta = ranks
            .iter()
            .zip(next.iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        std::mem::swap(&mut ranks, &mut next);
    }
    PagerankResult {
        ranks,
        iterations,
        edges_traversed,
        final_delta: delta,
    }
}

/// Input key for the PageRank benchmark.
pub const INPUT_KEY: &str = "pagerank-graph.bin";

/// The `graph-pagerank` benchmark.
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphPagerank {
    /// Language variant.
    pub language: Language,
}

impl GraphPagerank {
    /// Creates the benchmark.
    pub fn new(language: Language) -> Self {
        GraphPagerank { language }
    }
}

impl Workload for GraphPagerank {
    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            name: "graph-pagerank".into(),
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
            ("damping".into(), "0.85".into()),
            ("iterations".into(), "20".into()),
        ])
    }

    fn execute(
        &self,
        payload: &Payload,
        ctx: &mut InvocationCtx<'_>,
    ) -> Result<Response, WorkloadError> {
        let damping: f64 = payload
            .param("damping")
            .unwrap_or("0.85")
            .parse()
            .map_err(|e| WorkloadError::BadPayload(format!("bad damping: {e}")))?;
        if !(0.0..1.0).contains(&damping) || damping <= 0.0 {
            return Err(WorkloadError::BadPayload(format!(
                "damping {damping} outside (0, 1)"
            )));
        }
        let max_iters: u32 = payload
            .param("iterations")
            .unwrap_or("20")
            .parse()
            .map_err(|e| WorkloadError::BadPayload(format!("bad iterations: {e}")))?;

        let (n, edges) = generate_input(payload, ctx)?;
        let g = CsrGraph::from_edges(n, &edges, false);
        ctx.alloc(g.byte_len() as u64 + 16 * n as u64);
        ctx.work(edges.len() as u64 * 8);

        let result = pagerank(&g, damping, 1e-8, max_iters);
        // Calibration: ~13 machine ops per traversed edge in the C core.
        ctx.work(result.edges_traversed * 13 + n as u64 * result.iterations as u64 * 4);

        // Return the top-10 ranked vertices.
        let mut top: Vec<(u32, f64)> = result
            .ranks
            .iter()
            .enumerate()
            .map(|(i, &r)| (i as u32, r))
            .collect();
        top.sort_by(|a, b| b.1.total_cmp(&a.1));
        top.truncate(10);
        let body = top
            .iter()
            .map(|(v, r)| format!("{v}:{r:.6}"))
            .collect::<Vec<_>>()
            .join(",");
        ctx.free(g.byte_len() as u64 + 16 * n as u64);
        Ok(Response::new(body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebs_sim::rng::Rng;
    use sebs_sim::SimRng;
    use sebs_storage::SimObjectStore;

    #[test]
    fn uniform_on_a_cycle() {
        // A directed cycle is perfectly symmetric: ranks are uniform.
        let n = 8u32;
        let edges: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let g = CsrGraph::from_edges(n, &edges, false);
        let r = pagerank(&g, 0.85, 1e-12, 200);
        for &rank in &r.ranks {
            assert!((rank - 1.0 / n as f64).abs() < 1e-9, "rank {rank}");
        }
    }

    #[test]
    fn ranks_sum_to_one_with_dangling_vertices() {
        // Vertex 2 dangles.
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)], false);
        let r = pagerank(&g, 0.85, 1e-12, 500);
        let sum: f64 = r.ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
    }

    #[test]
    fn authority_flows_to_popular_vertices() {
        // Star: everyone points at vertex 0.
        let edges: Vec<(u32, u32)> = (1..10).map(|v| (v, 0)).collect();
        let g = CsrGraph::from_edges(10, &edges, false);
        let r = pagerank(&g, 0.85, 1e-12, 500);
        for v in 1..10 {
            assert!(r.ranks[0] > 3.0 * r.ranks[v], "hub must dominate");
        }
    }

    #[test]
    fn convergence_reported() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)], false);
        let r = pagerank(&g, 0.85, 1e-10, 1000);
        assert!(r.final_delta <= 1e-10);
        assert!(r.iterations < 1000, "cycle converges quickly");
        // Iteration cap respected on a graph that never reaches delta 0:
        // a star concentrates rank and keeps shifting mass for a while.
        let star: Vec<(u32, u32)> = (1..10).map(|v| (v, 0)).collect();
        let g = CsrGraph::from_edges(10, &star, false);
        let capped = pagerank(&g, 0.85, 1e-300, 3);
        assert_eq!(capped.iterations, 3);
    }

    #[test]
    fn work_scales_with_edges_and_iterations() {
        let star: Vec<(u32, u32)> = (1..10).map(|v| (v, 0)).collect();
        let g = CsrGraph::from_edges(10, &star, false);
        let r = pagerank(&g, 0.85, 1e-300, 5);
        assert_eq!(
            r.edges_traversed,
            g.num_arcs() * r.iterations as u64,
            "every edge touched exactly once per iteration"
        );
    }

    #[test]
    #[should_panic(expected = "damping must be in")]
    fn damping_validated() {
        let g = CsrGraph::from_edges(2, &[(0, 1)], false);
        let _ = pagerank(&g, 1.5, 1e-6, 10);
    }

    #[test]
    fn benchmark_end_to_end() {
        let wl = GraphPagerank::new(Language::Python);
        let mut store = SimObjectStore::local_minio_model();
        let mut rng = SimRng::new(61).stream("pr");
        let payload = wl.prepare(Scale::Test, &mut rng, &mut store);
        let mut ctx = InvocationCtx::new(&mut store, &mut rng);
        let resp = wl.execute(&payload, &mut ctx).unwrap();
        let body = std::str::from_utf8(resp.body().unwrap()).unwrap();
        let ranks: Vec<f64> = body
            .split(',')
            .map(|e| e.split_once(':').unwrap().1.parse().unwrap())
            .collect();
        assert_eq!(ranks.len(), 10, "top-10 returned");
        assert!(
            ranks.windows(2).all(|w| w[0] >= w[1]) && ranks.iter().all(|r| *r > 0.0 && *r <= 1.0),
            "ranks are probabilities, highest first: {body}"
        );
    }

    #[test]
    fn benchmark_validates_damping() {
        let wl = GraphPagerank::default();
        let mut store = SimObjectStore::local_minio_model();
        let mut rng = SimRng::new(61).stream("pr");
        let mut payload = wl.prepare(Scale::Test, &mut rng, &mut store);
        for p in &mut payload.params {
            if p.0 == "damping" {
                p.1 = "1.0".into();
            }
        }
        let mut ctx = InvocationCtx::new(&mut store, &mut rng);
        assert!(matches!(
            wl.execute(&payload, &mut ctx),
            Err(WorkloadError::BadPayload(_))
        ));
    }

    #[test]
    fn ranks_always_sum_to_one_and_are_positive() {
        for case in 0..24u64 {
            let mut rng = SimRng::new(0x9A6E).child(case).stream("inputs");
            let n = rng.gen_range(2u32..40);
            let damping = rng.gen_range(0.05f64..0.95);
            let edges: Vec<(u32, u32)> = (0..rng.gen_range(0usize..100))
                .map(|_| (rng.gen_range(0u32..40) % n, rng.gen_range(0u32..40) % n))
                .collect();
            let g = CsrGraph::from_edges(n, &edges, false);
            let r = pagerank(&g, damping, 1e-10, 300);
            let sum: f64 = r.ranks.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-6,
                "sum {sum} (failing case seed {case})"
            );
            assert!(r.ranks.iter().all(|&v| v > 0.0), "failing case seed {case}");
        }
    }

    #[test]
    fn pagerank_is_permutation_equivariant() {
        for case in 0..24u64 {
            // Relabeling vertices permutes ranks identically.
            let seed = SimRng::new(0x9E2A)
                .child(case)
                .stream("inputs")
                .gen_range(0u64..500);
            let mut rng = SimRng::new(seed).stream("perm");
            let (n, edges) = super::super::rmat_edges(5, 4, &mut rng);
            let plain: Vec<(u32, u32)> = edges.iter().map(|&(a, b, _)| (a, b)).collect();
            let perm: Vec<u32> = {
                // Deterministic rotation as the permutation.
                (0..n).map(|v| (v + 7) % n).collect()
            };
            let permuted: Vec<(u32, u32)> = plain
                .iter()
                .map(|&(a, b)| (perm[a as usize], perm[b as usize]))
                .collect();
            let r1 = pagerank(&CsrGraph::from_edges(n, &plain, false), 0.85, 1e-12, 100);
            let r2 = pagerank(&CsrGraph::from_edges(n, &permuted, false), 0.85, 1e-12, 100);
            for (v, &pv) in perm.iter().enumerate().take(n as usize) {
                assert!(
                    (r1.ranks[v] - r2.ranks[pv as usize]).abs() < 1e-9,
                    "failing case seed {case}"
                );
            }
        }
    }
}
