//! Plain timed micro-benchmarks of the *real* workload kernels — the native
//! compute that backs the simulator's abstract work counters. These measure
//! this machine, not the simulated cloud; they are the calibration substrate
//! for `ops_per_sec_full_cpu`.
//!
//! The previous criterion harness pulled a large registry dependency tree;
//! this binary keeps the workspace hermetic: it times each kernel with the
//! host timer in [`sebs_bench::bench`] and reports min/median per-iteration
//! times.
//!
//! A last section runs the ten Python paper benchmarks' `execute` at
//! `Scale::Test` round-robin, one call of each per round, and reports
//! `suite_executes_per_sec` at the median round: the kernel work behind
//! every Perf-Cost sample, which the bench-regression gate holds to a
//! floor.
//!
//! Knobs: `SEBS_BENCH_REPS` (timed repetitions per kernel, default 11; the
//! suite runs twice as many rounds) and `SEBS_BENCH_WARMUP` (warm-up
//! repetitions, default 2).

use std::collections::BTreeMap;

use sebs_bench::{bench, env_usize, sample};
use sebs_sim::rng::Rng;
use sebs_sim::SimRng;
use sebs_storage::SimObjectStore;
use sebs_workloads::compress::{compress, decompress};
use sebs_workloads::graph::bfs::{bfs_direction_optimizing, bfs_distances};
use sebs_workloads::graph::mst::boruvka_mst;
use sebs_workloads::graph::pagerank::pagerank;
use sebs_workloads::graph::{rmat_edges, CsrGraph};
use sebs_workloads::image::RasterImage;
use sebs_workloads::inference::{MiniResNet, Tensor};
use sebs_workloads::squiggle::{downsample, squiggle, to_json};
use sebs_workloads::templating::{Template, Value, PAGE_TEMPLATE};
use sebs_workloads::video::{encode_gif_like, watermark, Clip};
use sebs_workloads::{all_workloads, InvocationCtx, Language, Scale};

fn text_like_data(size: usize) -> Vec<u8> {
    let words = b"serverless benchmark suite function latency ";
    let mut rng = SimRng::new(1).stream("bench");
    (0..size)
        .map(|i| words[(i * 7 + rng.gen_range(0usize..3)) % words.len()])
        .collect()
}

fn main() {
    sebs_bench::timed_with("bench_kernels", || {
        run();
        vec![(
            "suite_executes_per_sec".to_string(),
            suite_executes_per_sec(),
        )]
    });
}

fn run() {
    println!("== compression ==");
    for size in [16 * 1024, 256 * 1024] {
        let data = text_like_data(size);
        bench(&format!("compress/{size}"), || compress(&data));
        let (packed, _) = compress(&data);
        bench(&format!("decompress/{size}"), || {
            decompress(&packed).expect("valid archive")
        });
    }

    println!("== graphs ==");
    let rmat_rng = SimRng::new(3).stream("rmat");
    bench("rmat_edges/8", || rmat_edges(8, 16, &mut rmat_rng.clone()));
    let mut rng = SimRng::new(2).stream("bench");
    for scale in [10u32, 13] {
        let (n, edges) = rmat_edges(scale, 16, &mut rng);
        let undirected = CsrGraph::from_edges(n, &edges, true);
        let directed = CsrGraph::from_weighted_edges(n, &edges, false);
        let weighted = CsrGraph::from_weighted_edges(n, &edges, true);
        bench(&format!("bfs_top_down/{scale}"), || {
            bfs_distances(&undirected, 0)
        });
        bench(&format!("bfs_direction_opt/{scale}"), || {
            bfs_direction_optimizing(&undirected, 0, 14, 24)
        });
        bench(&format!("pagerank_20it/{scale}"), || {
            pagerank(&directed, 0.85, 1e-8, 20)
        });
        bench(&format!("boruvka_mst/{scale}"), || boruvka_mst(&weighted));
    }

    println!("== multimedia ==");
    let img = RasterImage::synthetic(1920, 1080);
    bench("thumbnail_1080p_to_200", || img.thumbnail(200, 200));
    let test_img = RasterImage::synthetic(256, 192);
    bench("thumbnail_256x192_to_200", || test_img.thumbnail(200, 200));
    let clip = Clip::synthetic(320, 180, 24, 24);
    bench("gif_encode_320x180x24", || encode_gif_like(&clip));
    let logo = RasterImage::synthetic(64, 36);
    bench("watermark_320x180", || {
        let mut frame = clip.frames()[0].clone();
        watermark(&mut frame, &logo, 250, 140, 160);
        frame
    });

    println!("== inference ==");
    let net = MiniResNet::new();
    for dim in [32u32, 64] {
        let input = Tensor::from_image(&RasterImage::synthetic(dim, dim));
        bench(&format!("resnet_forward/{dim}"), || net.forward(&input));
    }

    println!("== webapps ==");
    let template = Template::compile(PAGE_TEMPLATE).expect("built-in template");
    let mut ctx = BTreeMap::new();
    ctx.insert("username".to_string(), Value::Str("bench".into()));
    ctx.insert("cur_time".to_string(), Value::Str("now".into()));
    ctx.insert("show_numbers".to_string(), Value::Bool(true));
    ctx.insert(
        "random_numbers".to_string(),
        Value::List((0..1000).map(|i| Value::Num(i as f64)).collect()),
    );
    bench("render_1000_rows", || {
        template.render(&ctx).expect("valid context")
    });
    let seq: Vec<u8> = (0..100_000).map(|i| b"ACGT"[i % 4]).collect();
    bench("squiggle_100k_bases", || squiggle(&seq));
    let points = squiggle(&seq);
    bench("downsample_to_4k", || downsample(&points, 4000));
    let plot = downsample(&points, 4000);
    bench("to_json_4k_points", || to_json(&plot));
}

/// Times rounds of one `execute` of each Python paper benchmark at
/// `Scale::Test`, each on its own store and RNG stream, and returns the
/// executes per second of the median round.
fn suite_executes_per_sec() -> f64 {
    println!("== suite: ten Python benchmarks at Scale::Test, round-robin ==");
    let mut suite: Vec<_> = all_workloads()
        .into_iter()
        .filter(|r| r.workload.spec().language == Language::Python)
        .map(|r| {
            let mut store = SimObjectStore::local_minio_model();
            let mut rng = SimRng::new(2021).stream(&r.workload.spec().name);
            let payload = r.workload.prepare(Scale::Test, &mut rng, &mut store);
            (r.workload, store, rng, payload)
        })
        .collect();
    let rounds = 2 * env_usize("SEBS_BENCH_REPS", 11);
    let warmup = env_usize("SEBS_BENCH_WARMUP", 2);
    let samples = sample(rounds, warmup, || {
        for (workload, store, rng, payload) in &mut suite {
            let mut ctx = InvocationCtx::new(store, rng);
            workload
                .execute(payload, &mut ctx)
                .expect("paper benchmark runs");
        }
    });
    let round = |at: usize| samples.get(at).map(|(d, _)| *d).unwrap_or_default();
    let median = round(samples.len() / 2);
    let per_sec = suite.len() as f64 / median.as_secs_f64().max(1e-9);
    println!(
        "{:<36} min {:>12.3?}  median {:>12.3?}  ({rounds} rounds)",
        format!("round_of_{}_executes", suite.len()),
        round(0),
        median
    );
    println!("suite_executes_per_sec {per_sec:.0}");
    per_sec
}
