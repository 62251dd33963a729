//! Shared plumbing for the table/figure regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation section and prints it as an aligned text table (plus
//! optional JSON). Sample counts and input scale are controlled through
//! environment variables so that a quick run stays quick:
//!
//! * `SEBS_SAMPLES` — samples per series (default 50; the paper uses 200),
//! * `SEBS_SCALE` — `test`, `small` (paper-like) or `large`,
//! * `SEBS_SEED` — root seed (default 2021, the publication year),
//! * `SEBS_JOBS` — worker threads for grid experiments (default: all
//!   cores; results are byte-identical for any value).

use std::time::Duration;

use sebs::runner::available_jobs;
use sebs::SuiteConfig;
use sebs_workloads::Scale;

/// Run parameters decoded from the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchEnv {
    /// Samples per measurement series.
    pub samples: usize,
    /// Input scale.
    pub scale: Scale,
    /// Root seed.
    pub seed: u64,
    /// Worker threads for grid experiments (throughput only — never
    /// results).
    pub jobs: usize,
}

impl BenchEnv {
    /// Reads `SEBS_SAMPLES`, `SEBS_SCALE`, `SEBS_SEED` and `SEBS_JOBS`.
    pub fn from_env() -> BenchEnv {
        let samples = env_usize("SEBS_SAMPLES", 50);
        let scale = match std::env::var("SEBS_SCALE").as_deref() {
            Ok("small") => Scale::Small,
            Ok("large") => Scale::Large,
            _ => Scale::Test,
        };
        let seed = std::env::var("SEBS_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(2021);
        let jobs = std::env::var("SEBS_JOBS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map(|j| j.max(1))
            .unwrap_or_else(available_jobs);
        BenchEnv {
            samples,
            scale,
            seed,
            jobs,
        }
    }

    /// The suite configuration for these parameters.
    pub fn suite_config(&self) -> SuiteConfig {
        SuiteConfig::default()
            .with_seed(self.seed)
            .with_samples(self.samples)
            .with_batch_size(self.samples.clamp(1, 50))
            .with_jobs(self.jobs)
    }

    /// Banner line describing the run.
    pub fn banner(&self, artifact: &str) -> String {
        format!(
            "=== SeBS-RS :: {artifact} (samples={}, scale={:?}, seed={}) ===",
            self.samples, self.scale, self.seed
        )
    }
}

impl Default for BenchEnv {
    fn default() -> Self {
        BenchEnv {
            samples: 50,
            scale: Scale::Test,
            seed: 2021,
            jobs: available_jobs(),
        }
    }
}

/// Runs a benchmark body under a wall-clock timer.
///
/// Prints `[bench] <name>: <secs> s` when the body returns and, when the
/// `SEBS_BENCH_DIR` environment variable names a directory, additionally
/// writes a machine-readable `BENCH_<name>.json` there (wall time plus the
/// [`BenchEnv`] run parameters) so CI can collect timing artifacts without
/// scraping stdout.
pub fn timed(name: &str, f: impl FnOnce()) {
    timed_with(name, || {
        f();
        Vec::new()
    });
}

/// Like [`timed`], for bodies that also report their own metrics.
///
/// The body returns extra `(field, value)` pairs — throughput rates,
/// counts — that are appended to the `BENCH_<name>.json` artifact next to
/// `wall_time_secs`. The bench-regression gate treats any field ending in
/// `_per_sec` as a throughput (higher is better) and everything else as
/// informational.
// audit:allow(wall-clock): the bench harness times real host work
// audit:allow(instant-usage): the bench harness times real host work
pub fn timed_with(name: &str, f: impl FnOnce() -> Vec<(String, f64)>) {
    let env = BenchEnv::from_env();
    let start = std::time::Instant::now();
    let extra = f();
    let wall = start.elapsed().as_secs_f64();
    println!("[bench] {name}: {wall:.3} s");
    if let Ok(dir) = std::env::var("SEBS_BENCH_DIR") {
        let path = format!("{dir}/BENCH_{name}.json");
        match std::fs::write(&path, bench_json(name, wall, &env, &extra)) {
            Ok(()) => println!("[bench] wrote {path}"),
            Err(e) => eprintln!("[bench] cannot write {path}: {e}"),
        }
    }
}

/// Reads a count knob from the environment, `default` when unset or
/// malformed.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Runs `f` `warmup` times untimed, then `reps` times on the host clock;
/// returns each timed run's wall time and result, fastest first.
// audit:allow(wall-clock): the bench harness times real host work
// audit:allow(instant-usage): the bench harness times real host work
pub fn sample<T>(reps: usize, warmup: usize, mut f: impl FnMut() -> T) -> Vec<(Duration, T)> {
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let mut samples: Vec<(Duration, T)> = (0..reps)
        .map(|_| {
            let start = std::time::Instant::now();
            let out = std::hint::black_box(f());
            (start.elapsed(), out)
        })
        .collect();
    samples.sort_by_key(|(wall, _)| *wall);
    samples
}

/// Times `f` and prints one result row: min and median per-call wall time
/// over `SEBS_BENCH_REPS` (default 11) calls after `SEBS_BENCH_WARMUP`
/// (default 2) untimed ones.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
    let reps = env_usize("SEBS_BENCH_REPS", 11);
    let warmup = env_usize("SEBS_BENCH_WARMUP", 2);
    let samples = sample(reps, warmup, || {
        std::hint::black_box(f());
    });
    let wall = |at: usize| samples.get(at).map(|(d, _)| *d).unwrap_or_default();
    println!(
        "{name:<36} min {:>12.3?}  median {:>12.3?}  ({reps} reps)",
        wall(0),
        wall(samples.len() / 2)
    );
}

/// The `BENCH_<name>.json` document body.
fn bench_json(name: &str, wall_time_secs: f64, env: &BenchEnv, extra: &[(String, f64)]) -> String {
    use sebs_metrics::Json;
    let mut fields = vec![
        ("name".into(), Json::Str(name.into())),
        ("wall_time_secs".into(), Json::Num(wall_time_secs)),
        ("samples".into(), Json::Num(env.samples as f64)),
        (
            "scale".into(),
            Json::Str(format!("{:?}", env.scale).to_lowercase()),
        ),
        ("seed".into(), Json::Num(env.seed as f64)),
        ("jobs".into(), Json::Num(env.jobs as f64)),
    ];
    for (k, v) in extra {
        fields.push((k.clone(), Json::Num(*v)));
    }
    let obj = Json::Object(fields);
    obj.to_string_pretty()
}

/// Formats a float with the given precision, rendering NaN as `-`.
pub fn fmt(v: f64, precision: usize) -> String {
    if v.is_nan() {
        "-".to_string()
    } else {
        format!("{v:.precision$}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let e = BenchEnv::default();
        assert_eq!(e.samples, 50);
        assert_eq!(e.scale, Scale::Test);
        let cfg = e.suite_config();
        assert_eq!(cfg.samples, 50);
        assert!(cfg.batch_size <= 50);
        assert_eq!(e.jobs, available_jobs());
        assert_eq!(cfg.jobs, e.jobs);
        assert!(e.banner("Table 4").contains("Table 4"));
    }

    #[test]
    fn fmt_handles_nan() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt(f64::NAN, 2), "-");
    }

    #[test]
    fn bench_json_is_parseable_and_complete() {
        let body = bench_json("table2_providers", 1.25, &BenchEnv::default(), &[]);
        let doc = sebs_metrics::Json::parse(&body).expect("bench JSON parses");
        assert_eq!(
            doc.get("name").and_then(|v| v.as_str()),
            Some("table2_providers")
        );
        assert_eq!(
            doc.get("wall_time_secs").and_then(|v| v.as_f64()),
            Some(1.25)
        );
        assert_eq!(doc.get("samples").and_then(|v| v.as_f64()), Some(50.0));
        assert_eq!(doc.get("scale").and_then(|v| v.as_str()), Some("test"));
        assert_eq!(doc.get("seed").and_then(|v| v.as_f64()), Some(2021.0));
    }

    #[test]
    fn bench_json_carries_extra_metric_fields() {
        let extra = vec![("traces_per_sec".to_string(), 1.5e3)];
        let body = bench_json("bench_trace_overhead", 2.0, &BenchEnv::default(), &extra);
        let doc = sebs_metrics::Json::parse(&body).expect("bench JSON parses");
        assert_eq!(
            doc.get("traces_per_sec").and_then(|v| v.as_f64()),
            Some(1.5e3)
        );
    }
}
