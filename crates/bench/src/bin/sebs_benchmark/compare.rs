//! `sebs_benchmark compare A.json B.json [--spec BENCHMARK.json]`: gates
//! run B against run A with the bounds `BENCHMARK.json` declares. Either
//! side may be several runs (`A1.json A2.json --vs B1.json B2.json`); each
//! side's value is then the median over its runs.
//!
//! One row per workload × end-to-end metric compares the values; B fails
//! a row when it is worse than A by more than the metric's bound (for
//! `setup_s`, by more than the bound or [`SETUP_FLOOR_S`], whichever is
//! larger). Every `sim.*` value must be identical: they are simulated
//! outputs, which a speed-only change must not move. Exit status: 0 when
//! every row passes, 1 on a regression, a `sim.*` difference or a failed
//! correctness check, 2 on unreadable input.

use sebs_metrics::Json;

use crate::stats::Spread;

/// Absolute slack (s) on `setup_s`: set-up of the small workloads takes
/// milliseconds, where the relative bound alone is below the jitter.
pub const SETUP_FLOOR_S: f64 = 0.02;

/// One end-to-end metric's regression bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

impl Bound {
    /// How much worse than `base` a value may be.
    pub fn slack(&self, base: f64) -> f64 {
        let relative = self.bound * base.abs();
        if self.name == "setup_s" {
            relative.max(SETUP_FLOOR_S)
        } else {
            relative
        }
    }

    /// `true` when `new` is within the bound of `base`.
    pub fn holds(&self, base: f64, new: f64) -> bool {
        let worse = if self.lower_is_better {
            new - base
        } else {
            base - new
        };
        worse <= self.slack(base)
    }
}

/// Reads the `end_to_end` bounds of a `BENCHMARK.json` document.
pub fn read_bounds(spec: &Json) -> Result<Vec<Bound>, String> {
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let better = m.get("better").and_then(Json::as_str);
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .filter(|b| b.is_finite());
            match (better, bound) {
                (Some(better @ ("lower" | "higher")), Some(bound)) => Ok(Bound {
                    name: name.to_string(),
                    lower_is_better: better == "lower",
                    bound,
                }),
                _ => Err(format!(
                    "{name}: needs better = lower|higher and a numeric bound"
                )),
            }
        })
        .collect()
}

fn value(doc: &Json, workload: &str, group: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get(group)?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// The median over one side's runs; `None` when any run lacks the value.
fn side_median(side: &[Json], workload: &str, group: &str, metric: &str) -> Option<f64> {
    let values: Option<Vec<f64>> = side
        .iter()
        .map(|doc| value(doc, workload, group, metric))
        .collect();
    Spread::of(&values?).map(|s| s.median)
}

fn members(doc: &Json) -> Vec<(&str, &Json)> {
    match doc {
        Json::Object(m) => m.iter().map(|(k, v)| (k.as_str(), v)).collect(),
        _ => Vec::new(),
    }
}

/// Compares two sets of run summaries (median per side); returns the
/// printed rows and the number of failing ones.
pub fn compare(bounds: &[Bound], a: &[Json], b: &[Json]) -> (Vec<String>, usize) {
    let mut rows = Vec::new();
    let mut failures = 0;
    let workloads = a
        .first()
        .and_then(|doc| doc.get("workloads"))
        .map(members)
        .unwrap_or_default();
    if workloads.is_empty() || b.is_empty() {
        rows.push("both sides need at least one run with workloads".to_string());
        failures += 1;
    }
    for (name, first) in workloads {
        for doc in a.iter().chain(b) {
            let failed = doc
                .get("workloads")
                .and_then(|w| w.get(name))
                .and_then(|w| w.get("failed"))
                .and_then(Json::as_f64);
            if failed != Some(0.0) {
                rows.push(format!("{name:<16} correctness checks failed or missing"));
                failures += 1;
            }
        }
        for bound in bounds {
            let (Some(va), Some(vb)) = (
                side_median(a, name, "metrics", &bound.name),
                side_median(b, name, "metrics", &bound.name),
            ) else {
                rows.push(format!("{name:<16} {:<28} missing", bound.name));
                failures += 1;
                continue;
            };
            let ok = bound.holds(va, vb);
            failures += usize::from(!ok);
            rows.push(format!(
                "{name:<16} {:<28} {va:>14.4} {vb:>14.4} {:>+8.2}%  bound {:>5.1}%  {}",
                bound.name,
                (vb / va - 1.0) * 100.0,
                bound.bound * 100.0,
                if ok { "ok" } else { "REGRESSED" }
            ));
        }
        let sims = first.get("per_layer").map(members).unwrap_or_default();
        for (metric, _) in sims.into_iter().filter(|(m, _)| m.starts_with("sim.")) {
            let bits: Vec<Option<u64>> = a
                .iter()
                .chain(b)
                .map(|doc| value(doc, name, "per_layer", metric).map(f64::to_bits))
                .collect();
            let same = bits[0].is_some() && bits.iter().all(|v| *v == bits[0]);
            failures += usize::from(!same);
            let shown = |v: Option<f64>| v.map_or("-".into(), |v| v.to_string());
            rows.push(format!(
                "{name:<16} {metric:<28} {:>14} {:>14}  {}",
                shown(side_median(a, name, "per_layer", metric)),
                shown(side_median(b, name, "per_layer", metric)),
                if same { "identical" } else { "DIFFERS" }
            ));
        }
    }
    (rows, failures)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

const USAGE: &str = "usage: sebs_benchmark compare A.json B.json [--spec BENCHMARK.json]\n       \
                     sebs_benchmark compare A1.json A2.json ... --vs B1.json B2.json ... [--spec BENCHMARK.json]";

/// Runs the subcommand on its arguments; returns the exit status.
pub fn run(args: &[String]) -> i32 {
    let mut spec_path = "BENCHMARK.json".to_string();
    let (mut a_paths, mut b_paths) = (Vec::new(), Vec::new());
    let mut seen_vs = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spec" => match it.next() {
                Some(path) => spec_path = path.clone(),
                None => {
                    eprintln!("{USAGE}");
                    return 2;
                }
            },
            "--vs" => seen_vs = true,
            _ if seen_vs => b_paths.push(arg.clone()),
            _ => a_paths.push(arg.clone()),
        }
    }
    if !seen_vs && a_paths.len() == 2 {
        b_paths = a_paths.split_off(1);
    }
    if a_paths.is_empty() || b_paths.is_empty() {
        eprintln!("{USAGE}");
        return 2;
    }
    let loaded = (|| {
        let bounds = read_bounds(&load(&spec_path)?)?;
        let side = |paths: &[String]| paths.iter().map(|p| load(p)).collect::<Result<Vec<_>, _>>();
        Ok::<_, String>((bounds, side(&a_paths)?, side(&b_paths)?))
    })();
    let (bounds, a, b) = match loaded {
        Ok(v) => v,
        Err(e) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    println!(
        "{:<16} {:<28} {:>14} {:>14} {:>9}",
        "workload", "metric", "A", "B", "change"
    );
    let (rows, failures) = compare(&bounds, &a, &b);
    for row in rows {
        println!("{row}");
    }
    if failures == 0 {
        println!("compare: every metric within its bound, sim.* identical");
        0
    } else {
        println!("compare: {failures} failing row(s)");
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(name: &str, lower: bool, bound: f64) -> Bound {
        Bound {
            name: name.into(),
            lower_is_better: lower,
            bound,
        }
    }

    #[test]
    fn rates_may_drop_by_their_bound_and_no_more() {
        let b = bound("requests_per_s", false, 0.10);
        assert!(b.holds(1000.0, 1000.0));
        assert!(b.holds(1000.0, 5000.0), "faster always passes");
        assert!(b.holds(1000.0, 900.0), "exactly at the bound");
        assert!(!b.holds(1000.0, 899.0));
    }

    #[test]
    fn lower_is_better_metrics_may_rise_by_their_bound() {
        let b = bound("peak_rss_mb", true, 0.10);
        assert!(b.holds(200.0, 220.0));
        assert!(!b.holds(200.0, 221.0));
        assert!(b.holds(200.0, 10.0), "smaller always passes");
    }

    #[test]
    fn setup_time_has_an_absolute_floor() {
        let b = bound("setup_s", true, 0.25);
        assert!(b.holds(0.001, 0.02), "a 1 ms set-up may grow by 20 ms");
        assert!(!b.holds(0.001, 0.0211));
        assert!(
            b.holds(1.0, 1.25),
            "the relative bound wins for long set-ups"
        );
        assert!(!b.holds(1.0, 1.26));
        let other = bound("requests_per_s_1t", true, 0.25);
        assert!(!other.holds(0.001, 0.02), "only setup_s has the floor");
    }

    fn summary(rate: f64, cost: f64, failed: f64) -> Json {
        let metric = |v: f64| Json::Object(vec![("value".into(), Json::Num(v))]);
        Json::Object(vec![(
            "workloads".into(),
            Json::Object(vec![(
                "fleet-dense".into(),
                Json::Object(vec![
                    ("failed".into(), Json::Num(failed)),
                    (
                        "metrics".into(),
                        Json::Object(vec![("requests_per_s".into(), metric(rate))]),
                    ),
                    (
                        "per_layer".into(),
                        Json::Object(vec![
                            ("sim.cost_usd".into(), metric(cost)),
                            ("platform.invoke_ms".into(), metric(rate)),
                        ]),
                    ),
                ]),
            )]),
        )])
    }

    #[test]
    fn compare_flags_regressions_sim_differences_and_failed_checks() {
        let bounds = [bound("requests_per_s", false, 0.10)];
        let base = [summary(1000.0, 0.5, 0.0)];
        let failures = |b: Json| compare(&bounds, &base, &[b]).1;
        assert_eq!(failures(summary(950.0, 0.5, 0.0)), 0);
        assert_eq!(failures(summary(850.0, 0.5, 0.0)), 1);
        assert_eq!(
            failures(summary(1000.0, 0.5000001, 0.0)),
            1,
            "sim.* must be bit-identical"
        );
        assert_eq!(failures(summary(1000.0, 0.5, 1.0)), 1);
        let (rows, _) = compare(&bounds, &base, &base);
        assert_eq!(
            rows.len(),
            2,
            "one row per bounded metric and per sim value"
        );
    }

    #[test]
    fn each_side_is_the_median_of_its_runs() {
        let bounds = [bound("requests_per_s", false, 0.10)];
        let a = [1000.0, 700.0, 1010.0].map(|r| summary(r, 0.5, 0.0));
        let b = [880.0, 950.0, 960.0].map(|r| summary(r, 0.5, 0.0));
        let (rows, failures) = compare(&bounds, &a, &b);
        assert_eq!(failures, 0, "1000 vs 950 is within 10%: {rows:?}");
        let slow = [880.0, 890.0, 960.0].map(|r| summary(r, 0.5, 0.0));
        assert_eq!(compare(&bounds, &a, &slow).1, 1, "1000 vs 890 is not");
    }

    #[test]
    fn the_repository_spec_parses() {
        let spec = Json::parse(include_str!("../../../../../BENCHMARK.json")).expect("valid JSON");
        let bounds = read_bounds(&spec).expect("well-formed bounds");
        assert!(bounds
            .iter()
            .any(|b| b.name == "setup_s" && b.lower_is_better));
        assert!(bounds.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
    }
}
