//! The Availability experiment: goodput and cost under injected faults
//! (paper §6.2 Q3, extended with client-side resilience).
//!
//! The paper measures how often providers shed load under pressure; this
//! driver generalizes the question: for a grid of **fault intensity ×
//! retry policy** it reports how much goodput a client-side policy buys
//! back and what the extra attempts cost. Each cell installs a seeded
//! [`FaultPlan`] and a [`RetryPolicy`] on an independent cell-salted
//! suite and drives `samples` attempt chains through
//! [`Suite::invoke_resilient`], billing every attempt (retries and hedges
//! included).
//!
//! Like the other grids the sweep is embarrassingly parallel: results —
//! including traces, metrics and the [`AvailabilityResult::to_store`]
//! JSON — are byte-identical for every worker count.

use sebs_metrics::{Measurement, ResultStore};
use sebs_platform::ProviderKind;
use sebs_resilience::{FaultPlan, RetryPolicy};
use sebs_sim::{SimDuration, SimRng};
use sebs_stats::Summary;
use sebs_telemetry::MetricsSink;
use sebs_trace::TraceSink;
use sebs_workloads::{Language, Scale};

use crate::config::SuiteConfig;
use crate::runner::{Observations, ParallelRunner};
use crate::suite::Suite;

/// Sim-time gap between consecutive attempt chains: long enough to walk
/// through outage windows, short enough to keep sandboxes warm.
const CHAIN_GAP: SimDuration = SimDuration::from_millis(250);

/// A labeled retry policy — one column of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledPolicy {
    /// Short label used in reports and result-store tags (e.g.
    /// `"no-retry"`, `"backoff-3"`).
    pub label: String,
    /// The policy itself.
    pub policy: RetryPolicy,
}

impl LabeledPolicy {
    /// Builds a labeled policy.
    pub fn new(label: &str, policy: RetryPolicy) -> LabeledPolicy {
        LabeledPolicy {
            label: label.to_string(),
            policy,
        }
    }

    /// The default sweep columns: no client-side resilience versus a
    /// three-attempt exponential backoff.
    pub fn default_sweep() -> Vec<LabeledPolicy> {
        vec![
            LabeledPolicy::new("no-retry", RetryPolicy::none()),
            LabeledPolicy::new("backoff-3", RetryPolicy::backoff(3)),
        ]
    }
}

/// One cell of the availability sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilityCell {
    /// Canonical position — the seed salt and merge key.
    pub index: usize,
    /// Transient sandbox-crash rate injected in this cell.
    pub fault_rate: f64,
    /// The retry policy under test.
    pub policy: LabeledPolicy,
}

impl AvailabilityCell {
    /// The cell's fault plan: the sweep's base plan (outage/storm windows,
    /// storage faults) with the sandbox-crash rate overridden by this
    /// cell's intensity.
    pub fn plan(&self, base: &FaultPlan) -> FaultPlan {
        let mut plan = base.clone();
        plan.sandbox_crash_rate = self.fault_rate;
        plan
    }

    /// An independent cell-seeded suite carrying this cell's fault plan
    /// and retry policy.
    pub fn suite(&self, config: &SuiteConfig) -> Suite {
        let seed = SimRng::new(config.seed).child(self.index as u64).seed();
        Suite::new(
            config
                .clone()
                .with_seed(seed)
                .with_faults(self.plan(&config.faults))
                .with_retry(self.policy.policy.clone()),
        )
    }
}

/// Measured outcomes of one (fault rate, policy) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilitySeries {
    /// Provider.
    pub provider: ProviderKind,
    /// Benchmark name.
    pub benchmark: String,
    /// Injected sandbox-crash rate.
    pub fault_rate: f64,
    /// Label of the retry policy.
    pub policy: String,
    /// Attempt chains driven.
    pub chains: usize,
    /// Chains whose final outcome was a success.
    pub successes: usize,
    /// Chains that succeeded on their very first attempt.
    pub first_attempt_successes: usize,
    /// Total billed attempts across all chains (retries and hedges
    /// included).
    pub attempts: usize,
    /// Effective client time per chain (ms) — backoff waits included —
    /// for successful chains.
    pub client_ms: Vec<f64>,
    /// Total cost across every billed attempt (USD).
    pub cost_usd: f64,
    /// Chains rejected locally by an open circuit breaker.
    pub breaker_rejections: usize,
    /// Chains where the hedge attempt won the race.
    pub hedge_wins: usize,
}

impl AvailabilitySeries {
    /// Effective availability: the fraction of chains that ended in a
    /// success after the policy did its work.
    pub fn effective_availability(&self) -> f64 {
        if self.chains == 0 {
            return 0.0;
        }
        self.successes as f64 / self.chains as f64
    }

    /// Raw availability: the fraction of chains whose *first* attempt
    /// succeeded — what a client without retries would observe.
    pub fn raw_availability(&self) -> f64 {
        if self.chains == 0 {
            return 0.0;
        }
        self.first_attempt_successes as f64 / self.chains as f64
    }

    /// Goodput: useful work per billed attempt. `1.0` means every billed
    /// attempt produced a success; retries and hedges dilute it.
    pub fn goodput(&self) -> f64 {
        if self.attempts == 0 {
            return 0.0;
        }
        self.successes as f64 / self.attempts as f64
    }

    /// Retry amplification: billed attempts per chain (`1.0` = no
    /// retries).
    pub fn amplification(&self) -> f64 {
        if self.chains == 0 {
            return 0.0;
        }
        self.attempts as f64 / self.chains as f64
    }

    /// Number of "nines" of effective availability
    /// (`-log10(1 - availability)`, `inf` for a perfect score).
    pub fn nines(&self) -> f64 {
        let a = self.effective_availability();
        if a >= 1.0 {
            f64::INFINITY
        } else {
            -(1.0 - a).log10()
        }
    }

    /// The `p`-th percentile of effective client time (ms) over
    /// successful chains, `0 ≤ p ≤ 100`.
    pub fn client_percentile_ms(&self, p: f64) -> f64 {
        if self.client_ms.is_empty() {
            return f64::NAN;
        }
        Summary::from_values(&self.client_ms).percentile(p)
    }
}

/// Full result of one availability sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilityResult {
    /// One series per (fault rate, policy) cell, in canonical order.
    pub series: Vec<AvailabilitySeries>,
    /// Per-invocation traces in canonical cell order — empty unless
    /// [`SuiteConfig::trace`] was set.
    pub traces: TraceSink,
    /// Fleet-wide metrics chunks in canonical cell order — empty unless
    /// [`SuiteConfig::metrics`] was set.
    pub metrics: MetricsSink,
}

impl AvailabilityResult {
    /// Finds the series for a fault rate and policy label.
    pub fn series(&self, fault_rate: f64, policy: &str) -> Option<&AvailabilitySeries> {
        self.series
            .iter()
            .find(|s| s.fault_rate == fault_rate && s.policy == policy)
    }

    /// Cost overhead per extra nine of availability that `policy` buys
    /// over `baseline` at the same fault rate: `Δcost / Δnines` in USD.
    /// `None` when either series is missing or the policy added no nines.
    pub fn cost_per_nine(&self, fault_rate: f64, baseline: &str, policy: &str) -> Option<f64> {
        let base = self.series(fault_rate, baseline)?;
        let upgraded = self.series(fault_rate, policy)?;
        let gained = upgraded.nines() - base.nines();
        if !gained.is_finite() || gained <= 0.0 {
            return None;
        }
        Some((upgraded.cost_usd - base.cost_usd) / gained)
    }

    /// Flattens the result into metric rows for storage/export. Rows are
    /// sorted in canonical cell order — byte-identical for every worker
    /// count.
    pub fn to_store(&self) -> ResultStore {
        let mut store = ResultStore::new();
        for (cell, s) in self.series.iter().enumerate() {
            let tag = |m: Measurement| {
                m.with_tag("cell", cell.to_string())
                    .with_tag("fault_rate", format!("{:.6}", s.fault_rate))
                    .with_tag("policy", s.policy.clone())
            };
            let provider = s.provider.to_string();
            let mut push = |metric: &str, value: f64| {
                store.push(tag(Measurement::new(
                    "availability",
                    &s.benchmark,
                    &provider,
                    metric,
                    value,
                )));
            };
            push("chains", s.chains as f64);
            push("attempts", s.attempts as f64);
            push("effective_availability", s.effective_availability());
            push("raw_availability", s.raw_availability());
            push("goodput", s.goodput());
            push("amplification", s.amplification());
            push("client_p50_ms", s.client_percentile_ms(50.0));
            push("client_p95_ms", s.client_percentile_ms(95.0));
            push("client_p99_ms", s.client_percentile_ms(99.0));
            push("cost_usd", s.cost_usd);
            push("breaker_rejections", s.breaker_rejections as f64);
            push("hedge_wins", s.hedge_wins as f64);
        }
        store.sort_by_tag_index("cell");
        store
    }
}

/// Runs the availability sweep for one benchmark on one provider, with
/// the worker count from [`SuiteConfig::jobs`].
///
/// Each fault rate in `fault_rates` overrides the sandbox-crash rate of
/// the configured base plan ([`SuiteConfig::faults`] — outage/storm
/// windows and storage faults carry over), and each policy in `policies`
/// replaces [`SuiteConfig::retry`]. The passed suite only supplies the
/// configuration; every cell runs on an independent cell-salted suite.
pub fn run_availability(
    suite: &Suite,
    benchmark: &str,
    language: Language,
    provider: ProviderKind,
    memory_mb: u32,
    scale: Scale,
    fault_rates: &[f64],
    policies: &[LabeledPolicy],
) -> AvailabilityResult {
    let config = suite.config();
    let cells = availability_cells(fault_rates, policies);
    let (series, observed) = ParallelRunner::new(config.jobs).run_cells(cells.len(), |i| {
        sample_cell(
            config, &cells[i], benchmark, language, provider, memory_mb, scale,
        )
    });
    AvailabilityResult {
        series,
        traces: observed.traces,
        metrics: observed.metrics,
    }
}

/// Enumerates the sweep cells in canonical order (fault-rate-major, then
/// policy — the index is each cell's identity for seeding and merging).
pub fn availability_cells(
    fault_rates: &[f64],
    policies: &[LabeledPolicy],
) -> Vec<AvailabilityCell> {
    let mut out = Vec::with_capacity(fault_rates.len() * policies.len());
    for &fault_rate in fault_rates {
        for policy in policies {
            out.push(AvailabilityCell {
                index: out.len(),
                fault_rate,
                policy: policy.clone(),
            });
        }
    }
    out
}

/// Samples one cell on its own seeded suite; `None` when the provider
/// rejects the deployment.
#[allow(clippy::too_many_arguments)]
fn sample_cell(
    config: &SuiteConfig,
    cell: &AvailabilityCell,
    benchmark: &str,
    language: Language,
    provider: ProviderKind,
    memory_mb: u32,
    scale: Scale,
) -> Option<(AvailabilitySeries, Observations)> {
    let mut suite = cell.suite(config);
    let handle = suite
        .deploy(provider, benchmark, language, memory_mb, scale)
        .ok()?;

    let mut series = AvailabilitySeries {
        provider,
        benchmark: benchmark.to_string(),
        fault_rate: cell.fault_rate,
        policy: cell.policy.label.clone(),
        chains: 0,
        successes: 0,
        first_attempt_successes: 0,
        attempts: 0,
        client_ms: Vec::new(),
        cost_usd: 0.0,
        breaker_rejections: 0,
        hedge_wins: 0,
    };

    for _ in 0..config.samples {
        let chain = suite.invoke_resilient(&handle);
        series.chains += 1;
        series.attempts += chain.billed_attempts();
        series.cost_usd += chain.total_cost_usd();
        if chain.breaker_rejected {
            series.breaker_rejections += 1;
        }
        if chain.hedge_won {
            series.hedge_wins += 1;
        }
        if chain
            .attempts
            .first()
            .is_some_and(|first| first.outcome.is_success())
        {
            series.first_attempt_successes += 1;
        }
        if chain.succeeded() {
            series.successes += 1;
            series.client_ms.push(chain.client_time.as_millis_f64());
        }
        suite.advance(provider, CHAIN_GAP);
    }

    let observed =
        Observations::of_cell(cell.index, suite.take_traces(), suite.take_metrics(), None);
    Some((series, observed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(config: SuiteConfig, rates: &[f64], policies: &[LabeledPolicy]) -> AvailabilityResult {
        let suite = Suite::new(config);
        run_availability(
            &suite,
            "dynamic-html",
            Language::Python,
            ProviderKind::Aws,
            256,
            Scale::Test,
            rates,
            policies,
        )
    }

    #[test]
    fn cells_enumerate_rate_major() {
        let cells = availability_cells(&[0.0, 0.1], &LabeledPolicy::default_sweep());
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].fault_rate, 0.0);
        assert_eq!(cells[0].policy.label, "no-retry");
        assert_eq!(cells[1].policy.label, "backoff-3");
        assert_eq!(cells[2].fault_rate, 0.1);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn retries_buy_back_availability_at_a_cost() {
        let result = sweep(
            SuiteConfig::fast().with_seed(42),
            &[0.25],
            &LabeledPolicy::default_sweep(),
        );
        let none = result.series(0.25, "no-retry").unwrap();
        let retry = result.series(0.25, "backoff-3").unwrap();
        assert!(
            retry.effective_availability() > none.effective_availability(),
            "retries {} must beat no-retry {}",
            retry.effective_availability(),
            none.effective_availability()
        );
        assert!(retry.amplification() > 1.0, "retries billed extra attempts");
        assert!((none.amplification() - 1.0).abs() < 1e-12);
        assert!(
            retry.cost_usd / retry.chains as f64 > none.cost_usd / none.chains as f64,
            "per-chain cost rises with retries"
        );
        // Every nine has a price tag.
        let per_nine = result.cost_per_nine(0.25, "no-retry", "backoff-3");
        assert!(per_nine.is_some_and(|c| c > 0.0), "{per_nine:?}");
    }

    #[test]
    fn zero_fault_rate_is_fully_available() {
        let result = sweep(
            SuiteConfig::fast().with_seed(7),
            &[0.0],
            &[LabeledPolicy::new("no-retry", RetryPolicy::none())],
        );
        let s = result.series(0.0, "no-retry").unwrap();
        assert_eq!(s.successes, s.chains);
        assert_eq!(s.effective_availability(), 1.0);
        assert_eq!(s.nines(), f64::INFINITY);
        assert_eq!(s.raw_availability(), 1.0);
        assert!(s.client_percentile_ms(50.0) > 0.0);
        assert!(s.client_percentile_ms(99.0) >= s.client_percentile_ms(50.0));
    }

    #[test]
    fn results_are_byte_identical_across_jobs() {
        let rates = [0.0, 0.15];
        let policies = LabeledPolicy::default_sweep();
        let sequential = sweep(
            SuiteConfig::fast()
                .with_seed(11)
                .with_trace(true)
                .with_jobs(1),
            &rates,
            &policies,
        );
        for jobs in [2, 4] {
            let parallel = sweep(
                SuiteConfig::fast()
                    .with_seed(11)
                    .with_trace(true)
                    .with_jobs(jobs),
                &rates,
                &policies,
            );
            assert_eq!(parallel.series, sequential.series, "jobs={jobs}");
            assert_eq!(
                parallel.to_store().to_json(),
                sequential.to_store().to_json(),
                "jobs={jobs}"
            );
            assert_eq!(parallel.traces, sequential.traces, "jobs={jobs}");
        }
    }

    #[test]
    fn store_rows_carry_cell_and_policy_tags() {
        let result = sweep(
            SuiteConfig::fast().with_seed(3),
            &[0.1],
            &LabeledPolicy::default_sweep(),
        );
        let store = result.to_store();
        assert!(!store.is_empty());
        let avail = store.values(
            "effective_availability",
            Some("dynamic-html"),
            Some("aws"),
            &[("policy", "backoff-3")],
        );
        assert_eq!(avail.len(), 1);
        assert_eq!(
            avail[0],
            result
                .series(0.1, "backoff-3")
                .unwrap()
                .effective_availability()
        );
        let back = sebs_metrics::ResultStore::from_json(&store.to_json()).unwrap();
        assert_eq!(back, store);
    }

    #[test]
    fn base_plan_windows_carry_into_cells() {
        // An outage window in the base plan survives the per-cell crash
        // rate override.
        let base = FaultPlan::parse("outage=0..3600@1.0").unwrap();
        let cell = AvailabilityCell {
            index: 0,
            fault_rate: 0.5,
            policy: LabeledPolicy::new("no-retry", RetryPolicy::none()),
        };
        let plan = cell.plan(&base);
        assert_eq!(plan.sandbox_crash_rate, 0.5);
        assert_eq!(plan.outages.len(), 1);
    }
}
