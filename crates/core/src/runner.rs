//! Deterministic parallel experiment execution.
//!
//! The paper's methodology (§4.1) demands many repetitions per cell of the
//! benchmarks × providers × memory grid, and the cells are embarrassingly
//! parallel: each one runs on its own simulated platform with its own
//! derived seed. [`ParallelRunner`] shards a cell list across
//! `std::thread::scope` workers (std-only — no registry dependencies) and
//! merges the per-cell results back **in canonical cell order**, so the
//! output of a run is byte-identical whatever `--jobs` was:
//!
//! * every cell's work is a pure function of `(SuiteConfig, cell index)` —
//!   [`GridCell::suite`] builds an independent [`Suite`] from a
//!   [`sebs_sim::SimRng::child`]-salted seed, so no randomness or platform
//!   state is shared between cells;
//! * workers pull cell indices from a shared atomic counter (work
//!   stealing), but results are slotted back by index, not completion
//!   order.
//!
//! The drivers in [`crate::experiments`] are implemented on top of this
//! runner, taking their worker count from [`SuiteConfig::jobs`]
//! (default 1, i.e. the sequential baseline).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use sebs_platform::ProviderKind;
use sebs_sim::{Phase, PhaseProfiler, SimDuration, SimRng};
use sebs_telemetry::{MetricsChunk, MetricsSink};
use sebs_trace::{InvocationTrace, TraceSink};
use sebs_workloads::Language;

use crate::config::SuiteConfig;
use crate::suite::Suite;

/// One cell of an experiment grid: the unit of parallel work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridCell {
    /// Position in the canonical enumeration ([`ExperimentGrid::cells`]);
    /// also the salt for the cell's seed.
    pub index: usize,
    /// Benchmark name.
    pub benchmark: String,
    /// Language of the deployed variant.
    pub language: Language,
    /// Provider hosting the cell.
    pub provider: ProviderKind,
    /// Memory configuration in MB.
    pub memory_mb: u32,
    /// Repetition batch (0-based; grids default to a single batch).
    pub repetition: usize,
}

impl GridCell {
    /// The cell's own root seed, derived from the suite seed via
    /// [`SimRng::child`] so sibling cells draw independent randomness.
    pub fn seed(&self, root_seed: u64) -> u64 {
        SimRng::new(root_seed).child(self.index as u64).seed()
    }

    /// An independent suite for this cell: same configuration, cell-salted
    /// seed. Cells never share platform state, which is what makes the
    /// grid order-insensitive and therefore parallelizable.
    pub fn suite(&self, config: &SuiteConfig) -> Suite {
        Suite::new(config.clone().with_seed(self.seed(config.seed)))
    }
}

/// The experiment grid: benchmarks × providers × memory sizes ×
/// repetition batches, enumerated in a canonical order (benchmark-major,
/// then provider, memory, repetition — matching the historical sequential
/// loop nesting).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentGrid {
    benchmarks: Vec<(String, Language)>,
    providers: Vec<ProviderKind>,
    memories_mb: Vec<u32>,
    repetitions: usize,
}

impl ExperimentGrid {
    /// Builds a grid with a single repetition batch per cell.
    pub fn new(
        benchmarks: &[(&str, Language)],
        providers: &[ProviderKind],
        memories_mb: &[u32],
    ) -> ExperimentGrid {
        ExperimentGrid {
            benchmarks: benchmarks
                .iter()
                .map(|(b, l)| (b.to_string(), *l))
                .collect(),
            providers: providers.to_vec(),
            memories_mb: memories_mb.to_vec(),
            repetitions: 1,
        }
    }

    /// Sets the number of repetition batches per configuration (each batch
    /// is its own cell with its own seed).
    pub fn with_repetitions(mut self, repetitions: usize) -> ExperimentGrid {
        self.repetitions = repetitions.max(1);
        self
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.benchmarks.len() * self.providers.len() * self.memories_mb.len() * self.repetitions
    }

    /// `true` when the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerates the cells in canonical order. The index of a cell in
    /// this list is stable for a given grid shape — it is the cell's
    /// identity for seeding and for result merging.
    pub fn cells(&self) -> Vec<GridCell> {
        let mut out = Vec::with_capacity(self.len());
        for (benchmark, language) in &self.benchmarks {
            for &provider in &self.providers {
                for &memory_mb in &self.memories_mb {
                    for repetition in 0..self.repetitions {
                        out.push(GridCell {
                            index: out.len(),
                            benchmark: benchmark.clone(),
                            language: *language,
                            provider,
                            memory_mb,
                            repetition,
                        });
                    }
                }
            }
        }
        out
    }
}

/// Runs indexed work items across a fixed number of worker threads and
/// returns the results in index order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelRunner {
    jobs: usize,
}

impl ParallelRunner {
    /// A runner with `jobs` worker threads (clamped to at least 1).
    pub fn new(jobs: usize) -> ParallelRunner {
        ParallelRunner { jobs: jobs.max(1) }
    }

    /// A single-threaded runner — the sequential baseline every parallel
    /// run must agree with byte-for-byte.
    pub fn sequential() -> ParallelRunner {
        ParallelRunner::new(1)
    }

    /// A runner sized to the host's available parallelism.
    pub fn available() -> ParallelRunner {
        ParallelRunner::new(available_jobs())
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Evaluates `f(0..n)` and returns the results ordered by index.
    ///
    /// Workers claim indices from a shared counter, so long cells do not
    /// serialize behind short ones; the result vector is assembled by
    /// index, so the output is identical for every worker count as long as
    /// `f` itself is a pure function of its index.
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let jobs = self.jobs.min(n.max(1));
        if jobs <= 1 {
            return (0..n).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let done: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    // A worker panic aborts the scope, so a poisoned lock
                    // only occurs while the run is already failing; keep
                    // the surviving results either way.
                    match done.lock() {
                        Ok(mut g) => g.extend(local),
                        Err(poisoned) => poisoned.into_inner().extend(local),
                    }
                });
            }
        });
        let mut pairs = match done.into_inner() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        };
        pairs.sort_by_key(|&(i, _)| i);
        debug_assert!(
            pairs.iter().enumerate().all(|(k, &(i, _))| k == i),
            "every index produced exactly one result"
        );
        pairs.into_iter().map(|(_, t)| t).collect()
    }

    /// Runs `n` cells and merges them canonically: the series of every cell
    /// that ran (`None` when its provider rejects a deployment) in cell
    /// order, and their observations sorted by cell index. Each cell's phase
    /// profile folds into the merged one as one `runner.merge` event.
    pub(crate) fn run_cells<S: Send>(
        &self,
        n: usize,
        cell: impl Fn(usize) -> Option<(S, Observations)> + Sync,
    ) -> (Vec<S>, Observations) {
        let mut series = Vec::with_capacity(n);
        let mut merged = Observations::default();
        for (cell_series, observed) in self.run(n, cell).into_iter().flatten() {
            series.push(cell_series);
            merged.traces.merge(observed.traces);
            merged.metrics.merge(observed.metrics);
            if let Some(p) = observed.profile {
                let profile = merged.profile.get_or_insert_with(PhaseProfiler::new);
                profile.merge(&p);
                // Merges run on the host outside sim time; only the count
                // of cell results folded back is meaningful.
                profile.record(Phase::RunnerMerge, SimDuration::ZERO);
            }
        }
        merged.traces.sort_canonical();
        merged.metrics.sort_canonical();
        (series, merged)
    }
}

/// What cells observed: traces, metric chunks and the phase profile.
#[derive(Debug, Default)]
pub(crate) struct Observations {
    pub(crate) traces: TraceSink,
    pub(crate) metrics: MetricsSink,
    /// `None` unless profiling was on.
    pub(crate) profile: Option<PhaseProfiler>,
}

impl Observations {
    /// One cell's drained observations, its traces and metric chunks
    /// tagged with the cell index [`ParallelRunner::run_cells`] sorts by.
    pub(crate) fn of_cell(
        index: usize,
        traces: Vec<InvocationTrace>,
        metrics: impl IntoIterator<Item = MetricsChunk>,
        profile: Option<PhaseProfiler>,
    ) -> Observations {
        let cell = Some(index as u64);
        let mut observed = Observations::default();
        for mut trace in traces {
            trace.cell = cell;
            observed.traces.push(trace);
        }
        for mut chunk in metrics {
            chunk.cell = cell;
            observed.metrics.push(chunk);
        }
        Observations {
            profile,
            ..observed
        }
    }
}

impl Default for ParallelRunner {
    /// Defaults to the host's available parallelism (the CLI's `--jobs`
    /// default). Determinism does not depend on this value.
    fn default() -> ParallelRunner {
        ParallelRunner::available()
    }
}

/// The host's available parallelism, or 1 when it cannot be determined.
/// Only throughput depends on this value — results never do.
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for jobs in [1, 2, 3, 8, 64] {
            let out = ParallelRunner::new(jobs).run(37, |i| i * i);
            assert_eq!(
                out,
                (0..37).map(|i| i * i).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn worker_counts_are_invisible_in_the_output() {
        // Each item does seed-derived work: the archetype of a cell.
        let work = |i: usize| {
            use sebs_sim::rng::Rng;
            let mut rng = SimRng::new(77).child(i as u64).stream("cell");
            (0..100).fold(0u64, |acc, _| acc ^ rng.gen::<u64>())
        };
        let sequential = ParallelRunner::sequential().run(50, work);
        for jobs in [2, 4, 16] {
            assert_eq!(ParallelRunner::new(jobs).run(50, work), sequential);
        }
    }

    #[test]
    fn empty_and_single_item_runs() {
        let none: Vec<u32> = ParallelRunner::new(8).run(0, |_| 1);
        assert!(none.is_empty());
        assert_eq!(ParallelRunner::new(8).run(1, |i| i + 1), vec![1]);
    }

    #[test]
    fn zero_jobs_clamps_to_one() {
        assert_eq!(ParallelRunner::new(0).jobs(), 1);
        assert!(ParallelRunner::available().jobs() >= 1);
        assert_eq!(available_jobs(), ParallelRunner::available().jobs());
    }

    #[test]
    fn grid_enumeration_is_canonical() {
        let grid = ExperimentGrid::new(
            &[("a", Language::Python), ("b", Language::NodeJs)],
            &[ProviderKind::Aws, ProviderKind::Gcp],
            &[128, 512],
        );
        assert_eq!(grid.len(), 8);
        assert!(!grid.is_empty());
        let cells = grid.cells();
        assert_eq!(cells.len(), 8);
        // Benchmark-major, then provider, then memory.
        assert_eq!(cells[0].benchmark, "a");
        assert_eq!(cells[0].provider, ProviderKind::Aws);
        assert_eq!(cells[0].memory_mb, 128);
        assert_eq!(cells[1].memory_mb, 512);
        assert_eq!(cells[2].provider, ProviderKind::Gcp);
        assert_eq!(cells[4].benchmark, "b");
        assert_eq!(cells[4].language, Language::NodeJs);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
            assert_eq!(c.repetition, 0);
        }
    }

    #[test]
    fn repetitions_multiply_cells() {
        let grid = ExperimentGrid::new(&[("a", Language::Python)], &[ProviderKind::Aws], &[256])
            .with_repetitions(3);
        let cells = grid.cells();
        assert_eq!(cells.len(), 3);
        assert_eq!(
            cells.iter().map(|c| c.repetition).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn cell_seeds_are_independent_and_stable() {
        let grid = ExperimentGrid::new(
            &[("a", Language::Python)],
            &[ProviderKind::Aws, ProviderKind::Gcp],
            &[128],
        );
        let cells = grid.cells();
        assert_ne!(cells[0].seed(2021), cells[1].seed(2021), "salted apart");
        assert_ne!(cells[0].seed(2021), cells[0].seed(2022), "root matters");
        assert_eq!(cells[0].seed(2021), grid.cells()[0].seed(2021), "stable");
        // The per-cell suite carries the salted seed.
        let config = SuiteConfig::fast().with_seed(2021);
        assert_eq!(cells[1].suite(&config).config().seed, cells[1].seed(2021));
    }
}
