//! The paper's experiments (§6), one driver per module:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`local`] | Table 4 — local benchmark characterization |
//! | [`perf_cost`] | Figure 3 (warm perf), Figure 5a (cost of 1M), Figure 5b (billed vs used) |
//! | [`cold_start`] | Figure 4 — cold-start overhead ratios |
//! | [`invocation_overhead`] | Figure 6 — invocation overhead vs payload, with clock sync |
//! | [`eviction`] | Figure 7, Table 7, Equations 1–2 — container eviction model |
//! | [`faas_vs_iaas`] | Table 5 — FaaS vs EC2 t2.micro |
//! | [`break_even`] | Table 6 — FaaS/IaaS break-even request rates |
//! | [`availability`] | §6.2 Q3 extended — goodput/cost under injected faults |
//! | [`fleet`] | beyond the paper — trace-driven fleet replay (Azure 2019 shape) |
//! | [`cluster`] | beyond the paper — multi-host fault domains: scheduler × keep-alive × host faults |

pub mod availability;
pub mod break_even;
pub mod cluster;
pub mod cold_start;
pub mod eviction;
pub mod faas_vs_iaas;
pub mod fleet;
pub mod invocation_overhead;
pub mod local;
pub mod perf_cost;
mod replay;

pub use availability::{run_availability, AvailabilityResult, AvailabilitySeries, LabeledPolicy};
pub use break_even::{run_break_even, BreakEvenRow};
pub use cluster::{
    run_cluster, ClusterCell, ClusterSeries, ClusterSweepConfig, ClusterSweepResult,
};
pub use cold_start::{run_cold_start, run_cold_start_with, ColdStartResult};
pub use eviction::{run_eviction_model, EvictionExperimentConfig, EvictionModelResult};
pub use faas_vs_iaas::{run_faas_vs_iaas, FaasVsIaasRow};
pub use fleet::{run_fleet, FleetCellSeries, FleetConfig, FleetResult};
pub use invocation_overhead::{
    run_invocation_overhead, run_invocation_overhead_all, InvocationOverheadResult,
};
pub use local::{run_local_characterization, LocalRow};
pub use perf_cost::{run_perf_cost, run_perf_cost_grid, PerfCostResult, PerfCostSeries};
