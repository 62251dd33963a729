//! Fleet-scale workload generation for SeBS-RS.
//!
//! Every experiment in `sebs` up to now synthesized its own small
//! invocation stream. This crate describes *fleets*: thousands of
//! functions, each with its own arrival process (Poisson or bursty
//! MMPP, optionally modulated by a diurnal profile), Zipf-distributed
//! popularity, and per-function duration/memory distributions reusing
//! [`sebs_sim::Dist`]. A [`TraceModel`] expands deterministically into a
//! time-ordered stream of arrivals ([`TraceModel::arrivals`], which the
//! `sebs fleet` experiment replays cell by cell through the platform
//! model) or, collected, into a [`FleetTrace`].
//!
//! Two front doors:
//!
//! * [`SyntheticSpec::azure_2019`] — a seeded generator parameterized to
//!   match the published shape of the Azure Functions 2019 trace
//!   (Shahrad et al., ATC '20): a heavy-tailed popularity curve where a
//!   few functions receive most invocations, sub-second median
//!   durations with a long right tail, and mostly-small memory sizes.
//! * [`import_csv`] — a hand-rolled importer for external trace CSVs
//!   (zero registry dependencies) that *gracefully skips* (returns
//!   `Ok(None)`) when the file does not exist, so pipelines can carry
//!   an optional real-trace stage.
//!
//! Determinism rules: every random draw comes from a dedicated named
//! RNG stream (`fleet-arrival`/`fleet-attr`, indexed per function), no
//! hash-ordered iteration anywhere, and expanding the same model with
//! the same seed yields a byte-identical trace.

pub mod arrival;
pub mod import;
pub mod model;
pub mod synthetic;
pub mod workload;

pub use arrival::{ArrivalProcess, DiurnalProfile};
pub use import::{import_csv, parse_csv, ImportError};
pub use model::{Arrival, Arrivals, FleetFunction, FleetTrace, FunctionProfile, TraceModel};
pub use synthetic::{zipf_weights, SyntheticSpec};
pub use workload::SyntheticFunction;
