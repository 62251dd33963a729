//! A synthetic [`Workload`] driven by a [`FunctionProfile`].

use crate::model::FunctionProfile;
use sebs_sim::{Dist, StreamRng};
use sebs_storage::ObjectStorage;
use sebs_workloads::{
    InvocationCtx, Payload, Response, Scale, Workload, WorkloadError, WorkloadSpec,
};

/// Replays one fleet member's resource profile as an executable
/// workload: each invocation samples a body duration (expressed as
/// abstract work units) and a working-set size from the profile's
/// distributions on the sandbox's own RNG stream, and returns a
/// body-less [`Response::sized`] of the profile's response size, so an
/// invocation allocates nothing.
#[derive(Debug, Clone)]
pub struct SyntheticFunction {
    spec: WorkloadSpec,
    work: Dist,
    alloc_bytes: Dist,
    response_bytes: u64,
}

impl SyntheticFunction {
    /// Builds the workload for a target platform. `ops_per_ms` converts
    /// the profile's millisecond duration distribution into abstract
    /// work units — pass the provider's
    /// `compute_rate(memory_mb, language) / 1000`, so a sampled
    /// duration re-emerges as roughly that execution time on that
    /// provider/memory/language combination.
    pub fn from_profile(profile: &FunctionProfile, ops_per_ms: f64) -> SyntheticFunction {
        let mem_bytes = f64::from(profile.memory_mb) * 1024.0 * 1024.0;
        SyntheticFunction {
            spec: WorkloadSpec {
                name: profile.name.clone(),
                language: profile.language,
                dependencies: Vec::new(),
                code_package_bytes: 1_000_000,
                default_memory_mb: profile.memory_mb,
            },
            work: profile.duration_ms.scaled(ops_per_ms.max(0.0)),
            alloc_bytes: profile.alloc_fraction.scaled(mem_bytes),
            response_bytes: profile.response_bytes,
        }
    }
}

impl Workload for SyntheticFunction {
    fn spec(&self) -> WorkloadSpec {
        self.spec.clone()
    }

    fn prepare(
        &self,
        _scale: Scale,
        _rng: &mut StreamRng,
        _storage: &mut dyn ObjectStorage,
    ) -> Payload {
        Payload::empty()
    }

    fn execute(
        &self,
        _payload: &Payload,
        ctx: &mut InvocationCtx<'_>,
    ) -> Result<Response, WorkloadError> {
        let bytes = self.alloc_bytes.sample(ctx.rng()) as u64;
        let work = self.work.sample(ctx.rng()) as u64;
        ctx.alloc(bytes);
        ctx.work(work);
        ctx.free(bytes);
        Ok(Response::sized(self.response_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebs_sim::SimRng;
    use sebs_storage::SimObjectStore;

    fn profile() -> FunctionProfile {
        let mut p = FunctionProfile::new("fn-test", 256, Dist::Constant(200.0));
        p.alloc_fraction = Dist::Constant(0.25);
        p
    }

    #[test]
    fn execute_burns_scaled_work_and_memory() {
        let w = SyntheticFunction::from_profile(&profile(), 1_000.0);
        let mut storage = SimObjectStore::default_model();
        let mut rng = SimRng::new(1).stream("exec");
        let mut ctx = InvocationCtx::new(&mut storage, &mut rng);
        let resp = w.execute(&Payload::empty(), &mut ctx).unwrap();
        // 200 ms at 1000 ops/ms = 200k abstract instructions.
        assert_eq!(ctx.counters().instructions, 200_000);
        // 25 % of 256 MB touched, then released.
        assert_eq!(ctx.peak_alloc_bytes(), 256 * 1024 * 1024 / 4);
        assert_eq!(ctx.live_alloc_bytes(), 0);
        assert_eq!(resp, Response::sized(1024), "the profile's size, no body");
        assert_eq!(w.spec().default_memory_mb, 256);
    }

    #[test]
    fn stochastic_profiles_draw_from_the_sandbox_stream() {
        let mut p = profile();
        p.duration_ms = Dist::LogNormal {
            mu: 4.0,
            sigma: 0.5,
        };
        let w = SyntheticFunction::from_profile(&p, 1_000.0);
        let mut storage = SimObjectStore::default_model();
        let mut run = |seed: u64| {
            let mut rng = SimRng::new(seed).stream("exec");
            let mut ctx = InvocationCtx::new(&mut storage, &mut rng);
            w.execute(&Payload::empty(), &mut ctx).unwrap();
            ctx.counters().instructions
        };
        assert_eq!(run(5), run(5), "same stream, same draw");
        assert_ne!(run(5), run(6), "different stream, different draw");
    }
}
