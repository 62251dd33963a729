//! The span trees of the box's traces. `FaasPlatform` captures a
//! [`KeptTrace`] only for an invocation its collector admits, and the tree
//! is laid out from that record only if it is still kept when the traces
//! are drained. Every child interval is derived from the same quantities
//! that produced the invocation's record, so the tree tiles
//! `[submitted_at, submitted_at + client_time)` exactly and `validate()`
//! always holds.

use std::rc::Rc;

use sebs_sim::{SimDuration, SimTime};
use sebs_storage::{Bandwidth, StorageOp};
use sebs_trace::{InvocationTrace, TraceRecord, TraceSpan};
use sebs_workloads::{IoEvent, IoKind};

use super::invoke::Served;
use super::Deployed;
use crate::chain::ChainTimeline;
use crate::invocation::{AttemptChain, InvocationOutcome, InvocationRecord, StartKind};
use crate::provider::ProviderKind;

/// What the box keeps for an admitted trace until its collector drains.
pub(super) enum KeptTrace {
    /// One invocation.
    Invocation(Invocation),
    /// A chain of more than one attempt, laid out at admission.
    Chain(InvocationTrace),
}

impl KeptTrace {
    /// The trace of attempt chain `seq`, started at `start`, from the
    /// driver's timeline.
    pub(super) fn chain(
        deployed: &Deployed,
        provider: ProviderKind,
        seq: u64,
        chain: &AttemptChain,
        timeline: &ChainTimeline,
        start: SimTime,
    ) -> KeptTrace {
        KeptTrace::Chain(InvocationTrace {
            provider: provider.to_string(),
            benchmark: deployed.config.name.clone(),
            memory_mb: deployed.effective_memory_mb,
            cell: None,
            seq,
            root: chain_span(chain, timeline, start),
        })
    }
}

impl TraceRecord for KeptTrace {
    fn build(self, seq: u64) -> InvocationTrace {
        match self {
            KeptTrace::Invocation(invocation) => invocation.trace(seq),
            KeptTrace::Chain(trace) => trace.build(seq),
        }
    }
}

/// An invocation's record, and the phase results of a request that got a
/// sandbox; a request rejected before one has none and gets a root-only
/// tree.
pub(super) struct Invocation {
    pub(super) deployed: Rc<Deployed>,
    pub(super) provider: ProviderKind,
    pub(super) record: InvocationRecord,
    pub(super) served: Option<Served>,
}

impl Invocation {
    fn trace(&self, seq: u64) -> InvocationTrace {
        InvocationTrace {
            provider: self.provider.to_string(),
            benchmark: self.deployed.config.name.clone(),
            memory_mb: self.record.configured_memory_mb,
            cell: None,
            seq,
            root: self.span(),
        }
    }

    /// The root span with its args; `start` is the start kind of a served
    /// request.
    fn root(&self, start: Option<&'static str>) -> TraceSpan {
        let record = &self.record;
        let mut root = TraceSpan::new("invocation", record.submitted_at, record.client_time)
            .with_arg("benchmark", self.deployed.config.name.as_str())
            .with_arg("provider", self.provider.to_string());
        if let Some(start) = start {
            root = root.with_arg("start", start);
        }
        root.with_arg("outcome", record.outcome.label())
            .with_arg("memory_mb", record.configured_memory_mb.to_string())
            .with_arg("concurrency", record.concurrency.to_string())
    }

    /// Lays out the span tree: the root alone for a rejected request.
    fn span(&self) -> TraceSpan {
        let record = &self.record;
        let Some(served) = &self.served else {
            return self.root(None);
        };
        let (legs, overhead, io) = (&served.legs, served.overhead, &served.io);
        let start_kind = if record.start == StartKind::Cold {
            "cold"
        } else {
            "warm"
        };
        let t0 = record.submitted_at;
        let mut root = self.root(Some(start_kind));
        let mut cursor = t0;

        let request_leg = legs.rtt / 2 + legs.req_transfer;
        root.push_child(TraceSpan::new("network.request", cursor, request_leg));
        cursor += request_leg;

        root.push_child(TraceSpan::new(
            "trigger.dispatch",
            cursor,
            legs.trigger_overhead,
        ));
        cursor += legs.trigger_overhead;

        let cold_init = served.cold.map_or(SimDuration::ZERO, |b| b.total());
        let mut acquire =
            TraceSpan::new("sandbox.acquire", cursor, cold_init).with_arg("start", start_kind);
        if let Some(bd) = &served.cold {
            let mut at = cursor;
            for (phase, dur) in [
                ("cold.provisioning", bd.provisioning),
                ("cold.package-fetch", bd.package_fetch),
                ("cold.runtime-boot", bd.runtime_boot),
                ("cold.user-init", bd.user_init),
                ("cold.noise", bd.noise),
            ] {
                acquire.push_child(TraceSpan::new(phase, at, dur));
                at += dur;
            }
        }
        root.push_child(acquire);
        cursor += cold_init;

        let exec_dur = record.benchmark_time + overhead;
        let exec_end = cursor + exec_dur;
        let mut exec = TraceSpan::new("execute", cursor, exec_dur);
        if matches!(record.outcome, InvocationOutcome::Timeout) {
            // The run was cut off at the limit, so per-operation sub-spans
            // would spill past the truncated window.
            exec = exec.with_arg("truncated", "true");
        } else {
            let mut at = cursor;
            exec.push_child(TraceSpan::new("runtime.overhead", at, overhead));
            at += overhead;
            for ev in &io.events {
                // Per-op durations are scaled like the aggregate io_time;
                // clamping absorbs sub-nanosecond float rounding.
                let scaled = ev.duration.mul_f64(io.contention / io.io_scale);
                let dur = scaled.min(remaining_until(at, exec_end));
                exec.push_child(io_span(ev, at, dur, io.bandwidth));
                at += dur;
            }
            exec.push_child(TraceSpan::new(
                "exec.compute",
                at,
                remaining_until(at, exec_end),
            ));
        }
        root.push_child(exec);
        cursor = exec_end;

        root.push_child(
            TraceSpan::new("billing.finalize", cursor, SimDuration::ZERO)
                .with_arg(
                    "billed_ms",
                    format!("{:.3}", record.bill.billed_duration.as_millis_f64()),
                )
                .with_arg("cost_usd", format!("{:.9}", record.bill.total_usd())),
        );
        root.push_child(TraceSpan::new(
            "network.response",
            cursor,
            remaining_until(cursor, t0 + record.client_time),
        ));
        root
    }
}

fn io_span(ev: &IoEvent, at: SimTime, dur: SimDuration, bandwidth: Bandwidth) -> TraceSpan {
    match ev.kind {
        IoKind::Get | IoKind::Put => {
            let op = if ev.kind == IoKind::Get {
                StorageOp::Get
            } else {
                StorageOp::Put
            };
            TraceSpan::new(format!("storage.{}", op.name()), at, dur)
                .with_arg("object", format!("{}/{}", ev.bucket, ev.key))
                .with_arg("bytes", ev.bytes.to_string())
                .with_arg(
                    "transfer_ms",
                    format!(
                        "{:.3}",
                        bandwidth.transfer_time(op, ev.bytes).as_millis_f64()
                    ),
                )
        }
        IoKind::External => TraceSpan::new("io.external", at, dur),
    }
}

fn remaining_until(at: SimTime, end: SimTime) -> SimDuration {
    if at < end {
        end - at
    } else {
        SimDuration::ZERO
    }
}

/// Lays out the synthetic span tree of an attempt chain from the
/// driver's timeline: `attempt` children, the `hedge` attempt at the
/// threshold offset it raced from, and a `backoff.wait` span ending where
/// each retry starts. The effective (possibly hedge-shortened) latency is
/// an arg on the root; the root interval covers the chain's full extent.
fn chain_span(chain: &AttemptChain, timeline: &ChainTimeline, start: SimTime) -> TraceSpan {
    let mut root = TraceSpan::new("invoke.chain", start, timeline.extent)
        .with_arg("outcome", chain.outcome.label())
        .with_arg("attempts", chain.attempts.len().to_string())
        .with_arg(
            "effective_client_ms",
            format!("{:.3}", chain.client_time.as_millis_f64()),
        );
    let mut retry = 0;
    for (i, (attempt, offset)) in chain.attempts.iter().zip(&timeline.starts).enumerate() {
        let at = start + *offset;
        if chain.hedged && i == 1 {
            root.push_child(
                TraceSpan::new("hedge", at, attempt.client_time)
                    .with_arg("outcome", attempt.outcome.label())
                    .with_arg("won", chain.hedge_won.to_string()),
            );
            continue;
        }
        if retry > 0 {
            let wait = chain.waits[retry - 1];
            root.push_child(TraceSpan::new("backoff.wait", at - wait, wait));
        }
        root.push_child(
            TraceSpan::new("attempt", at, attempt.client_time)
                .with_arg("index", retry.to_string())
                .with_arg("outcome", attempt.outcome.label()),
        );
        retry += 1;
    }
    root
}
