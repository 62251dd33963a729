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

use super::Deployed;
use crate::billing::InvocationBill;
use crate::chain::ChainTimeline;
use crate::coldstart::ColdStartBreakdown;
use crate::invocation::{AttemptChain, InvocationOutcome, InvocationRecord, StartKind};
use crate::provider::ProviderKind;

/// What the box keeps for an admitted trace until its collector drains.
pub(super) enum KeptTrace {
    /// An invocation that acquired a sandbox and ran.
    Executed(Executed),
    /// A request rejected before a sandbox was acquired: a root-only tree.
    Rejected(Root),
    /// A chain of more than one attempt, laid out at admission.
    Chain(InvocationTrace),
}

impl KeptTrace {
    /// The record of an executed invocation.
    pub(super) fn executed(
        deployed: Rc<Deployed>,
        provider: ProviderKind,
        record: &InvocationRecord,
        parts: SpanParts,
    ) -> KeptTrace {
        KeptTrace::Executed(Executed {
            root: Root::of(deployed, provider, record),
            start: record.start,
            timed_out: matches!(record.outcome, InvocationOutcome::Timeout),
            benchmark_time: record.benchmark_time,
            bill: record.bill,
            parts,
        })
    }

    /// The record of a rejected request.
    pub(super) fn rejected(
        deployed: Rc<Deployed>,
        provider: ProviderKind,
        record: &InvocationRecord,
    ) -> KeptTrace {
        KeptTrace::Rejected(Root::of(deployed, provider, record))
    }

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
            KeptTrace::Executed(executed) => {
                let root = executed.span();
                executed.root.trace(seq, root)
            }
            KeptTrace::Rejected(rejected) => {
                let root = rejected.span(None);
                rejected.trace(seq, root)
            }
            KeptTrace::Chain(trace) => trace.build(seq),
        }
    }
}

/// The facts of the root `invocation` span, shared by executed and
/// rejected invocations.
pub(super) struct Root {
    deployed: Rc<Deployed>,
    provider: ProviderKind,
    outcome: &'static str,
    submitted_at: SimTime,
    client_time: SimDuration,
    memory_mb: u32,
    concurrency: u32,
}

impl Root {
    fn of(deployed: Rc<Deployed>, provider: ProviderKind, record: &InvocationRecord) -> Root {
        Root {
            deployed,
            provider,
            outcome: record.outcome.label(),
            submitted_at: record.submitted_at,
            client_time: record.client_time,
            memory_mb: record.configured_memory_mb,
            concurrency: record.concurrency,
        }
    }

    /// The root span with its args; `start` is the start kind of an
    /// executed invocation.
    fn span(&self, start: Option<&'static str>) -> TraceSpan {
        let mut root = TraceSpan::new("invocation", self.submitted_at, self.client_time)
            .with_arg("benchmark", self.deployed.config.name.as_str())
            .with_arg("provider", self.provider.to_string());
        if let Some(start) = start {
            root = root.with_arg("start", start);
        }
        root.with_arg("outcome", self.outcome)
            .with_arg("memory_mb", self.memory_mb.to_string())
            .with_arg("concurrency", self.concurrency.to_string())
    }

    fn trace(&self, seq: u64, root: TraceSpan) -> InvocationTrace {
        InvocationTrace {
            provider: self.provider.to_string(),
            benchmark: self.deployed.config.name.clone(),
            memory_mb: self.memory_mb,
            cell: None,
            seq,
            root,
        }
    }
}

/// The intermediate quantities of `invoke_one` that the span layout needs,
/// with the invocation's recorded I/O and the store's bandwidth at the
/// time, so the layout depends on no platform state.
pub(super) struct SpanParts {
    pub(super) rtt: SimDuration,
    pub(super) trigger_overhead: SimDuration,
    pub(super) req_transfer: SimDuration,
    pub(super) cold_breakdown: Option<ColdStartBreakdown>,
    pub(super) sandbox_overhead: SimDuration,
    pub(super) penalty: SimDuration,
    pub(super) contention: f64,
    pub(super) io_scale: f64,
    pub(super) io_events: Vec<IoEvent>,
    pub(super) bandwidth: Bandwidth,
}

/// An executed invocation's record.
pub(super) struct Executed {
    root: Root,
    start: StartKind,
    timed_out: bool,
    benchmark_time: SimDuration,
    bill: InvocationBill,
    parts: SpanParts,
}

impl Executed {
    /// Lays out the full span tree.
    fn span(&self) -> TraceSpan {
        let parts = &self.parts;
        let start_kind = if self.start == StartKind::Cold {
            "cold"
        } else {
            "warm"
        };
        let t0 = self.root.submitted_at;
        let mut root = self.root.span(Some(start_kind));
        let mut cursor = t0;

        let request_leg = parts.rtt / 2 + parts.req_transfer;
        root.push_child(TraceSpan::new("network.request", cursor, request_leg));
        cursor += request_leg;

        root.push_child(TraceSpan::new(
            "trigger.dispatch",
            cursor,
            parts.trigger_overhead,
        ));
        cursor += parts.trigger_overhead;

        let cold_init = parts
            .cold_breakdown
            .as_ref()
            .map_or(SimDuration::ZERO, |b| b.total());
        let mut acquire =
            TraceSpan::new("sandbox.acquire", cursor, cold_init).with_arg("start", start_kind);
        if let Some(bd) = &parts.cold_breakdown {
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

        let exec_dur = self.benchmark_time + parts.sandbox_overhead + parts.penalty;
        let exec_end = cursor + exec_dur;
        let mut exec = TraceSpan::new("execute", cursor, exec_dur);
        if self.timed_out {
            // The run was cut off at the limit, so per-operation sub-spans
            // would spill past the truncated window.
            exec = exec.with_arg("truncated", "true");
        } else {
            let overhead = parts.sandbox_overhead + parts.penalty;
            let mut at = cursor;
            exec.push_child(TraceSpan::new("runtime.overhead", at, overhead));
            at += overhead;
            for ev in &parts.io_events {
                // Per-op durations are scaled like the aggregate io_time;
                // clamping absorbs sub-nanosecond float rounding.
                let scaled = ev.duration.mul_f64(parts.contention / parts.io_scale);
                let dur = scaled.min(remaining_until(at, exec_end));
                exec.push_child(io_span(ev, at, dur, parts.bandwidth));
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
                    format!("{:.3}", self.bill.billed_duration.as_millis_f64()),
                )
                .with_arg("cost_usd", format!("{:.9}", self.bill.total_usd())),
        );
        root.push_child(TraceSpan::new(
            "network.response",
            cursor,
            remaining_until(cursor, t0 + self.root.client_time),
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
