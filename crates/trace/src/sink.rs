//! Trace collection with the same determinism contract as `ResultStore`:
//! each platform numbers and keeps its own traces ([`TraceCollector`]), and
//! a run merges its cells' traces in canonical order ([`TraceSink`]).

use sebs_sim::SimDuration;

use crate::sampler::{Admission, SamplerSpec, TraceSampler};
use crate::span::TraceSpan;

/// The span tree of one invocation plus its canonical coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct InvocationTrace {
    /// Provider name, e.g. `aws`.
    pub provider: String,
    /// Benchmark name, e.g. `graph-bfs`.
    pub benchmark: String,
    /// Configured memory in MB.
    pub memory_mb: u32,
    /// Grid-cell index when the invocation ran inside a grid experiment;
    /// `None` for ad-hoc invocations. The canonical sort key.
    pub cell: Option<u64>,
    /// Per-platform invocation sequence number — deterministic because
    /// every platform invokes in submission order.
    pub seq: u64,
    /// The root `invocation` span.
    pub root: TraceSpan,
}

/// What a collector keeps for an admitted invocation until it drains:
/// the inputs of the invocation's span tree, which is built only if the
/// record is still kept then.
pub trait TraceRecord {
    /// Builds the trace of the invocation numbered `seq`.
    fn build(self, seq: u64) -> InvocationTrace;
}

/// A tree built at admission is its own record.
impl TraceRecord for InvocationTrace {
    fn build(self, seq: u64) -> InvocationTrace {
        debug_assert_eq!(self.seq, seq, "the kept trace is the admitted one");
        self
    }
}

/// Builds one kept record's trace; every drain goes through here.
pub(crate) fn build_trace<R: TraceRecord>(record: R, seq: u64) -> InvocationTrace {
    let trace = record.build(seq);
    debug_assert_eq!(
        trace.root.validate(),
        Ok(()),
        "the span tree of trace {seq} is well-formed"
    );
    trace
}

/// Numbers one platform's traces and keeps the record of every admitted
/// one, or of the bounded set a [`TraceSampler`] picks. Off until enabled.
///
/// A caller asks [`TraceCollector::admit`] with a trace's coordinates,
/// captures the invocation's [`TraceRecord`] only when it gets a
/// [`Pending`] back, and hands both to [`TraceCollector::keep`] before the
/// next admission. Each admission while collection is on takes the next
/// `seq`, kept or not. [`TraceCollector::take`] builds the span trees of
/// the records still kept.
#[derive(Debug)]
pub struct TraceCollector<R> {
    enabled: bool,
    next_seq: u64,
    /// When installed, it keeps the records and `all` stays empty.
    sampler: Option<TraceSampler<R>>,
    all: Vec<(u64, R)>,
}

impl<R> Default for TraceCollector<R> {
    fn default() -> TraceCollector<R> {
        TraceCollector {
            enabled: false,
            next_seq: 0,
            sampler: None,
            all: Vec::new(),
        }
    }
}

/// A numbered trace that [`TraceCollector::admit`] decided to keep.
#[derive(Debug)]
#[must_use = "an admitted trace must be handed to `TraceCollector::keep`"]
pub struct Pending {
    seq: u64,
    admission: Option<Admission>,
}

impl Pending {
    /// The admitted trace's sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

impl<R> TraceCollector<R> {
    /// Switches collection on or off; an installed sampler stays.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Switches collection on with a fresh sampler rooted at `seed`.
    pub fn enable_sampling(&mut self, spec: SamplerSpec, seed: u64) {
        self.enabled = true;
        self.sampler = Some(TraceSampler::new(spec, seed));
    }

    /// Whether traces are being collected.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Numbers the next trace, of function `name` with root-span
    /// `duration`, and decides whether it is kept. `None` when collection
    /// is off or the sampler drops the trace, which then need not be
    /// recorded.
    #[inline]
    pub fn admit(&mut self, name: &str, duration: SimDuration, failed: bool) -> Option<Pending> {
        if !self.enabled {
            return None;
        }
        self.number(name, duration, failed)
    }

    // Out of line, so a caller's collection-off path carries no inlined
    // copy of it.
    #[inline(never)]
    fn number(&mut self, name: &str, duration: SimDuration, failed: bool) -> Option<Pending> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let admission = match self.sampler.as_mut() {
            Some(sampler) => Some(sampler.admit(name, duration, seq, failed)?),
            None => None,
        };
        Some(Pending { seq, admission })
    }

    /// Keeps the record of the trace that `pending` admitted.
    // Out of line, like `number`: the caller's path for a trace that is
    // not kept carries no inlined copy of it.
    #[inline(never)]
    pub fn keep(&mut self, pending: Pending, record: R) {
        match (self.sampler.as_mut(), pending.admission) {
            (Some(sampler), Some(admission)) => sampler.keep(admission, record),
            _ => self.all.push((pending.seq, record)),
        }
    }

    /// Builds the traces of the records still kept and drains them in
    /// `seq` order; a sampler's counters and RNG streams carry on.
    pub fn take(&mut self) -> Vec<InvocationTrace>
    where
        R: TraceRecord,
    {
        match self.sampler.as_mut() {
            Some(sampler) => sampler.drain(),
            None => self
                .all
                .drain(..)
                .map(|(seq, record)| build_trace(record, seq))
                .collect(),
        }
    }
}

/// Collects [`InvocationTrace`]s and merges them in canonical cell order.
///
/// Grid experiments give every worker thread its own sink (no locks, no
/// sharing); the driver then merges the per-cell sinks and calls
/// [`TraceSink::sort_canonical`], mirroring `ResultStore::merge` +
/// `sort_by_tag_index("cell")`. Exported bytes are therefore identical for
/// every `--jobs` value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSink {
    traces: Vec<InvocationTrace>,
}

impl TraceSink {
    /// An empty sink.
    pub fn new() -> TraceSink {
        TraceSink::default()
    }

    /// Adds one trace.
    pub fn push(&mut self, trace: InvocationTrace) {
        self.traces.push(trace);
    }

    /// Adds many traces, preserving their order.
    pub fn extend(&mut self, traces: impl IntoIterator<Item = InvocationTrace>) {
        self.traces.extend(traces);
    }

    /// Absorbs another sink (e.g. one worker's collection).
    pub fn merge(&mut self, other: TraceSink) {
        self.traces.extend(other.traces);
    }

    /// Sorts into canonical order: traces without a cell first (in
    /// insertion order), then by ascending cell index with the per-cell
    /// sequence preserved. The sort is stable, so merging per-cell sinks in
    /// any order followed by `sort_canonical` yields identical bytes.
    pub fn sort_canonical(&mut self) {
        self.traces
            .sort_by_key(|t| (t.cell.is_some(), t.cell.unwrap_or(0), t.seq));
    }

    /// Number of collected traces.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// `true` when nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// The collected traces, in current order.
    pub fn traces(&self) -> &[InvocationTrace] {
        &self.traces
    }

    /// Total number of spans across all traces.
    pub fn span_count(&self) -> usize {
        self.traces.iter().map(|t| t.root.span_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebs_sim::SimTime;
    use std::cell::Cell;

    fn trace(cell: Option<u64>, seq: u64) -> InvocationTrace {
        InvocationTrace {
            provider: "aws".into(),
            benchmark: "graph-bfs".into(),
            memory_mb: 512,
            cell,
            seq,
            root: TraceSpan::new(
                "invocation",
                SimTime::ZERO,
                SimDuration::from_millis(seq + 1),
            ),
        }
    }

    #[test]
    fn canonical_order_is_merge_order_independent() {
        // Worker A finished cells 2 and 0, worker B finished cell 1: the
        // merged order must not depend on which worker merged first.
        let mut a = TraceSink::new();
        a.extend([trace(Some(2), 0), trace(Some(0), 0), trace(Some(0), 1)]);
        let mut b = TraceSink::new();
        b.push(trace(Some(1), 0));

        let mut ab = TraceSink::new();
        ab.merge(a.clone());
        ab.merge(b.clone());
        ab.sort_canonical();

        let mut ba = TraceSink::new();
        ba.merge(b);
        ba.merge(a);
        ba.sort_canonical();

        assert_eq!(ab, ba);
        let cells: Vec<Option<u64>> = ab.traces().iter().map(|t| t.cell).collect();
        assert_eq!(cells, vec![Some(0), Some(0), Some(1), Some(2)]);
        let seqs: Vec<u64> = ab.traces().iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![0, 1, 0, 0], "per-cell sequence is preserved");
    }

    #[test]
    fn untagged_traces_sort_first() {
        let mut s = TraceSink::new();
        s.extend([trace(Some(3), 0), trace(None, 7), trace(None, 2)]);
        s.sort_canonical();
        let cells: Vec<Option<u64>> = s.traces().iter().map(|t| t.cell).collect();
        assert_eq!(cells, vec![None, None, Some(3)]);
        assert_eq!(s.traces()[0].seq, 2, "untagged traces order by seq");
    }

    #[test]
    fn counts() {
        let mut s = TraceSink::new();
        assert!(s.is_empty());
        s.push(trace(None, 0));
        assert_eq!(s.len(), 1);
        assert_eq!(s.span_count(), 1);
    }

    fn collect(c: &mut TraceCollector<InvocationTrace>, function: &str, millis: u64, failed: bool) {
        let duration = SimDuration::from_millis(millis);
        if let Some(pending) = c.admit(function, duration, failed) {
            let root = TraceSpan::new("invocation", SimTime::ZERO, duration);
            let trace = InvocationTrace {
                provider: "aws".into(),
                benchmark: function.into(),
                memory_mb: 256,
                cell: None,
                seq: pending.seq(),
                root,
            };
            c.keep(pending, trace);
        }
    }

    #[test]
    fn off_by_default_and_numbers_only_while_on() {
        let mut c = TraceCollector::default();
        collect(&mut c, "f", 5, false);
        assert!(c.take().is_empty(), "nothing is collected while off");
        c.set_enabled(true);
        collect(&mut c, "f", 5, false);
        collect(&mut c, "g", 7, true);
        c.set_enabled(false);
        collect(&mut c, "f", 9, false);
        let kept = c.take();
        let seqs: Vec<u64> = kept.iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![0, 1], "numbered from the first traced call");
        assert_eq!(kept[1].benchmark, "g");
        assert_eq!(kept[1].provider, "aws");
        assert!(c.take().is_empty(), "take drains");
    }

    /// A record that counts the trees built from it.
    struct Counted<'a> {
        builds: &'a Cell<usize>,
        function: &'static str,
        duration: SimDuration,
    }

    impl TraceRecord for Counted<'_> {
        fn build(self, seq: u64) -> InvocationTrace {
            self.builds.set(self.builds.get() + 1);
            InvocationTrace {
                provider: "aws".into(),
                benchmark: self.function.into(),
                memory_mb: 256,
                cell: None,
                seq,
                root: TraceSpan::new("invocation", SimTime::ZERO, self.duration),
            }
        }
    }

    #[test]
    fn only_records_still_kept_at_the_drain_are_built() {
        let spec = SamplerSpec::fleet_default();
        let builds = Cell::new(0);
        let mut c = TraceCollector::default();
        c.enable_sampling(spec, 7);
        let mut admitted = 0;
        for i in 0..5_000u64 {
            let function = ["a", "b", "c"][i as usize % 3];
            let duration = SimDuration::from_millis(i % 97);
            if let Some(pending) = c.admit(function, duration, i % 500 == 0) {
                admitted += 1;
                let record = Counted {
                    builds: &builds,
                    function,
                    duration,
                };
                c.keep(pending, record);
            }
        }
        assert_eq!(builds.get(), 0, "admission builds nothing");
        let kept = c.take();
        assert_eq!(builds.get(), kept.len(), "one tree per kept trace");
        assert!(kept.len() <= spec.max_kept(3), "kept {}", kept.len());
        assert!(
            admitted > 2 * kept.len(),
            "{admitted} admitted, evicted unbuilt"
        );
        let seqs: Vec<u64> = kept.iter().map(|t| t.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "built in seq order");
    }

    #[test]
    fn sampling_after_enabling_still_samples() {
        let spec = SamplerSpec {
            reservoir_per_fn: 1,
            slowest_k: 1,
            error_k: 0,
        };
        let mut c = TraceCollector::default();
        c.set_enabled(true);
        c.enable_sampling(spec, 3);
        for i in 0..100 {
            collect(&mut c, "f", i % 10, false);
        }
        let kept = c.take();
        assert!(!kept.is_empty());
        assert!(kept.len() <= spec.max_kept(1), "kept {}", kept.len());
        // Switching collection off and on keeps the sampler installed.
        c.set_enabled(false);
        c.set_enabled(true);
        for i in 0..100 {
            collect(&mut c, "f", i % 10, false);
        }
        assert!(c.take().len() <= spec.max_kept(1));
    }
}
