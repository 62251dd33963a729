//! The span tree: one phase of an invocation as a sim-time interval.

use sebs_sim::{SimDuration, SimTime};

/// One phase of an invocation: a named `[start, start + duration)` interval
/// in sim-time with string arguments and nested child phases.
///
/// # Example
///
/// ```
/// use sebs_sim::{SimDuration, SimTime};
/// use sebs_trace::TraceSpan;
///
/// let mut root = TraceSpan::new("invocation", SimTime::ZERO, SimDuration::from_millis(10));
/// root.push_child(TraceSpan::new(
///     "execute",
///     SimTime::from_nanos(1_000_000),
///     SimDuration::from_millis(8),
/// ));
/// assert!(root.validate().is_ok());
/// assert_eq!(root.span_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Phase name, e.g. `sandbox.acquire` or `storage.get`.
    pub name: String,
    /// Start instant in sim-time.
    pub start: SimTime,
    /// Phase duration (zero-length spans mark instants, e.g. billing).
    pub duration: SimDuration,
    /// String arguments, serialized in insertion order.
    pub args: Vec<(String, String)>,
    /// Child phases, each contained in this span's interval.
    pub children: Vec<TraceSpan>,
}

impl TraceSpan {
    /// Creates a leaf span.
    pub fn new(name: impl Into<String>, start: SimTime, duration: SimDuration) -> TraceSpan {
        TraceSpan {
            name: name.into(),
            start,
            duration,
            args: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Adds an argument (builder style).
    pub fn with_arg(mut self, key: impl Into<String>, value: impl Into<String>) -> TraceSpan {
        self.args.push((key.into(), value.into()));
        self
    }

    /// End instant (`start + duration`).
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }

    /// Appends a child phase.
    pub fn push_child(&mut self, child: TraceSpan) {
        self.children.push(child);
    }

    /// Total number of spans in this subtree, the root included.
    pub fn span_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(TraceSpan::span_count)
            .sum::<usize>()
    }

    /// First descendant (depth-first, pre-order) with the given name; the
    /// span itself is considered first.
    pub fn find(&self, name: &str) -> Option<&TraceSpan> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Visits every span depth-first (pre-order) with its nesting depth.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a TraceSpan, usize)) {
        self.walk_at(0, f);
    }

    fn walk_at<'a>(&'a self, depth: usize, f: &mut impl FnMut(&'a TraceSpan, usize)) {
        f(self, depth);
        for c in &self.children {
            c.walk_at(depth + 1, f);
        }
    }

    /// Checks the structural invariants of the subtree: every child lies
    /// inside its parent's interval and siblings start in non-decreasing
    /// order.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let mut prev_start: Option<SimTime> = None;
        for c in &self.children {
            if c.start < self.start || c.end() > self.end() {
                return Err(format!(
                    "child `{}` [{}, {}) escapes parent `{}` [{}, {})",
                    c.name,
                    c.start,
                    c.end(),
                    self.name,
                    self.start,
                    self.end()
                ));
            }
            if let Some(p) = prev_start {
                if c.start < p {
                    return Err(format!(
                        "child `{}` starts at {} before its predecessor at {}",
                        c.name, c.start, p
                    ));
                }
            }
            prev_start = Some(c.start);
            c.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn at(v: u64) -> SimTime {
        SimTime::ZERO + ms(v)
    }

    fn sample_tree() -> TraceSpan {
        let mut root = TraceSpan::new("invocation", at(0), ms(100));
        let mut exec = TraceSpan::new("execute", at(10), ms(80));
        exec.push_child(TraceSpan::new("storage.get", at(15), ms(20)));
        exec.push_child(TraceSpan::new("exec.compute", at(35), ms(50)));
        root.push_child(TraceSpan::new("network.request", at(0), ms(10)));
        root.push_child(exec);
        root.push_child(TraceSpan::new("billing.finalize", at(90), ms(0)));
        root
    }

    #[test]
    fn nesting_and_counts() {
        let root = sample_tree();
        assert!(root.validate().is_ok());
        assert_eq!(root.span_count(), 6);
        assert_eq!(root.end(), at(100));
        assert_eq!(root.find("exec.compute").unwrap().duration, ms(50));
        assert!(root.find("nope").is_none());
    }

    #[test]
    fn walk_is_preorder_with_depths() {
        // Depth-first pre-order is the export order.
        let root = sample_tree();
        let mut seen = Vec::new();
        root.walk(&mut |s, d| seen.push((s.name.clone(), d)));
        assert_eq!(
            seen,
            vec![
                ("invocation".to_string(), 0),
                ("network.request".to_string(), 1),
                ("execute".to_string(), 1),
                ("storage.get".to_string(), 2),
                ("exec.compute".to_string(), 2),
                ("billing.finalize".to_string(), 1),
            ]
        );
    }

    #[test]
    fn escaping_child_is_rejected() {
        let mut root = TraceSpan::new("root", at(0), ms(10));
        root.push_child(TraceSpan::new("late", at(5), ms(10)));
        let err = root.validate().unwrap_err();
        assert!(err.contains("escapes parent"), "{err}");
    }

    #[test]
    fn out_of_order_siblings_are_rejected() {
        let mut root = TraceSpan::new("root", at(0), ms(10));
        root.push_child(TraceSpan::new("b", at(5), ms(1)));
        root.push_child(TraceSpan::new("a", at(1), ms(1)));
        let err = root.validate().unwrap_err();
        assert!(err.contains("before its predecessor"), "{err}");
    }

    #[test]
    fn zero_duration_spans_validate() {
        let mut root = TraceSpan::new("root", at(0), ms(10));
        root.push_child(TraceSpan::new("instant", at(10), ms(0)));
        assert!(root.validate().is_ok());
    }

    #[test]
    fn args_keep_insertion_order() {
        let s = TraceSpan::new("s", at(0), ms(1))
            .with_arg("z", "1")
            .with_arg("a", "2");
        assert_eq!(s.args[0].0, "z");
        assert_eq!(s.args[1].0, "a");
    }
}
