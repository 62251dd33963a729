//! Hand-rolled CSV trace importer (zero registry dependencies).
//!
//! Format — one invocation per row, comma-separated:
//!
//! ```csv
//! function,offset_ms,duration_ms,memory_mb
//! checkout,0,120,256
//! checkout,1500,95,256
//! thumbnail,200,440,512
//! ```
//!
//! * `function` — fleet member name (rows may appear in any order).
//! * `offset_ms` — arrival instant as milliseconds from trace start.
//! * `duration_ms` *(optional)* — observed body duration; all observed
//!   values become the function's [`Dist::Empirical`] duration model.
//! * `memory_mb` *(optional)* — configured memory; the maximum observed
//!   value wins (default 256).
//!
//! Blank lines and `#` comments are skipped; a leading header row is
//! detected by its non-numeric second field. [`import_csv`] *gracefully
//! skips* — returns `Ok(None)` — when the file does not exist, so an
//! optional real-trace stage never breaks a pipeline.

use crate::arrival::ArrivalProcess;
use crate::model::{FleetFunction, FunctionProfile, TraceModel};
use sebs_sim::{Dist, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Why an import failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ImportError {
    /// The file exists but could not be read.
    Io(String),
    /// A row could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportError::Io(e) => write!(f, "trace import I/O error: {e}"),
            ImportError::Parse { line, message } => {
                write!(f, "trace import parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for ImportError {}

/// Imports a trace CSV from disk. Returns `Ok(None)` when `path` does
/// not exist (graceful skip for optional trace stages).
///
/// # Errors
///
/// Returns [`ImportError`] when the file exists but cannot be read or
/// parsed.
pub fn import_csv(
    path: &Path,
    horizon: Option<SimDuration>,
) -> Result<Option<TraceModel>, ImportError> {
    if !path.exists() {
        return Ok(None);
    }
    let text = std::fs::read_to_string(path).map_err(|e| ImportError::Io(e.to_string()))?;
    parse_csv(&text, horizon).map(Some)
}

/// How far the default horizon reaches past the last arrival.
const HORIZON_PAD: SimDuration = SimDuration::from_millis(1);

/// Per-function accumulator while scanning rows.
#[derive(Default)]
struct FnAcc {
    times: Vec<SimTime>,
    durations_ms: Vec<f64>,
    memory_mb: Option<u32>,
}

/// Parses CSV text into a [`TraceModel`]. When `horizon` is `None` the
/// model's horizon is the last arrival plus one millisecond.
///
/// # Errors
///
/// Returns [`ImportError::Parse`] on malformed rows, on an offset too
/// large for a horizon to end after it, or on an empty trace.
pub fn parse_csv(text: &str, horizon: Option<SimDuration>) -> Result<TraceModel, ImportError> {
    // BTreeMap keys the fleet by name, so function order (and therefore
    // fleet indices and RNG stream assignment) is deterministic no
    // matter how the rows are ordered.
    let mut by_fn: BTreeMap<String, FnAcc> = BTreeMap::new();
    let mut max_end = SimTime::ZERO;
    let mut saw_data = false;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        if fields.len() < 2 {
            return Err(ImportError::Parse {
                line: lineno,
                message: format!("expected at least `function,offset_ms`, got {:?}", line),
            });
        }
        let offset_ms = match fields[1].parse::<f64>() {
            Ok(v) => v,
            Err(_) if !saw_data => continue, // header row
            Err(_) => {
                return Err(ImportError::Parse {
                    line: lineno,
                    message: format!("offset_ms `{}` is not a number", fields[1]),
                })
            }
        };
        if !offset_ms.is_finite() || offset_ms < 0.0 {
            return Err(ImportError::Parse {
                line: lineno,
                message: format!("offset_ms `{offset_ms}` must be finite and non-negative"),
            });
        }
        let name = fields[0];
        if name.is_empty() {
            return Err(ImportError::Parse {
                line: lineno,
                message: "empty function name".to_string(),
            });
        }
        saw_data = true;
        let at = SimTime::ZERO.saturating_add(SimDuration::from_millis_f64(offset_ms));
        // The default horizon ends one millisecond after the last arrival;
        // an offset that saturates `SimTime` leaves it no room, and the
        // row would silently fall outside its own trace.
        if at.as_nanos().checked_add(HORIZON_PAD.as_nanos()).is_none() {
            return Err(ImportError::Parse {
                line: lineno,
                message: format!(
                    "offset_ms `{}` is too large: the trace horizon must end after it",
                    fields[1]
                ),
            });
        }
        let acc = by_fn.entry(name.to_string()).or_default();
        max_end = max_end.max(at);
        acc.times.push(at);
        if let Some(raw_dur) = fields.get(2).filter(|s| !s.is_empty()) {
            let dur = raw_dur.parse::<f64>().map_err(|_| ImportError::Parse {
                line: lineno,
                message: format!("duration_ms `{raw_dur}` is not a number"),
            })?;
            if !dur.is_finite() || dur < 0.0 {
                return Err(ImportError::Parse {
                    line: lineno,
                    message: format!("duration_ms `{dur}` must be finite and non-negative"),
                });
            }
            acc.durations_ms.push(dur);
        }
        if let Some(raw_mem) = fields.get(3).filter(|s| !s.is_empty()) {
            let mem = raw_mem.parse::<u32>().map_err(|_| ImportError::Parse {
                line: lineno,
                message: format!("memory_mb `{raw_mem}` is not a whole number"),
            })?;
            let prev = acc.memory_mb.unwrap_or(0);
            acc.memory_mb = Some(prev.max(mem));
        }
    }
    if by_fn.is_empty() {
        return Err(ImportError::Parse {
            line: 0,
            message: "trace contains no invocation rows".to_string(),
        });
    }
    let horizon = horizon.unwrap_or_else(|| {
        max_end
            .duration_since(SimTime::ZERO)
            .saturating_add(HORIZON_PAD)
    });
    let functions = by_fn
        .into_iter()
        .map(|(name, acc)| {
            let duration_ms = if acc.durations_ms.is_empty() {
                Dist::Constant(100.0)
            } else {
                Dist::Empirical {
                    values: acc.durations_ms,
                }
            };
            FleetFunction {
                profile: FunctionProfile::new(name, acc.memory_mb.unwrap_or(256), duration_ms),
                arrivals: ArrivalProcess::Replay { times: acc.times },
                diurnal: None,
            }
        })
        .collect();
    Ok(TraceModel { functions, horizon })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
function,offset_ms,duration_ms,memory_mb
# a comment
checkout,0,120,256
thumbnail,200,440,512
checkout,1500,95,256

thumbnail,2500,460,512
ping,3000
";

    #[test]
    fn parses_functions_replays_and_durations() {
        let m = parse_csv(SAMPLE, None).unwrap();
        assert_eq!(m.functions.len(), 3);
        // BTreeMap order: checkout, ping, thumbnail.
        assert_eq!(m.functions[0].profile.name, "checkout");
        assert_eq!(m.functions[1].profile.name, "ping");
        assert_eq!(m.functions[2].profile.name, "thumbnail");
        assert_eq!(m.functions[0].profile.memory_mb, 256);
        assert_eq!(m.functions[1].profile.memory_mb, 256, "default memory");
        assert_eq!(m.functions[2].profile.memory_mb, 512);
        assert_eq!(
            m.functions[0].profile.duration_ms,
            Dist::Empirical {
                values: vec![120.0, 95.0]
            }
        );
        assert_eq!(m.functions[1].profile.duration_ms, Dist::Constant(100.0));
        match &m.functions[0].arrivals {
            ArrivalProcess::Replay { times } => {
                assert_eq!(
                    times,
                    &vec![SimTime::ZERO, SimTime::from_nanos(1_500_000_000)]
                );
            }
            other => panic!("expected replay, got {other:?}"),
        }
        // Horizon covers the last arrival (3000 ms) plus a millisecond.
        assert_eq!(m.horizon, SimDuration::from_millis(3001));
        let trace = m.generate(1);
        assert_eq!(trace.len(), 5);
    }

    #[test]
    fn an_offset_that_saturates_sim_time_is_rejected_with_its_line() {
        let err = parse_csv("f,0\nf,1e300\n", None).unwrap_err();
        match err {
            ImportError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("1e300"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // The largest whole-millisecond offset that leaves the default
        // horizon its millisecond still imports, and both rows replay.
        let last_ms = (u64::MAX - HORIZON_PAD.as_nanos()) / 1_000_000;
        let m = parse_csv(&format!("f,0\nf,{last_ms}\n"), None).unwrap();
        assert_eq!(m.generate(1).len(), 2);
        assert!(parse_csv(&format!("f,0\nf,{}\n", last_ms + 1), None).is_err());
    }

    #[test]
    fn graceful_skip_when_absent() {
        let missing = Path::new("/nonexistent/sebs-fleet-trace.csv");
        assert_eq!(import_csv(missing, None), Ok(None));
    }

    #[test]
    fn malformed_rows_are_rejected_with_line_numbers() {
        let err = parse_csv("function,offset_ms\nok,10\nbad,NaNope\n", None).unwrap_err();
        match err {
            ImportError::Parse { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_csv("", None).is_err(), "empty trace is an error");
        assert!(
            parse_csv("solo\n", None).is_err(),
            "missing offset column is an error"
        );
        assert!(
            parse_csv("f,-5\n", None).is_err(),
            "negative offsets are rejected"
        );
    }
}
