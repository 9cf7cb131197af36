//! Trace serialization: JSON (self-describing) and a line-oriented text
//! format for interoperability with external trace tooling.
//!
//! The text format is one event per line —
//! `<time_ms> <birth|join|leave|death> <ip:port>` — preceded by a header
//! line `#avmon-trace <name> <stable_size> <horizon_ms> <measure_from_ms>`
//! (the name may hold spaces or be empty) and an optional `#control <ip:port>...` line. Real measured traces (e.g.
//! re-obtained PlanetLab pings) can be converted to this format and fed to
//! every experiment unchanged.

use std::fmt::Write as _;
use std::path::Path;

use avmon::NodeId;

use crate::event::{ChurnEvent, ChurnEventKind, Trace};

/// Errors from trace parsing and file I/O.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying file error.
    Io(std::io::Error),
    /// JSON (de)serialization error.
    Json(serde_json::Error),
    /// Text-format syntax error with line number and explanation.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// Well-formed events that break [`Trace::validate`]: a join without a
    /// birth, a double birth, an event after death or at the horizon.
    Inconsistent(String),
}

impl core::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace file error: {e}"),
            TraceIoError::Json(e) => write!(f, "trace json error: {e}"),
            TraceIoError::Syntax { line, message } => {
                write!(f, "trace syntax error at line {line}: {message}")
            }
            TraceIoError::Inconsistent(message) => write!(f, "inconsistent trace: {message}"),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Json(e) => Some(e),
            TraceIoError::Syntax { .. } | TraceIoError::Inconsistent(_) => None,
        }
    }
}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

impl From<serde_json::Error> for TraceIoError {
    fn from(e: serde_json::Error) -> Self {
        TraceIoError::Json(e)
    }
}

/// Serializes a trace to pretty JSON.
///
/// # Errors
///
/// Returns [`TraceIoError::Json`] if serialization fails.
pub fn to_json(trace: &Trace) -> Result<String, TraceIoError> {
    Ok(serde_json::to_string_pretty(trace)?)
}

/// Parses a trace from JSON, sorting its events as [`Trace::new`] does.
///
/// # Errors
///
/// Returns [`TraceIoError::Json`] on malformed JSON and
/// [`TraceIoError::Inconsistent`] on events [`Trace::validate`] rejects.
pub fn from_json(json: &str) -> Result<Trace, TraceIoError> {
    checked(serde_json::from_str(json)?)
}

/// Sorts `trace`'s events by `(at, node)`, as [`Trace::new`] does, and
/// validates them.
fn checked(mut trace: Trace) -> Result<Trace, TraceIoError> {
    trace.events.sort_by_key(|e| (e.at, e.node));
    trace.validate().map_err(TraceIoError::Inconsistent)?;
    Ok(trace)
}

/// Writes a trace to a JSON file.
///
/// # Errors
///
/// Returns [`TraceIoError`] on serialization or file errors.
pub fn save_json(trace: &Trace, path: impl AsRef<Path>) -> Result<(), TraceIoError> {
    std::fs::write(path, to_json(trace)?)?;
    Ok(())
}

/// Reads a trace from a JSON file.
///
/// # Errors
///
/// Returns [`TraceIoError`] on file or parse errors.
pub fn load_json(path: impl AsRef<Path>) -> Result<Trace, TraceIoError> {
    from_json(&std::fs::read_to_string(path)?)
}

/// Serializes a trace to the line-oriented text format.
#[must_use]
pub fn to_text(trace: &Trace) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "#avmon-trace {} {} {} {}",
        trace.name, trace.stable_size, trace.horizon, trace.measure_from
    );
    if !trace.control_group.is_empty() {
        let ids: Vec<String> = trace
            .control_group
            .iter()
            .map(ToString::to_string)
            .collect();
        let _ = writeln!(out, "#control {}", ids.join(" "));
    }
    for e in &trace.events {
        let kind = match e.kind {
            ChurnEventKind::Birth => "birth",
            ChurnEventKind::Join => "join",
            ChurnEventKind::Leave => "leave",
            ChurnEventKind::Death => "death",
        };
        let _ = writeln!(out, "{} {} {}", e.at, kind, e.node);
    }
    out
}

/// Parses the line-oriented text format.
///
/// The trace name is everything between `#avmon-trace ` and the header's
/// last three fields, so every name [`to_text`] writes reads back — except
/// one holding a line break, which splits the header.
///
/// # Errors
///
/// Returns [`TraceIoError::Syntax`] with the offending line number on any
/// malformed header, kind, time or node id or an event line with trailing
/// fields, and [`TraceIoError::Inconsistent`] on events
/// [`Trace::validate`] rejects.
pub fn from_text(text: &str) -> Result<Trace, TraceIoError> {
    let syntax = |line: usize, message: String| TraceIoError::Syntax { line, message };
    let mut lines = text.lines().enumerate();

    let (_, header) = lines
        .next()
        .ok_or_else(|| syntax(1, "empty trace file".into()))?;
    let bad_header = || syntax(1, format!("bad header: {header:?}"));
    let rest = header
        .trim_end()
        .strip_prefix("#avmon-trace ")
        .ok_or_else(bad_header)?;
    let (rest, measure_from) = rest.rsplit_once(' ').ok_or_else(bad_header)?;
    let (rest, horizon) = rest.rsplit_once(' ').ok_or_else(bad_header)?;
    let (name, stable_size) = rest.rsplit_once(' ').ok_or_else(bad_header)?;
    let stable_size: usize = stable_size
        .parse()
        .map_err(|e| syntax(1, format!("stable size: {e}")))?;
    let horizon = horizon
        .parse()
        .map_err(|e| syntax(1, format!("horizon: {e}")))?;
    let measure_from = measure_from
        .parse()
        .map_err(|e| syntax(1, format!("measure_from: {e}")))?;

    let mut control = Vec::new();
    let mut events = Vec::new();
    for (idx, line) in lines {
        let line_no = idx + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("#control") {
            for tok in rest.split_whitespace() {
                control.push(
                    tok.parse::<NodeId>()
                        .map_err(|e| syntax(line_no, format!("control id: {e}")))?,
                );
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // comment
        }
        let mut tok = line.split_whitespace();
        let (Some(t), Some(kind), Some(node), None) =
            (tok.next(), tok.next(), tok.next(), tok.next())
        else {
            return Err(syntax(
                line_no,
                format!("expected '<time> <kind> <node>': {line:?}"),
            ));
        };
        let at = t
            .parse()
            .map_err(|e| syntax(line_no, format!("time: {e}")))?;
        let kind = match kind {
            "birth" => ChurnEventKind::Birth,
            "join" => ChurnEventKind::Join,
            "leave" => ChurnEventKind::Leave,
            "death" => ChurnEventKind::Death,
            other => return Err(syntax(line_no, format!("unknown kind {other:?}"))),
        };
        let node = node
            .parse::<NodeId>()
            .map_err(|e| syntax(line_no, format!("node id: {e}")))?;
        events.push(ChurnEvent { at, node, kind });
    }
    checked(Trace {
        name: name.to_string(),
        stable_size,
        horizon,
        measure_from,
        control_group: control,
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{stat, synthetic, SynthParams};
    use avmon::{TimeMs, HOUR};

    #[test]
    fn json_round_trip() {
        let t = synthetic(SynthParams::synth(100).duration(HOUR));
        let json = to_json(&t).unwrap();
        assert_eq!(from_json(&json).unwrap(), t);
    }

    /// Names with spaces and the empty name read back too.
    #[test]
    fn text_round_trip() {
        let mut t = synthetic(SynthParams::synth_bd(80).duration(2 * HOUR));
        for name in [t.name.clone(), "my trace".into(), String::new()] {
            t.name = name;
            assert_eq!(from_text(&to_text(&t)).unwrap(), t, "name {:?}", t.name);
        }
    }

    #[test]
    fn file_round_trip() {
        let t = stat(50, HOUR, 0.1, 3);
        let dir = std::env::temp_dir().join("avmon-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stat.json");
        save_json(&t, &path).unwrap();
        assert_eq!(load_json(&path).unwrap(), t);
    }

    #[test]
    fn text_rejects_garbage() {
        assert!(matches!(
            from_text(""),
            Err(TraceIoError::Syntax { line: 1, .. })
        ));
        assert!(matches!(
            from_text("#avmon-trace x 1"),
            Err(TraceIoError::Syntax { line: 1, .. })
        ));
        let bad_kind = "#avmon-trace t 1 1000 0\n10 explode 10.0.0.1:4000\n";
        assert!(matches!(
            from_text(bad_kind),
            Err(TraceIoError::Syntax { line: 2, .. })
        ));
        let bad_id = "#avmon-trace t 1 1000 0\n10 birth nonsense\n";
        assert!(matches!(
            from_text(bad_id),
            Err(TraceIoError::Syntax { line: 2, .. })
        ));
        let trailing = "#avmon-trace t 1 1000 0\n10 birth 10.0.0.1:4000 extra\n";
        assert!(matches!(
            from_text(trailing),
            Err(TraceIoError::Syntax { line: 2, .. })
        ));
    }

    #[test]
    fn text_allows_comments_and_blank_lines() {
        let text = "#avmon-trace mini 1 1000 0\n# a comment\n\n0 birth 10.0.0.1:4000\n";
        let t = from_text(text).unwrap();
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.name, "mini");
    }

    /// A one-node trace with `horizon` 1000 and `events` as `(at, kind)`,
    /// built without [`Trace::new`]'s check, in both import formats.
    fn unvalidated(events: &[(TimeMs, ChurnEventKind)]) -> (String, String) {
        let node: NodeId = "10.0.0.1:4000".parse().unwrap();
        let trace = Trace {
            name: "bad".into(),
            stable_size: 1,
            horizon: 1000,
            measure_from: 0,
            control_group: vec![],
            events: events
                .iter()
                .map(|&(at, kind)| ChurnEvent { at, node, kind })
                .collect(),
        };
        (to_text(&trace), to_json(&trace).unwrap())
    }

    fn assert_rejected(events: &[(TimeMs, ChurnEventKind)], why: &str) {
        let (text, json) = unvalidated(events);
        for result in [from_text(&text), from_json(&json)] {
            match result {
                Err(TraceIoError::Inconsistent(message)) => {
                    assert!(message.contains(why), "{message:?} lacks {why:?}");
                }
                other => panic!("expected an inconsistent-trace error, got {other:?}"),
            }
        }
    }

    #[test]
    fn import_rejects_join_without_birth() {
        assert_rejected(&[(0, ChurnEventKind::Join)], "got Join in state unborn");
    }

    #[test]
    fn import_rejects_event_at_horizon() {
        assert_rejected(&[(1000, ChurnEventKind::Birth)], "beyond horizon");
    }

    #[test]
    fn import_rejects_double_birth() {
        assert_rejected(
            &[(0, ChurnEventKind::Birth), (5, ChurnEventKind::Birth)],
            "got Birth in state up",
        );
    }

    #[test]
    fn json_import_sorts_events() {
        let (_, json) = unvalidated(&[(5, ChurnEventKind::Leave), (0, ChurnEventKind::Birth)]);
        let t = from_json(&json).unwrap();
        let times: Vec<TimeMs> = t.events.iter().map(|e| e.at).collect();
        assert_eq!(times, [0, 5]);
    }

    #[test]
    fn error_display_is_informative() {
        let e = from_text("").unwrap_err();
        assert!(e.to_string().contains("line 1"));
    }
}
