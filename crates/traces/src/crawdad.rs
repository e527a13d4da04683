//! Reading and writing encounter traces in a CRAWDAD-style text format.
//!
//! The format is line-oriented and human-editable, one encounter per line:
//!
//! ```text
//! # comments and blank lines are ignored
//! <day> <hh:mm:ss> <bus_a> <bus_b> [duration_secs]
//! 0 08:15:30 3 17 45
//! ```
//!
//! Bus numbers are raw [`ReplicaId`] integers; the optional fifth field
//! records the contact duration in seconds. Lines need not be sorted;
//! parsing sorts the trace. This lets the real DieselNet trace (or any
//! other contact trace) be converted with a few lines of awk and dropped
//! into the experiments in place of the synthetic generator.

use std::fmt;

use pfr::{ReplicaId, SimTime};

use crate::mobility::{Encounter, EncounterTrace};

/// Errors from parsing a trace file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace parse error on line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for TraceParseError {}

/// Parses a trace from its text form.
///
/// # Errors
///
/// Returns a [`TraceParseError`] identifying the first malformed line.
///
/// # Examples
///
/// ```
/// let text = "# two buses meet twice\n0 08:00:00 1 2\n0 09:30:00 1 2\n";
/// let trace = traces::parse_trace(text)?;
/// assert_eq!(trace.len(), 2);
/// # Ok::<(), traces::TraceParseError>(())
/// ```
pub fn parse_trace(text: &str) -> Result<EncounterTrace, TraceParseError> {
    let mut encounters = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 4 && fields.len() != 5 {
            return Err(TraceParseError {
                line: line_no,
                message: format!("expected 4 or 5 fields, found {}", fields.len()),
            });
        }
        let day = parse_day(fields[0]).ok_or_else(|| TraceParseError {
            line: line_no,
            message: format!("bad day number {:?}", fields[0]),
        })?;
        let time = parse_hms(fields[1]).ok_or_else(|| TraceParseError {
            line: line_no,
            message: format!("bad time {:?} (expected hh:mm:ss)", fields[1]),
        })?;
        let a: u64 = fields[2].parse().map_err(|_| TraceParseError {
            line: line_no,
            message: format!("bad bus id {:?}", fields[2]),
        })?;
        let b: u64 = fields[3].parse().map_err(|_| TraceParseError {
            line: line_no,
            message: format!("bad bus id {:?}", fields[3]),
        })?;
        if a == b {
            return Err(TraceParseError {
                line: line_no,
                message: format!("self-encounter of bus {a}"),
            });
        }
        let duration_secs: u64 = match fields.get(4) {
            None => 0,
            Some(v) => v.parse().map_err(|_| TraceParseError {
                line: line_no,
                message: format!("bad duration {v:?}"),
            })?,
        };
        encounters.push(Encounter::with_duration(
            SimTime::from_hms(day, time.0, time.1, time.2),
            ReplicaId::new(a),
            ReplicaId::new(b),
            pfr::SimDuration::from_secs(duration_secs),
        ));
    }
    Ok(EncounterTrace::from_encounters(encounters))
}

/// A day number whose every second a [`SimTime`] can hold.
pub(crate) fn parse_day(s: &str) -> Option<u64> {
    let day: u64 = s.parse().ok()?;
    day.checked_mul(86_400)?.checked_add(86_399)?;
    Some(day)
}

fn parse_hms(s: &str) -> Option<(u64, u64, u64)> {
    let mut parts = s.split(':');
    let h: u64 = parts.next()?.parse().ok()?;
    let m: u64 = parts.next()?.parse().ok()?;
    let sec: u64 = parts.next()?.parse().ok()?;
    if parts.next().is_some() || h >= 24 || m >= 60 || sec >= 60 {
        return None;
    }
    Some((h, m, sec))
}

/// Renders a trace to the text format accepted by [`parse_trace`].
pub fn format_trace(trace: &EncounterTrace) -> String {
    let mut out = String::with_capacity(trace.len() * 20 + 64);
    out.push_str("# replidtn encounter trace: <day> <hh:mm:ss> <bus_a> <bus_b> <duration_secs>\n");
    for e in trace.iter() {
        let s = e.time.seconds_into_day();
        out.push_str(&format!(
            "{} {:02}:{:02}:{:02} {} {} {}\n",
            e.time.day(),
            s / 3600,
            (s % 3600) / 60,
            s % 60,
            e.a.as_u64(),
            e.b.as_u64(),
            e.duration.as_secs()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_minimal_trace() {
        let trace = parse_trace("0 08:00:00 1 2\n1 22:59:59 3 4\n").unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.days(), 2);
        let first = trace.iter().next().unwrap();
        assert_eq!(first.pair(), (ReplicaId::new(1), ReplicaId::new(2)));
        assert_eq!(first.time, SimTime::from_hms(0, 8, 0, 0));
    }

    #[test]
    fn comments_blanks_and_order() {
        let text = "\n# header\n0 10:00:00 2 1\n\n0 08:00:00 5 6\n";
        let trace = parse_trace(text).unwrap();
        assert_eq!(trace.len(), 2);
        // Sorted despite input order.
        assert_eq!(
            trace.iter().next().unwrap().time,
            SimTime::from_hms(0, 8, 0, 0)
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let cases = [
            ("0 08:00:00 1\n", 1, "4 or 5 fields"),
            ("0 08:00:00 1 2\nx 08:00:00 1 2\n", 2, "bad day"),
            // u64::MAX / 86_400: the day's seconds overflow a SimTime.
            ("213503982334601 00:00:00 1 2\n", 1, "bad day"),
            ("0 25:00:00 1 2\n", 1, "bad time"),
            ("0 08:61:00 1 2\n", 1, "bad time"),
            ("0 08:00 1 2\n", 1, "bad time"),
            ("0 08:00:00 z 2\n", 1, "bad bus id"),
            ("0 08:00:00 3 3\n", 1, "self-encounter"),
        ];
        for (text, line, needle) in cases {
            let err = parse_trace(text).unwrap_err();
            assert_eq!(err.line, line, "for {text:?}");
            assert!(
                err.message.contains(needle),
                "error {:?} should mention {:?}",
                err.message,
                needle
            );
            assert!(err.to_string().contains("line"));
        }
    }

    #[test]
    fn format_parse_roundtrip() {
        let original = crate::DieselNetConfig::small().generate();
        let text = format_trace(&original);
        let parsed = parse_trace(&text).unwrap();
        assert_eq!(parsed, original);
    }
}
