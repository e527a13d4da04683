//! End-to-end checks on the observability event stream: a full emulation
//! captured by a [`MemorySink`] must tell the same story as the
//! [`ExperimentMetrics`] the engine reports, event by event, and attaching
//! the observer must not perturb the replication outcome.

use std::collections::HashSet;
use std::sync::Arc;

use replidtn::emu::{Emulation, EmulationConfig};
use replidtn::obs::{Event, MemorySink, Observer};
use replidtn::traces::{DieselNetConfig, EmailConfig, EmailWorkload, EncounterTrace};

fn scenario() -> (EncounterTrace, EmailWorkload) {
    (
        DieselNetConfig::small().generate(),
        EmailConfig::small().generate(),
    )
}

fn config(observer: Option<Arc<dyn Observer>>) -> EmulationConfig {
    EmulationConfig {
        // Epidemic routing with a tight relay limit forces relays and
        // evictions, so the eviction/drop paths are covered.
        policy: replidtn::dtn::PolicyKind::Epidemic.into(),
        relay_limit: Some(2),
        observer,
        ..EmulationConfig::default()
    }
}

#[test]
fn event_stream_is_consistent_with_metrics() {
    let (trace, workload) = scenario();
    let sink = Arc::new(MemorySink::unbounded());
    let metrics = Emulation::new(
        &trace,
        &workload,
        config(Some(sink.clone() as Arc<dyn Observer>)),
    )
    .run();

    let events = sink.events();
    assert!(!events.is_empty(), "observer saw no events");

    let mut injected: HashSet<(u64, u64)> = HashSet::new();
    let mut injections = 0u64;
    let mut transmitted = 0u64;
    let mut delivered_messages = 0u64;
    let mut evicted = 0u64;
    let mut encounters = 0u64;
    let mut duplicates = 0u64;
    for event in &events {
        match event {
            Event::MessageInjected { origin, seq, .. } => {
                injections += 1;
                injected.insert((*origin, *seq));
            }
            Event::ItemTransmitted { origin, seq, .. } => {
                transmitted += 1;
                assert!(
                    injected.contains(&(*origin, *seq)),
                    "item {origin}:{seq} transmitted before any injection event"
                );
            }
            Event::ItemDelivered { origin, seq, .. } | Event::ItemRelayed { origin, seq, .. } => {
                assert!(
                    injected.contains(&(*origin, *seq)),
                    "item {origin}:{seq} arrived before any injection event"
                );
            }
            Event::MessageDelivered { origin, seq, .. } => {
                delivered_messages += 1;
                assert!(
                    injected.contains(&(*origin, *seq)),
                    "message {origin}:{seq} delivered before any injection event"
                );
            }
            Event::ItemEvicted { .. } => evicted += 1,
            Event::MessageDropped { reason, .. } => {
                assert!(
                    ["expired", "evicted", "acked"].contains(&reason.label()),
                    "unknown drop reason {reason:?}"
                );
            }
            Event::EncounterCompleted {
                duplicates: dups, ..
            } => {
                encounters += 1;
                duplicates += dups;
            }
            _ => {}
        }
    }

    assert_eq!(injections, metrics.injected() as u64);
    assert_eq!(transmitted, metrics.transmissions);
    assert_eq!(delivered_messages, metrics.delivered() as u64);
    assert_eq!(evicted, metrics.evictions);
    assert_eq!(encounters, metrics.encounters);
    assert_eq!(duplicates, metrics.duplicates);
    assert!(evicted > 0, "relay limit of 2 should force evictions");
}

#[test]
fn every_event_serializes_to_one_parseable_json_line() {
    let (trace, workload) = scenario();
    let sink = Arc::new(MemorySink::unbounded());
    Emulation::new(
        &trace,
        &workload,
        config(Some(sink.clone() as Arc<dyn Observer>)),
    )
    .run();

    for event in sink.events() {
        let line = event.to_json();
        assert!(!line.contains('\n'), "JSONL line embeds a newline: {line}");
        let value = json::parse(&line).unwrap_or_else(|e| panic!("bad JSON {line:?}: {e}"));
        let json::Value::Object(fields) = value else {
            panic!("not a JSON object: {line}");
        };
        let kind = fields.iter().find(|(k, _)| k == "event");
        match kind {
            Some((_, json::Value::String(kind))) => assert_eq!(kind, event.event_kind().name()),
            other => panic!("missing/invalid event field {other:?} in {line}"),
        }
    }
}

#[test]
fn observer_does_not_perturb_replication_outcome() {
    let (trace, workload) = scenario();

    let sink = Arc::new(MemorySink::unbounded());
    let (observed_metrics, observed_nodes) = Emulation::new(
        &trace,
        &workload,
        config(Some(sink.clone() as Arc<dyn Observer>)),
    )
    .run_into_parts();
    let (silent_metrics, silent_nodes) =
        Emulation::new(&trace, &workload, config(None)).run_into_parts();

    assert!(!sink.is_empty());
    assert_eq!(observed_metrics.injected(), silent_metrics.injected());
    assert_eq!(observed_metrics.delivered(), silent_metrics.delivered());
    assert_eq!(observed_metrics.transmissions, silent_metrics.transmissions);
    assert_eq!(observed_metrics.encounters, silent_metrics.encounters);
    assert_eq!(observed_metrics.evictions, silent_metrics.evictions);
    assert_eq!(observed_metrics.duplicates, silent_metrics.duplicates);

    assert_eq!(observed_nodes.len(), silent_nodes.len());
    for (id, observed) in &observed_nodes {
        let silent = silent_nodes
            .get(id)
            .unwrap_or_else(|| panic!("node {id} missing from silent run"));
        assert_eq!(
            observed.snapshot(),
            silent.snapshot(),
            "node {id} diverged under observation"
        );
    }
}

/// A minimal JSON parser, enough to prove each emitted line is valid JSON.
/// (The workspace has no JSON dependency by design; the sinks hand-render
/// their lines, so the test hand-parses them.)
mod json {
    #[derive(Debug, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Number(f64),
        String(String),
        Array(Vec<Value>),
        Object(Vec<(String, Value)>),
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes: Vec<char> = text.chars().collect();
        let mut pos = 0usize;
        let value = parse_value(&bytes, &mut pos)?;
        skip_ws(&bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(b: &[char], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], ' ' | '\t' | '\n' | '\r') {
            *pos += 1;
        }
    }

    fn parse_value(b: &[char], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some('{') => parse_object(b, pos),
            Some('[') => parse_array(b, pos),
            Some('"') => parse_string(b, pos).map(Value::String),
            Some('t') => parse_lit(b, pos, "true", Value::Bool(true)),
            Some('f') => parse_lit(b, pos, "false", Value::Bool(false)),
            Some('n') => parse_lit(b, pos, "null", Value::Null),
            Some(c) if *c == '-' || c.is_ascii_digit() => parse_number(b, pos),
            other => Err(format!("unexpected {other:?} at {pos}")),
        }
    }

    fn parse_lit(b: &[char], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
        for expected in lit.chars() {
            if b.get(*pos) != Some(&expected) {
                return Err(format!("bad literal at {pos}"));
            }
            *pos += 1;
        }
        Ok(value)
    }

    fn parse_number(b: &[char], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], '-' | '+' | '.' | 'e' | 'E' | '0'..='9') {
            *pos += 1;
        }
        let text: String = b[start..*pos].iter().collect();
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("bad number {text:?} at {start}"))
    }

    fn parse_string(b: &[char], pos: &mut usize) -> Result<String, String> {
        if b.get(*pos) != Some(&'"') {
            return Err(format!("expected string at {pos}"));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                None => return Err("unterminated string".to_string()),
                Some('"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some('\\') => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some('"') => out.push('"'),
                        Some('\\') => out.push('\\'),
                        Some('/') => out.push('/'),
                        Some('n') => out.push('\n'),
                        Some('r') => out.push('\r'),
                        Some('t') => out.push('\t'),
                        Some('b') => out.push('\u{8}'),
                        Some('f') => out.push('\u{c}'),
                        Some('u') => {
                            let hex: String = b
                                .get(*pos + 1..*pos + 5)
                                .ok_or("truncated \\u escape")?
                                .iter()
                                .collect();
                            let code = u32::from_str_radix(&hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            out.push(char::from_u32(code).ok_or("bad codepoint")?);
                            *pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    *pos += 1;
                }
                Some(c) if (*c as u32) < 0x20 => {
                    return Err(format!("unescaped control char {c:?}"));
                }
                Some(c) => {
                    out.push(*c);
                    *pos += 1;
                }
            }
        }
    }

    fn parse_array(b: &[char], pos: &mut usize) -> Result<Value, String> {
        *pos += 1; // consume [
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&']') {
            *pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(parse_value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(',') => *pos += 1,
                Some(']') => {
                    *pos += 1;
                    return Ok(Value::Array(items));
                }
                other => return Err(format!("expected , or ] found {other:?}")),
            }
        }
    }

    fn parse_object(b: &[char], pos: &mut usize) -> Result<Value, String> {
        *pos += 1; // consume {
        let mut fields = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&'}') {
            *pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            skip_ws(b, pos);
            let key = parse_string(b, pos)?;
            skip_ws(b, pos);
            if b.get(*pos) != Some(&':') {
                return Err(format!("expected : at {pos}"));
            }
            *pos += 1;
            let value = parse_value(b, pos)?;
            fields.push((key, value));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(',') => *pos += 1,
                Some('}') => {
                    *pos += 1;
                    return Ok(Value::Object(fields));
                }
                other => return Err(format!("expected , or }} found {other:?}")),
            }
        }
    }

    #[test]
    fn parses_representative_lines() {
        let line = r#"{"event":"x","n":3,"ok":true,"s":"a\"b","list":[1,2],"f":1.5}"#;
        let Value::Object(fields) = parse(line).unwrap() else {
            panic!("not an object")
        };
        assert_eq!(fields.len(), 6);
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
    }
}
