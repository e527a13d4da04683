//! Replayable run traces: every `obs` event a simulation produced, in a
//! deterministic order, renderable as JSONL for byte-level comparison.
//!
//! Two runs of the same `(seed, plan)` must produce byte-identical
//! [`Trace::to_jsonl`] output. Large-fleet traces should not be compared
//! by materializing that output: [`Trace::write_jsonl`] streams it line
//! by line and [`Trace::jsonl_digest`] folds it into a constant-memory
//! 64-bit digest. The stack emits three events that carry
//! wall-clock readings: [`obs::Event::SpanEnded`] is excluded outright
//! (nothing else in it is deterministic), while
//! [`obs::Event::SyncCandidatesSelected`] has its `scan_us` field and
//! [`obs::Event::NetSession`] its `wall_micros` field zeroed so their
//! deterministic fields stay comparable.

use std::io::{self, Write};

use obs::Event;

/// One recorded event: which script step produced it, on which host.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEntry {
    /// Zero-based index of the script step that produced the event.
    pub step: usize,
    /// Replica id of the host that emitted the event.
    pub host: u64,
    /// The event itself.
    pub event: Event,
}

/// An ordered, replayable record of every deterministic event in one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Appends one event, unless it is a (wall-clock, nondeterministic)
    /// `SpanEnded`; the wall-clock fields of `SyncCandidatesSelected`
    /// (`scan_us`) and `NetSession` (`wall_micros`) are zeroed for the
    /// same reason.
    pub fn record(&mut self, step: usize, host: u64, mut event: Event) {
        match &mut event {
            Event::SpanEnded { .. } => return,
            Event::SyncCandidatesSelected { scan_us, .. } => *scan_us = 0,
            Event::NetSession { wall_micros, .. } => *wall_micros = 0,
            _ => {}
        }
        self.entries.push(TraceEntry { step, host, event });
    }

    /// The recorded entries in emission order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// How many recorded events have the given [`obs::EventKind::name`]
    /// label.
    pub fn count(&self, kind: &str) -> usize {
        self.entries
            .iter()
            .filter(|e| e.event.event_kind().name() == kind)
            .count()
    }

    /// Streams the JSONL rendering into `out`, one line at a time, never
    /// materializing more than a single line. This is the scale-safe form
    /// of [`Trace::to_jsonl`]: a city-scale trace flows straight to a
    /// file (or a hasher) without a trace-sized `String`.
    pub fn write_jsonl(&self, out: &mut dyn Write) -> io::Result<()> {
        for entry in &self.entries {
            let event = entry.event.to_json();
            writeln!(
                out,
                "{{\"step\":{},\"host\":{},{}",
                entry.step,
                entry.host,
                &event[1..]
            )?;
        }
        Ok(())
    }

    /// A 64-bit FNV-1a digest over the exact bytes [`Trace::write_jsonl`]
    /// would emit. Two traces render byte-identically iff their digests
    /// match (up to hash collision), so determinism checks on large-fleet
    /// runs compare eight bytes instead of holding two full renderings.
    pub fn jsonl_digest(&self) -> u64 {
        let mut hasher = FnvWriter::default();
        self.write_jsonl(&mut hasher)
            .expect("hashing cannot fail I/O");
        hasher.finish()
    }

    /// Renders the trace as JSON lines; each line is the event's stable
    /// JSON rendering prefixed with the step index and emitting host.
    /// Byte-equality of two renderings is the determinism check; for
    /// traces too large to buffer, stream with [`Trace::write_jsonl`] or
    /// compare [`Trace::jsonl_digest`] values instead.
    pub fn to_jsonl(&self) -> String {
        let mut out = Vec::new();
        self.write_jsonl(&mut out)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("JSONL rendering is UTF-8")
    }
}

/// An [`io::Write`] that folds every byte into a 64-bit FNV-1a state
/// instead of storing it — constant memory regardless of trace size.
struct FnvWriter {
    state: u64,
}

impl Default for FnvWriter {
    fn default() -> Self {
        FnvWriter {
            state: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl FnvWriter {
    fn finish(&self) -> u64 {
        self.state
    }
}

impl Write for FnvWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        for &byte in buf {
            self.state ^= u64::from(byte);
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_ended_is_filtered_out() {
        let mut trace = Trace::new();
        trace.record(
            0,
            1,
            Event::SpanEnded {
                name: "encounter",
                replica: 1,
                peer: 2,
                wall_micros: 1234,
            },
        );
        trace.record(
            0,
            1,
            Event::ItemEvicted {
                replica: 1,
                origin: 2,
                seq: 3,
            },
        );
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.count("item_evicted"), 1);
        assert_eq!(trace.count("span_ended"), 0);
    }

    #[test]
    fn candidate_selection_timing_is_zeroed() {
        let mut trace = Trace::new();
        trace.record(
            0,
            1,
            Event::SyncCandidatesSelected {
                source: 1,
                target: 2,
                candidates: 5,
                selected: 3,
                scan_us: 777,
                at_secs: 10,
            },
        );
        assert_eq!(trace.len(), 1);
        match &trace.entries()[0].event {
            Event::SyncCandidatesSelected {
                scan_us,
                candidates,
                ..
            } => {
                assert_eq!(*scan_us, 0);
                assert_eq!(*candidates, 5);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn jsonl_lines_carry_step_and_host() {
        let mut trace = Trace::new();
        trace.record(
            3,
            7,
            Event::ItemEvicted {
                replica: 7,
                origin: 1,
                seq: 9,
            },
        );
        let text = trace.to_jsonl();
        assert_eq!(
            text,
            "{\"step\":3,\"host\":7,\"event\":\"item_evicted\",\"replica\":7,\"origin\":1,\"seq\":9}\n"
        );
    }

    fn sample_trace(seq_base: u64) -> Trace {
        let mut trace = Trace::new();
        for i in 0..4 {
            trace.record(
                i as usize,
                i % 2,
                Event::ItemEvicted {
                    replica: i % 2,
                    origin: 1,
                    seq: seq_base + i,
                },
            );
        }
        trace
    }

    #[test]
    fn streamed_rendering_matches_buffered_rendering() {
        let trace = sample_trace(10);
        let mut streamed = Vec::new();
        trace.write_jsonl(&mut streamed).unwrap();
        assert_eq!(String::from_utf8(streamed).unwrap(), trace.to_jsonl());
    }

    #[test]
    fn digest_discriminates_exactly_like_byte_equality() {
        let a = sample_trace(10);
        let b = sample_trace(10);
        let c = sample_trace(11);
        assert_eq!(a.jsonl_digest(), b.jsonl_digest());
        assert_ne!(a.jsonl_digest(), c.jsonl_digest());
        // The digest is a hash of the rendered bytes, so it must agree
        // with the buffered rendering byte for byte.
        let mut hasher = FnvWriter::default();
        hasher.write_all(a.to_jsonl().as_bytes()).unwrap();
        assert_eq!(a.jsonl_digest(), hasher.finish());
    }

    #[test]
    fn empty_trace_digest_is_the_fnv_offset_basis() {
        assert_eq!(Trace::new().jsonl_digest(), 0xcbf2_9ce4_8422_2325);
    }
}
