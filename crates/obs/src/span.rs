//! Wall-clock timing that reports as [`Event::SpanEnded`].

use crate::{Event, EventKind, Obs};
use std::time::Instant;

/// Times a region of code and emits one [`Event::SpanEnded`] when
/// finished (explicitly via [`Span::finish`], or on drop).
///
/// On a handle whose observer did not subscribe to
/// [`EventKind::SpanEnded`] (a disabled one included) the span is inert:
/// no clock is read and nothing is emitted.
#[derive(Debug)]
pub struct Span {
    obs: Obs,
    name: &'static str,
    replica: u64,
    peer: u64,
    started: Option<Instant>,
}

impl Span {
    /// Starts a span. `peer` may be 0 when unknown.
    pub fn start(obs: &Obs, name: &'static str, replica: u64, peer: u64) -> Self {
        Span {
            started: obs.wants(EventKind::SpanEnded).then(Instant::now),
            obs: obs.clone(),
            name,
            replica,
            peer,
        }
    }

    /// Ends the span now, emitting its duration.
    pub fn finish(mut self) {
        self.emit_end();
    }

    fn emit_end(&mut self) {
        if let Some(started) = self.started.take() {
            let wall_micros = started.elapsed().as_micros().min(u64::MAX as u128) as u64;
            self.obs.emit(EventKind::SpanEnded, || Event::SpanEnded {
                name: self.name,
                replica: self.replica,
                peer: self.peer,
                wall_micros,
            });
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.emit_end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemorySink;
    use std::sync::Arc;

    #[test]
    fn span_emits_once_on_finish() {
        let sink = Arc::new(MemorySink::unbounded());
        let obs = Obs::new(sink.clone());
        let span = Span::start(&obs, "encounter", 1, 2);
        span.finish();
        let events = sink.events();
        assert_eq!(events.len(), 1);
        match &events[0] {
            Event::SpanEnded {
                name,
                replica,
                peer,
                ..
            } => {
                assert_eq!(*name, "encounter");
                assert_eq!(*replica, 1);
                assert_eq!(*peer, 2);
            }
            other => panic!("unexpected event: {other:?}"),
        }
    }

    #[test]
    fn span_emits_on_drop_and_is_inert_when_disabled() {
        let sink = Arc::new(MemorySink::unbounded());
        let obs = Obs::new(sink.clone());
        {
            let _span = Span::start(&obs, "scope", 3, 0);
        }
        assert_eq!(sink.len(), 1);

        let disabled = Obs::none();
        {
            let _span = Span::start(&disabled, "scope", 3, 0);
        }
        // Nothing to assert against — just must not panic or emit.
    }
}
