//! Enron-like e-mail message workloads.
//!
//! The paper uses the UC Berkeley release of the Enron e-mail dataset for
//! one thing: "to determine which node sends messages to which other
//! nodes". This generator reproduces the relevant structure — a
//! heavy-tailed (Zipf) sender activity distribution and persistent
//! per-sender contact lists — together with the paper's injection
//! schedule: messages enter during a two-hour morning window (08:00 to
//! 10:00) at two-minute intervals, injection stops after the eighth day,
//! and 490 messages are injected in total (§VI-A).

use pfr::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::zipf::Zipf;

/// One message-injection event: `src` sends to `dst` at `time`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MessageEvent {
    /// Injection time.
    pub time: SimTime,
    /// Sending user.
    pub src: String,
    /// Receiving user.
    pub dst: String,
}

/// A time-ordered message workload over a set of users.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EmailWorkload {
    users: Vec<String>,
    events: Vec<MessageEvent>,
}

impl EmailWorkload {
    /// Builds a workload from explicit events, sorting them by time.
    pub fn from_events(users: Vec<String>, mut events: Vec<MessageEvent>) -> Self {
        events.sort_by(|a, b| a.time.cmp(&b.time).then_with(|| a.src.cmp(&b.src)));
        EmailWorkload { users, events }
    }

    /// The user population (user `i` is `"u<i>"` for generated workloads).
    pub fn users(&self) -> &[String] {
        &self.users
    }

    /// The injection events in time order.
    pub fn events(&self) -> &[MessageEvent] {
        &self.events
    }

    /// Number of messages.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if the workload has no messages.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events injected on one day.
    pub fn events_on_day(&self, day: u64) -> impl Iterator<Item = &MessageEvent> {
        self.events.iter().filter(move |e| e.time.day() == day)
    }

    /// The last injection day (`None` for an empty workload).
    pub fn last_injection_day(&self) -> Option<u64> {
        self.events.last().map(|e| e.time.day())
    }
}

/// Configuration for the Enron-like workload generator.
#[derive(Clone, Debug, PartialEq)]
pub struct EmailConfig {
    /// Number of users exchanging mail.
    pub users: usize,
    /// Days during which messages are injected (paper: the first 8 of 17).
    pub injection_days: u64,
    /// Start of the daily injection window (paper: 08:00).
    pub window_start_hour: u64,
    /// Spacing between injections (paper: 2 minutes).
    pub interval: SimDuration,
    /// Total messages injected (paper: 490).
    pub total_messages: usize,
    /// Zipf exponent for sender activity.
    pub sender_zipf_exponent: f64,
    /// Contacts per user: recipients are drawn from this persistent list.
    pub contacts_per_user: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EmailConfig {
    /// The paper's injection schedule (§VI-A).
    fn default() -> Self {
        EmailConfig {
            users: 46, // twice the daily bus count: senders and receivers ride along
            injection_days: 8,
            window_start_hour: 8,
            interval: SimDuration::from_mins(2),
            total_messages: 490,
            sender_zipf_exponent: 1.1,
            contacts_per_user: 6,
            seed: 0xe17011,
        }
    }
}

impl EmailConfig {
    /// A scaled-down configuration for fast tests and examples.
    pub fn small() -> Self {
        EmailConfig {
            users: 10,
            injection_days: 2,
            total_messages: 40,
            contacts_per_user: 3,
            ..EmailConfig::default()
        }
    }

    /// A city-scale workload matching [`crate::DieselNetConfig::city`]:
    /// `scale`× the users and messages, with the injection interval
    /// tightened so the same two-hour morning window still fits the whole
    /// day's mail — at large scales that is millions of messages per
    /// experiment from a one-second cadence.
    pub fn city(scale: usize) -> Self {
        let scale = scale.max(1);
        EmailConfig {
            users: 46 * scale,
            total_messages: 490 * scale,
            interval: SimDuration::from_secs((120 / scale as u64).max(1)),
            ..EmailConfig::default()
        }
    }

    /// Generates the workload.
    ///
    /// Messages are spread over `injection_days` days (the per-day
    /// remainder going to the earliest days), injected at `interval`
    /// spacing from the window start — the paper's two-hour window follows
    /// from 61 or 62 two-minute slots per day.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (fewer than two users or
    /// no injection days).
    pub fn generate(&self) -> EmailWorkload {
        assert!(self.users >= 2, "need at least two users");
        assert!(self.injection_days >= 1, "need at least one injection day");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let users: Vec<String> = (0..self.users).map(user_name).collect();

        // Persistent contact lists: who each user writes to.
        let contacts: Vec<Vec<usize>> = (0..self.users)
            .map(|u| {
                let k = self.contacts_per_user.min(self.users - 1).max(1);
                let mut others: Vec<usize> = (0..self.users).filter(|&v| v != u).collect();
                for i in 0..k {
                    let j = rng.gen_range(i..others.len());
                    others.swap(i, j);
                }
                others.truncate(k);
                others
            })
            .collect();

        let sender_dist = Zipf::new(self.users, self.sender_zipf_exponent);

        let days = self.injection_days as usize;
        let per_day = self.total_messages / days;
        let remainder = self.total_messages % days;

        let mut events = Vec::with_capacity(self.total_messages);
        for day in 0..self.injection_days {
            let today = per_day + usize::from((day as usize) < remainder);
            for slot in 0..today {
                let time = SimTime::from_hms(day, self.window_start_hour, 0, 0)
                    + SimDuration::from_secs(self.interval.as_secs() * slot as u64);
                let src = sender_dist.sample(&mut rng);
                let list = &contacts[src];
                let dst = list[rng.gen_range(0..list.len())];
                events.push(MessageEvent {
                    time,
                    src: users[src].clone(),
                    dst: users[dst].clone(),
                });
            }
        }
        EmailWorkload::from_events(users, events)
    }
}

/// The conventional name for user number `index` ("u0", "u1", ...).
pub fn user_name(index: usize) -> String {
    format!("u{index}")
}

/// Renders a workload to a line-oriented text form:
/// `<day> <hh:mm:ss> <src_user> <dst_user>`, with `#` comments.
pub fn format_workload(workload: &EmailWorkload) -> String {
    let mut out =
        String::from("# replidtn mail workload: <day> <hh:mm:ss> <src_user> <dst_user>\n");
    for e in workload.events() {
        let s = e.time.seconds_into_day();
        out.push_str(&format!(
            "{} {:02}:{:02}:{:02} {} {}\n",
            e.time.day(),
            s / 3600,
            (s % 3600) / 60,
            s % 60,
            e.src,
            e.dst
        ));
    }
    out
}

/// Parses a workload from the text form written by [`format_workload`].
///
/// # Errors
///
/// Returns a [`crate::TraceParseError`] identifying the first bad line.
pub fn parse_workload(text: &str) -> Result<EmailWorkload, crate::TraceParseError> {
    let mut events = Vec::new();
    let mut users = std::collections::BTreeSet::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 4 {
            return Err(crate::TraceParseError {
                line: line_no,
                message: format!("expected 4 fields, found {}", fields.len()),
            });
        }
        let day = crate::crawdad::parse_day(fields[0]).ok_or_else(|| crate::TraceParseError {
            line: line_no,
            message: format!("bad day number {:?}", fields[0]),
        })?;
        let mut hms = fields[1].split(':');
        let parse_part = |part: Option<&str>, max: u64| -> Option<u64> {
            let v: u64 = part?.parse().ok()?;
            (v < max).then_some(v)
        };
        let (Some(h), Some(m), Some(s)) = (
            parse_part(hms.next(), 24),
            parse_part(hms.next(), 60),
            parse_part(hms.next(), 60),
        ) else {
            return Err(crate::TraceParseError {
                line: line_no,
                message: format!("bad time {:?} (expected hh:mm:ss)", fields[1]),
            });
        };
        if fields[2] == fields[3] {
            return Err(crate::TraceParseError {
                line: line_no,
                message: format!("self-mail from {:?}", fields[2]),
            });
        }
        users.insert(fields[2].to_string());
        users.insert(fields[3].to_string());
        events.push(MessageEvent {
            time: SimTime::from_hms(day, h, m, s),
            src: fields[2].to_string(),
            dst: fields[3].to_string(),
        });
    }
    Ok(EmailWorkload::from_events(
        users.into_iter().collect(),
        events,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn default_matches_paper_schedule() {
        let w = EmailConfig::default().generate();
        assert_eq!(w.len(), 490, "paper: 490 messages total");
        assert_eq!(
            w.last_injection_day(),
            Some(7),
            "stops after the eighth day"
        );
        for e in w.events() {
            let s = e.time.seconds_into_day();
            assert!(s >= 8 * 3600, "injection before 08:00: {}", e.time);
            assert!(
                s < 8 * 3600 + 62 * 120,
                "injection after window: {}",
                e.time
            );
            assert_eq!(s % 120, 0, "two-minute spacing");
            assert_ne!(e.src, e.dst, "no self-mail");
        }
    }

    #[test]
    fn spread_across_days_is_even() {
        let w = EmailConfig::default().generate();
        let mut per_day = BTreeMap::new();
        for e in w.events() {
            *per_day.entry(e.time.day()).or_insert(0usize) += 1;
        }
        assert_eq!(per_day.len(), 8);
        let min = per_day.values().min().unwrap();
        let max = per_day.values().max().unwrap();
        assert!(max - min <= 1, "per-day counts differ by at most 1");
    }

    #[test]
    fn sender_activity_is_heavy_tailed() {
        let w = EmailConfig::default().generate();
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for e in w.events() {
            *counts.entry(e.src.as_str()).or_insert(0) += 1;
        }
        let mut sorted: Vec<usize> = counts.values().copied().collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top_share: usize = sorted.iter().take(5).sum();
        assert!(
            top_share * 2 > w.len(),
            "top 5 senders should produce >half the mail, got {top_share}/{}",
            w.len()
        );
    }

    #[test]
    fn contacts_are_persistent() {
        // Each sender writes to a bounded set of recipients.
        let cfg = EmailConfig::default();
        let w = cfg.generate();
        let mut recipients: BTreeMap<&str, std::collections::BTreeSet<&str>> = BTreeMap::new();
        for e in w.events() {
            recipients
                .entry(e.src.as_str())
                .or_default()
                .insert(e.dst.as_str());
        }
        for (src, dsts) in recipients {
            assert!(
                dsts.len() <= cfg.contacts_per_user,
                "{src} wrote to {} distinct users",
                dsts.len()
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(
            EmailConfig::small().generate(),
            EmailConfig::small().generate()
        );
        let other = EmailConfig {
            seed: 1,
            ..EmailConfig::small()
        };
        assert_ne!(EmailConfig::small().generate(), other.generate());
    }

    #[test]
    fn workload_text_roundtrip() {
        let original = EmailConfig::small().generate();
        let text = format_workload(&original);
        let parsed = parse_workload(&text).expect("parse");
        assert_eq!(parsed.events(), original.events());
        assert_eq!(
            parsed.users().len(),
            original
                .events()
                .iter()
                .flat_map(|e| [e.src.as_str(), e.dst.as_str()])
                .collect::<std::collections::BTreeSet<_>>()
                .len()
        );
    }

    #[test]
    fn workload_parse_errors_have_line_numbers() {
        for (text, needle) in [
            ("0 08:00:00 a\n", "4 fields"),
            ("x 08:00:00 a b\n", "bad day"),
            // u64::MAX / 86_400: the day's seconds overflow a SimTime.
            ("213503982334601 00:00:00 a b\n", "bad day"),
            ("0 25:00:00 a b\n", "bad time"),
            ("0 08:00:00 a a\n", "self-mail"),
        ] {
            let err = parse_workload(text).unwrap_err();
            assert_eq!(err.line, 1, "for {text:?}");
            assert!(
                err.message.contains(needle),
                "{:?} missing {:?}",
                err.message,
                needle
            );
        }
    }

    #[test]
    fn helpers() {
        let w = EmailConfig::small().generate();
        assert_eq!(w.users().len(), 10);
        assert_eq!(w.events_on_day(0).count() + w.events_on_day(1).count(), 40);
        assert!(!w.is_empty());
        assert_eq!(user_name(3), "u3");
    }
}
