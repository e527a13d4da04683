//! The DTN messaging application (paper §IV-A).
//!
//! Messages are replicated items: the destination address is an item
//! attribute, and each host's filter selects the messages addressed to it.
//! Eventual filter consistency then *is* reliable delivery, and knowledge
//! *is* duplicate suppression — the application itself is nearly trivial.

use obs::{Event, EventKind};
use pfr::{AttributeMap, Filter, IStr, Item, ItemId, PfrError, Replica, SimTime, Value};

fn emit_injected(replica: &Replica, id: ItemId, src: &str, dst: &str, now: SimTime) {
    replica
        .observer()
        .emit(EventKind::MessageInjected, || Event::MessageInjected {
            replica: replica.id().as_u64(),
            origin: id.origin().as_u64(),
            seq: id.seq(),
            src: src.to_string(),
            dst: dst.to_string(),
            at_secs: now.as_secs(),
        });
}

/// Attribute naming the destination address(es) of a message. A scalar
/// string for unicast; a list of strings for multicast.
pub const ATTR_DEST: &str = "dest";

/// Attribute naming the sender's address.
pub const ATTR_SRC: &str = "src";

/// Attribute holding the injection time (seconds, [`SimTime`]).
pub const ATTR_SENT_AT: &str = "sent_at";

/// Attribute holding the expiry time (seconds, [`SimTime`]); absent means
/// the message never expires.
pub const ATTR_EXPIRES_AT: &str = "expires_at";

/// A decoded view of a message item.
#[derive(Clone, Debug, PartialEq)]
pub struct Message {
    /// The underlying item id (globally unique message id).
    pub id: ItemId,
    /// Sender address.
    pub src: String,
    /// Destination addresses (one entry for unicast).
    pub dest: Vec<String>,
    /// When the message was injected.
    pub sent_at: SimTime,
    /// Message body.
    pub payload: Vec<u8>,
}

impl Message {
    /// Decodes a message from a replicated item, if the item carries the
    /// messaging attributes.
    pub fn from_item(item: &Item) -> Option<Message> {
        if !matches!(item.attrs().get(ATTR_DEST)?, Value::Str(_) | Value::List(_)) {
            return None;
        }
        let dest = dest_addresses(item).map(IStr::to_string).collect();
        Some(Message {
            id: item.id(),
            src: item
                .attrs()
                .get_str(ATTR_SRC)
                .unwrap_or_default()
                .to_owned(),
            dest,
            sent_at: SimTime::from_secs(
                item.attrs().get_i64(ATTR_SENT_AT).unwrap_or(0).max(0) as u64
            ),
            payload: item.payload().to_vec(),
        })
    }
}

/// Builds the attribute map for a unicast message.
pub fn message_attrs(src: &str, dest: &str, sent_at: SimTime) -> AttributeMap {
    let mut attrs = AttributeMap::new();
    attrs.set(ATTR_SRC, src);
    attrs.set(ATTR_DEST, dest);
    attrs.set(ATTR_SENT_AT, sent_at.as_secs() as i64);
    attrs
}

/// Builds the attribute map for a multicast message.
pub fn multicast_attrs(src: &str, dests: &[&str], sent_at: SimTime) -> AttributeMap {
    let mut attrs = AttributeMap::new();
    attrs.set(ATTR_SRC, src);
    attrs.set(
        ATTR_DEST,
        Value::List(dests.iter().map(|d| Value::from(*d)).collect()),
    );
    attrs.set(ATTR_SENT_AT, sent_at.as_secs() as i64);
    attrs
}

/// Iterates over the destination addresses of a message item (one for
/// unicast, several for multicast; none for non-message items) without
/// allocating.
pub fn dest_addresses(item: &Item) -> impl Iterator<Item = &IStr> {
    fn as_istr(value: &Value) -> Option<&IStr> {
        match value {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
    let dest = item.attrs().get(ATTR_DEST);
    let one = dest.and_then(as_istr);
    let many = dest.and_then(Value::as_list).unwrap_or_default();
    one.into_iter().chain(many.iter().filter_map(as_istr))
}

/// Injects a unicast message into a replica (paper: "the DTN application
/// simply inserts the message into the sending host's replica").
///
/// # Errors
///
/// Propagates storage errors from [`Replica::insert`].
pub fn send_message(
    replica: &mut Replica,
    src: &str,
    dest: &str,
    payload: Vec<u8>,
    now: SimTime,
) -> Result<ItemId, PfrError> {
    let id = replica.insert(message_attrs(src, dest, now), payload)?;
    emit_injected(replica, id, src, dest, now);
    Ok(id)
}

/// The absolute expiry time a message item carries, if any (negative
/// stored times clamp to zero, i.e. "already expired").
pub fn expires_at(item: &Item) -> Option<SimTime> {
    item.attrs()
        .get_i64(ATTR_EXPIRES_AT)
        .map(|t| SimTime::from_secs(t.max(0) as u64))
}

/// Injects a unicast message with a bounded lifetime: after
/// `now + lifetime`, holders stop carrying it (see
/// [`DtnNode::expire_messages`](crate::DtnNode::expire_messages)) and it
/// no longer counts as deliverable.
///
/// # Errors
///
/// Propagates storage errors from [`Replica::insert`].
pub fn send_message_with_lifetime(
    replica: &mut Replica,
    src: &str,
    dest: &str,
    payload: Vec<u8>,
    now: SimTime,
    lifetime: pfr::SimDuration,
) -> Result<ItemId, PfrError> {
    let mut attrs = message_attrs(src, dest, now);
    attrs.set(ATTR_EXPIRES_AT, (now + lifetime).as_secs() as i64);
    let id = replica.insert(attrs, payload)?;
    emit_injected(replica, id, src, dest, now);
    Ok(id)
}

/// Injects a multicast message into a replica: one item whose `dest`
/// attribute lists every recipient. Each recipient's filter matches it,
/// and at-most-once delivery applies per recipient.
///
/// # Errors
///
/// Propagates storage errors from [`Replica::insert`].
pub fn send_multicast(
    replica: &mut Replica,
    src: &str,
    dests: &[&str],
    payload: Vec<u8>,
    now: SimTime,
) -> Result<ItemId, PfrError> {
    let id = replica.insert(multicast_attrs(src, dests, now), payload)?;
    emit_injected(replica, id, src, &dests.join(","), now);
    Ok(id)
}

/// Lists the live messages in `replica` addressed to `addr`.
pub fn inbox(replica: &Replica, addr: &str) -> Vec<Message> {
    replica
        .iter_items()
        .filter(|item| !item.is_deleted())
        .filter_map(Message::from_item)
        .filter(|m| m.dest.iter().any(|d| d == addr))
        .collect()
}

/// How a host populates its filter with addresses beyond its own —
/// the multi-address strategies of paper §IV-B / §VI-B.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FilterStrategy {
    /// Only the host's own addresses (`k = 0`, "Self" in Figures 5–6).
    SelfOnly,
    /// The host's addresses plus `k` uniformly random other hosts.
    Random(usize),
    /// The host's addresses plus the `k` hosts it encounters most often in
    /// the trace (computed by the harness from encounter counts).
    Selected(usize),
}

impl FilterStrategy {
    /// The number of extra addresses the strategy requests.
    pub fn extra_addresses(self) -> usize {
        match self {
            FilterStrategy::SelfOnly => 0,
            FilterStrategy::Random(k) | FilterStrategy::Selected(k) => k,
        }
    }

    /// Label used in the figures ("Self", "+1", "+16", ...).
    pub fn label(self) -> String {
        match self {
            FilterStrategy::SelfOnly => "Self".to_string(),
            FilterStrategy::Random(k) | FilterStrategy::Selected(k) => format!("+{k}"),
        }
    }
}

/// Builds a host filter selecting every address in `own` plus `extra`.
pub fn host_filter<'a>(
    own: impl IntoIterator<Item = &'a str>,
    extra: impl IntoIterator<Item = &'a str>,
) -> Filter {
    Filter::any_address(ATTR_DEST, own.into_iter().chain(extra))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfr::ReplicaId;

    fn replica(addr: &str) -> Replica {
        Replica::new(ReplicaId::new(1), host_filter([addr], []))
    }

    #[test]
    fn send_and_decode_roundtrip() {
        let mut r = replica("a");
        let id = send_message(&mut r, "a", "b", b"hello".to_vec(), SimTime::from_secs(30)).unwrap();
        let msg = Message::from_item(r.item(id).unwrap()).unwrap();
        assert_eq!(msg.id, id);
        assert_eq!(msg.src, "a");
        assert_eq!(msg.dest, vec!["b".to_string()]);
        assert_eq!(msg.sent_at, SimTime::from_secs(30));
        assert_eq!(msg.payload, b"hello");
    }

    #[test]
    fn multicast_attrs_filterable_per_recipient() {
        let attrs = multicast_attrs("a", &["b", "c"], SimTime::ZERO);
        assert!(host_filter(["b"], []).matches_attrs(&attrs));
        assert!(host_filter(["c"], []).matches_attrs(&attrs));
        assert!(!host_filter(["d"], []).matches_attrs(&attrs));
    }

    #[test]
    fn inbox_filters_by_address_and_liveness() {
        let mut r = Replica::new(ReplicaId::new(1), Filter::All);
        send_message(&mut r, "x", "me", b"1".to_vec(), SimTime::ZERO).unwrap();
        let dead = send_message(&mut r, "x", "me", b"2".to_vec(), SimTime::ZERO).unwrap();
        send_message(&mut r, "x", "other", b"3".to_vec(), SimTime::ZERO).unwrap();
        r.delete(dead).unwrap();
        let msgs = inbox(&r, "me");
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].payload, b"1");
    }

    #[test]
    fn non_message_items_are_skipped() {
        let mut attrs = AttributeMap::new();
        attrs.set("kind", "not-a-message");
        let mut r = Replica::new(ReplicaId::new(1), Filter::All);
        r.insert(attrs, vec![]).unwrap();
        assert!(inbox(&r, "me").is_empty());
        let item = r.iter_items().next().unwrap();
        assert_eq!(Message::from_item(item), None);
    }

    #[test]
    fn strategy_labels_match_figures() {
        assert_eq!(FilterStrategy::SelfOnly.label(), "Self");
        assert_eq!(FilterStrategy::Random(4).label(), "+4");
        assert_eq!(FilterStrategy::Selected(16).label(), "+16");
        assert_eq!(FilterStrategy::SelfOnly.extra_addresses(), 0);
        assert_eq!(FilterStrategy::Selected(8).extra_addresses(), 8);
    }

    #[test]
    fn host_filter_includes_all_addresses() {
        let f = host_filter(["me"], ["friend1", "friend2"]);
        let attrs = message_attrs("x", "friend2", SimTime::ZERO);
        assert!(f.matches_attrs(&attrs));
        let attrs = message_attrs("x", "stranger", SimTime::ZERO);
        assert!(!f.matches_attrs(&attrs));
    }
}
