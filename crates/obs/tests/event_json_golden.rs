//! Golden JSON lines: one hand-built instance of every `Event` variant and
//! the exact line `to_json()` renders for it. The JSONL stream is a
//! published format (`--events FILE`), so any change to a key, its order,
//! a value's spelling or the string escaping must show up here.

use std::collections::BTreeSet;

use obs::{DecisionKind, DropReason, Event, EventKind};

fn cases() -> Vec<(Event, &'static str)> {
    vec![
        (
            Event::MessageInjected {
                replica: 1,
                origin: 1,
                seq: 2,
                src: "a\"b\\c".to_string(),
                dst: "line\nbreak\ttab\r\u{1}".to_string(),
                at_secs: 3,
            },
            r#"{"event":"message_injected","replica":1,"origin":1,"seq":2,"src":"a\"b\\c","dst":"line\nbreak\ttab\r\u0001","at":3}"#,
        ),
        (
            Event::SyncStarted {
                target: 4,
                source: 5,
                at_secs: 6,
            },
            r#"{"event":"sync_started","target":4,"source":5,"at":6}"#,
        ),
        (
            Event::SyncCandidatesSelected {
                source: 7,
                target: 8,
                candidates: 9,
                selected: 10,
                scan_us: 11,
                at_secs: 12,
            },
            r#"{"event":"sync_candidates_selected","source":7,"target":8,"candidates":9,"selected":10,"scan_us":11,"at":12}"#,
        ),
        (
            Event::SweepStarted {
                jobs: 13,
                workers: 14,
            },
            r#"{"event":"sweep_started","jobs":13,"workers":14}"#,
        ),
        (
            Event::SyncBatchSent {
                source: 15,
                target: 16,
                entries: 17,
                withheld: 18,
                payload_bytes: 19,
                at_secs: 20,
            },
            r#"{"event":"sync_batch_sent","source":15,"target":16,"entries":17,"withheld":18,"payload_bytes":19,"at":20}"#,
        ),
        (
            Event::ItemTransmitted {
                source: 21,
                target: 22,
                origin: 23,
                seq: 24,
                bytes: 25,
                matched_filter: true,
                at_secs: 26,
            },
            r#"{"event":"item_transmitted","source":21,"target":22,"origin":23,"seq":24,"bytes":25,"matched_filter":true,"at":26}"#,
        ),
        (
            Event::ItemDelivered {
                replica: 27,
                source: 28,
                origin: 29,
                seq: 30,
                at_secs: 31,
            },
            r#"{"event":"item_delivered","replica":27,"source":28,"origin":29,"seq":30,"at":31}"#,
        ),
        (
            Event::ItemRelayed {
                replica: 32,
                source: 33,
                origin: 34,
                seq: 35,
                at_secs: 36,
            },
            r#"{"event":"item_relayed","replica":32,"source":33,"origin":34,"seq":35,"at":36}"#,
        ),
        (
            Event::ItemEvicted {
                replica: 37,
                origin: 38,
                seq: 39,
            },
            r#"{"event":"item_evicted","replica":37,"origin":38,"seq":39}"#,
        ),
        (
            Event::ItemExpired {
                replica: 40,
                origin: 41,
                seq: 42,
                at_secs: 43,
            },
            r#"{"event":"item_expired","replica":40,"origin":41,"seq":42,"at":43}"#,
        ),
        (
            Event::MessageDropped {
                replica: 44,
                origin: 45,
                seq: 46,
                reason: DropReason::Acked,
            },
            r#"{"event":"message_dropped","replica":44,"origin":45,"seq":46,"reason":"acked"}"#,
        ),
        (
            Event::MessageDelivered {
                replica: 47,
                origin: 48,
                seq: 49,
                delay_secs: 50,
                at_secs: 51,
            },
            r#"{"event":"message_delivered","replica":47,"origin":48,"seq":49,"delay":50,"at":51}"#,
        ),
        (
            Event::EncounterCompleted {
                a: 52,
                b: 53,
                transmitted: 54,
                delivered: 55,
                duplicates: 0,
                at_secs: 56,
            },
            r#"{"event":"encounter_completed","a":52,"b":53,"transmitted":54,"delivered":55,"duplicates":0,"at":56}"#,
        ),
        (
            Event::KnowledgeMerged {
                replica: 57,
                peer: 58,
                batch_entries: 59,
                knowledge_replicas: 60,
                knowledge_exceptions: 61,
                at_secs: 62,
            },
            r#"{"event":"knowledge_merged","replica":57,"peer":58,"batch_entries":59,"knowledge_replicas":60,"knowledge_exceptions":61,"at":62}"#,
        ),
        (
            Event::PolicyDecision {
                replica: 63,
                peer: 64,
                policy: "maxprop",
                kind: DecisionKind::Forward,
                origin: 65,
                seq: 66,
                cost: f64::INFINITY,
                at_secs: 67,
            },
            r#"{"event":"policy_decision","replica":63,"peer":64,"policy":"maxprop","kind":"forward","origin":65,"seq":66,"cost":"inf","at":67}"#,
        ),
        (
            Event::SpanEnded {
                name: "encounter",
                replica: 68,
                peer: 0,
                wall_micros: 69,
            },
            r#"{"event":"span_ended","name":"encounter","replica":68,"peer":0,"wall_micros":69}"#,
        ),
        (
            Event::TransportSync {
                replica: 70,
                peer: 71,
                served: 72,
                delivered: 73,
                frame_bytes: 74,
                ok: false,
            },
            r#"{"event":"transport_sync","replica":70,"peer":71,"served":72,"delivered":73,"frame_bytes":74,"ok":false}"#,
        ),
        (
            Event::DataPlaneReuse {
                replica: 75,
                peer: 76,
                scratch_reuses: 77,
                bytes_encoded: 78,
                pool_hits: 79,
                payload_shares: 80,
                bytes_decoded: 81,
            },
            r#"{"event":"data_plane_reuse","replica":75,"peer":76,"scratch_reuses":77,"bytes_encoded":78,"pool_hits":79,"payload_shares":80,"bytes_decoded":81}"#,
        ),
        (
            Event::ReconDigest {
                replica: 82,
                peer: 83,
                kind: "delta",
                digest_bytes: 84,
                full_bytes: 85,
                fallback_rounds: 1,
            },
            r#"{"event":"recon_digest","replica":82,"peer":83,"kind":"delta","digest_bytes":84,"full_bytes":85,"fallback_rounds":1}"#,
        ),
        (
            Event::WalAppend {
                bytes: 86,
                fsync: true,
                wal_bytes: 87,
            },
            r#"{"event":"wal_append","bytes":86,"fsync":true,"wal_bytes":87}"#,
        ),
        (
            Event::CheckpointWritten {
                seq: 88,
                entries: 89,
                bytes: 90,
                wall_micros: 91,
            },
            r#"{"event":"checkpoint_written","seq":88,"entries":89,"bytes":90,"wall_micros":91}"#,
        ),
        (
            Event::StoreRecovered {
                checkpoint_seq: 92,
                wal_records: 93,
                truncated_bytes: 94,
                wall_micros: 95,
            },
            r#"{"event":"store_recovered","checkpoint_seq":92,"wal_records":93,"truncated_bytes":94,"wall_micros":95}"#,
        ),
        (
            Event::StoreFault {
                op: "persist",
                detail: "disk \"full\"".to_string(),
            },
            r#"{"event":"store_fault","op":"persist","detail":"disk \"full\""}"#,
        ),
        (
            Event::NetSession {
                replica: 99,
                peer: 100,
                inbound: true,
                reused: false,
                ok: true,
                wall_micros: 101,
            },
            r#"{"event":"net_session","replica":99,"peer":100,"inbound":true,"reused":false,"ok":true,"wall_micros":101}"#,
        ),
        (
            Event::GossipRound {
                replica: 102,
                fanout: 103,
                alive: 104,
                suspect: 105,
                learned: 106,
            },
            r#"{"event":"gossip_round","replica":102,"fanout":103,"alive":104,"suspect":105,"learned":106}"#,
        ),
        (
            Event::NetBackpressure {
                replica: 107,
                peer: 108,
                queued_bytes: 109,
            },
            r#"{"event":"net_backpressure","replica":107,"peer":108,"queued_bytes":109}"#,
        ),
        (
            Event::NetPoll {
                replica: 110,
                syscalls: 111,
                wakeups: 112,
                woken: 113,
                wakeup_latency_us: 114,
            },
            r#"{"event":"net_poll","replica":110,"syscalls":111,"wakeups":112,"woken":113,"wakeup_latency_us":114}"#,
        ),
        (
            Event::ReplicaSpill {
                replica: 115,
                bytes: 116,
                resident: 117,
                unspill: true,
                latency_us: 118,
                file_bytes: 119,
                knowledge_checksum: 120,
            },
            r#"{"event":"replica_spill","replica":115,"bytes":116,"resident":117,"unspill":true,"latency_us":118,"file_bytes":119,"knowledge_checksum":120}"#,
        ),
        // Edge cases beyond one instance per variant: the other enum
        // labels, and finite and non-finite costs.
        (
            Event::MessageDropped {
                replica: 1,
                origin: 2,
                seq: 3,
                reason: DropReason::Expired,
            },
            r#"{"event":"message_dropped","replica":1,"origin":2,"seq":3,"reason":"expired"}"#,
        ),
        (
            Event::MessageDropped {
                replica: 1,
                origin: 2,
                seq: 3,
                reason: DropReason::Evicted,
            },
            r#"{"event":"message_dropped","replica":1,"origin":2,"seq":3,"reason":"evicted"}"#,
        ),
        (
            Event::PolicyDecision {
                replica: 1,
                peer: 2,
                policy: "prophet",
                kind: DecisionKind::Suppress,
                origin: 3,
                seq: 4,
                cost: 0.25,
                at_secs: u64::MAX,
            },
            r#"{"event":"policy_decision","replica":1,"peer":2,"policy":"prophet","kind":"suppress","origin":3,"seq":4,"cost":0.25,"at":18446744073709551615}"#,
        ),
        (
            Event::PolicyDecision {
                replica: 1,
                peer: 2,
                policy: "epidemic",
                kind: DecisionKind::RequestProcessed,
                origin: 0,
                seq: 0,
                cost: f64::NAN,
                at_secs: 0,
            },
            r#"{"event":"policy_decision","replica":1,"peer":2,"policy":"epidemic","kind":"request","origin":0,"seq":0,"cost":"NaN","at":0}"#,
        ),
        (
            Event::PolicyDecision {
                replica: 1,
                peer: 2,
                policy: "maxprop",
                kind: DecisionKind::Forward,
                origin: 3,
                seq: 4,
                cost: -12.0,
                at_secs: 5,
            },
            r#"{"event":"policy_decision","replica":1,"peer":2,"policy":"maxprop","kind":"forward","origin":3,"seq":4,"cost":-12,"at":5}"#,
        ),
        (
            Event::PolicyDecision {
                replica: 1,
                peer: 2,
                policy: "twohop",
                kind: DecisionKind::Park,
                origin: 3,
                seq: 4,
                cost: 0.0,
                at_secs: 5,
            },
            r#"{"event":"policy_decision","replica":1,"peer":2,"policy":"twohop","kind":"park","origin":3,"seq":4,"cost":0,"at":5}"#,
        ),
    ]
}

#[test]
fn every_variant_renders_its_golden_line() {
    for (event, want) in cases() {
        assert_eq!(event.to_json(), want, "{event:?}");
    }
}

#[test]
fn the_cases_cover_every_kind() {
    let covered: BTreeSet<&str> = cases()
        .iter()
        .map(|(event, _)| event.event_kind().name())
        .collect();
    let all: BTreeSet<&str> = EventKind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(covered, all);
    assert_eq!(all.len(), 28);
}
