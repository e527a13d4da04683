//! What the benchmark declares — workloads, end-to-end metrics, per-layer
//! metrics — and the report a run fills in and prints. `BENCHMARK.json`
//! at the repository root repeats these tables; `tests/smoke.rs` fails if
//! the two drift apart.

use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct Decl {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: Better::Lower,
    }
}

/// The workloads and why each exists (the `why` of `BENCHMARK.json`).
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "paper_policies",
        "the paper's experiment, all six policies on the serial engine: dtn policy code dominates; store, net and recon do nothing",
    ),
    (
        "city_spill",
        "340-vehicle spooled replay under a residency cap: emu::shard, traces spool, store::SpillFile and pfr snapshot/restore work; recon is bypassed",
    ),
    (
        "city_digest",
        "the same spool in SyncMode::Digest without a cap: recon and pfr::digest dominate and spill is bypassed, the reverse of city_spill",
    ),
    (
        "mesh_mem",
        "the paper trace as sequential loopback TCP sessions between in-memory nodes: net reactor, transport framing, pfr::wire; emu and store absent",
    ),
    (
        "mesh_durable",
        "the same sessions between DtnNode::open nodes with fsync: store WAL/checkpoint persist dominates, which mesh_mem never touches",
    ),
];

/// What a user of the system sees; every workload reports all three.
pub const END_TO_END: [Decl; 3] = [
    lo("setup_s", "s"),
    hi("enc_per_s", "1/s"),
    lo("peak_rss_mib", "MiB"),
];

/// Single-layer metrics. Every workload reports every name; one that
/// does not exercise the layer (or does not run the probe) reports 0.
pub const PER_LAYER: [Decl; 72] = [
    // Exact simulated / counted results of the workload itself. They vary
    // with the seed, not with the host, so they carry no bound here; for
    // one seed they must repeat exactly.
    hi("delivered_pct", "%"),
    lo("mean_delay_h", "h"),
    lo("wire_bytes_per_enc", "B"),
    // traces
    hi("traces.gen_enc_per_s", "1/s"),
    hi("traces.spool_read_enc_per_s", "1/s"),
    lo("traces.spool_bytes_per_enc", "B"),
    // emu
    hi("emu.serial_idle_enc_per_s", "1/s"),
    hi("emu.shard_idle_enc_per_s", "1/s"),
    lo("emu.fleet_build_ms", "ms"),
    lo("emu.handoffs_per_enc", "count"),
    lo("emu.thrash_ratio", "ratio"),
    lo("emu.resident_peak", "count"),
    lo("emu.unspill_p99_us", "us"),
    hi("emu.pool2_enc_per_s", "1/s"),
    // dtn
    hi("dtn.direct.enc_per_s", "1/s"),
    hi("dtn.twohop.enc_per_s", "1/s"),
    hi("dtn.prophet.enc_per_s", "1/s"),
    hi("dtn.spray.enc_per_s", "1/s"),
    hi("dtn.epidemic.enc_per_s", "1/s"),
    hi("dtn.maxprop.enc_per_s", "1/s"),
    lo("dtn.direct.tx_per_enc", "count"),
    lo("dtn.twohop.tx_per_enc", "count"),
    lo("dtn.prophet.tx_per_enc", "count"),
    lo("dtn.spray.tx_per_enc", "count"),
    lo("dtn.epidemic.tx_per_enc", "count"),
    lo("dtn.maxprop.tx_per_enc", "count"),
    lo("dtn.encounter_p50_us", "us"),
    lo("dtn.encounter_p99_us", "us"),
    // pfr
    lo("pfr.candidates_per_enc", "count"),
    lo("pfr.batch_items_per_enc", "count"),
    lo("pfr.knowledge_entries_mean", "count"),
    lo("pfr.snapshot_p50_us", "us"),
    lo("pfr.restore_p50_us", "us"),
    lo("pfr.snapshot_bytes_mean", "B"),
    hi("pfr.wire_encode_mb_s", "MB/s"),
    hi("pfr.wire_decode_mb_s", "MB/s"),
    // recon
    lo("recon.digest_slowdown_x", "x"),
    lo("recon.digest_bytes_per_enc", "B"),
    hi("recon.bytes_saved_ratio", "ratio"),
    lo("recon.fallback_per_kenc", "count"),
    lo("recon.false_pos_per_kenc", "count"),
    lo("recon.bloom_ns_per_item", "ns"),
    lo("recon.iblt_decode_us", "us"),
    lo("recon.strata_us", "us"),
    // transport
    hi("transport.frame_mb_s", "MB/s"),
    hi("transport.pool_hit_ratio", "ratio"),
    lo("transport.peer_session_p50_us", "us"),
    // net
    lo("net.session_p50_us", "us"),
    lo("net.session_p99_us", "us"),
    lo("net.syscalls_per_session", "count"),
    lo("net.wakeups_per_session", "count"),
    hi("net.conn_reuse_ratio", "ratio"),
    lo("net.machine_us_per_session", "us"),
    lo("net.start_ms", "ms"),
    // store
    lo("store.persist_p50_us", "us"),
    lo("store.persist_p99_us", "us"),
    lo("store.fsyncs_per_session", "count"),
    lo("store.wal_bytes_per_session", "B"),
    lo("store.checkpoints_per_ksession", "count"),
    lo("store.write_amp", "ratio"),
    lo("store.recovery_p50_ms", "ms"),
    hi("store.spill_write_mb_s", "MB/s"),
    hi("store.spill_read_mb_s", "MB/s"),
    lo("store.spill_file_mib", "MiB"),
    // the cost of looking, and the noise witness
    lo("obs.overhead_pct", "%"),
    lo("obs.events_per_enc", "count"),
    lo("alloc.per_enc", "count"),
    hi("harness.best_enc_per_s", "1/s"),
    lo("harness.host_slowdown_x", "x"),
    lo("harness.rep_median_s", "s"),
    lo("harness.rep_spread_pct", "%"),
    hi("harness.reps", "count"),
];

/// The short policy names used in `dtn.<p>.*`, in `PolicyKind::EXTENDED`
/// order.
pub const POLICY_KEYS: [&str; 6] = [
    "direct", "twohop", "prophet", "spray", "epidemic", "maxprop",
];

fn declared(name: &str) -> Option<&'static Decl> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

/// The values one run measured, its operation counts and its checks.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Encounters / sessions executed by the timed repetitions.
    pub attempted: u64,
    /// Sessions that returned an error plus checks that did not hold.
    pub failed: u64,
    broken: Vec<String>,
}

impl Report {
    /// Records a metric.
    ///
    /// # Panics
    ///
    /// On an undeclared name, a second value for a name, or a value that
    /// is not finite: each is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let decl = declared(name).unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let previous = self.values.insert(decl.name, value);
        assert!(previous.is_none(), "metric {name} reported twice");
    }

    /// Records an invariant; a broken one fails the run.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.failed += 1;
            self.broken.push(what());
        }
    }

    /// Whether every check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Prints every recorded metric with its unit, the broken checks, and
    /// — last line — the result object: end-to-end metrics when `trace`
    /// is off, per-layer metrics (unreported ones as 0) when it is on.
    pub fn print(&self, workload: &str, trace: bool) {
        println!("== {workload}: metrics ==");
        for decl in END_TO_END.iter().chain(PER_LAYER.iter()) {
            if let Some(value) = self.values.get(decl.name) {
                println!("  {:<34} {:>16.4} {}", decl.name, value, decl.unit);
            }
        }
        println!("  {:<34} {:>16}", "ops", self.attempted);
        println!("  {:<34} {:>16}", "failed", self.failed);
        for what in &self.broken {
            println!("  BROKEN: {what}");
        }
        let group: &[Decl] = if trace { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = group
            .iter()
            .map(|decl| {
                let value = match self.values.get(decl.name) {
                    Some(v) => *v,
                    None if trace => 0.0,
                    None => panic!("end-to-end metric {} was not measured", decl.name),
                };
                // `{}` prints every digit an f64 has and never an exponent.
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    decl.name, decl.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    /// (name, unit, better) of each element of a `BENCHMARK.json` array.
    fn declared_in(benchmark: &Value, section: &str) -> Vec<(String, String, String)> {
        let text = |m: &Value, key: &str| {
            m.get(key)
                .and_then(Value::as_str)
                .unwrap_or_else(|| panic!("{section}: an element has no {key}"))
                .to_string()
        };
        benchmark
            .get(section)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
            .elements()
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect()
    }

    #[test]
    fn benchmark_json_repeats_these_tables() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let benchmark = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json is JSON");
        let table = |decls: &[Decl]| -> Vec<(String, String, String)> {
            decls
                .iter()
                .map(|d| {
                    let better = match d.better {
                        Better::Higher => "higher",
                        Better::Lower => "lower",
                    };
                    (d.name.into(), d.unit.into(), better.into())
                })
                .collect()
        };
        assert_eq!(declared_in(&benchmark, "end_to_end"), table(&END_TO_END));
        assert_eq!(declared_in(&benchmark, "per_layer"), table(&PER_LAYER));
        let workloads: Vec<(String, String)> = benchmark
            .get("workloads")
            .expect("workloads")
            .elements()
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Value::as_str).expect("name").into(),
                    w.get("why").and_then(Value::as_str).expect("why").into(),
                )
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(name, why)| (name.to_string(), why.to_string()))
            .collect();
        assert_eq!(workloads, ours);
        for (_, why) in WORKLOADS {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why too long: {why}"
            );
        }
        for bound in benchmark.get("end_to_end").expect("end_to_end").elements() {
            let bound = bound.get("bound").and_then(Value::as_f64).expect("bound");
            assert!(
                bound > 0.0 && bound <= 0.25,
                "bound {bound} outside (0, 0.25]"
            );
        }
    }
}
