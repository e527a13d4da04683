#!/usr/bin/env bash
# Structural guards for the macro_recon, macro_scale and macro_net
# benchmark artifacts. Wall-clock numbers vary across CI machines, so the
# gates are invariants and relative or deterministic quantities only.
#
# The macro_recon artifact is gated structurally at any size
# (identical metrics, digest metadata below full) and, at full size (a
# replay of 30 days or more — the committed one qualifies; CI's two-day
# recon-smoke run, where most exchanges are still first contacts, is
# exempt), quantitatively: digest-mode metadata must undercut full
# knowledge exchange by at least 3x. Byte counts come from deterministic
# wire encodings, so — unlike wall clock — that ratio is stable enough to
# fail the build on.
#
# The macro_scale artifact (city-scale engine) is gated structurally:
# the spilled, sharded, and "serial" (one-shard, all-resident) replays
# produced identical metrics, the fleet is genuinely larger than the
# paper's 34 buses, cross-shard handoffs and spills actually happened,
# and the spill mode's peak RSS did not exceed the everything-resident mode's
# (the spill run is measured first, so the bound holds even on kernels
# that refuse the VmHWM reset). Full-size artifacts (fleet >= 1,000 —
# the committed scale-100 run qualifies; CI's shrunken smoke runs are
# exempt) additionally carry the residency-health gates: the sharded
# engine must beat the serial baseline on encounters/s (relative gates
# between two runs of the same binary on the same machine are stable
# where absolute wall-clock gates are not), the thrash ratio (unspills
# per encounter) must stay at or below 0.3 — lookahead-driven eviction
# and prefetch, not fault-on-touch — and the spill mode's peak RSS must
# undercut the serial baseline's.
#
# The macro_net artifact (async reactor load generator) is gated
# structurally at any size: no session failed or was lost,
# throughput/latency/syscall/wakeup accounting collected, delivery stayed
# exactly-once both ways, and the gossip chain converged within its
# round bound.
#
# Usage: scripts/perf_guard.sh [BENCH_recon.json] [BENCH_scale.json] [BENCH_net.json]
set -euo pipefail

RECON_FILE=${1:-crates/bench/BENCH_recon.json}
SCALE_FILE=${2:-crates/bench/BENCH_scale.json}
NET_FILE=${3:-crates/bench/BENCH_net.json}
if [[ ! -f "$RECON_FILE" ]]; then
    echo "error: $RECON_FILE not found (run: cargo bench -p replidtn-bench --bench macro_recon)" >&2
    exit 1
fi
if [[ ! -f "$SCALE_FILE" ]]; then
    echo "error: $SCALE_FILE not found (run: cargo bench -p replidtn-bench --bench macro_scale)" >&2
    exit 1
fi
if [[ ! -f "$NET_FILE" ]]; then
    echo "error: $NET_FILE not found (run: cargo bench -p replidtn-bench --bench macro_net)" >&2
    exit 1
fi

python3 - "$RECON_FILE" <<'EOF'
import json, sys

path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)

failures = []

def check(cond, msg):
    if not cond:
        failures.append(msg)

check(doc.get("bench") == "macro_recon", "bench name is not macro_recon")
check(doc.get("metrics_identical") is True,
      "full and digest replays did NOT produce identical metrics")
check(doc.get("encounters", 0) > 0, "replay ran zero encounters")
check(doc.get("delivered", 0) > 0, "replay delivered zero messages")

digest = doc.get("digest", {})
check(digest.get("exchanges", 0) > 0, "digest mode ran zero exchanges")
check(digest.get("digest_bytes", 0) > 0, "recon.digest_bytes is zero")
check(digest.get("full_bytes", 0) > digest.get("digest_bytes", 0),
      "digest metadata did not undercut full knowledge exchange")

# The tentpole's quantitative acceptance gate: wire encodings are
# deterministic, so the metadata reduction on a full-size replay (the
# committed 30-day one) is a stable >= 3x. Short smoke slices are mostly
# first contacts, which no summary can shorten, and are exempt.
ratio = doc.get("metadata_ratio", 0)
if doc.get("days", 0) >= 30:
    check(ratio >= 3.0,
          f"digest mode reduces sync metadata only {ratio}x (expected >= 3x)")

if failures:
    for f in failures:
        print(f"perf_guard: FAIL: {f}", file=sys.stderr)
    sys.exit(1)

print(f"perf_guard: OK ({path}: days={doc['days']} "
      f"exchanges={digest.get('exchanges')} "
      f"metrics_identical={doc['metrics_identical']} "
      f"metadata_ratio={ratio}x)")
EOF

python3 - "$SCALE_FILE" <<'EOF'
import json, sys

path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)

failures = []

def check(cond, msg):
    if not cond:
        failures.append(msg)

check(doc.get("bench") == "macro_scale", "bench name is not macro_scale")
check(doc.get("metrics_identical") is True,
      "spilled and sharded replays did NOT produce identical metrics")
check(doc.get("encounters", 0) > 0, "replay ran zero encounters")
check(doc.get("messages", 0) > 0, "replay injected zero messages")
check(doc.get("fleet", 0) > 34,
      "fleet is not larger than the paper's 34 buses")
check(doc.get("fleet", 0) == 34 * doc.get("scale", 0),
      "fleet does not match 34 x scale")
check(doc.get("workers", 0) >= 2, "fewer than 2 worker shards")
check(0 < doc.get("resident_limit", 0) < doc.get("fleet", 0),
      "resident limit does not actually bound the fleet")

# The scale machinery must have engaged: cross-shard encounters handed
# off, and the residency cap forced spill/unspill round trips with the
# health instrumentation collected.
shard = doc.get("shard", {})
check(shard.get("spills", 0) > 0, "shard.spills is zero")
check(shard.get("unspills", 0) > 0, "shard.unspills is zero")
check(shard.get("evictions", 0) > 0, "shard.evictions is zero")
check(shard.get("thrash_ratio", -1) >= 0, "shard.thrash_ratio missing")
check(shard.get("resident_peak", 0) > 0, "shard.resident_peak is zero")
check(shard.get("spill_file_bytes", 0) > 0, "shard.spill_file_bytes is zero")

for mode in ("spill", "sharded"):
    m = doc.get(mode, {})
    check(m.get("encounters_per_sec", 0) > 0,
          f"{mode}: zero encounter throughput")
    check(m.get("seconds", 0) > 0, f"{mode}: zero elapsed time")

# Bounded residency: the spill mode (measured first, so honest even
# without a VmHWM reset) must not out-peak the everything-resident mode.
spill_rss = doc.get("spill", {}).get("peak_rss_kb", 0)
sharded_rss = doc.get("sharded", {}).get("peak_rss_kb", 0)
check(spill_rss > 0, "spill: peak RSS not measured")
check(spill_rss <= sharded_rss,
      f"spill peak RSS ({spill_rss} KiB) exceeds the resident mode's "
      f"({sharded_rss} KiB)")

# When the serial baseline ran (it is skipped at very large scales), the
# bench asserted metric equality before writing the artifact; require
# its presence at smoke scales so the differential anchor is exercised.
if doc.get("scale", 0) <= 100:
    check(doc.get("serial") is not None,
          "serial baseline missing at a scale where it must run")

# Residency-health gates, armed only on full-size artifacts (the
# committed scale-100 run; CI smoke runs at tiny scales where fixed
# overheads — not the engine — dominate the comparison).
serial = doc.get("serial")
if doc.get("fleet", 0) >= 1000:
    check(serial is not None,
          "full-size artifact must carry the serial baseline")
    if serial is not None:
        check(doc.get("sharded", {}).get("encounters_per_sec", 0)
              >= serial.get("encounters_per_sec", 1e18),
              f"sharded engine ({doc.get('sharded', {}).get('encounters_per_sec')} enc/s) "
              f"does not beat the serial baseline "
              f"({serial.get('encounters_per_sec')} enc/s)")
        check(spill_rss < serial.get("peak_rss_kb", 0),
              f"spill peak RSS ({spill_rss} KiB) not below the serial "
              f"baseline's ({serial.get('peak_rss_kb')} KiB)")
    check(shard.get("thrash_ratio", 1e18) <= 0.3,
          f"thrash ratio {shard.get('thrash_ratio')} unspills/encounter "
          "exceeds 0.3: residency is faulting on touch, not prefetching")

if failures:
    for f in failures:
        print(f"perf_guard: FAIL: {f}", file=sys.stderr)
    sys.exit(1)

print(f"perf_guard: OK ({path}: scale={doc['scale']} fleet={doc['fleet']} "
      f"({doc.get('fleet_vs_paper')}x paper) days={doc['days']} "
      f"encounters={doc['encounters']} workers={doc['workers']} "
      f"handoffs={shard.get('handoffs')} spills={shard.get('spills')} "
      f"thrash_ratio={shard.get('thrash_ratio')} "
      f"spill_rss_kb={spill_rss} sharded_rss_kb={sharded_rss})")
EOF

python3 - "$NET_FILE" <<'EOF'
import json, sys

path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)

failures = []

def check(cond, msg):
    if not cond:
        failures.append(msg)

check(doc.get("bench") == "macro_net", "bench name is not macro_net")

sessions = doc.get("sessions", 0)
check(sessions > 0, "burst ran zero sessions")
check(doc.get("messages", 0) > 0, "burst carried zero messages")

b = doc.get("burst", {})
check(b.get("completed", 0) >= sessions, "sessions were lost")
check(b.get("failed", 1) == 0, "sessions failed under the burst")
check(b.get("peak_concurrent_sessions", 0) >= 1, "no session ever opened")
check(b.get("sessions_per_sec", 0) > 0, "zero session throughput")
check(b.get("syscalls", 0) > 0, "syscall accounting missing")
check(b.get("wakeups", 0) > 0, "wakeup accounting missing")
check(b.get("syscalls_per_session", 0) > 0, "syscalls_per_session missing")
p50 = b.get("p50_micros", 0)
p99 = b.get("p99_micros", 0)
check(p50 > 0, "p50 latency not collected")
check(p99 >= p50, "p99 below p50: quantiles are broken")
messages = doc.get("messages", 0)
check(b.get("server_inbox") == messages and b.get("client_inbox") == messages,
      f"delivery was not exactly-once: inboxes {b.get('server_inbox')} / "
      f"{b.get('client_inbox')} for {messages} messages each way")

gossip = doc.get("gossip", {})
check(gossip.get("converged") is True, "gossip chain did not converge")
check(gossip.get("nodes", 0) >= 2, "gossip section ran a trivial cluster")
check(0 < gossip.get("rounds_to_converge", 0) <= gossip.get("bound", 0),
      "gossip convergence exceeded its round bound")

if failures:
    for f in failures:
        print(f"perf_guard: FAIL: {f}", file=sys.stderr)
    sys.exit(1)

print(f"perf_guard: OK ({path}: sessions={sessions} "
      f"{b.get('sessions_per_sec')}/s "
      f"p99={p99}us "
      f"syscalls/session={b.get('syscalls_per_session')} "
      f"gossip_rounds={gossip.get('rounds_to_converge')}/{gossip.get('bound')})")
EOF
