//! `replidtn` — command-line front end for the DTN-over-replication stack.
//!
//! ```text
//! replidtn gen-trace [--days N] [--fleet N] [--buses-per-day N] [--seed S]
//!                    [--scale N] [--out FILE | --spool FILE]
//! replidtn gen-mail  [--messages N] [--users N] [--days N] [--seed S] [--out FILE]
//! replidtn run --policy <cimbiosys|twohop|epidemic|spray|prophet|maxprop>
//!              [--trace FILE | --spool FILE] [--mail FILE]
//!              [--bandwidth N] [--storage N]
//!              [--strategy <random|selected>] [--k N] [--seed S]
//!              [--spill-dir DIR] [--resident-limit N]
//!              [--data-dir DIR] [--events FILE] [--stats]
//! replidtn peer --id N --address ADDR [--policy P] --listen HOST:PORT
//!               [--connect HOST:PORT]... [--send DEST:TEXT]... [--serve-for SECS]
//!               [--gossip] [--seed-peer HOST:PORT]... [--max-sessions N]
//!               [--gossip-interval-ms MS] [--anti-entropy-ms MS]
//!               [--connect-timeout-ms MS] [--io-timeout-ms MS]
//!               [--retries N] [--backoff-ms MS]
//!               [--data-dir DIR] [--events FILE] [--stats]
//! replidtn fig --id <5|6|7a|7b|8|9|10> [--events FILE] [--stats]
//! ```
//!
//! City-scale runs combine `gen-trace --scale N --spool FILE` (streamed
//! binary trace, never resident) with `run --spool FILE
//! [--resident-limit R --spill-dir DIR]`: the engine spills cold
//! replicas, on one thread, producing the exact metrics of an
//! all-resident in-memory run.
//!
//! `--data-dir DIR` makes state durable: `peer` opens its node from the
//! directory (restoring items, knowledge, and routing state after a
//! crash) and persists after every session; `run` writes each node's
//! final state under `DIR/node-<id>` when the emulation finishes.
//!
//! `--events FILE` streams the structured event log (one JSON object per
//! line) from the observability layer; `--stats` prints the aggregated
//! counter/histogram registry as CSV after the run. Both are accepted by
//! `run`, `peer`, and `fig`.
//!
//! `gen-trace`/`gen-mail` write the text formats accepted by `run`, so a
//! real CRAWDAD-derived trace can be swapped in with no code changes.

use std::process::ExitCode;
use std::sync::Arc;

use replidtn::cli::Flags;
use replidtn::dtn::{DtnNode, EncounterBudget, FilterStrategy, PolicyKind};
use replidtn::emu::{Emulation, EmulationConfig};
use replidtn::net::{MembershipConfig, NetConfig, NetNode};
use replidtn::obs::{Fanout, JsonlSink, Obs, Observer, Registry};
use replidtn::pfr::{ReplicaId, SimDuration, SimTime};
use replidtn::traces::{
    format_trace, format_workload, parse_trace, parse_workload, DieselNetConfig, EmailConfig,
    SpooledTrace,
};
use replidtn::transport::{DialConfig, Peer};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen-trace") => gen_trace(&args[1..]),
        Some("gen-mail") => gen_mail(&args[1..]),
        Some("run") => run(&args[1..]),
        Some("peer") => peer(&args[1..]),
        Some("fig") => fig(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}; try `replidtn help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
replidtn — delay-tolerant messaging over peer-to-peer filtered replication

USAGE:
  replidtn gen-trace [--days N] [--fleet N] [--buses-per-day N] [--seed S]
                     [--scale N] [--out FILE | --spool FILE]
      Generate a DieselNet-like encounter trace (text format on stdout or
      FILE). --scale N starts from the city preset (N x the paper's 34-bus
      fleet); --spool FILE streams the trace to a binary spool instead,
      never holding it in memory — the input for `run --spool`.

  replidtn gen-mail [--messages N] [--users N] [--days N] [--seed S] [--out FILE]
      Generate an Enron-like mail workload.

  replidtn run --policy <cimbiosys|twohop|epidemic|spray|prophet|maxprop>
               [--trace FILE | --spool FILE] [--mail FILE]
               [--bandwidth N] [--storage N]
               [--strategy <random|selected>] [--k N] [--seed S]
               [--spill-dir DIR] [--resident-limit N]
               [--data-dir DIR] [--events FILE] [--stats]
      Replay a workload over a trace and print delivery statistics.
      Without --trace/--mail, the paper-scale synthetic scenario is used.
      With --data-dir, each node's final state is persisted under
      DIR/node-<id> when the run completes.

      --spool FILE streams the schedule from disk; it cannot be combined
      with --strategy selected, which ranks partners over the whole trace.

      Scale knob (preserves all-resident metrics exactly):
      --resident-limit N caps resident replicas, spilling cold state
      under --spill-dir (or the system temp dir) in the order a window
      of 8 x N upcoming encounters says they are needed.

  replidtn peer --id N --address ADDR [--policy P] --listen HOST:PORT
                [--connect HOST:PORT]... [--send DEST:TEXT]... [--serve-for SECS]
                [--gossip] [--seed-peer HOST:PORT]... [--max-sessions N]
                [--gossip-interval-ms MS] [--anti-entropy-ms MS]
                [--connect-timeout-ms MS] [--io-timeout-ms MS]
                [--retries N] [--backoff-ms MS]
                [--data-dir DIR] [--events FILE] [--stats]
      Start a real TCP replication peer, optionally queue messages and sync
      with remote peers, then print the inbox. With --data-dir, the node is
      opened from (and persisted to) the directory, so a killed peer resumes
      with its items, knowledge, and routing state intact.

      --gossip swaps the thread-per-session transport for the async
      epoll reactor (crates/net; Linux only, elsewhere it fails at start
      and the default transport is the one to use). The reactor is
      inbound only; callers dial: it serves up to --max-sessions
      concurrent inbound sessions on one thread, while one control
      thread dials a gossip round, bootstrapped from --seed-peer
      addresses, every --gossip-interval-ms and a sync with the next
      discovered member every --anti-entropy-ms, sleeping in between (0
      turns one off, not the other). --connect-timeout-ms /
      --io-timeout-ms bound the socket of both transports; --retries /
      --backoff-ms retry every failed dial of either (--connect, gossip
      and anti-entropy alike) with exponential backoff (capped at 5 s)
      plus jitter drawn from --id, so two peers chasing one dead address
      do not retry in lockstep.

  replidtn fig --id <5|6|7a|7b|8|9|10> [--events FILE] [--stats]
      Regenerate one figure of the paper (equivalent to the bench target).

  Observability (run, peer, fig):
    --events FILE   stream every observability event as JSON lines to FILE
    --stats         print the counter/histogram registry as CSV afterwards
";

/// The flags `command` accepts: the `--name`s of its USAGE synopsis (the
/// line that starts it and the bracketed lines below). Any other flag is
/// a usage error, so a misspelt or retired flag cannot be ignored.
fn accepted_flags(command: &str) -> Vec<&'static str> {
    let head = format!("  replidtn {command} ");
    let mut lines = USAGE.lines().skip_while(|line| !line.starts_with(&head));
    let first = lines.next();
    let rest = lines.take_while(|line| line.trim_start().starts_with('['));
    first
        .into_iter()
        .chain(rest)
        .flat_map(|line| line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')))
        .filter_map(|word| word.strip_prefix("--"))
        .collect()
}

/// Observability wiring shared by `run`, `peer`, and `fig`: an optional
/// JSONL event stream (`--events FILE`) and an optional counter/histogram
/// summary printed at exit (`--stats`).
struct ObsSetup {
    observer: Option<Arc<dyn Observer>>,
    events: Option<Arc<JsonlSink>>,
    registry: Option<Arc<Registry>>,
}

impl ObsSetup {
    fn from_flags(flags: &Flags) -> Result<ObsSetup, String> {
        let events = match flags.get("events") {
            None => None,
            Some("") => return Err("--events needs a file path".to_string()),
            Some(path) => Some(Arc::new(
                JsonlSink::create(path).map_err(|e| format!("creating {path:?}: {e}"))?,
            )),
        };
        let registry = flags.has("stats").then(|| Arc::new(Registry::new()));
        let mut observers: Vec<Arc<dyn Observer>> = Vec::new();
        if let Some(sink) = &events {
            observers.push(Arc::clone(sink) as Arc<dyn Observer>);
        }
        if let Some(registry) = &registry {
            observers.push(Arc::clone(registry) as Arc<dyn Observer>);
        }
        let observer = match observers.len() {
            0 => None,
            1 => observers.pop(),
            _ => Some(Arc::new(Fanout::new(observers)) as Arc<dyn Observer>),
        };
        Ok(ObsSetup {
            observer,
            events,
            registry,
        })
    }

    /// Attaches the observer (if any) to a standalone node, e.g. before
    /// handing it to the transport layer.
    fn attach(&self, node: &mut DtnNode) {
        if let Some(observer) = &self.observer {
            node.replica_mut()
                .set_observer(Obs::new(Arc::clone(observer)));
        }
    }

    /// The observer as an [`Obs`] handle (a no-op handle when neither
    /// `--events` nor `--stats` was given) — for layers that take `Obs`
    /// directly, like the storage engine.
    fn handle(&self) -> Obs {
        match &self.observer {
            Some(observer) => Obs::new(Arc::clone(observer)),
            None => Obs::none(),
        }
    }

    /// Flushes the event stream and prints the `--stats` CSV summary.
    fn finish(&self) -> Result<(), String> {
        if let Some(sink) = &self.events {
            sink.flush()
                .map_err(|e| format!("flushing --events file: {e}"))?;
        }
        if let Some(registry) = &self.registry {
            println!();
            print!("{}", registry.snapshot().to_csv());
        }
        Ok(())
    }
}

fn emit(out: Option<&str>, text: &str) -> Result<(), String> {
    match out {
        None => {
            print!("{text}");
            Ok(())
        }
        Some(path) => std::fs::write(path, text).map_err(|e| format!("writing {path:?}: {e}")),
    }
}

fn gen_trace(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &accepted_flags("gen-trace"))?;
    // --scale N starts from the city-scale preset (the paper's 34-bus
    // topology multiplied N-fold); explicit flags still override it.
    let scale: usize = flags.num("scale", 0)?;
    let base = if scale > 0 {
        DieselNetConfig::city(scale)
    } else {
        DieselNetConfig::default()
    };
    let config = DieselNetConfig {
        days: flags.num("days", 17u64)?,
        fleet_size: flags.num("fleet", base.fleet_size)?,
        buses_per_day: flags.num("buses-per-day", base.buses_per_day)?,
        seed: flags.num("seed", base.seed)?,
        ..base
    };
    match flags.get("spool") {
        Some("") => Err("--spool needs a file path".to_string()),
        Some(path) => {
            // Stream straight to the binary spool: city-scale fleets never
            // materialize in memory.
            let spooled = config
                .generate_spooled(path)
                .map_err(|e| format!("spooling to {path:?}: {e}"))?;
            eprintln!(
                "spooled {} encounters over {} days ({} vehicles) to {path}",
                spooled.len(),
                spooled.days(),
                spooled.nodes().len()
            );
            Ok(())
        }
        None => {
            let trace = config.generate();
            eprintln!(
                "generated {} encounters over {} days ({:.1} buses/day)",
                trace.len(),
                trace.days(),
                trace.mean_nodes_per_day()
            );
            emit(flags.get("out"), &format_trace(&trace))
        }
    }
}

fn gen_mail(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &accepted_flags("gen-mail"))?;
    let config = EmailConfig {
        total_messages: flags.num("messages", 490usize)?,
        users: flags.num("users", 46usize)?,
        injection_days: flags.num("days", 8u64)?,
        seed: flags.num("seed", EmailConfig::default().seed)?,
        ..EmailConfig::default()
    };
    let workload = config.generate();
    eprintln!(
        "generated {} messages from {} users over {} days",
        workload.len(),
        workload.users().len(),
        workload.last_injection_day().map(|d| d + 1).unwrap_or(0)
    );
    emit(flags.get("out"), &format_workload(&workload))
}

fn run(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &accepted_flags("run"))?;
    let policy: PolicyKind = flags
        .get("policy")
        .ok_or("run requires --policy")?
        .parse()?;

    let spooled = match flags.get("spool") {
        None => None,
        Some("") => return Err("--spool needs a file path".to_string()),
        Some(path) => {
            Some(SpooledTrace::open(path).map_err(|e| format!("opening spool {path:?}: {e}"))?)
        }
    };
    let trace = match (&spooled, flags.get("trace")) {
        (Some(_), Some(_)) => return Err("--trace and --spool are mutually exclusive".to_string()),
        (Some(_), None) => None,
        (None, Some(path)) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("reading {path:?}: {e}"))?;
            Some(parse_trace(&text).map_err(|e| e.to_string())?)
        }
        (None, None) => Some(DieselNetConfig::default().generate()),
    };
    let workload = match flags.get("mail") {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("reading {path:?}: {e}"))?;
            parse_workload(&text).map_err(|e| e.to_string())?
        }
        None => EmailConfig::default().generate(),
    };

    let budget = match flags.get("bandwidth") {
        None => EncounterBudget::unlimited(),
        Some(v) => {
            EncounterBudget::max_messages(v.parse().map_err(|_| format!("--bandwidth: bad {v:?}"))?)
        }
    };
    let relay_limit = match flags.get("storage") {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| format!("--storage: bad {v:?}"))?),
    };
    let k: usize = flags.num("k", 0)?;
    let filter_strategy = match flags.get("strategy") {
        None => FilterStrategy::SelfOnly,
        Some("random") => FilterStrategy::Random(k),
        Some("selected") if spooled.is_some() => {
            return Err("--strategy selected needs the whole trace in memory; \
                 use --trace, or --strategy random with --spool"
                .to_string())
        }
        Some("selected") => FilterStrategy::Selected(k),
        Some(other) => return Err(format!("--strategy: unknown {other:?}")),
    };

    // Scale knobs: a spill directory / residency cap for cold replica
    // state (bit-equal to an all-resident run).
    let resident_limit = match flags.get("resident-limit") {
        None => None,
        Some("") => return Err("--resident-limit needs a node count".to_string()),
        Some(v) => Some(
            v.parse::<usize>()
                .map_err(|_| format!("--resident-limit: cannot parse {v:?}"))?,
        ),
    };
    let spill_dir = match flags.get("spill-dir") {
        None => None,
        Some("") => return Err("--spill-dir needs a directory".to_string()),
        Some(dir) => {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir:?}: {e}"))?;
            Some(std::path::PathBuf::from(dir))
        }
    };
    let obs = ObsSetup::from_flags(&flags)?;
    let config = EmulationConfig {
        policy: policy.into(),
        budget,
        relay_limit,
        filter_strategy,
        assignment_seed: flags.num("seed", EmulationConfig::default().assignment_seed)?,
        observer: obs.observer.clone(),
        spill_dir,
        resident_limit,
        ..EmulationConfig::default()
    };

    let (encounters, days) = match (&spooled, &trace) {
        (Some(s), _) => (s.len(), s.days()),
        (None, Some(t)) => (t.len() as u64, t.days()),
        (None, None) => unreachable!("either --spool or a trace is set"),
    };
    eprintln!(
        "running {policy} over {encounters} encounters / {} messages ...",
        workload.len()
    );
    let emulation = match (&spooled, &trace) {
        (Some(s), _) => Emulation::from_spooled(s, &workload, config),
        (None, Some(t)) => Emulation::new(t, &workload, config),
        (None, None) => unreachable!("either --spool or a trace is set"),
    };
    let metrics = match flags.get("data-dir") {
        None => emulation.run(),
        Some(dir) => {
            let (metrics, nodes) = emulation.run_into_parts();
            let end = SimTime::from_secs(86_400 * days);
            let count = nodes.len();
            for (id, mut node) in nodes {
                let node_dir = std::path::Path::new(dir).join(format!("node-{}", id.as_u64()));
                let store = replidtn::store::Store::open_with(
                    &node_dir,
                    replidtn::store::StoreConfig::default(),
                    obs.handle(),
                )
                .map_err(|e| format!("opening {node_dir:?}: {e}"))?;
                node.attach_store(store);
                node.persist(end)
                    .map_err(|e| format!("persisting node {id}: {e}"))?;
            }
            eprintln!("persisted {count} node state(s) under {dir}");
            metrics
        }
    };

    println!("policy:        {policy}");
    println!(
        "delivered:     {}/{} ({:.1}%)",
        metrics.delivered(),
        metrics.injected(),
        metrics.delivery_rate() * 100.0
    );
    if let Some(mean) = metrics.mean_delay() {
        println!(
            "mean delay:    {:.1} h (delivered messages)",
            mean.as_hours_f64()
        );
    }
    println!(
        "within 12h:    {:.1}%",
        metrics.delivered_within(SimDuration::from_hours(12)) * 100.0
    );
    if let Some(worst) = metrics.max_delay() {
        println!("worst delay:   {:.1} d", worst.as_days_f64());
    }
    println!("transfers:     {}", metrics.transmissions);
    println!("encounters:    {}", metrics.encounters);
    println!("evictions:     {}", metrics.evictions);
    println!("duplicates:    {}", metrics.duplicates);
    println!();
    println!("delay CDF (hours):");
    for p in metrics.delay_cdf(SimDuration::from_hours(2), SimDuration::from_hours(24)) {
        println!("  <= {:>3}  {:5.1}%", p.delay.to_string(), p.delivered_pct);
    }
    obs.finish()
}

fn peer(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &accepted_flags("peer"))?;
    let id: u64 = flags.num("id", 0)?;
    if id == 0 {
        return Err("peer requires --id (nonzero)".to_string());
    }
    let address = flags.get("address").ok_or("peer requires --address")?;
    let policy: PolicyKind = flags.get("policy").unwrap_or("epidemic").parse()?;
    let listen = flags.get("listen").ok_or("peer requires --listen")?;

    // Dial policy, shared by both transports: connect/IO deadlines plus
    // retry count and exponential backoff for flaky links.
    let dial_defaults = DialConfig::default();
    let dial = DialConfig {
        connect_timeout: std::time::Duration::from_millis(flags.num(
            "connect-timeout-ms",
            dial_defaults.connect_timeout.as_millis() as u64,
        )?),
        io_timeout: std::time::Duration::from_millis(
            flags.num("io-timeout-ms", dial_defaults.io_timeout.as_millis() as u64)?,
        ),
        retries: flags.num("retries", dial_defaults.retries)?,
        backoff: std::time::Duration::from_millis(
            flags.num("backoff-ms", dial_defaults.backoff.as_millis() as u64)?,
        ),
    };

    let obs = ObsSetup::from_flags(&flags)?;
    let mut node = match flags.get("data-dir") {
        None => DtnNode::new(ReplicaId::new(id), address, policy),
        Some(dir) => {
            let node =
                DtnNode::open_observed(dir, ReplicaId::new(id), address, policy, obs.handle())
                    .map_err(|e| format!("opening --data-dir {dir:?}: {e}"))?;
            let recovery = node.recovery().expect("durable node has a report");
            if recovery.recovered_state() {
                println!(
                    "restored from {dir} (checkpoint {}, {} WAL record(s) replayed, \
                     {} torn byte(s) dropped): {} message(s) in inbox",
                    recovery.checkpoint_seq,
                    recovery.wal_records,
                    recovery.truncated_bytes,
                    node.inbox().len()
                );
            } else {
                println!("fresh data directory {dir}");
            }
            node
        }
    };
    obs.attach(&mut node);

    type SendQueue<'a> = &'a dyn Fn(&str, Vec<u8>) -> Result<(), String>;
    let queue_sends = |queue: SendQueue| -> Result<(), String> {
        for send in flags.get_all("send") {
            let (dest, text) = send
                .split_once(':')
                .ok_or_else(|| format!("--send wants DEST:TEXT, got {send:?}"))?;
            queue(dest, text.as_bytes().to_vec())?;
            println!("queued {text:?} for {dest}");
        }
        Ok(())
    };
    let serve_for: u64 = flags.num("serve-for", 0)?;

    let mut last_now = SimTime::ZERO;
    let mut node = if flags.has("gossip") {
        // The async reactor serves thousands of concurrent inbound
        // sessions on one thread; one control thread dials gossip peer
        // discovery and periodic anti-entropy syncs over the discovered
        // view.
        let defaults = NetConfig::default();
        let config = NetConfig {
            max_sessions: flags.num("max-sessions", defaults.max_sessions)?,
            dial,
            gossip_interval: std::time::Duration::from_millis(
                flags.num("gossip-interval-ms", 1_000u64)?,
            ),
            anti_entropy_interval: std::time::Duration::from_millis(
                flags.num("anti-entropy-ms", 0u64)?,
            ),
            gossip: MembershipConfig {
                seed: id,
                ..MembershipConfig::default()
            },
            ..defaults
        };
        let net = NetNode::start(node, listen, config).map_err(|e| e.to_string())?;
        println!(
            "peer {address} (R{id}, {policy}) listening on {} (gossip on)",
            net.local_addr(),
        );
        for seed in flags.get_all("seed-peer") {
            net.add_seed(seed.to_string());
            println!("seeded gossip with {seed}");
        }
        queue_sends(&|dest, payload| {
            net.with_node(|n| n.send(dest, payload, SimTime::ZERO))
                .map(|_| ())
                .map_err(|e| e.to_string())
        })?;
        for (i, remote) in flags.get_all("connect").iter().enumerate() {
            last_now = SimTime::from_secs(60 * (i as u64 + 1));
            let result = net.sync_with(remote, last_now);
            if let Some(error) = result.error {
                return Err(format!("syncing with {remote}: {error}"));
            }
            println!(
                "synced with {remote}: served {} item(s), pulled {} deliveries",
                result.report.served,
                result.report.pulled.map(|r| r.delivered).unwrap_or(0)
            );
        }
        if serve_for > 0 {
            println!("serving for {serve_for}s (gossip running) ...");
            std::thread::sleep(std::time::Duration::from_secs(serve_for));
        }
        let view = net.membership();
        println!("membership ({} peer(s)):", view.len());
        for peer in &view {
            println!(
                "  R{} at {} [{:?}, incarnation {}]",
                peer.replica, peer.addr, peer.status, peer.incarnation
            );
        }
        let stats = net.stats();
        println!(
            "sessions: {} completed, {} failed, {} connection reuse(s), peak {} concurrent",
            stats.completed, stats.failed, stats.conn_reuses, stats.peak_sessions
        );
        net.stop()
    } else {
        let peer = Peer::start_configured(node, listen, dial).map_err(|e| e.to_string())?;
        println!(
            "peer {address} (R{id}, {policy}) listening on {}",
            peer.local_addr()
        );
        queue_sends(&|dest, payload| {
            peer.with_node(|n| n.send(dest, payload, SimTime::ZERO))
                .map(|_| ())
                .map_err(|e| e.to_string())
        })?;
        for (i, remote) in flags.get_all("connect").iter().enumerate() {
            let addr = remote
                .parse()
                .map_err(|e| format!("--connect {remote:?}: {e}"))?;
            last_now = SimTime::from_secs(60 * (i as u64 + 1));
            let report = peer.sync_with(addr, last_now).map_err(|e| e.to_string())?;
            println!(
                "synced with {remote}: served {} item(s), pulled {} deliveries",
                report.served,
                report.pulled.map(|r| r.delivered).unwrap_or(0)
            );
        }
        // Keep serving inbound sessions when asked (so another `replidtn
        // peer --connect` invocation can reach this process).
        if serve_for > 0 {
            println!("serving for {serve_for}s ...");
            std::thread::sleep(std::time::Duration::from_secs(serve_for));
        }
        peer.stop()
    };

    let inbox = node.inbox();
    println!("inbox ({} messages):", inbox.len());
    for msg in inbox {
        println!(
            "  from {}: {:?}",
            msg.src,
            String::from_utf8_lossy(&msg.payload)
        );
    }
    // Sessions persist durable state as they run; this final persist
    // additionally covers --send queuing that never synced. A no-op
    // without --data-dir.
    node.persist(last_now)
        .map_err(|e| format!("persisting at exit: {e}"))?;
    obs.finish()
}

fn fig(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &accepted_flags("fig"))?;
    let which = flags
        .get("id")
        .ok_or("fig requires --id (5|6|7a|7b|8|9|10)")?;
    let scenario = replidtn::emu::experiments::Scenario::paper();
    let obs = ObsSetup::from_flags(&flags)?;
    match which {
        "5" => benchkit::print_fig5(&scenario, obs.observer.clone()),
        "6" => benchkit::print_fig6(&scenario, obs.observer.clone()),
        "7a" => {
            let runs = benchkit::unconstrained_runs(&scenario, obs.observer.clone());
            benchkit::print_hourly_cdfs("Figure 7a: delay CDF (0-12 hours), unconstrained", &runs);
            benchkit::print_summary(&runs);
        }
        "7b" => {
            let runs = benchkit::unconstrained_runs(&scenario, obs.observer.clone());
            benchkit::print_fig7b(&runs);
        }
        "8" => {
            let runs = benchkit::unconstrained_runs(&scenario, obs.observer.clone());
            benchkit::print_fig8(&runs);
        }
        "9" => {
            let runs = replidtn::emu::experiments::policy_comparison(
                &scenario,
                EncounterBudget::max_messages(1),
                None,
                obs.observer.clone(),
            );
            benchkit::print_hourly_cdfs("Figure 9: delay CDF, 1 message per encounter", &runs);
            benchkit::print_summary(&runs);
        }
        "10" => {
            let runs = replidtn::emu::experiments::policy_comparison(
                &scenario,
                EncounterBudget::unlimited(),
                Some(2),
                obs.observer.clone(),
            );
            benchkit::print_hourly_cdfs("Figure 10: delay CDF, 2 relay messages per node", &runs);
            benchkit::print_summary(&runs);
        }
        other => return Err(format!("unknown figure {other:?} (try 5|6|7a|7b|8|9|10)")),
    }
    obs.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_command_accepts_its_synopsis_flags() {
        assert_eq!(
            accepted_flags("gen-mail"),
            ["messages", "users", "days", "seed", "out"]
        );
        assert_eq!(accepted_flags("fig"), ["id", "events", "stats"]);
        let run = accepted_flags("run");
        for flag in ["policy", "seed", "resident-limit", "stats"] {
            assert!(run.contains(&flag), "run lacks --{flag}");
        }
        assert!(!run.contains(&"exec-threads"));
        assert!(!run.contains(&"shards"));
        let peer = accepted_flags("peer");
        for flag in ["id", "connect", "seed-peer", "backoff-ms", "data-dir"] {
            assert!(peer.contains(&flag), "peer lacks --{flag}");
        }
        assert!(accepted_flags("gen-trace").contains(&"buses-per-day"));
        assert!(accepted_flags("no-such-command").is_empty());
    }

    #[test]
    fn the_policy_synopsis_lists_every_policy() {
        let choices = USAGE
            .lines()
            .find_map(|line| line.split_once("--policy <"))
            .and_then(|(_, rest)| rest.split_once('>'))
            .map(|(choices, _)| choices.split('|').collect::<Vec<_>>())
            .expect("USAGE has a --policy <...> line");
        for kind in PolicyKind::EXTENDED {
            assert!(choices.contains(&kind.label()), "--policy omits {kind}");
        }
        for choice in choices {
            assert!(
                choice.parse::<PolicyKind>().is_ok(),
                "{choice} is no policy"
            );
        }
    }
}
