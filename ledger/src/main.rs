//! `ledger` — the repository's one benchmark.
//!
//! ```text
//! ledger run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ledger run <name> ...                      the same, workload by position
//! ledger calibrate [--runs N] [--seconds S] [--out FILE]
//! ledger diff A.jsonl B.jsonl
//! ```
//!
//! `run` executes one workload in this process: repeated set-up, timed
//! repetitions with tracing off (each bracketed by host-speed canary
//! readings), the correctness checks, and — with
//! `--trace 1`, the default — one more repetition with an
//! `obs::Registry` attached plus the layer probes. It prints every metric
//! by name with its unit and, as the last line of standard output, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}` holding the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). It exits non-zero when a check did not hold.

mod city;
mod compare;
mod harness;
mod json;
mod mesh;
mod metrics;
mod paper;
mod probes;

use harness::{Pinning, Reps, Stopwatch, TempRoot, Tracer};
use metrics::Report;

/// The e-mail generator is seeded apart from the trace generator so equal
/// `--seed`s do not correlate the two streams.
pub const EMAIL_SEED_SALT: u64 = 0x00e1_7011;

#[global_allocator]
static ALLOCATOR: harness::CountingAllocator = harness::CountingAllocator;

/// Everything a workload needs from the command line and the harness.
pub struct Ctx {
    /// Feeds `DieselNetConfig::seed`, `EmailConfig::seed` and
    /// `assignment_seed` (and the mesh's user→bus map).
    pub seed: u64,
    /// Budget for the timed repetitions.
    pub seconds: f64,
    /// Scale-1 inputs, one repetition: the smoke test's size.
    pub smoke: bool,
    /// Whether to run the traced pass and the layer probes.
    pub trace: bool,
    /// The CPU the process is pinned to.
    pub pin: Pinning,
    /// Values and checks collected so far.
    pub report: Report,
    /// Spans of the traced pass.
    pub tracer: Tracer,
    /// Root of every file the run creates.
    pub tmp: TempRoot,
}

impl Ctx {
    /// Minimum timed repetitions: a median needs two.
    pub fn min_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            2
        }
    }

    /// Records the three end-to-end metrics and the harness witnesses.
    /// Call after the timed repetitions and before anything traced, so
    /// `VmHWM` is the peak of the untraced work.
    pub fn end_to_end(
        &mut self,
        setup_s: f64,
        encounters_per_rep: u64,
        reps: &Reps,
        stopwatch: &Stopwatch,
    ) {
        let work = encounters_per_rep as f64;
        self.report.attempted = encounters_per_rep * reps.runs.len() as u64;
        self.report.set("setup_s", setup_s);
        self.report.set("enc_per_s", work / reps.typical());
        self.report.set(
            "peak_rss_mib",
            harness::peak_rss_mib() - stopwatch.footprint_mib,
        );
        self.report
            .set("harness.best_enc_per_s", work / reps.raw_best());
        self.report.set("harness.host_slowdown_x", reps.slowdown());
        self.report.set("harness.rep_median_s", reps.median());
        self.report.set("harness.rep_spread_pct", reps.spread_pct());
        self.report.set("harness.reps", reps.runs.len() as f64);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: ledger run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
         \x20      ledger calibrate [--runs N] [--seconds S] [--out FILE]\n\
         \x20      ledger diff A.jsonl B.jsonl\n\
         workloads: {}",
        metrics::WORKLOADS
            .iter()
            .map(|(name, _)| *name)
            .collect::<Vec<_>>()
            .join(" ")
    );
    std::process::exit(2)
}

/// `--flag value` pairs, bare `--flag`s and positional words.
struct Args {
    flags: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(words: impl Iterator<Item = String>) -> Args {
        let mut args = Args {
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut words = words.peekable();
        while let Some(word) = words.next() {
            match word.strip_prefix("--") {
                Some(flag) => {
                    let value = words.next_if(|next| !next.starts_with("--"));
                    args.flags.push((flag.to_string(), value));
                }
                None => args.positional.push(word),
            }
        }
        args
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> T {
        match self.value(flag) {
            Some(text) => text.parse().unwrap_or_else(|_| {
                eprintln!("ledger: --{flag} {text}: not a number");
                usage()
            }),
            None => default,
        }
    }
}

fn run(args: &Args) -> i32 {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Before any thread exists: every thread started later inherits it.
    let pin = harness::pin_to_one_cpu();
    let Some(workload) = args
        .value("workload")
        .or(args.positional.first().map(String::as_str))
    else {
        usage()
    };
    let run_workload: fn(&mut Ctx) = match workload {
        "paper_policies" => paper::run,
        "city_spill" => city::run_spill,
        "city_digest" => city::run_digest,
        "mesh_mem" => mesh::run_mem,
        "mesh_durable" => mesh::run_durable,
        _ => usage(),
    };
    let seed: u64 = args.number("seed", 1);
    let mut ctx = Ctx {
        seed,
        // Smoke size is one repetition whatever the budget.
        seconds: if args.has("smoke") {
            0.0
        } else {
            args.number("seconds", 15.0)
        },
        smoke: args.has("smoke"),
        trace: args.number::<u8>("trace", 1) != 0,
        pin,
        report: Report::default(),
        tracer: Tracer::default(),
        tmp: TempRoot::create(workload).expect("create the temp root under ledger/out"),
    };
    println!(
        "ledger: {workload} seed {seed} budget {}s{}, pinned to cpu {:?} of {cpus} available",
        ctx.seconds,
        if ctx.smoke { " (smoke size)" } else { "" },
        ctx.pin.cpu,
    );
    run_workload(&mut ctx);
    if ctx.trace {
        println!("== {workload}: spans (calls, total ms, self ms) ==");
        for (name, calls, total_ms, self_ms) in ctx.tracer.summary() {
            println!("  {name:<34} {calls:>8} {total_ms:>12.2} {self_ms:>12.2}");
        }
        match ctx.tracer.write(workload, seed) {
            Ok(path) => println!("  spans written to {}", path.display()),
            Err(e) => ctx
                .report
                .check(false, || format!("writing the span file: {e}")),
        }
    }
    let Ctx {
        report, tmp, trace, ..
    } = ctx;
    drop(tmp);
    report.print(workload, trace);
    if report.correct() {
        0
    } else {
        1
    }
}

fn main() {
    let mut words = std::env::args().skip(1);
    let command = words.next().unwrap_or_default();
    let args = Args::parse(words);
    let code = match command.as_str() {
        "run" => run(&args),
        "calibrate" => compare::calibrate(
            args.number("runs", 5),
            args.number("seconds", compare::declared_run_seconds()),
            args.value("out"),
        ),
        "diff" => match args.positional.as_slice() {
            [a, b] => compare::diff(a, b),
            _ => usage(),
        },
        _ => usage(),
    };
    std::process::exit(code);
}
