//! The noise harness: single-CPU pinning, canary-corrected timing of
//! repetitions and set-ups, `VmHWM`, fd accounting, the remove-on-drop
//! temp root, a counting allocator that only counts while a traced pass
//! asks it to, and the in-memory span recorder.
//!
//! Why it looks like this (measured on the 2-vCPU sandbox the benchmark
//! runs on, see `README.md`): an arithmetic loop repeats to 2 % while a
//! pointer chase and the replays move 10–25 % — the noise is cache and
//! memory interference from neighbours, and it comes as bursts of seconds
//! on top of level shifts that last minutes. The fastest of K repetitions
//! filters the bursts but not the shifts: over ten minutes the best
//! replay of each 17-second window still moved 15–25 %. What tracks a
//! shift is a canary with the replays' memory habits, so every timed
//! segment is bracketed by canary readings, divided by them, and the
//! *median* corrected time over the repetitions is reported (6–8 % over
//! the same ten minutes).

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Set-up is repeated at least this many times …
pub const SETUP_MIN_SAMPLES: usize = 5;
/// … and for at least this long in total; the minimum is reported.
pub const SETUP_MIN_TOTAL_S: f64 = 0.5;
/// Ceiling on set-up samples so a microsecond set-up cannot spin forever.
const SETUP_MAX_SAMPLES: usize = 400;
/// Ceiling on timed repetitions of one workload.
const MAX_REPS: usize = 64;

// ---------------------------------------------------------------------
// CPU pinning
// ---------------------------------------------------------------------

/// `cpu_set_t` as glibc lays it out: 1024 bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

#[cfg(target_os = "linux")]
fn allowed_cpus() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable 128-byte buffer and the size
    // passed is exactly its size; pid 0 means the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    (rc == 0).then_some(set)
}

#[cfg(target_os = "linux")]
fn set_cpus(set: &CpuSet) -> bool {
    // SAFETY: `set` is a live 128-byte buffer and the size passed is
    // exactly its size; the kernel only reads it.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
}

/// The set holding only CPU `c`.
#[cfg(target_os = "linux")]
fn only(c: usize) -> CpuSet {
    let mut set: CpuSet = [0; 16];
    set[c / 64] = 1u64 << (c % 64);
    set
}

/// The affinity the process started with and the one CPU it pinned to.
#[derive(Clone, Copy, Debug)]
pub struct Pinning {
    #[cfg(target_os = "linux")]
    original: CpuSet,
    /// The CPU every thread of this process runs on, if pinning worked.
    pub cpu: Option<usize>,
}

/// Pins the calling thread — call before any other thread exists, they
/// inherit the mask — to the highest-numbered CPU it is allowed on (so
/// CPU 0, where the kernel parks most interrupt work, is skipped whenever
/// there is a choice).
pub fn pin_to_one_cpu() -> Pinning {
    #[cfg(target_os = "linux")]
    {
        let Some(original) = allowed_cpus() else {
            return Pinning {
                original: [0; 16],
                cpu: None,
            };
        };
        let cpu = (0..1024usize)
            .rev()
            .find(|&c| original[c / 64] & (1u64 << (c % 64)) != 0);
        let pinned = cpu.filter(|&c| set_cpus(&only(c)));
        Pinning {
            original,
            cpu: pinned,
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        Pinning { cpu: None }
    }
}

impl Pinning {
    /// Runs `f` with the start-up affinity restored (threads `f` spawns
    /// may spread over every allowed CPU), then pins again.
    pub fn unpinned<T>(&self, f: impl FnOnce() -> T) -> T {
        #[cfg(target_os = "linux")]
        {
            if self.cpu.is_some() {
                set_cpus(&self.original);
            }
            let out = f();
            if let Some(c) = self.cpu {
                set_cpus(&only(c));
            }
            out
        }
        #[cfg(not(target_os = "linux"))]
        {
            f()
        }
    }
}

// ---------------------------------------------------------------------
// Timing
// ---------------------------------------------------------------------

/// Seconds `f` took, and its result.
pub fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let out = f();
    (started.elapsed().as_secs_f64(), out)
}

/// Fastest of `k` runs of `f`, in seconds (probes only: uncorrected).
pub fn best_of(k: usize, mut f: impl FnMut()) -> f64 {
    (0..k.max(1))
        .map(|_| time(&mut f).0)
        .fold(f64::INFINITY, f64::min)
}

/// The host-speed canary: a fixed sequence of `BTreeMap` and `HashMap`
/// inserts, removals and lookups with small heap values — standard
/// library only, so no change to the repository can speed it up, and
/// pointer-heavy over a ~25 MiB working set, so neighbours' cache and
/// memory traffic slows it the way it slows the replays.
struct Canary {
    tree: BTreeMap<u64, Vec<u8>>,
    hash: HashMap<u64, Vec<u8>>,
    state: u64,
}

/// Seconds one canary pass takes on the host this benchmark was
/// calibrated on (2.1 GHz Xeon vCPU) when nothing disturbs it. It only
/// fixes the scale: corrected seconds are seconds of *that* host.
const CANARY_REF_S: f64 = 0.0135;
/// Passes per slowdown reading; the median is used.
const CANARY_PASSES: usize = 5;
/// A slowdown reading younger than this is reused, so back-to-back timed
/// segments share the reading between them.
const CANARY_FRESH_S: f64 = 0.1;

impl Canary {
    const KEYS: u64 = 200_000;
    const TREE_OPS: usize = 40_000;
    const HASH_OPS: usize = 60_000;

    fn new() -> Canary {
        let mut canary = Canary {
            tree: BTreeMap::new(),
            hash: HashMap::new(),
            state: 0x9e37_79b9_7f4a_7c15,
        };
        // Inserts and removals are equally likely, so the maps level off
        // at half the key space; ten passes get there.
        for _ in 0..10 {
            canary.pass();
        }
        canary
    }

    fn next(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.state
    }

    /// One pass; returns its seconds.
    fn pass(&mut self) -> f64 {
        let started = Instant::now();
        let mut touched = 0usize;
        for i in 0..Self::TREE_OPS + Self::HASH_OPS {
            let roll = self.next();
            let key = (roll >> 40) % Self::KEYS;
            let value = || vec![(roll >> 8) as u8; 24 + (roll as usize & 63)];
            let tree = i < Self::TREE_OPS;
            match roll & 3 {
                0 if tree => drop(self.tree.insert(key, value())),
                0 => drop(self.hash.insert(key, value())),
                1 if tree => drop(self.tree.remove(&key)),
                1 => drop(self.hash.remove(&key)),
                _ if tree => touched += self.tree.get(&key).map_or(0, Vec::len),
                _ => touched += self.hash.get(&key).map_or(0, Vec::len),
            }
        }
        std::hint::black_box(touched);
        started.elapsed().as_secs_f64()
    }
}

/// One timed segment: what the clock said, and how slow the host was
/// around it (1.0 = the reference host, undisturbed).
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Wall seconds.
    pub raw: f64,
    /// Mean of the canary readings before and after.
    pub slowdown: f64,
}

impl Sample {
    /// Seconds this would have taken on the undisturbed reference host.
    pub fn corrected(&self) -> f64 {
        self.raw / self.slowdown
    }
}

/// Times segments and brackets each with canary readings.
pub struct Stopwatch {
    canary: Canary,
    last: Option<(Instant, f64)>,
    /// Resident MiB the canary's maps added; they stay resident for the
    /// whole run, so `peak_rss_mib` subtracts them.
    pub footprint_mib: f64,
}

impl Stopwatch {
    /// Builds and warms the canary (≈ 0.2 s).
    pub fn new() -> Stopwatch {
        let before = status_mib("VmRSS:");
        let canary = Canary::new();
        Stopwatch {
            canary,
            last: None,
            footprint_mib: (status_mib("VmRSS:") - before).max(0.0),
        }
    }

    /// How slow the host is right now.
    fn slowdown(&mut self) -> f64 {
        if let Some((at, reading)) = self.last {
            if at.elapsed().as_secs_f64() < CANARY_FRESH_S {
                return reading;
            }
        }
        let mut passes: Vec<f64> = (0..CANARY_PASSES).map(|_| self.canary.pass()).collect();
        let reading = quantile_of(&mut passes, 0.5) / CANARY_REF_S;
        self.last = Some((Instant::now(), reading));
        reading
    }

    /// Times `f` between two canary readings.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (Sample, T) {
        let before = self.slowdown();
        let (raw, out) = time(f);
        let after = self.slowdown();
        let slowdown = (before + after) / 2.0;
        (Sample { raw, slowdown }, out)
    }

    /// Runs `setup` at least [`SETUP_MIN_SAMPLES`] times and for at least
    /// [`SETUP_MIN_TOTAL_S`] in total (`smoke`: once); returns the median
    /// corrected seconds. What `setup` built is handed to `teardown`
    /// outside the timed window.
    pub fn setup_seconds<T>(
        &mut self,
        smoke: bool,
        mut setup: impl FnMut() -> T,
        mut teardown: impl FnMut(T),
    ) -> f64 {
        let mut corrected = Vec::new();
        let mut total = 0.0;
        while corrected.len() < SETUP_MAX_SAMPLES {
            // A set-up of a few milliseconds is shorter than a canary
            // reading stays fresh: neighbouring samples share readings.
            let (sample, built) = self.time(&mut setup);
            teardown(built);
            total += sample.raw;
            corrected.push(sample.corrected());
            if smoke || (corrected.len() >= SETUP_MIN_SAMPLES && total >= SETUP_MIN_TOTAL_S) {
                break;
            }
        }
        quantile_of(&mut corrected, 0.5)
    }
}

/// The timed repetitions of one workload. A repetition is a list of
/// segments (one per policy on `paper_policies`, a single one elsewhere).
#[derive(Debug, Default)]
pub struct Reps {
    /// Per repetition, its segments.
    pub runs: Vec<Vec<Sample>>,
}

impl Reps {
    /// Repeats `rep` until starting another would overrun `seconds`
    /// (judged by the fastest repetition so far), at least `min_k` times.
    /// Only the samples `rep` returns count as timed; whatever else it
    /// does (building a fleet, stopping it) is outside the window but
    /// inside the budget.
    pub fn collect(seconds: f64, min_k: usize, mut rep: impl FnMut(usize) -> Vec<Sample>) -> Reps {
        let started = Instant::now();
        let mut reps = Reps::default();
        let mut fastest_wall = f64::INFINITY;
        while reps.runs.len() < MAX_REPS {
            let (wall, segments) = time(|| rep(reps.runs.len()));
            fastest_wall = fastest_wall.min(wall);
            reps.runs.push(segments);
            let k = reps.runs.len();
            if k >= min_k && started.elapsed().as_secs_f64() + fastest_wall > seconds {
                break;
            }
        }
        reps
    }

    fn per_segment(
        &self,
        pick: impl Fn(&mut [f64]) -> f64,
        of: impl Fn(&Sample) -> f64,
    ) -> Vec<f64> {
        let n = self.runs.first().map_or(0, Vec::len);
        (0..n)
            .map(|s| {
                let mut times: Vec<f64> = self.runs.iter().map(|r| of(&r[s])).collect();
                pick(&mut times)
            })
            .collect()
    }

    /// Median corrected seconds of each segment across repetitions.
    pub fn segment_typical(&self) -> Vec<f64> {
        self.per_segment(|t| quantile_of(t, 0.5), Sample::corrected)
    }

    /// Corrected seconds for one repetition's worth of work: the sum of
    /// the per-segment medians. This is what `enc_per_s` divides by.
    pub fn typical(&self) -> f64 {
        self.segment_typical().iter().sum()
    }

    /// Uncorrected best-of-K seconds: the sum of per-segment minima.
    pub fn raw_best(&self) -> f64 {
        self.per_segment(|t| quantile_of(t, 0.0), |s| s.raw)
            .iter()
            .sum()
    }

    /// Whole-repetition wall times, sorted.
    fn totals(&self) -> Vec<f64> {
        let mut totals: Vec<f64> = self
            .runs
            .iter()
            .map(|r| r.iter().map(|s| s.raw).sum())
            .collect();
        totals.sort_by(f64::total_cmp);
        totals
    }

    /// Median whole-repetition wall time.
    pub fn median(&self) -> f64 {
        quantile(&self.totals(), 0.5)
    }

    /// How far the 75th-percentile repetition sits above the fastest, in
    /// percent of the fastest: the run's own noise witness.
    pub fn spread_pct(&self) -> f64 {
        let totals = self.totals();
        (quantile(&totals, 0.75) - totals[0]) / totals[0] * 100.0
    }

    /// Median canary reading over all segments.
    pub fn slowdown(&self) -> f64 {
        let mut readings: Vec<f64> = self.runs.iter().flatten().map(|s| s.slowdown).collect();
        quantile_of(&mut readings, 0.5)
    }
}

/// Linear-interpolated quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorts `samples` and returns the `q` quantile.
pub fn quantile_of(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    quantile(samples, q)
}

// ---------------------------------------------------------------------
// Process accounting
// ---------------------------------------------------------------------

/// A `/proc/self/status` field given in KiB, as MiB; 0 where there is no
/// `/proc`.
fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Open file descriptors of this process; `None` where `/proc` has none.
pub fn open_fds() -> Option<usize> {
    // The directory handle used for the listing is itself one of the
    // entries while it is being read; it is the same one entry on every
    // call, so before/after comparisons are exact.
    std::fs::read_dir("/proc/self/fd").ok().map(|d| d.count())
}

// ---------------------------------------------------------------------
// Temp root
// ---------------------------------------------------------------------

/// The directory the benchmark may write below: `ledger/out`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One directory holding every spool, spill dir and data dir of a run;
/// removed, with everything in it, on drop. It lives under `ledger/out`
/// rather than the system temp dir because the benchmark may only write
/// inside its checkout.
#[derive(Debug)]
pub struct TempRoot(PathBuf);

impl TempRoot {
    /// Creates `ledger/out/tmp/<label>-<pid>`.
    pub fn create(label: &str) -> std::io::Result<TempRoot> {
        let path = out_dir()
            .join("tmp")
            .join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(TempRoot(path))
    }

    /// A path below the root (not created).
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    /// A fresh, empty directory below the root.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let path = self.0.join(name);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create directory under the temp root");
        path
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ---------------------------------------------------------------------
// Allocation counting
// ---------------------------------------------------------------------

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus a call counter that is off — one relaxed
/// load per call — except inside [`count_allocations`], so timed
/// repetitions do not pay for it.
pub struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout, per the
        // caller's obligations.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocator calls (all threads) made while `f` ran, and its result.
pub fn count_allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// One recorded call into a layer.
#[derive(Clone, Debug)]
struct SpanRecord {
    name: &'static str,
    start_us: u64,
    end_us: u64,
    parent: Option<usize>,
}

/// Spans around the calls the benchmark makes into the layers during the
/// traced pass. They stay in memory until [`Tracer::write`]; a layer's
/// self time is its spans minus the spans they enclose.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span called `name` (a child of whatever span is
    /// open) and returns its duration in seconds with its result.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (f64, T) {
        let id = self.spans.len();
        self.spans.push(SpanRecord {
            name,
            start_us: self.epoch.elapsed().as_micros() as u64,
            end_us: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let (seconds, out) = time(|| f(self));
        self.open.pop();
        self.spans[id].end_us = self.epoch.elapsed().as_micros() as u64;
        (seconds, out)
    }

    /// Per span name: calls, total and self milliseconds, by first use.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_us = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_us[parent] += span.end_us - span.start_us;
            }
        }
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (span, children) in self.spans.iter().zip(&child_us) {
            let total = (span.end_us - span.start_us) as f64 / 1000.0;
            let own = total - *children as f64 / 1000.0;
            match rows.iter_mut().find(|r| r.0 == span.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += total;
                    row.3 += own;
                }
                None => rows.push((span.name, 1, total, own)),
            }
        }
        rows
    }

    /// Writes one JSON object per span to `ledger/out/<workload>.trace.jsonl`.
    pub fn write(&self, workload: &str, seed: u64) -> std::io::Result<PathBuf> {
        use std::io::Write;
        let dir = out_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{workload}.trace.jsonl"));
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                file,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{parent},\
                 \"workload\":\"{workload}\",\"seed\":{seed}}}",
                span.name, span.start_us, span.end_us
            )?;
        }
        file.flush()?;
        Ok(path)
    }
}
