//! Bounded parallel execution for experiment sweeps.
//!
//! Every figure of the paper is a sweep over independent emulation runs
//! (one per policy, per filter width, per ablation point). [`SweepRunner`]
//! fans those runs out over `std::thread::scope` with a bounded worker
//! pool while keeping results in job order, so a parallel sweep returns
//! exactly what the serial loop would have — each run is internally
//! deterministic (seeded RNGs, ordered event streams), and the runner
//! never lets scheduling order leak into the output.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use obs::{Event, EventKind, Obs, Observer};

/// Runs a batch of independent jobs across a bounded worker pool,
/// returning results in job order.
///
/// Work is dispatched by an atomic cursor, so an expensive job never
/// staircases the pool the way fixed chunking would. With one worker (or
/// one job) the runner degrades to a plain serial loop on the calling
/// thread — no threads are spawned, which keeps single-run callers free
/// of any scheduling noise.
///
/// ```
/// use emu::SweepRunner;
///
/// let squares = SweepRunner::new().run(vec![1u64, 2, 3, 4], |n| n * n);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub struct SweepRunner {
    workers: usize,
    obs: Obs,
}

impl SweepRunner {
    /// A runner sized to the machine: one worker per available core.
    pub fn new() -> Self {
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        SweepRunner {
            workers,
            obs: Obs::none(),
        }
    }

    /// A runner that executes jobs one at a time on the calling thread.
    /// The baseline for determinism checks: a parallel run must return
    /// results identical to this.
    pub fn serial() -> Self {
        SweepRunner {
            workers: 1,
            obs: Obs::none(),
        }
    }

    /// Caps the worker pool at `workers` (minimum 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Attaches an observer; each [`run`](SweepRunner::run) then emits one
    /// [`Event::SweepStarted`] recording the job count and pool size.
    #[must_use]
    pub fn with_observer(mut self, observer: Option<Arc<dyn Observer>>) -> Self {
        self.obs = match observer {
            Some(observer) => Obs::new(observer),
            None => Obs::none(),
        };
        self
    }

    /// The configured worker cap.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f` over every job, returning outputs in job order.
    pub fn run<T, R, F>(&self, jobs: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let total = jobs.len();
        let workers = self.workers.min(total.max(1));
        self.obs
            .emit(EventKind::SweepStarted, || Event::SweepStarted {
                jobs: total as u64,
                workers: workers as u64,
            });
        if workers <= 1 {
            return jobs.into_iter().map(f).collect();
        }

        // Jobs are parked in per-slot mutexes so worker threads can take
        // ownership of them; the atomic cursor hands each slot to exactly
        // one worker. Results land back in their slot's position.
        let slots: Vec<Mutex<Option<T>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let results: Vec<Mutex<Option<R>>> = (0..total).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let job = slots[i]
                        .lock()
                        .expect("job slot")
                        .take()
                        .expect("each slot is dispatched once");
                    let out = f(job);
                    *results[i].lock().expect("result slot") = Some(out);
                });
            }
        });
        results
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("worker did not panic")
                    .expect("every job ran")
            })
            .collect()
    }
}

impl Default for SweepRunner {
    fn default() -> Self {
        SweepRunner::new()
    }
}

impl std::fmt::Debug for SweepRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepRunner")
            .field("workers", &self.workers)
            .field("observer", &self.obs.enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_stay_in_job_order() {
        let runner = SweepRunner::new().with_workers(4);
        let jobs: Vec<usize> = (0..64).collect();
        let out = runner.run(jobs, |n| n * 2);
        assert_eq!(out, (0..64).map(|n| n * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial() {
        let jobs: Vec<u64> = (0..40).collect();
        let serial = SweepRunner::serial().run(jobs.clone(), |n| n.wrapping_mul(0x9e3779b9));
        let parallel = SweepRunner::new()
            .with_workers(8)
            .run(jobs, |n| n.wrapping_mul(0x9e3779b9));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_single_job_sweeps_run_inline() {
        let runner = SweepRunner::new().with_workers(8);
        assert_eq!(runner.run(Vec::<u8>::new(), |n| n), Vec::<u8>::new());
        assert_eq!(runner.run(vec![7u8], |n| n + 1), vec![8]);
    }

    #[test]
    fn observer_sees_one_sweep_started_per_run() {
        use std::sync::Mutex;

        #[derive(Debug, Default)]
        struct Capture(Mutex<Vec<Event>>);
        impl Observer for Capture {
            fn on_event(&self, event: &Event) {
                self.0.lock().unwrap().push(event.clone());
            }
        }

        let capture = Arc::new(Capture::default());
        let runner = SweepRunner::new()
            .with_workers(2)
            .with_observer(Some(capture.clone()));
        runner.run(vec![1, 2, 3], |n| n);
        let events = capture.0.lock().unwrap();
        assert_eq!(events.len(), 1);
        match &events[0] {
            Event::SweepStarted { jobs, workers } => {
                assert_eq!(*jobs, 3);
                assert_eq!(*workers, 2);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
}
