//! The bounded work-stealing worker pool.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Pool tuning for an [`Engine`].
///
/// Construct with [`PoolConfig::new`] and chain setters; the struct is
/// `#[non_exhaustive]` so new knobs can land without breaking callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct PoolConfig {
    /// Concurrency bound (clamped to at least 1; `1` is exactly serial).
    pub jobs: usize,
    /// Per-cell time budget. A cell whose execution exceeds the budget is
    /// reported as [`CellFailure::TimedOut`] and its result discarded.
    ///
    /// Honest limitation: safe Rust cannot preempt a running closure, so
    /// the watchdog fires when the cell *returns* (or panics) — a cell
    /// that never yields keeps its worker busy until the process exits.
    /// What the budget guarantees is that a stalled cell's late result
    /// never silently enters the output set.
    pub cell_timeout: Option<Duration>,
}

impl PoolConfig {
    /// A config running up to `jobs` cells concurrently, with no cell
    /// budget.
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        Self {
            jobs: jobs.max(1),
            cell_timeout: None,
        }
    }

    /// Sets the per-cell time budget (see [`PoolConfig::cell_timeout`]).
    #[must_use]
    pub fn cell_timeout(mut self, budget: Duration) -> Self {
        self.cell_timeout = Some(budget);
        self
    }
}

/// A cell that failed to produce a usable result.
///
/// Failures are isolated per cell: one bad cell never tears down the rest
/// of the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellFailure {
    /// The cell panicked; the payload's message is preserved
    /// ([`std::panic::catch_unwind`] inside the worker).
    Panicked {
        /// The failed cell's index in the input order.
        index: usize,
        /// The panic message (`"<non-string panic payload>"` when the
        /// payload was neither `&str` nor `String`).
        message: String,
    },
    /// The cell ran longer than [`PoolConfig::cell_timeout`]; its result
    /// was discarded.
    TimedOut {
        /// The failed cell's index in the input order.
        index: usize,
        /// The configured budget the cell exceeded.
        budget: Duration,
        /// How long the cell actually ran.
        elapsed: Duration,
    },
}

impl CellFailure {
    /// The failed cell's index in the input order, whatever the failure
    /// mode.
    #[must_use]
    pub fn index(&self) -> usize {
        match self {
            Self::Panicked { index, .. } | Self::TimedOut { index, .. } => *index,
        }
    }
}

impl fmt::Display for CellFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Panicked { index, message } => {
                write!(f, "cell {index} panicked: {message}")
            }
            Self::TimedOut {
                index,
                budget,
                elapsed,
            } => write!(
                f,
                "cell {index} timed out: ran {elapsed:?}, budget {budget:?}"
            ),
        }
    }
}

impl std::error::Error for CellFailure {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// A deterministic parallel executor over independent cells.
///
/// `Engine` owns nothing but a [`PoolConfig`]; every [`Engine::run`] /
/// [`Engine::try_run`] call spins up a fresh scoped pool, distributes the
/// cells round-robin over per-worker deques, and lets idle workers steal
/// from the back of their peers' queues. Results always come back in cell
/// order, so callers cannot observe scheduling at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Engine {
    config: PoolConfig,
}

impl Engine {
    /// An engine running up to `jobs` cells concurrently (`jobs` is
    /// clamped to at least 1; `1` is exactly serial execution).
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        Self::with_config(PoolConfig::new(jobs))
    }

    /// An engine with explicit pool tuning (width, cell watchdog).
    #[must_use]
    pub fn with_config(config: PoolConfig) -> Self {
        let mut config = config;
        config.jobs = config.jobs.max(1);
        Self { config }
    }

    /// The serial engine: cells run one after another on the caller's
    /// thread (still with panic isolation).
    #[must_use]
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// The configured concurrency bound.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.config.jobs
    }

    /// The full pool tuning.
    #[must_use]
    pub fn config(&self) -> PoolConfig {
        self.config
    }

    /// Runs `f` over every cell and returns the outcomes **in cell
    /// order**: `result[i]` is `f(i, inputs[i])`, or the captured failure
    /// (panic, or blown [`PoolConfig::cell_timeout`] budget) if that cell
    /// went wrong. All cells run to completion regardless of failures
    /// elsewhere.
    pub fn try_run<I, T, F>(&self, inputs: Vec<I>, f: F) -> Vec<Result<T, CellFailure>>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
    {
        // The watchdog clock for real runs is wall time; tests inject a
        // deterministic clock through `try_run_clocked`.
        let start = Instant::now();
        self.try_run_clocked(inputs, f, &move || start.elapsed())
    }

    /// [`Engine::try_run`] with an injected monotonic clock (the cell
    /// watchdog measures each cell between two `clock()` samples).
    pub(crate) fn try_run_clocked<I, T, F, C>(
        &self,
        inputs: Vec<I>,
        f: F,
        clock: &C,
    ) -> Vec<Result<T, CellFailure>>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
        C: Fn() -> Duration + Sync,
    {
        let n = inputs.len();
        let workers = self.config.jobs.min(n);
        let budget = self.config.cell_timeout;
        let call = |index: usize, input: I| -> Result<T, CellFailure> {
            let began = clock();
            let outcome = catch_unwind(AssertUnwindSafe(|| f(index, input)));
            let elapsed = clock().saturating_sub(began);
            let value = outcome.map_err(|payload| CellFailure::Panicked {
                index,
                message: panic_message(payload),
            })?;
            if let Some(budget) = budget {
                if elapsed > budget {
                    return Err(CellFailure::TimedOut {
                        index,
                        budget,
                        elapsed,
                    });
                }
            }
            Ok(value)
        };

        if workers <= 1 {
            return inputs
                .into_iter()
                .enumerate()
                .map(|(i, input)| call(i, input))
                .collect();
        }

        // Round-robin the cells over per-worker deques. Workers pop from
        // the front of their own deque and steal from the back of their
        // peers', so the common case is contention-free and the tail of a
        // skewed distribution still spreads out.
        let mut queues: Vec<Mutex<VecDeque<(usize, I)>>> = (0..workers)
            .map(|_| Mutex::new(VecDeque::with_capacity(n.div_ceil(workers))))
            .collect();
        for (i, input) in inputs.into_iter().enumerate() {
            queues[i % workers]
                .get_mut()
                .expect("fresh")
                .push_back((i, input));
        }
        let queues = &queues;

        let mut results: Vec<Option<Result<T, CellFailure>>> = Vec::with_capacity(n);
        results.resize_with(n, || None);
        let (tx, rx) = mpsc::channel::<(usize, Result<T, CellFailure>)>();

        std::thread::scope(|scope| {
            for me in 0..workers {
                let tx = tx.clone();
                let call = &call;
                scope.spawn(move || {
                    loop {
                        // Own queue first, then sweep the peers once; when
                        // every queue is empty the remaining cells are all
                        // in flight on other workers and we are done.
                        let mut task = queues[me].lock().expect("queue").pop_front();
                        if task.is_none() {
                            for other in (0..workers).filter(|&o| o != me) {
                                task = queues[other].lock().expect("queue").pop_back();
                                if task.is_some() {
                                    break;
                                }
                            }
                        }
                        let Some((index, input)) = task else { break };
                        // A receiver that hung up means the caller is
                        // gone; nothing useful left to do.
                        if tx.send((index, call(index, input))).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);
            for (index, outcome) in rx {
                results[index] = Some(outcome);
            }
        });

        results
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.unwrap_or_else(|| panic!("cell {i} produced no outcome")))
            .collect()
    }

    /// [`Engine::try_run`] for grids where a cell failure is fatal: every
    /// cell still runs to completion, then the first failure is re-raised
    /// with a summary of all of them.
    ///
    /// # Panics
    ///
    /// Panics if any cell failed.
    pub fn run<I, T, F>(&self, inputs: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
    {
        let outcomes = self.try_run(inputs, f);
        let failures: Vec<&CellFailure> =
            outcomes.iter().filter_map(|o| o.as_ref().err()).collect();
        assert!(
            failures.is_empty(),
            "{} of {} cells failed: {}",
            failures.len(),
            outcomes.len(),
            failures
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        );
        outcomes
            .into_iter()
            .map(|o| o.expect("failures checked above"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn results_come_back_in_cell_order() {
        let engine = Engine::new(4);
        // Uneven work so completion order differs from cell order.
        let out = engine.run((0..32u64).collect(), |i, n| {
            if i % 3 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            n * 10
        });
        assert_eq!(out, (0..32u64).map(|n| n * 10).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let f = |i: usize, n: u64| n.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64);
        let inputs: Vec<u64> = (0..57).map(|i| i * 31 % 13).collect();
        let serial = Engine::serial().run(inputs.clone(), f);
        for jobs in [2, 3, 8, 64] {
            assert_eq!(
                Engine::new(jobs).run(inputs.clone(), f),
                serial,
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn a_panicking_cell_is_isolated() {
        let engine = Engine::new(3);
        let out = engine.try_run((0..10u32).collect(), |_, n| {
            assert!(n != 4, "cell four exploded");
            n + 1
        });
        for (i, o) in out.iter().enumerate() {
            if i == 4 {
                let failure = o.as_ref().expect_err("cell 4 panicked");
                assert_eq!(failure.index(), 4);
                assert!(
                    matches!(
                        failure,
                        CellFailure::Panicked { message, .. }
                            if message.contains("cell four exploded")
                    ),
                    "{failure}"
                );
            } else {
                assert_eq!(o.as_ref().expect("healthy cell"), &(i as u32 + 1));
            }
        }
    }

    #[test]
    fn the_watchdog_times_out_a_stalled_cell_deterministically() {
        // Simulated time: each cell advances the fake clock by its own
        // "runtime"; cell 2 stalls for 100 ms against a 10 ms budget. The
        // serial path makes the clock sequence exactly reproducible.
        let fake_ms = AtomicU64::new(0);
        let clock = || Duration::from_millis(fake_ms.load(Ordering::SeqCst));
        let engine =
            Engine::with_config(PoolConfig::new(1).cell_timeout(Duration::from_millis(10)));
        let out = engine.try_run_clocked(
            (0..4u32).collect(),
            |i, n| {
                fake_ms.fetch_add(if i == 2 { 100 } else { 1 }, Ordering::SeqCst);
                n + 1
            },
            &clock,
        );
        for (i, o) in out.iter().enumerate() {
            if i == 2 {
                assert_eq!(
                    o.as_ref().expect_err("cell 2 blew its budget"),
                    &CellFailure::TimedOut {
                        index: 2,
                        budget: Duration::from_millis(10),
                        elapsed: Duration::from_millis(100),
                    }
                );
            } else {
                assert_eq!(o.as_ref().expect("within budget"), &(i as u32 + 1));
            }
        }
    }

    #[test]
    fn the_watchdog_times_out_on_wall_clock_in_try_run() {
        let engine = Engine::with_config(PoolConfig::new(2).cell_timeout(Duration::from_millis(5)));
        let out = engine.try_run(vec![0u8, 1], |i, x| {
            if i == 1 {
                std::thread::sleep(Duration::from_millis(50));
            }
            x
        });
        assert_eq!(out[0].as_ref().expect("fast cell passes"), &0);
        let failure = out[1].as_ref().expect_err("slow cell times out");
        assert_eq!(failure.index(), 1);
        assert!(
            matches!(
                failure,
                CellFailure::TimedOut { budget, elapsed, .. }
                    if *budget == Duration::from_millis(5) && *elapsed >= Duration::from_millis(50)
            ),
            "{failure}"
        );
    }

    #[test]
    fn a_panic_in_a_stalled_cell_stays_a_panic() {
        // The panic carries more diagnostic value than the blown budget.
        let engine = Engine::with_config(PoolConfig::new(1).cell_timeout(Duration::from_millis(1)));
        let fake_ms = AtomicU64::new(0);
        let clock = || Duration::from_millis(fake_ms.load(Ordering::SeqCst));
        let out = engine.try_run_clocked(
            vec![0u8],
            |_, _| -> u8 {
                fake_ms.fetch_add(1_000, Ordering::SeqCst);
                panic!("stalled and then died");
            },
            &clock,
        );
        assert!(
            matches!(
                out[0].as_ref().expect_err("cell panicked"),
                CellFailure::Panicked { message, .. } if message.contains("stalled and then died")
            ),
            "{:?}",
            out[0]
        );
    }

    #[test]
    fn failure_displays_name_the_cell_and_mode() {
        let p = CellFailure::Panicked {
            index: 3,
            message: "boom".into(),
        };
        assert_eq!(p.to_string(), "cell 3 panicked: boom");
        let t = CellFailure::TimedOut {
            index: 7,
            budget: Duration::from_millis(10),
            elapsed: Duration::from_millis(25),
        };
        assert_eq!(t.to_string(), "cell 7 timed out: ran 25ms, budget 10ms");
        assert_eq!(t.index(), 7);
    }

    #[test]
    #[should_panic(expected = "1 of 3 cells failed")]
    fn run_reraises_failures_after_completion() {
        Engine::new(2).run(vec![1u32, 2, 3], |_, n| {
            assert!(n != 2, "boom");
            n
        });
    }

    #[test]
    fn zero_and_empty_edges() {
        assert_eq!(Engine::new(0).jobs(), 1);
        assert_eq!(Engine::with_config(PoolConfig::new(0)).jobs(), 1);
        let out: Vec<u8> = Engine::new(8).run(Vec::<u8>::new(), |_, x| x);
        assert!(out.is_empty());
    }
}
