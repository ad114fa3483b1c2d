//! Deterministic parallel execution engine for independent simulation
//! cells.
//!
//! The paper's evaluation is a grid of *independent* cells: every
//! (workload, configuration, seed) tuple is a self-contained, seeded
//! simulation whose outcome depends only on its inputs. This crate runs
//! such grids on a bounded work-stealing worker pool while guaranteeing
//! **bit-identical results to serial execution**:
//!
//! * results are returned **ordered by cell index**, never by completion
//!   order;
//! * cells receive no shared mutable state — each cell owns its input and
//!   produces an owned output;
//! * a panicking cell is isolated ([`std::panic::catch_unwind`]) and
//!   reported as a failed cell instead of tearing down the whole run;
//! * an optional per-cell watchdog ([`PoolConfig::cell_timeout`]) reports
//!   a cell that overran its budget as [`CellFailure::TimedOut`] and
//!   discards its late result.
//!
//! The pool is plain `std` (threads + channels + mutex-guarded deques):
//! the workspace builds offline with no registry dependencies. Cells are
//! coarse (milliseconds to minutes of simulation), so queue overhead is
//! irrelevant next to determinism and robustness.
//!
//! # Example
//!
//! ```
//! use cmpqos_engine::Engine;
//!
//! let engine = Engine::new(4);
//! let squares = engine.run((0u64..8).collect(), |_idx, n| n * n);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! // Serial and parallel runs are indistinguishable:
//! assert_eq!(squares, Engine::serial().run((0u64..8).collect(), |_i, n| n * n));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pool;

pub use pool::{CellFailure, Engine, PoolConfig};

/// The machine's available parallelism (1 when it cannot be queried).
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}
