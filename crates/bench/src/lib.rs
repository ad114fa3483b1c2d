//! Criterion benchmark harness for `cmpqos`.
//!
//! Two bench targets:
//!
//! * `components` — micro-benchmarks of the substrates (cache access paths,
//!   trace generation, LAC admission tests), including the Section 7.5
//!   admission-cost scaling measurement. Node simulation throughput is
//!   timed by `cmpqos bench` instead, where CI reads it.
//! * `figures` — one benchmark per paper table/figure, each running a
//!   scaled-down instance of the corresponding experiment cell so the full
//!   reproduction pipeline is exercised and timed under `cargo bench`.
//!   (The full-fidelity numbers come from the `cmpqos-experiments`
//!   binaries; see `EXPERIMENTS.md`.)

#![forbid(unsafe_code)]
