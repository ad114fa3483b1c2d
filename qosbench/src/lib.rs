//! One benchmark over both halves of cmpqos: the CMP simulator that
//! enforces QoS (`sim_mix`, `sim_stream`) and the admission service that
//! decides which jobs get it (`admit_cluster`, `admit_flood`).
//!
//! A run measures a fixed number of cells, each with its own seed derived
//! from the run's seed. Every cell prepares its inputs (`setup_s`), runs
//! its timed phase, and is checked against the program's own reference
//! (`runner::run`, `scenario::replay`) or invariants. Host metrics are the
//! median over cells, except the rate, which is the fastest cell's;
//! simulated metrics aggregate every cell and repeat exactly for a given
//! seed. See `README.md` for the metric definitions.

pub mod admit;
pub mod layers;
pub mod report;
pub mod sim;

use layers::Probe;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 3 Mix-1 under Hybrid-2 with stealing.
    SimMix,
    /// Ten `libquantum` jobs under EqualPart.
    SimStream,
    /// Multi-tier traffic through a 24-node journaled cluster over a lossy
    /// network.
    AdmitCluster,
    /// An overloaded multi-tier flood through per-tier intakes into one LAC.
    AdmitFlood,
}

impl Workload {
    /// Every workload, in the order the docs list them.
    pub const ALL: [Workload; 4] = [
        Workload::SimMix,
        Workload::SimStream,
        Workload::AdmitCluster,
        Workload::AdmitFlood,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimMix => "sim_mix",
            Workload::SimStream => "sim_stream",
            Workload::AdmitCluster => "admit_cluster",
            Workload::AdmitFlood => "admit_flood",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether this workload runs the simulator (ops are instructions)
    /// rather than the admission service (ops are decided requests).
    pub fn is_sim(self) -> bool {
        matches!(self, Workload::SimMix | Workload::SimStream)
    }
}

/// Input sizes of one cell of each workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Instructions per job on the simulator workloads.
    pub sim_work: u64,
    /// Scenario horizon in cycles of an `admit_cluster` cell.
    pub cluster_horizon: u64,
    /// Scenario horizon in cycles of an `admit_flood` cell.
    pub flood_horizon: u64,
}

impl Sizes {
    /// The sizes the benchmark command measures (see [`cells_for`]).
    pub const STANDARD: Sizes = Sizes {
        sim_work: 500_000,
        cluster_horizon: 7_300_000,
        flood_horizon: 4_000_000,
    };

    /// Small cells for tests.
    pub const SMALL: Sizes = Sizes {
        sim_work: 60_000,
        cluster_horizon: 200_000,
        flood_horizon: 200_000,
    };
}

impl fmt::Display for Sizes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{\"sim_work\": {}, \"sim_scale\": {}, \"cluster_horizon\": {}, \"cluster_nodes\": {}, \"flood_horizon\": {}}}",
            self.sim_work,
            sim::SCALE,
            self.cluster_horizon,
            admit::CLUSTER_NODES,
            self.flood_horizon
        )
    }
}

/// The simulated (deterministic) statistics of one cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellStats {
    /// Ops completed: retired instructions, or requests with a final
    /// decision.
    pub ops: u64,
    /// Ops that failed: an accepted job that never finished, a request
    /// with no decision, an admitted job neither completed nor revoked.
    pub failed: u64,
    /// Offered jobs or requests.
    pub offered: u64,
    /// Admitted (accepted) ones.
    pub admitted: u64,
    /// Jobs or requests that carry a counted deadline.
    pub deadline_total: u64,
    /// Of those, the ones that met it.
    pub deadline_hits: u64,
    /// Completion cycle of the last accepted job.
    pub makespan: u64,
    /// Per-request latency in cycles: from scheduled arrival to the LAC
    /// decision (admission service), or from a job's first submission to
    /// its completion (simulator).
    pub latency: Vec<u64>,
    /// Additive simulated counters the traced run reports per layer.
    pub counters: BTreeMap<&'static str, u64>,
}

impl CellStats {
    fn count(&mut self, name: &'static str, value: u64) {
        *self.counters.entry(name).or_insert(0) += value;
    }
}

/// One measured cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Host seconds of set-up.
    pub setup_s: f64,
    /// Host seconds of the timed phase.
    pub timed_s: f64,
    /// Heap high-water mark of the cell above what was live before it.
    pub peak_heap_mib: f64,
    /// Digest of the cell's full deterministic outcome.
    pub digest: u64,
    /// Simulated statistics.
    pub stats: CellStats,
}

/// The seed of cell `index` of a run seeded `seed` (SplitMix64).
pub fn cell_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((index as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Cells one run measures for `seconds` requested seconds. A cell takes
/// about half a second (simulator) or a second (admission service) at
/// [`Sizes::STANDARD`] on a 2-core x86-64 box, so a run measures for
/// roughly `seconds`. Simulator cells are kept short because each holds
/// only ten jobs: more cells give the per-job statistics more samples.
pub fn cells_for(workload: Workload, seconds: u64) -> usize {
    let per_second = if workload.is_sim() { 2 } else { 1 };
    (seconds.max(3) * per_second) as usize
}

/// Cells of each run compared with the program's reference
/// (`runner::run`, `scenario::replay`). A reference run costs as much as
/// the cell, so a run compares its first few; every seed compares
/// different cells, and the tests compare all.
pub const REFERENCE_CHECKED_CELLS: usize = 2;

/// Runs cell `index` of `workload`.
pub fn run_cell(
    workload: Workload,
    seed: u64,
    index: usize,
    sizes: Sizes,
    probe: Option<&Arc<Probe>>,
) -> Cell {
    let s = cell_seed(seed, index);
    let mark = report::heap_mark();
    let mut cell = match workload {
        Workload::SimMix => sim::run_cell(&sim::mix_config(s, sizes.sim_work), probe),
        Workload::SimStream => sim::run_cell(&sim::stream_config(s, sizes.sim_work), probe),
        // Reads its own heap peak, before its untimed recorder-on pass.
        Workload::AdmitCluster => {
            return admit::run_cluster_cell(s, sizes.cluster_horizon, probe);
        }
        Workload::AdmitFlood => admit::run_flood_cell(s, sizes.flood_horizon, probe),
    };
    cell.peak_heap_mib = report::heap_peak_mib_since(mark);
    cell
}

/// Checks cell `index`: no failed ops and, when `reference` is set, the
/// same outcome as the program's reference for it.
///
/// # Errors
///
/// Describes the mismatch.
pub fn check_cell(
    workload: Workload,
    seed: u64,
    index: usize,
    sizes: Sizes,
    cell: &Cell,
    reference: bool,
) -> Result<(), String> {
    let s = cell_seed(seed, index);
    let (what, reference) = match workload {
        _ if !reference => ("", None),
        Workload::SimMix => (
            "runner::run",
            Some(sim::reference_digest(&sim::mix_config(s, sizes.sim_work))),
        ),
        Workload::SimStream => (
            "runner::run",
            Some(sim::reference_digest(&sim::stream_config(
                s,
                sizes.sim_work,
            ))),
        ),
        // The cluster cell checks itself: every request decided, every
        // admitted job completed XOR revoked, and a recorder-on pass that
        // reaches the same decisions.
        Workload::AdmitCluster => ("", None),
        Workload::AdmitFlood => (
            "scenario::replay",
            Some(admit::flood_reference_digest(s, sizes.flood_horizon)),
        ),
    };
    if let Some(reference) = reference {
        if reference != cell.digest {
            return Err(format!(
                "{} cell {index} (seed {s}): outcome differs from {what}",
                workload.name()
            ));
        }
    }
    if cell.stats.failed > 0 {
        return Err(format!(
            "{} cell {index} (seed {s}): {} failed ops",
            workload.name(),
            cell.stats.failed
        ));
    }
    Ok(())
}

/// FNV-1a over a value's `Debug` form, streamed without building the
/// string. `Debug` covers every field, so equal digests mean equal
/// outcomes.
pub fn digest<T: fmt::Debug>(value: &T) -> u64 {
    struct Fnv(u64);
    impl fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    fmt::write(&mut h, format_args!("{value:?}")).expect("hashing never fails");
    h.0
}

/// Everything one benchmark run measured and checked.
#[derive(Debug)]
pub struct Run {
    /// The untraced cells (the end-to-end measurement).
    pub cells: Vec<Cell>,
    /// The same cells run through the timing wrappers (traced runs only).
    pub traced: Vec<Cell>,
    /// The wrappers' tallies (traced runs only).
    pub probe: Option<Arc<Probe>>,
    /// Ops attempted over every checked cell.
    pub attempted: u64,
    /// Ops failed, counting every op of a cell whose check failed.
    pub failed: u64,
    /// One line per failed check.
    pub errors: Vec<String>,
}

impl Run {
    /// Checks one cell, counting its ops as attempted and, if the check
    /// fails, as failed. Returns whether it passed.
    fn check(
        &mut self,
        workload: Workload,
        seed: u64,
        index: usize,
        sizes: Sizes,
        cell: &Cell,
        reference: bool,
    ) -> bool {
        self.attempted += cell.stats.ops + cell.stats.failed;
        match check_cell(workload, seed, index, sizes, cell, reference) {
            Ok(()) => true,
            Err(e) => {
                self.failed += cell.stats.ops + cell.stats.failed;
                self.errors.push(e);
                false
            }
        }
    }

    /// The share of attempted ops that failed, in percent.
    pub fn failed_pct(&self) -> f64 {
        100.0 * self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Measures `cells` cells of `workload` and checks them. A traced run
/// measures half as many cells twice each, without and with the timing
/// wrappers, and checks that both passes reach identical simulated
/// statistics.
pub fn measure(workload: Workload, seed: u64, cells: usize, sizes: Sizes, trace: bool) -> Run {
    let probe = trace.then(Probe::new);
    // A traced run measures each cell twice, so it takes half the cells to
    // keep the same length.
    let cells = if trace { (cells / 2).max(2) } else { cells };
    let mut run = Run {
        cells: Vec::with_capacity(cells),
        traced: Vec::new(),
        probe: probe.clone(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    for i in 0..cells {
        run.cells.push(run_cell(workload, seed, i, sizes, None));
        if let Some(p) = &probe {
            run.traced.push(run_cell(workload, seed, i, sizes, Some(p)));
        }
    }
    let measured = std::mem::take(&mut run.cells);
    let traced = std::mem::take(&mut run.traced);
    for (i, cell) in measured.iter().enumerate() {
        let reference = i < REFERENCE_CHECKED_CELLS;
        let passed = run.check(workload, seed, i, sizes, cell, reference);
        if traced
            .get(i)
            .is_some_and(|t| t.digest != cell.digest || t.stats != cell.stats)
        {
            // A cell that already failed has its ops counted once.
            if passed {
                run.failed += cell.stats.ops + cell.stats.failed;
            }
            run.errors.push(format!(
                "{} cell {i}: the traced run's simulated statistics differ from the untraced run's",
                workload.name()
            ));
        }
    }
    run.cells = measured;
    run.traced = traced;
    run
}

/// Runs `cells` cells at a second seed, untimed, and compares each with
/// the program's reference, adding their ops and failures to `run`.
pub fn check_holdout(run: &mut Run, workload: Workload, seed: u64, cells: usize, sizes: Sizes) {
    for i in 0..cells {
        let cell = run_cell(workload, seed, i, sizes, None);
        run.check(workload, seed, i, sizes, &cell, true);
    }
}
