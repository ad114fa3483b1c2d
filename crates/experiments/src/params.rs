//! Shared experiment parameters.

use crate::cli::{self, Args, Command, Flag, Value};
use cmpqos_types::{Instructions, Ways};
use cmpqos_workloads::calibrate::{solo_run, SoloStats};
use cmpqos_workloads::runner::RunConfig;
use cmpqos_workloads::{Configuration, WorkloadSpec};
use std::path::PathBuf;

/// `--scale` / `CMPQOS_SCALE`: the geometry scale factor.
pub const SCALE: Flag =
    Flag::new("scale", Value::Number, "geometry scale k (8)").env("CMPQOS_SCALE");
/// `--work` / `CMPQOS_WORK`: instructions per job.
pub const WORK: Flag =
    Flag::new("work", Value::Number, "instructions per job (800000)").env("CMPQOS_WORK");
/// `--seed` / `CMPQOS_SEED`: the master seed.
pub const SEED: Flag = Flag::new("seed", Value::Number, "master seed (1)").env("CMPQOS_SEED");
/// `--jobs` / `CMPQOS_JOBS`: the engine's worker-pool width.
pub const JOBS: Flag =
    Flag::new("jobs", Value::Number, "pool width (0 = per core)").env("CMPQOS_JOBS");
/// `--events` / `CMPQOS_EVENTS`: the JSONL event log.
pub const EVENTS: Flag =
    Flag::new("events", Value::EventLog, "JSONL event log").env("CMPQOS_EVENTS");

/// What every figure/table binary takes: `--jobs` and `--events` (or their
/// variables), and scale, work and seed from the environment only.
pub const FLAGS: &[Flag] = &[
    JOBS,
    EVENTS,
    SCALE.env_only(),
    WORK.env_only(),
    SEED.env_only(),
];

/// Global knobs for every experiment: the geometry scale factor, the
/// per-job instruction budget, the master seed, the worker-pool width and
/// an optional JSONL event log (see [`FLAGS`] for where each comes from).
///
/// Defaults reproduce the paper's shapes in seconds per experiment;
/// `CMPQOS_SCALE=1 CMPQOS_WORK=200000000` is the paper's literal setup.
/// Results are bit-identical at every pool width (`docs/performance.md`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentParams {
    /// Geometry scale factor `k` (see
    /// [`cmpqos_system::SystemConfig::paper_scaled`]).
    pub scale: u64,
    /// Instructions per job.
    pub work: Instructions,
    /// Master seed.
    pub seed: u64,
    /// Worker-pool width for independent experiment cells (1 = serial).
    pub jobs: usize,
    /// When set, every run appends its event stream to this JSONL file.
    pub events: Option<PathBuf>,
}

impl std::fmt::Display for ExperimentParams {
    /// `scale 1/k, W instructions/job, seed S`, as every banner prints it.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (scale, work, seed) = (self.scale, self.work.get(), self.seed);
        write!(f, "scale 1/{scale}, {work} instructions/job, seed {seed}")
    }
}

impl ExperimentParams {
    /// Default experiment fidelity: scale 8, 800k instructions/job, one
    /// engine worker per available core.
    #[must_use]
    pub fn standard() -> Self {
        Self {
            scale: 8,
            work: Instructions::new(800_000),
            seed: 1,
            jobs: cmpqos_engine::default_jobs(),
            events: None,
        }
    }

    /// Fast parameters for tests: scale 16, 80k instructions/job, serial
    /// (tests already run in parallel under the libtest harness).
    #[must_use]
    pub fn quick() -> Self {
        Self {
            scale: 16,
            work: Instructions::new(80_000),
            seed: 1,
            jobs: 1,
            events: None,
        }
    }

    /// [`ExperimentParams::standard`] with whichever of [`SCALE`],
    /// [`WORK`], [`SEED`], [`JOBS`] and [`EVENTS`] the command was given
    /// (scale at least 1, work at least 1,000, jobs 0 = auto).
    #[must_use]
    pub fn from_args(args: &Args) -> Self {
        let mut p = Self::standard();
        if let Some(v) = args.num(SCALE.name) {
            p.scale = v.max(1);
        }
        if let Some(v) = args.num(WORK.name) {
            p.work = Instructions::new(v.max(1_000));
        }
        if let Some(v) = args.num(SEED.name) {
            p.seed = v;
        }
        match args.num(JOBS.name) {
            Some(0) | None => {}
            Some(n) => p.jobs = usize::try_from(n).unwrap_or(usize::MAX),
        }
        p.events = args.path(EVENTS.name);
        p
    }

    /// One run of `workload` under `configuration` at these parameters,
    /// with stealing on at its default interval.
    #[must_use]
    pub fn run_config(&self, workload: WorkloadSpec, configuration: Configuration) -> RunConfig {
        RunConfig {
            scale: self.scale,
            work: self.work,
            seed: self.seed,
            events: self.events.clone(),
            ..RunConfig::new(workload, configuration)
        }
    }

    /// `bench` alone on `ways` L2 ways at these parameters.
    #[must_use]
    pub fn solo(&self, bench: &str, ways: u16) -> SoloStats {
        solo_run(bench, Ways::new(ways), self.work, self.scale, self.seed)
    }

    /// The parameters of the figure/table binary `name` (see [`FLAGS`])
    /// from the process's command line and environment ([`cli::parse`]).
    #[must_use]
    pub fn from_command_line(name: &'static str, about: &'static str) -> Self {
        let flags = FLAGS;
        Self::from_args(&cli::parse(&Command { name, about, flags }, &cli::args()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], env: &[(&str, &str)]) -> ExperimentParams {
        let (name, about, flags) = ("fig", "", FLAGS);
        let args: Vec<String> = args.iter().map(|s| (*s).to_string()).collect();
        let var = |v: &str| {
            env.iter()
                .find(|(k, _)| *k == v)
                .map(|(_, x)| (*x).to_string())
        };
        let parsed = cli::try_parse(&Command { name, about, flags }, &args, var);
        ExperimentParams::from_args(&parsed.unwrap().unwrap())
    }

    #[test]
    fn defaults_flags_and_variables() {
        let p = ExperimentParams::standard();
        assert_eq!((p.scale, p.events.clone()), (8, None));
        assert_eq!(parse(&[], &[]), p);
        assert!(ExperimentParams::quick().work < p.work);
        assert_eq!(ExperimentParams::quick().jobs, 1);
        assert_eq!(parse(&["--jobs", "3"], &[("CMPQOS_JOBS", "2")]).jobs, 3);
        assert_eq!(parse(&[], &[("CMPQOS_JOBS", "2")]).jobs, 2);
        assert_eq!(
            parse(&["--jobs=0"], &[]).jobs,
            cmpqos_engine::default_jobs()
        );
        let env = [
            ("CMPQOS_SCALE", "0"),
            ("CMPQOS_WORK", "10"),
            ("CMPQOS_SEED", "4"),
        ];
        let p = parse(&[], &env);
        assert_eq!((p.scale, p.work.get(), p.seed), (1, 1_000, 4));
    }
}
