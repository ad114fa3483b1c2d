//! `cmpqos` — the command-line front end to the framework.
//!
//! ```text
//! cmpqos list
//! cmpqos solo --bench bzip2 --ways 7 [--scale 8] [--work 800000]
//! cmpqos run --workload gobmk|mix1|mix2 --config all-strict|hybrid1|hybrid2|autodown|equalpart
//!            [--scale 8] [--work 800000] [--seed 1] [--json out.json]
//! cmpqos bench [--jobs N] [--scale 8] [--work 800000] [--seed 1] [--out BENCH.json]
//! cmpqos <command> --help
//! ```
//!
//! A thin, dependency-free argument parser over the library API — also the
//! fifth example application of the public interface. Each subcommand
//! declares the flags it accepts: an unknown flag, a missing or malformed
//! value exits 2 with the subcommand's usage, and `--help` prints that
//! usage without running anything.

use cmpqos::experiments::json::write_json;
use cmpqos::trace::spec;
use cmpqos::types::{Instructions, Percent, Ways};
use cmpqos::workloads::metrics::{
    lac_occupancy, normalized_throughput, paper_hit_rate, wall_clock_by_mode,
};
use cmpqos::workloads::runner::{run, RunConfig};
use cmpqos::workloads::{Configuration, WorkloadSpec};
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

type Flags = HashMap<String, String>;

/// Why a command did not succeed: a usage error (exit 2, with the
/// command's usage) or a run that failed (exit 1).
enum Failure {
    Usage(String),
    Run(String),
}

impl From<String> for Failure {
    fn from(e: String) -> Self {
        Failure::Run(e)
    }
}

/// A subcommand: its usage text, the flags it accepts and its body.
struct Command {
    name: &'static str,
    usage: &'static str,
    /// Accepted flags; a name ending in `!` is a bare switch that takes no
    /// value, every other flag requires one.
    flags: &'static [&'static str],
    run: fn(&Flags) -> Result<(), Failure>,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "list",
        usage: "cmpqos list",
        flags: &[],
        run: cmd_list,
    },
    Command {
        name: "solo",
        usage: "\
cmpqos solo  --bench <name> [--ways N] [--scale N] [--work N] [--seed N]
             (scale, work and seed default to CMPQOS_SCALE, CMPQOS_WORK
              and CMPQOS_SEED when set, else 8, 800000 and 1)",
        flags: &["bench", "ways", "scale", "work", "seed"],
        run: cmd_solo,
    },
    Command {
        name: "run",
        usage: "\
cmpqos run   --workload <bench|mix1|mix2> --config <all-strict|hybrid1|hybrid2|autodown|equalpart>
             [--scale N] [--work N] [--seed N] [--json <path>] [--events <path>]",
        flags: &[
            "workload", "config", "scale", "work", "seed", "json", "events",
        ],
        run: cmd_run,
    },
    Command {
        name: "bench",
        usage: "\
cmpqos bench [--jobs N] [--scale N] [--work N] [--seed N] [--out <path>]
             (times figure/table cells serial vs parallel plus component
              micro-benchmarks; writes a schema-versioned BENCH_<git-sha>.json)",
        flags: &["jobs", "scale", "work", "seed", "out"],
        run: cmd_bench,
    },
    Command {
        name: "recover",
        usage: "\
cmpqos recover --journal <path> [--kind gac|lac] [--compact-every N]
             (rebuilds admission state from a write-ahead journal,
              tolerating a torn or corrupted tail: `gac` replays the
              journaled inputs of the global controller's cluster,
              `lac` restores a node's snapshot and replays its ops;
              --compact-every applies to `lac` only)",
        flags: &["journal", "kind", "compact-every"],
        run: cmd_recover,
    },
    Command {
        name: "conform",
        usage: "\
cmpqos conform [--scale N] [--work N] [--seed N] [--jobs N]
             [--only fig1,fig8a,...] [--inject broken-guard|stuck-knob|frozen-lease|starve-tier]
             (machine-checks every EXPERIMENTS.md shape verdict;
              exits nonzero if any check fails)",
        flags: &["scale", "work", "seed", "jobs", "only", "inject"],
        run: cmd_conform,
    },
    Command {
        name: "explore",
        usage: "\
cmpqos explore [--scenarios N] [--seed N] [--kind lac|intake|scheduler|batch|net|adapt|traffic|all]
             (differential explorer: random scenarios diffed against the
              reference oracles; on divergence prints a shrunken
              counterexample and a one-line repro, exits nonzero)",
        flags: &["scenarios", "seed", "kind"],
        run: cmd_explore,
    },
    Command {
        name: "traffic",
        usage: "\
cmpqos traffic [--spec <path.toml>] [--emit-toml] [--seed N] [--jobs N]
             (seeded traffic-DSL scenarios through the admission stack:
              per-tier exact p50/p95/p99/p999 admission latency,
              deadline-hit rate, shed breakdown and goodput; without
              --spec runs the standard four-scenario grid; --emit-toml
              prints the canonical TOML instead of running)",
        flags: &["spec", "emit-toml!", "seed", "jobs"],
        run: cmd_traffic,
    },
];

impl Command {
    /// The usage text, indented to sit under a `usage:` header.
    fn usage_lines(&self) -> String {
        format!("  {}", self.usage.replace('\n', "\n  "))
    }
}

fn usage() -> String {
    let lines: Vec<String> = COMMANDS.iter().map(Command::usage_lines).collect();
    format!(
        "usage:\n{}\n  (`cmpqos <command> --help` prints one command's usage)",
        lines.join("\n")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    if matches!(name.as_str(), "--help" | "-h" | "help") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
        eprintln!("error: unknown command `{name}`\n{}", usage());
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        println!("usage:\n{}", command.usage_lines());
        return ExitCode::SUCCESS;
    }
    let result = parse_flags(command, rest).and_then(|flags| (command.run)(&flags));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(e)) => {
            eprintln!("error: {e}\nusage:\n{}", command.usage_lines());
            ExitCode::from(2)
        }
        Err(Failure::Run(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses `--flag value` pairs and bare `--switch`es against the
/// command's flag table.
fn parse_flags(command: &Command, args: &[String]) -> Result<Flags, Failure> {
    let mut flags = Flags::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(Failure::Usage(format!("expected a --flag, got `{arg}`")));
        };
        let value = if command.flags.contains(&format!("{name}!").as_str()) {
            String::new()
        } else if command.flags.contains(&name) {
            match it.next() {
                Some(v) if !v.starts_with("--") => v.clone(),
                _ => return Err(Failure::Usage(format!("--{name} expects a value"))),
            }
        } else {
            return Err(Failure::Usage(format!(
                "unknown flag `{arg}` for `cmpqos {}`",
                command.name
            )));
        };
        flags.insert(name.to_string(), value);
    }
    Ok(flags)
}

fn usage_error(e: &str) -> Failure {
    Failure::Usage(e.to_string())
}

fn get_num(flags: &Flags, name: &str, default: u64) -> Result<u64, Failure> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| usage_error(&format!("--{name} expects a number, got `{v}`"))),
    }
}

fn cmd_list(_: &Flags) -> Result<(), Failure> {
    println!(
        "{:<12} {:<28} base CPI  mem/instr",
        "benchmark", "sensitivity"
    );
    for b in spec::all() {
        println!(
            "{:<12} {:<28} {:<8.2} {:.2}",
            b.name(),
            b.class().to_string(),
            b.profile().base_cpi(),
            b.profile().mem_ratio()
        );
    }
    Ok(())
}

fn cmd_solo(flags: &Flags) -> Result<(), Failure> {
    let bench = flags
        .get("bench")
        .ok_or(usage_error("--bench is required"))?;
    if spec::benchmark(bench).is_none() {
        return Err(Failure::Usage(format!(
            "unknown benchmark `{bench}` (try `cmpqos list`)"
        )));
    }
    let ways = get_num(flags, "ways", 7)? as u16;
    let params = experiment_params(flags)?;
    let (scale, work) = (params.scale, params.work.get());
    let s = cmpqos::workloads::calibrate::solo_run(
        bench,
        Ways::new(ways),
        params.work,
        scale,
        params.seed,
    );
    println!(
        "{bench} @ {ways} ways (scale 1/{scale}, {work} instr): \
         IPC {:.3}, CPI {:.3}, L2 miss rate {:.1}%, MPI {:.4}, {} cycles",
        s.ipc(),
        s.cpi(),
        s.perf.l2_miss_ratio() * 100.0,
        s.perf.mpi(),
        s.cycles.get()
    );
    Ok(())
}

fn cmd_run(flags: &Flags) -> Result<(), Failure> {
    let workload = match flags.get("workload").map(String::as_str) {
        Some("mix1") => WorkloadSpec::mix1(),
        Some("mix2") => WorkloadSpec::mix2(),
        Some(bench) if spec::benchmark(bench).is_some() => WorkloadSpec::single(bench, 10),
        Some(other) => return Err(usage_error(&format!("unknown workload `{other}`"))),
        None => return Err(usage_error("--workload is required")),
    };
    let configuration = match flags.get("config").map(String::as_str) {
        Some("all-strict") => Configuration::AllStrict,
        Some("hybrid1") => Configuration::Hybrid1,
        Some("hybrid2") => Configuration::Hybrid2 {
            slack: Percent::new(5.0),
        },
        Some("autodown") => Configuration::AllStrictAutoDown,
        Some("equalpart") => Configuration::EqualPart,
        Some(other) => return Err(usage_error(&format!("unknown config `{other}`"))),
        None => return Err(usage_error("--config is required")),
    };
    let cfg = RunConfig {
        workload,
        configuration,
        scale: get_num(flags, "scale", 8)?.max(1),
        work: Instructions::new(get_num(flags, "work", 800_000)?.max(1_000)),
        seed: get_num(flags, "seed", 1)?,
        stealing_enabled: true,
        steal_interval: None,
        events: flags.get("events").map(std::path::PathBuf::from),
    };
    let outcome = run(&cfg);
    println!("{}", outcome.label);
    println!(
        "  accepted {} of {} submissions; makespan {:.2} Mcycles",
        outcome.accepted.len(),
        outcome.submissions,
        outcome.makespan.as_f64() / 1e6
    );
    println!(
        "  deadline hit rate {:.0}%  (self-normalized throughput {:.2})",
        paper_hit_rate(&outcome) * 100.0,
        normalized_throughput(&outcome, &outcome)
    );
    if configuration.uses_admission_control() {
        println!("  LAC occupancy {:.4}%", lac_occupancy(&outcome) * 100.0);
    }
    for (mode, stats) in wall_clock_by_mode(&outcome) {
        println!(
            "  {mode:<14} {} job(s), wall-clock avg {:.2} Mcyc (min {:.2}, max {:.2})",
            stats.count(),
            stats.mean() / 1e6,
            stats.min().unwrap_or(0.0) / 1e6,
            stats.max().unwrap_or(0.0) / 1e6
        );
    }
    if let Some(path) = flags.get("json") {
        write_json(Path::new(path), &outcome).map_err(|e| e.to_string())?;
        println!("  raw results written to {path}");
    }
    Ok(())
}

fn cmd_bench(flags: &Flags) -> Result<(), Failure> {
    let params = experiment_params(flags)?;
    eprintln!(
        "benchmarking at scale 1/{}, {} instructions/job, seed {}, {} worker(s)...",
        params.scale,
        params.work.get(),
        params.seed,
        params.jobs
    );
    let report = cmpqos::experiments::bench::run(&params);

    println!(
        "{:<28} {:>6} {:>12} {:>12} {:>10} {:>9}",
        "experiment", "cells", "serial (ms)", "wall (ms)", "cells/s", "speedup"
    );
    for f in &report.figures {
        if let Some(e) = &f.error {
            println!("{:<28} FAILED: {e}", f.name);
        } else {
            println!(
                "{:<28} {:>6} {:>12.1} {:>12.1} {:>10.2} {:>8.2}x",
                f.name, f.cells, f.serial_ms, f.wall_ms, f.cells_per_sec, f.speedup
            );
        }
    }
    println!();
    println!(
        "{:<36} {:>6} {:>12} {:>14}",
        "component", "iters", "wall (ms)", "ns/iter"
    );
    for c in &report.components {
        println!(
            "{:<36} {:>6} {:>12.1} {:>14.0}",
            c.name, c.iters, c.wall_ms, c.ns_per_iter
        );
    }
    println!(
        "\noverall speedup at --jobs {}: {:.2}x (git {}, schema v{})",
        report.jobs,
        report.overall_speedup(),
        report.git_sha,
        report.schema_version
    );

    let out = flags
        .get("out")
        .map_or_else(|| report.default_filename(), std::path::PathBuf::from);
    write_json(&out, &report).map_err(|e| e.to_string())?;
    println!("report written to {}", out.display());
    Ok(())
}

/// Experiment parameters: `CMPQOS_*` environment defaults, overridden by
/// the command's flags.
fn experiment_params(flags: &Flags) -> Result<cmpqos::experiments::ExperimentParams, Failure> {
    let mut params = cmpqos::experiments::ExperimentParams::from_env();
    params.scale = get_num(flags, "scale", params.scale)?.max(1);
    params.work = Instructions::new(get_num(flags, "work", params.work.get())?.max(1_000));
    params.seed = get_num(flags, "seed", params.seed)?;
    if let Some(v) = flags.get("jobs") {
        let n: usize = v
            .parse()
            .map_err(|_| usage_error(&format!("--jobs expects a number, got `{v}`")))?;
        params.jobs = if n == 0 {
            cmpqos::engine::default_jobs()
        } else {
            n
        };
    }
    Ok(params)
}

fn cmd_conform(flags: &Flags) -> Result<(), Failure> {
    use cmpqos::testkit::conform::{self, Inject};

    let params = experiment_params(flags)?;
    let only: Vec<String> = flags
        .get("only")
        .map(|v| v.split(',').map(|s| s.trim().to_string()).collect())
        .unwrap_or_default();
    let inject = match flags.get("inject").map(String::as_str) {
        None => Inject::None,
        Some("broken-guard") => Inject::BrokenGuard,
        Some("stuck-knob") => Inject::StuckKnob,
        Some("frozen-lease") => Inject::FrozenLease,
        Some("starve-tier") => Inject::StarveTier,
        Some(other) => {
            return Err(usage_error(&format!(
                "unknown --inject `{other}` (expected broken-guard, stuck-knob, \
                 frozen-lease or starve-tier)"
            )))
        }
    };
    eprintln!(
        "conformance suite at scale 1/{}, {} instructions/job, seed {}, {} worker(s)...",
        params.scale,
        params.work.get(),
        params.seed,
        params.jobs
    );
    let report = conform::run(&params, &only, inject);
    print!("{}", report.render());
    if report.passed() {
        Ok(())
    } else {
        Err(Failure::Run("conformance checks failed".into()))
    }
}

fn cmd_explore(flags: &Flags) -> Result<(), Failure> {
    use cmpqos::testkit::scenario::{explore, ScenarioKind};

    let scenarios = get_num(flags, "scenarios", 50)?.max(1) as usize;
    let seed = get_num(flags, "seed", 1)?;
    let kinds: Vec<ScenarioKind> = match flags.get("kind").map(String::as_str) {
        None | Some("all") => ScenarioKind::ALL.to_vec(),
        Some(k) => vec![ScenarioKind::parse(k).ok_or_else(|| {
            usage_error(&format!(
                "unknown --kind `{k}` (expected lac|intake|scheduler|batch|net|adapt|traffic|all)"
            ))
        })?],
    };
    let report = explore(seed, scenarios, &kinds);
    match report.divergence {
        None => {
            println!(
                "{} scenario(s) explored ({}), no divergences from the reference oracles",
                report.scenarios_run,
                kinds
                    .iter()
                    .map(|k| k.as_str())
                    .collect::<Vec<_>>()
                    .join("+")
            );
            Ok(())
        }
        Some(d) => {
            println!("{}", d.render());
            Err(Failure::Run("divergence from the reference oracle".into()))
        }
    }
}

fn cmd_traffic(flags: &Flags) -> Result<(), Failure> {
    use cmpqos::experiments::traffic;
    use cmpqos::scenario::{emit_toml, parse_toml, run as run_scenario};

    let params = experiment_params(flags)?;
    let spec = match flags.get("spec") {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            Some(parse_toml(&text).map_err(|e| Failure::Run(format!("{path}: {e}")))?)
        }
        None => None,
    };
    if flags.contains_key("emit-toml") {
        // Canonical form: of the loaded spec, or of the grid's base
        // topology when no --spec was given.
        let spec =
            spec.unwrap_or_else(|| cmpqos::experiments::traffic::tiered_spec(params.seed, 200_000));
        print!("{}", emit_toml(&spec));
        return Ok(());
    }
    match spec {
        Some(spec) => {
            let report = run_scenario(&spec);
            println!("{}", traffic::render_report(&report));
        }
        None => {
            let reports = traffic::run(&params);
            traffic::print(&reports, &params);
        }
    }
    Ok(())
}

fn cmd_recover(flags: &Flags) -> Result<(), Failure> {
    use cmpqos::recovery::{JournaledCluster, JournaledLac, RecoveryReport};

    let path = flags
        .get("journal")
        .ok_or(usage_error("--journal is required"))?;
    let compact_every = get_num(flags, "compact-every", 64)?.max(1);
    let lac = match flags.get("kind").map_or("gac", String::as_str) {
        "gac" => false,
        "lac" => true,
        other => {
            return Err(usage_error(&format!(
                "unknown --kind `{other}` (expected gac|lac)"
            )))
        }
    };
    let jsonl = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;

    let describe = |report: &RecoveryReport| {
        println!(
            "recovered from {path}: replayed {} op(s), lost {} tail record(s){}",
            report.replayed,
            report.lost,
            if report.is_lossless() {
                ""
            } else {
                " (torn or corrupted tail truncated at the last valid checksum)"
            }
        );
    };
    if lac {
        let (lac, report) = JournaledLac::recover(&jsonl, compact_every);
        describe(&report);
        println!(
            "  local controller: {} active reservation(s), {} accepted lifetime, \
             journal at seq {}",
            lac.lac().reservations().len(),
            lac.lac().accepted(),
            lac.journal().next_seq()
        );
    } else {
        let (cluster, report) = JournaledCluster::recover(&jsonl);
        describe(&report);
        let gac = cluster.cluster().gac();
        println!(
            "  global controller: {} of {} node(s) live, {} active placement(s), \
             journal at seq {}",
            gac.live_nodes(),
            cluster.cluster().nodes(),
            gac.placements().len(),
            cluster.journal().next_seq()
        );
    }
    Ok(())
}
