//! `cmpqos` — the command-line front end to the framework.
//!
//! ```text
//! cmpqos list
//! cmpqos solo --bench bzip2 --ways 7 [--scale 8] [--work 800000]
//! cmpqos run --workload gobmk|mix1|mix2 --config all-strict|hybrid1|hybrid2|autodown|equalpart
//!            [--scale 8] [--work 800000] [--seed 1] [--json out.json]
//! cmpqos bench [--jobs N] [--scale 8] [--work 800000] [--seed 1] [--out BENCH.json]
//! ```
//!
//! A thin, dependency-free argument parser over the library API — also the
//! fifth example application of the public interface.

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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(&args[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "list" => cmd_list(),
        "solo" => cmd_solo(&flags),
        "run" => cmd_run(&flags),
        "bench" => cmd_bench(&flags),
        "recover" => cmd_recover(&flags),
        "conform" => cmd_conform(&flags),
        "explore" => cmd_explore(&flags),
        "traffic" => cmd_traffic(&flags),
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  cmpqos list
  cmpqos solo  --bench <name> [--ways N] [--scale N] [--work N] [--seed N]
  cmpqos run   --workload <bench|mix1|mix2> --config <all-strict|hybrid1|hybrid2|autodown|equalpart>
               [--scale N] [--work N] [--seed N] [--json <path>] [--events <path>]
  cmpqos bench [--jobs N] [--scale N] [--work N] [--seed N] [--out <path>]
               (times figure/table cells serial vs parallel plus component
                micro-benchmarks; writes a schema-versioned BENCH_<git-sha>.json)
  cmpqos recover --journal <path> [--kind gac|lac] [--compact-every N]
               (rebuilds admission state from a write-ahead journal,
                tolerating a torn or corrupted tail: `gac` replays the
                journaled inputs of the global controller's cluster,
                `lac` restores a node's snapshot and replays its ops;
                --compact-every applies to `lac` only)
  cmpqos conform [--scale N] [--work N] [--seed N] [--jobs N]
               [--only fig1,fig8a,...] [--inject broken-guard|stuck-knob|frozen-lease|starve-tier]
               (machine-checks every EXPERIMENTS.md shape verdict;
                exits nonzero if any check fails)
  cmpqos explore [--scenarios N] [--seed N] [--kind lac|intake|scheduler|batch|net|adapt|traffic|all]
               (differential explorer: random scenarios diffed against the
                reference oracles; on divergence prints a shrunken
                counterexample and a one-line repro, exits nonzero)
  cmpqos traffic [--spec <path.toml>] [--emit-toml] [--seed N] [--jobs N]
               (seeded traffic-DSL scenarios through the admission stack:
                per-tier exact p50/p95/p99/p999 admission latency,
                deadline-hit rate, shed breakdown and goodput; without
                --spec runs the standard four-scenario grid; --emit-toml
                prints the canonical TOML instead of running)";

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected a --flag, got `{key}`"));
        };
        // A flag followed by another flag (or nothing) is a bare boolean
        // switch, e.g. `--emit-toml`; its presence is its value.
        let value = match it.peek() {
            Some(next) if !next.starts_with("--") => it.next().cloned().unwrap_or_default(),
            _ => String::new(),
        };
        flags.insert(name.to_string(), value);
    }
    Ok(flags)
}

fn get_num(flags: &HashMap<String, String>, name: &str, default: u64) -> Result<u64, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name} expects a number, got `{v}`")),
    }
}

fn cmd_list() -> Result<(), String> {
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

fn cmd_solo(flags: &HashMap<String, String>) -> Result<(), String> {
    let bench = flags.get("bench").ok_or("--bench is required")?;
    if spec::benchmark(bench).is_none() {
        return Err(format!("unknown benchmark `{bench}` (try `cmpqos list`)"));
    }
    let ways = get_num(flags, "ways", 7)? as u16;
    let scale = get_num(flags, "scale", 8)?.max(1);
    let work = get_num(flags, "work", 800_000)?.max(1_000);
    let seed = get_num(flags, "seed", 1)?;
    let s = cmpqos::workloads::calibrate::solo_run(
        bench,
        Ways::new(ways),
        Instructions::new(work),
        scale,
        seed,
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

fn cmd_run(flags: &HashMap<String, String>) -> Result<(), String> {
    let workload = match flags.get("workload").map(String::as_str) {
        Some("mix1") => WorkloadSpec::mix1(),
        Some("mix2") => WorkloadSpec::mix2(),
        Some(bench) if spec::benchmark(bench).is_some() => WorkloadSpec::single(bench, 10),
        Some(other) => return Err(format!("unknown workload `{other}`")),
        None => return Err("--workload is required".into()),
    };
    let configuration = match flags.get("config").map(String::as_str) {
        Some("all-strict") => Configuration::AllStrict,
        Some("hybrid1") => Configuration::Hybrid1,
        Some("hybrid2") => Configuration::Hybrid2 {
            slack: Percent::new(5.0),
        },
        Some("autodown") => Configuration::AllStrictAutoDown,
        Some("equalpart") => Configuration::EqualPart,
        Some(other) => return Err(format!("unknown config `{other}`")),
        None => return Err("--config is required".into()),
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

fn cmd_bench(flags: &HashMap<String, String>) -> Result<(), String> {
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

fn experiment_params(
    flags: &HashMap<String, String>,
) -> Result<cmpqos::experiments::ExperimentParams, String> {
    let mut params = cmpqos::experiments::ExperimentParams::from_env();
    params.scale = get_num(flags, "scale", params.scale)?.max(1);
    params.work = Instructions::new(get_num(flags, "work", params.work.get())?.max(1_000));
    params.seed = get_num(flags, "seed", params.seed)?;
    if let Some(v) = flags.get("jobs") {
        let n: usize = v
            .parse()
            .map_err(|_| format!("--jobs expects a number, got `{v}`"))?;
        params.jobs = if n == 0 {
            cmpqos::engine::default_jobs()
        } else {
            n
        };
    }
    Ok(params)
}

fn cmd_conform(flags: &HashMap<String, String>) -> Result<(), String> {
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
            return Err(format!(
                "unknown --inject `{other}` (expected broken-guard, stuck-knob, \
                 frozen-lease or starve-tier)"
            ))
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
        Err("conformance checks failed".into())
    }
}

fn cmd_explore(flags: &HashMap<String, String>) -> Result<(), String> {
    use cmpqos::testkit::scenario::{explore, ScenarioKind};

    let scenarios = get_num(flags, "scenarios", 50)?.max(1) as usize;
    let seed = get_num(flags, "seed", 1)?;
    let kinds: Vec<ScenarioKind> = match flags.get("kind").map(String::as_str) {
        None | Some("all") => ScenarioKind::ALL.to_vec(),
        Some(k) => vec![ScenarioKind::parse(k).ok_or_else(|| {
            format!(
                "unknown --kind `{k}` (expected lac|intake|scheduler|batch|net|adapt|traffic|all)"
            )
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
            Err("divergence from the reference oracle".into())
        }
    }
}

fn cmd_traffic(flags: &HashMap<String, String>) -> Result<(), String> {
    use cmpqos::experiments::traffic;
    use cmpqos::scenario::{emit_toml, parse_toml, run as run_scenario};

    let params = experiment_params(flags)?;
    let spec = match flags.get("spec") {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            Some(parse_toml(&text).map_err(|e| format!("{path}: {e}"))?)
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

fn cmd_recover(flags: &HashMap<String, String>) -> Result<(), String> {
    use cmpqos::recovery::{JournaledCluster, JournaledLac, RecoveryReport};

    let path = flags.get("journal").ok_or("--journal is required")?;
    let compact_every = get_num(flags, "compact-every", 64)?.max(1);
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
    match flags.get("kind").map(String::as_str).unwrap_or("gac") {
        "gac" => {
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
        "lac" => {
            let (lac, report) = JournaledLac::recover(&jsonl, compact_every);
            describe(&report);
            println!(
                "  local controller: {} active reservation(s), {} accepted lifetime, \
                 journal at seq {}",
                lac.lac().reservations().len(),
                lac.lac().accepted(),
                lac.journal().next_seq()
            );
        }
        other => return Err(format!("unknown --kind `{other}` (expected gac|lac)")),
    }
    Ok(())
}
