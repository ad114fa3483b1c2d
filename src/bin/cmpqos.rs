//! `cmpqos` — the command-line front end to the framework, and the fifth
//! example application of the public interface.
//!
//! Each subcommand declares its flags in a `cmpqos_experiments::cli`
//! table: `cmpqos --help` lists the subcommands, `cmpqos <command> --help`
//! prints one's flags without running it, and an unknown flag or a
//! missing or malformed value exits 2 with that usage.

use cmpqos::experiments::cli::{self, Args, Command, Flag, Value};
use cmpqos::experiments::json::write_json;
use cmpqos::experiments::params::{EVENTS, JOBS, SCALE, SEED, WORK};
use cmpqos::experiments::ExperimentParams;
use cmpqos::trace::spec;
use cmpqos::types::Percent;
use cmpqos::workloads::metrics::{
    lac_occupancy, normalized_throughput, paper_hit_rate, wall_clock_by_mode,
};
use cmpqos::workloads::runner::run;
use cmpqos::workloads::{Configuration, WorkloadSpec};
use std::path::Path;
use std::process::ExitCode;

/// A subcommand: its flag table and its body, which fails (exit 1) only
/// at run time: the table has already checked every value.
struct Subcommand {
    command: Command,
    run: fn(&Args) -> Result<(), String>,
}

const CONFIGS: Value = Value::OneOf(&["all-strict", "hybrid1", "hybrid2", "autodown", "equalpart"]);
const INJECTIONS: Value =
    Value::OneOf(&["broken-guard", "stuck-knob", "frozen-lease", "starve-tier"]);
const KINDS: Value = Value::OneOf(&[
    "lac",
    "intake",
    "scheduler",
    "batch",
    "net",
    "adapt",
    "traffic",
    "all",
]);
const PATH: Value = Value::Text("<path>");
const WAYS: Value = Value::Checked("N", |w| w.parse::<u16>().is_ok());
const SCENARIOS: Value = Value::Checked("N", |n| n.parse::<usize>().is_ok());
const BENCH: Value = Value::Checked("<name>", |b| spec::benchmark(b).is_some());
const WORKLOAD: Value = Value::Checked("<bench|mix1|mix2>", |w| {
    matches!(w, "mix1" | "mix2") || spec::benchmark(w).is_some()
});

const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand {
        command: Command {
            name: "cmpqos list",
            about: "Lists the synthetic benchmarks.",
            flags: &[],
        },
        run: cmd_list,
    },
    Subcommand {
        command: Command {
            name: "cmpqos solo",
            about: "Runs one benchmark alone at a fixed L2 allocation.",
            flags: &[
                Flag::new("bench", BENCH, "benchmark (see `list`)").required(),
                Flag::new("ways", WAYS, "L2 ways (7)"),
                SCALE,
                WORK,
                SEED,
            ],
        },
        run: cmd_solo,
    },
    Subcommand {
        command: Command {
            name: "cmpqos run",
            about: "Runs a workload (ten jobs of a benchmark, or a mix) under one configuration.",
            flags: &[
                Flag::new("workload", WORKLOAD, "ten jobs of a benchmark, or a mix").required(),
                Flag::new("config", CONFIGS, "QoS configuration").required(),
                SCALE,
                WORK,
                SEED,
                Flag::new("json", PATH, "write the raw outcome as JSON"),
                EVENTS,
            ],
        },
        run: cmd_run,
    },
    Subcommand {
        command: Command {
            name: "cmpqos bench",
            about: "Times figures serial vs parallel and components; writes BENCH_<git-sha>.json.",
            flags: &[
                JOBS,
                SCALE,
                WORK,
                SEED,
                Flag::new("out", PATH, "report path"),
            ],
        },
        run: cmd_bench,
    },
    Subcommand {
        command: Command {
            name: "cmpqos recover",
            about: "Rebuilds admission state from a write-ahead journal, torn tail or not.",
            flags: &[
                Flag::new("journal", PATH, "journal to recover").required(),
                Flag::new("kind", Value::OneOf(&["gac", "lac"]), "journal kind (gac)"),
                Flag::new("compact-every", Value::Number, "`lac` snapshot period (64)"),
            ],
        },
        run: cmd_recover,
    },
    Subcommand {
        command: Command {
            name: "cmpqos conform",
            about: "Machine-checks every EXPERIMENTS.md shape verdict; exits 1 on a failure.",
            flags: &[
                SCALE,
                WORK,
                SEED,
                JOBS,
                Flag::new("only", Value::Text("<check,...>"), "run only these"),
                Flag::new("inject", INJECTIONS, "must-fail sabotage"),
            ],
        },
        run: cmd_conform,
    },
    Subcommand {
        command: Command {
            name: "cmpqos explore",
            about: "Diffs random scenarios against the reference oracles (exit 1 on a divergence).",
            flags: &[
                Flag::new("scenarios", SCENARIOS, "count (50)"),
                SEED,
                Flag::new("kind", KINDS, "scenario kind (all)"),
            ],
        },
        run: cmd_explore,
    },
    Subcommand {
        command: Command {
            name: "cmpqos traffic",
            about: "Per-tier latency percentiles of seeded traffic-DSL scenarios.",
            flags: &[
                Flag::new("spec", Value::Text("<path.toml>"), "one scenario"),
                Flag::new("emit-toml", Value::Switch, "print its canonical TOML"),
                SEED,
                JOBS,
            ],
        },
        run: cmd_traffic,
    },
];

fn usage() -> String {
    let lines: Vec<String> = SUBCOMMANDS
        .iter()
        .map(|s| format!("  {}", s.command.synopsis()))
        .collect();
    format!(
        "usage:\n{}\n  (`cmpqos <command> --help` prints one command's usage)",
        lines.join("\n")
    )
}

fn main() -> ExitCode {
    let args = cli::args();
    let Some(name) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    if matches!(name.as_str(), "--help" | "-h" | "help") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let Some(sub) = SUBCOMMANDS
        .iter()
        .find(|s| s.command.name.strip_prefix("cmpqos ") == Some(name))
    else {
        eprintln!("error: unknown command `{name}`\n{}", usage());
        return ExitCode::from(2);
    };
    let flags = cli::parse(&sub.command, &args[1..]);
    match (sub.run)(&flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_list(_: &Args) -> Result<(), String> {
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

fn cmd_solo(args: &Args) -> Result<(), String> {
    let bench = args.text("bench").unwrap_or_default();
    // The table admits only `u16` ways and `usize` scenario counts.
    let ways = args.num("ways").map_or(7, |w| w as u16);
    let params = ExperimentParams::from_args(args);
    let (scale, work) = (params.scale, params.work.get());
    let s = params.solo(bench, ways);
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

fn cmd_run(args: &Args) -> Result<(), String> {
    let workload = match args.text("workload").unwrap_or_default() {
        "mix1" => WorkloadSpec::mix1(),
        "mix2" => WorkloadSpec::mix2(),
        bench => WorkloadSpec::single(bench, 10),
    };
    let configuration = match args.text("config").unwrap_or_default() {
        "all-strict" => Configuration::AllStrict,
        "hybrid1" => Configuration::Hybrid1,
        "hybrid2" => Configuration::Hybrid2 {
            slack: Percent::new(5.0),
        },
        "autodown" => Configuration::AllStrictAutoDown,
        "equalpart" => Configuration::EqualPart,
        other => unreachable!("--config `{other}` passed the flag table"),
    };
    let outcome = run(&ExperimentParams::from_args(args).run_config(workload, configuration));
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
    if let Some(path) = args.text("json") {
        write_json(Path::new(path), &outcome).map_err(|e| e.to_string())?;
        println!("  raw results written to {path}");
    }
    Ok(())
}

fn cmd_bench(args: &Args) -> Result<(), String> {
    let params = ExperimentParams::from_args(args);
    eprintln!("benchmarking at {params}, {} worker(s)...", params.jobs);
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
        "{:<36} {:>8} {:>12} {:>14}",
        "component", "iters", "wall (ms)", "ns/iter"
    );
    for c in &report.components {
        println!(
            "{:<36} {:>8} {:>12.1} {:>14.0}",
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

    let out = args
        .path("out")
        .unwrap_or_else(|| report.default_filename());
    write_json(&out, &report).map_err(|e| e.to_string())?;
    println!("report written to {}", out.display());
    Ok(())
}

fn cmd_conform(args: &Args) -> Result<(), String> {
    use cmpqos::testkit::conform::{self, Inject};

    let params = ExperimentParams::from_args(args);
    let only: Vec<String> = args
        .text("only")
        .map(|v| v.split(',').map(|s| s.trim().to_string()).collect())
        .unwrap_or_default();
    let inject = match args.text("inject") {
        None => Inject::None,
        Some("broken-guard") => Inject::BrokenGuard,
        Some("stuck-knob") => Inject::StuckKnob,
        Some("frozen-lease") => Inject::FrozenLease,
        Some("starve-tier") => Inject::StarveTier,
        Some(other) => unreachable!("--inject `{other}` passed the flag table"),
    };
    eprintln!(
        "conformance suite at {params}, {} worker(s)...",
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

fn cmd_explore(args: &Args) -> Result<(), String> {
    use cmpqos::testkit::scenario::{explore, ScenarioKind};

    let scenarios = args.num("scenarios").map_or(50, |n| n as usize).max(1);
    let seed = args.num("seed").unwrap_or(1);
    let kinds: Vec<ScenarioKind> = match args.text("kind") {
        None | Some("all") => ScenarioKind::ALL.to_vec(),
        Some(k) => vec![ScenarioKind::parse(k).expect("checked by the flag table")],
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

fn cmd_traffic(args: &Args) -> Result<(), String> {
    use cmpqos::experiments::traffic;
    use cmpqos::scenario::{emit_toml, parse_toml, run as run_scenario};

    let params = ExperimentParams::from_args(args);
    let spec = match args.text("spec") {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            Some(parse_toml(&text).map_err(|e| format!("{path}: {e}"))?)
        }
        None => None,
    };
    if args.has("emit-toml") {
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

fn cmd_recover(args: &Args) -> Result<(), String> {
    use cmpqos::recovery::{JournaledCluster, JournaledLac, RecoveryReport};

    let path = args.text("journal").unwrap_or_default();
    let compact_every = args.num("compact-every").unwrap_or(64).max(1);
    let lac = args.text("kind") == Some("lac");
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
