//! Runs the chaos cell: the Fig. 7-flavoured admission workload on a
//! three-node in-process server (the GAC's cluster over a lossless,
//! zero-latency link) under a seeded fault schedule (plus a guaranteed
//! whole-node death halfway through). Prints the per-job survival table,
//! asserts that no reservation was silently stranded, and verifies the
//! run's event stream round-trips through JSONL back into an identical
//! `Timeline`.
//!
//! `--seeds a,b,c` replays the cell at several seeds; the independent
//! replays run on the `cmpqos-engine` pool (`--jobs N` / `CMPQOS_JOBS`
//! wide) and print in seed order regardless of the pool width.
//!
//! `--crash-at <cycle>` kills the admission controller mid-run and
//! recovers it from its write-ahead journal (`cmpqos-recovery`); the
//! printed survival table is byte-identical to an uncrashed run of the
//! same seed — CI diffs exactly that.
//!
//! `--net` switches to the message-layer cell: the GAC drives its LACs
//! over the seeded `cmpqos-net` simulator (lossy, duplicating,
//! reordering links), `--partition a:b@cycle` severs nodes `[a, b)`
//! mid-run and `--heal @cycle` restores them. The printed summary is
//! byte-identical across same-seed runs — CI diffs exactly that — and
//! `--inject drop-reconcile` sabotages the rejoin reconciliation so the
//! run must exit nonzero.
//!
//! `--churn` switches to the elastic-membership cell: a 100+-node
//! cluster over the same lossy network, churned by a seeded schedule of
//! joins, graceful drains and restarts (`--churn-events N`) plus hard
//! kills (`--kills N`), with every placement lease-backed by heartbeats.
//! `--seeds a,b,c` replays it across seeds on the engine pool (`--jobs
//! N` wide), byte-identically at any width — CI diffs exactly that —
//! and `--inject lease-freeze` suppresses lease renewals on two nodes
//! so the zero-expiry assert must fire.
//!
//! ```text
//! cargo run --release -p cmpqos-experiments --bin chaos -- --seed 1 --events chaos.jsonl
//! cargo run --release -p cmpqos-experiments --bin chaos -- --seeds 1,2,3,4 --jobs 4
//! cargo run --release -p cmpqos-experiments --bin chaos -- --seed 1 --crash-at 300000
//! cargo run --release -p cmpqos-experiments --bin chaos -- --net --nodes 100 \
//!     --partition 10:40@200000 --heal @350000
//! cargo run --release -p cmpqos-experiments --bin chaos -- --net --inject drop-reconcile
//! cargo run --release -p cmpqos-experiments --bin chaos -- --churn --nodes 104 --kills 2
//! cargo run --release -p cmpqos-experiments --bin chaos -- --churn --inject lease-freeze
//! ```
use cmpqos_experiments::chaos;
use cmpqos_obs::Timeline;
use cmpqos_types::Cycles;

/// `--seeds a,b,c` / `--seeds=a,b,c` (unknown flags are ignored, like
/// `ChaosParams::from_env_and_args`).
fn parse_seeds(args: &[String]) -> Option<Vec<u64>> {
    let mut it = args.iter();
    let mut seeds = None;
    while let Some(arg) = it.next() {
        let list = if arg == "--seeds" {
            it.next().cloned()
        } else {
            arg.strip_prefix("--seeds=").map(str::to_string)
        };
        if let Some(list) = list {
            let parsed: Vec<u64> = list
                .split(',')
                .filter_map(|s| s.trim().parse().ok())
                .collect();
            if !parsed.is_empty() {
                seeds = Some(parsed);
            }
        }
    }
    seeds
}

fn verify_roundtrip(outcome: &chaos::ChaosOutcome) {
    // The run must be fully reconstructible from its serialized event
    // log alone: serialize to JSONL, parse back, compare timelines.
    let jsonl: String = outcome
        .records
        .iter()
        .map(|r| serde_json::to_string(r).expect("events serialize") + "\n")
        .collect();
    let parsed = Timeline::from_jsonl(&jsonl).expect("events parse back");
    assert_eq!(
        parsed,
        outcome.timeline(),
        "JSONL round-trip must reproduce the timeline"
    );
    // stderr, not stdout: the CI recovery-smoke job diffs a crashed run's
    // stdout against an uncrashed same-seed run's, and the two event logs
    // legitimately differ by the crash/recovery marker records.
    eprintln!(
        "event log: {} records, round-trips through Timeline intact",
        outcome.records.len()
    );
}

/// `a:b@cycle` — the node range `[a, b)` and the cycle it is cut.
fn parse_partition(v: &str) -> Option<(u32, u32, Cycles)> {
    let (range, at) = v.split_once('@')?;
    let (a, b) = range.split_once(':')?;
    Some((
        a.trim().parse().ok()?,
        b.trim().parse().ok()?,
        Cycles::new(at.trim().parse().ok()?),
    ))
}

/// Builds [`chaos::NetChaosParams`] from the `--net` flag family
/// (unknown flags are ignored, like the classic-mode parser).
fn parse_net_params(args: &[String]) -> chaos::NetChaosParams {
    let mut p = chaos::NetChaosParams::standard();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut grab = |key: &str| -> Option<String> {
            if arg == key {
                it.next().cloned()
            } else {
                arg.strip_prefix(key)
                    .and_then(|rest| rest.strip_prefix('='))
                    .map(str::to_string)
            }
        };
        if let Some(v) = grab("--nodes") {
            if let Ok(n) = v.parse() {
                p.nodes = n;
            }
        } else if let Some(v) = grab("--jobs") {
            if let Ok(n) = v.parse() {
                p.jobs = n;
            }
        } else if let Some(v) = grab("--horizon") {
            if let Ok(n) = v.parse() {
                p.horizon = Cycles::new(n);
            }
        } else if let Some(v) = grab("--seed") {
            if let Ok(n) = v.parse() {
                p.seed = n;
            }
        } else if let Some(v) = grab("--partition") {
            p.partition = parse_partition(&v).or(p.partition);
        } else if let Some(v) = grab("--heal") {
            let at = v.trim();
            let at = at.strip_prefix('@').unwrap_or(at);
            if let Ok(n) = at.parse() {
                p.heal_at = Some(Cycles::new(n));
            }
        } else if let Some(v) = grab("--inject") {
            if v.trim() == "drop-reconcile" {
                p.drop_reconcile = true;
            }
        }
    }
    p
}

/// Builds [`chaos::ChurnParams`] from the `--churn` flag family
/// (unknown flags are ignored, like the other parsers).
fn parse_churn_params(args: &[String]) -> chaos::ChurnParams {
    let mut p = chaos::ChurnParams::standard();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut grab = |key: &str| -> Option<String> {
            if arg == key {
                it.next().cloned()
            } else {
                arg.strip_prefix(key)
                    .and_then(|rest| rest.strip_prefix('='))
                    .map(str::to_string)
            }
        };
        if let Some(v) = grab("--nodes") {
            if let Ok(n) = v.parse() {
                p.nodes = n;
            }
        } else if let Some(v) = grab("--horizon") {
            if let Ok(n) = v.parse() {
                p.horizon = Cycles::new(n);
            }
        } else if let Some(v) = grab("--seed") {
            if let Ok(n) = v.parse() {
                p.seed = n;
            }
        } else if let Some(v) = grab("--churn-events") {
            if let Ok(n) = v.parse() {
                p.churn_events = n;
            }
        } else if let Some(v) = grab("--kills") {
            if let Ok(n) = v.parse() {
                p.kills = n;
            }
        } else if let Some(v) = grab("--inject") {
            if v.trim() == "lease-freeze" {
                p.lease_freeze = true;
            }
        } else if arg == "--job-count" {
            // `--jobs` is the engine pool width for every cell, so the
            // churn stream length gets its own flag.
            if let Some(n) = it.next().and_then(|v| v.parse().ok()) {
                p.jobs = n;
            }
        } else if let Some(n) = arg
            .strip_prefix("--job-count=")
            .and_then(|v| v.parse().ok())
        {
            p.jobs = n;
        }
    }
    p
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--churn") {
        let params = parse_churn_params(&args);
        let seeds = parse_seeds(&args).unwrap_or_else(|| vec![params.seed]);
        let jobs = cmpqos_experiments::ExperimentParams::from_env()
            .with_args(&args)
            .jobs;
        let outcomes = chaos::run_churn_many(&params, &seeds, jobs);
        for (outcome, &seed) in outcomes.iter().zip(&seeds) {
            let mut p = params.clone();
            p.seed = seed;
            chaos::print_churn(outcome, &p);
        }
        return;
    }
    if args.iter().any(|a| a == "--net") {
        let p = parse_net_params(&args);
        let outcome = chaos::run_net(&p);
        chaos::print_net(&outcome, &p);
        return;
    }
    let params = chaos::ChaosParams::from_env_and_args();
    if let Some(seeds) = parse_seeds(&args) {
        let jobs = cmpqos_experiments::ExperimentParams::from_env()
            .with_args(&args)
            .jobs;
        let outcomes = chaos::run_many(&params, &seeds, jobs);
        for (outcome, &seed) in outcomes.iter().zip(&seeds) {
            let mut p = params.clone();
            p.seed = seed;
            chaos::print(outcome, &p);
            verify_roundtrip(outcome);
        }
        println!(
            "replayed {} seeds on {} worker(s); all runs accounted for every reservation",
            seeds.len(),
            jobs
        );
    } else {
        let outcome = chaos::run(&params, params.schedule());
        chaos::print(&outcome, &params);
        verify_roundtrip(&outcome);
    }
}
