//! Runs the chaos cell: the Fig. 7-flavoured admission workload on a
//! three-node in-process server (the GAC's cluster over a lossless,
//! zero-latency link) under a seeded fault schedule (plus a guaranteed
//! whole-node death halfway through). Prints the per-job survival table,
//! asserts that no reservation was silently stranded, and verifies the
//! run's event stream round-trips through JSONL back into an identical
//! `Timeline`.
//!
//! Each mode declares its own flags (`chaos --help`, `chaos --net
//! --help`, `chaos --churn --help`); a flag the mode does not use is a
//! usage error (exit 2). In every mode `--jobs` is the engine pool width
//! and `--job-count` the length of the job stream.
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
use cmpqos_experiments::chaos;
use cmpqos_experiments::cli::{self, Command, Flag, Value};
use cmpqos_experiments::params::{EVENTS, JOBS, SEED};
use cmpqos_experiments::ExperimentParams;
use cmpqos_obs::Timeline;
use cmpqos_types::Cycles;

const SEEDS: Flag = Flag::new("seeds", Value::Numbers, "replay at each seed, on the pool");
/// A count that fits the `u32` fields it sets (and so any `usize`).
const COUNT: Value = Value::Checked("N", |v| v.parse::<u32>().is_ok());
const NODES: Flag = Flag::new("nodes", COUNT, "cluster size");
const JOB_COUNT: Flag = Flag::new("job-count", COUNT, "jobs in the arrival stream");
const HORIZON: Flag = Flag::new("horizon", Value::Number, "nominal run length (cycles)");
const CRASH_AT: Flag = Flag::new("crash-at", Value::Number, "crash and replay the controller");
const PARTITION: Value = Value::Checked("a:b@cycle", |v| parse_partition(v).is_some());
const HEAL: Value = Value::Checked("@cycle", |v| parse_heal(v).is_some());

const CLASSIC: Command = Command {
    name: "chaos",
    about: "Three nodes, one killed mid-run. `--net`/`--churn` select the other cells.",
    flags: &[SEED, SEEDS, JOBS, EVENTS, CRASH_AT],
};

const NET: Command = Command {
    name: "chaos",
    about: "Message-layer cell: a lossy network, a partition and a heal.",
    flags: &[
        Flag::new("net", Value::Switch, "the message-layer cell").required(),
        SEED,
        NODES,
        JOB_COUNT,
        HORIZON,
        Flag::new("partition", PARTITION, "sever nodes [a, b) at the cycle"),
        Flag::new("heal", HEAL, "restore them at the cycle"),
        Flag::new(
            "inject",
            Value::OneOf(&["drop-reconcile"]),
            "must-fail sabotage",
        ),
    ],
};

const CHURN: Command = Command {
    name: "chaos",
    about: "Elastic-membership cell: lease-backed nodes, joins, drains, restarts, kills.",
    flags: &[
        Flag::new("churn", Value::Switch, "the elastic-membership cell").required(),
        SEED,
        SEEDS,
        JOBS,
        NODES,
        JOB_COUNT,
        HORIZON,
        Flag::new("churn-events", COUNT, "seeded membership operations"),
        Flag::new("kills", COUNT, "hard node deaths"),
        Flag::new(
            "inject",
            Value::OneOf(&["lease-freeze"]),
            "must-fail sabotage",
        ),
    ],
};

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

/// `@cycle` (or a bare `cycle`).
fn parse_heal(v: &str) -> Option<Cycles> {
    let at = v.trim();
    Some(Cycles::new(
        at.strip_prefix('@').unwrap_or(at).parse().ok()?,
    ))
}

fn main() {
    let argv = cli::args();
    if argv.iter().any(|a| a == "--churn") {
        let args = cli::parse(&CHURN, &argv);
        let mut params = chaos::ChurnParams::standard();
        params.seed = args.num(SEED.name).unwrap_or(params.seed);
        params.nodes = args.num(NODES.name).map_or(params.nodes, |n| n as _);
        params.jobs = args.num(JOB_COUNT.name).map_or(params.jobs, |n| n as _);
        params.horizon = args.num(HORIZON.name).map_or(params.horizon, Cycles::new);
        params.churn_events = args
            .num("churn-events")
            .map_or(params.churn_events, |n| n as _);
        params.kills = args.num("kills").map_or(params.kills, |n| n as _);
        params.lease_freeze = args.has("inject");
        let seeds = args.nums(SEEDS.name).unwrap_or_else(|| vec![params.seed]);
        let jobs = ExperimentParams::from_args(&args).jobs;
        let outcomes = chaos::run_churn_many(&params, &seeds, jobs);
        for (outcome, &seed) in outcomes.iter().zip(&seeds) {
            let mut p = params.clone();
            p.seed = seed;
            chaos::print_churn(outcome, &p);
        }
        return;
    }
    if argv.iter().any(|a| a == "--net") {
        let args = cli::parse(&NET, &argv);
        let mut p = chaos::NetChaosParams::standard();
        p.seed = args.num(SEED.name).unwrap_or(p.seed);
        p.nodes = args.num(NODES.name).map_or(p.nodes, |n| n as _);
        p.jobs = args.num(JOB_COUNT.name).map_or(p.jobs, |n| n as _);
        p.horizon = args.num(HORIZON.name).map_or(p.horizon, Cycles::new);
        p.partition = args.text("partition").map_or(p.partition, parse_partition);
        p.heal_at = args.text("heal").map_or(p.heal_at, parse_heal);
        p.drop_reconcile = args.has("inject");
        let outcome = chaos::run_net(&p);
        chaos::print_net(&outcome, &p);
        return;
    }
    let args = cli::parse(&CLASSIC, &argv);
    let mut params = chaos::ChaosParams::standard();
    params.seed = args.num(SEED.name).unwrap_or(params.seed);
    params.events = args.path(EVENTS.name);
    params.crash_at = args.num(CRASH_AT.name).map(Cycles::new);
    if let Some(seeds) = args.nums(SEEDS.name) {
        let jobs = ExperimentParams::from_args(&args).jobs;
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
