//! The simulator workloads: one paper cell per benchmark cell, driven
//! through the same public calls `cmpqos_workloads::runner::run` makes, so
//! its outcome must equal `runner::run`'s on the same `RunConfig`.
//!
//! Set-up (timed as `setup_s`) is every calibration solo run, the scaled
//! trace profiles and the scheduler or node. The timed phase is the
//! open-loop arrival stream plus the run to completion.

use crate::layers::{recorder, timed, Probe, TracedSource};
use crate::{Cell, CellStats};
use cmpqos_core::{
    Decision, ExecutionMode, JobReport, QosJob, QosScheduler, ResourceRequest, SchedulerConfig,
    StealingConfig,
};
use cmpqos_system::{CmpNode, Placement, SystemConfig, TaskSpec};
use cmpqos_trace::{spec, BenchmarkProfile, TraceSource};
use cmpqos_types::{Cycles, Instructions, JobId, Percent, Ways};
use cmpqos_workloads::arrivals::ArrivalStream;
use cmpqos_workloads::calibrate::Calibrator;
use cmpqos_workloads::deadlines::{assign_classes, DeadlineClass};
use cmpqos_workloads::runner::{AcceptedJob, RunConfig, RunOutcome};
use cmpqos_workloads::{Configuration, WorkloadSpec};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Geometry scale of both simulator workloads (the paper's node shrunk
/// 8x; way-granular behaviour is unchanged).
pub const SCALE: u64 = 8;

/// Table 3 Mix-1 under Hybrid-2 with stealing.
pub fn mix_config(seed: u64, work: u64) -> RunConfig {
    let mut cfg = RunConfig::new(
        WorkloadSpec::mix1(),
        Configuration::Hybrid2 {
            slack: Percent::new(cmpqos_workloads::configs::HYBRID2_SLACK),
        },
    );
    cfg.scale = SCALE;
    cfg.work = Instructions::new(work);
    cfg.seed = seed;
    cfg
}

/// Ten `libquantum` jobs under EqualPart.
pub fn stream_config(seed: u64, work: u64) -> RunConfig {
    let mut cfg = RunConfig::new(
        WorkloadSpec::single("libquantum", 10),
        Configuration::EqualPart,
    );
    cfg.scale = SCALE;
    cfg.work = Instructions::new(work);
    cfg.seed = seed;
    cfg
}

/// Runs one cell and reduces its runner-compatible outcome to the cell's
/// statistics and digest.
pub fn run_cell(cfg: &RunConfig, probe: Option<&Arc<Probe>>) -> Cell {
    let (outcome, first_submission, setup_s, timed_s) = match cfg.configuration {
        Configuration::EqualPart => run_equal_part(cfg, probe),
        _ => run_qos(cfg, probe),
    };
    let mut stats = CellStats {
        ops: outcome
            .accepted
            .iter()
            .map(|j| j.report.perf.instructions().get())
            .sum(),
        offered: outcome.submissions,
        admitted: outcome.accepted.len() as u64,
        makespan: outcome.makespan.get(),
        ..CellStats::default()
    };
    // The paper's Fig. 6 measure (`metrics::paper_hit_rate`): reserved jobs
    // under admission control, every job under EqualPart.
    let reserved_only = cfg.configuration.uses_admission_control();
    for j in &outcome.accepted {
        if reserved_only && !j.report.job.mode.reserves_resources() {
            continue;
        }
        stats.deadline_total += 1;
        stats.deadline_hits += u64::from(j.report.met_deadline());
    }
    for j in &outcome.accepted {
        match j.report.finished {
            Some(end) => stats
                .latency
                .push(end.get().saturating_sub(first_submission[j.slot])),
            None => stats.failed += cfg.work.get(),
        }
    }
    count(&mut stats, &outcome.accepted, outcome.lac_tests);
    Cell {
        setup_s,
        timed_s,
        peak_heap_mib: 0.0,
        digest: crate::digest(&outcome),
        stats,
    }
}

/// The reference outcome digest: `runner::run` on the same configuration.
pub fn reference_digest(cfg: &RunConfig) -> u64 {
    crate::digest(&cmpqos_workloads::runner::run(cfg))
}

/// Adds the accepted jobs' simulated counters to `stats`.
fn count(stats: &mut CellStats, accepted: &[AcceptedJob], admission_tests: u64) {
    stats.count("lac.admission_tests", admission_tests);
    for j in accepted {
        let p = &j.report.perf;
        stats.count("cache.l1_accesses", p.l1_accesses());
        stats.count("cache.l2_accesses", p.l2_accesses());
        stats.count("cache.l2_misses", p.l2_misses());
        stats.count("cpu.instructions", p.instructions().get());
        stats.count("cpu.base_cycles", p.base_cycles().get());
        stats.count("cpu.l2_stall_cycles", p.l2_stall_cycles().get());
        stats.count("cpu.mem_stall_cycles", p.mem_stall_cycles().get());
        if let Some(s) = j.report.steal {
            stats.count("stealing.ways_stolen", u64::from(s.max_stolen.get()));
            stats.count("stealing.intervals", s.intervals);
            stats.count("stealing.cancelled", u64::from(s.cancelled));
        }
    }
}

/// `runner`'s timeslice rule: about 100 quanta per job at ~2.5 CPI.
fn scale_timeslice(system: &mut SystemConfig, work: Instructions) {
    let quantum = (work.get() * 25 / 1_000).max(5_000);
    system.timeslice = Cycles::new(quantum);
    system.context_switch_cost = Cycles::new((quantum / 100).max(100));
}

/// Calibrates every benchmark of the workload and scales its profile.
fn prepare(
    cfg: &RunConfig,
    probe: Option<&Arc<Probe>>,
) -> (Calibrator, BTreeMap<String, BenchmarkProfile>) {
    let mut cal = Calibrator::new(cfg.scale, cfg.work);
    let mut profiles = BTreeMap::new();
    for slot in cfg.workload.slots() {
        if profiles.contains_key(&slot.bench) {
            continue;
        }
        // A fresh calibrator: each first `tw` of a benchmark is a solo run.
        let _ = timed(probe, |p| &p.calibrate, || cal.tw(&slot.bench));
        let profile = spec::scaled(&slot.bench, cfg.scale)
            .unwrap_or_else(|| panic!("unknown benchmark {}", slot.bench));
        profiles.insert(slot.bench.clone(), profile);
    }
    (cal, profiles)
}

/// The trace of submission `submission`, seeded as `runner` seeds it.
fn trace(
    cfg: &RunConfig,
    profile: &BenchmarkProfile,
    submission: u32,
    probe: Option<&Arc<Probe>>,
) -> Box<dyn TraceSource> {
    let seed = cfg
        .seed
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(u64::from(submission));
    let source: Box<dyn TraceSource> =
        Box::new(profile.instantiate(seed, u64::from(submission + 1) << 36));
    match probe {
        Some(p) => Box::new(TracedSource::new(source, p)),
        None => source,
    }
}

/// A cell's outcome, each slot's first submission cycle, and its set-up
/// and timed host seconds.
type CellParts = (RunOutcome, Vec<u64>, f64, f64);

fn run_qos(cfg: &RunConfig, probe: Option<&Arc<Probe>>) -> CellParts {
    let setup = Instant::now();
    let n = cfg.workload.len();
    let (mut cal, profiles) = prepare(cfg, probe);
    let classes = assign_classes(n, cfg.seed);
    let mut system = SystemConfig::paper_scaled(cfg.scale);
    scale_timeslice(&mut system, cfg.work);
    let cores = system.num_cores as u64;
    let interval = cfg
        .steal_interval
        .unwrap_or(Instructions::new((cfg.work.get() / 100).max(1_000)));
    let sched_cfg = SchedulerConfig::builder()
        .auto_downgrade(cfg.configuration.auto_downgrade())
        .stealing_enabled(cfg.stealing_enabled)
        .stealing(StealingConfig::builder().interval(interval).build())
        .build();
    let label = format!("{} / {}", cfg.workload.name(), cfg.configuration);
    let mut sched = QosScheduler::with_recorder(system, sched_cfg, recorder(probe));
    let tw0 = cal.tw(&cfg.workload.slots()[0].bench);
    let mut arrivals = ArrivalStream::paper_rate(tw0, cores, cfg.seed);
    let setup_s = setup.elapsed().as_secs_f64();

    let timed_phase = Instant::now();
    let mut accepted: Vec<(usize, JobId, String, DeadlineClass)> = Vec::with_capacity(n);
    let mut first_submission = vec![0u64; n];
    let mut submission: u32 = 0;
    let mut rejections_for_slot: u32 = 0;
    while accepted.len() < n {
        assert!(
            rejections_for_slot < 50_000,
            "admission livelock on slot {}",
            accepted.len()
        );
        let slot = accepted.len();
        let template = &cfg.workload.slots()[slot];
        let mode = match template.role {
            Some(role) => cfg.configuration.apply_to_role(role),
            None => cfg.configuration.mode_for_slot(slot),
        };
        let ta = arrivals.next_arrival();
        timed(probe, |p| &p.sched_run, || sched.run_until(ta));
        if rejections_for_slot == 0 {
            first_submission[slot] = ta.get();
        }
        let tw = cal.tw(&template.bench);
        let class = classes[slot];
        let deadline = match mode {
            ExecutionMode::Opportunistic => None,
            _ => {
                let mut td = class.deadline(ta, tw);
                if let ExecutionMode::Elastic(x) = mode {
                    td = td.max(ta + tw.scale((1.0 + x.fraction()) * 1.02));
                }
                Some(td)
            }
        };
        let id = JobId::new(submission);
        let mut builder = QosJob::with_mode(id, mode, ResourceRequest::paper_job())
            .work(cfg.work)
            .max_wall_clock(tw);
        if let Some(td) = deadline {
            builder = builder.deadline(td);
        }
        let source = trace(cfg, &profiles[&template.bench], submission, probe);
        let d = timed(
            probe,
            |p| &p.sched_submit,
            || sched.submit(builder.build(), source),
        );
        if d.is_accepted() {
            accepted.push((slot, id, template.bench.clone(), class));
            rejections_for_slot = 0;
        } else {
            rejections_for_slot += 1;
        }
        submission += 1;
    }
    let hard_cap = sched.now() + tw0 * 200;
    let _ = timed(probe, |p| &p.sched_run, || sched.run_to_idle(hard_cap));
    sched.recorder_mut().flush();
    let timed_s = timed_phase.elapsed().as_secs_f64();

    let mut jobs = Vec::with_capacity(n);
    let mut makespan = Cycles::ZERO;
    for (slot, id, bench, class) in accepted {
        let report = sched.report(id).expect("accepted job has a report");
        makespan = makespan.max(report.finished.unwrap_or(Cycles::ZERO));
        jobs.push(AcceptedJob {
            slot,
            bench,
            class,
            report,
        });
    }
    let outcome = RunOutcome {
        label,
        configuration: cfg.configuration,
        accepted: jobs,
        makespan,
        submissions: u64::from(submission),
        lac_cost: sched.lac().modeled_cost(),
        lac_tests: sched.lac().admission_tests(),
        work: cfg.work,
    };
    // Dropping the scheduler drops every trace source, which hands their
    // tallies to the probe.
    drop(sched);
    (outcome, first_submission, setup_s, timed_s)
}

fn run_equal_part(cfg: &RunConfig, probe: Option<&Arc<Probe>>) -> CellParts {
    struct Pending {
        slot: usize,
        id: JobId,
        bench: String,
        class: DeadlineClass,
        arrival: Cycles,
        deadline: Cycles,
        mode: ExecutionMode,
        tw: Cycles,
    }

    let setup = Instant::now();
    let n = cfg.workload.len();
    let (mut cal, profiles) = prepare(cfg, probe);
    let classes = assign_classes(n, cfg.seed);
    let mut system = SystemConfig::paper_scaled(cfg.scale);
    scale_timeslice(&mut system, cfg.work);
    let cores = system.num_cores;
    let assoc = system.l2.associativity();
    let mut node = CmpNode::new(system);
    let equal = Ways::new(assoc / cores as u16);
    node.set_l2_targets(&vec![equal; cores])
        .expect("equal split fits");
    let tw0 = cal.tw(&cfg.workload.slots()[0].bench);
    let mut arrivals = ArrivalStream::paper_rate(tw0, cores as u64, cfg.seed);
    let setup_s = setup.elapsed().as_secs_f64();

    let timed_phase = Instant::now();
    let mut pending = Vec::with_capacity(n);
    for (slot, template) in cfg.workload.slots().iter().enumerate() {
        let ta = arrivals.next_arrival();
        timed(probe, |p| &p.sched_run, || node.run_until(ta));
        let tw = cal.tw(&template.bench);
        let class = classes[slot];
        let id = JobId::new(slot as u32);
        let spec = TaskSpec {
            id,
            source: trace(cfg, &profiles[&template.bench], slot as u32, probe),
            budget: cfg.work,
            placement: Placement::Floating,
            reserved: false,
        };
        timed(probe, |p| &p.sched_submit, || node.spawn(spec)).expect("fresh ids spawn cleanly");
        pending.push(Pending {
            slot,
            id,
            bench: template.bench.clone(),
            class,
            arrival: ta,
            deadline: class.deadline(ta, tw),
            mode: match template.role {
                Some(role) => cfg.configuration.apply_to_role(role),
                None => ExecutionMode::Strict,
            },
            tw,
        });
    }
    let hard_cap = node.now() + tw0 * 400;
    match probe {
        None => {
            let _ = node.run_to_completion(hard_cap);
        }
        Some(p) => {
            // `run_to_completion`'s own 1-Mcycle steps, made one at a time
            // so the bus monitor can be sampled between them.
            while pending.iter().any(|j| node.is_live(j.id)) && node.now() < hard_cap {
                let next = (node.now() + Cycles::new(1_000_000)).min(hard_cap);
                p.sched_run.time(|| node.run_until(next));
                p.sample_bus(node.bus_utilization());
            }
        }
    }
    let timed_s = timed_phase.elapsed().as_secs_f64();

    let label = format!("{} / EqualPart", cfg.workload.name());
    let mut jobs = Vec::with_capacity(n);
    let mut makespan = Cycles::ZERO;
    for p in pending {
        let completion = node
            .completion(p.id)
            .expect("EqualPart job finished under the hard cap");
        makespan = makespan.max(completion.finished_at);
        let report = JobReport {
            job: QosJob::with_mode(p.id, p.mode, ResourceRequest::paper_job())
                .work(cfg.work)
                .max_wall_clock(p.tw)
                .deadline(p.deadline)
                .build(),
            arrival: p.arrival,
            decision: Decision::Accepted { start: p.arrival },
            started: Some(completion.started_at),
            finished: Some(completion.finished_at),
            perf: node.perf(p.id).copied().unwrap_or_default(),
            events: Vec::new(),
            steal: None,
        };
        jobs.push(AcceptedJob {
            slot: p.slot,
            bench: p.bench,
            class: p.class,
            report,
        });
    }
    let first_submission = jobs.iter().map(|j| j.report.arrival.get()).collect();
    let outcome = RunOutcome {
        label,
        configuration: cfg.configuration,
        accepted: jobs,
        makespan,
        submissions: n as u64,
        lac_cost: Cycles::ZERO,
        lac_tests: 0,
        work: cfg.work,
    };
    drop(node);
    (outcome, first_submission, setup_s, timed_s)
}
