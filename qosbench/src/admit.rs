//! The admission-service workloads: traffic-DSL arrivals through the
//! message-layer cluster (`admit_cluster`) and through per-tier intakes
//! into one LAC (`admit_flood`).
//!
//! Set-up (timed as `setup_s`) is `scenario::timeline` plus building the
//! cluster or intakes. The timed phase submits every arrival at its
//! scheduled cycle, whatever the backlog (open loop), and runs until every
//! request has its final decision.

use crate::layers::{recorder, timed, Probe, TimedLac, SAMPLE_EVERY};
use crate::{report, Cell, CellStats};
use cmpqos_core::{
    AdmissionIntake, AdmissionRequest, Cluster, Decision, IntakeConfig, Lac, LacBackend, LacConfig,
    NetGacConfig, ProbePolicy, ResourceRequest,
};
use cmpqos_net::LinkConfig;
use cmpqos_obs::{Event, Recorder};
use cmpqos_recovery::JournaledLac;
use cmpqos_scenario::{
    timeline, Arrival, ArrivalShape, ModeMix, PercentileReporter, ScenarioSpec, SizeDist,
    TierReport, TierSpec, TrafficReport,
};
use cmpqos_types::{Cycles, JobId, NodeId, SourceId, Ways};
use std::sync::Arc;
use std::time::Instant;

/// LAC endpoints behind the cluster's network.
pub const CLUSTER_NODES: usize = 24;

/// Operations between journal compactions on every cluster node.
const COMPACT_EVERY: u64 = 256;

/// Multi-tier traffic near the cluster's reservation capacity: a steady
/// premium tier, a diurnal standard tier and a bursty batch tier with a
/// heavy-tailed size mix. `horizon` sets the number of arrivals.
pub fn cluster_spec(seed: u64, horizon: u64) -> ScenarioSpec {
    ScenarioSpec::new("admit_cluster", seed)
        .horizon(horizon)
        .ways(2, 6)
        .tier(
            TierSpec::new("premium")
                .sources(4)
                .mean_inter_arrival(2_400)
                .size(SizeDist {
                    base: 16_800,
                    tail_pct: 15,
                    tail_cap: 2,
                })
                .mix(ModeMix {
                    strict_pct: 90,
                    elastic_pct: 10,
                    elastic_slack_pct: 5,
                })
                .deadline_slack_pct(300),
        )
        .tier(
            TierSpec::new("standard")
                .sources(8)
                .mean_inter_arrival(4_000)
                .shape(ArrivalShape::Diurnal {
                    period: 400_000,
                    swing_pct: 40,
                })
                .size(SizeDist {
                    base: 11_200,
                    tail_pct: 25,
                    tail_cap: 3,
                })
                .deadline_slack_pct(400),
        )
        .tier(
            TierSpec::new("batch")
                .sources(8)
                .mean_inter_arrival(6_000)
                .shape(ArrivalShape::Bursty {
                    period: 150_000,
                    on_pct: 20,
                    burst_div: 2,
                })
                .size(SizeDist {
                    base: 8_400,
                    tail_pct: 35,
                    tail_cap: 4,
                })
                .mix(ModeMix {
                    strict_pct: 30,
                    elastic_pct: 30,
                    elastic_slack_pct: 25,
                })
                .deadline_slack_pct(600),
        )
}

/// An overloaded scenario: arrivals far beyond one LAC's capacity, so the
/// intakes shed most of them in O(1) and their breakers trip.
pub fn flood_spec(seed: u64, horizon: u64) -> ScenarioSpec {
    ScenarioSpec::new("admit_flood", seed)
        .horizon(horizon)
        .ways(2, 6)
        .tier(
            TierSpec::new("premium")
                .sources(8)
                .mean_inter_arrival(160)
                .drain_every(200)
                .queue_capacity(16)
                .rate_limit(8, 400)
                .deadline_slack_pct(300),
        )
        .tier(
            TierSpec::new("standard")
                .sources(16)
                .mean_inter_arrival(160)
                .shape(ArrivalShape::Diurnal {
                    period: 200_000,
                    swing_pct: 50,
                })
                .drain_every(1_000)
                .queue_capacity(32)
                .deadline_slack_pct(400),
        )
        .tier(
            TierSpec::new("batch")
                .sources(16)
                .mean_inter_arrival(160)
                .shape(ArrivalShape::Bursty {
                    period: 50_000,
                    on_pct: 25,
                    burst_div: 8,
                })
                .size(SizeDist {
                    base: 1_500,
                    tail_pct: 35,
                    tail_cap: 4,
                })
                .mix(ModeMix {
                    strict_pct: 30,
                    elastic_pct: 30,
                    elastic_slack_pct: 25,
                })
                .drain_every(4_000)
                .queue_capacity(64)
                .deadline_slack_pct(800),
        )
}

/// The admission request of timeline entry `id`, built as
/// `scenario::replay` builds it.
fn request(id: usize, a: &Arrival) -> AdmissionRequest {
    let mut b = AdmissionRequest::builder(
        JobId::new(id as u32),
        ResourceRequest::new(1, Ways::new(a.ways)),
        Cycles::new(a.tw),
    )
    .source(SourceId::new(a.source))
    .mode(a.mode);
    if let Some(td) = a.deadline {
        b = b.deadline(Cycles::new(td));
    }
    b.build()
}

/// Whether the arrival counts toward `deadline_hit_pct`.
fn counts_deadline(a: &Arrival) -> bool {
    a.deadline.is_some() && a.mode.reserves_resources()
}

/// Keeps the cycle of each job's first decision event: the cluster
/// exposes when a request was decided only through its recorder.
struct DecisionClock {
    decided_at: Vec<Option<u64>>,
}

impl Recorder for DecisionClock {
    fn record(&mut self, at: Cycles, event: Event) {
        let job = match event {
            Event::Placed { job, .. } | Event::Rejected { job, .. } => job,
            _ => return,
        };
        if let Some(slot @ None) = self.decided_at.get_mut(job.as_usize()) {
            *slot = Some(at.get());
        }
    }
}

/// Drives `arrivals` through a cluster of `backends` and lets it quiesce.
fn drive_cluster<B: LacBackend>(
    backends: Vec<B>,
    seed: u64,
    arrivals: &[Arrival],
    rec: &mut dyn Recorder,
    probe: Option<&Arc<Probe>>,
) -> Cluster<B> {
    let link = LinkConfig::default()
        .base_latency(Cycles::new(10))
        .jitter(5)
        .reorder(10)
        .drop(0.02)
        .duplicate(0.03);
    let mut cluster = Cluster::from_backends(
        backends,
        seed,
        link,
        NetGacConfig::default(),
        ProbePolicy::LeastLoaded,
    );
    for (i, a) in arrivals.iter().enumerate() {
        let at = Cycles::new(a.at);
        timed(probe, |p| &p.cluster_run, || cluster.run_until(at, rec));
        let req = request(i, a);
        timed(
            probe,
            |p| &p.gac_submit,
            || {
                cluster.gac_mut().submit(req, at, rec);
            },
        );
    }
    // Quiesce: every conversation settled and every placement retired.
    // Bounded, so a stuck run ends and shows as failed ops.
    let step = Cycles::new(100_000);
    for _ in 0..10_000 {
        let gac = cluster.gac();
        if gac.idle() && gac.placements().is_empty() {
            break;
        }
        let until = cluster.now() + step;
        timed(probe, |p| &p.cluster_run, || cluster.run_until(until, rec));
    }
    cluster
}

fn journaled_nodes() -> Vec<JournaledLac> {
    (0..CLUSTER_NODES)
        .map(|_| JournaledLac::new(Lac::new(LacConfig::default()), COMPACT_EVERY))
        .collect()
}

/// A quiesced cluster's statistics and the digest of every decision,
/// completion and revocation plus the protocol counters.
fn cluster_outcome<B: LacBackend>(cluster: &Cluster<B>, arrivals: &[Arrival]) -> (u64, CellStats) {
    let gac = cluster.gac();
    let mut stats = CellStats {
        offered: arrivals.len() as u64,
        ..CellStats::default()
    };
    for (i, a) in arrivals.iter().enumerate() {
        let job = JobId::new(i as u32);
        let counted = counts_deadline(a);
        stats.deadline_total += u64::from(counted);
        match gac.decisions().get(&job) {
            None => stats.failed += 1,
            Some((_, Decision::Accepted { start })) => {
                stats.ops += 1;
                stats.admitted += 1;
                stats.deadline_hits += u64::from(counted);
                stats.makespan = stats.makespan.max(start.get() + a.tw);
                let done = gac.completed().contains(&job);
                let gone = gac.revoked().contains(&job);
                if done == gone {
                    stats.failed += 1;
                }
            }
            Some((_, Decision::Rejected(_))) => stats.ops += 1,
        }
    }
    let g = gac.stats();
    let n = cluster.net().stats();
    stats.count("scenario.arrivals", arrivals.len() as u64);
    stats.count("gac.conversations", g.conversations);
    stats.count("gac.retransmits", g.retransmits);
    stats.count("gac.stale_replies", g.stale_replies);
    stats.count("gac.gave_up", g.gave_up);
    stats.count("net.sent", n.sent);
    stats.count("net.delivered", n.delivered);
    stats.count("net.dropped", n.dropped);
    stats.count("net.duplicated", n.duplicated);
    let digest = crate::digest(&(gac.decisions(), gac.completed(), gac.revoked(), g, n));
    (digest, stats)
}

/// Ends the set-up begun at `setup`, then times driving the arrivals
/// through a cluster of `nodes`. Returns `(setup_s, timed_s, digest,
/// stats)`.
fn measure_cluster<B: LacBackend>(
    setup: Instant,
    nodes: Vec<B>,
    seed: u64,
    arrivals: &[Arrival],
    probe: Option<&Arc<Probe>>,
) -> (f64, f64, u64, CellStats) {
    let mut rec = recorder(probe);
    let setup_s = setup.elapsed().as_secs_f64();
    let start = Instant::now();
    let cluster = drive_cluster(nodes, seed, arrivals, rec.as_mut(), probe);
    let timed_s = start.elapsed().as_secs_f64();
    rec.flush();
    let (digest, stats) = cluster_outcome(&cluster, arrivals);
    (setup_s, timed_s, digest, stats)
}

/// One `admit_cluster` cell. The timed pass runs with the recorder off. A
/// second, untimed pass with a recorder on reads each decision's cycle;
/// it must reach the same decisions.
pub fn run_cluster_cell(seed: u64, horizon: u64, probe: Option<&Arc<Probe>>) -> Cell {
    let mark = report::heap_mark();
    let setup = Instant::now();
    let spec = cluster_spec(seed, horizon);
    let arrivals = timed(probe, |p| &p.timeline, || timeline(&spec));
    let (setup_s, timed_s, digest, mut stats) = match probe {
        Some(p) => {
            let nodes = journaled_nodes()
                .into_iter()
                .map(|b| TimedLac::new(b, p))
                .collect();
            measure_cluster(setup, nodes, seed, &arrivals, probe)
        }
        None => measure_cluster(setup, journaled_nodes(), seed, &arrivals, None),
    };
    let peak_heap_mib = report::heap_peak_mib_since(mark);

    let mut clock = DecisionClock {
        decided_at: vec![None; arrivals.len()],
    };
    let again = drive_cluster(journaled_nodes(), seed, &arrivals, &mut clock, None);
    if cluster_outcome(&again, &arrivals).0 != digest {
        stats.failed = stats.ops;
    }
    for (a, at) in arrivals.iter().zip(&clock.decided_at) {
        match at {
            Some(at) => stats.latency.push(at.saturating_sub(a.at)),
            None => stats.failed += 1,
        }
    }
    Cell {
        setup_s,
        timed_s,
        peak_heap_mib,
        digest,
        stats,
    }
}

/// [`cmpqos_scenario::replay`]'s intake configuration for a tier.
fn intake_config(tier: &TierSpec) -> IntakeConfig {
    IntakeConfig::builder()
        .queue_capacity(tier.queue_capacity)
        .bucket_capacity(tier.bucket_capacity.min(u64::from(u32::MAX)) as u32)
        .refill_interval(Cycles::new(tier.refill_interval))
        .breaker_window(tier.breaker_window as usize)
        .breaker_threshold_pct(tier.breaker_threshold_pct)
        .breaker_cooldown(Cycles::new(tier.breaker_cooldown))
        .build()
}

/// One `admit_flood` cell: `scenario::replay` composed from its public
/// parts, so that intake calls can be timed. Its `TrafficReport` must
/// equal `replay`'s.
pub fn run_flood_cell(seed: u64, horizon: u64, probe: Option<&Arc<Probe>>) -> Cell {
    let setup = Instant::now();
    let spec = flood_spec(seed, horizon);
    let arrivals = timed(probe, |p| &p.timeline, || timeline(&spec));
    let mut lac = Lac::new(LacConfig::default());
    let mut rec = recorder(probe);
    let mut intakes: Vec<AdmissionIntake> = spec
        .tiers
        .iter()
        .enumerate()
        .map(|(t, tier)| AdmissionIntake::new(NodeId::new(t as u32), intake_config(tier)))
        .collect();
    let horizon = arrivals
        .iter()
        .map(|a| a.at)
        .max()
        .unwrap_or(0)
        .max(spec.horizon);
    // Every arrival, each tier's drain ticks, and a final drain at the
    // horizon. Offers sort before drains at one instant; coincident drains
    // run in tier order.
    let mut events: Vec<(u64, u8, usize, usize)> = Vec::with_capacity(arrivals.len() * 2);
    for (i, a) in arrivals.iter().enumerate() {
        events.push((a.at, 0, a.tier, i));
    }
    for (t, tier) in spec.tiers.iter().enumerate() {
        let de = tier.drain_every.max(1);
        let mut tick = de;
        while tick <= horizon {
            events.push((tick, 1, t, 0));
            tick += de;
        }
        if horizon % de != 0 {
            events.push((horizon, 1, t, 0));
        }
    }
    events.sort_unstable();
    let setup_s = setup.elapsed().as_secs_f64();

    let start = Instant::now();
    let tiers = spec.tiers.len();
    let mut reporters = vec![PercentileReporter::default(); tiers];
    let mut deadline_total = vec![0u64; tiers];
    let mut deadline_hits = vec![0u64; tiers];
    let mut goodput = vec![0u64; tiers];
    let mut stats = CellStats::default();
    for &(time, kind, tier, payload) in &events {
        let now = Cycles::new(time);
        let intake = &mut intakes[tier];
        if kind == 0 {
            let a = &arrivals[payload];
            deadline_total[tier] += u64::from(counts_deadline(a));
            let req = request(payload, a);
            let _ = match probe {
                Some(p) => p
                    .intake_offer
                    .time_sampled(SAMPLE_EVERY, || intake.offer(req, now, rec.as_mut())),
                None => intake.offer(req, now, rec.as_mut()),
            };
            continue;
        }
        let drained = timed(
            probe,
            |p| &p.intake_drain,
            || intake.drain(&mut lac, now, rec.as_mut()),
        );
        for d in drained {
            reporters[tier].record(d.waited.get());
            stats.latency.push(d.waited.get());
            if let Decision::Accepted { start } = d.decision {
                let a = &arrivals[d.id.as_usize()];
                goodput[tier] += a.tw;
                deadline_hits[tier] += u64::from(counts_deadline(a));
                stats.makespan = stats.makespan.max(start.get() + a.tw);
            }
        }
    }
    let timed_s = start.elapsed().as_secs_f64();
    rec.flush();

    let report = TrafficReport {
        name: spec.name.clone(),
        tiers: spec
            .tiers
            .iter()
            .zip(&intakes)
            .enumerate()
            .map(|(t, (tier, intake))| {
                let s = intake.stats();
                TierReport {
                    name: tier.name.clone(),
                    offered: s.offered,
                    shed_infeasible: s.shed_infeasible,
                    shed_rate_limited: s.shed_rate_limited,
                    shed_breaker: s.shed_breaker,
                    shed_queue_full: s.shed_queue_full,
                    admitted: s.admitted,
                    rejected: s.rejected,
                    breaker_trips: s.breaker_trips,
                    deadline_total: deadline_total[t],
                    deadline_hits: deadline_hits[t],
                    goodput: goodput[t],
                    latency: reporters[t].summary(),
                }
            })
            .collect(),
    };
    for tier in &report.tiers {
        let decided = tier.shed() + tier.admitted + tier.rejected;
        stats.offered += tier.offered;
        stats.ops += decided;
        stats.failed += tier.offered.saturating_sub(decided);
        stats.admitted += tier.admitted;
        stats.deadline_total += tier.deadline_total;
        stats.deadline_hits += tier.deadline_hits;
        stats.count("intake.shed", tier.shed());
        stats.count("intake.breaker_trips", tier.breaker_trips);
    }
    stats.count("scenario.arrivals", arrivals.len() as u64);
    Cell {
        setup_s,
        timed_s,
        peak_heap_mib: 0.0,
        digest: crate::digest(&report),
        stats,
    }
}

/// The reference digest: `scenario::replay` over the same timeline.
pub fn flood_reference_digest(seed: u64, horizon: u64) -> u64 {
    let spec = flood_spec(seed, horizon);
    crate::digest(&cmpqos_scenario::replay(&spec, &timeline(&spec)))
}
