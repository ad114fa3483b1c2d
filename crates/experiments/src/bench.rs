//! `cmpqos bench` — wall-clock characterization of the reproduction
//! pipeline itself, emitted as a schema-versioned JSON report
//! (`BENCH_<git-sha>.json`).
//!
//! Two layers are timed:
//!
//! * **figure/table cells** — each experiment module runs twice, once
//!   serial (`jobs = 1`) and once at the requested pool width, so every
//!   entry carries wall time, cells/second and the measured speedup of
//!   the `cmpqos-engine` worker pool over serial execution;
//! * **component micro-benchmarks** — the engine's own dispatch
//!   overhead, one solo simulation cell, the node's cost per simulated
//!   instruction, event-shard merging and JSONL timeline parsing, timed
//!   over fixed iteration counts.
//!
//! A panicking experiment becomes a failed entry (its `error` field is
//! set), not a torn-down report — mirroring the engine's own
//! cell-isolation contract.

use crate::params::ExperimentParams;
use crate::{fig1, fig5, fig6, fig7, fig8, fig9, lac_overhead, table1};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// Version of the `BENCH_*.json` document layout. Bump on any
/// field-level change so downstream tooling can reject reports it does
/// not understand.
pub const SCHEMA_VERSION: u32 = 1;

/// Timing of one figure/table experiment at both pool widths.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FigureBench {
    /// Experiment name (module / figure).
    pub name: String,
    /// Independent simulation cells the experiment dispatches.
    pub cells: usize,
    /// Wall time at the report's pool width, in milliseconds.
    pub wall_ms: f64,
    /// Wall time of the serial (`jobs = 1`) run, in milliseconds.
    pub serial_ms: f64,
    /// Cells per second at the report's pool width.
    pub cells_per_sec: f64,
    /// `serial_ms / wall_ms` — the engine's measured speedup (1.0 when
    /// the report was taken at `jobs = 1`).
    pub speedup: f64,
    /// Set when the experiment panicked instead of completing; the
    /// timing fields are zero in that case.
    pub error: Option<String>,
}

/// Timing of one component micro-benchmark.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComponentBench {
    /// Component name.
    pub name: String,
    /// Iterations timed.
    pub iters: u32,
    /// Total wall time, in milliseconds.
    pub wall_ms: f64,
    /// Mean nanoseconds per iteration.
    pub ns_per_iter: f64,
}

/// The full `BENCH_<git-sha>.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// [`SCHEMA_VERSION`] at emission time.
    pub schema_version: u32,
    /// Short git commit hash the report was taken at (`"unknown"` when
    /// no hash is discoverable).
    pub git_sha: String,
    /// Engine pool width the parallel runs used.
    pub jobs: usize,
    /// Geometry scale factor of the timed experiments.
    pub scale: u64,
    /// Instructions per job of the timed experiments.
    pub work: u64,
    /// Master seed of the timed experiments.
    pub seed: u64,
    /// Per-experiment timings.
    pub figures: Vec<FigureBench>,
    /// Component micro-benchmark timings.
    pub components: Vec<ComponentBench>,
}

impl BenchReport {
    /// Overall speedup: total serial wall time over total parallel wall
    /// time, across the experiments that completed.
    #[must_use]
    pub fn overall_speedup(&self) -> f64 {
        let ok = self.figures.iter().filter(|f| f.error.is_none());
        let (serial, wall) = ok.fold((0.0, 0.0), |(s, w), f| (s + f.serial_ms, w + f.wall_ms));
        if wall > 0.0 {
            serial / wall
        } else {
            1.0
        }
    }

    /// The canonical output filename: `BENCH_<git-sha>.json`.
    #[must_use]
    pub fn default_filename(&self) -> PathBuf {
        PathBuf::from(format!("BENCH_{}.json", self.git_sha))
    }
}

/// The short commit hash to stamp reports with: `CMPQOS_GIT_SHA`, then
/// `GITHUB_SHA` (truncated), then `git rev-parse --short HEAD`, then
/// `"unknown"`. Never fails.
#[must_use]
pub fn git_sha() -> String {
    for var in ["CMPQOS_GIT_SHA", "GITHUB_SHA"] {
        if let Ok(v) = std::env::var(var) {
            let v = v.trim().to_string();
            if !v.is_empty() {
                return v.chars().take(12).collect();
            }
        }
    }
    if let Ok(out) = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
    {
        if out.status.success() {
            let v = String::from_utf8_lossy(&out.stdout).trim().to_string();
            if !v.is_empty() {
                return v;
            }
        }
    }
    "unknown".to_string()
}

/// One timed experiment: `run` takes the params to use (the harness
/// calls it once with `jobs = 1` and once with the requested width).
struct Timed {
    name: &'static str,
    cells: usize,
    run: Box<dyn Fn(&ExperimentParams)>,
}

fn timed_experiments(params: &ExperimentParams) -> Vec<Timed> {
    let benches = ["gobmk", "hmmer", "bzip2"];
    let configs = cmpqos_workloads::Configuration::all().len();
    vec![
        Timed {
            name: "fig1_motivation",
            cells: 4,
            run: Box::new(|p| {
                let _ = fig1::run(p);
            }),
        },
        Timed {
            name: "table1_characteristics",
            cells: 3,
            run: Box::new(|p| {
                let _ = table1::run(p);
            }),
        },
        Timed {
            name: "fig5_hit_rate_throughput",
            cells: benches.len() * configs,
            run: Box::new(move |p| {
                let _ = fig5::run_for(p, &benches);
            }),
        },
        Timed {
            name: "fig6_wallclock_by_mode",
            cells: configs,
            run: Box::new(|p| {
                let _ = fig6::run_bench(p, "gobmk");
            }),
        },
        Timed {
            name: "fig7_execution_trace",
            cells: 2,
            run: Box::new(|p| {
                let _ = fig7::run_bench(p, "gobmk", 8);
            }),
        },
        Timed {
            name: "fig8_stealing_two_slacks",
            cells: 3,
            run: Box::new(|p| {
                let _ = fig8::run_bench(p, "bzip2", &[5.0, 20.0]);
            }),
        },
        Timed {
            name: "fig9_mix1",
            cells: configs,
            run: Box::new(|p| {
                let _ = fig9::run_mix(p, cmpqos_workloads::WorkloadSpec::mix1());
            }),
        },
        Timed {
            name: "lac_overhead",
            cells: 3,
            run: Box::new(|p| {
                let _ = lac_overhead::run(p);
            }),
        },
        Timed {
            name: "chaos_four_seeds",
            cells: 4,
            run: Box::new({
                let events = params.events.clone();
                move |p| {
                    let mut cp = crate::chaos::ChaosParams::standard();
                    cp.events.clone_from(&events);
                    let _ = crate::chaos::run_many(&cp, &[1, 2, 3, 4], p.jobs);
                }
            }),
        },
        Timed {
            name: "overload",
            cells: crate::overload::RATES.len(),
            run: Box::new(|p| {
                let _ = crate::overload::run(p);
            }),
        },
        Timed {
            name: "slo_adaptive_grid",
            cells: crate::slo::MIXES.len() * crate::slo::ARMS.len(),
            run: Box::new(|p| {
                let _ = crate::slo::run(p);
            }),
        },
        Timed {
            name: "traffic_scenario",
            cells: 4,
            run: Box::new(|p| {
                let _ = crate::traffic::run(p);
            }),
        },
    ]
}

fn time_one(exp: &Timed, params: &ExperimentParams) -> Result<f64, String> {
    let t0 = Instant::now();
    catch_unwind(AssertUnwindSafe(|| (exp.run)(params)))
        .map(|()| t0.elapsed().as_secs_f64() * 1e3)
        .map_err(|e| {
            e.downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "experiment panicked".to_string())
        })
}

fn component_benches(params: &ExperimentParams) -> Vec<ComponentBench> {
    let mut out = Vec::new();
    let mut timed = |name: &str, iters: u32, f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        out.push(ComponentBench {
            name: name.to_string(),
            iters,
            wall_ms,
            ns_per_iter: wall_ms * 1e6 / f64::from(iters.max(1)),
        });
    };

    // Raw pool dispatch overhead: 64 no-op cells per iteration.
    let engine = cmpqos_engine::Engine::new(params.jobs);
    timed("engine_dispatch_64_noop_cells", 20, &mut || {
        engine.run((0..64usize).collect(), |i, x| i + x);
    });

    // One solo simulation cell (the unit of every figure).
    timed("solo_run_one_cell", 3, &mut || {
        let _ = cmpqos_workloads::calibrate::solo_run(
            "gobmk",
            cmpqos_types::Ways::new(7),
            params.work,
            params.scale,
            params.seed,
        );
    });

    // Event-shard merging (the serialization point of parallel runs).
    let shard = {
        let mut s = cmpqos_obs::ShardRecorder::new();
        for i in 0..512u64 {
            cmpqos_obs::Recorder::record(
                &mut s,
                cmpqos_types::Cycles::new(i),
                cmpqos_obs::Event::RunStarted {
                    label: format!("shard {i}"),
                },
            );
        }
        s
    };
    timed("merge_512_record_shards_x8", 20, &mut || {
        let shards = vec![shard.clone(); 8];
        let mut sink = cmpqos_obs::ShardRecorder::new();
        cmpqos_obs::merge_shards(shards, &mut sink);
    });

    // The indexed admission hot path: three decisions per iteration
    // against a live 10,000-reservation table — a Strict accept (then
    // cancelled so the table is unchanged), a deadline-infeasible Strict
    // reject, and an Opportunistic accept. CI derives decisions/sec as
    // `3e9 / ns_per_iter` and gates regressions on the committed report.
    {
        use cmpqos_core::{
            AdmissionRequest, ExecutionMode, Lac, LacConfig, LacState, Reservation, ResourceRequest,
        };
        use cmpqos_types::{Cycles, JobId, Ways};
        // 3 of 4 cores and 12 of 16 ways busy at every instant of
        // [0, 1e6): one core and four ways stay free.
        let reservations: Vec<Reservation> = (0..10_000u64)
            .map(|k| Reservation {
                id: JobId::new(k as u32),
                start: Cycles::new(k * 100),
                end: Cycles::new((k + 1) * 100),
                request: ResourceRequest::new(3, Ways::new(12)),
                mode: ExecutionMode::Strict,
                deadline: None,
            })
            .collect();
        let mut lac = Lac::restore(LacState {
            config: LacConfig::default(),
            now: Cycles::ZERO,
            reservations,
            admission_tests: 0,
            accepted: 10_000,
            rejected: 0,
            modeled_cost: Cycles::ZERO,
        });
        let fits = AdmissionRequest::builder(
            JobId::new(100_000),
            ResourceRequest::new(1, Ways::new(4)),
            Cycles::new(100),
        )
        .deadline(Cycles::new(100))
        .build();
        let starved = AdmissionRequest::builder(
            JobId::new(100_001),
            ResourceRequest::new(2, Ways::new(4)),
            Cycles::new(100),
        )
        .deadline(Cycles::new(500))
        .build();
        let opportunistic = AdmissionRequest::builder(
            JobId::new(100_002),
            ResourceRequest::new(1, Ways::ZERO),
            Cycles::new(10),
        )
        .mode(ExecutionMode::Opportunistic)
        .build();
        timed("lac_admission_indexed", 5_000, &mut || {
            assert!(lac.admit(&fits).is_accepted());
            lac.cancel(fits.id);
            assert!(!lac.admit(&starved).is_accepted());
            assert!(lac.admit(&opportunistic).is_accepted());
        });
    }

    // The message-layer control plane: each iteration is one full
    // probe→admit conversation round-trip over the deterministic
    // network simulator (10-cycle link, jitter 3), driving the
    // sequenced channel, the conversation state machine, and the
    // delivery event heap end to end. CI reports round-trips/sec.
    {
        use cmpqos_core::{
            AdmissionRequest, Cluster, LacConfig, NetGacConfig, ProbePolicy, ResourceRequest,
        };
        use cmpqos_types::{Cycles, JobId};
        let link = cmpqos_net::LinkConfig::default()
            .base_latency(Cycles::new(10))
            .jitter(3);
        let mut cluster = Cluster::new(
            4,
            LacConfig::default(),
            params.seed,
            link,
            NetGacConfig::default(),
            ProbePolicy::FirstFit,
        );
        let mut rec = cmpqos_obs::NullRecorder;
        let mut job = 0u32;
        timed("net_roundtrip_probe_admit", 1_000, &mut || {
            let at = cluster.now() + Cycles::new(10);
            let req = AdmissionRequest::builder(
                JobId::new(job),
                ResourceRequest::paper_job(),
                Cycles::new(50),
            )
            .build();
            cluster.gac_mut().submit(req, at, &mut rec);
            cluster.run_until(at + Cycles::new(5_000), &mut rec);
            assert!(cluster.gac().idle(), "round-trip did not settle");
            job += 1;
        });
    }

    // The adaptive control law's hot path: one full epoch decision per
    // iteration — four sampled jobs (two Elastic donors with SLOs)
    // stepped through the integer PID plus the floating-core throttle
    // fan-out. The tick must stay far below the microsecond bar so the
    // epoch hook is invisible next to simulating an epoch's work.
    {
        use cmpqos_adapt::{Pid, PidConfig, Policy};
        use cmpqos_core::{EpochSample, EpochView, ExecutionMode, SloSpec};
        use cmpqos_types::{CoreId, Cycles, Instructions, JobId, Percent};
        let mut pid = Pid::new(PidConfig::default());
        let samples: Vec<EpochSample> = (0..4u32)
            .map(|n| EpochSample {
                job: JobId::new(n),
                core: Some(CoreId::new(n)),
                mode: if n % 2 == 0 {
                    ExecutionMode::Elastic(Percent::new(20.0))
                } else {
                    ExecutionMode::Opportunistic
                },
                slo: (n % 2 == 0).then(|| SloSpec::cpi(2.5)),
                instructions: Instructions::new(1000),
                cycles: Cycles::new(2_600 + u64::from(n) * 700),
                l2_misses: 12,
            })
            .collect();
        let floating = [CoreId::new(4), CoreId::new(5)];
        let mut epoch_no = 0u64;
        timed("pid_tick", 100_000, &mut || {
            let view = EpochView {
                now: Cycles::new(epoch_no * 10_000),
                samples: &samples,
                floating_cores: &floating,
            };
            let updates = pid.decide(&view);
            assert!(!updates.is_empty());
            epoch_no += 1;
        });
    }

    // The elastic-membership heartbeat hot path: one full heartbeat round
    // of an in-process 128-node cluster holding 256 leased placements per
    // iteration — 128 beacon conversations, each ack renewing its node's
    // leases. CI derives rounds/sec as `1e9 / ns_per_iter`.
    {
        use cmpqos_core::{
            AdmissionRequest, Cluster, LacConfig, NetGacConfig, ProbePolicy, ResourceRequest,
        };
        use cmpqos_types::{Cycles, JobId};
        let every = Cycles::new(10);
        let config = NetGacConfig {
            heartbeat_every: every,
            lease_ttl: Cycles::new(1_000_000),
            ..NetGacConfig::default()
        };
        let mut cluster =
            Cluster::in_process(128, LacConfig::default(), config, ProbePolicy::LeastLoaded);
        let mut rec = cmpqos_obs::NullRecorder;
        for i in 0..256u32 {
            let req = AdmissionRequest::builder(
                JobId::new(i),
                ResourceRequest::paper_job(),
                Cycles::new(1_000_000_000),
            )
            .build();
            cluster.gac_mut().submit(req, Cycles::ZERO, &mut rec);
        }
        cluster.run_until(Cycles::ZERO, &mut rec);
        assert_eq!(cluster.gac().placements().len(), 256, "every job places");
        timed("heartbeat_round_128_nodes", 1_000, &mut || {
            let next = cluster.now() + every;
            cluster.run_until(next, &mut rec);
        });
        assert_eq!(
            cluster.gac().leases().len(),
            256,
            "every placement stays leased"
        );
    }

    // JSONL timeline parsing (the observability read path).
    let jsonl: String = shard
        .records()
        .iter()
        .map(|r| serde_json::to_string(r).expect("records serialize") + "\n")
        .collect();
    timed("timeline_parse_512_records", 20, &mut || {
        cmpqos_obs::Timeline::from_jsonl(&jsonl).expect("records parse");
    });

    // The traffic experiment's exact percentile reporter: record a
    // 4,096-sample latency multiset (xorshifted, fully deterministic)
    // and extract the p50/p95/p99/p999 summary.
    timed("percentile_record_4096_summary", 200, &mut || {
        let mut reporter = cmpqos_scenario::PercentileReporter::default();
        let mut x = 0x9E37_79B9_u64;
        for _ in 0..4_096 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            reporter.record(x % 100_000);
        }
        let _ = reporter.summary();
    });

    out.push(node_four_pinned_gobmk());
    out
}

/// Simulated instructions per core in [`node_four_pinned_gobmk`].
const NODE_BENCH_INSTRS: u64 = 200_000;

/// Raw simulator throughput: four pinned gobmk jobs of
/// [`NODE_BENCH_INSTRS`] each on one scale-8 node, run to completion.
/// One iteration is one simulated instruction, so `ns_per_iter` is the
/// node's cost per simulated instruction; it is the fastest of three runs
/// and independent of the bench's scale and work settings.
fn node_four_pinned_gobmk() -> ComponentBench {
    use cmpqos_system::{CmpNode, Placement, SystemConfig, TaskSpec};
    use cmpqos_types::{CoreId, Cycles, Instructions, JobId, Ways};

    let instrs = NODE_BENCH_INSTRS * 4;
    let mut runs_ms = Vec::new();
    let profile = cmpqos_trace::spec::scaled("gobmk", 8).expect("gobmk is a known benchmark");
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut node = CmpNode::new(SystemConfig::paper_scaled(8));
        node.set_l2_targets(&[Ways::new(4); 4])
            .expect("four 4-way partitions fit a 16-way L2");
        for i in 0..4u32 {
            node.spawn(TaskSpec {
                id: JobId::new(i),
                source: Box::new(profile.instantiate(u64::from(i), u64::from(i) << 40)),
                budget: Instructions::new(NODE_BENCH_INSTRS),
                placement: Placement::Pinned(CoreId::new(i)),
                reserved: true,
            })
            .expect("one job per core");
        }
        std::hint::black_box(node.run_to_completion(Cycles::new(u64::MAX / 4)));
        runs_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let wall_ms = runs_ms.iter().copied().fold(f64::INFINITY, f64::min);
    ComponentBench {
        name: "node_four_pinned_gobmk".to_string(),
        iters: instrs as u32,
        wall_ms,
        ns_per_iter: wall_ms * 1e6 / instrs as f64,
    }
}

/// Runs the full benchmark suite at `params` fidelity and pool width.
#[must_use]
pub fn run(params: &ExperimentParams) -> BenchReport {
    let mut serial = params.clone();
    serial.jobs = 1;
    let figures = timed_experiments(params)
        .iter()
        .map(|exp| {
            let serial_res = time_one(exp, &serial);
            let parallel_res = if params.jobs == 1 {
                serial_res.clone()
            } else {
                time_one(exp, params)
            };
            match (serial_res, parallel_res) {
                (Ok(serial_ms), Ok(wall_ms)) => FigureBench {
                    name: exp.name.to_string(),
                    cells: exp.cells,
                    wall_ms,
                    serial_ms,
                    cells_per_sec: if wall_ms > 0.0 {
                        exp.cells as f64 * 1e3 / wall_ms
                    } else {
                        0.0
                    },
                    speedup: if wall_ms > 0.0 {
                        serial_ms / wall_ms
                    } else {
                        1.0
                    },
                    error: None,
                },
                (a, b) => FigureBench {
                    name: exp.name.to_string(),
                    cells: exp.cells,
                    wall_ms: 0.0,
                    serial_ms: 0.0,
                    cells_per_sec: 0.0,
                    speedup: 1.0,
                    error: a.err().or_else(|| b.err()),
                },
            }
        })
        .collect();
    BenchReport {
        schema_version: SCHEMA_VERSION,
        git_sha: git_sha(),
        jobs: params.jobs,
        scale: params.scale,
        work: params.work.get(),
        seed: params.seed,
        figures,
        components: component_benches(params),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpqos_types::Instructions;

    fn tiny() -> ExperimentParams {
        let mut p = ExperimentParams::quick();
        p.work = Instructions::new(20_000);
        p.jobs = 2;
        p
    }

    #[test]
    fn report_round_trips_through_json_and_names_every_figure() {
        let r = run(&tiny());
        assert_eq!(r.schema_version, SCHEMA_VERSION);
        assert_eq!(r.jobs, 2);
        assert!(!r.figures.is_empty());
        assert!(!r.components.is_empty());
        let node = r
            .components
            .iter()
            .find(|c| c.name == "node_four_pinned_gobmk")
            .expect("the node throughput component is reported");
        assert_eq!(u64::from(node.iters), NODE_BENCH_INSTRS * 4);
        assert!(node.ns_per_iter > 0.0);
        for f in &r.figures {
            assert!(f.error.is_none(), "{}: {:?}", f.name, f.error);
            assert!(f.wall_ms > 0.0 && f.serial_ms > 0.0, "{} timed", f.name);
            assert!(f.cells_per_sec > 0.0);
            assert!(f.cells > 0);
        }
        assert!(r.overall_speedup() > 0.0);
        assert!(!r.git_sha.is_empty());
        assert_eq!(
            r.default_filename().to_string_lossy(),
            format!("BENCH_{}.json", r.git_sha)
        );
        let json = serde_json::to_string(&r).expect("serializes");
        let back: BenchReport = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back.figures.len(), r.figures.len());
        assert_eq!(back.components.len(), r.components.len());
        assert_eq!(back.git_sha, r.git_sha);
    }

    #[test]
    fn git_sha_prefers_the_env_override() {
        // Avoid mutating the process environment (tests run in parallel):
        // only assert the fallback contract produces something non-empty.
        assert!(!git_sha().is_empty());
    }
}
