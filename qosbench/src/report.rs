//! Turning measured cells into the benchmark's metrics, and the machine
//! fingerprint printed with every result.

use crate::layers::Probe;
use crate::{Cell, CellStats, Workload};
use cmpqos_scenario::PercentileReporter;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Context printed beside the value (sample counts), if any.
    pub note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

/// The median of `values` (mean of the middle pair when even).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Every cell's statistics summed (counters added, samples concatenated;
/// makespans summed, so divide by the cell count for the mean).
pub fn total(cells: &[Cell]) -> CellStats {
    let mut t = CellStats::default();
    for c in cells {
        let s = &c.stats;
        t.ops += s.ops;
        t.failed += s.failed;
        t.offered += s.offered;
        t.admitted += s.admitted;
        t.deadline_total += s.deadline_total;
        t.deadline_hits += s.deadline_hits;
        t.makespan += s.makespan;
        t.latency.extend_from_slice(&s.latency);
        for (k, v) in &s.counters {
            *t.counters.entry(k).or_insert(0) += v;
        }
    }
    t
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

fn ratio(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// The end-to-end metrics of an untraced run's cells.
pub fn end_to_end(cells: &[Cell]) -> Vec<Metric> {
    let t = total(cells);
    let setup: Vec<f64> = cells.iter().map(|c| c.setup_s).collect();
    let heap: Vec<f64> = cells.iter().map(|c| c.peak_heap_mib).collect();
    let rates: Vec<f64> = cells
        .iter()
        .map(|c| c.stats.ops as f64 / c.timed_s.max(1e-9))
        .collect();
    let mut latency = PercentileReporter::default();
    for &d in &t.latency {
        latency.record(d);
    }
    let samples = format!("samples={}", latency.len());
    let q = |permille| latency.quantile_permille(permille).unwrap_or(0) as f64 / 1e3;
    vec![
        Metric {
            note: format!("median of {} cells", cells.len()),
            ..metric("setup_s", median(&setup), "s")
        },
        // The shared host only ever slows a cell down, in phases of
        // seconds, so the fastest cell is the steadiest estimate of what
        // the program itself can do.
        Metric {
            note: format!(
                "fastest of {} cells; median {}; {} ops",
                cells.len(),
                median(&rates),
                t.ops
            ),
            ..metric(
                "ops_per_s",
                rates.iter().copied().fold(0.0, f64::max),
                "1/s",
            )
        },
        Metric {
            note: format!("median of {} cells", cells.len()),
            ..metric("peak_heap_mib", median(&heap), "MiB")
        },
        Metric {
            note: format!("{} of {}", t.deadline_hits, t.deadline_total),
            ..metric(
                "deadline_hit_pct",
                pct(t.deadline_hits, t.deadline_total),
                "%",
            )
        },
        metric(
            "makespan_mcycles",
            t.makespan as f64 / cells.len().max(1) as f64 / 1e6,
            "Mcycles",
        ),
        Metric {
            note: format!("{} of {}", t.admitted, t.offered),
            ..metric("admit_pct", pct(t.admitted, t.offered), "%")
        },
        Metric {
            note: samples.clone(),
            ..metric("latency_p50_kcycles", q(500), "kcycles")
        },
        Metric {
            note: samples,
            ..metric("latency_p99_kcycles", q(990), "kcycles")
        },
    ]
}

/// The per-layer metrics of a traced run: `traced` are the traced cells,
/// `untraced` the same cells measured without wrappers.
pub fn per_layer(
    workload: Workload,
    traced: &[Cell],
    untraced: &[Cell],
    probe: &Probe,
) -> Vec<Metric> {
    let t = total(traced);
    let c = |name: &str| t.counters.get(name).copied().unwrap_or(0);
    let count = |name: &'static str, v: u64| metric(name, v as f64, "count");
    let trace_s = probe.trace.busy_s();
    let obs_s = probe.obs.busy_s();
    let nested_s = probe.nested_clock_s();
    let instructions = c("cpu.instructions");
    let sched_self = if workload.is_sim() {
        probe.sched_run.busy_s() - trace_s - obs_s - nested_s
    } else {
        0.0
    };
    let cluster_self = if probe.cluster_run.calls() > 0 {
        probe.cluster_run.busy_s() - probe.lac.busy_s() - obs_s - nested_s
    } else {
        0.0
    };
    let traced_s: f64 = traced.iter().map(|c| c.timed_s).sum();
    let untraced_s: f64 = untraced.iter().map(|c| c.timed_s).sum();
    vec![
        count("trace.calls", probe.trace.calls()),
        metric("trace.busy_s", trace_s, "s"),
        metric(
            "trace.ns_per_call",
            ratio(trace_s * 1e9, probe.trace.calls()),
            "ns",
        ),
        count("workloads.calibrate_runs", probe.calibrate.calls()),
        metric("workloads.calibrate_s", probe.calibrate.busy_s(), "s"),
        metric("sched.run_self_s", sched_self, "s"),
        metric(
            "sched.self_ns_per_instr",
            ratio(sched_self * 1e9, instructions),
            "ns",
        ),
        metric(
            "sched.self_ns_per_l2_access",
            ratio(sched_self * 1e9, c("cache.l2_accesses")),
            "ns",
        ),
        count("sched.submit_calls", probe.sched_submit.calls()),
        metric("sched.submit_busy_s", probe.sched_submit.busy_s(), "s"),
        count("cache.l1_accesses", c("cache.l1_accesses")),
        count("cache.l2_accesses", c("cache.l2_accesses")),
        count("cache.l2_misses", c("cache.l2_misses")),
        metric(
            "cache.l2_miss_pct",
            pct(c("cache.l2_misses"), c("cache.l2_accesses")),
            "%",
        ),
        metric(
            "cpu.cpi_base",
            ratio(c("cpu.base_cycles") as f64, instructions),
            "cycles",
        ),
        metric(
            "cpu.cpi_l2",
            ratio(c("cpu.l2_stall_cycles") as f64, instructions),
            "cycles",
        ),
        metric(
            "cpu.cpi_mem",
            ratio(c("cpu.mem_stall_cycles") as f64, instructions),
            "cycles",
        ),
        metric("mem.bus_util_pct", probe.bus_util_pct(), "%"),
        count("stealing.ways_stolen", c("stealing.ways_stolen")),
        count("stealing.intervals", c("stealing.intervals")),
        count("stealing.cancelled", c("stealing.cancelled")),
        count("lac.admission_tests", c("lac.admission_tests")),
        count("lac.calls", probe.lac.calls()),
        metric("lac.busy_s", probe.lac.busy_s(), "s"),
        metric("cluster.run_self_s", cluster_self, "s"),
        metric("gac.submit_busy_s", probe.gac_submit.busy_s(), "s"),
        count("gac.conversations", c("gac.conversations")),
        metric(
            "gac.conversations_per_decision",
            ratio(c("gac.conversations") as f64, t.ops),
            "count",
        ),
        count("gac.retransmits", c("gac.retransmits")),
        count("gac.stale_replies", c("gac.stale_replies")),
        count("gac.gave_up", c("gac.gave_up")),
        count("net.sent", c("net.sent")),
        count("net.delivered", c("net.delivered")),
        count("net.dropped", c("net.dropped")),
        count("net.duplicated", c("net.duplicated")),
        count("intake.offer_calls", probe.intake_offer.calls()),
        metric("intake.offer_busy_s", probe.intake_offer.busy_s(), "s"),
        count("intake.drain_calls", probe.intake_drain.calls()),
        metric("intake.drain_busy_s", probe.intake_drain.busy_s(), "s"),
        metric("intake.shed_pct", pct(c("intake.shed"), t.offered), "%"),
        count("intake.breaker_trips", c("intake.breaker_trips")),
        count("scenario.arrivals", c("scenario.arrivals")),
        metric("scenario.timeline_s", probe.timeline.busy_s(), "s"),
        count("obs.events", probe.obs.calls()),
        metric("obs.busy_s", obs_s, "s"),
        count(
            "obs.enabled_checks",
            probe
                .obs_enabled_checks
                .load(std::sync::atomic::Ordering::Relaxed),
        ),
        metric(
            "trace_overhead_pct",
            100.0 * (traced_s - untraced_s) / untraced_s.max(1e-9),
            "%",
        ),
    ]
}

/// The commit the benchmark was built from, read from `.git` in the
/// working directory; `unknown` outside a git checkout.
pub fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(&format!(".git/{reference}")) {
        return sha.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `model name` of the first CPU in `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: every digit Rust's shortest round-trip form gives;
/// non-finite values (never expected) become 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A global allocator that forwards to the system allocator and keeps the
/// high-water mark of live heap bytes. Unlike `VmHWM`, the mark does not
/// depend on how the allocator happens to reuse or return memory, so it
/// repeats exactly for a given seed.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments, so
// `System`'s guarantees hold; the counters only observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // Counted as the new block arriving before the old one leaves,
            // the worst case of a moving reallocation.
            grow(new_size);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        p
    }
}

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

/// Starts a new heap high-water mark from the bytes live now, which it
/// returns.
pub fn heap_mark() -> usize {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// Heap bytes above `mark` at the high-water mark since [`heap_mark`], in
/// MiB (0 unless [`CountingAlloc`] is the global allocator).
pub fn heap_peak_mib_since(mark: usize) -> f64 {
    PEAK.load(Relaxed).saturating_sub(mark) as f64 / (1024.0 * 1024.0)
}
