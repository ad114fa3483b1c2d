//! Timing wrappers for the seams the benchmark hands to the program, and
//! the per-layer tallies they fill.
//!
//! Each wrapper forwards every call unchanged, so a traced run makes the
//! same decisions as an untraced one (`tests/traced.rs` checks this on all
//! four workloads). Spans are recorded around calls the benchmark makes
//! itself; nothing inside the program is instrumented.

use cmpqos_core::{AdmissionRequest, Decision, LacBackend, Reservation};
use cmpqos_obs::{Event, NullRecorder, Recorder};
use cmpqos_trace::{InstrEvent, TraceSource};
use cmpqos_types::{Cycles, JobId};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Only one call in this many is timed where a call costs about as much
/// as reading the clock (trace generation, intake offers): timing every
/// call would mostly measure the clock.
pub const SAMPLE_EVERY: u64 = 16;

/// Host cost of one `Instant::now()` pair, subtracted from every span so a
/// span measures the call and not the clock.
fn clock_ns() -> u64 {
    static COST: OnceLock<u64> = OnceLock::new();
    *COST.get_or_init(|| {
        let mut costs: Vec<u64> = (0..2_001)
            .map(|_| {
                let t = Instant::now();
                t.elapsed().as_nanos() as u64
            })
            .collect();
        costs.sort_unstable();
        costs[costs.len() / 2]
    })
}

/// Nanoseconds since `start`, less the clock's own cost.
fn span_ns(start: Instant) -> u64 {
    (start.elapsed().as_nanos() as u64).saturating_sub(clock_ns())
}

/// Calls into one layer and the host time they took, from every call or
/// from a sample of them.
#[derive(Debug, Default)]
pub struct Tally {
    calls: AtomicU64,
    timed: AtomicU64,
    timed_ns: AtomicU64,
}

impl Tally {
    /// Runs `f` as one timed call.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.add(1, 1, span_ns(start));
        out
    }

    /// Runs `f` as one call, timing only every `every`-th call: for calls
    /// that cost about as much as reading the clock.
    pub fn time_sampled<R>(&self, every: u64, f: impl FnOnce() -> R) -> R {
        let n = self.calls.fetch_add(1, Relaxed) + 1;
        if !n.is_multiple_of(every) {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.add(0, 1, span_ns(start));
        out
    }

    fn add(&self, calls: u64, timed: u64, timed_ns: u64) {
        self.calls.fetch_add(calls, Relaxed);
        self.timed.fetch_add(timed, Relaxed);
        self.timed_ns.fetch_add(timed_ns, Relaxed);
    }

    /// Calls made.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Host seconds spent inside the calls: the mean timed call times
    /// every call made.
    pub fn busy_s(&self) -> f64 {
        let timed = self.timed.load(Relaxed);
        if timed == 0 {
            return 0.0;
        }
        self.timed_ns.load(Relaxed) as f64 * 1e-9 * self.calls() as f64 / timed as f64
    }

    /// Calls that were timed (each carries a clock pair's cost into any
    /// enclosing span).
    fn timed_calls(&self) -> u64 {
        self.timed.load(Relaxed)
    }
}

/// Every tally of one traced run. Statistics only: no other data is
/// published through these atomics, so `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct Probe {
    /// `TraceSource::next_instruction`, one call in [`SAMPLE_EVERY`] timed.
    pub trace: Tally,
    /// `Calibrator::tw` on a fresh calibrator: one call per solo run.
    pub calibrate: Tally,
    /// `QosScheduler::run_until`/`run_to_idle` and `CmpNode::run_until`/
    /// `run_to_completion`.
    pub sched_run: Tally,
    /// `QosScheduler::submit` and `CmpNode::spawn`.
    pub sched_submit: Tally,
    /// `LacBackend` calls of every cluster node.
    pub lac: Tally,
    /// `Cluster::run_until`.
    pub cluster_run: Tally,
    /// `NetGac::submit`.
    pub gac_submit: Tally,
    /// `AdmissionIntake::offer`, one call in [`SAMPLE_EVERY`] timed.
    pub intake_offer: Tally,
    /// `AdmissionIntake::drain` (includes the LAC batch it runs).
    pub intake_drain: Tally,
    /// `scenario::timeline`.
    pub timeline: Tally,
    /// `Recorder::record` (calls) and `record`/`flush` (time).
    pub obs: Tally,
    /// `Recorder::enabled` queries (counted, not timed: each is a load).
    pub obs_enabled_checks: AtomicU64,
    /// Sampled memory-bus utilization, in parts per million, and samples.
    bus_util_ppm: AtomicU64,
    bus_samples: AtomicU64,
}

impl Probe {
    /// A fresh, shareable probe.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Host seconds the wrappers' own clock reads added inside the
    /// scheduler's and the cluster's spans (trace samples, recorder and
    /// LAC calls), to be taken out of their self time.
    pub fn nested_clock_s(&self) -> f64 {
        let pairs = self.trace.timed_calls() + self.obs.timed_calls() + self.lac.timed_calls();
        pairs as f64 * clock_ns() as f64 * 1e-9
    }

    /// Adds one `CmpNode::bus_utilization` sample (a fraction).
    pub fn sample_bus(&self, utilization: f64) {
        self.bus_util_ppm
            .fetch_add((utilization * 1e6).round() as u64, Relaxed);
        self.bus_samples.fetch_add(1, Relaxed);
    }

    /// Mean sampled memory-bus utilization in percent (0 when unsampled).
    pub fn bus_util_pct(&self) -> f64 {
        let n = self.bus_samples.load(Relaxed);
        if n == 0 {
            return 0.0;
        }
        self.bus_util_ppm.load(Relaxed) as f64 / n as f64 * 1e-4
    }
}

/// A [`TraceSource`] that counts every instruction and times one in
/// [`SAMPLE_EVERY`]. Tallies are kept locally and added to the probe when
/// the source is dropped, so the hot path touches no shared state.
pub struct TracedSource {
    inner: Box<dyn TraceSource>,
    probe: Arc<Probe>,
    calls: u64,
    sampled: u64,
    sampled_ns: u64,
}

impl TracedSource {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn TraceSource>, probe: &Arc<Probe>) -> Self {
        Self {
            inner,
            probe: Arc::clone(probe),
            calls: 0,
            sampled: 0,
            sampled_ns: 0,
        }
    }
}

impl TraceSource for TracedSource {
    fn next_instruction(&mut self) -> InstrEvent {
        self.calls += 1;
        if !self.calls.is_multiple_of(SAMPLE_EVERY) {
            return self.inner.next_instruction();
        }
        let start = Instant::now();
        let event = self.inner.next_instruction();
        self.sampled_ns += span_ns(start);
        self.sampled += 1;
        event
    }

    fn base_cpi(&self) -> f64 {
        self.inner.base_cpi()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

impl Drop for TracedSource {
    fn drop(&mut self) {
        self.probe
            .trace
            .add(self.calls, self.sampled, self.sampled_ns);
    }
}

/// A [`Recorder`] that counts and times every call into the sink it wraps.
pub struct CountingRecorder {
    inner: Box<dyn Recorder>,
    probe: Arc<Probe>,
}

impl CountingRecorder {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Recorder>, probe: &Arc<Probe>) -> Self {
        Self {
            inner,
            probe: Arc::clone(probe),
        }
    }
}

impl Recorder for CountingRecorder {
    fn record(&mut self, at: Cycles, event: Event) {
        let inner = &mut self.inner;
        self.probe.obs.time(|| inner.record(at, event));
    }

    fn enabled(&self) -> bool {
        self.probe.obs_enabled_checks.fetch_add(1, Relaxed);
        self.inner.enabled()
    }

    fn flush(&mut self) {
        let start = Instant::now();
        self.inner.flush();
        self.probe.obs.add(0, 1, span_ns(start));
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }
}

/// A [`LacBackend`] that counts and times every state-changing call into
/// the backend it wraps.
#[derive(Debug)]
pub struct TimedLac<B> {
    inner: B,
    probe: Arc<Probe>,
}

impl<B> TimedLac<B> {
    /// Wraps `inner`.
    pub fn new(inner: B, probe: &Arc<Probe>) -> Self {
        Self {
            inner,
            probe: Arc::clone(probe),
        }
    }

    fn time<R>(&mut self, f: impl FnOnce(&mut B) -> R) -> R {
        let inner = &mut self.inner;
        self.probe.lac.time(|| f(inner))
    }
}

impl<B: LacBackend> LacBackend for TimedLac<B> {
    fn now(&self) -> Cycles {
        self.inner.now()
    }

    fn advance(&mut self, now: Cycles) {
        self.time(|b| b.advance(now));
    }

    fn admit(&mut self, req: &AdmissionRequest) -> Decision {
        self.time(|b| b.admit(req))
    }

    fn readmit(&mut self, r: &Reservation) -> Decision {
        self.time(|b| b.readmit(r))
    }

    fn cancel(&mut self, id: JobId) {
        self.time(|b| b.cancel(id));
    }

    fn reservations(&self) -> Vec<Reservation> {
        self.probe.lac.time(|| self.inner.reservations())
    }
}

/// The event sink a cell hands to the program: the recorder-off
/// [`NullRecorder`], wrapped in a [`CountingRecorder`] when traced.
pub fn recorder(probe: Option<&Arc<Probe>>) -> Box<dyn Recorder> {
    match probe {
        Some(p) => Box::new(CountingRecorder::new(Box::new(NullRecorder), p)),
        None => Box::new(NullRecorder),
    }
}

/// Times `f` as one call of `tally` when a probe is attached; otherwise
/// just runs it.
pub fn timed<R>(
    probe: Option<&Arc<Probe>>,
    tally: fn(&Probe) -> &Tally,
    f: impl FnOnce() -> R,
) -> R {
    match probe {
        Some(p) => tally(p).time(f),
        None => f(),
    }
}
