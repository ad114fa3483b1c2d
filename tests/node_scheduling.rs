//! Integration tests of the OS-layer scheduling mechanisms: timesharing
//! fairness, context-switch effects, preemption and partition retargeting.

use cmpqos::system::{CmpNode, Placement, SystemConfig, TaskSpec};
use cmpqos::trace::spec;
use cmpqos::types::{CoreId, Cycles, Instructions, JobId, Ways};

const K: u64 = 16;

fn node() -> CmpNode {
    CmpNode::new(SystemConfig::paper_scaled(K))
}

fn task(id: u32, bench: &str, budget: u64, placement: Placement) -> TaskSpec {
    TaskSpec {
        id: JobId::new(id),
        source: Box::new(
            spec::scaled(bench, K)
                .unwrap()
                .instantiate(u64::from(id), (u64::from(id) + 1) << 40),
        ),
        budget: Instructions::new(budget),
        placement,
        reserved: matches!(placement, Placement::Pinned(_)),
    }
}

#[test]
fn round_robin_timesharing_is_roughly_fair() {
    let mut n = node();
    n.set_l2_targets(&[Ways::new(4); 4]).unwrap();
    // Four floating gobmk tasks on four cores: each should get its own
    // core (work conserving), so progress is near-identical.
    for i in 0..4 {
        n.spawn(task(i, "gobmk", 10_000_000, Placement::Floating))
            .unwrap();
    }
    n.run_until(Cycles::new(2_000_000));
    let progress: Vec<u64> = (0..4)
        .map(|i| n.perf(JobId::new(i)).unwrap().instructions().get())
        .collect();
    let max = *progress.iter().max().unwrap() as f64;
    let min = *progress.iter().min().unwrap() as f64;
    assert!(min > 0.0, "everyone ran: {progress:?}");
    assert!(min / max > 0.7, "fair split: {progress:?}");
}

#[test]
fn eight_floating_tasks_share_four_cores() {
    let mut n = node();
    n.set_l2_targets(&[Ways::new(4); 4]).unwrap();
    for i in 0..8 {
        n.spawn(task(i, "gobmk", 10_000_000, Placement::Floating))
            .unwrap();
    }
    n.run_until(Cycles::new(4_000_000));
    let progress: Vec<u64> = (0..8)
        .map(|i| n.perf(JobId::new(i)).unwrap().instructions().get())
        .collect();
    assert!(
        progress.iter().all(|&p| p > 0),
        "round robin reaches every task: {progress:?}"
    );
    let max = *progress.iter().max().unwrap() as f64;
    let min = *progress.iter().min().unwrap() as f64;
    assert!(min / max > 0.4, "no starvation: {progress:?}");
}

#[test]
fn context_switches_cost_time() {
    // One core, two floating tasks: their combined throughput is lower
    // than one task of double length (switch cost + L1 cold misses).
    let mut solo = CmpNode::new(SystemConfig {
        num_cores: 1,
        ..SystemConfig::paper_scaled(K)
    });
    solo.set_l2_targets(&[Ways::new(16)]).unwrap();
    solo.spawn(task(0, "gobmk", 400_000, Placement::Floating))
        .unwrap();
    let solo_end = solo.run_to_completion(Cycles::new(u64::MAX / 4));

    let mut shared = CmpNode::new(SystemConfig {
        num_cores: 1,
        timeslice: Cycles::new(20_000), // aggressive switching
        ..SystemConfig::paper_scaled(K)
    });
    shared.set_l2_targets(&[Ways::new(16)]).unwrap();
    shared
        .spawn(task(0, "gobmk", 200_000, Placement::Floating))
        .unwrap();
    shared
        .spawn(task(1, "gobmk", 200_000, Placement::Floating))
        .unwrap();
    let shared_end = shared.run_to_completion(Cycles::new(u64::MAX / 4));

    assert!(
        shared_end > solo_end,
        "same total work with switching must take longer: {shared_end} vs {solo_end}"
    );
}

#[test]
fn repartitioning_mid_run_changes_performance() {
    // Start bzip2 with 2 ways, then grant it 14: the post-grant interval
    // must run at a lower CPI.
    let mut n = node();
    n.set_l2_targets(&[Ways::new(2), Ways::ZERO, Ways::ZERO, Ways::ZERO])
        .unwrap();
    n.spawn(task(
        0,
        "bzip2",
        2_000_000,
        Placement::Pinned(CoreId::new(0)),
    ))
    .unwrap();
    n.run_until(Cycles::new(1_500_000));
    let before = *n.perf(JobId::new(0)).unwrap();
    n.set_l2_targets(&[Ways::new(14), Ways::ZERO, Ways::ZERO, Ways::ZERO])
        .unwrap();
    n.run_until(Cycles::new(6_000_000));
    let after = n.perf(JobId::new(0)).unwrap().delta_since(&before);
    let cpi_before = before.cpi();
    let cpi_after = after.cpi();
    assert!(
        cpi_after < cpi_before * 0.92,
        "more ways must speed bzip2 up: {cpi_before:.2} -> {cpi_after:.2}"
    );
}

#[test]
fn bus_utilization_rises_with_streaming_load() {
    let mut idle = node();
    idle.set_l2_targets(&[Ways::new(4); 4]).unwrap();
    idle.spawn(task(0, "namd", 100_000, Placement::Pinned(CoreId::new(0))))
        .unwrap();
    idle.run_until(Cycles::new(400_000));
    let low = idle.bus_utilization();

    let mut busy = node();
    busy.set_l2_targets(&[Ways::new(4); 4]).unwrap();
    for i in 0..4 {
        busy.spawn(task(
            i,
            "milc",
            1_000_000,
            Placement::Pinned(CoreId::new(i)),
        ))
        .unwrap();
    }
    busy.run_until(Cycles::new(400_000));
    let high = busy.bus_utilization();
    assert!(
        high > low,
        "four milc streams must load the bus more: {high} vs {low}"
    );
    assert!(high > 0.05, "streaming load is visible: {high}");
}

#[test]
fn equal_part_style_timesharing_misses_more_than_dedicated() {
    // Ten floating gobmk jobs vs two pinned ones: per-job wall-clock is
    // much higher when overcommitted, the EqualPart effect behind
    // Figure 6's candles.
    let mut over = CmpNode::new(SystemConfig {
        timeslice: Cycles::new(20_000),
        context_switch_cost: Cycles::new(500),
        ..SystemConfig::paper_scaled(K)
    });
    over.set_l2_targets(&[Ways::new(4); 4]).unwrap();
    for i in 0..10 {
        over.spawn(task(i, "gobmk", 100_000, Placement::Floating))
            .unwrap();
    }
    over.run_to_completion(Cycles::new(u64::MAX / 4));
    let over_wall: Vec<u64> = (0..10)
        .map(|i| {
            let c = over.completion(JobId::new(i)).unwrap();
            (c.finished_at - c.started_at).get()
        })
        .collect();

    let mut dedicated = node();
    dedicated
        .set_l2_targets(&[Ways::new(7), Ways::new(7), Ways::ZERO, Ways::ZERO])
        .unwrap();
    dedicated
        .spawn(task(0, "gobmk", 100_000, Placement::Pinned(CoreId::new(0))))
        .unwrap();
    dedicated.run_to_completion(Cycles::new(u64::MAX / 4));
    let ded = dedicated.completion(JobId::new(0)).unwrap();
    let ded_wall = (ded.finished_at - ded.started_at).get();

    let mean_over = over_wall.iter().sum::<u64>() / 10;
    assert!(
        mean_over > ded_wall * 2,
        "overcommit stretches wall-clock: {mean_over} vs {ded_wall}"
    );
}

// ----- golden schedule digests ---------------------------------------------
//
// Each scenario below drives a node through a fixed sequence of spawns,
// mid-run reconfigurations and `run_until` deadlines, and folds every
// task's `PerfCounters` and `TaskCompletion` (plus, where attached, its
// monitor counts and which task each core runs) into one FNV-1a digest at
// every checkpoint. The digests pin the exact instruction schedule: any
// change to which core runs next, how ties break, when a quantum rotates
// or when a task is picked up moves them.

/// FNV-1a over the `Debug` rendering of everything fed to it.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, value: &impl std::fmt::Debug) {
        for b in format!("{value:?}").bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Every id's counters and completion record, and each core's occupant.
    fn checkpoint(&mut self, n: &CmpNode, ids: &[u32]) {
        self.feed(&n.now());
        for &i in ids {
            let id = JobId::new(i);
            self.feed(&(i, n.perf(id), n.completion(id), n.remaining(id)));
            if let Some(m) = n.monitor(id) {
                self.feed(&m.counts());
            }
        }
        for c in 0..n.config().num_cores as u32 {
            self.feed(&n.running_on(CoreId::new(c)));
        }
    }
}

/// Runs `n` to `t`, checkpointing `ids` into `d`.
fn step(n: &mut CmpNode, d: &mut Digest, t: u64, ids: &[u32]) {
    n.run_until(Cycles::new(t));
    d.checkpoint(n, ids);
}

fn finish(mut n: CmpNode, mut d: Digest, ids: &[u32]) -> u64 {
    let end = n.run_to_completion(Cycles::new(u64::MAX / 4));
    d.feed(&end);
    d.feed(&n.take_completions());
    d.checkpoint(&n, ids);
    d.0
}

#[test]
fn golden_four_pinned_jobs_with_tied_clocks() {
    // Four pinned jobs all start at cycle 0, so every core's clock is
    // tied at the first pick; deadlines land mid-instruction.
    let mut n = node();
    n.set_l2_targets(&[Ways::new(4); 4]).unwrap();
    let benches = ["gobmk", "bzip2", "namd", "gobmk"];
    for (i, b) in benches.iter().enumerate() {
        let i = i as u32;
        n.spawn(task(i, b, 60_000, Placement::Pinned(CoreId::new(i))))
            .unwrap();
    }
    let ids = [0, 1, 2, 3];
    let mut d = Digest::new();
    for t in [1, 2, 3, 50, 1_000, 33_333, 100_001] {
        step(&mut n, &mut d, t, &ids);
    }
    assert_eq!(finish(n, d, &ids), 0xf8e3_73b7_a83e_4a5b);
}

#[test]
fn golden_ten_floating_jobs_rotate_and_switch() {
    let mut n = CmpNode::new(SystemConfig {
        timeslice: Cycles::new(15_000),
        context_switch_cost: Cycles::new(700),
        flush_l1_on_switch: true,
        ..SystemConfig::paper_scaled(K)
    });
    n.set_l2_targets(&[Ways::new(4); 4]).unwrap();
    let benches = ["libquantum", "gobmk", "bzip2", "mcf", "namd"];
    for i in 0..10u32 {
        let b = benches[i as usize % benches.len()];
        n.spawn(task(
            i,
            b,
            25_000 + 3_000 * u64::from(i),
            Placement::Floating,
        ))
        .unwrap();
    }
    let ids: Vec<u32> = (0..10).collect();
    let mut d = Digest::new();
    for t in [10_000, 15_000, 15_001, 90_000, 400_000] {
        step(&mut n, &mut d, t, &ids);
    }
    assert_eq!(finish(n, d, &ids), 0xa8fc_8eb1_4c92_37c6);
}

#[test]
fn golden_repin_and_set_reserved_mid_run() {
    let mut n = CmpNode::new(SystemConfig {
        timeslice: Cycles::new(20_000),
        ..SystemConfig::paper_scaled(K)
    });
    n.set_l2_targets(&[Ways::new(6), Ways::new(4), Ways::new(3), Ways::new(3)])
        .unwrap();
    n.spawn(task(0, "bzip2", 80_000, Placement::Pinned(CoreId::new(0))))
        .unwrap();
    for i in 1..6u32 {
        n.spawn(task(i, "gobmk", 40_000, Placement::Floating))
            .unwrap();
    }
    let ids: Vec<u32> = (0..7).collect();
    let mut d = Digest::new();
    step(&mut n, &mut d, 30_000, &ids);
    // Re-pin a floating task onto a core another floating task runs on.
    n.repin(JobId::new(3), CoreId::new(2)).unwrap();
    n.set_reserved(JobId::new(3), true);
    step(&mut n, &mut d, 60_000, &ids);
    n.set_reserved(JobId::new(0), false);
    n.set_reserved(JobId::new(4), true);
    // A late pinned spawn preempts whatever floats on core 1.
    n.spawn(task(6, "namd", 30_000, Placement::Pinned(CoreId::new(1))))
        .unwrap();
    step(&mut n, &mut d, 120_000, &ids);
    n.repin(JobId::new(5), CoreId::new(3)).unwrap();
    step(&mut n, &mut d, 200_000, &ids);
    assert_eq!(finish(n, d, &ids), 0xe639_d457_1b0d_b795);
}

#[test]
fn golden_masked_l2_way_mid_run() {
    let mut n = node();
    n.set_l2_targets(&[Ways::new(5), Ways::new(5), Ways::new(3), Ways::new(3)])
        .unwrap();
    for i in 0..4u32 {
        let b = if i % 2 == 0 { "bzip2" } else { "mcf" };
        n.spawn(task(i, b, 50_000, Placement::Pinned(CoreId::new(i))))
            .unwrap();
    }
    let ids = [0, 1, 2, 3];
    let mut d = Digest::new();
    step(&mut n, &mut d, 80_000, &ids);
    let evicted = n.mask_l2_way(3).unwrap();
    d.feed(&evicted.len());
    step(&mut n, &mut d, 160_000, &ids);
    n.mask_l2_way(11).unwrap();
    step(&mut n, &mut d, 240_000, &ids);
    assert_eq!(finish(n, d, &ids), 0xe1de_1ff1_d3b2_0475);
}

#[test]
fn golden_throttled_core_and_bandwidth_share() {
    let mut n = node();
    n.set_l2_targets(&[Ways::new(4); 4]).unwrap();
    n.set_core_speed(CoreId::new(1), 50);
    n.set_core_speed(CoreId::new(2), 75);
    n.set_bandwidth_share(CoreId::new(0), 20);
    n.set_bandwidth_share(CoreId::new(3), 35);
    let benches = ["libquantum", "gobmk", "bzip2", "mcf"];
    for (i, b) in benches.iter().enumerate() {
        let i = i as u32;
        n.spawn(task(i, b, 40_000, Placement::Pinned(CoreId::new(i))))
            .unwrap();
    }
    let ids = [0, 1, 2, 3];
    let mut d = Digest::new();
    step(&mut n, &mut d, 100_000, &ids);
    n.set_core_speed(CoreId::new(1), 100);
    n.set_bandwidth_share(CoreId::new(0), 100);
    step(&mut n, &mut d, 200_000, &ids);
    assert_eq!(finish(n, d, &ids), 0x2c12_21ba_09d0_01bc);
}

#[test]
fn golden_attached_monitors() {
    let mut n = CmpNode::new(SystemConfig {
        timeslice: Cycles::new(25_000),
        ..SystemConfig::paper_scaled(K)
    });
    n.set_l2_targets(&[Ways::new(7), Ways::new(5), Ways::new(2), Ways::new(2)])
        .unwrap();
    n.spawn(task(0, "bzip2", 60_000, Placement::Pinned(CoreId::new(0))))
        .unwrap();
    n.spawn(task(1, "mcf", 60_000, Placement::Pinned(CoreId::new(1))))
        .unwrap();
    for i in 2..5u32 {
        n.spawn(task(i, "gobmk", 30_000, Placement::Floating))
            .unwrap();
    }
    n.attach_monitor(JobId::new(0), Ways::new(7));
    n.attach_monitor(JobId::new(1), Ways::new(7));
    n.attach_monitor(JobId::new(3), Ways::new(2));
    let ids: Vec<u32> = (0..5).collect();
    let mut d = Digest::new();
    step(&mut n, &mut d, 70_000, &ids);
    // Stealing-style shrink mid-run: the monitors keep the old allocation.
    n.set_l2_targets(&[Ways::new(4), Ways::new(4), Ways::new(4), Ways::new(4)])
        .unwrap();
    step(&mut n, &mut d, 150_000, &ids);
    let detached = n.detach_monitor(JobId::new(3)).map(|m| m.counts());
    d.feed(&detached);
    assert_eq!(finish(n, d, &ids), 0xab54_2400_f46e_4f58);
}

#[test]
fn golden_pin_preempts_a_float_past_an_idle_lower_core() {
    // Dispatch scans cores in index order, so the floating task a new pin
    // preempts on core 2 is only picked up by idle core 0 on the next
    // dispatch: the run loop must dispatch again after a dispatch that
    // changed something.
    let mut n = node();
    n.set_l2_targets(&[Ways::new(4); 4]).unwrap();
    n.spawn(task(0, "namd", 5_000, Placement::Pinned(CoreId::new(0))))
        .unwrap();
    n.spawn(task(1, "gobmk", 60_000, Placement::Pinned(CoreId::new(1))))
        .unwrap();
    n.spawn(task(3, "bzip2", 60_000, Placement::Pinned(CoreId::new(3))))
        .unwrap();
    n.spawn(task(4, "gobmk", 60_000, Placement::Floating))
        .unwrap();
    let ids = [0, 1, 2, 3, 4];
    let mut d = Digest::new();
    step(&mut n, &mut d, 100_000, &ids);
    assert!(n.completion(JobId::new(0)).is_some());
    assert_eq!(n.running_on(CoreId::new(0)), None);
    assert_eq!(n.running_on(CoreId::new(2)), Some(JobId::new(4)));
    n.spawn(task(2, "namd", 20_000, Placement::Pinned(CoreId::new(2))))
        .unwrap();
    step(&mut n, &mut d, 200_000, &ids);
    assert_eq!(n.running_on(CoreId::new(0)), Some(JobId::new(4)));
    assert_eq!(finish(n, d, &ids), 0x01c0_c97b_8d6e_545e);
}
