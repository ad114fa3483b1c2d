//! Cross-layer crash-consistency contract of the `cmpqos-recovery`
//! write-ahead journal: for *any* operation sequence, recovering from the
//! serialized journal reconstructs the exact controller — the recovered
//! and original instances make identical subsequent admission decisions —
//! and a corrupted journal tail is truncated at the last valid checksum
//! instead of panicking or replaying garbage.

use cmpqos::qos::{
    AdmissionRequest, ExecutionMode, Lac, LacConfig, NetGacConfig, ProbePolicy, ResourceRequest,
};
use cmpqos::recovery::{JournaledCluster, JournaledLac};
use cmpqos::types::{Cycles, JobId, Percent, Ways};
use proptest::prelude::*;

const COMPACT_EVERY: u64 = 8;

/// One fuzzed journal op: `(kind, a, b)` small integers decoded by the
/// apply functions (the vendored proptest has no `prop_map`, so the raw
/// tuple is the strategy's value type).
type FuzzOp = (u8, u64, u64);

fn mode_of(b: u64) -> ExecutionMode {
    match b % 3 {
        0 => ExecutionMode::Strict,
        1 => ExecutionMode::Elastic(Percent::new(5.0)),
        _ => ExecutionMode::Opportunistic,
    }
}

/// Drives a [`JournaledLac`] through the decoded op sequence; the clock
/// only moves forward so every op is legal at its replay position.
fn apply_lac(lac: &mut JournaledLac, ops: &[FuzzOp]) {
    let mut now = 0u64;
    for (i, &(kind, a, b)) in ops.iter().enumerate() {
        let id = JobId::new(i as u32);
        match kind % 6 {
            0 | 1 => {
                let mut req = AdmissionRequest::builder(
                    id,
                    ResourceRequest::paper_job(),
                    Cycles::new(500 + a % 2_000),
                )
                .mode(mode_of(b));
                if b % 2 == 0 {
                    req = req.deadline(Cycles::new(now + 5_000 + a));
                }
                let _ = lac.admit(&req.build());
            }
            2 => {
                now += a % 1_500;
                lac.advance(Cycles::new(now));
            }
            3 => lac.release(JobId::new((a % (i as u64 + 1)) as u32), Cycles::new(now)),
            4 => lac.cancel(JobId::new((a % (i as u64 + 1)) as u32)),
            _ => {
                let ways = 8 + (b % 9) as u16;
                let _ =
                    lac.revoke_capacity(ResourceRequest::new(4, Ways::new(ways)), Cycles::new(now));
            }
        }
    }
}

/// The post-recovery probe: both controllers decide an identical stream of
/// fresh admissions, so divergence in any internal table surfaces.
fn probe_decisions(lac: &mut JournaledLac, tag: u32) -> Vec<String> {
    (0..8u32)
        .map(|i| {
            let req = AdmissionRequest::builder(
                JobId::new(1_000 + tag * 100 + i),
                ResourceRequest::paper_job(),
                Cycles::new(700 + u64::from(i) * 131),
            )
            .mode(mode_of(u64::from(i)))
            .deadline(Cycles::new(50_000 + u64::from(i) * 997))
            .build();
            let d = lac.admit(&req);
            format!("{d:?}")
        })
        .collect()
}

fn op_strategy() -> impl Strategy<Value = Vec<FuzzOp>> {
    proptest::collection::vec((0u8..6, 0u64..10_000, 0u64..64), 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any op sequence → serialize → recover: the recovered LAC holds the
    /// same reservation table and makes byte-identical subsequent
    /// decisions, with zero reported loss.
    #[test]
    fn recovery_reconstructs_the_exact_lac(ops in op_strategy()) {
        let mut live = JournaledLac::new(Lac::new(LacConfig::default()), COMPACT_EVERY);
        apply_lac(&mut live, &ops);
        let (mut recovered, report) = JournaledLac::recover(&live.to_jsonl(), COMPACT_EVERY);
        prop_assert!(report.is_lossless(), "intact journal lost records: {report:?}");
        prop_assert_eq!(recovered.lac(), live.lac());

        // The journaled pair keeps deciding identically after recovery.
        let mut original = live;
        prop_assert_eq!(
            probe_decisions(&mut recovered, 1),
            probe_decisions(&mut original, 1)
        );
    }

    /// Flipping any single byte of the journal never panics recovery: the
    /// corrupt record and everything after it are dropped, everything
    /// before it replays, and the loss is reported.
    #[test]
    fn corrupted_tails_truncate_cleanly_without_panicking(
        ops in op_strategy(),
        flip_pos in 0usize..10_000,
        flip_bit in 0u8..8,
    ) {
        let mut live = JournaledLac::new(Lac::new(LacConfig::default()), COMPACT_EVERY);
        apply_lac(&mut live, &ops);
        let jsonl = live.to_jsonl();
        let mut bytes = jsonl.clone().into_bytes();
        let pos = flip_pos % bytes.len();
        bytes[pos] ^= 1 << flip_bit;
        let corrupt = String::from_utf8_lossy(&bytes).into_owned();

        let (recovered, report) = JournaledLac::recover(&corrupt, COMPACT_EVERY);
        let lines = jsonl.lines().count() as u64;
        prop_assert!(
            report.lost <= lines,
            "lost more than the whole journal: {report:?} vs {lines} lines"
        );
        // The recovered controller is still a working admission controller.
        let mut r = recovered;
        let _ = r.admit(
            &AdmissionRequest::builder(
                JobId::new(9_999),
                ResourceRequest::paper_job(),
                Cycles::new(1_000),
            )
            .mode(ExecutionMode::Strict)
            .build(),
        );
    }

    /// The same contract end-to-end for the global controller: crash after
    /// any input sequence, recover, and the whole multi-node server (health
    /// map, placements, decisions, every node's FCFS table) is
    /// byte-identical.
    #[test]
    fn recovery_reconstructs_the_exact_gac(
        ops in proptest::collection::vec((0u8..5, 0u64..8_000, 0u64..64), 1..40),
    ) {
        let mut live = JournaledCluster::new(
            3,
            LacConfig::default(),
            NetGacConfig::default(),
            ProbePolicy::LeastLoaded,
        );
        let rec = &mut cmpqos::obs::NullRecorder;
        let mut now = 0u64;
        for (i, &(kind, a, b)) in ops.iter().enumerate() {
            match kind {
                0 | 1 => {
                    let req = AdmissionRequest::builder(
                        JobId::new(i as u32),
                        ResourceRequest::paper_job(),
                        Cycles::new(500 + a % 2_000),
                    )
                    .mode(mode_of(b))
                    .deadline(Cycles::new(now + 30_000))
                    .build();
                    live.submit(req, Cycles::new(now), rec);
                }
                2 => {
                    now += a % 1_500;
                    live.run_until(Cycles::new(now), rec);
                }
                3 => live.revoke(JobId::new((a % (i as u64 + 1)) as u32)),
                _ => {
                    let node = cmpqos::types::NodeId::new((b % 3) as u32);
                    let fault = match a % 3 {
                        0 => cmpqos::faults::Fault::WayFault { node, way: 0 },
                        1 => cmpqos::faults::Fault::ProbeLoss { node, count: 1 },
                        _ => cmpqos::faults::Fault::NodeFault { node },
                    };
                    live.apply(cmpqos::faults::Injection { at: Cycles::new(now), fault }, rec);
                }
            }
        }
        let (recovered, report) = JournaledCluster::recover(&live.to_jsonl());
        prop_assert!(report.is_lossless(), "intact journal lost records: {report:?}");
        // Debug renders every table, queue, the network, and its RNG.
        prop_assert_eq!(format!("{:?}", recovered.cluster()), format!("{:?}", live.cluster()));
        prop_assert_eq!(recovered.journal().next_seq(), live.journal().next_seq());
    }
}
