//! Write-ahead journaling for the Global Admission Controller: a journal
//! of every input its [`Cluster`] receives.
//!
//! A cluster is a deterministic function of its inputs — submissions,
//! revocations, fault injections, membership steps, and the cycles it is
//! run to — so its inputs are its state. Recovery replays them into a
//! fresh in-process cluster with a silent recorder. The nodes' tables come
//! back with everything else: a dead node's LAC is rebuilt still holding
//! the reservations the GAC evacuated, and the rebuilt GAC knows they
//! moved, so nothing is adopted twice.
//!
//! The journal is never compacted: it holds every input since the cluster
//! was built.

use crate::journal::Journal;
use crate::RecoveryReport;
use cmpqos_core::{AdmissionRequest, Cluster, Lac, LacConfig, NetGacConfig, ProbePolicy};
use cmpqos_faults::Injection;
use cmpqos_obs::{NullRecorder, Recorder};
use cmpqos_types::{Cycles, JobId, NodeId};
use serde::{Deserialize, Serialize};

/// One journaled cluster input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ClusterOp {
    /// The cluster's construction ([`Cluster::in_process`]); always the
    /// first record.
    Create {
        /// Founding node count.
        nodes: u32,
        /// Every node's LAC configuration, joined nodes included.
        lac: LacConfig,
        /// The GAC's knobs.
        config: NetGacConfig,
        /// The probe policy.
        policy: ProbePolicy,
    },
    /// [`cmpqos_core::NetGac::submit`].
    Submit {
        /// The submitted request.
        req: AdmissionRequest,
        /// Its submission stamp.
        at: Cycles,
    },
    /// [`cmpqos_core::NetGac::revoke`].
    Revoke {
        /// The job to revoke.
        job: JobId,
    },
    /// [`Cluster::apply`].
    Apply(Injection),
    /// [`Cluster::run_until`].
    RunUntil {
        /// The cycle the cluster ran to.
        until: Cycles,
    },
    /// [`Cluster::join_node`] with a fresh founding-configuration LAC.
    Join {
        /// When the node joined.
        at: Cycles,
    },
    /// [`Cluster::drain_node`].
    Drain {
        /// The draining node.
        node: NodeId,
        /// When the drain began.
        at: Cycles,
    },
    /// [`Cluster::restart_node`].
    Restart {
        /// The restarted node.
        node: NodeId,
        /// When it restarted.
        at: Cycles,
    },
}

/// An in-process [`Cluster`] whose every input is appended to a
/// write-ahead [`Journal`] before the cluster sees it — the
/// crash-consistent controller the chaos harness rebuilds under
/// `--crash-at`.
///
/// Replay is silent (a [`NullRecorder`]): the cluster's behavior never
/// depends on the recorder, so a recovered cluster's subsequent decisions
/// are byte-identical to the uncrashed original's without re-emitting the
/// pre-crash event stream.
#[derive(Debug)]
pub struct JournaledCluster {
    cluster: Cluster<Lac>,
    lac: LacConfig,
    journal: Journal<ClusterOp>,
}

impl JournaledCluster {
    /// An in-process cluster of `nodes` LACs, its journal opened with the
    /// construction record.
    #[must_use]
    pub fn new(nodes: usize, lac: LacConfig, config: NetGacConfig, policy: ProbePolicy) -> Self {
        let mut journal = Journal::new();
        let _ = journal.append(ClusterOp::Create {
            nodes: u32::try_from(nodes).expect("node count fits u32"),
            lac,
            config,
            policy,
        });
        Self {
            cluster: Cluster::in_process(nodes, lac, config, policy),
            lac,
            journal,
        }
    }

    /// The journaled cluster.
    #[must_use]
    pub fn cluster(&self) -> &Cluster<Lac> {
        &self.cluster
    }

    /// The write-ahead journal.
    #[must_use]
    pub fn journal(&self) -> &Journal<ClusterOp> {
        &self.journal
    }

    /// Serializes the journal as JSONL — the only thing that needs to
    /// survive a crash.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        self.journal.to_jsonl()
    }

    /// Rebuilds a cluster from a serialized journal by replaying every
    /// input after the construction record. A torn or corrupted tail is
    /// truncated (never a panic) and the dropped-line count reported.
    /// Without a valid construction record nothing can be replayed, and
    /// recovery falls back to a one-node default server.
    #[must_use = "dropping the report hides how much journaled state was lost"]
    pub fn recover(jsonl: &str) -> (Self, RecoveryReport) {
        let (journal, tail) = Journal::<ClusterOp>::from_jsonl(jsonl);
        let Some(&ClusterOp::Create {
            nodes,
            lac,
            config,
            policy,
        }) = journal.records().first().map(|r| &r.op)
        else {
            let fallback = Self::new(
                1,
                LacConfig::default(),
                NetGacConfig::default(),
                ProbePolicy::FirstFit,
            );
            let lost = tail.lost + journal.len() as u64;
            return (fallback, RecoveryReport { replayed: 0, lost });
        };
        let mut cluster = Cluster::in_process(nodes as usize, lac, config, policy);
        for record in &journal.records()[1..] {
            Self::replay(&mut cluster, lac, &record.op);
        }
        let replayed = journal.len() as u64 - 1;
        (
            Self {
                cluster,
                lac,
                journal,
            },
            RecoveryReport {
                replayed,
                lost: tail.lost,
            },
        )
    }

    /// Feeds one journaled input to `cluster`, silently.
    fn replay(cluster: &mut Cluster<Lac>, lac: LacConfig, op: &ClusterOp) {
        let rec = &mut NullRecorder;
        match *op {
            // A second construction record cannot be written; ignore one.
            ClusterOp::Create { .. } => {}
            ClusterOp::Submit { req, at } => cluster.gac_mut().submit(req, at, rec),
            ClusterOp::Revoke { job } => cluster.gac_mut().revoke(job),
            ClusterOp::Apply(injection) => cluster.apply(injection, rec),
            ClusterOp::RunUntil { until } => cluster.run_until(until, rec),
            ClusterOp::Join { at } => {
                let _ = cluster.join_node(Lac::new(lac), at);
            }
            ClusterOp::Drain { node, at } => cluster.drain_node(node, at),
            ClusterOp::Restart { node, at } => cluster.restart_node(node, at, rec),
        }
    }

    /// Journaled [`cmpqos_core::NetGac::submit`].
    pub fn submit(&mut self, req: AdmissionRequest, at: Cycles, recorder: &mut dyn Recorder) {
        let _ = self.journal.append(ClusterOp::Submit { req, at });
        self.cluster.gac_mut().submit(req, at, recorder);
    }

    /// Journaled [`cmpqos_core::NetGac::revoke`].
    pub fn revoke(&mut self, job: JobId) {
        let _ = self.journal.append(ClusterOp::Revoke { job });
        self.cluster.gac_mut().revoke(job);
    }

    /// Journaled [`Cluster::apply`].
    pub fn apply(&mut self, injection: Injection, recorder: &mut dyn Recorder) {
        let _ = self.journal.append(ClusterOp::Apply(injection));
        self.cluster.apply(injection, recorder);
    }

    /// Journaled [`Cluster::run_until`].
    pub fn run_until(&mut self, until: Cycles, recorder: &mut dyn Recorder) {
        let _ = self.journal.append(ClusterOp::RunUntil { until });
        self.cluster.run_until(until, recorder);
    }

    /// Journaled [`Cluster::join_node`]: the new node gets a fresh LAC
    /// with the founding configuration.
    pub fn join_node(&mut self, at: Cycles) -> NodeId {
        let _ = self.journal.append(ClusterOp::Join { at });
        self.cluster.join_node(Lac::new(self.lac), at)
    }

    /// Journaled [`Cluster::drain_node`].
    pub fn drain_node(&mut self, node: NodeId, at: Cycles) {
        let _ = self.journal.append(ClusterOp::Drain { node, at });
        self.cluster.drain_node(node, at);
    }

    /// Journaled [`Cluster::restart_node`].
    pub fn restart_node(&mut self, node: NodeId, at: Cycles, recorder: &mut dyn Recorder) {
        let _ = self.journal.append(ClusterOp::Restart { node, at });
        self.cluster.restart_node(node, at, recorder);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpqos_core::{ExecutionMode, MemberState, NodeHealth, ResourceRequest};
    use cmpqos_faults::FaultPlan;
    use cmpqos_types::Percent;

    fn request(id: u32, tw: u64) -> AdmissionRequest {
        AdmissionRequest::builder(
            JobId::new(id),
            ResourceRequest::paper_job(),
            Cycles::new(tw),
        )
        .mode(if id.is_multiple_of(2) {
            ExecutionMode::Strict
        } else {
            ExecutionMode::Elastic(Percent::new(50.0))
        })
        .build()
    }

    /// A journaled cluster through submissions, capacity faults, a node
    /// death, and a full churn cycle.
    fn busy_cluster() -> JournaledCluster {
        let config = NetGacConfig {
            heartbeat_every: Cycles::new(1_000),
            lease_ttl: Cycles::new(5_000),
            dead_timeout: Cycles::new(10_000),
            ..NetGacConfig::default()
        };
        let mut j =
            JournaledCluster::new(3, LacConfig::default(), config, ProbePolicy::LeastLoaded);
        let rec = &mut NullRecorder;
        for i in 0..8u32 {
            let at = Cycles::new(u64::from(i) * 50);
            j.run_until(at, rec);
            j.submit(request(i, 100_000), at, rec);
        }
        let plan = FaultPlan::new()
            .way_fault(Cycles::new(500), NodeId::new(0), 1)
            .probe_loss(Cycles::new(600), NodeId::new(2), 2)
            .node_fault(Cycles::new(700), NodeId::new(1))
            .build();
        for &injection in plan.injections() {
            j.run_until(injection.at, rec);
            j.apply(injection, rec);
        }
        j.run_until(Cycles::new(1_000), rec);
        let joined = j.join_node(Cycles::new(1_000));
        j.run_until(Cycles::new(2_000), rec);
        j.restart_node(NodeId::new(2), Cycles::new(2_000), rec);
        j.drain_node(NodeId::new(0), Cycles::new(2_500));
        j.revoke(JobId::new(0));
        j.run_until(Cycles::new(8_000), rec);
        assert_eq!(j.cluster().gac().member_state(joined), MemberState::Live);
        j
    }

    #[test]
    fn recovery_rebuilds_the_exact_cluster() {
        let original = busy_cluster();
        let (recovered, report) = JournaledCluster::recover(&original.to_jsonl());
        assert_eq!(report.lost, 0);
        assert_eq!(report.replayed, original.journal().len() as u64 - 1);
        // Debug renders every table, queue, the network, and its RNG.
        assert_eq!(
            format!("{:?}", recovered.cluster()),
            format!("{:?}", original.cluster())
        );
        let health = recovered.cluster().gac().node_health(NodeId::new(1));
        assert_eq!(health, NodeHealth::Dead);
    }

    #[test]
    fn recovered_cluster_makes_identical_subsequent_decisions() {
        let mut original = busy_cluster();
        let (mut recovered, _) = JournaledCluster::recover(&original.to_jsonl());
        for j in [&mut original, &mut recovered] {
            for i in 100..110u32 {
                let at = Cycles::new(8_000 + u64::from(i));
                j.submit(request(i, 80), at, &mut NullRecorder);
                j.run_until(at, &mut NullRecorder);
            }
            j.run_until(Cycles::new(400_000), &mut NullRecorder);
        }
        assert_eq!(
            format!("{:?}", recovered.cluster()),
            format!("{:?}", original.cluster())
        );
    }

    #[test]
    fn a_corrupted_tail_is_truncated_not_fatal() {
        let original = busy_cluster();
        let mut bytes = original.to_jsonl().into_bytes();
        let n = bytes.len();
        bytes[n - 20] ^= 0x55;
        let corrupt = String::from_utf8_lossy(&bytes).into_owned();
        let (recovered, report) = JournaledCluster::recover(&corrupt);
        assert!(report.lost >= 1);
        assert!(recovered.journal().len() < original.journal().len());
        let (fallback, report) = JournaledCluster::recover("not json\n");
        assert_eq!(report.lost, 1);
        assert_eq!(fallback.cluster().nodes(), 1);
    }
}
