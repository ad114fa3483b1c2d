//! The Global Admission Controller's vocabulary (Section 3.1 of the
//! paper).
//!
//! A server consists of many CMP nodes; the GAC receives user submissions
//! and probes each node's Local Admission Controller for one that can
//! satisfy the job's QoS target. When no node accepts, the job is rejected
//! (in a full deployment the GAC would then renegotiate the target with the
//! user — out of this paper's scope, as it is of ours).
//!
//! There is one GAC: [`NetGac`](crate::protocol::NetGac), which talks to
//! its LACs over a message network and is driven, together with the
//! endpoints and the network, by a [`Cluster`](crate::protocol::Cluster).
//! An in-process server is the degenerate case of a lossless,
//! zero-latency link ([`Cluster::in_process`](crate::protocol::Cluster::in_process)).
//! This module holds the types that describe the GAC's view of its nodes:
//! the probe order, the failure detector's health verdict, and the
//! membership lifecycle.

/// Order in which nodes are probed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum ProbePolicy {
    /// Probe nodes in index order (first fit).
    #[default]
    FirstFit,
    /// Probe the node with the fewest live placements first (a simple
    /// load-balancing heuristic).
    LeastLoaded,
}

/// A node's health as tracked by the GAC's failure detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum NodeHealth {
    /// Conversations complete; the node takes placements.
    Healthy,
    /// Conversations were lost recently
    /// ([`NetGacConfig::suspect_after`](crate::NetGacConfig::suspect_after)
    /// consecutive losses); placements pause, nothing is evacuated.
    Suspect,
    /// The node failed
    /// ([`NetGacConfig::dead_after`](crate::NetGacConfig::dead_after)
    /// consecutive losses *and*
    /// [`NetGacConfig::dead_timeout`](crate::NetGacConfig::dead_timeout) of
    /// silence, or an explicit node fault); it is never probed and its
    /// placements were evacuated.
    Dead,
}

impl From<NodeHealth> for cmpqos_obs::Health {
    fn from(h: NodeHealth) -> Self {
        match h {
            NodeHealth::Healthy => cmpqos_obs::Health::Healthy,
            NodeHealth::Suspect => cmpqos_obs::Health::Suspect,
            NodeHealth::Dead => cmpqos_obs::Health::Dead,
        }
    }
}

/// A node's lifecycle membership state, orthogonal to [`NodeHealth`]:
/// health tracks whether the node *answers*, membership tracks whether it
/// *belongs*. Only `Live` nodes take new placements; the table is
/// append-only (a departed node's index is never reused), so `NodeId`s in
/// journals and event streams stay stable across churn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum MemberState {
    /// Mid-handshake (announced or restarting, not yet reconciled); takes
    /// no new placements.
    Joining,
    /// Full member: probed, placed on, and heartbeated.
    #[default]
    Live,
    /// Graceful shutdown underway: no new placements while existing
    /// reservations migrate off.
    Draining,
    /// Departed for good; skipped by every probe, heartbeat, and sweep.
    Left,
}
