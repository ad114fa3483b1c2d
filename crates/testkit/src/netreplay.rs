//! The delivered-message-log replay oracle for the message-layer control
//! plane.
//!
//! A [`cmpqos_core::Cluster`] run leaves behind the network's
//! delivered-frame log (`SimNet::delivered_log`): every frame that
//! actually reached a receiver, in delivery order, *after* the seeded
//! drop/duplicate/reorder machinery had its say. The protocol's whole
//! claim is that node state is a pure function of that log — sequence
//! numbers, the reply cache, and epoch resynchronization make duplicated
//! and reordered deliveries idempotent.
//!
//! [`replay`] re-derives each node's state from first principles: it
//! feeds the logged request frames through *fresh* [`LacEndpoint`]s (no
//! network, no retransmission machinery, no GAC), applying the node-local
//! events the run applied outside the network ([`NodeEvent`]) at the same
//! point in delivery order. [`check`] then demands three things:
//!
//! * the replayed reservation tables and processed-request counts equal
//!   the live endpoints' — byte-for-byte state equality, not a summary
//!   comparison; any hidden state the live endpoint accumulated outside
//!   the delivered log (or any non-idempotent handling of a duplicate)
//!   shows up as a divergence;
//! * every probe a node decided matches the brute-force [`OracleLac`]
//!   seeded from that node's pre-probe state ([`CheckedLac`]);
//! * once the cluster is quiet, the GAC's placement view agrees with the
//!   nodes: every placement is the `(id, start, end)` of a reservation
//!   its node holds.

use crate::oracle::OracleLac;
use cmpqos_core::{
    AdmissionRequest, Cluster, Decision, Lac, LacBackend, LacConfig, LacEndpoint, Reservation,
    ResourceRequest, Wire,
};
use cmpqos_net::{Addr, Envelope};
use cmpqos_types::{Cycles, JobId, NodeId};

/// A node-local event a run applied outside the network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeEvent {
    /// The node's process restarted: its endpoint's protocol state
    /// (sequence numbers, reply cache, epoch) is wiped while its
    /// journal-recovered backend survives.
    Restart,
    /// A capacity fault shrank the node's LAC to this supply.
    Capacity(ResourceRequest),
}

/// A replayed node's LAC that checks every admission it decides against
/// the brute-force [`OracleLac`] seeded from its pre-probe state.
#[derive(Debug, Clone)]
pub struct CheckedLac {
    lac: Lac,
    divergence: Option<String>,
}

impl CheckedLac {
    /// The replayed LAC.
    #[must_use]
    pub fn lac(&self) -> &Lac {
        &self.lac
    }

    /// The first admission whose decision the oracle disputes, if any.
    #[must_use]
    pub fn divergence(&self) -> Option<&str> {
        self.divergence.as_deref()
    }
}

impl LacBackend for CheckedLac {
    fn now(&self) -> Cycles {
        self.lac.now()
    }

    fn advance(&mut self, now: Cycles) {
        self.lac.advance(now);
    }

    fn admit(&mut self, req: &AdmissionRequest) -> Decision {
        let want =
            OracleLac::from_parts(self.lac.capacity(), self.lac.reservations(), self.lac.now())
                .admit_request(req);
        let got = self.lac.admit(req);
        if got != want && self.divergence.is_none() {
            self.divergence = Some(format!(
                "probe for {} decided {got:?} but the pre-probe oracle says {want:?}",
                req.id
            ));
        }
        got
    }

    fn readmit(&mut self, r: &Reservation) -> Decision {
        self.lac.readmit(r)
    }

    fn cancel(&mut self, id: JobId) {
        self.lac.cancel(id);
    }

    fn reservations(&self) -> Vec<Reservation> {
        self.lac.reservations()
    }
}

/// Replays the request frames of a delivered-message log through fresh
/// endpoints, one per node, in delivery order. Replies the replayed
/// endpoints would have sent are discarded — only node state matters.
///
/// Each of `events` (in the order the run applied them) takes effect
/// after every frame delivered at or before its cycle and before the
/// first frame delivered strictly after it.
#[must_use]
pub fn replay(
    log: &[Envelope<Wire>],
    nodes: usize,
    config: LacConfig,
    events: &[(Cycles, NodeId, NodeEvent)],
) -> Vec<LacEndpoint<CheckedLac>> {
    let mut endpoints: Vec<LacEndpoint<CheckedLac>> = (0..nodes)
        .map(|_| {
            LacEndpoint::new(CheckedLac {
                lac: Lac::new(config),
                divergence: None,
            })
        })
        .collect();
    let apply = |endpoints: &mut Vec<LacEndpoint<CheckedLac>>, at, node: NodeId, event| {
        let Some(endpoint) = endpoints.get_mut(node.as_usize()) else {
            return;
        };
        match event {
            NodeEvent::Restart => endpoint.reset(),
            NodeEvent::Capacity(supply) => {
                let _ = endpoint.backend_mut().lac.revoke_capacity(supply, at);
            }
        }
    };
    let mut pending = events.iter().peekable();
    for env in log {
        while let Some(&&(at, node, event)) = pending.peek() {
            if at < env.deliver_at {
                apply(&mut endpoints, at, node, event);
                pending.next();
            } else {
                break;
            }
        }
        if let (Addr::Node(node), Wire::Request(req)) = (env.to, &env.msg) {
            if let Some(endpoint) = endpoints.get_mut(node.as_usize()) {
                let _ = endpoint.handle(req.clone());
            }
        }
    }
    for &(at, node, event) in pending {
        apply(&mut endpoints, at, node, event);
    }
    endpoints
}

/// Checks a cluster run against the replay, pre-probe, and placement-view
/// oracles (see the module docs). `events` are the node-local events the
/// run applied, in order.
///
/// # Errors
///
/// Returns a description of the first divergence.
pub fn check(
    cluster: &Cluster<Lac>,
    config: LacConfig,
    events: &[(Cycles, NodeId, NodeEvent)],
) -> Result<(), String> {
    let nodes = cluster.nodes();
    let replayed = replay(cluster.net().delivered_log(), nodes, config, events);
    for (i, oracle) in replayed.iter().enumerate() {
        let node = NodeId::new(u32::try_from(i).map_err(|_| "node count overflows u32")?);
        let live = cluster.endpoint(node);
        if live.processed() != oracle.processed() {
            return Err(format!(
                "{node}: live endpoint executed {} request(s) but the delivered \
                 log replays {} — state is not a pure function of the log",
                live.processed(),
                oracle.processed()
            ));
        }
        if live.backend() != oracle.backend().lac() {
            return Err(format!(
                "{node}: live reservation table diverges from the delivered-log \
                 replay\n  live:   {:?}\n  replay: {:?}",
                live.backend().reservations(),
                oracle.backend().reservations()
            ));
        }
        if let Some(d) = oracle.backend().divergence() {
            return Err(format!("{node}: {d}"));
        }
    }
    // The placement view is only settled once no conversation, parked
    // task, reconciliation, or frame is outstanding.
    let gac = cluster.gac();
    if !gac.idle() || gac.pending_reconciles() > 0 || cluster.net().next_deliver_at().is_some() {
        return Ok(());
    }
    for (&job, &(node, r)) in gac.placements() {
        let held = cluster.endpoint(node).backend().reservations();
        let booked = held.iter().find(|h| h.id == job).map(|h| (h.start, h.end));
        if booked != Some((r.start, r.end)) {
            return Err(format!(
                "quiet cluster: the GAC places {job} on {node} over [{}, {}) but the \
                 node books {booked:?}",
                r.start, r.end
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpqos_core::{
        AdmissionRequest, ExecutionMode, NetGacConfig, ProbePolicy, ResourceRequest,
    };
    use cmpqos_net::LinkConfig;
    use cmpqos_obs::NullRecorder;
    use cmpqos_types::{Cycles, JobId};

    fn lossy_run(seed: u64) -> Cluster<Lac> {
        let link = LinkConfig::default()
            .base_latency(Cycles::new(8))
            .jitter(5)
            .reorder(12)
            .drop(0.1)
            .duplicate(0.25);
        let mut cluster = Cluster::new(
            3,
            LacConfig::default(),
            seed,
            link,
            NetGacConfig::default(),
            ProbePolicy::FirstFit,
        );
        let mut rec = NullRecorder;
        for n in 0..10u32 {
            let req = AdmissionRequest::builder(
                JobId::new(n),
                ResourceRequest::paper_job(),
                Cycles::new(500),
            )
            .mode(ExecutionMode::Strict)
            .build();
            let at = Cycles::new(u64::from(n) * 40);
            cluster.gac_mut().submit(req, at, &mut rec);
            cluster.run_until(at, &mut rec);
        }
        cluster.run_until(Cycles::new(60_000), &mut rec);
        cluster
    }

    #[test]
    fn a_lossy_duplicating_run_replays_to_identical_node_state() {
        let cluster = lossy_run(11);
        assert!(
            cluster.net().stats().duplicated + cluster.net().stats().dropped > 0,
            "the link must actually misbehave for this test to mean anything"
        );
        check(&cluster, LacConfig::default(), &[]).expect("replay oracle agrees");
    }

    #[test]
    fn the_oracle_detects_state_not_derived_from_the_log() {
        let cluster = lossy_run(12);
        // Replaying against the wrong number of nodes must not panic, and
        // replaying only a prefix of the log must diverge (the dropped
        // suffix contains executed requests).
        let log = cluster.net().delivered_log();
        let requests = log
            .iter()
            .filter(|e| matches!((e.to, &e.msg), (Addr::Node(_), Wire::Request(_))))
            .count();
        assert!(requests > 2, "the run produced request traffic");
        let truncated = replay(
            &log[..log.len() / 2],
            cluster.nodes(),
            LacConfig::default(),
            &[],
        );
        let full = replay(log, cluster.nodes(), LacConfig::default(), &[]);
        let processed =
            |eps: &[LacEndpoint<CheckedLac>]| -> u64 { eps.iter().map(|e| e.processed()).sum() };
        assert!(
            processed(&truncated) < processed(&full),
            "half the log must replay fewer requests than all of it"
        );
    }
}
