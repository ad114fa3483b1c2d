//! Server consolidation: gold/silver/bronze SLA tiers mapped to preset RUM
//! targets, placed across a two-node server by the Global Admission
//! Controller — the paper's motivating utility-computing scenario
//! (Section 1).
//!
//! ```text
//! cargo run --release --example consolidation
//! ```

use cmpqos::obs::NullRecorder;
use cmpqos::qos::gac::ProbePolicy;
use cmpqos::qos::target::Preset;
use cmpqos::qos::{AdmissionRequest, Cluster, ExecutionMode, LacConfig, NetGacConfig};
use cmpqos::types::{Cycles, JobId, NodeId, Percent};

#[derive(Debug, Clone, Copy)]
enum Sla {
    /// Gold: large preset, Strict execution.
    Gold,
    /// Silver: medium preset, Elastic(10%) — guaranteed deadline, donates
    /// excess cache.
    Silver,
    /// Bronze: medium preset, Opportunistic — best effort on spare capacity.
    Bronze,
}

impl Sla {
    fn preset(self) -> Preset {
        match self {
            Sla::Gold => Preset::Large,
            Sla::Silver | Sla::Bronze => Preset::Medium,
        }
    }

    fn mode(self) -> ExecutionMode {
        match self {
            Sla::Gold => ExecutionMode::Strict,
            Sla::Silver => ExecutionMode::Elastic(Percent::new(10.0)),
            Sla::Bronze => ExecutionMode::Opportunistic,
        }
    }
}

fn main() {
    // A small server: two 4-core CMP nodes behind one GAC, in process.
    let mut server = Cluster::in_process(
        2,
        LacConfig::default(),
        NetGacConfig::default(),
        ProbePolicy::LeastLoaded,
    );
    let mut rec = NullRecorder;

    let tw = Cycles::new(1_000_000);
    let submissions = [
        ("web-frontend", Sla::Gold),
        ("db-primary", Sla::Gold),
        ("analytics", Sla::Silver),
        ("ml-batch", Sla::Silver),
        ("log-compactor", Sla::Bronze),
        ("backup", Sla::Bronze),
        ("db-replica", Sla::Gold),
        ("report-gen", Sla::Bronze),
    ];

    println!("{:<14} {:<7} {:<22} placement", "client", "SLA", "request");
    println!("{}", "-".repeat(64));
    for (i, (name, sla)) in submissions.iter().enumerate() {
        let id = JobId::new(i as u32);
        let request = sla.preset().request();
        let mut req = AdmissionRequest::builder(id, request, tw).mode(sla.mode());
        if sla.mode() != ExecutionMode::Opportunistic {
            req = req.deadline(Cycles::new(5_000_000));
        }
        server.gac_mut().submit(req.build(), Cycles::ZERO, &mut rec);
        server.run_until(Cycles::ZERO, &mut rec);
        let (node, decision) = server.gac().decisions()[&id];
        let placement = match (node, decision.is_accepted()) {
            (Some(n), true) => format!("{n} @ start {:?}", decision.start().map(|c| c.get())),
            _ => format!("REJECTED ({decision:?})"),
        };
        println!("{name:<14} {sla:<7?} {request:<22} {placement}");
    }

    println!();
    for n in 0..server.nodes() {
        let lac = server.endpoint(NodeId::new(n as u32)).backend();
        println!(
            "node{n}: {} reservations live, {} accepted / {} tests",
            lac.reservations().len(),
            lac.accepted(),
            lac.admission_tests()
        );
    }
    println!(
        "\nRUM targets make the placement decisions trivial comparisons of\n\
         capacity vectors — the paper's argument for convertible QoS targets."
    );
}
