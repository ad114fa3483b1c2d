//! Regenerates Figure 9 (mixed workloads).
use cmpqos_experiments::{fig9, ExperimentParams};

fn main() {
    let params = ExperimentParams::from_command_line("fig9", "Regenerates Figure 9.");
    let mixes = fig9::run(&params);
    fig9::print(&mixes, &params);
    let outcomes: Vec<_> = mixes.iter().flat_map(|m| m.outcomes.clone()).collect();
    cmpqos_experiments::json::maybe_dump(&outcomes);
}
