//! Regenerates Figure 5 (deadline hit rate + normalized throughput).
use cmpqos_experiments::{fig5, ExperimentParams};

fn main() {
    let params = ExperimentParams::from_command_line("fig5", "Regenerates Figure 5.");
    let rows = fig5::run(&params);
    fig5::print(&rows, &params);
    let outcomes: Vec<_> = rows.iter().flat_map(|r| r.outcomes.clone()).collect();
    cmpqos_experiments::json::maybe_dump(&outcomes);
}
