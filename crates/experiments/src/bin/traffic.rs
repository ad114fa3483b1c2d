//! Runs the production-traffic scenario grid and prints the per-tier
//! percentile-latency tables (see `cmpqos_experiments::traffic`).
use cmpqos_experiments::{traffic, ExperimentParams};

fn main() {
    let params = ExperimentParams::from_command_line("traffic", "The traffic-DSL grid.");
    let reports = traffic::run(&params);
    traffic::print(&reports, &params);
}
