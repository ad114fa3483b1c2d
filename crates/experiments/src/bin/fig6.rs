//! Regenerates Figure 6 (wall-clock per mode, bzip2 workload).
use cmpqos_experiments::{fig6, ExperimentParams};

fn main() {
    let params = ExperimentParams::from_command_line("fig6", "Regenerates Figure 6.");
    let result = fig6::run(&params);
    fig6::print(&result, &params);
}
