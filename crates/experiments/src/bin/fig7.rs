//! Regenerates Figure 7 (execution traces, All-Strict vs AutoDown).
use cmpqos_experiments::{fig7, ExperimentParams};

fn main() {
    let params = ExperimentParams::from_command_line("fig7", "Regenerates Figure 7.");
    let result = fig7::run(&params);
    fig7::print(&result, &params);
}
