//! Runs the design-choice ablations (partitioning policy, shadow sampling,
//! steal interval).
use cmpqos_experiments::{ablation, ExperimentParams};

fn main() {
    let params = ExperimentParams::from_command_line("ablations", "Design-choice ablations.");
    ablation::print(&params);
}
