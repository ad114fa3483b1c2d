//! Regenerates Figure 8 (resource stealing vs slack X).
use cmpqos_experiments::{fig8, ExperimentParams};

fn main() {
    let params = ExperimentParams::from_command_line("fig8", "Regenerates Figure 8.");
    let result = fig8::run(&params);
    fig8::print(&result, &params);
}
