//! Regenerates Figure 4 (benchmark sensitivity scatter).
use cmpqos_experiments::{fig4, ExperimentParams};

fn main() {
    let params = ExperimentParams::from_command_line("fig4", "Regenerates Figure 4.");
    let points = fig4::run(&params);
    fig4::print(&points, &params);
}
