//! Runs the extension studies (UCP baseline, bandwidth reservation).
use cmpqos_experiments::{extensions, ExperimentParams};

fn main() {
    let params = ExperimentParams::from_command_line("extensions", "The extension studies.");
    extensions::print(&params);
}
