//! Regenerates Figure 3 (illustrative downgrade scenario). Takes no flags
//! and reads no environment: the scenario is fixed.
use cmpqos_experiments::cli::{self, Command};
use cmpqos_experiments::fig3;

fn main() {
    let (name, about, flags) = ("fig3", "Regenerates Figure 3 (takes no flags).", &[]);
    let _ = cli::parse(&Command { name, about, flags }, &cli::args());
    fig3::print(&fig3::run());
}
