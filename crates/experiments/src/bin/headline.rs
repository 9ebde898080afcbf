//! §6 headline numbers harness.
use bgp_experiments::figures::headline;
use bgp_experiments::{Args, Flags, Scenario, ScenarioConfig};

/// The flags this binary reads besides the scenario's.
const FLAGS: Flags = Flags::new("days json", "");

fn main() {
    let args = Args::from_env(&[ScenarioConfig::FLAGS, FLAGS])
        .expect("usage: headline [--seed N] [--scale F] [--days N]");
    let cfg = ScenarioConfig::from_args(&args).expect("valid scenario flags");
    let days: u32 = args.get("days", 7).expect("--days N");
    let scenario = Scenario::build(&cfg);
    let observations = scenario.collect(days);
    let result = headline::run(&scenario, &observations);
    headline::print(&result);
    if let Some(path) = args.get_str("json") {
        std::fs::write(path, serde_json::to_string_pretty(&result).unwrap()).unwrap();
    }
}
