//! Extension harness: large-community (RFC 8092) intent inference.
use bgp_experiments::figures::large;
use bgp_experiments::{Args, Flags, Scenario, ScenarioConfig};

/// The flags this binary reads besides the scenario's.
const FLAGS: Flags = Flags::new("days json", "");

fn main() {
    let args = Args::from_env(&[ScenarioConfig::FLAGS, FLAGS])
        .expect("usage: large [--seed N] [--scale F] [--days N]");
    let cfg = ScenarioConfig::from_args(&args).expect("valid scenario flags");
    let days: u32 = args.get("days", 2).expect("--days N");
    let scenario = Scenario::build(&cfg);
    let observations = scenario.collect(days);
    let result = large::run(&scenario, &observations);
    large::print(&result);
    if let Some(path) = args.get_str("json") {
        std::fs::write(path, serde_json::to_string_pretty(&result).unwrap()).unwrap();
    }
}
