//! Extension harness: fine-grained category inference (§7 future work).
use bgp_experiments::figures::finegrained;
use bgp_experiments::{Args, Flags, Scenario, ScenarioConfig};

/// The flags this binary reads besides the scenario's.
const FLAGS: Flags = Flags::new("days json", "");

fn main() {
    let args = Args::from_env(&[ScenarioConfig::FLAGS, FLAGS])
        .expect("usage: finegrained [--seed N] [--scale F] [--days N]");
    let cfg = ScenarioConfig::from_args(&args).expect("valid scenario flags");
    let days: u32 = args.get("days", 2).expect("--days N");
    let scenario = Scenario::build(&cfg);
    let observations = scenario.collect(days);
    let result = finegrained::run(&scenario, &observations);
    finegrained::print(&result);
    if let Some(path) = args.get_str("json") {
        std::fs::write(path, serde_json::to_string_pretty(&result).unwrap()).unwrap();
    }
}
