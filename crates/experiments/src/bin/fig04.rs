//! Fig 4 harness: dictionaries vs observed communities.
use bgp_experiments::figures::fig04;
use bgp_experiments::{Args, Flags, Scenario, ScenarioConfig};

/// The flags this binary reads besides the scenario's.
const FLAGS: Flags = Flags::new("ases json", "");

fn main() {
    let args = Args::from_env(&[ScenarioConfig::FLAGS, FLAGS])
        .expect("usage: fig04 [--seed N] [--scale F] [--ases N]");
    let cfg = ScenarioConfig::from_args(&args).expect("valid scenario flags");
    let max_ases: usize = args.get("ases", 30).expect("--ases N");
    let scenario = Scenario::build(&cfg);
    let observations = scenario.collect(1);
    let result = fig04::run(&scenario, &observations, max_ases);
    fig04::print(&result);
    if let Some(path) = args.get_str("json") {
        std::fs::write(path, serde_json::to_string_pretty(&result).unwrap()).unwrap();
    }
}
