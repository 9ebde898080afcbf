//! Fig 10 harness: accuracy vs number of vantage points.
use bgp_experiments::figures::fig10;
use bgp_experiments::{Args, Flags, Scenario, ScenarioConfig};

/// The flags this binary reads besides the scenario's.
const FLAGS: Flags = Flags::new("trials json", "quick");

fn main() {
    let args = Args::from_env(&[ScenarioConfig::FLAGS, FLAGS])
        .expect("usage: fig10 [--seed N] [--scale F] [--trials N] [--quick]");
    let cfg = ScenarioConfig::from_args(&args).expect("valid scenario flags");
    let default_trials = if args.flag("quick") { 10 } else { 50 };
    let trials: usize = args.get("trials", default_trials).expect("--trials N");
    let scenario = Scenario::build(&cfg);
    let observations = scenario.collect(1);
    let sizes = fig10::default_sizes(scenario.vps.len());
    let result = fig10::run(&scenario, &observations, &sizes, trials);
    fig10::print(&result);
    if let Some(path) = args.get_str("json") {
        std::fs::write(path, serde_json::to_string_pretty(&result).unwrap()).unwrap();
    }
}
