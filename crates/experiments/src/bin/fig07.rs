//! Fig 7 harness: customer:peer ratio CDFs of baseline clusters.
use bgp_experiments::figures::fig07;
use bgp_experiments::{Args, Flags, Scenario, ScenarioConfig};

/// The flags this binary reads besides the scenario's.
const FLAGS: Flags = Flags::new("days json", "oracle");

fn main() {
    let args = Args::from_env(&[ScenarioConfig::FLAGS, FLAGS])
        .expect("usage: fig07 [--seed N] [--scale F] [--oracle]");
    let cfg = ScenarioConfig::from_args(&args).expect("valid scenario flags");
    let days: u32 = args.get("days", 7).expect("--days N");
    let scenario = Scenario::build(&cfg);
    let observations = scenario.collect(days);
    let result = fig07::run(&scenario, &observations, args.flag("oracle"));
    fig07::print(&result);
    if let Some(path) = args.get_str("json") {
        std::fs::write(path, serde_json::to_string_pretty(&result).unwrap()).unwrap();
    }
}
