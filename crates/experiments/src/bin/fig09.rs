//! Fig 9 harness: accuracy vs minimum-gap parameter.
use bgp_experiments::figures::fig09;
use bgp_experiments::{Args, Flags, Scenario, ScenarioConfig};

/// The flags this binary reads besides the scenario's.
const FLAGS: Flags = Flags::new("days json", "");

fn main() {
    let args = Args::from_env(&[ScenarioConfig::FLAGS, FLAGS])
        .expect("usage: fig09 [--seed N] [--scale F] [--days N]");
    let cfg = ScenarioConfig::from_args(&args).expect("valid scenario flags");
    let days: u32 = args.get("days", 7).expect("--days N");
    let scenario = Scenario::build(&cfg);
    let observations = scenario.collect(days);
    let result = fig09::run(&scenario, &observations, &fig09::default_gaps());
    fig09::print(&result);
    if let Some(path) = args.get_str("json") {
        std::fs::write(path, serde_json::to_string_pretty(&result).unwrap()).unwrap();
    }
}
