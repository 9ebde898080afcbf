//! §6 accuracy-over-time harness.
use bgp_experiments::figures::overtime;
use bgp_experiments::{Args, Flags, ScenarioConfig};

/// The flags this binary reads besides the scenario's.
const FLAGS: Flags = Flags::new("months json", "");

fn main() {
    let args = Args::from_env(&[ScenarioConfig::FLAGS, FLAGS])
        .expect("usage: overtime [--seed N] [--scale F] [--months N]");
    let cfg = ScenarioConfig::from_args(&args).expect("valid scenario flags");
    let months: u32 = args.get("months", 12).expect("--months N");
    let result = overtime::run(&cfg, months);
    overtime::print(&result);
    if let Some(path) = args.get_str("json") {
        std::fs::write(path, serde_json::to_string_pretty(&result).unwrap()).unwrap();
    }
}
