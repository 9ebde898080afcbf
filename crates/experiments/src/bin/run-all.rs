//! Run every experiment in sequence (the full evaluation of the paper).
use bgp_experiments::figures::{
    days, fig04, fig06, fig07, fig09, fig10, finegrained, headline, large, overtime, ratio, table1,
};
use bgp_experiments::{Args, Flags, Scenario, ScenarioConfig};

/// The flags this binary reads besides the scenario's.
const FLAGS: Flags = Flags::new("days trials months", "quick");

fn main() {
    let args = Args::from_env(&[ScenarioConfig::FLAGS, FLAGS])
        .expect("usage: run-all [--seed N] [--scale F] [--quick]");
    let cfg = ScenarioConfig::from_args(&args).expect("valid scenario flags");
    let quick = args.flag("quick");
    let days_n: u32 = args.get("days", 7).expect("--days N");
    let trials: usize = args
        .get("trials", if quick { 10 } else { 50 })
        .expect("--trials N");
    let months: u32 = args
        .get("months", if quick { 4 } else { 12 })
        .expect("--months N");

    eprintln!(
        "building scenario (seed {}, scale {})...",
        cfg.seed, cfg.scale
    );
    let scenario = Scenario::build(&cfg);
    eprintln!("collecting {} day(s) of observations via MRT...", days_n);
    let observations = scenario.collect(days_n);
    eprintln!("{} observations collected", observations.len());

    headline::print(&headline::run(&scenario, &observations));
    println!();
    fig04::print(&fig04::run(&scenario, &observations, 30));
    println!();
    fig06::print(&fig06::run(&scenario, &observations));
    println!();
    fig07::print(&fig07::run(&scenario, &observations, false));
    println!();
    fig09::print(&fig09::run(
        &scenario,
        &observations,
        &fig09::default_gaps(),
    ));
    println!();
    ratio::print(&ratio::run(
        &scenario,
        &observations,
        &ratio::default_thresholds(),
    ));
    println!();
    days::print(&days::run(&scenario, &observations, days_n));
    println!();
    table1::print(&table1::run(&scenario, &observations));
    println!();
    finegrained::print(&finegrained::run(&scenario, &observations));
    println!();
    large::print(&large::run(&scenario, &observations));
    println!();
    // Fig 10 uses the one-day dataset (a RIB snapshot, like the paper's
    // vantage-point experiment) to keep per-trial cost bounded.
    let one_day = scenario.collect(1);
    let sizes = fig10::default_sizes(scenario.vps.len());
    fig10::print(&fig10::run(&scenario, &one_day, &sizes, trials));
    println!();
    overtime::print(&overtime::run(&cfg, months));
}
