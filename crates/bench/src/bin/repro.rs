//! `repro` — regenerate every table and figure of the SC'13 paper.
//!
//! ```text
//! repro all                         # everything (default sample sizes)
//! repro fig8 --samples 100000000    # one experiment, bigger Monte Carlo
//! repro table3 fig16 --out results  # a subset
//! ```
//!
//! `repro --help` lists the experiments.

use pcm_bench::experiments as exp;
use pcm_bench::experiments::Opts;

/// One table/figure/ablation run; it prints its table and writes its CSV.
type Experiment = fn(&Opts);

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("table1", exp::table1),
    ("table2", exp::table2),
    ("table3", exp::table3),
    ("table4", exp::table4),
    ("table5", exp::table5),
    ("fig1", exp::fig1),
    ("fig2", exp::fig2),
    ("fig3", exp::fig3),
    ("fig4", exp::fig4),
    ("fig5", exp::fig5),
    ("fig6", exp::fig6_fig7),
    ("fig7", exp::fig6_fig7),
    ("fig8", exp::fig8),
    ("fig9", exp::fig9),
    ("fig12", exp::fig12),
    ("fig13", exp::fig13),
    ("fig14", exp::fig14),
    ("fig15", exp::fig15),
    ("fig16", exp::fig16),
    ("ablate-mapping", exp::ablate_mapping),
    ("ablate-ecc", exp::ablate_ecc),
    ("ablate-scale", exp::ablate_scale),
    ("ablate-sensing", exp::ablate_sensing),
    ("ablate-relaxed-write", exp::ablate_relaxed_write),
    ("ablate-lifetime", exp::ablate_lifetime),
    ("validate-bler", exp::validate_bler),
    (
        "validate-write-distribution",
        exp::validate_write_distribution,
    ),
];

const USAGE: &str =
    "usage: repro [EXPERIMENT ...] [--samples N] [--instructions N] [--out DIR] [--seed N]";

/// The usage line plus the experiment names.
fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
    format!("{USAGE}\nexperiments: all {}", names.join(" "))
}

/// The experiment a name selects (`fig10`/`fig11` are panels of
/// `fig12`'s run).
fn experiment(name: &str) -> Option<Experiment> {
    let name = match name {
        "fig10" | "fig11" => "fig12",
        name => name,
    };
    EXPERIMENTS
        .iter()
        .find(|&&(known, _)| known == name)
        .map(|&(_, run)| run)
}

/// Print `msg` and the usage line to stderr, then exit 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n{}", usage());
    std::process::exit(2);
}

/// Parse `flag`'s value, or exit 2 if it is missing or not a number.
fn number<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage_error(&format!("{flag} needs an integer")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts::default();
    let mut targets: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--samples" => opts.samples = number("--samples", it.next()),
            "--instructions" => opts.instructions = number("--instructions", it.next()),
            "--out" => {
                opts.out_dir = it
                    .next()
                    .unwrap_or_else(|| usage_error("--out needs a directory"));
            }
            "--seed" => opts.seed = number("--seed", it.next()),
            "--help" | "-h" => {
                println!("{}", usage());
                return;
            }
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() || targets.iter().any(|t| t == "all") {
        // fig6/fig7 share one function; skip the duplicate invocation.
        targets = EXPERIMENTS
            .iter()
            .filter(|&&(name, _)| name != "fig7")
            .map(|&(name, _)| name.to_string())
            .collect();
    }
    // Resolve every name before any experiment runs, so a typo late in
    // the list fails the run without writing the earlier CSVs.
    let runs: Vec<Experiment> = targets
        .iter()
        .map(|t| experiment(t).unwrap_or_else(|| usage_error(&format!("unknown experiment '{t}'"))))
        .collect();
    println!(
        "mlc-pcm reproduction harness  (samples {}, instructions {}, seed {}, out {}/)\n",
        opts.samples, opts.instructions, opts.seed, opts.out_dir
    );
    for run in runs {
        run(&opts);
        println!();
    }
}
