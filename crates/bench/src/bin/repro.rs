//! `repro` — regenerate every table and figure of the SMARTFEAT paper.
//!
//! Run `repro --help` (or `-h`) for the command list (`USAGE` below).

use std::process::exit;
use std::time::Duration;

use smartfeat_bench::grid::{run_grid, GridConfig};
use smartfeat_bench::{fig1, tables};

/// The `--help` text: synopsis line, then every command and option.
const USAGE: &str = "\
usage: repro [--scale F] [--seed N] [--deadline SECS] [--full] [command]

commands (default: all):
  fig1          Figure 1   row-level vs feature-level interaction cost
  table3        Table 3    dataset statistics
  table4        Table 4    average-AUC grid
  table5        Table 5    median-AUC grid
  efficiency    §4.2       wall-clock per method with timeout notes
  table6        Table 6    top-10 feature importance on Tennis
  table7        Table 7    operator ablation on Tennis
  descriptions  §4.2       full data card vs names-only ablation
  ablations     DESIGN.md  pipeline design-choice ablations
  all           everything above, in paper order

options:
  --scale F        fraction of the paper's row counts, finite and > 0
                   (default 0.25; datasets keep at least 200 rows)
  --full           same as --scale 1
  --seed N         seed for datasets, FMs and models (default 42)
  --deadline SECS  per-method wall-clock budget in seconds (default 12),
                   the analogue of the paper's one-hour limit, scaled to
                   this implementation
";

/// Every command `all` runs, in paper order.
const COMMANDS: [&str; 9] = [
    "fig1",
    "table3",
    "table4",
    "table5",
    "efficiency",
    "table6",
    "table7",
    "descriptions",
    "ablations",
];

struct Args {
    scale: f64,
    seed: u64,
    deadline: Duration,
    command: String,
}

fn parse_args() -> Result<Args, String> {
    let mut scale = 0.25_f64;
    let mut seed = 42_u64;
    let mut deadline = Duration::from_secs(12);
    let mut command = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| -> Result<String, String> {
            argv.next().ok_or(format!("{what} needs a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                exit(0);
            }
            "--scale" => {
                let v: f64 = value("--scale")?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?;
                if !(v.is_finite() && v > 0.0) {
                    return Err(format!("bad --scale: {v} is not a finite number > 0"));
                }
                scale = v;
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--deadline" => {
                let secs: f64 = value("--deadline")?
                    .parse()
                    .map_err(|e| format!("bad --deadline: {e}"))?;
                deadline = Duration::try_from_secs_f64(secs)
                    .map_err(|e| format!("bad --deadline: {secs}: {e}"))?;
            }
            "--full" => scale = 1.0,
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => {
                if let Some(first) = &command {
                    return Err(format!("one command at a time: got {first} and {other}"));
                }
                if other != "all" && !COMMANDS.contains(&other) {
                    return Err(format!("unknown command {other}"));
                }
                command = Some(other.to_string());
            }
        }
    }
    Ok(Args {
        scale,
        seed,
        deadline,
        command: command.unwrap_or_else(|| "all".to_string()),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let synopsis = USAGE.lines().next().unwrap_or_default();
            eprintln!("error: {e}\n{synopsis}\nrun `repro --help` for the command list");
            exit(2);
        }
    };
    let grid_config = GridConfig {
        scale: args.scale,
        seed: args.seed,
        method_deadline: args.deadline,
        datasets: Vec::new(),
    };
    let needs_grid = matches!(
        args.command.as_str(),
        "table4" | "table5" | "efficiency" | "all"
    );
    let grid = needs_grid.then(|| {
        eprintln!(
            "running the method grid (scale {}, seed {}, deadline {:?}) …",
            args.scale, args.seed, args.deadline
        );
        run_grid(&grid_config)
    });

    let print_header = |title: &str| {
        println!("\n== {title} ==");
    };

    let run_one = |cmd: &str| match cmd {
        "fig1" => {
            print_header("Figure 1: row-level vs feature-level FM interaction cost");
            println!("{}", tables::fig1(&fig1::default_sweep(), args.seed));
        }
        "table3" => {
            print_header("Table 3: dataset statistics");
            println!("{}", tables::table3(args.scale, args.seed));
        }
        "table4" => {
            print_header("Table 4: average AUC across the five ML models");
            println!("{}", tables::render_table4(grid.as_ref().expect("grid")));
        }
        "table5" => {
            print_header("Table 5: median AUC across the five ML models");
            println!("{}", tables::render_table5(grid.as_ref().expect("grid")));
        }
        "efficiency" => {
            print_header("Section 4.2: feature-engineering wall-clock per method");
            println!("{}", tables::efficiency(grid.as_ref().expect("grid")));
        }
        "table6" => {
            print_header("Table 6: top-10 important features on Tennis");
            println!("{}", tables::table6(args.scale, args.seed, args.deadline));
        }
        "table7" => {
            print_header("Table 7: operator ablation on Tennis");
            println!("{}", tables::table7(args.scale, args.seed));
        }
        "descriptions" => {
            print_header("Section 4.2: impact of feature descriptions (Tennis)");
            println!("{}", tables::descriptions(args.scale, args.seed));
        }
        "ablations" => {
            print_header("Design-choice ablations (DESIGN.md): pipeline knobs");
            println!("{}", tables::ablations(args.scale, args.seed));
        }
        other => unreachable!("parse_args rejects unknown command {other}"),
    };

    if args.command == "all" {
        for cmd in COMMANDS {
            run_one(cmd);
        }
    } else {
        run_one(&args.command);
    }
}
