//! `smartfeat` — run feature construction on your own CSV from the shell.
//!
//! Run `smartfeat --help` (or `-h`) for the option list (`USAGE` below).
//!
//! The FM endpoints are in-process simulated model families (the GPT-4 /
//! GPT-3.5 pair by default; see `--backend` / `--cascade`); to target a
//! real API implement `smartfeat_fm::FoundationModel` and use the library
//! interface instead.

use std::process::exit;

use smartfeat::{
    build_role_fms, BackendKind, DataAgenda, SearchStrategyKind, SmartFeat, SmartFeatConfig,
};
use smartfeat_fm::{FoundationModel, Transcribing};
use smartfeat_frame::csv;

/// The `--help` text: synopsis line, then every option.
const USAGE: &str = "\
usage: smartfeat --csv data.csv --target label [options]

options:
  --csv PATH            input CSV (header row required)
  --target NAME         binary prediction-class column (exactly two
                        distinct non-null values)
  --out PATH            write the augmented CSV here (default: stdout summary only)
  --describe COL=TEXT   feature description (repeatable; quote the pair)
  --model NAME          downstream model named in prompts (default RF)
  --seed N              FM seed (default 42)
  --budget N            sampling budget per operator family (default 10)
  --strategy NAME       search strategy: one_shot (default), beam,
                        evolutionary, react
  --beam-width N        beam: survivors kept per round (default 3)
  --beam-depth N        beam: pool-score-prune rounds (default 2)
  --generations N       evolutionary: generations (default 3)
  --population N        evolutionary: population size (default 6)
  --react-turns N       react: observe-think-act turn budget (default 8)
  --fm-budget N         cap on selector FM calls for the search
                        (default 0 = unlimited)
  --backend NAME        serve both roles from one simulated backend:
                        babbage-002, gpt-3.5-turbo, gpt-4
                        (default: gpt-4 selector + gpt-3.5-turbo generator)
  --cascade             route every prompt through the cost-ordered
                        cascade (babbage-002 -> gpt-3.5-turbo -> gpt-4),
                        escalating on parse failure or hedged output;
                        mutually exclusive with --backend
  --no-drop             disable the original-feature drop heuristic
  --fm-removal          enable the FM feature-removal extension
  --transcript          print the full FM dialogue afterwards
  --trace-out PATH      write the JSONL observability trace here
  --metrics-out PATH    write the end-of-run JSON metrics report here
                        (timestamps use a deterministic logical clock;
                        set SMARTFEAT_OBS_WALLCLOCK=1 for wall time)

environment:
  SMARTFEAT_THREADS=N   worker threads for parallel compute stages
                        (default: the core count; output is identical
                        for every value)
";

/// The config field each flag sets, as `validate()` names it, so a
/// validation error names the flag the user typed instead.
const FLAG_OF_FIELD: [(&str, &str); 7] = [
    ("sampling_budget", "--budget"),
    ("search.beam_width", "--beam-width"),
    ("search.beam_depth", "--beam-depth"),
    ("search.generations", "--generations"),
    ("search.population", "--population"),
    ("search.react_turns", "--react-turns"),
    ("backend and cascade", "--backend and --cascade"),
];

struct Args {
    csv: String,
    target: String,
    out: Option<String>,
    descriptions: Vec<(String, String)>,
    model: String,
    transcript: bool,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    /// Built from the flags and validated before any file is read.
    config: SmartFeatConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut csv = None;
    let mut target = None;
    let mut out = None;
    let mut descriptions = Vec::new();
    let mut model = "RF".to_string();
    let mut transcript = false;
    let mut metrics_out = None;
    let mut trace_out = None;
    let mut config = SmartFeatConfig {
        seed: 42,
        ..SmartFeatConfig::default()
    };
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
            "--csv" => csv = Some(value("--csv")?),
            "--target" => target = Some(value("--target")?),
            "--out" => out = Some(value("--out")?),
            "--describe" => {
                let pair = value("--describe")?;
                let (col, text) = pair
                    .split_once('=')
                    .ok_or("--describe expects COL=TEXT".to_string())?;
                descriptions.push((col.trim().to_string(), text.trim().to_string()));
            }
            "--model" => model = value("--model")?,
            "--seed" => {
                config.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--budget" => {
                config.sampling_budget = value("--budget")?
                    .parse()
                    .map_err(|e| format!("bad --budget: {e}"))?;
            }
            "--strategy" => {
                let name = value("--strategy")?;
                config.search.strategy = SearchStrategyKind::parse(&name).ok_or_else(|| {
                    format!(
                        "unknown --strategy {name:?}; choose from {}",
                        SearchStrategyKind::all()
                            .map(SearchStrategyKind::name)
                            .join(", ")
                    )
                })?;
            }
            "--beam-width" => {
                config.search.beam_width = value("--beam-width")?
                    .parse()
                    .map_err(|e| format!("bad --beam-width: {e}"))?;
            }
            "--beam-depth" => {
                config.search.beam_depth = value("--beam-depth")?
                    .parse()
                    .map_err(|e| format!("bad --beam-depth: {e}"))?;
            }
            "--generations" => {
                config.search.generations = value("--generations")?
                    .parse()
                    .map_err(|e| format!("bad --generations: {e}"))?;
            }
            "--population" => {
                config.search.population = value("--population")?
                    .parse()
                    .map_err(|e| format!("bad --population: {e}"))?;
            }
            "--react-turns" => {
                config.search.react_turns = value("--react-turns")?
                    .parse()
                    .map_err(|e| format!("bad --react-turns: {e}"))?;
            }
            "--fm-budget" => {
                config.search.fm_call_budget = value("--fm-budget")?
                    .parse()
                    .map_err(|e| format!("bad --fm-budget: {e}"))?;
            }
            "--backend" => {
                let name = value("--backend")?;
                config.backend = Some(BackendKind::parse(&name).ok_or_else(|| {
                    format!(
                        "unknown --backend {name:?}; choose from {}",
                        BackendKind::all().map(BackendKind::name).join(", ")
                    )
                })?);
            }
            "--cascade" => config.cascade.enabled = true,
            "--no-drop" => config.drop_heuristic = false,
            "--fm-removal" => config.fm_feature_removal = true,
            "--transcript" => transcript = true,
            "--trace-out" => trace_out = Some(value("--trace-out")?),
            "--metrics-out" => metrics_out = Some(value("--metrics-out")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let csv = csv.ok_or("--csv is required")?;
    let target = target.ok_or("--target is required")?;
    config.validate().map_err(|e| {
        let message = e.to_string();
        match FLAG_OF_FIELD
            .iter()
            .find(|(field, _)| message.contains(field))
        {
            Some((field, flag)) => message.replacen(field, flag, 1),
            None => message,
        }
    })?;
    Ok(Args {
        csv,
        target,
        out,
        descriptions,
        model,
        transcript,
        metrics_out,
        trace_out,
        config,
    })
}

/// Exit 1 naming `path` unless it can be opened for writing, so a
/// mistyped output path fails before the CSV is read and any FM call is
/// billed. An existing file is opened without truncating it; a new one
/// is created and removed again, so a refused run leaves nothing behind.
fn check_writable(path: &str) {
    let existed = std::path::Path::new(path).exists();
    match std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
    {
        Ok(_) if !existed => {
            let _ = std::fs::remove_file(path);
        }
        Ok(_) => {}
        Err(e) => {
            eprintln!("error writing {path}: {e}");
            exit(1);
        }
    }
}

/// Write `text` to `path`, or report the failure and exit 1.
fn write_or_exit(path: &str, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("error writing {path}: {e}");
        exit(1);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let synopsis = USAGE.lines().next().unwrap_or_default();
            eprintln!("error: {e}\n{synopsis}\nrun `smartfeat --help` for the option list");
            exit(2);
        }
    };

    for path in [&args.out, &args.metrics_out, &args.trace_out]
        .into_iter()
        .flatten()
    {
        check_writable(path);
    }

    let df = match csv::read_csv_path(std::path::Path::new(&args.csv)) {
        Ok(df) => df,
        Err(e) => {
            eprintln!("error reading {}: {e}", args.csv);
            exit(1);
        }
    };
    if !df.has_column(&args.target) {
        eprintln!(
            "error: target column {:?} not found; columns are {:?}",
            args.target,
            df.column_names()
        );
        exit(1);
    }
    for (col, _) in &args.descriptions {
        if !df.has_column(col) {
            eprintln!(
                "warning: --describe names unknown column {col:?}; columns are {:?}",
                df.column_names()
            );
        }
    }
    let pairs: Vec<(&str, &str)> = args
        .descriptions
        .iter()
        .map(|(a, b)| (a.as_str(), b.as_str()))
        .collect();
    let agenda = DataAgenda::from_frame(&df, &pairs, &args.target, &args.model);

    let (selector_fm, generator_fm) = build_role_fms(&args.config);
    let selector = Transcribing::new(selector_fm);
    let generator = Transcribing::new(generator_fm);
    let run = SmartFeat::new(&selector, &generator, args.config.clone()).run(&df, &agenda);
    let report = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pipeline failed: {e}");
            exit(1);
        }
    };

    println!("{}", report.summary());
    println!("Generated features:");
    for g in &report.generated {
        println!("  {:<40} {}", g.name, g.transform);
    }
    if !report.dropped_originals.is_empty() {
        println!("Dropped originals: {:?}", report.dropped_originals);
    }
    if !report.fm_removed.is_empty() {
        println!("FM-removed features: {:?}", report.fm_removed);
    }
    for (feature, source) in &report.source_suggestions {
        println!("Suggested source for {feature}: {source}");
    }

    if let Some(path) = args.out {
        write_or_exit(&path, &csv::write_csv_str(&report.frame));
        println!(
            "\nAugmented dataset ({} columns) written to {path}",
            report.frame.n_cols()
        );
    }

    if let Some(path) = &args.metrics_out {
        write_or_exit(path, &format!("{}\n", report.metrics.emit()));
        println!("Metrics report written to {path}");
    }
    if let Some(path) = &args.trace_out {
        write_or_exit(path, &report.trace);
        println!("Trace written to {path}");
    }

    if args.transcript {
        println!(
            "\n=== operator-selector dialogue ({}) ===",
            selector.model_name()
        );
        println!("{}", selector.render(160));
        println!(
            "=== function-generator dialogue ({}) ===",
            generator.model_name()
        );
        println!("{}", generator.render(160));
    }
}
