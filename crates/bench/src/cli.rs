//! The `paco-bench` command-line interface.
//!
//! ```text
//! paco-bench list
//! paco-bench run <experiment>... [--jobs N] [--no-cache] [--json]
//! ```
//!
//! `run` accepts any experiment name from `list` (or `all`), executes its
//! spec through the parallel engine with the on-disk result cache, prints
//! the rendered artifact to stdout (or machine-readable JSON with
//! `--json`), and reports an execution summary on stderr:
//!
//! ```text
//! paco-bench: fig9: cells=12 cached=12 executed=0 jobs=8 secs=0.01
//! ```

use std::time::Instant;

use crate::cache::ResultCache;
use crate::engine::Engine;
use crate::experiments::{ExperimentId, ResultSet, ALL_EXPERIMENTS};
use crate::json::run_json;
use crate::runner::env_params;

/// Parsed `run` options.
#[derive(Debug, Default)]
struct RunOptions {
    jobs: Option<usize>,
    no_cache: bool,
    json: bool,
    help: bool,
}

const USAGE: &str = "usage:
  paco-bench list
  paco-bench run <experiment>... [--jobs N] [--no-cache] [--json]
  paco-bench version

Run `paco-bench list` for the available experiments; `all` runs every
one. PACO_INSTRS / PACO_SEED / PACO_WARMUP adjust run lengths, and
PACO_BENCH_CACHE_DIR relocates the result cache
(default: target/paco-bench-cache). `version` prints the executable
fingerprint that keys the result cache.";

/// Entry point for the `paco-bench` binary. Returns the process exit
/// code.
pub fn main_multi(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("list") => {
            for id in ALL_EXPERIMENTS {
                println!("{:<10} {}", id.name(), id.describe());
            }
            0
        }
        Some("run") => match parse_run(&args[1..]) {
            Ok((_, opts)) if opts.help => {
                println!("{USAGE}");
                0
            }
            Ok((ids, opts)) if !ids.is_empty() => {
                for id in ids {
                    run_experiment(id, &opts);
                }
                0
            }
            Ok(_) => {
                eprintln!("paco-bench: run requires at least one experiment name\n{USAGE}");
                2
            }
            Err(e) => {
                eprintln!("paco-bench: {e}\n{USAGE}");
                2
            }
        },
        Some("version") | Some("--version") | Some("-V") => {
            println!(
                "paco-bench {} fingerprint {:016x}",
                env!("CARGO_PKG_VERSION"),
                crate::cache::code_fingerprint()
            );
            0
        }
        Some("--help") | Some("-h") | Some("help") => {
            println!("{USAGE}");
            0
        }
        _ => {
            eprintln!("{USAGE}");
            2
        }
    }
}

fn parse_run(args: &[String]) -> Result<(Vec<ExperimentId>, RunOptions), String> {
    let mut ids = Vec::new();
    let mut opts = RunOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--jobs" | "-j" => {
                let v = it.next().ok_or("--jobs requires a value")?;
                let jobs: usize = v
                    .parse()
                    .map_err(|_| format!("invalid --jobs value {v:?}"))?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
                opts.jobs = Some(jobs);
            }
            "--no-cache" => opts.no_cache = true,
            "--json" => opts.json = true,
            "--help" | "-h" => opts.help = true,
            "all" => {
                for id in ALL_EXPERIMENTS {
                    if !ids.contains(&id) {
                        ids.push(id);
                    }
                }
            }
            name if name.starts_with('-') => {
                return Err(format!("unknown flag {name:?}"));
            }
            name => {
                let id = ExperimentId::from_name(name)
                    .ok_or_else(|| format!("unknown experiment {name:?}"))?;
                if !ids.contains(&id) {
                    ids.push(id);
                }
            }
        }
    }
    Ok((ids, opts))
}

/// Runs one experiment through the engine and prints its artifact.
fn run_experiment(id: ExperimentId, opts: &RunOptions) {
    let params = env_params(id.default_instrs());
    let spec = id.spec(params);

    let mut engine = Engine::new();
    if let Some(jobs) = opts.jobs {
        engine = engine.jobs(jobs);
    }
    if !opts.no_cache {
        match ResultCache::open_default() {
            Ok(cache) => engine = engine.cache(cache),
            Err(e) => eprintln!(
                "paco-bench: warning: cannot open result cache at {}: {e}; running uncached",
                ResultCache::default_dir().display()
            ),
        }
    }

    let started = Instant::now();
    let run = engine.run(&spec);
    let secs = started.elapsed().as_secs_f64();

    if opts.json {
        println!("{}", run_json(&spec, &run));
    } else {
        let set = ResultSet {
            spec: &spec,
            results: &run.results,
        };
        print!("{}", id.render(&set));
    }
    eprintln!(
        "paco-bench: {}: cells={} cached={} executed={} jobs={} secs={secs:.2}",
        spec.name,
        spec.cells().len(),
        run.cached,
        run.executed,
        run.jobs
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_run_flags() {
        let (ids, opts) =
            parse_run(&strs(&["fig9", "--jobs", "4", "--no-cache", "--json"])).unwrap();
        assert_eq!(ids, vec![ExperimentId::Fig9]);
        assert_eq!(opts.jobs, Some(4));
        assert!(opts.no_cache && opts.json);
    }

    #[test]
    fn expands_all_and_dedupes() {
        let (ids, _) = parse_run(&strs(&["fig3", "all"])).unwrap();
        assert_eq!(ids.len(), ALL_EXPERIMENTS.len());
    }

    #[test]
    fn rejects_unknown_names_and_flags() {
        assert!(parse_run(&strs(&["fig99"])).is_err());
        assert!(parse_run(&strs(&["--bogus"])).is_err());
        assert!(parse_run(&strs(&["fig2", "--jobs"])).is_err());
        assert!(parse_run(&strs(&["fig2", "--jobs", "0"])).is_err());
    }

    #[test]
    fn help_flag_is_recognized() {
        let (_, opts) = parse_run(&strs(&["--help"])).unwrap();
        assert!(opts.help);
        assert_eq!(main_multi(&strs(&["run", "--help"])), 0);
    }
}
