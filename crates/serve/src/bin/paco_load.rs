//! `paco-load`: trace-replay load generator for `paco-served`.
//!
//! ```text
//! paco-load run --addr HOST:PORT (--trace FILE | --corpus FAMILY)
//!               [--corpus-seed S] [--corpus-instrs N] [--threads M]
//!               [--batch N] [--rate EVENTS_PER_SEC] [--events N]
//!               [--estimator KIND] [--profile paper|tiny] [--lag K]
//!               [--watch] [--family NAME] [--splice FAMILY]
//!               [--splice-instrs N] [--splice-seed S] [--json]
//! paco-load version
//! ```
//!
//! Replays branch events — from a recorded `.paco` trace, or synthesized
//! in memory from a named `paco-corpus` family — across M concurrent
//! sessions and reports events/s plus p50/p90/p99 batch round-trip
//! latency. Latency is summarized from log-linear histograms with fixed
//! memory, so quantiles sit within one ≤ 12.5% bucket of an exact sort
//! however long the run. Every session's prediction digest is checked
//! against an offline `OnlinePipeline` replay — a non-zero exit means
//! the service broke byte-parity.
//!
//! `--watch` declares each session's workload family at HELLO time
//! (default: the `--corpus` family; override with `--family`) and polls
//! the server's STATS telemetry, so the final report shows per-session
//! calibration and the drift verdict. `--splice FAMILY` switches the
//! synthesized stream to a second family mid-run — the drift-detection
//! demo: `--corpus biased_bimodal --watch --splice mispredict_storm`
//! must flag, the unspliced run must not.
//!
//! `paco-load churn` runs the seeded connect/park/resume/migrate storm
//! instead of a steady replay: every session streams part of its slice,
//! drops without BYE, resumes by id, optionally migrates between worker
//! shards live, and finishes — its end-to-end digest checked against
//! offline replay. Any per-session parity failure exits non-zero.

use std::process::ExitCode;

use paco::{AdaptiveMrtConfig, PacoConfig, PerBranchMrtConfig, ThresholdCountConfig};
use paco_corpus::{find_entry, CORPUS};
use paco_serve::{
    control_events, corpus_control_events, corpus_splice_events, run_churn, run_load, ChurnOptions,
    LoadOptions,
};
use paco_sim::{EstimatorKind, OnlineConfig};
use paco_types::fingerprint::code_fingerprint;

const USAGE: &str = "\
usage:
  paco-load run --addr HOST:PORT (--trace FILE | --corpus FAMILY)
                [--corpus-seed S] [--corpus-instrs N] [--threads M]
                [--batch N] [--rate EVENTS_PER_SEC] [--events N]
                [--estimator KIND] [--profile paper|tiny] [--lag K]
                [--watch] [--family NAME] [--splice FAMILY]
                [--splice-instrs N] [--splice-seed S] [--json]
  paco-load churn --addr HOST:PORT --corpus FAMILY
                [--corpus-seed S] [--corpus-instrs N] [--sessions N]
                [--threads M] [--batch N] [--session-events N]
                [--seed S] [--migrate-every K] [--estimator KIND]
                [--profile paper|tiny] [--lag K] [--json]
  paco-load version

estimators: paco count static perbranch adaptive none   (default: paco)
families:   loop_nest call_chain phased_flip markov_walk mispredict_storm
            biased_bimodal (seed defaults to the manifest's)
defaults:   --threads 1, --batch 512, --profile paper, --corpus-instrs 200000
watch:      --watch declares the --corpus family (or --family NAME) and
            polls STATS; --splice FAMILY switches the stream to a second
            family mid-run to exercise the drift detector
            (--splice-instrs defaults to --corpus-instrs)
churn:      every session connects, streams, drops without BYE, resumes
            by id, optionally migrates shards (every --migrate-every-th
            session; 0 = never), finishes and byte-checks its whole
            prediction stream against offline replay; any per-session
            parity failure exits non-zero";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("churn") => churn(&args[1..]),
        Some("version") | Some("--version") | Some("-V") => {
            println!(
                "paco-load {} protocol {} fingerprint {:016x}",
                env!("CARGO_PKG_VERSION"),
                paco_serve::PROTOCOL_VERSION,
                code_fingerprint()
            );
            Ok(ExitCode::SUCCESS)
        }
        Some("--help" | "-h" | "help") | None => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown subcommand `{other}`\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("paco-load: {msg}");
            ExitCode::from(2)
        }
    }
}

fn parse_estimator(name: &str) -> Result<EstimatorKind, String> {
    Ok(match name {
        "paco" => EstimatorKind::Paco(PacoConfig::paper()),
        "count" => EstimatorKind::ThresholdCount(ThresholdCountConfig::paper_default()),
        "static" => EstimatorKind::StaticMrt,
        "perbranch" => EstimatorKind::PerBranchMrt(PerBranchMrtConfig::paper()),
        "adaptive" => EstimatorKind::AdaptiveMrt(AdaptiveMrtConfig::paper()),
        "none" => EstimatorKind::None,
        other => {
            return Err(format!(
                "unknown estimator `{other}` (paco|count|static|perbranch|adaptive|none)"
            ))
        }
    })
}

/// A subcommand's argument cursor.
struct Args<'a>(std::slice::Iter<'a, String>);

impl Args<'_> {
    fn value(&mut self, flag: &str) -> Result<String, String> {
        self.0
            .next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    }

    fn num<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self.value(flag)?;
        v.parse()
            .map_err(|_| format!("{flag} expects an integer, got `{v}`"))
    }
}

/// The flags `run` and `churn` share, checked and resolved.
struct Common {
    addr: String,
    /// The `--corpus` family with its seed and instruction count.
    corpus: Option<(paco_corpus::CorpusEntry, u64, u64)>,
    threads: Option<usize>,
    batch: Option<usize>,
    config: OnlineConfig,
    json: bool,
}

impl Common {
    /// Parses `args` for subcommand `cmd`, handing every flag it does not
    /// share to `own`, which answers `Ok(false)` for a flag it does not
    /// know either.
    fn parse(
        cmd: &str,
        args: &[String],
        mut own: impl FnMut(&str, &mut Args) -> Result<bool, String>,
    ) -> Result<Common, String> {
        let mut addr = None;
        let mut corpus = None;
        let mut corpus_seed = None;
        let mut corpus_instrs = None;
        let mut threads = None;
        let mut batch = None;
        let mut estimator = "paco".to_string();
        let mut profile = "paper".to_string();
        let mut lag = None;
        let mut json = false;
        let mut it = Args(args.iter());
        while let Some(arg) = it.0.next() {
            let flag = arg.as_str();
            match flag {
                "--addr" => addr = Some(it.value(flag)?),
                "--corpus" => corpus = Some(it.value(flag)?),
                "--corpus-seed" => corpus_seed = Some(it.num::<u64>(flag)?),
                "--corpus-instrs" => corpus_instrs = Some(it.num::<u64>(flag)?),
                "--threads" => threads = Some(it.num(flag)?),
                "--batch" => batch = Some(it.num(flag)?),
                "--estimator" => estimator = it.value(flag)?,
                "--profile" => profile = it.value(flag)?,
                "--lag" => lag = Some(it.num::<usize>(flag)?),
                "--json" => json = true,
                other => {
                    if !own(other, &mut it)? {
                        return Err(format!("unknown flag `{other}`\n{USAGE}"));
                    }
                }
            }
        }
        let addr = addr.ok_or_else(|| format!("{cmd} needs --addr"))?;
        if threads == Some(0) || batch == Some(0) {
            return Err("--threads and --batch must be at least 1".into());
        }
        if batch.is_some_and(|b| b > paco_serve::MAX_EVENTS_PER_FRAME) {
            return Err(format!(
                "--batch must be at most {} (events per frame)",
                paco_serve::MAX_EVENTS_PER_FRAME
            ));
        }
        if corpus.is_none() && (corpus_seed.is_some() || corpus_instrs.is_some()) {
            return Err("--corpus-seed/--corpus-instrs require --corpus".into());
        }
        if corpus_instrs == Some(0) {
            return Err("--corpus-instrs must be at least 1".into());
        }

        let kind = parse_estimator(&estimator)?;
        let mut config = match profile.as_str() {
            "paper" => OnlineConfig::paper(kind),
            "tiny" => OnlineConfig::tiny(kind),
            other => return Err(format!("unknown profile `{other}` (paper|tiny)")),
        };
        if let Some(lag) = lag {
            config.resolve_lag = lag;
        }
        config.validate()?;

        let corpus = match corpus {
            Some(name) => {
                let entry = lookup_family(&name)?;
                let seed = corpus_seed.unwrap_or(entry.seed);
                Some((entry, seed, corpus_instrs.unwrap_or(200_000)))
            }
            None => None,
        };
        Ok(Common {
            addr,
            corpus,
            threads,
            batch,
            config,
            json,
        })
    }

    /// Prints a report, text or JSON, and maps a parity failure (what
    /// diverged) to a failing exit code.
    fn emit(&self, text: String, json: String, failure: Option<String>) -> ExitCode {
        if self.json {
            println!("{json}");
        } else {
            print!("{text}");
        }
        match failure {
            Some(what) => {
                eprintln!("paco-load: PARITY FAILURE: {what} diverged from the offline pipeline");
                ExitCode::FAILURE
            }
            None => ExitCode::SUCCESS,
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut trace = None;
    let mut watch = false;
    let mut family = None;
    let mut splice = None;
    let mut splice_instrs: Option<u64> = None;
    let mut splice_seed = None;
    let mut options = LoadOptions::default();
    let common = Common::parse("run", args, |flag, it| {
        match flag {
            "--trace" => trace = Some(it.value(flag)?),
            "--events" => options.events_per_thread = Some(it.num::<u64>(flag)?),
            "--rate" => {
                let v = it.value(flag)?;
                let rate: f64 = v
                    .parse()
                    .map_err(|_| format!("--rate expects a number, got `{v}`"))?;
                if rate <= 0.0 || !rate.is_finite() {
                    return Err("--rate must be positive".into());
                }
                options.target_rate = Some(rate);
            }
            "--watch" => watch = true,
            "--family" => family = Some(it.value(flag)?),
            "--splice" => splice = Some(it.value(flag)?),
            "--splice-instrs" => splice_instrs = Some(it.num(flag)?),
            "--splice-seed" => splice_seed = Some(it.num::<u64>(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if splice.is_some() && common.corpus.is_none() {
        return Err("--splice requires --corpus (it splices synthesized streams)".into());
    }
    if splice.is_none() && (splice_instrs.is_some() || splice_seed.is_some()) {
        return Err("--splice-instrs/--splice-seed require --splice".into());
    }
    if splice_instrs == Some(0) {
        return Err("--splice-instrs must be at least 1".into());
    }
    if family.is_some() && !watch {
        return Err("--family requires --watch (it pins the drift detector)".into());
    }
    options.threads = common.threads.unwrap_or(options.threads);
    options.batch = common.batch.unwrap_or(options.batch);
    options.config = common.config;

    let events = match (&trace, &common.corpus) {
        (Some(trace), None) => control_events(trace),
        (None, Some((entry, seed, instrs))) => {
            if watch && family.is_none() {
                // A watched corpus run declares its own family by
                // default, so the server pins the right reference.
                family = Some(entry.name.to_string());
            }
            match &splice {
                Some(splice_name) => {
                    let splice_entry = lookup_family(splice_name)?;
                    corpus_splice_events(
                        &entry.family,
                        *seed,
                        *instrs,
                        &splice_entry.family,
                        splice_seed.unwrap_or(splice_entry.seed),
                        splice_instrs.unwrap_or(*instrs),
                    )
                    .map(|(events, _)| events)
                }
                None => corpus_control_events(&entry.family, *seed, *instrs),
            }
        }
        _ => return Err("run needs exactly one of --trace and --corpus".into()),
    }
    .map_err(|e| e.to_string())?;
    options.watch = watch;
    options.family = family;
    let report = run_load(common.addr.as_str(), &events, &options).map_err(|e| e.to_string())?;
    let failure = (!report.parity_ok).then(|| "online predictions".to_string());
    Ok(common.emit(report.render_text(), report.render_json(), failure))
}

fn churn(args: &[String]) -> Result<ExitCode, String> {
    let mut options = ChurnOptions::default();
    let common = Common::parse("churn", args, |flag, it| {
        match flag {
            "--sessions" => options.sessions = it.num(flag)?,
            "--session-events" => options.events_per_session = it.num(flag)?,
            "--seed" => options.seed = it.num(flag)?,
            "--migrate-every" => options.migrate_every = it.num(flag)?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let (entry, seed, instrs) = common
        .corpus
        .as_ref()
        .ok_or("churn needs --corpus (it synthesizes the event pool)")?;
    if options.sessions == 0 {
        return Err("--sessions must be at least 1".into());
    }
    if options.events_per_session == 0 {
        return Err("--session-events must be at least 1".into());
    }
    options.threads = common.threads.unwrap_or(options.threads);
    options.batch = common.batch.unwrap_or(options.batch);
    options.config = common.config;

    let pool = corpus_control_events(&entry.family, *seed, *instrs).map_err(|e| e.to_string())?;
    let report = run_churn(common.addr.as_str(), &pool, &options).map_err(|e| e.to_string())?;
    let failure = (!report.parity_ok())
        .then(|| format!("{} churned session(s)", report.parity_failures.len()));
    Ok(common.emit(report.render_text(), report.render_json(), failure))
}

fn lookup_family(name: &str) -> Result<paco_corpus::CorpusEntry, String> {
    find_entry(name).ok_or_else(|| {
        let known: Vec<&str> = CORPUS.iter().map(|e| e.name).collect();
        format!(
            "unknown corpus family `{name}` (known: {})",
            known.join(" ")
        )
    })
}
