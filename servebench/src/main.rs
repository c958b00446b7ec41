//! `servebench --workload <bulk|interactive|churn> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric by name with its unit, the failure count and the
//! parity verdict, then one JSON result line. Exits 1 on a digest
//! mismatch or a failed run, 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use servebench::{run, Plan, Workload};

fn usage(problem: &str) -> ExitCode {
    eprintln!("servebench: {problem}");
    eprintln!(
        "usage: servebench --workload <bulk|interactive|churn> --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut traced = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(&value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload `{value}`")),
            },
            "--seed" => match value.parse() {
                Ok(v) => seed = v,
                Err(_) => return usage(&format!("bad seed `{value}`")),
            },
            "--seconds" => match value.parse() {
                Ok(v) if v > 0 => seconds = v,
                _ => return usage(&format!("bad seconds `{value}`")),
            },
            "--trace" => match value.as_str() {
                "0" => traced = false,
                "1" => traced = true,
                _ => return usage(&format!("bad trace flag `{value}`")),
            },
            _ => return usage(&format!("unknown flag `{flag}`")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };

    let plan = Plan::new(workload, seed, Duration::from_secs(seconds));
    let spans = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}.tsv", workload.name()));
    println!(
        "servebench {} seed {} seconds {} trace {} shards {} client threads {} sessions/round {} frame {} events",
        workload.name(),
        seed,
        seconds,
        u8::from(traced),
        plan.shards,
        plan.threads,
        plan.storm,
        plan.frame
    );
    let report = match run(&plan, traced, traced.then_some(spans.as_path())) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(1);
        }
    };
    for m in &report.metrics {
        println!("metric {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for m in &report.notes {
        println!("info   {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "failed_frac {} ({} of {} operations)",
        report.failed_frac(),
        report.failed,
        report.attempted
    );
    if report.correct() {
        println!(
            "parity ok ({} sessions byte-identical to the per-event oracle{})",
            report.sessions_checked,
            if traced {
                "; stage replay identical to the live stream"
            } else {
                ""
            }
        );
    } else {
        println!(
            "parity FAILED ({} live sessions differ from the oracle, {} replayed sessions differ from the live stream)",
            report.mismatches, report.replay_mismatches
        );
    }
    if traced {
        println!("spans {}", spans.display());
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
