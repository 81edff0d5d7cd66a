//! Command line of `osim-bench`; see the crate documentation and
//! `benchmark/README.md`.

use std::path::Path;
use std::process::ExitCode;

use osim_bench::spec::Spec;
use osim_bench::{agree, run, RunCfg};

const USAGE: &str = "usage:
  osim-bench run --workload <name> --seed <n> [--seconds <whole s>] [--trace <0|1>]
                 [--out <result.json>] [--chrome <trace.json>] [--smoke]
  osim-bench agree <dir-a> <dir-b>";

fn usage(msg: &str) -> ExitCode {
    eprintln!("osim-bench: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::embedded();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&spec, &args[1..]),
        Some("agree") if args.len() == 3 => {
            match agree::agree(&spec, Path::new(&args[1]), Path::new(&args[2])) {
                Ok((report, ok)) => {
                    print!("{report}");
                    if ok {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::from(1)
                    }
                }
                Err(e) => {
                    eprintln!("osim-bench agree: {e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => usage("expected a subcommand"),
    }
}

fn cmd_run(spec: &Spec, args: &[String]) -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut out_path = None;
    let mut chrome_path = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => match value.parse::<u64>() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage("--seed takes a whole number"),
            },
            "--seconds" => match value.parse::<u64>() {
                Ok(s) => seconds = Some(s),
                Err(_) => return usage("--seconds takes a whole number"),
            },
            "--trace" => match value.as_str() {
                "0" => traced = false,
                "1" => traced = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            "--out" => out_path = Some(value.clone()),
            "--chrome" => chrome_path = Some(value.clone()),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    if !spec.workloads.contains(&workload) {
        return usage(&format!(
            "unknown workload `{workload}` (have {:?})",
            spec.workloads
        ));
    }
    let Some(seed) = seed else {
        return usage("--seed is required");
    };
    if chrome_path.is_some() && !traced {
        return usage("--chrome needs --trace 1");
    }
    let cfg = RunCfg {
        workload,
        seed,
        seconds: seconds.unwrap_or(if smoke { 0 } else { spec.run_seconds }),
        traced,
        smoke,
    };
    let outcome = match run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("osim-bench run: {e}");
            return ExitCode::from(1);
        }
    };
    let written = (|| -> Result<String, String> {
        if let Some(path) = &out_path {
            let doc = outcome.document(spec, &cfg)?;
            std::fs::write(path, doc.to_pretty() + "\n").map_err(|e| format!("{path}: {e}"))?;
        }
        if let Some(path) = &chrome_path {
            let doc = osim_bench::trace::chrome_doc(&outcome.spans);
            std::fs::write(path, doc.to_compact()).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote {} spans to {path}", outcome.spans.len());
        }
        outcome.render(spec, cfg.traced)
    })();
    match written {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("osim-bench run: {e}");
            ExitCode::from(1)
        }
    }
}
