//! The repo's benchmark: five named workloads over the whole stack.
//!
//! ```text
//! shahin-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! shahin-benchmark [--seed <u64>] [--sets <n>] [--smoke] [--seconds <n>]
//! ```
//!
//! The first form runs one workload in this process and prints, as the
//! last line of stdout, the result object `BENCHMARK.json`'s contract
//! asks for. The second runs all five, each in a process of its own,
//! untraced then traced, and prints every metric by name with its unit.
//! See `README.md`.

mod inputs;
mod insitu;
mod loadgen;
mod offline;
mod probes;
mod report;
mod serve;
mod spans;
mod stats;
mod suite;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{result_file, result_line, write_out, Environment, END_TO_END, PER_LAYER, WORKLOADS};

/// Run length every size in the workload plans is tuned for.
pub const REFERENCE_SECONDS: f64 = 15.0;

/// What one workload process is asked to do.
pub struct Ctl {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// The traced repeat (per-layer metrics) instead of the measured run.
    pub traced: bool,
    /// Directory for result, row and trace files.
    pub out: PathBuf,
}

impl Ctl {
    /// Workload sizes scale linearly with the run length.
    pub fn scale(&self) -> f64 {
        self.seconds / REFERENCE_SECONDS
    }

    /// Set-ups per run: the measured run reports their median.
    pub fn setup_reps(&self) -> usize {
        if self.traced {
            1
        } else {
            3
        }
    }
}

/// Parsed command line.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    out: PathBuf,
    sets: usize,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        traced: false,
        out: PathBuf::from("benchmark/out"),
        sets: 1,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--sets" => args.sets = value()?.parse().map_err(|e| format!("--sets: {e}"))?,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload.clone() else {
        return suite::run(args.seed, args.sets, args.smoke, args.seconds, &args.out);
    };
    let ctl = Ctl {
        workload,
        seed: args.seed,
        seconds: args.seconds.unwrap_or(REFERENCE_SECONDS),
        traced: args.traced,
        out: args.out,
    };
    let mut outcome = match ctl.workload.as_str() {
        "serve_steady" | "serve_tenants" => serve::run_workload(&ctl),
        name => offline::run_workload(name, &ctl),
    };
    let defs: &[_] = if ctl.traced { &PER_LAYER } else { &END_TO_END };
    if ctl.traced {
        // An in-situ metric of a layer this workload never enters reads 0.
        for def in defs {
            outcome.values.entry(def.name).or_insert(0.0);
        }
    }
    let env = Environment::detect();
    println!(
        "# {} seed={} seconds={} trace={} nproc={} rustc={} commit={}",
        ctl.workload,
        ctl.seed,
        ctl.seconds,
        u8::from(ctl.traced),
        env.nproc,
        env.rustc,
        env.commit
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    for def in defs {
        println!(
            "{:<40} {:>18.6} {}",
            def.name, outcome.values[def.name], def.unit
        );
    }
    let suffix = if ctl.traced { "layers" } else { "result" };
    write_out(
        &ctl.out,
        &format!("{}.{suffix}.json", ctl.workload),
        &result_file(
            &ctl.workload,
            ctl.seed,
            ctl.seconds,
            ctl.traced,
            &env,
            defs,
            &outcome,
        ),
    );
    println!("{}", result_line(defs, &outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        // The result line is already out; a failed check still fails the
        // command.
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::report::{END_TO_END, PER_LAYER, WORKLOADS};
    use shahin_obs::json::Json;

    /// `BENCHMARK.json` is what the acceptance driver reads; the tables in
    /// `report.rs` are what the binary prints. They must agree.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("{key} array"))
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).and_then(Json::as_arr).unwrap();
            assert_eq!(listed.len(), defs.len(), "{key} count");
            for (entry, def) in listed.iter().zip(defs) {
                let field = |k: &str| entry.get(k).and_then(Json::as_str).unwrap_or_default();
                assert_eq!(field("name"), def.name);
                assert_eq!(field("unit"), def.unit, "{}", def.name);
                assert_eq!(field("better"), def.better.name(), "{}", def.name);
                if key == "end_to_end" {
                    let bound = entry.get("bound").and_then(Json::as_f64).expect("bound");
                    assert_eq!(bound, def.bound, "{}", def.name);
                }
            }
        }
    }
}
