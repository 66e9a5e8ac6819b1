//! `sofia-perfbench`: drives an unmodified `sofia-cli serve` through one
//! closed-loop workload and prints its metrics.
//!
//! ```text
//! sofia-perfbench --workload paper-nyc|many-streams|slot-migrate
//!                 --seed N --seconds N --trace 0|1
//!                 --sut PATH/TO/sofia-cli --workdir DIR
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (a separate run with the same inputs). Every metric is printed
//! as `metric <name> = <value> <unit> (n=<samples>)`; the last line of
//! standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Exit codes: 0 when every served
//! output matched the single-threaded replica, 1 on a mismatch, 2 when
//! the run could not complete.

mod closed_loop;
mod layers;
mod procfs;
mod quiet;
mod report;
mod stats;
mod sut;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    "usage: sofia-perfbench --workload paper-nyc|many-streams|slot-migrate \
     --seed N --seconds N --trace 0|1 --sut PATH --workdir DIR"
        .to_string()
}

fn parse(args: &[String]) -> Result<closed_loop::Opts, String> {
    let mut get = std::collections::HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        get.insert(name.to_string(), value.clone());
    }
    let need = |k: &str| get.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let workload = need("workload")?;
    let num = |k: &str| -> Result<u64, String> {
        need(k)?
            .parse()
            .map_err(|_| format!("--{k} must be a whole number"))
    };
    Ok(closed_loop::Opts {
        workload: workload::Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: num("seed")?,
        seconds: num("seconds")?.max(1),
        trace: match need("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
        sut: PathBuf::from(need("sut")?),
        workdir: PathBuf::from(need("workdir")?),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", opts.workload.name());
            ExitCode::from(2)
        }
    }
}

/// Runs, prints, and returns whether every served output was correct.
fn run(opts: &closed_loop::Opts) -> Result<bool, String> {
    let spec = opts.workload.spec();
    let rec = closed_loop::run(opts)?;
    let metrics = if opts.trace {
        let linearity = layers::linearity_probe(opts.seed);
        println!("fig7: update cost per |Ω_t|·N·R unit, one stream of each workload's shape");
        for row in &linearity {
            println!(
                "fig7: {:<13} |Ω_t| {:>8.1}  update {:>9.1} us  {:.3} ns/entry/rank",
                row.workload, row.observed, row.update_us, row.ns_per_entry_rank
            );
        }
        report::per_layer(&rec, &spec, &linearity)?
    } else {
        report::end_to_end(&rec, &spec)?
    };

    let p = &rec.provenance;
    println!(
        "host: nproc {}, cpu \"{}\", steal {:.2}% of host CPU over the timed phase; \
         latency figures from {} of {} one-second blocks (steal <= {:.2}% in each)",
        p.nproc,
        p.cpu_model,
        100.0 * p.steal_share,
        p.blocks.0,
        p.blocks.1,
        100.0 * p.kept_steal_max
    );
    println!(
        "sut: {} node(s) x {} shard(s), threads per node {:?}; {} timed ticks after {} warm-up ticks; \
         {} set-ups",
        spec.nodes,
        p.shards,
        p.sut_threads,
        rec.timed_ticks,
        spec.warmup_ticks,
        rec.setups_s.len()
    );
    for m in &metrics {
        println!("{}", report::human_line(m));
    }
    if opts.trace {
        println!("{}", report::reconciles(&metrics).1);
    }

    let nre_finite = rec
        .impute_nre
        .iter()
        .chain(&rec.forecast_nre)
        .all(|v| v.is_finite());
    // The traced run also re-parses every served payload; a codec that
    // cannot read back what it wrote is a wrong answer too.
    let codec_errors = rec.replay.as_ref().map_or(0, |r| r.errors);
    let correct = rec.mismatches == 0 && rec.checked > 0 && nre_finite && codec_errors == 0;
    println!(
        "check: {} served outputs compared bit for bit against the single-threaded replica, \
         {} mismatched{}; accuracy figures finite: {nre_finite}; replay errors: {codec_errors}",
        rec.checked,
        rec.mismatches,
        rec.first_mismatch
            .as_deref()
            .map_or(String::new(), |m| format!(" (first: {m})"))
    );
    println!(
        "{}",
        report::json_line(
            correct,
            rec.attempted.max(1),
            report::fail_count(&rec),
            &metrics
        )?
    );
    Ok(correct)
}
