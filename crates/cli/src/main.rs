//! `sofia-cli` — stream SOFIA over CSV tensor streams from the shell.
//!
//! ```text
//! sofia-cli generate --dir data/ --dataset chicago [--scale 0.25]
//!                    [--steps 600] [--setting 50,20,4] [--seed 7]
//! sofia-cli run      --dir data/ --rank 10 [--forecast 24]
//!                    [--checkpoint model.ckpt] [--seed 7]
//! sofia-cli resume   --checkpoint model.ckpt --dir more/ [--forecast 24]
//!                    [--save-checkpoint model2.ckpt]
//! sofia-cli fleet    [--streams 100] [--shards 4] [--steps 40]
//!                    [--rank 4] [--period 8] [--dims 12,10]
//!                    [--queue 256] [--seed 2021]
//!                    [--checkpoint-dir DIR] [--checkpoint-every 25]
//!                    [--evict-idle N] [--mix smf,online-sgd]
//!                    [--compare-shards 1,2]
//! sofia-cli serve    --bind 127.0.0.1:7411 [--advertise ADDR]
//!                    [--recover true] [--empty true]
//!                    [--cluster EP0,EP1,...] [--slow-request-us N]
//!                    [fleet workload flags]
//! sofia-cli client   --connect 127.0.0.1:7411 [--stats true]
//!                    [--metrics] [--json | --prom] [--timeout-secs N]
//!                    [--stream stream-0000] [--query "forecast 4"]
//!                    [--ingest N] [--top-drift K] [--shutdown true]
//! sofia-cli cluster  [--nodes 2] [--base-port 7421] [--shards 2]
//!                    [--checkpoint-dir DIR] [--rebalance]
//! ```
//!
//! Boolean flags (`--stats`, `--shutdown`, `--recover`, `--empty`,
//! `--json`) may be given bare — `--stats` is `--stats true`.
//!
//! The stream directory format is documented in [`mod@format`]; `fleet` serves
//! many synthetic streams through the sharded `sofia-fleet` engine and
//! reports throughput, per-step latency, shard scaling, stream lifecycle
//! (idle eviction + lazy restore), and — when a checkpoint directory is
//! given — a mixed-kind crash-recovery breakdown. `serve` exposes the
//! same warm fleet over TCP (the `sofia-net` data plane) until a client
//! sends a shutdown frame — or an empty fleet (`--empty`) as one member
//! of a cluster spec (`--cluster`); `client` drives a remote fleet from
//! the shell (`--metrics` prints the cluster-wide node-health rollup as
//! a table, JSON, or Prometheus exposition); `cluster` launches N
//! `serve` processes from one spec and proves sharding + stream
//! migration across them. The serving stack's benchmark lives outside
//! this binary: `python3 perfbench/run.py` drives `serve` end to end.

mod cluster_cmd;
mod commands;
mod fleet_cmd;
mod format;
mod net_cmd;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage:\n  sofia-cli generate --dir DIR --dataset intel|traffic|chicago|nyc \
     [--scale F] [--steps N] [--setting X,Y,Z] [--seed N]\n  \
     sofia-cli run --dir DIR --rank R [--forecast H] [--checkpoint FILE] [--seed N]\n  \
     sofia-cli resume --checkpoint FILE --dir DIR [--forecast H] [--save-checkpoint FILE]\n  \
     sofia-cli fleet [--streams N] [--shards N] [--steps N] [--rank R] [--period M] \
     [--dims X,Y] [--queue N] [--seed N] [--checkpoint-dir DIR] [--checkpoint-every N] \
     [--evict-idle N] [--mix smf,online-sgd] [--compare-shards A,B]\n  \
     sofia-cli serve --bind ADDR [--advertise ADDR] [--recover true] [--empty true] \
     [--cluster EP0,EP1,...] [--slow-request-us N] [fleet workload flags]\n  \
     sofia-cli client --connect ADDR [--stats true] [--metrics] [--json | --prom] \
     [--timeout-secs N] [--stream ID] [--query \"forecast 4\"] \
     [--ingest N] [--top-drift K] [--shutdown true]\n  \
     sofia-cli cluster [--nodes 2] [--base-port 7421] [--shards 2] [--checkpoint-dir DIR] \
     [--rebalance]\n\
     boolean flags may be given bare: --stats means --stats true"
}

fn bad_flag(flag: &str, value: &str) -> ExitCode {
    eprintln!("error: bad value `{value}` for --{flag}\n{}", usage());
    ExitCode::from(2)
}

/// Parses an optional boolean flag (`--recover true`); absent = false.
/// Shared by every command that takes one.
fn parse_bool_flag(flags: &HashMap<String, String>, flag: &str) -> Result<bool, ExitCode> {
    match flags.get(flag).map(String::as_str) {
        None | Some("false") => Ok(false),
        Some("true") => Ok(true),
        Some(v) => Err(bad_flag(flag, v)),
    }
}

/// Parses a comma-separated list of numbers (`--dims 12,10`,
/// `--compare-shards 1,4`); shared by every flag that takes one.
fn parse_usize_list(s: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .map(|p| p.trim().parse().map_err(|_| format!("bad number `{p}`")))
        .collect()
}

/// Overwrites `target` with the parsed flag value when the flag is
/// present; reports the malformed value otherwise. Shared by every
/// command that takes scalar flags.
fn set_parsed<T: std::str::FromStr>(
    value: Option<String>,
    flag: &str,
    target: &mut T,
) -> Result<(), ExitCode> {
    if let Some(v) = value {
        match v.parse() {
            Ok(n) => *target = n,
            Err(_) => return Err(bad_flag(flag, &v)),
        }
    }
    Ok(())
}

/// Parses the shared fleet-workload flags (`fleet` and `serve` size
/// their synthetic fleets identically).
fn parse_fleet_opts(flags: &HashMap<String, String>) -> Result<fleet_cmd::FleetOpts, ExitCode> {
    let get = |k: &str| flags.get(k).cloned();
    let mut opts = fleet_cmd::FleetOpts::default();
    let scalar_flags = [
        ("streams", &mut opts.streams as &mut usize),
        ("shards", &mut opts.shards),
        ("steps", &mut opts.steps),
        ("rank", &mut opts.rank),
        ("period", &mut opts.period),
        ("queue", &mut opts.queue),
    ];
    for (flag, target) in scalar_flags {
        set_parsed(get(flag), flag, target)?;
    }
    set_parsed(get("seed"), "seed", &mut opts.seed)?;
    set_parsed(
        get("checkpoint-every"),
        "checkpoint-every",
        &mut opts.checkpoint_every,
    )?;
    if let Some(v) = get("dims") {
        opts.dims = match parse_usize_list(&v) {
            Ok(d) if !d.is_empty() => d,
            _ => return Err(bad_flag("dims", &v)),
        };
    }
    if let Some(v) = get("compare-shards") {
        opts.compare_shards = match parse_usize_list(&v) {
            Ok(s) => s,
            Err(_) => return Err(bad_flag("compare-shards", &v)),
        };
    }
    if let Some(v) = get("evict-idle") {
        opts.evict_idle = match v.parse() {
            Ok(n) => Some(n),
            Err(_) => return Err(bad_flag("evict-idle", &v)),
        };
    }
    if let Some(v) = get("mix") {
        opts.mix = v.split(',').map(|k| k.trim().to_string()).collect();
    }
    opts.checkpoint_dir = get("checkpoint-dir").map(PathBuf::from);
    Ok(opts)
}

/// Parses `--flag value` pairs. A flag immediately followed by another
/// `--flag` (or by the end of the arguments) is a bare boolean and reads
/// as `true`, so `--stats`, `--shutdown`, and `--json` work without the
/// noise word — while the explicit `--stats true`/`--stats false` forms
/// keep working.
fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got `{flag}`"))?;
        let value = match it.peek() {
            Some(next) if !next.starts_with("--") => it.next().expect("peeked").clone(),
            _ => "true".to_string(),
        };
        map.insert(key.to_string(), value);
    }
    Ok(map)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let flags = match parse_flags(&args[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let get = |k: &str| flags.get(k).cloned();
    let parse_setting = |s: &str| -> Result<(u32, u32, f64), String> {
        let parts: Vec<&str> = s.split(',').collect();
        if parts.len() != 3 {
            return Err(format!("bad --setting `{s}`, expected X,Y,Z"));
        }
        Ok((
            parts[0].parse().map_err(|_| "bad X".to_string())?,
            parts[1].parse().map_err(|_| "bad Y".to_string())?,
            parts[2].parse().map_err(|_| "bad Z".to_string())?,
        ))
    };

    let result = match cmd.as_str() {
        "generate" => {
            let dir = get("dir").map(PathBuf::from);
            let dataset = get("dataset");
            match (dir, dataset) {
                (Some(dir), Some(dataset)) => {
                    let scale = get("scale").and_then(|v| v.parse().ok()).unwrap_or(0.2);
                    let steps = get("steps").and_then(|v| v.parse().ok()).unwrap_or(400);
                    let seed = get("seed").and_then(|v| v.parse().ok()).unwrap_or(2021);
                    let setting = match get("setting") {
                        Some(s) => match parse_setting(&s) {
                            Ok(v) => v,
                            Err(e) => {
                                eprintln!("error: {e}");
                                return ExitCode::from(2);
                            }
                        },
                        None => (30, 15, 3.0),
                    };
                    commands::generate(&dir, &dataset, scale, steps, setting, seed)
                }
                _ => {
                    eprintln!("generate needs --dir and --dataset\n{}", usage());
                    return ExitCode::from(2);
                }
            }
        }
        "run" => {
            let dir = get("dir").map(PathBuf::from);
            let rank = get("rank").and_then(|v| v.parse().ok());
            match (dir, rank) {
                (Some(dir), Some(rank)) => {
                    let horizon = get("forecast").and_then(|v| v.parse().ok()).unwrap_or(0);
                    let seed = get("seed").and_then(|v| v.parse().ok()).unwrap_or(2021);
                    let ckpt = get("checkpoint").map(PathBuf::from);
                    commands::run(&dir, rank, horizon, ckpt.as_deref(), seed)
                }
                _ => {
                    eprintln!("run needs --dir and --rank\n{}", usage());
                    return ExitCode::from(2);
                }
            }
        }
        "resume" => {
            let ckpt = get("checkpoint").map(PathBuf::from);
            let dir = get("dir").map(PathBuf::from);
            match (ckpt, dir) {
                (Some(ckpt), Some(dir)) => {
                    let horizon = get("forecast").and_then(|v| v.parse().ok()).unwrap_or(0);
                    let out = get("save-checkpoint").map(PathBuf::from);
                    commands::resume(&ckpt, &dir, horizon, out.as_deref())
                }
                _ => {
                    eprintln!("resume needs --checkpoint and --dir\n{}", usage());
                    return ExitCode::from(2);
                }
            }
        }
        "fleet" => match parse_fleet_opts(&flags) {
            Ok(opts) => fleet_cmd::fleet(&opts),
            Err(code) => return code,
        },
        "serve" => {
            let Some(bind) = get("bind") else {
                eprintln!("serve needs --bind ADDR\n{}", usage());
                return ExitCode::from(2);
            };
            let (recover, empty) = match (
                parse_bool_flag(&flags, "recover"),
                parse_bool_flag(&flags, "empty"),
            ) {
                (Ok(r), Ok(e)) => (r, e),
                (Err(code), _) | (_, Err(code)) => return code,
            };
            let cluster: Vec<String> = match get("cluster") {
                None => Vec::new(),
                Some(v) => {
                    let eps: Vec<String> = v.split(',').map(|e| e.trim().to_string()).collect();
                    if eps.iter().any(String::is_empty) {
                        return bad_flag("cluster", &v);
                    }
                    eps
                }
            };
            let slow_request_us = match get("slow-request-us").map(|v| v.parse::<u64>()) {
                None => None,
                Some(Ok(us)) => Some(us),
                Some(Err(_)) => {
                    return bad_flag(
                        "slow-request-us",
                        &get("slow-request-us").unwrap_or_default(),
                    )
                }
            };
            match parse_fleet_opts(&flags) {
                Ok(opts) => net_cmd::serve(
                    &opts,
                    &bind,
                    get("advertise"),
                    recover,
                    &cluster,
                    empty,
                    slow_request_us,
                ),
                Err(code) => return code,
            }
        }
        "cluster" => {
            let mut opts = cluster_cmd::ClusterOpts::default();
            let parsed = set_parsed(get("nodes"), "nodes", &mut opts.nodes)
                .and_then(|()| set_parsed(get("shards"), "shards", &mut opts.shards))
                .and_then(|()| set_parsed(get("base-port"), "base-port", &mut opts.base_port));
            if let Err(code) = parsed {
                return code;
            }
            opts.checkpoint_dir = get("checkpoint-dir").map(PathBuf::from);
            opts.rebalance = match parse_bool_flag(&flags, "rebalance") {
                Ok(r) => r,
                Err(code) => return code,
            };
            cluster_cmd::cluster(&opts)
        }
        "client" => {
            let Some(connect) = get("connect") else {
                eprintln!("client needs --connect ADDR\n{}", usage());
                return ExitCode::from(2);
            };
            let parsed: Result<Vec<bool>, ExitCode> =
                ["stats", "shutdown", "metrics", "json", "prom"]
                    .iter()
                    .map(|f| parse_bool_flag(&flags, f))
                    .collect();
            let [stats, shutdown, metrics, json, prom] = match parsed.as_deref() {
                Ok([s, d, m, j, p]) => [*s, *d, *m, *j, *p],
                Ok(_) => unreachable!("five flags parsed"),
                Err(&code) => return code,
            };
            let timeout_secs = match get("timeout-secs").map(|v| v.parse::<u64>()) {
                None => None,
                Some(Ok(n)) => Some(n),
                Some(Err(_)) => {
                    return bad_flag("timeout-secs", &get("timeout-secs").unwrap_or_default())
                }
            };
            let ingest = match get("ingest").map(|v| v.parse::<usize>()) {
                None => 0,
                Some(Ok(n)) => n,
                Some(Err(_)) => return bad_flag("ingest", &get("ingest").unwrap_or_default()),
            };
            let dims = match get("dims") {
                None => vec![12, 10],
                Some(v) => match parse_usize_list(&v) {
                    Ok(d) if !d.is_empty() && !d.contains(&0) => d,
                    _ => return bad_flag("dims", &v),
                },
            };
            let top_drift = match get("top-drift").map(|v| v.parse::<usize>()) {
                None => 0,
                Some(Ok(k)) => k,
                Some(Err(_)) => {
                    return bad_flag("top-drift", &get("top-drift").unwrap_or_default())
                }
            };
            net_cmd::client(&net_cmd::ClientOpts {
                connect,
                stats,
                metrics,
                json,
                prom,
                timeout_secs,
                stream: get("stream"),
                query: get("query"),
                ingest,
                dims,
                top_drift,
                shutdown,
            })
        }
        other => {
            eprintln!("unknown command `{other}`\n{}", usage());
            return ExitCode::from(2);
        }
    };

    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
