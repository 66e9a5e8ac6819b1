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
//!                    [--evict-idle N]
//! sofia-cli serve    --bind 127.0.0.1:7411 [--advertise ADDR]
//!                    [--recover true] [--empty true]
//!                    [--cluster EP0,EP1,...] [--slow-request-us N]
//!                    [fleet workload flags]
//! sofia-cli client   --connect 127.0.0.1:7411 [--stats true]
//!                    [--metrics] [--json | --prom] [--timeout-secs N]
//!                    [--stream stream-0000] [--query "forecast 4"]
//!                    [--ingest N] [--dims 12,10] [--top-drift K]
//!                    [--shutdown true]
//! sofia-cli cluster  [--nodes 2] [--base-port 7421] [--shards 2]
//!                    [--checkpoint-dir DIR] [--rebalance]
//! ```
//!
//! Boolean flags (`--stats`, `--shutdown`, `--recover`, `--empty`,
//! `--json`) may be given bare — `--stats` is `--stats true`. A flag the
//! command does not read, or a value that does not parse, exits 2 with
//! the usage.
//!
//! The stream directory format is documented in [`mod@format`]; `fleet` serves
//! many synthetic SOFIA streams through the sharded `sofia-fleet` engine
//! and reports throughput, per-step latency, stream lifecycle
//! (idle eviction + lazy restore), and — when a checkpoint directory is
//! given — a crash-recovery report. `serve` exposes the
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
     [--evict-idle N]\n  \
     sofia-cli serve --bind ADDR [--advertise ADDR] [--recover true] [--empty true] \
     [--cluster EP0,EP1,...] [--slow-request-us N] [fleet workload flags]\n  \
     sofia-cli client --connect ADDR [--stats true] [--metrics] [--json | --prom] \
     [--timeout-secs N] [--stream ID] [--query \"forecast 4\"] \
     [--ingest N] [--dims X,Y] [--top-drift K] [--shutdown true]\n  \
     sofia-cli cluster [--nodes 2] [--base-port 7421] [--shards 2] [--checkpoint-dir DIR] \
     [--rebalance]\n\
     boolean flags may be given bare: --stats means --stats true"
}

/// Flags of the synthetic fleet workload, read by `fleet` and `serve`.
const FLEET_FLAGS: &[&str] = &[
    "streams",
    "shards",
    "steps",
    "rank",
    "period",
    "dims",
    "queue",
    "seed",
    "checkpoint-dir",
    "checkpoint-every",
    "evict-idle",
];

/// The flags `cmd` reads, or `None` for an unknown command.
fn known_flags(cmd: &str) -> Option<[&'static [&'static str]; 2]> {
    let own: &[&str] = match cmd {
        "generate" => &["dir", "dataset", "scale", "steps", "setting", "seed"],
        "run" => &["dir", "rank", "forecast", "checkpoint", "seed"],
        "resume" => &["checkpoint", "dir", "forecast", "save-checkpoint"],
        "fleet" => &[],
        "serve" => &[
            "bind",
            "advertise",
            "recover",
            "empty",
            "cluster",
            "slow-request-us",
        ],
        "client" => &[
            "connect",
            "stats",
            "metrics",
            "json",
            "prom",
            "timeout-secs",
            "stream",
            "query",
            "ingest",
            "dims",
            "top-drift",
            "shutdown",
        ],
        "cluster" => &[
            "nodes",
            "base-port",
            "shards",
            "checkpoint-dir",
            "rebalance",
        ],
        _ => return None,
    };
    let workload: &[&str] = if matches!(cmd, "fleet" | "serve") {
        FLEET_FLAGS
    } else {
        &[]
    };
    Some([own, workload])
}

/// Exits 2 with `msg` and the usage.
fn usage_error(msg: &str) -> ExitCode {
    eprintln!("{msg}\n{}", usage());
    ExitCode::from(2)
}

fn bad_flag(flag: &str, value: &str) -> ExitCode {
    usage_error(&format!("error: bad value `{value}` for --{flag}"))
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

/// Parses a comma-separated list of numbers (`--dims 12,10`); shared by
/// every flag that takes one.
fn parse_usize_list(s: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .map(|p| p.trim().parse().map_err(|_| format!("bad number `{p}`")))
        .collect()
}

/// The parsed value of `flag`, or `None` when it is absent; a malformed
/// value is reported through [`bad_flag`]. Shared by every command that
/// takes scalar flags.
fn parsed_opt<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    flag: &str,
) -> Result<Option<T>, ExitCode> {
    let parse = |v: &String| v.parse().map_err(|_| bad_flag(flag, v));
    flags.get(flag).map(parse).transpose()
}

/// The parsed value of `flag`, or `default` when it is absent.
fn parsed_or<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    flag: &str,
    default: T,
) -> Result<T, ExitCode> {
    Ok(parsed_opt(flags, flag)?.unwrap_or(default))
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
        *target = parsed_or(flags, flag, *target)?;
    }
    opts.seed = parsed_or(flags, "seed", opts.seed)?;
    opts.checkpoint_every = parsed_or(flags, "checkpoint-every", opts.checkpoint_every)?;
    if let Some(v) = get("dims") {
        opts.dims = match parse_usize_list(&v) {
            Ok(d) if !d.is_empty() => d,
            _ => return Err(bad_flag("dims", &v)),
        };
    }
    opts.evict_idle = parsed_opt(flags, "evict-idle")?;
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
        Err(e) => return usage_error(&format!("error: {e}")),
    };
    match dispatch(cmd, &flags) {
        Ok(Ok(())) => ExitCode::SUCCESS,
        Ok(Err(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Err(code) => code,
    }
}

/// Runs `cmd`; `Err` is a usage error (unknown command or flag, missing
/// or malformed value), already reported.
fn dispatch(cmd: &str, flags: &HashMap<String, String>) -> Result<commands::CmdResult, ExitCode> {
    let Some(known) = known_flags(cmd) else {
        return Err(usage_error(&format!("unknown command `{cmd}`")));
    };
    if let Some(flag) = flags
        .keys()
        .filter(|f| !known.iter().any(|set| set.contains(&f.as_str())))
        .min()
    {
        return Err(usage_error(&format!(
            "error: unknown flag --{flag} for `{cmd}`"
        )));
    }
    let get = |k: &str| flags.get(k).cloned();

    Ok(match cmd {
        "generate" => {
            let (Some(dir), Some(dataset)) = (get("dir"), get("dataset")) else {
                return Err(usage_error("generate needs --dir and --dataset"));
            };
            let setting = match get("setting") {
                Some(s) => parse_setting(&s).ok_or_else(|| bad_flag("setting", &s))?,
                None => (30, 15, 3.0),
            };
            commands::generate(
                &PathBuf::from(dir),
                &dataset,
                parsed_or(flags, "scale", 0.2)?,
                parsed_or(flags, "steps", 400)?,
                setting,
                parsed_or(flags, "seed", 2021)?,
            )
        }
        "run" => {
            let (Some(dir), Some(rank)) = (get("dir"), get("rank")) else {
                return Err(usage_error("run needs --dir and --rank"));
            };
            let rank = rank.parse().map_err(|_| bad_flag("rank", &rank))?;
            let ckpt = get("checkpoint").map(PathBuf::from);
            commands::run(
                &PathBuf::from(dir),
                rank,
                parsed_or(flags, "forecast", 0)?,
                ckpt.as_deref(),
                parsed_or(flags, "seed", 2021)?,
            )
        }
        "resume" => {
            let (Some(ckpt), Some(dir)) = (get("checkpoint"), get("dir")) else {
                return Err(usage_error("resume needs --checkpoint and --dir"));
            };
            let out = get("save-checkpoint").map(PathBuf::from);
            commands::resume(
                &PathBuf::from(ckpt),
                &PathBuf::from(dir),
                parsed_or(flags, "forecast", 0)?,
                out.as_deref(),
            )
        }
        "fleet" => fleet_cmd::fleet(&parse_fleet_opts(flags)?),
        "serve" => {
            let Some(bind) = get("bind") else {
                return Err(usage_error("serve needs --bind ADDR"));
            };
            let recover = parse_bool_flag(flags, "recover")?;
            let empty = parse_bool_flag(flags, "empty")?;
            let cluster: Vec<String> = match get("cluster") {
                None => Vec::new(),
                Some(v) => {
                    let eps: Vec<String> = v.split(',').map(|e| e.trim().to_string()).collect();
                    if eps.iter().any(String::is_empty) {
                        return Err(bad_flag("cluster", &v));
                    }
                    eps
                }
            };
            let slow_request_us = parsed_opt(flags, "slow-request-us")?;
            net_cmd::serve(
                &parse_fleet_opts(flags)?,
                &bind,
                get("advertise"),
                recover,
                &cluster,
                empty,
                slow_request_us,
            )
        }
        "cluster" => {
            let mut opts = cluster_cmd::ClusterOpts::default();
            opts.nodes = parsed_or(flags, "nodes", opts.nodes)?;
            opts.shards = parsed_or(flags, "shards", opts.shards)?;
            opts.base_port = parsed_or(flags, "base-port", opts.base_port)?;
            opts.checkpoint_dir = get("checkpoint-dir").map(PathBuf::from);
            opts.rebalance = parse_bool_flag(flags, "rebalance")?;
            cluster_cmd::cluster(&opts)
        }
        "client" => {
            let Some(connect) = get("connect") else {
                return Err(usage_error("client needs --connect ADDR"));
            };
            let dims = match get("dims") {
                None => vec![12, 10],
                Some(v) => match parse_usize_list(&v) {
                    Ok(d) if !d.is_empty() && !d.contains(&0) => d,
                    _ => return Err(bad_flag("dims", &v)),
                },
            };
            net_cmd::client(&net_cmd::ClientOpts {
                connect,
                stats: parse_bool_flag(flags, "stats")?,
                metrics: parse_bool_flag(flags, "metrics")?,
                json: parse_bool_flag(flags, "json")?,
                prom: parse_bool_flag(flags, "prom")?,
                timeout_secs: parsed_opt(flags, "timeout-secs")?,
                stream: get("stream"),
                query: get("query"),
                ingest: parsed_or(flags, "ingest", 0)?,
                dims,
                top_drift: parsed_or(flags, "top-drift", 0)?,
                shutdown: parse_bool_flag(flags, "shutdown")?,
            })
        }
        _ => unreachable!("known_flags lists every command"),
    })
}

/// Parses `--setting X,Y,Z`: percent missing, percent outliers (each at
/// most 100) and a non-negative outlier magnitude.
fn parse_setting(s: &str) -> Option<(u32, u32, f64)> {
    let [x, y, z] = s.split(',').collect::<Vec<_>>()[..] else {
        return None;
    };
    let (x, y, z) = (x.parse().ok()?, y.parse().ok()?, z.parse().ok()?);
    (x <= 100 && y <= 100 && z >= 0.0).then_some((x, y, z))
}
