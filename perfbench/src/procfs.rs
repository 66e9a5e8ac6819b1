//! Readers for the `/proc` files the benchmark samples: the SUT's CPU
//! time, peak memory and thread count, and the host's steal time and
//! CPU model. Each parser takes the file's text, so it is testable
//! without a live process.

use std::path::Path;

/// Clock ticks per second in `/proc/<pid>/stat` times. Linux exports
/// these in `USER_HZ`, which its user-space ABI fixes at 100.
pub const USER_HZ: f64 = 100.0;

/// User and system CPU time of a process, in clock ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuTicks {
    /// `utime`, field 14 of `/proc/<pid>/stat`.
    pub user: u64,
    /// `stime`, field 15.
    pub system: u64,
}

impl CpuTicks {
    /// Total CPU time in milliseconds.
    pub fn millis(self) -> f64 {
        (self.user + self.system) as f64 * 1000.0 / USER_HZ
    }
}

/// Parses `utime` and `stime` out of `/proc/<pid>/stat`. The command
/// name (field 2) may itself hold spaces and parentheses, so fields are
/// counted from the *last* closing parenthesis.
pub fn parse_pid_stat(text: &str) -> Option<CpuTicks> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so field k sits at index k - 3.
    Some(CpuTicks {
        user: fields.get(11)?.parse().ok()?,
        system: fields.get(12)?.parse().ok()?,
    })
}

/// The fields of `/proc/<pid>/status` the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Status {
    /// Peak resident set size (`VmHWM`) in KiB.
    pub vm_hwm_kb: u64,
    /// Live threads (`Threads`).
    pub threads: u64,
}

/// Parses `VmHWM` and `Threads` out of `/proc/<pid>/status`.
pub fn parse_status(text: &str) -> Option<Status> {
    let field = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse::<u64>().ok())
    };
    Some(Status {
        vm_hwm_kb: field("VmHWM:")?,
        threads: field("Threads:")?,
    })
}

/// Host-wide CPU time from the aggregate `cpu` line of `/proc/stat`,
/// in clock ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HostTicks {
    /// user + nice + system + idle + iowait + irq + softirq + steal
    /// (guest time is already inside user).
    pub total: u64,
    /// Time the hypervisor ran something else while the guest wanted
    /// the CPU.
    pub steal: u64,
}

/// Parses the aggregate `cpu` line of `/proc/stat`. Kernels that
/// predate the steal column report a steal of zero.
pub fn parse_host_stat(text: &str) -> Option<HostTicks> {
    let line = text
        .lines()
        .find(|l| l.split_whitespace().next() == Some("cpu"))?;
    let vals: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    if vals.len() < 4 {
        return None;
    }
    Some(HostTicks {
        total: vals.iter().take(8).sum(),
        steal: vals.get(7).copied().unwrap_or(0),
    })
}

/// Steal share of host CPU time between two `/proc/stat` readings.
pub fn steal_share(before: HostTicks, after: HostTicks) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    after.steal.saturating_sub(before.steal) as f64 / total as f64
}

/// The first `model name` in `/proc/cpuinfo`.
pub fn parse_cpu_model(text: &str) -> Option<String> {
    text.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

fn read(path: impl AsRef<Path>) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// CPU ticks of a live process.
pub fn cpu_of(pid: u32) -> Option<CpuTicks> {
    parse_pid_stat(&read(format!("/proc/{pid}/stat"))?)
}

/// Status fields of a live process.
pub fn status_of(pid: u32) -> Option<Status> {
    parse_status(&read(format!("/proc/{pid}/status"))?)
}

/// The host's aggregate CPU ticks.
pub fn host_ticks() -> Option<HostTicks> {
    parse_host_stat(&read("/proc/stat")?)
}

/// The host's CPU model name.
pub fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .and_then(|t| parse_cpu_model(&t))
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pid_stat_counts_fields_after_the_last_paren() {
        // A command name with a space and a parenthesis must not shift
        // the fields.
        let text = "4242 (sofia (cli) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 \
                    731 52 0 0 20 0 7 0 123456 1000000 500 18446744073709551615";
        assert_eq!(
            parse_pid_stat(text),
            Some(CpuTicks {
                user: 731,
                system: 52
            })
        );
        assert_eq!(
            CpuTicks {
                user: 731,
                system: 52
            }
            .millis(),
            7830.0
        );
    }

    #[test]
    fn pid_stat_rejects_truncated_text() {
        assert_eq!(parse_pid_stat("4242 (x) S 1 2 3"), None);
        assert_eq!(parse_pid_stat("no parens at all"), None);
    }

    #[test]
    fn status_fields() {
        let text = "Name:\tsofia-cli\nVmPeak:\t  200000 kB\nVmHWM:\t   51234 kB\n\
                    VmRSS:\t   50000 kB\nThreads:\t6\n";
        assert_eq!(
            parse_status(text),
            Some(Status {
                vm_hwm_kb: 51234,
                threads: 6
            })
        );
        assert_eq!(parse_status("Name:\tx\nThreads:\t6\n"), None);
    }

    #[test]
    fn host_stat_and_steal_share() {
        let before = "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 50 0 25 400 5 0 2 18 0 0\n";
        let after = "cpu  200 0 100 1600 20 0 10 70 0 0\ncpu0 1 1 1 1 1 1 1 1 0 0\n";
        let b = parse_host_stat(before).unwrap();
        let a = parse_host_stat(after).unwrap();
        assert_eq!(
            b,
            HostTicks {
                total: 1000,
                steal: 35
            }
        );
        assert_eq!(
            a,
            HostTicks {
                total: 2000,
                steal: 70
            }
        );
        assert!((steal_share(b, a) - 0.035).abs() < 1e-12);
        assert_eq!(steal_share(a, a), 0.0);
        // Old kernels: no steal column.
        assert_eq!(
            parse_host_stat("cpu 1 2 3 4\n"),
            Some(HostTicks {
                total: 10,
                steal: 0
            })
        );
        assert_eq!(parse_host_stat("intr 1 2 3\n"), None);
    }

    #[test]
    fn cpu_model_name() {
        let text = "processor\t: 0\nvendor_id\t: GenuineIntel\n\
                    model name\t: Intel(R) Xeon(R) Processor\nprocessor\t: 1\n";
        assert_eq!(
            parse_cpu_model(text).as_deref(),
            Some("Intel(R) Xeon(R) Processor")
        );
        assert_eq!(parse_cpu_model("processor: 0\n"), None);
    }
}
