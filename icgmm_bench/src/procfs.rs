//! Host-resource readings from `/proc` (Linux only; elsewhere the files
//! are missing and the metrics that need them are omitted, not failed).

/// Peak resident set size in MiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut fields = rest.split_whitespace();
    let kib: f64 = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kib / 1024.0)
}

/// User + system CPU time in clock ticks from the text of
/// `/proc/<pid>/stat`. The second field (`comm`) is the executable name in
/// parentheses and may itself contain spaces and `)`, so fields are
/// counted from the *last* `)`: `utime` and `stime` are fields 14 and 15,
/// i.e. the 12th and 13th after it.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Length of one `/proc` clock tick in nanoseconds. `USER_HZ` is 100 on
/// every Linux ABI this benchmark runs on; reading it properly needs
/// `sysconf`, i.e. a libc binding the offline workspace does not have.
pub const TICK_NS: f64 = 1e7;

pub fn peak_rss_mib() -> Option<f64> {
    parse_vm_hwm_mib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

pub fn cpu_ticks() -> Option<u64> {
    parse_cpu_ticks(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_in_mib() {
        let status =
            "Name:\ticgmm_bench\nVmPeak:\t  300000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(200.0));
    }

    #[test]
    fn vm_hwm_missing_or_malformed_is_none() {
        assert_eq!(parse_vm_hwm_mib(""), None);
        assert_eq!(parse_vm_hwm_mib("VmRSS:\t 1000 kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t 1000 pages\n"), None);
    }

    #[test]
    fn cpu_ticks_survive_a_hostile_comm() {
        // comm = "a) b (c" — spaces and both parentheses inside.
        let stat = "1234 (a) b (c) S 1 1234 1234 0 -1 4194304 500 0 0 0 \
                    71 29 0 0 20 0 3 0 100 1000000 250 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(100));
        let plain = "7 (icgmm_bench) R 1 7 7 0 -1 0 1 0 0 0 5 6 0 0 20 0 1 0 9 1 1 1";
        assert_eq!(parse_cpu_ticks(plain), Some(11));
    }

    #[test]
    fn cpu_ticks_truncated_or_malformed_is_none() {
        assert_eq!(parse_cpu_ticks(""), None);
        assert_eq!(parse_cpu_ticks("1 (x) S 1 2 3"), None);
        assert_eq!(parse_cpu_ticks("1 (x) S 1 1 1 0 -1 0 1 0 0 0 u 6 0"), None);
    }

    #[test]
    fn a_missing_file_omits_the_metric() {
        let read = |p: &str| std::fs::read_to_string(p).ok();
        assert!(read("/proc/self/definitely-not-here")
            .and_then(|s| parse_vm_hwm_mib(&s))
            .is_none());
    }
}
