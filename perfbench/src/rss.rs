//! Peak resident memory of a process, from `/proc/<pid>/status`.

/// Peak resident set size ("high water mark") of process `pid`, in KiB.
///
/// # Errors
///
/// Returns the I/O error when the status file cannot be read, and
/// `InvalidData` when it carries no parseable `VmHWM` line.
pub fn peak_rss_kib(pid: u32) -> std::io::Result<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    parse_vm_hwm(&text).ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "no VmHWM line in process status")
    })
}

/// Peak resident set size of this process, in MB (10^6 bytes).
///
/// # Errors
///
/// As [`peak_rss_kib`].
pub fn own_peak_rss_mb() -> std::io::Result<f64> {
    Ok(kib_to_mb(peak_rss_kib(std::process::id())?))
}

/// Converts KiB to MB (10^6 bytes).
pub fn kib_to_mb(kib: u64) -> f64 {
    kib as f64 * 1024.0 / 1e6
}

/// The `VmHWM:` value of a `/proc/<pid>/status` text, in KiB.
pub fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_high_water_mark_line() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t   1000 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(12345));
    }

    #[test]
    fn rejects_missing_or_malformed_lines() {
        assert_eq!(parse_vm_hwm("VmRSS:\t 1000 kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn reads_this_process() {
        let kib = peak_rss_kib(std::process::id()).expect("own status is readable");
        assert!(kib > 0);
        assert!(own_peak_rss_mb().expect("own status") >= kib_to_mb(kib));
    }
}
