//! Memory figures of this process from `/proc/self/status`.

/// The `field` line of `/proc/self/status` in kB (`VmHWM` is the peak
/// resident set, `VmRSS` the current one).
pub fn status_kb(field: &str) -> Result<u64, String> {
    let text = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_status_kb(&text, field).ok_or_else(|| format!("/proc/self/status has no `{field}` in kB"))
}

fn parse_status_kb(text: &str, field: &str) -> Option<u64> {
    let rest = text
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse_in_kb() {
        let text = "Name:\tx\nVmHWM:\t  540672 kB\nVmRSS:\t   1024 kB\nThreads:\t1\n";
        assert_eq!(parse_status_kb(text, "VmHWM"), Some(540_672));
        assert_eq!(parse_status_kb(text, "VmRSS"), Some(1024));
        assert_eq!(parse_status_kb(text, "VmSwap"), None);
        assert_eq!(parse_status_kb(text, "Threads"), None);
        assert!(status_kb("VmHWM").expect("linux procfs") > 0);
    }
}
