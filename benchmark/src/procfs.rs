//! Process accounting read from `/proc`: on-CPU time per thread
//! (`schedstat`), peak resident memory (`VmHWM`) and the live thread
//! count. Parsers are separate from the file reads so they are testable.

use std::fs;

/// On-CPU nanoseconds from one `schedstat` line
/// (`<run_ns> <runqueue_wait_ns> <timeslices>`).
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// `VmHWM` (peak resident set) in kB from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let mut parts = rest.split_whitespace();
    let kb = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(kb)
}

/// Number of CPUs in a `Cpus_allowed_list` value such as `0-1,4,6-7`.
pub fn parse_cpu_list(list: &str) -> Option<u64> {
    list.trim().split(',').try_fold(0, |n, part| {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let (lo, hi): (u64, u64) = (lo.trim().parse().ok()?, hi.trim().parse().ok()?);
        (lo <= hi).then(|| n + hi - lo + 1)
    })
}

/// On-CPU nanoseconds summed over every live thread of this process.
/// Threads that have already exited are not counted, so callers read this
/// while the threads they care about are still running.
pub fn process_cpu_ns() -> u64 {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    dir.flatten()
        .filter_map(|entry| fs::read_to_string(entry.path().join("schedstat")).ok())
        .filter_map(|text| parse_schedstat(&text))
        .sum()
}

/// On-CPU nanoseconds of the calling thread alone.
pub fn thread_cpu_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|text| parse_schedstat(&text))
        .unwrap_or(0)
}

/// Peak resident set of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| parse_vm_hwm_kb(&status))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Number of CPUs this process may run on (1 when `run.sh` pinned it).
pub fn cpus_allowed() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let list = status
                .lines()
                .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))?;
            parse_cpu_list(list)
        })
        .unwrap_or(0)
}

/// Number of live threads in this process.
pub fn thread_count() -> u64 {
    fs::read_dir("/proc/self/task").map_or(0, |dir| dir.flatten().count() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_takes_the_first_field() {
        assert_eq!(parse_schedstat("123456789 4242 17\n"), Some(123_456_789));
        assert_eq!(parse_schedstat("0 0 0"), Some(0));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("abc 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_found_among_other_lines() {
        let status = "Name:\tpfair-benchmark\nVmPeak:\t  200000 kB\nVmHWM:\t   18432 kB\nVmRSS:\t   9000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(18_432));
    }

    #[test]
    fn vm_hwm_rejects_missing_or_odd_lines() {
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 9000 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn cpu_lists_count_ranges_and_singles() {
        assert_eq!(parse_cpu_list("\t0\n"), Some(1));
        assert_eq!(parse_cpu_list("0-1"), Some(2));
        assert_eq!(parse_cpu_list("0-1,4,6-7"), Some(5));
        assert_eq!(parse_cpu_list("3-1"), None);
        assert_eq!(parse_cpu_list(""), None);
    }

    #[test]
    fn live_readings_are_plausible() {
        assert!(thread_count() >= 1);
        assert!(cpus_allowed() >= 1);
        assert!(peak_rss_mb() > 0.0);
        // Burn a little CPU so the counters have something to show.
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        // Thread first: the process total read afterwards includes it.
        let thread = thread_cpu_ns();
        assert!(process_cpu_ns() >= thread);
    }
}
