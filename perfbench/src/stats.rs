//! Order statistics and the process counters the benchmark reads from
//! `/proc` (CPU ticks, peak resident set).

/// Median of the samples (mean of the middle two for an even count);
/// `0.0` for an empty slice, which is how a metric a workload does not
/// exercise is reported.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The `p`-th percentile (nearest rank on the sorted samples); `0.0` for
/// an empty slice.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Mean of the samples without the highest tenth; `0.0` for an empty
/// slice.  What the machine probe is averaged with: a mean, because a
/// host that flickers between two speeds several times a second slows a
/// 20 ms query by the share of time it is slow — which a mean follows and
/// a median jumps across — and trimmed, because one probe that sat out a
/// 50 ms stall would otherwise move the mean of a hundred by a third.
#[must_use]
pub fn trimmed_mean(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.truncate((sorted.len() - sorted.len() / 10).max(1).min(sorted.len()));
    if sorted.is_empty() {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
    mean
}

/// First quartile, median and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), so the
/// spreads `compare` prints are the ones the acceptance rule uses.
/// Fewer than two samples give the sample itself three times.
#[must_use]
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(0.0);
        return [only; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        #[allow(clippy::cast_precision_loss)]
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        *slot = sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta;
    }
    out
}

/// Interquartile range as a share of the median (`0.0` when the median
/// is zero).
#[must_use]
pub fn spread(samples: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(samples);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Milliseconds of a duration, with all its digits.
#[must_use]
pub fn ms(duration: std::time::Duration) -> f64 {
    duration.as_secs_f64() * 1000.0
}

/// Process CPU time (user + system) in milliseconds, from
/// `/proc/self/stat` (`USER_HZ` is 100 on Linux, so one tick is 10 ms).
/// `None` off Linux.
#[must_use]
pub fn process_cpu_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 10.0)
}

/// CPU time of the calling thread in milliseconds, to the nanosecond
/// (`/proc/thread-self/schedstat`: time on a CPU, time runnable, time
/// slices).  `None` where the kernel keeps no scheduler statistics.
#[must_use]
pub fn thread_cpu_ms() -> Option<f64> {
    let schedstat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let on_cpu_ns: f64 = schedstat.split_whitespace().next()?.parse().ok()?;
    Some(on_cpu_ns / 1e6)
}

/// Peak resident set of this process in MiB (`VmHWM`).  `None` off Linux.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Hardware threads available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// How fast the machine is right now: the time one thread takes for a
/// fixed piece of work — formatting, ordered-map inserts, a sort.  It runs
/// no engine code, so it moves with the machine and not with the program
/// under test.
#[must_use]
pub fn machine_probe_ms() -> f64 {
    let started = std::time::Instant::now();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let mut index = std::collections::BTreeMap::new();
    for i in 0..3_000u64 {
        index.insert(format!("p{}-{i}", next() % 1_000), next() % 500);
    }
    let mut keys: Vec<u64> = (0..15_000).map(|_| next()).collect();
    keys.sort_unstable();
    std::hint::black_box(index.values().sum::<u64>() ^ keys[keys.len() / 2]);
    ms(started.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn median_and_percentile_handle_small_inputs() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.95), 4.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
    }

    #[test]
    fn trimmed_mean_drops_the_highest_tenth() {
        assert_eq!(trimmed_mean(&[]), 0.0);
        assert_eq!(trimmed_mean(&[3.0]), 3.0);
        let mut v = vec![1.0; 18];
        v.extend([2.0, 500.0]);
        // 20 samples: the two highest go, 18 ones stay.
        assert_eq!(trimmed_mean(&v), 1.0);
    }

    #[test]
    fn proc_counters_read_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(process_cpu_ms().is_some());
            // Scheduler statistics are a kernel build option.
            if let Some(before) = thread_cpu_ms() {
                let _ = machine_probe_ms();
                assert!(thread_cpu_ms().is_some_and(|after| after > before));
            }
            assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
        }
    }
}
