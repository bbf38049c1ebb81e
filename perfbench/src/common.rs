//! Helpers shared by the workloads: seeded randomness, raw-sample
//! statistics, answer digests, the metric sheet and the process header.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use xprs_storage::{Datum, Tuple};

/// SplitMix64: a tiny seeded generator, so every input is a pure function
/// of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Nearest-rank `q`-quantile of raw samples, or `None` when fewer than ten
/// samples lie beyond it (a tail read from a handful of points is noise).
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    // The median is always reportable; a tail needs ten samples past it.
    if q > 0.5 && n - rank < 10 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).unwrap_or(f64::NAN)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

fn datum_hash(d: &Datum) -> u64 {
    let mut h = DefaultHasher::new();
    d.hash(&mut h);
    h.finish()
}

/// Sum of a row's column hashes: a joined row's sum is its two sides'.
fn column_sum(t: &Tuple) -> u64 {
    t.values()
        .iter()
        .map(datum_hash)
        .fold(0u64, u64::wrapping_add)
}

fn mix(sum: u64) -> u64 {
    let mut h = DefaultHasher::new();
    sum.hash(&mut h);
    h.finish()
}

/// Order-independent digest of one row: the column hashes are summed, so
/// a join that emits `probe ++ build` digests like one emitting
/// `build ++ probe`, while any changed value changes the digest.
pub fn row_digest(t: &Tuple) -> u64 {
    mix(column_sum(t))
}

/// Order-independent digest of a multiset of rows.
pub fn rows_digest<'a>(rows: impl IntoIterator<Item = &'a Tuple>) -> u64 {
    rows.into_iter()
        .map(row_digest)
        .fold(0u64, u64::wrapping_add)
}

/// A query's expected answer: row count and multiset digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    pub rows: u64,
    pub digest: u64,
}

/// Reference answer of a plain in-memory hash equijoin on column 0.
pub fn hash_join_answer(build: &[Tuple], probe: &[Tuple]) -> Answer {
    let mut table: std::collections::HashMap<i32, Vec<u64>> = std::collections::HashMap::new();
    for t in build {
        table.entry(key_of(t)).or_default().push(column_sum(t));
    }
    let mut rows = 0u64;
    let mut digest = 0u64;
    for p in probe {
        if let Some(matches) = table.get(&key_of(p)) {
            let side = column_sum(p);
            for b in matches {
                rows += 1;
                digest = digest.wrapping_add(mix(b.wrapping_add(side)));
            }
        }
    }
    Answer { rows, digest }
}

/// Reference answer of a range selection `lo <= a <= hi` over the rows
/// `tuple(k, blen)` for `k` in `keys`.
pub fn range_answer(keys: &[i32], blen: usize, lo: i32, hi: i32) -> Answer {
    let text = datum_hash(&Datum::Text("x".repeat(blen)));
    let mut answer = Answer { rows: 0, digest: 0 };
    for &k in keys.iter().filter(|k| (lo..=hi).contains(*k)) {
        answer.rows += 1;
        let row = mix(datum_hash(&Datum::Int(k)).wrapping_add(text));
        answer.digest = answer.digest.wrapping_add(row);
    }
    answer
}

pub fn key_of(t: &Tuple) -> i32 {
    t.get(0).as_int().expect("column a is an int")
}

/// A tuple of the paper's `r(a int4, b text)` schema.
pub fn tuple(a: i32, blen: usize) -> Tuple {
    Tuple::from_values(vec![Datum::Int(a), Datum::Text("x".repeat(blen))])
}

/// Metrics in print order: `(name, value, unit)`.
#[derive(Debug, Default)]
pub struct Sheet(pub Vec<(String, f64, &'static str)>);

impl Sheet {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// A metric that may be unavailable: `-1` marks "not measured here".
    pub fn put_opt(&mut self, name: impl Into<String>, value: Option<f64>, unit: &'static str) {
        self.put(name, value.unwrap_or(-1.0), unit);
    }

    /// The metrics named in `names`, in that order and with those units;
    /// a name this sheet lacks reads `-1` (not measured on this workload).
    pub fn canonical(&self, names: &[(&str, &'static str)]) -> Sheet {
        for (n, _, _) in &self.0 {
            assert!(
                names.iter().any(|(m, _)| m == n),
                "metric {n} is not in the benchmark's list"
            );
        }
        let mut out = Sheet::default();
        for &(name, unit) in names {
            let v = self
                .0
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|(_, v, _)| *v);
            out.put_opt(name, v, unit);
        }
        out
    }

    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { -1.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Processors this process may run on, as `nproc` counts them (the
/// `Cpus_allowed_list` affinity mask).
pub fn nproc() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return 0;
    };
    list.trim()
        .split(',')
        .filter_map(|r| match r.split_once('-') {
            Some((a, b)) => Some(b.parse::<usize>().ok()? + 1 - a.parse::<usize>().ok()?),
            None => r.parse::<usize>().ok().map(|_| 1),
        })
        .sum()
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
