//! Minimal offline re-implementation of the `criterion` surface this
//! workspace's benches use (same constraint as the `crates/proptest`
//! shim: no network access to crates.io).
//!
//! Covered API: [`criterion_group!`]/[`criterion_main!`],
//! [`Criterion::bench_function`] / [`Criterion::benchmark_group`] with
//! `bench_function` / `bench_with_input` / `finish`, [`BenchmarkId`],
//! [`Bencher::iter`], [`black_box`], and `sample_size` as the one
//! honoured tuning knob. Unlike the real crate there is no statistical
//! machinery: each benchmark warms up briefly, times `sample_size`
//! batches, and prints the median per-iteration time. Good enough to
//! rank implementations and spot order-of-magnitude regressions; the
//! repo's recorded performance numbers come from perfbench
//! (`BENCHMARK.json`), not from this shim.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level benchmark driver (stand-in for `criterion::Criterion`).
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion { sample_size: 20 }
    }
}

impl Criterion {
    /// Sets how many timed samples each benchmark collects.
    pub fn sample_size(mut self, n: usize) -> Criterion {
        assert!(n > 0, "sample size must be positive");
        self.sample_size = n;
        self
    }

    /// Runs a single named benchmark.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Criterion
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&id.into_benchmark_id().label, self.sample_size, &mut f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { name: name.into(), criterion: self }
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    name: String,
    criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Runs a benchmark inside the group.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id.into_benchmark_id().label);
        run_one(&label, self.criterion.sample_size, &mut f);
        self
    }

    /// Runs a benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.into_benchmark_id().label);
        run_one(&label, self.criterion.sample_size, &mut |b: &mut Bencher| f(b, input));
        self
    }

    /// Closes the group (reporting happens per-benchmark; nothing to
    /// flush).
    pub fn finish(self) {}
}

/// A function-plus-parameter benchmark label (stand-in for
/// `criterion::BenchmarkId`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Builds the conventional `function/parameter` label.
    pub fn new(function: impl std::fmt::Display, parameter: impl std::fmt::Display) -> BenchmarkId {
        BenchmarkId { label: format!("{function}/{parameter}") }
    }
}

/// Conversion into a [`BenchmarkId`] label, so the `bench_*` entry
/// points accept either a string or an explicit id.
pub trait IntoBenchmarkId {
    /// The label to report under.
    fn into_benchmark_id(self) -> BenchmarkId;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> BenchmarkId {
        self
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId { label: self.to_string() }
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId { label: self }
    }
}

/// Timer handed to benchmark closures (stand-in for
/// `criterion::Bencher`).
pub struct Bencher {
    /// Median per-iteration time of the samples collected so far.
    elapsed: Option<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Times `f`, collecting the configured number of samples after a
    /// short warm-up; adaptively batches very fast routines so each
    /// sample is long enough for the OS clock to resolve.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        // Warm-up, and a first estimate of the per-iteration cost.
        let start = Instant::now();
        black_box(f());
        let once = start.elapsed().max(Duration::from_nanos(1));
        // Batch so one sample is ≥ ~1 ms of work, capped for slow runs.
        let per_sample = Duration::from_millis(1);
        let batch = (per_sample.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as usize;
        let mut samples = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            samples.push(start.elapsed() / batch as u32);
        }
        samples.sort_unstable();
        self.elapsed = Some(samples[samples.len() / 2]);
    }
}

fn run_one<F: FnMut(&mut Bencher)>(label: &str, sample_size: usize, f: &mut F) {
    let mut bencher = Bencher { elapsed: None, sample_size };
    f(&mut bencher);
    match bencher.elapsed {
        Some(t) => println!("{label:<55} time: {}", fmt_duration(t)),
        None => println!("{label:<55} time: (no iter() call)"),
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.4} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.4} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.4} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Declares a benchmark group function (stand-in for
/// `criterion::criterion_group!`).
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Declares the bench binary's `main` (stand-in for
/// `criterion::criterion_main!`).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
