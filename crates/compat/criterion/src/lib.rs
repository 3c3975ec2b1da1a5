//! Offline stand-in for the [criterion](https://docs.rs/criterion) benchmark
//! harness.
//!
//! The build environment for this workspace has no access to a crates.io
//! registry, so the subset of the criterion API that the `tps-bench` bench
//! targets use is vendored here as a plain wall-clock harness. Benches keep
//! the exact same source they would have against real criterion; swapping the
//! `criterion` workspace dependency for the registry crate restores the full
//! statistical machinery with no source changes.
//!
//! Measurement model: each benchmark closure is warmed up for
//! `warm_up_time`, then timed in batches until `measurement_time` elapses
//! and at least `sample_size` samples were collected. The mean, minimum and
//! maximum per-iteration times are reported, plus elements/second when a
//! [`Throughput`] was declared. Machine-readable JSON lines are written to
//! the file named by the `CRITERION_SHIM_JSON` environment variable if set.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Prevents the optimiser from discarding a value (best-effort stand-in for
/// `criterion::black_box`).
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Throughput declaration for a benchmark group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// The benchmark processes this many elements per iteration.
    Elements(u64),
    /// The benchmark processes this many bytes per iteration.
    Bytes(u64),
}

/// Batching hint for [`Bencher::iter_batched`] (API subset). The shim
/// always runs one setup per timed iteration — `PerIteration` semantics,
/// which is a valid (if slower) schedule for the other variants too; only
/// the routine is timed either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// The input is small; real criterion would share one setup across many
    /// iterations.
    SmallInput,
    /// The input is large; real criterion batches a few iterations per
    /// setup.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

/// A benchmark identifier composed of a function name and a parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Creates an identifier `"{name}/{parameter}"`.
    pub fn new<S: Into<String>, P: std::fmt::Display>(name: S, parameter: P) -> Self {
        Self {
            id: format!("{}/{parameter}", name.into()),
        }
    }

    /// Creates an identifier from a bare parameter.
    pub fn from_parameter<P: std::fmt::Display>(parameter: P) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// The per-benchmark timing callback handle.
pub struct Bencher<'a> {
    samples: &'a mut Vec<Duration>,
    warm_up_time: Duration,
    measurement_time: Duration,
    min_samples: usize,
}

impl Bencher<'_> {
    /// Times `routine`, collecting one sample per invocation.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up: run untimed until the warm-up budget is spent.
        let warm_start = Instant::now();
        while warm_start.elapsed() < self.warm_up_time {
            black_box(routine());
        }
        // Measurement: collect samples until both budgets are met.
        let measure_start = Instant::now();
        loop {
            let t = Instant::now();
            black_box(routine());
            self.samples.push(t.elapsed());
            if self.samples.len() >= self.min_samples
                && measure_start.elapsed() >= self.measurement_time
            {
                break;
            }
            // Never loop unboundedly on pathologically fast routines.
            if self.samples.len() >= 1_000_000 {
                break;
            }
        }
    }

    /// Times `routine` on fresh inputs from `setup`; only the routine is
    /// inside the timed window, so per-iteration construction cost (e.g.
    /// building a large engine) does not pollute the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let warm_start = Instant::now();
        while warm_start.elapsed() < self.warm_up_time {
            let input = setup();
            black_box(routine(input));
        }
        let measure_start = Instant::now();
        loop {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            self.samples.push(t.elapsed());
            if self.samples.len() >= self.min_samples
                && measure_start.elapsed() >= self.measurement_time
            {
                break;
            }
            if self.samples.len() >= 1_000_000 {
                break;
            }
        }
    }
}

/// A named group of related benchmarks with shared configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the minimum number of samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the warm-up duration per benchmark.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up_time = d;
        self
    }

    /// Sets the measurement duration per benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Declares the amount of work one iteration performs.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>),
    {
        let mut samples = Vec::new();
        let mut bencher = Bencher {
            samples: &mut samples,
            warm_up_time: self.warm_up_time,
            measurement_time: self.measurement_time,
            min_samples: self.sample_size,
        };
        f(&mut bencher);
        self.report(&id.to_string(), &samples);
        self
    }

    /// Runs one benchmark parameterised by an input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl std::fmt::Display,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>, &I),
    {
        let mut samples = Vec::new();
        let mut bencher = Bencher {
            samples: &mut samples,
            warm_up_time: self.warm_up_time,
            measurement_time: self.measurement_time,
            min_samples: self.sample_size,
        };
        f(&mut bencher, input);
        self.report(&id.to_string(), &samples);
        self
    }

    /// Finishes the group (prints a trailing newline, mirroring criterion).
    pub fn finish(&mut self) {
        println!();
    }

    fn report(&mut self, id: &str, samples: &[Duration]) {
        if samples.is_empty() {
            println!("{}/{id:<40} (no samples)", self.name);
            return;
        }
        let nanos: Vec<f64> = samples.iter().map(|d| d.as_nanos() as f64).collect();
        let mean = nanos.iter().sum::<f64>() / nanos.len() as f64;
        let min = nanos.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = nanos.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut line = format!(
            "{}/{id:<40} time: [{} {} {}]",
            self.name,
            format_ns(min),
            format_ns(mean),
            format_ns(max)
        );
        if let Some(Throughput::Elements(n)) = self.throughput {
            let per_sec = n as f64 / (mean / 1e9);
            let _ = write!(line, "  thrpt: {:.3} Melem/s", per_sec / 1e6);
        }
        if let Some(Throughput::Bytes(n)) = self.throughput {
            let per_sec = n as f64 / (mean / 1e9);
            let _ = write!(line, "  thrpt: {:.3} MiB/s", per_sec / (1024.0 * 1024.0));
        }
        println!("{line}");
        let elements = match self.throughput {
            Some(Throughput::Elements(n)) => n,
            _ => 0,
        };
        self.criterion.json_rows.push(format!(
            "{{\"group\":\"{}\",\"bench\":\"{id}\",\"mean_ns\":{mean:.1},\
             \"min_ns\":{min:.1},\"max_ns\":{max:.1},\"samples\":{},\
             \"elements_per_iter\":{elements}}}",
            self.name,
            samples.len(),
        ));
    }
}

/// The benchmark harness entry point (API subset of `criterion::Criterion`).
#[derive(Default)]
pub struct Criterion {
    json_rows: Vec<String>,
}

impl Criterion {
    /// Creates a harness with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
            warm_up_time: Duration::from_millis(500),
            measurement_time: Duration::from_secs(1),
            throughput: None,
            criterion: self,
        }
    }

    /// Runs a single free-standing benchmark.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>),
    {
        self.benchmark_group("bench").bench_function(id, f);
        self
    }

    /// Writes collected results as JSON lines if `CRITERION_SHIM_JSON` names
    /// a file; called by [`criterion_main!`] after all groups ran.
    pub fn final_summary(&self) {
        if let Ok(path) = std::env::var("CRITERION_SHIM_JSON") {
            if !path.is_empty() {
                let body = self.json_rows.join("\n");
                if let Err(e) = std::fs::write(&path, body + "\n") {
                    eprintln!("criterion shim: cannot write {path}: {e}");
                }
            }
        }
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Declares the bench `main` function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::Criterion::new();
            $($group(&mut criterion);)+
            criterion.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_samples() {
        let mut c = Criterion::new();
        let mut group = c.benchmark_group("t");
        group
            .sample_size(3)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5));
        group.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
        group.finish();
        assert_eq!(c.json_rows.len(), 1);
        assert!(c.json_rows[0].contains("\"bench\":\"noop\""));
    }

    #[test]
    fn iter_batched_times_routine_on_fresh_inputs() {
        let mut c = Criterion::new();
        let mut group = c.benchmark_group("t");
        group
            .sample_size(3)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5));
        group.bench_function("batched", |b| {
            b.iter_batched(
                || vec![1u64, 2, 3],
                |v| v.iter().sum::<u64>(),
                BatchSize::PerIteration,
            )
        });
        group.finish();
        assert_eq!(c.json_rows.len(), 1);
        assert!(c.json_rows[0].contains("\"bench\":\"batched\""));
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("f", 32).to_string(), "f/32");
        assert_eq!(BenchmarkId::from_parameter("x").to_string(), "x");
    }
}
