//! Offline shim for the `criterion` crate.
//!
//! Compiles the workspace's benches unchanged and, when actually run
//! (`cargo bench`), times each benchmark with a warmup pass followed by
//! **repeated samples**, reporting min / median / p95 ns-per-iter
//! instead of a single first-order mean — the repeated-run
//! statistics perf claims should cite. No plotting or baseline
//! comparison; `cargo bench --no-run` keeps benches compiling in CI.

use std::fmt;
use std::time::{Duration, Instant};

/// Returns the input unchanged while defeating constant-propagation.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

#[derive(Clone, Debug)]
pub enum Throughput {
    Bytes(u64),
    Elements(u64),
    BytesDecimal(u64),
}

#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 20,
            measurement_time: Duration::from_millis(300),
        }
    }
}

impl Criterion {
    pub fn configure_from_args(self) -> Self {
        self
    }

    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n;
        self
    }

    pub fn measurement_time(mut self, t: Duration) -> Self {
        self.measurement_time = t;
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        run_one("", name, self.sample_size, self.measurement_time, &mut f);
        self
    }

    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        run_one(
            "",
            &id.to_string(),
            self.sample_size,
            self.measurement_time,
            &mut |b| f(b, input),
        );
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            sample_size: 20,
            measurement_time: Duration::from_millis(300),
        }
    }
}

pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    measurement_time: Duration,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.measurement_time = t;
        self
    }

    pub fn throughput(&mut self, _throughput: Throughput) -> &mut Self {
        self
    }

    pub fn sampling_mode(&mut self, _mode: SamplingMode) -> &mut Self {
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl IntoBenchmarkId,
        mut f: F,
    ) -> &mut Self {
        let id = id.into_benchmark_id().to_string();
        run_one(&self.name, &id, self.sample_size, self.measurement_time, &mut f);
        self
    }

    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let id = id.into_benchmark_id().to_string();
        run_one(&self.name, &id, self.sample_size, self.measurement_time, &mut |b| {
            f(b, input)
        });
        self
    }

    pub fn finish(self) {}
}

#[derive(Clone, Copy, Debug)]
pub enum SamplingMode {
    Auto,
    Linear,
    Flat,
}

pub trait IntoBenchmarkId {
    fn into_benchmark_id(self) -> BenchmarkId;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> BenchmarkId {
        self
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId {
            id: self.to_string(),
        }
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId { id: self }
    }
}

/// Collects per-iteration timings from `iter` / `iter_with_setup`.
pub struct Bencher {
    iterations: u64,
    elapsed: Duration,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        for _ in 0..self.iterations {
            let start = Instant::now();
            black_box(f());
            self.elapsed += start.elapsed();
        }
    }

    pub fn iter_with_setup<S, O, SF: FnMut() -> S, F: FnMut(S) -> O>(
        &mut self,
        mut setup: SF,
        mut f: F,
    ) {
        for _ in 0..self.iterations {
            let input = setup();
            let start = Instant::now();
            black_box(f(input));
            self.elapsed += start.elapsed();
        }
    }

    /// `iter_batched` with any batch size behaves like per-iteration
    /// setup here.
    pub fn iter_batched<S, O, SF: FnMut() -> S, F: FnMut(S) -> O>(
        &mut self,
        setup: SF,
        f: F,
        _size: BatchSize,
    ) {
        self.iter_with_setup(setup, f);
    }
}

#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

fn run_one<F: FnMut(&mut Bencher)>(
    group: &str,
    name: &str,
    sample_size: usize,
    measurement_time: Duration,
    f: &mut F,
) {
    // Warmup pass with a single iteration to settle caches/lazy init.
    let mut warm = Bencher {
        iterations: 1,
        elapsed: Duration::ZERO,
    };
    f(&mut warm);
    let per_iter = warm.elapsed.max(Duration::from_nanos(1));

    // Split roughly `measurement_time` across `sample_size` samples,
    // bounded to keep pathological benches from hanging.
    let samples = sample_size.max(2) as u64;
    let target_iters =
        (measurement_time.as_nanos() / per_iter.as_nanos().max(1) / samples as u128).max(1);
    let iterations = target_iters.min(1_000) as u64;

    let mut per_sample_ns: Vec<f64> = Vec::with_capacity(samples as usize);
    for _ in 0..samples {
        let mut bencher = Bencher {
            iterations,
            elapsed: Duration::ZERO,
        };
        f(&mut bencher);
        per_sample_ns.push(bencher.elapsed.as_nanos() as f64 / iterations.max(1) as f64);
    }
    per_sample_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = per_sample_ns.len();
    let min_ns = per_sample_ns[0];
    let median_ns = if n.is_multiple_of(2) {
        (per_sample_ns[n / 2 - 1] + per_sample_ns[n / 2]) / 2.0
    } else {
        per_sample_ns[n / 2]
    };
    let p95_ns = per_sample_ns[((n as f64 * 0.95).ceil() as usize).clamp(1, n) - 1];

    let full = if group.is_empty() {
        name.to_string()
    } else {
        format!("{group}/{name}")
    };
    println!(
        "bench {full:<50} median {median_ns:>12.1} ns/iter  (min {min_ns:.1}, p95 {p95_ns:.1}, {n} samples x {iterations} iters)"
    );
}

#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
