//! Offline stand-in for `criterion`, providing the API subset this
//! workspace's benches use: `Criterion::{bench_function,
//! benchmark_group}`, groups with `bench_function` / `bench_with_input` /
//! `finish`, `Bencher::iter`, `BenchmarkId::from_parameter`, and the
//! `criterion_group!` / `criterion_main!` macros.
//!
//! It runs each closure a small fixed number of iterations and reports
//! wall-clock means — enough for `cargo bench` to build and run the
//! engine and parser micro-benchmarks end to end, without crates.io
//! access for the real statistics machinery.

use std::time::Instant;

/// Opaque-value hint, mirroring `criterion::black_box`.
#[inline]
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// A benchmark identifier with an optional parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    /// An id made of a parameter alone.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            text: parameter.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

/// Passed to bench closures; runs the measured routine.
pub struct Bencher {
    iters: u32,
    last_ns: u128,
}

impl Bencher {
    /// Times `routine` over a fixed number of iterations.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.last_ns = start.elapsed().as_nanos() / u128::from(self.iters.max(1));
    }
}

/// The benchmark driver.
pub struct Criterion {
    iters: u32,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { iters: 3 }
    }
}

impl Criterion {
    /// Runs one named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        run_one(id, self.iters, &mut f);
        self
    }

    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            iters: self.iters,
            _parent: std::marker::PhantomData,
        }
    }
}

/// A group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    iters: u32,
    _parent: std::marker::PhantomData<&'a ()>,
}

impl BenchmarkGroup<'_> {
    /// Runs one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl std::fmt::Display,
        mut f: F,
    ) -> &mut Self {
        run_one(&format!("{}/{}", self.name, id), self.iters, &mut f);
        self
    }

    /// Runs one parameterized benchmark in the group.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let iters = self.iters;
        run_one(&format!("{}/{}", self.name, id), iters, &mut |b| {
            f(b, input);
        });
        self
    }

    /// Closes the group.
    pub fn finish(self) {}
}

fn run_one(id: &str, iters: u32, f: &mut dyn FnMut(&mut Bencher)) {
    let mut bencher = Bencher { iters, last_ns: 0 };
    f(&mut bencher);
    println!(
        "bench {id}: ~{} ns/iter (offline stand-in)",
        bencher.last_ns
    );
}

/// Declares a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the benchmark entry point.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
