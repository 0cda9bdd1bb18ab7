//! Small helpers shared by every workload: the seeded generator, the
//! body hash, the peak-RSS reader and the timing shorthands.

use std::time::Instant;

/// SplitMix64. The benchmark owns its generator so that a workload's
/// inputs are a function of `--seed` alone, not of a dependency's
/// stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// `stream` separates the draws of different workloads and phases
    /// that share one `--seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for
    /// every `n` the benchmark uses.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct values from `0..n`, in draw order.
    pub fn distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot draw {k} distinct values from {n}");
        let mut seen = std::collections::HashSet::with_capacity(k);
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let v = self.below(n);
            if seen.insert(v) {
                out.push(v);
            }
        }
        out
    }
}

/// A MAC address: seeded vendor half, `index` in the device half, so it
/// is unique by construction and different for every seed.
pub fn mac(rng: &mut Rng, index: usize) -> String {
    let v = rng.next_u64();
    format!(
        "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
        (v & 0xfe) | 0x02,
        (v >> 8) & 0xff,
        (v >> 16) & 0xff,
        (index >> 16) & 0xff,
        (index >> 8) & 0xff,
        index & 0xff
    )
}

/// Nodes per cabinet in every fixture.
pub const PER_RACK: usize = 32;

/// Hostname of the `index`-th node of the large SQL fixtures.
pub fn node_name(index: usize) -> String {
    format!("compute-{}-{}", index / PER_RACK, index % PER_RACK)
}

/// The column values of the `index`-th `nodes` row of the large SQL
/// fixtures (`db-ingest`, `admin-query`): 32 nodes to a cabinet, five
/// memberships in turn, a unique address.
pub fn node_values(rng: &mut Rng, index: usize) -> String {
    format!(
        "{}, '{}', '{}', {}, {}, {}, '10.{}.{}.{}', 'Compute node'",
        index + 1,
        mac(rng, index),
        node_name(index),
        1 + index % 5,
        index / PER_RACK,
        index % PER_RACK,
        2 + (index >> 16),
        (index >> 8) & 0xff,
        index & 0xff,
    )
}

/// FNV-1a, the hash the serving frontend stamps on response bodies.
pub use rocks_serve::fnv64;

/// Nanoseconds since `t`.
pub fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Time one call, returning its result and the nanoseconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, ns_since(t))
}

/// The process's peak resident set (`VmHWM`), in MB. `None` where
/// `/proc` is not available.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Virtual processors of the host.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Threads the end-to-end workloads put load on: one processor is left
/// to the kernel and the harness, and at most four are used. On a
/// two-processor guest a two-thread measurement is disturbed by anything
/// else that runs at all; its ten-seed spread was three times that of
/// the same call on one thread.
pub fn load_threads() -> usize {
    nproc().saturating_sub(1).clamp(1, 4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_function_of_seed_and_stream() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }

    #[test]
    fn distinct_draws_do_not_repeat() {
        let mut v = Rng::new(3, 0).distinct(100, 100);
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }
}
