//! The reference loop: fixed work that shares no code with the program,
//! timed before every round so that wall-clock figures can be reported
//! at one reference machine speed.
//!
//! On a shared machine the speed the benchmark gets changes by tens of
//! percent over minutes, as other tenants load the shared cores and
//! caches. A pure-arithmetic spin or a DRAM-bound random walk does not
//! follow those changes; a `std` `BTreeMap` churn with small heap values
//! does (correlation 0.8–0.9 with a replay pass over 0.3 s samples),
//! because it exercises the allocator, pointer chasing and branches the
//! measured layers also depend on.

use std::collections::BTreeMap;
use std::time::Instant;

/// Time of one reference loop on the machine the figures are scaled to
/// (ns): the loop's median on a 2-vCPU Linux VM.
pub const NOMINAL_NS: f64 = 5.0e6;

/// Samples taken before each round.
pub const SAMPLES_PER_ROUND: usize = 2;

/// Run the reference loop once; its wall time in ns.
pub fn time_ns() -> u64 {
    let t = Instant::now();
    let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut x = 7u64;
    for i in 0..30_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(x >> 40, vec![i; 3]);
        if i % 3 == 0 {
            map.pop_first();
        }
    }
    std::hint::black_box(map.len());
    t.elapsed().as_nanos() as u64
}

/// Machine speed relative to the reference: `NOMINAL_NS` over the median
/// sample. Above 1 means the machine ran faster than the reference.
pub fn speed(samples_ns: &[u64]) -> f64 {
    let median = crate::stats::median(&samples_ns.iter().map(|&s| s as f64).collect::<Vec<_>>());
    crate::stats::ratio(NOMINAL_NS, median)
}
