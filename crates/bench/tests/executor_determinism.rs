//! The parallel sweep runner must be observably identical to the
//! sequential one: every figure sweep merges worker results by input
//! index, so thread count (and completion order) must never leak into the
//! output.

use s2g_bench::{hotpath_sweep, parallel_map_with, scaling_sweep, Scale};

/// One test function on purpose: it twiddles the process-wide
/// `S2G_BENCH_THREADS` variable, and a second concurrent test in this
/// binary could race it.
#[test]
fn sweep_output_is_identical_at_any_thread_count() {
    // The points carry floats; the sweeps are seeded and the merge is by
    // index, so the Debug renderings must match byte for byte. The scaling
    // sweep is the one with a fault plan in every other run.
    let sweeps = || {
        let hotpath = hotpath_sweep(Scale::Smoke, 11);
        let scaling = scaling_sweep(&[1, 2, 4], Scale::Smoke, 33);
        format!("{hotpath:?}\n{scaling:?}")
    };
    std::env::set_var("S2G_BENCH_THREADS", "4");
    let parallel = sweeps();
    std::env::set_var("S2G_BENCH_THREADS", "1");
    let sequential = sweeps();
    std::env::remove_var("S2G_BENCH_THREADS");
    assert_eq!(parallel, sequential);

    // And the executor itself, across a spread of worker counts.
    let items: Vec<u64> = (0..53).collect();
    let expect: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(2654435761)).collect();
    for threads in [1, 2, 3, 8, 64] {
        let got = parallel_map_with(threads, &items, |&x| x.wrapping_mul(2654435761));
        assert_eq!(got, expect, "threads={threads}");
    }
}
