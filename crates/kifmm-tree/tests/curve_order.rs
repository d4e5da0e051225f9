//! `sort_codes` under different pool sizes. The one test of this binary:
//! it sets `KIFMM_NUM_THREADS`, which no concurrently running test may
//! read.

use kifmm_tree::sort_codes;

#[test]
fn sort_codes_gives_one_permutation_for_any_thread_count() {
    // Longer than the runtime's parallel-sort cutoff (2^13), ~40 entries
    // per distinct code.
    let mut x = 0x9e3779b97f4a7c15u64;
    let codes: Vec<u64> = (0..40_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % 1009
        })
        .collect();
    let mut expect: Vec<(u64, u32)> = codes.iter().copied().zip(0u32..).collect();
    expect.sort();
    for threads in ["1", "3"] {
        std::env::set_var("KIFMM_NUM_THREADS", threads);
        let (sorted, perm) = sort_codes(&codes);
        assert_eq!(sorted.iter().copied().zip(perm).collect::<Vec<_>>(), expect, "{threads} threads");
    }
}
