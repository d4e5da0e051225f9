//! Collective operations, built on point-to-point messaging.
//!
//! The paper's tree construction leans on `MPI_Allreduce` over the global
//! tree array (§3.1) and its owner assignment on an allreduce of "taken"
//! flags (§3.2); the exchange steps need gathers/scatters. All collectives
//! here use a rank-0 root with linear fan-in/fan-out — the same asymptotic
//! traffic pattern the paper's own (admittedly non-scalable, see their §4
//! discussion point 5) tree-construction phase exhibits.
//!
//! Every rank must call collectives in the same order; tags are drawn from
//! a reserved per-rank sequence so collectives never collide with user
//! messages.

use crate::comm::Comm;
use crate::datatypes::{decode_f64s, decode_u64s, encode_f64s, encode_u64s};

/// Reduction operators for [`allreduce_f64`]/[`allreduce_u64`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise maximum.
    Max,
    /// Elementwise minimum.
    Min,
    /// Bitwise OR (rank-set masks; `f64` allreduce rejects it).
    BitOr,
}

/// The one body of the rooted collectives: rank 0 receives every other
/// rank's payload in ascending rank order, `fold`s them — its own payload
/// first — into the reply, and sends the reply to every rank; every rank
/// returns the reply. `fold` runs on rank 0 only.
fn through_root(
    comm: &Comm,
    mine: Vec<u8>,
    fold: impl FnOnce(&mut dyn Iterator<Item = Vec<u8>>) -> Vec<u8>,
) -> Vec<u8> {
    let tag = comm.next_collective_tag();
    let root = 0;
    if comm.rank() != root {
        comm.send_raw(root, tag, mine);
        return comm.recv_raw(root, tag);
    }
    let others = (1..comm.size()).map(|src| comm.recv_raw(src, tag));
    let reply = fold(&mut std::iter::once(mine).chain(others));
    for dst in 1..comm.size() {
        comm.send_raw(dst, tag, reply.clone());
    }
    reply
}

/// Block until every rank has entered the barrier.
pub fn barrier(comm: &Comm) {
    through_root(comm, Vec::new(), |entered| {
        entered.for_each(drop);
        Vec::new()
    });
}

/// In-place elementwise allreduce: rank 0 folds the buffers in ascending
/// rank order with `op`, every rank ends up with the result.
fn allreduce<T: Copy>(
    comm: &Comm,
    data: &mut [T],
    encode: fn(&[T]) -> Vec<u8>,
    decode: fn(&[u8]) -> Vec<T>,
    op: impl Fn(T, T) -> T,
) {
    let reduced = through_root(comm, encode(data), |parts| {
        let mut acc = decode(&parts.next().expect("rank 0's own buffer"));
        for other in parts {
            let other = decode(&other);
            assert_eq!(other.len(), acc.len(), "allreduce length mismatch");
            for (a, b) in acc.iter_mut().zip(other) {
                *a = op(*a, b);
            }
        }
        encode(&acc)
    });
    data.copy_from_slice(&decode(&reduced));
}

/// In-place elementwise allreduce over `f64` buffers of identical length.
///
/// `ReduceOp::BitOr` is rejected on *every* rank at entry, with the rank in
/// the message. The old check sat inside root's reduce loop, so only rank 0
/// panicked — with no rank context — while non-root ranks blocked on a
/// reply that never came, and a single-rank run silently "succeeded".
pub fn allreduce_f64(comm: &Comm, data: &mut [f64], op: ReduceOp) {
    assert!(
        op != ReduceOp::BitOr,
        "kifmm-mpi: rank {}: ReduceOp::BitOr is only defined for integer reductions — \
         use allreduce_u64",
        comm.rank()
    );
    allreduce(comm, data, encode_f64s, decode_f64s, |a, b| match op {
        ReduceOp::Sum => a + b,
        ReduceOp::Max => a.max(b),
        ReduceOp::Min => a.min(b),
        ReduceOp::BitOr => unreachable!("rejected at entry"),
    });
}

/// In-place elementwise allreduce over `u64` buffers (the global tree
/// array's point counts).
pub fn allreduce_u64(comm: &Comm, data: &mut [u64], op: ReduceOp) {
    allreduce(comm, data, encode_u64s, decode_u64s, |a, b| match op {
        ReduceOp::Sum => a + b,
        ReduceOp::Max => a.max(b),
        ReduceOp::Min => a.min(b),
        ReduceOp::BitOr => a | b,
    });
}

/// Gather a variable-length payload from every rank onto all ranks;
/// returns `size` payloads indexed by source rank.
pub fn allgatherv(comm: &Comm, data: &[u8]) -> Vec<Vec<u8>> {
    // The reply is every payload behind its length, in rank order.
    let flat = through_root(comm, data.to_vec(), |parts| {
        let mut flat = Vec::new();
        for part in parts {
            flat.extend_from_slice(&(part.len() as u64).to_le_bytes());
            flat.extend_from_slice(&part);
        }
        flat
    });
    split_length_prefixed(&flat, comm.size())
}

/// Personalized all-to-all: `send[d]` goes to rank `d`; returns the
/// payloads received, indexed by source rank.
pub fn alltoallv(comm: &Comm, send: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    assert_eq!(send.len(), comm.size(), "one payload per destination");
    let tag = comm.next_collective_tag();
    let me = comm.rank();
    let mut out = vec![Vec::new(); comm.size()];
    for (dst, payload) in send.into_iter().enumerate() {
        if dst == me {
            out[me] = payload;
        } else {
            comm.send_raw(dst, tag, payload);
        }
    }
    for src in 0..comm.size() {
        if src != me {
            out[src] = comm.recv_raw(src, tag);
        }
    }
    out
}

/// Typed `u64` allgatherv: gather each rank's slice onto every rank.
pub fn allgatherv_u64(comm: &Comm, data: &[u64]) -> Vec<Vec<u64>> {
    allgatherv(comm, &encode_u64s(data)).iter().map(|p| decode_u64s(p)).collect()
}

/// Typed `u64` personalized all-to-all.
pub fn alltoallv_u64(comm: &Comm, send: Vec<Vec<u64>>) -> Vec<Vec<u64>> {
    let raw: Vec<Vec<u8>> = send.iter().map(|v| encode_u64s(v)).collect();
    alltoallv(comm, raw).iter().map(|p| decode_u64s(p)).collect()
}

/// Parallel sample sort of `u64` keys (regular sampling).
///
/// Input: this rank's keys, **already locally sorted**. Output: this
/// rank's *chunk* of the globally sorted key array — chunks are
/// contiguous in value space and ascending by rank, i.e. concatenating
/// the outputs over ranks 0..P yields the sorted multiset union of all
/// inputs, and keys comparing equal never straddle a chunk boundary.
///
/// Three steps, O(1) collectives total (the point of the sample-sort
/// tree construction — the paper's per-level `Allreduce` build needs
/// O(depth) of them): each rank contributes P regular samples
/// (one allgatherv); every rank sorts the sample union identically and
/// picks the same P−1 splitters; keys are bucketed by binary search and
/// exchanged (one alltoallv); received sorted runs are merged locally.
pub fn sample_sort_u64(comm: &Comm, local_sorted: &[u64]) -> Vec<u64> {
    let p = comm.size();
    debug_assert!(local_sorted.windows(2).all(|w| w[0] <= w[1]), "input must be locally sorted");
    if p == 1 {
        return local_sorted.to_vec();
    }
    // 1. Regular sampling: P evenly spaced local samples per rank.
    let n = local_sorted.len();
    let samples: Vec<u64> =
        (0..p).filter_map(|i| local_sorted.get((i + 1) * n / (p + 1)).copied()).collect();
    let mut all_samples: Vec<u64> = allgatherv_u64(comm, &samples).concat();
    all_samples.sort_unstable();
    // 2. Deterministic splitters: every rank picks the same P−1 quantiles
    //    of the sample union. A key `k` belongs to bucket r iff
    //    splitters[r-1] <= k < splitters[r], so duplicates of one value
    //    all land in one bucket.
    let m = all_samples.len();
    if m == 0 {
        // Every rank is empty: nothing to exchange.
        return Vec::new();
    }
    let splitters: Vec<u64> = (1..p).map(|r| all_samples[r * m / p]).collect();
    let mut send: Vec<Vec<u64>> = Vec::with_capacity(p);
    let mut lo = 0usize;
    for &s in &splitters {
        let hi = local_sorted.partition_point(|&k| k < s);
        send.push(local_sorted[lo..hi.max(lo)].to_vec());
        lo = hi.max(lo);
    }
    send.push(local_sorted[lo..].to_vec());
    // 3. Exchange buckets; merge the received sorted runs.
    let mut chunk: Vec<u64> = alltoallv_u64(comm, send).concat();
    chunk.sort_unstable();
    chunk
}

fn split_length_prefixed(flat: &[u8], parts: usize) -> Vec<Vec<u8>> {
    let mut out = Vec::with_capacity(parts);
    let mut cursor = 0usize;
    for _ in 0..parts {
        let len = u64::from_le_bytes(flat[cursor..cursor + 8].try_into().unwrap()) as usize;
        cursor += 8;
        out.push(flat[cursor..cursor + len].to_vec());
        cursor += len;
    }
    assert_eq!(cursor, flat.len(), "corrupt length-prefixed payload");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run;

    #[test]
    fn barrier_completes() {
        run(4, |comm| {
            for _ in 0..5 {
                barrier(comm);
            }
        });
    }

    #[test]
    fn allreduce_sum_max_min() {
        let out = run(6, |comm| {
            let r = comm.rank() as f64;
            let mut v = vec![r, -r, 1.0];
            allreduce_f64(comm, &mut v, ReduceOp::Sum);
            let mut w = vec![r];
            allreduce_f64(comm, &mut w, ReduceOp::Max);
            let mut m = vec![r];
            allreduce_f64(comm, &mut m, ReduceOp::Min);
            (v, w, m)
        });
        for (v, w, m) in out {
            assert_eq!(v, vec![15.0, -15.0, 6.0]);
            assert_eq!(w, vec![5.0]);
            assert_eq!(m, vec![0.0]);
        }
    }

    #[test]
    fn allreduce_u64_tree_counts() {
        // The paper's use case: summing local box point counts.
        let out = run(4, |comm| {
            let mut counts = vec![comm.rank() as u64; 8];
            allreduce_u64(comm, &mut counts, ReduceOp::Sum);
            counts
        });
        for c in out {
            assert_eq!(c, vec![6u64; 8]);
        }
    }

    #[test]
    fn allreduce_bitor_rank_masks() {
        let out = run(5, |comm| {
            let mut mask = vec![1u64 << comm.rank()];
            allreduce_u64(comm, &mut mask, ReduceOp::BitOr);
            mask[0]
        });
        for m in out {
            assert_eq!(m, 0b11111);
        }
    }

    /// Satellite regression: float BitOr must fail loudly on every rank
    /// with the rank id in the message — including the single-rank path,
    /// which previously never reached the check and silently succeeded.
    #[test]
    fn float_bitor_panics_with_rank_context_single_rank() {
        let res = std::panic::catch_unwind(|| {
            run(1, |comm| {
                let mut v = vec![1.0];
                allreduce_f64(comm, &mut v, ReduceOp::BitOr);
            });
        });
        let payload = res.expect_err("P=1 float BitOr must panic too");
        let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("rank 0"), "message carries the rank: {msg}");
        assert!(msg.contains("BitOr"), "message names the operator: {msg}");
    }

    /// Multi-rank: every rank rejects at entry, so no rank is left blocked
    /// waiting for a root reply, and the propagated panic names a rank.
    #[test]
    fn float_bitor_panics_with_rank_context_multi_rank() {
        let res = std::panic::catch_unwind(|| {
            run(3, |comm| {
                let mut v = vec![f64::from(comm.rank() as u32)];
                allreduce_f64(comm, &mut v, ReduceOp::BitOr);
            });
        });
        let payload = res.expect_err("P=3 float BitOr must panic");
        let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("rank"), "message carries a rank id: {msg}");
        assert!(msg.contains("allreduce_u64"), "message points at the fix: {msg}");
    }

    #[test]
    fn allgatherv_variable_sizes() {
        let out = run(4, |comm| {
            let mine = vec![comm.rank() as u8; comm.rank() + 1];
            allgatherv(comm, &mine)
        });
        for parts in out {
            assert_eq!(parts.len(), 4);
            for (r, p) in parts.iter().enumerate() {
                assert_eq!(p, &vec![r as u8; r + 1]);
            }
        }
    }

    #[test]
    fn alltoallv_personalized() {
        let out = run(3, |comm| {
            let send: Vec<Vec<u8>> =
                (0..3).map(|d| vec![(10 * comm.rank() + d) as u8; d + 1]).collect();
            alltoallv(comm, send)
        });
        for (me, received) in out.into_iter().enumerate() {
            for (src, payload) in received.into_iter().enumerate() {
                assert_eq!(payload, vec![(10 * src + me) as u8; me + 1]);
            }
        }
    }

    /// Runs `sample_sort_u64` over per-rank inputs and checks the output
    /// contract: chunk concatenation == sorted union, each chunk sorted,
    /// chunks ascending by rank, and no equal keys straddling a boundary.
    fn check_sample_sort(inputs: Vec<Vec<u64>>) {
        let p = inputs.len();
        let mut expected: Vec<u64> = inputs.concat();
        expected.sort_unstable();
        let inputs2 = inputs.clone();
        let chunks = run(p, move |comm| {
            let mut mine = inputs2[comm.rank()].clone();
            mine.sort_unstable();
            sample_sort_u64(comm, &mine)
        });
        for c in &chunks {
            assert!(c.windows(2).all(|w| w[0] <= w[1]), "chunk not sorted");
        }
        for w in chunks.windows(2) {
            if let (Some(&last), Some(&first)) = (w[0].last(), w[1].first()) {
                assert!(
                    last < first,
                    "equal keys must not straddle a chunk boundary: {last} vs {first}"
                );
            }
        }
        assert_eq!(chunks.concat(), expected, "inputs {inputs:?}");
    }

    #[test]
    fn sample_sort_matches_serial_sort() {
        // Deterministic pseudo-random inputs, uneven sizes.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let inputs: Vec<Vec<u64>> =
            (0..4).map(|r| (0..(500 + 137 * r)).map(|_| next() % 1000).collect()).collect();
        check_sample_sort(inputs);
    }

    #[test]
    fn sample_sort_handles_empty_and_skewed_ranks() {
        // One rank hoards everything; others are empty.
        check_sample_sort(vec![(0..2000).collect(), vec![], vec![], vec![]]);
        // All ranks empty.
        check_sample_sort(vec![vec![]; 4]);
        // Single element total.
        check_sample_sort(vec![vec![], vec![7], vec![], vec![]]);
        // Single rank degenerates to a local sort.
        check_sample_sort(vec![(0..100).rev().map(|i| i * 3).collect()]);
    }

    #[test]
    fn sample_sort_all_equal_keys_land_on_one_rank() {
        // Heavy duplication: every key identical. The whole multiset must
        // land on exactly one rank (no-straddle rule).
        let inputs = vec![vec![42u64; 300]; 4];
        let chunks = run(4, |comm| sample_sort_u64(comm, &vec![42u64; 300]));
        let nonempty = chunks.iter().filter(|c| !c.is_empty()).count();
        assert_eq!(nonempty, 1, "all duplicates of one value go to one rank");
        assert_eq!(chunks.concat().len(), 4 * 300);
        check_sample_sort(inputs);
    }

    #[test]
    fn typed_u64_collectives_roundtrip() {
        let out = run(3, |comm| {
            let r = comm.rank() as u64;
            let gathered = allgatherv_u64(comm, &[r, r + 10]);
            let send: Vec<Vec<u64>> = (0..3).map(|d| vec![100 * r + d as u64]).collect();
            let received = alltoallv_u64(comm, send);
            (gathered, received)
        });
        for (me, (gathered, received)) in out.into_iter().enumerate() {
            assert_eq!(gathered, vec![vec![0, 10], vec![1, 11], vec![2, 12]]);
            let expect: Vec<Vec<u64>> =
                (0..3).map(|src| vec![100 * src as u64 + me as u64]).collect();
            assert_eq!(received, expect);
        }
    }

    #[test]
    fn collectives_interleave_with_p2p() {
        run(3, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 42, b"user");
            }
            barrier(comm);
            let mut v = vec![1.0];
            allreduce_f64(comm, &mut v, ReduceOp::Sum);
            assert_eq!(v[0], 3.0);
            if comm.rank() == 1 {
                assert_eq!(comm.recv(0, 42), b"user");
            }
        });
    }
}
