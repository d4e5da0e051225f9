//! Distributed-vs-serial consistency on the paper's workloads: the
//! parallel driver must reproduce the serial evaluator's results for any
//! rank count and distribution, and its communication accounting must
//! behave (comm grows with P; phases populated).

use kifmm::mpi::{encode_tag, Comm};
use kifmm::parallel::exchange::{Combine, ExchangeRoute, UserKind, NS_GATHER, NS_SCATTER};
use kifmm::parallel::{Ownership, ParallelFmm};
use kifmm_testkit::{check_matches_serial_opts, serial_reference};
use kifmm::tree::{partition_points, partition_weighted_points};
use kifmm::{rel_l2_error, FmmOptions, Laplace, Phase, Stokes};

fn split(all: &[[f64; 3]], ranks: usize) -> Vec<Vec<[f64; 3]>> {
    partition_points(all, ranks).gather(all)
}

fn run_case<K: kifmm::Kernel>(kernel: K, all: Vec<[f64; 3]>, ranks: usize) -> Vec<u64> {
    let chunks = split(&all, ranks);
    let dens: Vec<Vec<f64>> = chunks
        .iter()
        .enumerate()
        .map(|(r, c)| kifmm::geom::random_densities(c.len(), kernel.src_dim(), r as u64))
        .collect();
    let opts = FmmOptions { order: 4, max_pts_per_leaf: 30, ..Default::default() };
    let serial = serial_reference(kernel.clone(), &chunks, &dens, opts);
    let chunks2 = chunks.clone();
    let dens2 = dens.clone();
    let out = kifmm::mpi::run(ranks, move |comm| {
        let r = comm.rank();
        let pfmm = ParallelFmm::new(comm, kernel.clone(), &chunks2[r], opts);
        let report = pfmm.eval(comm, &dens2[r]);
        let (pot, stats) = (report.potentials, report.stats);
        (pot, stats, comm.stats().bytes_sent)
    });
    let mut bytes = Vec::new();
    for (r, (pot, stats, b)) in out.into_iter().enumerate() {
        let e = rel_l2_error(&pot, &serial[r]);
        assert!(e < 1e-9, "rank {r}/{ranks}: error {e}");
        if ranks > 1 {
            // Multi-rank runs must have communicated and accounted for it.
            let comm_time: f64 = stats.seconds[Phase::Comm as usize];
            assert!(comm_time >= 0.0);
        }
        bytes.push(b);
    }
    bytes
}

#[test]
fn laplace_sphere_grid_2_and_4_ranks() {
    let all = kifmm::geom::sphere_grid(3000, 8);
    run_case(Laplace, all.clone(), 2);
    run_case(Laplace, all, 4);
}

#[test]
fn laplace_corner_clusters_5_ranks() {
    run_case(Laplace, kifmm::geom::corner_clusters(2500, 17), 5);
}

#[test]
fn stokes_nonuniform_3_ranks() {
    run_case(Stokes::default(), kifmm::geom::corner_clusters(1500, 9), 3);
}

#[test]
fn communication_grows_with_ranks() {
    let all = kifmm::geom::sphere_grid(4000, 8);
    let b2: u64 = run_case(Laplace, all.clone(), 2).iter().sum();
    let b8: u64 = run_case(Laplace, all, 8).iter().sum();
    assert!(b8 > b2, "8 ranks must move more data than 2 ({b8} vs {b2})");
}

#[test]
fn patch_partitioned_input_matches_serial() {
    // The paper's partitioning granularity: whole surface patches (here
    // the 64 spheres), cut along the curve by their centroids, each
    // weighing its point count.
    let patches = kifmm::geom::sphere_grid_patches(3000, 4);
    let centroid = |p: &Vec<[f64; 3]>| {
        let sum = p.iter().fold([0.0; 3], |a, x| [a[0] + x[0], a[1] + x[1], a[2] + x[2]]);
        sum.map(|c| c / p.len() as f64)
    };
    let centroids: Vec<[f64; 3]> = patches.iter().map(centroid).collect();
    let weights: Vec<f64> = patches.iter().map(|p| p.len() as f64).collect();
    let chunks: Vec<Vec<[f64; 3]>> = partition_weighted_points(&centroids, &weights, 3)
        .gather(&patches)
        .into_iter()
        .map(|group| group.concat())
        .collect();
    let dens: Vec<Vec<f64>> = chunks
        .iter()
        .enumerate()
        .map(|(r, c)| kifmm::geom::random_densities(c.len(), 1, r as u64 + 40))
        .collect();
    let opts = FmmOptions { order: 4, max_pts_per_leaf: 25, ..Default::default() };
    let serial = serial_reference(Laplace, &chunks, &dens, opts);
    let chunks2 = chunks.clone();
    let dens2 = dens.clone();
    let out = kifmm::mpi::run(3, move |comm| {
        let r = comm.rank();
        let pfmm = ParallelFmm::new(comm, Laplace, &chunks2[r], opts);
        pfmm.eval(comm, &dens2[r]).potentials
    });
    for (r, pot) in out.into_iter().enumerate() {
        let e = rel_l2_error(&pot, &serial[r]);
        assert!(e < 1e-9, "rank {r}: error {e}");
    }
}

/// The original per-box blocking exchange — one gather message per
/// (contributed box, owner) and one scatter message per (owned box, user),
/// tagged per box — as an independent reference for the coalesced
/// [`ExchangeRoute`] path: it shares no wire codec and no combine code
/// with it, only `Comm::{send, recv}` and `Ownership`'s queries.
fn legacy_exchange(
    comm: &Comm,
    own: &Ownership,
    boxes: &[u32],
    salt: u64,
    combine: Combine,
    users: UserKind,
    mut payload: impl FnMut(u32) -> Vec<f64>,
) -> std::collections::HashMap<u32, Vec<f64>> {
    let encode = |v: &[f64]| -> Vec<u8> { v.iter().flat_map(|x| x.to_le_bytes()).collect() };
    let decode = |b: Vec<u8>| -> Vec<f64> {
        b.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect()
    };
    let fold = |acc: Option<Vec<f64>>, part: Vec<f64>| -> Vec<f64> {
        match (acc, combine) {
            (None, _) => part,
            (Some(mut a), Combine::ConcatRhs(1)) => {
                a.extend(part);
                a
            }
            (Some(a), Combine::Sum) => a.iter().zip(&part).map(|(x, p)| x + p).collect(),
            (Some(_), Combine::ConcatRhs(_)) => unimplemented!("reference covers one RHS and Sum"),
        }
    };
    let me = comm.rank();
    let is_user = |bi: usize, rank: usize| match users {
        UserKind::Source => own.is_src_user(bi, rank),
        UserKind::Equiv => own.is_equiv_user(bi, rank),
    };
    // Contributor sends (eager, so no deadlock against the owner loop).
    for &b in boxes {
        let bi = b as usize;
        if own.is_contributor(bi, me) && own.owner[bi] as usize != me {
            let tag = encode_tag(NS_GATHER, salt, b as u64);
            comm.send(own.owner[bi] as usize, tag, &encode(&payload(b)));
        }
    }
    let mut global = std::collections::HashMap::new();
    // Owner duties: gather + combine + scatter.
    for &b in boxes {
        let bi = b as usize;
        if own.owner[bi] as usize != me {
            continue;
        }
        let mut acc: Option<Vec<f64>> = None;
        for src in own.contributors(bi) {
            let part = if src == me {
                payload(b)
            } else {
                decode(comm.recv(src, encode_tag(NS_GATHER, salt, b as u64)))
            };
            acc = Some(fold(acc, part));
        }
        let combined = acc.expect("owner contributes, so at least one part");
        let wire = encode(&combined);
        let user_ranks = match users {
            UserKind::Source => own.src_users(bi),
            UserKind::Equiv => own.equiv_users(bi),
        };
        for dst in user_ranks {
            if dst != me {
                comm.send(dst, encode_tag(NS_SCATTER, salt, b as u64), &wire);
            }
        }
        if is_user(bi, me) {
            global.insert(b, combined);
        }
    }
    // User duties: receive from owners.
    for &b in boxes {
        let bi = b as usize;
        let owner = own.owner[bi] as usize;
        if owner != me && is_user(bi, me) {
            global.insert(b, decode(comm.recv(owner, encode_tag(NS_SCATTER, salt, b as u64))));
        }
    }
    global
}

/// Every entry the per-box path returns, checked against the packed path:
/// a non-home box's combined payload bit for bit; a home box (this rank
/// its only contributor), which the packed path does not install, against
/// the rank's own payload.
fn check_against_legacy(
    packed: &std::collections::HashMap<u32, Vec<f64>>,
    legacy: &std::collections::HashMap<u32, Vec<f64>>,
    home: impl Fn(u32) -> bool,
    own_payload: impl Fn(u32) -> Vec<f64>,
) {
    let mut installed = 0;
    for (&b, v) in legacy {
        if home(b) {
            assert!(!packed.contains_key(&b), "home box {b} was installed");
            assert_eq!(&own_payload(b), v, "home box {b}: legacy's value is the own payload");
        } else {
            assert_eq!(&packed[&b], v, "box {b}: payloads bitwise equal");
            installed += 1;
        }
    }
    assert_eq!(packed.len(), installed, "packed holds exactly the non-home used boxes");
}

/// Coalesced-vs-legacy exchange equivalence at P=4, both `Combine` modes:
/// the packed per-peer path must reproduce the per-box path's combined
/// payloads **bitwise** (same ascending-contributor fold) on every used box
/// that is not home, while sending exactly one gather message per owning
/// peer and one scatter message per using peer.
#[test]
fn coalesced_exchange_matches_legacy_bitwise() {
    let all = kifmm::geom::sphere_grid(2500, 8);
    let chunks = split(&all, 4);
    let opts = FmmOptions { order: 4, max_pts_per_leaf: 30, ..Default::default() };
    kifmm::mpi::run(4, move |comm| {
        let r = comm.rank();
        let pfmm = ParallelFmm::new(comm, Laplace, &chunks[r], opts);
        let (own, tree) = (&pfmm.own, &pfmm.dtree.tree);
        let home = |b: u32| own.contributors(b as usize) == [r];

        // Concat over the source leaves (the ghost-density payload shape).
        let dens_of = |b: u32| -> Vec<f64> {
            let nd = &tree.nodes[b as usize];
            (nd.pt_start..nd.pt_end).map(|i| (i as f64).sin() + r as f64).collect()
        };
        let route = ExchangeRoute::build(comm, own, &pfmm.src_leaves, UserKind::Source);
        let sent0 = comm.stats().messages_sent;
        let packed = route.begin(comm, 9, Combine::ConcatRhs(1), dens_of).complete(comm);
        let sent = (comm.stats().messages_sent - sent0) as usize;
        assert_eq!(
            sent,
            route.messages_out(),
            "exactly one gather message per contributing peer and one \
             scatter message per using peer"
        );
        let legacy =
            legacy_exchange(comm, own, &pfmm.src_leaves, 10, Combine::ConcatRhs(1), UserKind::Source, dens_of);
        check_against_legacy(&packed, &legacy, home, dens_of);

        // Sum over the equivalent boxes (the partial-equivalent shape) —
        // irrational per-rank parts so any reordering of the fold would
        // show up in the low bits.
        let part_of = |b: u32| -> Vec<f64> {
            vec![(b as f64 + 1.0).sqrt() * (r as f64 + 0.5); 4]
        };
        let route = ExchangeRoute::build(comm, own, &pfmm.equiv_boxes, UserKind::Equiv);
        let sent0 = comm.stats().messages_sent;
        let packed = route.begin(comm, 11, Combine::Sum, part_of).complete(comm);
        let sent = (comm.stats().messages_sent - sent0) as usize;
        assert_eq!(sent, route.messages_out(), "O(peers) messages for Sum too");
        let legacy =
            legacy_exchange(comm, own, &pfmm.equiv_boxes, 12, Combine::Sum, UserKind::Equiv, part_of);
        check_against_legacy(&packed, &legacy, home, part_of);
    });
}

/// Full-driver message accounting: one evaluation sends exactly one
/// gather + one scatter message per contributing/using peer per exchange
/// phase (densities + equivalents) — nothing per box.
#[test]
fn eval_sends_one_message_per_peer_per_phase() {
    let all = kifmm::geom::sphere_grid(3000, 8);
    let chunks = split(&all, 4);
    let opts = FmmOptions { order: 4, max_pts_per_leaf: 30, ..Default::default() };
    kifmm::mpi::run(4, move |comm| {
        let r = comm.rank();
        let pfmm = ParallelFmm::new(comm, Laplace, &chunks[r], opts);
        let dens = kifmm::geom::random_densities(chunks[r].len(), 1, r as u64);
        let before = comm.stats().messages_sent;
        let report = pfmm.eval(comm, &dens);
        let sent = comm.stats().messages_sent - before;
        let expected = (pfmm.src_route.messages_out() + pfmm.equiv_route.messages_out()) as u64;
        assert_eq!(
            sent, expected,
            "rank {r}: eval message count must be the per-peer route size"
        );
        // The report's traffic counter agrees with the raw stats.
        assert_eq!(report.stats.comm_messages, sent);
        // And the count is bounded by peers, not boxes: each of the two
        // exchanges sends at most one gather + one scatter per peer.
        let peers = (comm.size() - 1) as u64;
        assert!(sent <= 4 * peers, "rank {r}: {sent} messages for {peers} peers");
    });
}

#[test]
fn empty_rank_is_tolerated() {
    // One rank holds no points at all (extreme imbalance).
    let all = kifmm::geom::uniform_cube(1000, 31);
    let mut chunks = split(&all, 2);
    chunks.push(Vec::new());
    let dens: Vec<Vec<f64>> = chunks
        .iter()
        .map(|c| kifmm::geom::random_densities(c.len(), 1, 1))
        .collect();
    let opts = FmmOptions { order: 4, max_pts_per_leaf: 30, ..Default::default() };
    let serial = serial_reference(Laplace, &chunks, &dens, opts);
    let chunks2 = chunks.clone();
    let dens2 = dens.clone();
    let out = kifmm::mpi::run(3, move |comm| {
        let r = comm.rank();
        let pfmm = ParallelFmm::new(comm, Laplace, &chunks2[r], opts);
        pfmm.eval(comm, &dens2[r]).potentials
    });
    for (r, pot) in out.into_iter().enumerate() {
        let e = rel_l2_error(&pot, &serial[r]);
        assert!(e < 1e-9 || pot.is_empty(), "rank {r}: error {e}");
    }
}

/// Degenerate clouds through the distributed driver (ROADMAP item 9(c)):
/// fewer points than ranks, so one leaf has several contributors and U
/// reads it through the exchange, not as a home leaf, with empty ranks
/// beside them; and a collinear cloud.
#[test]
fn degenerate_clouds_match_serial() {
    let opts = FmmOptions { order: 4, max_pts_per_leaf: 20, ..Default::default() };
    let seven = kifmm::geom::uniform_cube(7, 5);
    for ranks in [4, 8] {
        check_matches_serial_opts(Laplace, seven.clone(), ranks, 1, 1e-9, opts);
        check_matches_serial_opts(Stokes::default(), seven.clone(), ranks, 3, 1e-9, opts);
    }
    // One point at P = 3 leaves two ranks empty.
    check_matches_serial_opts(Laplace, kifmm::geom::uniform_cube(1, 6), 3, 1, 1e-9, opts);
    let line: Vec<[f64; 3]> = (0..3000)
        .map(|i| {
            let t = 2.0 * i as f64 / 2999.0 - 1.0;
            [t, 0.5 * t, 0.25 * t]
        })
        .collect();
    check_matches_serial_opts(Laplace, line, 4, 1, 1e-9, opts);
}
