//! Algorithm 1: owner-coordinated gather/scatter of per-box payloads,
//! coalesced into one packed message per `(phase, peer)` pair.
//!
//! Two payload kinds flow through the same two-step pattern:
//!
//! * **leaf source geometry/densities** (ghost information): contributors
//!   send their local slice to the owner, the owner *concatenates* (in
//!   ascending rank order, so every rank assembles the identical global
//!   list) and scatters to the source users;
//! * **upward equivalent densities**: contributors send their partial
//!   densities, the owner *sums* (the translations are linear in the
//!   sources, so partial equivalents add) and scatters to the equivalent
//!   users.
//!
//! ## Per-peer coalescing
//!
//! The first implementation posted one message *per box* — the
//! many-small-messages anti-pattern: at P8 the comm phase was dominated by
//! per-message overhead, O(boxes) messages when the information content is
//! O(peers). An [`ExchangeRoute`], precomputed once per `(box set, user
//! relation)`, groups boxes by peer; every contributor→owner gather and
//! every owner→user scatter is then exactly **one**
//! [`kifmm_mpi::packet`]-encoded message. Message tags carry
//! `(namespace, salt, 0)` via the checked [`kifmm_mpi::encode_tag`]
//! bitfields — the per-box sub-id is gone from the tag entirely (the box
//! ids travel inside the packet header), which also retires the additive
//! tag arithmetic that could collide across salt namespaces.
//!
//! ## Overlap surface
//!
//! [`ExchangeRoute::begin`] is the only call that reads payloads: it asks
//! the payload closure exactly once per box this rank contributes to,
//! posts all outgoing gather packets (eager, returns immediately) and
//! moves this rank's parts of the boxes it owns *into* the
//! [`ExchangePlan`] it yields — a poll-driven state machine that owns
//! everything it will fold, so the buffers the payloads were read from
//! are free to change while it is in flight. [`ExchangePlan::poll`] makes
//! progress without blocking (drain gather packets → combine + scatter
//! once all parts are in → drain scatter packets), so the driver can
//! interleave it between compute stages; `drive` runs the remainder of
//! one plan while others drain alongside, parking in [`Comm::wait_any`]
//! instead of spinning, and [`ExchangePlan::complete`] is that loop for a
//! single plan. The combine folds contributor parts in ascending rank
//! order with this rank's part at its own position, so results are
//! bitwise identical to the per-box path.

use crate::ownership::Ownership;
use kifmm_mpi::{decode_packet, encode_packet, encode_tag, Comm};
use std::collections::HashMap;

/// Tag namespace of gather (contributor → owner) packets.
pub const NS_GATHER: u64 = 1;
/// Tag namespace of scatter (owner → user) packets.
pub const NS_SCATTER: u64 = 2;

/// How the owner combines contributor payloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Combine {
    /// Elementwise sum (partial equivalent densities).
    Sum,
    /// Per-RHS concatenation in ascending contributor-rank order: every
    /// part carries `k` equal-length RHS-major segments, and the combined
    /// payload is, for each RHS `q`, the concatenation of the
    /// contributors' segment `q` — so the result is again RHS-major.
    /// `ConcatRhs(1)` is plain concatenation (point lists).
    ConcatRhs(usize),
}

/// Fold one contributor part into the accumulator (ascending-rank order is
/// the caller's responsibility).
fn combine_fold(acc: Option<Vec<f64>>, part: Vec<f64>, combine: Combine) -> Vec<f64> {
    match (acc, combine) {
        (None, _) => part,
        (Some(mut a), Combine::Sum) => {
            assert_eq!(a.len(), part.len(), "partial payload length mismatch");
            for (x, p) in a.iter_mut().zip(part) {
                *x += p;
            }
            a
        }
        (Some(a), Combine::ConcatRhs(k)) => {
            assert!(k >= 1 && a.len() % k == 0 && part.len() % k == 0, "RHS-major payload");
            let (al, pl) = (a.len() / k, part.len() / k);
            let mut out = Vec::with_capacity(a.len() + part.len());
            for q in 0..k {
                out.extend_from_slice(&a[q * al..(q + 1) * al]);
                out.extend_from_slice(&part[q * pl..(q + 1) * pl]);
            }
            out
        }
    }
}

/// Which user relation receives the combined payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UserKind {
    /// U/X-list consumers of global sources.
    Source,
    /// V/W-list consumers of global equivalent densities.
    Equiv,
}

/// Per-peer box lists for one exchange, precomputed at plan time.
///
/// Derived from the (globally identical) ownership masks in the caller's
/// `boxes` order, so the sender's packet entries and the receiver's
/// expectations agree by construction. Box sets and roles are fixed for
/// the lifetime of a [`ParallelFmm`](crate::ParallelFmm); only payloads
/// change between evaluations, so the route is built once and reused.
pub struct ExchangeRoute {
    /// Boxes this rank contributes to, grouped by owning peer (ascending).
    gather_sends: Vec<(usize, Vec<u32>)>,
    /// Boxes this rank owns, grouped by contributing peer (ascending).
    gather_recvs: Vec<(usize, Vec<u32>)>,
    /// Boxes this rank owns, grouped by using peer (ascending).
    scatter_sends: Vec<(usize, Vec<u32>)>,
    /// Boxes this rank uses, grouped by owning peer (ascending).
    scatter_recvs: Vec<(usize, Vec<u32>)>,
    /// Boxes this rank owns, each with its ascending contributor ranks.
    owned: Vec<(u32, Vec<usize>)>,
    /// The subset of owned boxes this rank also uses itself.
    owned_used: Vec<u32>,
}

impl ExchangeRoute {
    /// Group `boxes` by peer for every role this rank plays.
    pub fn build(comm: &Comm, own: &Ownership, boxes: &[u32], users: UserKind) -> ExchangeRoute {
        let me = comm.rank();
        let size = comm.size();
        let mut gs: Vec<Vec<u32>> = vec![Vec::new(); size];
        let mut gr: Vec<Vec<u32>> = vec![Vec::new(); size];
        let mut ss: Vec<Vec<u32>> = vec![Vec::new(); size];
        let mut sr: Vec<Vec<u32>> = vec![Vec::new(); size];
        let mut owned = Vec::new();
        let mut owned_used = Vec::new();
        for &b in boxes {
            let bi = b as usize;
            let owner = own.owner[bi] as usize;
            let me_uses = match users {
                UserKind::Source => own.is_src_user(bi, me),
                UserKind::Equiv => own.is_equiv_user(bi, me),
            };
            if owner == me {
                let contributors = own.contributors(bi);
                for &src in &contributors {
                    if src != me {
                        gr[src].push(b);
                    }
                }
                let user_ranks = match users {
                    UserKind::Source => own.src_users(bi),
                    UserKind::Equiv => own.equiv_users(bi),
                };
                for dst in user_ranks {
                    if dst != me {
                        ss[dst].push(b);
                    }
                }
                if me_uses {
                    owned_used.push(b);
                }
                owned.push((b, contributors));
            } else {
                if own.is_contributor(bi, me) {
                    gs[owner].push(b);
                }
                if me_uses {
                    sr[owner].push(b);
                }
            }
        }
        let compress = |v: Vec<Vec<u32>>| -> Vec<(usize, Vec<u32>)> {
            v.into_iter().enumerate().filter(|(_, l)| !l.is_empty()).collect()
        };
        ExchangeRoute {
            gather_sends: compress(gs),
            gather_recvs: compress(gr),
            scatter_sends: compress(ss),
            scatter_recvs: compress(sr),
            owned,
            owned_used,
        }
    }

    /// Total messages this rank sends per exchange: exactly one per
    /// gather peer plus one per scatter peer — O(peers), never O(boxes).
    pub fn messages_out(&self) -> usize {
        self.gather_sends.len() + self.scatter_sends.len()
    }

    /// Boxes whose combined global payload this rank receives from the
    /// exchange (owned-and-used boxes plus every scatter-received box) —
    /// exactly the keys the finished plan's map will hold. Everything the
    /// rank reads *outside* this set is final the moment its local
    /// contribution exists, which is what lets the driver start compute
    /// stages that avoid these boxes before the exchange completes.
    pub fn installed_boxes(&self) -> impl Iterator<Item = u32> + '_ {
        self.owned_used
            .iter()
            .chain(self.scatter_recvs.iter().flat_map(|(_, boxes)| boxes))
            .copied()
    }

    /// Read this rank's payloads, post its gather packets (eager — one
    /// packed send per owning peer) and return the pending plan.
    ///
    /// `payload` is called exactly once per box this rank contributes to:
    /// the boxes it ships to other owners, then the boxes it owns, whose
    /// local parts move into the plan for the combine fold. Nothing is
    /// read after `begin` returns. `salt` keeps concurrent exchanges
    /// (points vs densities vs equivalents) in disjoint tag spaces.
    pub fn begin<'r>(
        &'r self,
        comm: &Comm,
        salt: u64,
        combine: Combine,
        mut payload: impl FnMut(u32) -> Vec<f64>,
    ) -> ExchangePlan<'r> {
        let gtag = encode_tag(NS_GATHER, salt, 0);
        for (peer, boxes) in &self.gather_sends {
            let payloads: Vec<Vec<f64>> = boxes.iter().map(|&b| payload(b)).collect();
            let entries: Vec<(u32, &[f64])> =
                boxes.iter().zip(&payloads).map(|(&b, p)| (b, p.as_slice())).collect();
            comm.send(*peer, gtag, &encode_packet(&entries));
        }
        // An owner always contributes (ownership picks among contributors),
        // so its own part is keyed like a received one.
        let me = comm.rank();
        let parts = self.owned.iter().map(|(b, _)| ((me, *b), payload(*b))).collect();
        ExchangePlan {
            route: self,
            salt,
            combine,
            pending_gather: (0..self.gather_recvs.len()).collect(),
            parts,
            scattered: false,
            pending_scatter: (0..self.scatter_recvs.len()).collect(),
            global: HashMap::new(),
        }
    }
}

/// A coalesced gather/scatter in flight: gather packets posted, this
/// rank's own parts held, owner combine/scatter and user receives
/// outstanding. Drive with [`ExchangePlan::poll`] between compute stages,
/// and with `drive` or [`ExchangePlan::complete`] once there is no
/// compute left to overlap.
pub struct ExchangePlan<'r> {
    route: &'r ExchangeRoute,
    salt: u64,
    combine: Combine,
    /// Indices into `route.gather_recvs` not yet received.
    pending_gather: Vec<usize>,
    /// Contributor parts of owned boxes, keyed by `(contributor, box)`:
    /// this rank's own from `begin`, the peers' as their packets arrive.
    parts: HashMap<(usize, u32), Vec<f64>>,
    /// Owner duties done: parts combined, scatter packets posted.
    scattered: bool,
    /// Indices into `route.scatter_recvs` not yet received.
    pending_scatter: Vec<usize>,
    /// Combined global payload per box this rank uses.
    global: HashMap<u32, Vec<f64>>,
}

impl ExchangePlan<'_> {
    /// Make all progress possible without blocking; returns true once the
    /// exchange is finished (every used box's global payload assembled).
    /// Polling a finished plan does nothing and returns true again.
    pub fn poll(&mut self, comm: &Comm) -> bool {
        // 1. Drain arrived gather packets.
        let gtag = encode_tag(NS_GATHER, self.salt, 0);
        let mut still = Vec::with_capacity(self.pending_gather.len());
        for &i in &self.pending_gather {
            let peer = self.route.gather_recvs[i].0;
            if let Some(bytes) = comm.try_recv(peer, gtag) {
                for (b, v) in decode_packet(&bytes) {
                    self.parts.insert((peer, b), v);
                }
            } else {
                still.push(i);
            }
        }
        self.pending_gather = still;

        // 2. All parts in: combine (ascending contributor order, the fold
        //    `tests/parallel_consistency.rs` holds bitwise against a
        //    per-box reference) and post scatter packets.
        if !self.scattered && self.pending_gather.is_empty() {
            let mut combined: HashMap<u32, Vec<f64>> =
                HashMap::with_capacity(self.route.owned.len());
            for (b, contributors) in &self.route.owned {
                let mut acc: Option<Vec<f64>> = None;
                for &src in contributors {
                    let part = self
                        .parts
                        .remove(&(src, *b))
                        .expect("begin or the contributor's gather packet supplied this box");
                    acc = Some(combine_fold(acc, part, self.combine));
                }
                combined.insert(*b, acc.expect("owner contributes, so at least one part"));
            }
            let stag = encode_tag(NS_SCATTER, self.salt, 0);
            for (peer, boxes) in &self.route.scatter_sends {
                let entries: Vec<(u32, &[f64])> =
                    boxes.iter().map(|b| (*b, combined[b].as_slice())).collect();
                comm.send(*peer, stag, &encode_packet(&entries));
            }
            for &b in &self.route.owned_used {
                let v = combined.remove(&b).expect("owned_used is a subset of owned");
                self.global.insert(b, v);
            }
            self.scattered = true;
        }

        // 3. Drain arrived scatter packets.
        let stag = encode_tag(NS_SCATTER, self.salt, 0);
        let mut still = Vec::with_capacity(self.pending_scatter.len());
        for &i in &self.pending_scatter {
            let peer = self.route.scatter_recvs[i].0;
            if let Some(bytes) = comm.try_recv(peer, stag) {
                for (b, v) in decode_packet(&bytes) {
                    self.global.insert(b, v);
                }
            } else {
                still.push(i);
            }
        }
        self.pending_scatter = still;

        self.scattered && self.pending_scatter.is_empty()
    }

    /// Append the `(source, tag)` keys of every outstanding receive — none
    /// once the plan is finished.
    fn pending_keys(&self, out: &mut Vec<(usize, u64)>) {
        let gtag = encode_tag(NS_GATHER, self.salt, 0);
        for &i in &self.pending_gather {
            out.push((self.route.gather_recvs[i].0, gtag));
        }
        let stag = encode_tag(NS_SCATTER, self.salt, 0);
        for &i in &self.pending_scatter {
            out.push((self.route.scatter_recvs[i].0, stag));
        }
    }

    /// Drive the exchange to completion and return the global payload of
    /// every used box (at once, if the plan is already finished).
    pub fn complete(mut self, comm: &Comm) -> HashMap<u32, Vec<f64>> {
        drive(comm, &mut [&mut self]);
        self.global
    }
}

/// The one park-and-poll loop: poll every plan until the first one is
/// finished, parking in [`Comm::wait_any`] on the keys of every unfinished
/// plan in between — so the others keep draining while the caller waits
/// on the first.
pub(crate) fn drive(comm: &Comm, plans: &mut [&mut ExchangePlan<'_>]) {
    let mut keys = Vec::new();
    loop {
        let first_done = plans[0].poll(comm);
        for plan in &mut plans[1..] {
            plan.poll(comm);
        }
        if first_done {
            return;
        }
        keys.clear();
        plans.iter().for_each(|plan| plan.pending_keys(&mut keys));
        comm.wait_any(&keys);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global_tree::build_distributed_tree_with;
    use kifmm_geom::uniform_cube;
    use kifmm_mpi::run;
    use kifmm_tree::{build_lists, partition_points, TreeBuild, MAX_LEVEL};

    fn setup(
        comm: &Comm,
        chunks: &[Vec<[f64; 3]>],
        leaf: usize,
    ) -> (crate::global_tree::DistributedTree, Ownership) {
        let dt = build_distributed_tree_with(
            comm,
            &chunks[comm.rank()],
            leaf,
            MAX_LEVEL,
            TreeBuild::default(),
        );
        let lists = build_lists(&dt.tree);
        let nn = dt.tree.num_nodes();
        let own = Ownership::build(
            comm,
            |b| dt.tree.nodes[b].num_points(),
            &dt.global_counts,
            &lists,
            nn,
        );
        (dt, own)
    }

    fn chunked(all: &[[f64; 3]], ranks: usize) -> Vec<Vec<[f64; 3]>> {
        partition_points(all, ranks).gather(all)
    }

    /// Ghost-point exchange: every rank ends up with the full global point
    /// list of every leaf it uses, while sending exactly one message per
    /// gather/scatter peer.
    #[test]
    fn ghost_points_reconstruct_global_leaves() {
        let all = uniform_cube(1500, 21);
        let chunks = chunked(&all, 3);
        run(3, |comm| {
            let (dt, own) = setup(comm, &chunks, 40);
            let leaves: Vec<u32> = dt
                .tree
                .leaves()
                .filter(|&b| own.has_src_users(b as usize))
                .collect();
            let payload = |b: u32| -> Vec<f64> {
                let nd = &dt.tree.nodes[b as usize];
                dt.sorted_points[nd.pt_start as usize..nd.pt_end as usize]
                    .iter()
                    .flat_map(|p| p.iter().copied())
                    .collect()
            };
            let route = ExchangeRoute::build(comm, &own, &leaves, UserKind::Source);
            let sent_before = comm.stats().messages_sent;
            let global = route.begin(comm, 0, Combine::ConcatRhs(1), payload).complete(comm);
            let sent = comm.stats().messages_sent - sent_before;
            assert_eq!(
                sent as usize,
                route.messages_out(),
                "one packed message per peer, O(peers) not O(boxes)"
            );
            // Every used leaf's global list has exactly the global count.
            for &b in &leaves {
                if own.is_src_user(b as usize, comm.rank()) {
                    let pts = &global[&b];
                    assert_eq!(
                        pts.len() as u64,
                        3 * dt.global_counts[b as usize],
                        "global leaf payload size"
                    );
                }
            }
        });
    }

    /// Sum combine: partial equivalents add to the global value.
    #[test]
    fn sum_combine_adds_partials() {
        let all = uniform_cube(900, 8);
        let chunks = chunked(&all, 3);
        run(3, |comm| {
            let (dt, own) = setup(comm, &chunks, 30);
            let nn = dt.tree.num_nodes();
            let boxes: Vec<u32> =
                (0..nn as u32).filter(|&b| own.has_equiv_users(b as usize)).collect();
            // Fake partial payload: [local_count] so the global sum must be
            // the global count.
            let payload =
                |b: u32| -> Vec<f64> { vec![dt.tree.nodes[b as usize].num_points() as f64] };
            let route = ExchangeRoute::build(comm, &own, &boxes, UserKind::Equiv);
            let global = route.begin(comm, 7, Combine::Sum, payload).complete(comm);
            for &b in &boxes {
                if own.is_equiv_user(b as usize, comm.rank()) {
                    assert_eq!(global[&b][0], dt.global_counts[b as usize] as f64);
                }
            }
        });
    }

    /// ConcatRhs keeps RHS-major segment ordering: combining `k` RHS-major
    /// parts yields, per RHS, the ascending-rank concatenation.
    #[test]
    fn concat_rhs_combine_is_rhs_major() {
        let all = uniform_cube(1100, 17);
        let chunks = chunked(&all, 3);
        run(3, |comm| {
            let (dt, own) = setup(comm, &chunks, 40);
            let leaves: Vec<u32> = dt
                .tree
                .leaves()
                .filter(|&b| own.has_src_users(b as usize))
                .collect();
            const K: usize = 3;
            // Per box: K RHS-major segments of one value each, tagged so
            // the RHS a value belongs to is recoverable.
            let payload = |b: u32| -> Vec<f64> {
                let n = dt.tree.nodes[b as usize].num_points() as f64;
                (0..K).map(|q| q as f64 * 1000.0 + n).collect()
            };
            let route = ExchangeRoute::build(comm, &own, &leaves, UserKind::Source);
            let global = route.begin(comm, 3, Combine::ConcatRhs(K), payload).complete(comm);
            for &b in &leaves {
                if own.is_src_user(b as usize, comm.rank()) {
                    let nc = own.contributors(b as usize).len();
                    let v = &global[&b];
                    assert_eq!(v.len(), K * nc, "K equal segments");
                    for q in 0..K {
                        let seg = &v[q * nc..(q + 1) * nc];
                        let sum: f64 = seg.iter().map(|x| x - q as f64 * 1000.0).sum();
                        assert_eq!(
                            sum, dt.global_counts[b as usize] as f64,
                            "segment q holds every contributor's RHS-q value"
                        );
                    }
                }
            }
        });
    }

    /// Two exchanges in flight at once (distinct salts), driven by
    /// interleaved polls — the overlap pattern the driver uses — with the
    /// buffer the payloads are read from overwritten right after `begin`:
    /// a plan owns what it folds, and `begin` asks for each box once.
    #[test]
    fn interleaved_polling_of_two_exchanges() {
        let all = uniform_cube(1200, 33);
        let chunks = chunked(&all, 4);
        run(4, |comm| {
            let (dt, own) = setup(comm, &chunks, 35);
            let nn = dt.tree.num_nodes();
            let leaves: Vec<u32> = dt
                .tree
                .leaves()
                .filter(|&b| own.has_src_users(b as usize))
                .collect();
            let boxes: Vec<u32> =
                (0..nn as u32).filter(|&b| own.has_equiv_users(b as usize)).collect();
            let mut buffer: Vec<f64> =
                dt.tree.nodes.iter().map(|nd| nd.num_points() as f64).collect();
            let mut calls = vec![0u32; nn];
            let r1 = ExchangeRoute::build(comm, &own, &leaves, UserKind::Source);
            let r2 = ExchangeRoute::build(comm, &own, &boxes, UserKind::Equiv);
            let mut p1 = r1.begin(comm, 1, Combine::ConcatRhs(1), |b| vec![buffer[b as usize]; 2]);
            let mut p2 = r2.begin(comm, 2, Combine::Sum, |b| {
                calls[b as usize] += 1;
                vec![buffer[b as usize]]
            });
            buffer.fill(f64::NAN);
            for &b in &boxes {
                let contributes = own.is_contributor(b as usize, comm.rank());
                assert_eq!(calls[b as usize], contributes as u32, "payload calls for box {b}");
            }
            drive(comm, &mut [&mut p2, &mut p1]);
            let g2 = p2.complete(comm);
            for &b in &boxes {
                if own.is_equiv_user(b as usize, comm.rank()) {
                    assert_eq!(g2[&b][0], dt.global_counts[b as usize] as f64);
                }
            }
            let g1 = p1.complete(comm);
            for &b in &leaves {
                if own.is_src_user(b as usize, comm.rank()) {
                    // Concat: two floats per contributor, ascending order,
                    // holding the counts read before the overwrite.
                    assert_eq!(g1[&b].len(), 2 * own.contributors(b as usize).len());
                    let sum: f64 = g1[&b].iter().sum();
                    assert_eq!(sum, 2.0 * dt.global_counts[b as usize] as f64);
                }
            }
        });
    }
}
