//! Ranks, mailboxes and point-to-point messaging.
//!
//! [`run`] spawns one OS thread per rank and hands each a [`Comm`]. Send
//! is eager-buffered (enqueue and return, like a buffered `MPI_Send`);
//! receive blocks until a message matching `(source, tag)` arrives. This
//! is exactly the messaging model the paper's Algorithm 1 needs, and the
//! buffered semantics are what allow its computation/communication
//! overlap: a rank can post all its gather sends and immediately proceed
//! with the upward pass.
//!
//! ## Panic containment
//!
//! A panicking virtual rank must not deadlock peers blocked in [`Comm::recv`]
//! waiting for a message that will now never arrive. Each rank body runs
//! under `catch_unwind`: the first panic is stashed, an abort flag is
//! raised, and every mailbox is signalled so blocked receivers wake and
//! abort with a recognizable panic ("a peer rank panicked"). [`run`] then
//! rethrows the *original* panic.
//!
//! A mailbox `Mutex` poisoned by a panic inside the lock is *recovered*,
//! not rethrown: every mailbox operation is a push/pop on an
//! otherwise-consistent `HashMap` of queues, so the inner state is valid
//! even when the poison flag is set. Recovering keeps in-flight payloads
//! deliverable — a surviving rank can still drain messages that were
//! eagerly buffered before a peer died, instead of losing them to a bare
//! `PoisonError` unwrap racing the exchange's sends. Receivers check their
//! queue *before* the abort flag for the same reason: queued data is
//! delivered first, and only a wait that would now never finish aborts.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Message envelope key: (source rank, tag).
type MatchKey = (usize, u64);

/// A mailbox's queues, one per envelope key.
type Queues = HashMap<MatchKey, VecDeque<Vec<u8>>>;

/// One rank's mailbox.
#[derive(Default)]
struct Mailbox {
    queues: Mutex<Queues>,
    signal: Condvar,
}

impl Mailbox {
    /// Lock the queues, recovering from a poisoned lock (a peer panicked
    /// while holding it). Every critical section here is a single queue
    /// push or pop that cannot leave the map half-updated, so the inner
    /// state is consistent and in-flight payloads stay deliverable.
    fn lock(&self) -> MutexGuard<'_, Queues> {
        self.queues.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Messages still queued (undelivered) in this mailbox.
    fn undelivered(&self) -> usize {
        self.lock().values().map(VecDeque::len).sum()
    }
}

/// State shared by all ranks of one run.
pub(crate) struct Shared {
    pub(crate) size: usize,
    mailboxes: Vec<Mailbox>,
    /// Raised when any rank panics, so peers blocked in `recv` abort
    /// instead of waiting forever.
    aborted: AtomicBool,
}

/// Per-rank traffic: the one ledger of what a rank sent and received.
/// Callers that want an interval's traffic diff two snapshots of
/// [`Comm::stats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CommStats {
    /// Bytes this rank sent.
    pub bytes_sent: u64,
    /// Messages this rank sent.
    pub messages_sent: u64,
    /// Bytes this rank received.
    pub bytes_received: u64,
    /// Messages this rank received.
    pub messages_received: u64,
}

/// A rank's handle to the communicator (one per thread; not shared).
pub struct Comm {
    rank: usize,
    shared: Arc<Shared>,
    /// Sequence numbers making collective tags unique per call site order.
    collective_seq: std::cell::Cell<u64>,
    stats: std::cell::Cell<CommStats>,
}

/// Tags at or above this value are reserved for collectives.
pub const RESERVED_TAG_BASE: u64 = 1 << 60;

impl Comm {
    /// This rank's id in `[0, size)`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.shared.size
    }

    /// Statistics accumulated so far by this rank.
    pub fn stats(&self) -> CommStats {
        self.stats.get()
    }

    /// Send `data` to `dest` with `tag` (eager-buffered: returns
    /// immediately).
    pub fn send(&self, dest: usize, tag: u64, data: &[u8]) {
        assert!(dest < self.size(), "destination rank out of range");
        assert!(tag < RESERVED_TAG_BASE, "user tags must stay below the reserved range");
        self.send_raw(dest, tag, data.to_vec());
    }

    pub(crate) fn send_raw(&self, dest: usize, tag: u64, data: Vec<u8>) {
        let len = data.len() as u64;
        let mut st = self.stats.get();
        st.bytes_sent += len;
        st.messages_sent += 1;
        self.stats.set(st);
        let mb = &self.shared.mailboxes[dest];
        let mut q = mb.lock();
        q.entry((self.rank, tag)).or_default().push_back(data);
        drop(q);
        mb.signal.notify_all();
    }

    /// Blocking receive of the next message from `source` with `tag`.
    pub fn recv(&self, source: usize, tag: u64) -> Vec<u8> {
        self.check_envelope(source, tag);
        self.recv_raw(source, tag)
    }

    /// Refuse a user receive that no send can ever match: a source outside
    /// the communicator (it would wait forever) or a reserved tag.
    fn check_envelope(&self, source: usize, tag: u64) {
        assert!(
            source < self.size(),
            "kifmm-mpi: rank {} cannot receive from rank {source}: the communicator has {} ranks",
            self.rank,
            self.size()
        );
        assert!(tag < RESERVED_TAG_BASE, "user tags must stay below the reserved range");
    }

    pub(crate) fn recv_raw(&self, source: usize, tag: u64) -> Vec<u8> {
        let msg = self.park(
            || format!("recv(source={source}, tag={tag})"),
            |q| q.get_mut(&(source, tag)).and_then(VecDeque::pop_front),
        );
        self.count_received(msg.len() as u64);
        msg
    }

    /// Block until at least one of `keys` (`(source, tag)` pairs) has a
    /// queued message, and return the index of the first ready key.
    ///
    /// The message is *not* consumed — follow up with [`Comm::try_recv`].
    /// This is the completion-polling primitive behind overlapped
    /// exchanges: a driver that has run out of compute parks here instead
    /// of spinning, and wakes on whichever peer's packet lands first. A
    /// peer panic aborts the wait exactly like [`Comm::recv`].
    pub fn wait_any(&self, keys: &[(usize, u64)]) -> usize {
        assert!(!keys.is_empty(), "wait_any needs at least one key");
        for &(source, tag) in keys {
            self.check_envelope(source, tag);
        }
        self.park(
            || format!("wait_any over {} keys", keys.len()),
            |q| keys.iter().position(|key| q.get(key).is_some_and(|queue| !queue.is_empty())),
        )
    }

    /// Sleep on this rank's mailbox until `ready` finds what the caller
    /// waits for. Queued data is checked first; only a wait that would now
    /// never finish — a peer panicked, so the message may never be sent —
    /// aborts, naming the wait `what()` describes.
    fn park<T>(
        &self,
        what: impl Fn() -> String,
        mut ready: impl FnMut(&mut Queues) -> Option<T>,
    ) -> T {
        let mb = &self.shared.mailboxes[self.rank];
        let mut q = mb.lock();
        loop {
            if let Some(found) = ready(&mut q) {
                return found;
            }
            if self.shared.aborted.load(Ordering::Acquire) {
                panic!("kifmm-mpi: rank {} aborting {} — a peer rank panicked", self.rank, what());
            }
            q = mb.signal.wait(q).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Non-blocking probe: take a waiting message from `(source, tag)` if
    /// one is queued.
    pub fn try_recv(&self, source: usize, tag: u64) -> Option<Vec<u8>> {
        self.check_envelope(source, tag);
        let mb = &self.shared.mailboxes[self.rank];
        let mut q = mb.lock();
        let msg = q.get_mut(&(source, tag)).and_then(|queue| queue.pop_front());
        drop(q);
        if let Some(m) = &msg {
            self.count_received(m.len() as u64);
        }
        msg
    }

    /// Charge one delivered message to the receive-side accounting.
    fn count_received(&self, len: u64) {
        let mut st = self.stats.get();
        st.bytes_received += len;
        st.messages_received += 1;
        self.stats.set(st);
    }

    pub(crate) fn next_collective_tag(&self) -> u64 {
        let seq = self.collective_seq.get();
        self.collective_seq.set(seq + 1);
        RESERVED_TAG_BASE + seq
    }

}

/// Run `f` on `size` ranks (one thread each) and collect each rank's
/// return value, ordered by rank.
///
/// If any rank panics, peers blocked in `recv` are woken and aborted (no
/// deadlock), and the *first* rank's original panic payload is rethrown
/// after all threads are joined.
pub fn run<R: Send>(size: usize, f: impl Fn(&Comm) -> R + Send + Sync) -> Vec<R> {
    assert!(size >= 1, "need at least one rank");
    let shared = Arc::new(Shared {
        size,
        mailboxes: (0..size).map(|_| Mailbox::default()).collect(),
        aborted: AtomicBool::new(false),
    });
    // First panic payload across ranks (secondary "peer panicked" aborts
    // are discarded in favor of the root cause).
    let first_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..size)
            .map(|rank| {
                let shared = shared.clone();
                let f = &f;
                let first_panic = &first_panic;
                scope.spawn(move || {
                    let comm = Comm {
                        rank,
                        shared: shared.clone(),
                        collective_seq: std::cell::Cell::new(0),
                        stats: std::cell::Cell::new(CommStats::default()),
                    };
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&comm))) {
                        Ok(v) => Some(v),
                        Err(payload) => {
                            let mut slot =
                                first_panic.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                            slot.get_or_insert(payload);
                            drop(slot);
                            // Wake every blocked receiver so it can abort.
                            shared.aborted.store(true, Ordering::Release);
                            for mb in &shared.mailboxes {
                                mb.signal.notify_all();
                            }
                            None
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread itself never panics"))
            .collect::<Vec<_>>()
    });
    if let Some(payload) =
        first_panic.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take()
    {
        // All ranks are joined: report what died in flight before
        // rethrowing, so a lost-payload bug is visible in the panic output
        // instead of silently discarded with the mailboxes.
        let stranded: usize = shared.mailboxes.iter().map(Mailbox::undelivered).sum();
        if stranded > 0 {
            eprintln!(
                "kifmm-mpi: aborting run with {stranded} undelivered message(s) \
                 still queued in mailboxes"
            );
        }
        std::panic::resume_unwind(payload);
    }
    results.into_iter().map(|r| r.expect("no panic recorded, all ranks returned")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_pong() {
        let out = run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, b"ping");
                comm.recv(1, 8)
            } else {
                let m = comm.recv(0, 7);
                assert_eq!(m, b"ping");
                comm.send(0, 8, b"pong");
                m
            }
        });
        assert_eq!(out[0], b"pong");
        assert_eq!(out[1], b"ping");
    }

    #[test]
    fn messages_ordered_per_key() {
        let out = run(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..10u8 {
                    comm.send(1, 1, &[i]);
                }
                vec![]
            } else {
                (0..10).map(|_| comm.recv(0, 1)[0]).collect::<Vec<u8>>()
            }
        });
        assert_eq!(out[1], (0..10).collect::<Vec<u8>>());
    }

    #[test]
    fn tags_demultiplex() {
        let out = run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 5, b"five");
                comm.send(1, 3, b"three");
                vec![]
            } else {
                // Receive in the opposite order of sending.
                let a = comm.recv(0, 3);
                let b = comm.recv(0, 5);
                vec![a, b]
            }
        });
        assert_eq!(out[1], vec![b"three".to_vec(), b"five".to_vec()]);
    }

    #[test]
    fn try_recv_nonblocking() {
        run(2, |comm| {
            if comm.rank() == 1 {
                // Wrong-source and wrong-tag probes never match.
                assert!(comm.try_recv(1, 9).is_none());
                assert!(comm.try_recv(0, 8).is_none());
                // Poll until the message lands, without blocking.
                let m = loop {
                    if let Some(m) = comm.try_recv(0, 9) {
                        break m;
                    }
                    std::thread::yield_now();
                };
                assert_eq!(m, b"x");
                // Consumed: no duplicate delivery.
                assert!(comm.try_recv(0, 9).is_none());
            } else {
                comm.send(1, 9, b"x");
            }
        });
    }

    #[test]
    fn stats_count_traffic() {
        let out = run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &[0u8; 100]);
                comm.send(1, 2, &[0u8; 50]);
            } else {
                comm.recv(0, 1);
                comm.recv(0, 2);
            }
            comm.stats()
        });
        assert_eq!(out[0].bytes_sent, 150);
        assert_eq!(out[0].messages_sent, 2);
        assert_eq!(out[1].bytes_sent, 0);
    }

    #[test]
    fn single_rank_runs() {
        let out = run(1, |comm| comm.rank() + comm.size());
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn many_to_one() {
        let out = run(8, |comm| {
            if comm.rank() == 0 {
                let mut total = 0u64;
                for src in 1..8 {
                    let m = comm.recv(src, 4);
                    total += m[0] as u64;
                }
                total
            } else {
                comm.send(0, 4, &[comm.rank() as u8]);
                0
            }
        });
        assert_eq!(out[0], (1..8).sum::<u64>());
    }

    /// Send- and receive-side traffic accounting: every delivered message
    /// is charged to the receiver's stats as it was to the sender's, and
    /// the totals balance.
    #[test]
    fn peer_traffic_and_recv_accounting() {
        let out = run(3, |comm| {
            match comm.rank() {
                0 => {
                    comm.send(1, 7, &[0u8; 10]);
                    comm.send(2, 7, &[0u8; 20]);
                    comm.send(2, 8, &[0u8; 5]);
                }
                1 => drop(comm.recv(0, 7)),
                _ => drop((comm.recv(0, 7), comm.recv(0, 8))),
            }
            comm.stats()
        });
        assert_eq!((out[0].bytes_sent, out[0].messages_sent, out[0].bytes_received), (35, 3, 0));
        assert_eq!((out[1].bytes_received, out[1].messages_received), (10, 1));
        assert_eq!((out[2].bytes_received, out[2].messages_received), (25, 2));
        let total = |f: fn(&CommStats) -> u64| out.iter().map(f).sum::<u64>();
        assert_eq!(total(|s| s.bytes_sent), total(|s| s.bytes_received));
        assert_eq!(total(|s| s.messages_sent), total(|s| s.messages_received));
    }

    /// Both blocking waits abort the same way once a peer has panicked, and
    /// the message reads as one sentence.
    #[test]
    fn both_waits_abort_with_one_clean_message() {
        run(1, |comm| {
            comm.shared.aborted.store(true, Ordering::Release);
            let recv = || {
                comm.recv(0, 3);
            };
            let wait_any = || {
                comm.wait_any(&[(0, 3)]);
            };
            for wait in [&recv as &dyn Fn(), &wait_any] {
                let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(wait))
                    .expect_err("an aborted run cannot wait");
                let msg = payload.downcast_ref::<String>().expect("a formatted message");
                assert!(msg.ends_with(" — a peer rank panicked"), "{msg}");
                assert!(!msg.contains("  "), "runs of spaces in: {msg}");
            }
        });
    }

    /// A receive from a rank outside the communicator panics, naming the
    /// rank and the size, instead of parking (or probing) forever. The
    /// non-blocking probe goes first, so a missing check fails the test
    /// rather than hanging it; `try_recv` also refuses a reserved tag.
    #[test]
    fn receive_from_a_rank_outside_the_communicator_panics() {
        run(2, |comm| {
            let size = comm.size();
            let try_recv = || {
                comm.try_recv(size, 3);
            };
            let recv = || {
                comm.recv(size, 3);
            };
            let wait_any = || {
                comm.wait_any(&[(0, 3), (size, 3)]);
            };
            for receive in [&try_recv as &dyn Fn(), &recv, &wait_any] {
                let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(receive))
                    .expect_err("there is no rank to receive from");
                let msg = payload.downcast_ref::<String>().expect("a formatted message");
                let names = format!("from rank {size}: the communicator has 2 ranks");
                assert!(msg.contains(&names), "{msg}");
            }
            let reserved = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                comm.try_recv(0, RESERVED_TAG_BASE)
            }));
            assert!(reserved.is_err(), "try_recv refuses a reserved tag");
        });
    }

    /// Satellite regression: a panicking rank must not deadlock peers
    /// blocked in `recv`, and `run` must rethrow the *original* panic
    /// payload, not a secondary "peer panicked" abort.
    #[test]
    fn rank_panic_does_not_deadlock_blocked_receivers() {
        let res = std::panic::catch_unwind(|| {
            run(4, |comm| {
                if comm.rank() == 2 {
                    panic!("rank 2 exploded");
                }
                // Every other rank blocks on a message rank 2 will never
                // send; without abort signalling this waits forever.
                comm.recv(2, 9);
            });
        });
        let payload = res.expect_err("run must propagate the panic");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "rank 2 exploded");
    }

    /// `wait_any` parks until one of several keys is ready, reports which,
    /// and leaves the message queued for a subsequent `try_recv`.
    #[test]
    fn wait_any_reports_ready_key_without_consuming() {
        let out = run(3, |comm| {
            match comm.rank() {
                0 => {
                    let keys = [(1usize, 21u64), (2usize, 22u64)];
                    let first = comm.wait_any(&keys);
                    let (src, tag) = keys[first];
                    let m = comm.try_recv(src, tag).expect("wait_any saw a queued message");
                    // Unblock the slower sender's handshake, then drain it.
                    let second = comm.wait_any(&keys);
                    assert_ne!(second, first, "second wake is the other peer");
                    let (src2, tag2) = keys[second];
                    let m2 = comm.try_recv(src2, tag2).expect("second message queued");
                    let mut both = vec![m[0], m2[0]];
                    both.sort_unstable();
                    both
                }
                1 => {
                    comm.send(0, 21, &[1]);
                    vec![]
                }
                _ => {
                    comm.send(0, 22, &[2]);
                    vec![]
                }
            }
        });
        assert_eq!(out[0], vec![1, 2]);
    }

    /// Satellite regression: a mailbox poisoned by a panic inside the lock
    /// must not strand in-flight payloads. Rank 2 poisons rank 1's mailbox
    /// mutex and later panics; rank 0's eager send into the poisoned
    /// mailbox still succeeds, and rank 1's receive recovers the lock and
    /// delivers the payload. `run` still rethrows rank 2's original panic.
    #[test]
    fn poisoned_mailbox_still_delivers_inflight_payloads() {
        let delivered: Arc<Mutex<Option<Vec<u8>>>> = Arc::new(Mutex::new(None));
        let delivered2 = delivered.clone();
        let res = std::panic::catch_unwind(move || {
            run(3, move |comm| match comm.rank() {
                0 => {
                    // Wait until rank 2 has poisoned rank 1's mailbox...
                    comm.recv(2, 6);
                    // ...then race an eager send into the poisoned mailbox
                    // (this is the payload that used to be lost)...
                    comm.send(1, 5, b"survives poison");
                    // ...and only now let rank 2 go panic. The payload is
                    // queued before the abort flag can possibly rise, so
                    // delivery is deterministic.
                    comm.send(2, 7, &[]);
                }
                1 => {
                    let payload = comm.recv(0, 5);
                    *delivered2.lock().unwrap() = Some(payload);
                }
                _ => {
                    // Poison rank 1's mailbox: panic while holding its lock.
                    let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let _guard = comm.shared.mailboxes[1].queues.lock().unwrap();
                        panic!("poison injection");
                    }));
                    assert!(poison.is_err());
                    assert!(comm.shared.mailboxes[1].queues.is_poisoned());
                    comm.send(0, 6, &[]);
                    comm.recv(0, 7);
                    panic!("rank 2 exploded");
                }
            });
        });
        let payload = res.expect_err("run must propagate rank 2's panic");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "rank 2 exploded");
        assert_eq!(
            delivered.lock().unwrap().as_deref(),
            Some(b"survives poison".as_slice()),
            "in-flight payload crossed the poisoned mailbox"
        );
    }

    /// The abort flag must also wake a receiver that was already asleep in
    /// the condvar before the panic happened (rendezvous, then panic).
    #[test]
    fn late_panic_wakes_sleeping_receiver() {
        let res = std::panic::catch_unwind(|| {
            run(2, |comm| {
                if comm.rank() == 1 {
                    // Let rank 0 reach its recv first.
                    comm.recv(0, 1);
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    panic!("late failure");
                }
                comm.send(1, 1, &[1]);
                comm.recv(1, 2);
            });
        });
        let payload = res.expect_err("run must propagate the panic");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "late failure");
    }
}
