//! Deterministic sharded execution with conservative lookahead.
//!
//! A *shard* is an independent simulation world (in the cluster layer:
//! one host).  Shards only interact through messages carried by a
//! modelled network, and the minimum modelled network latency gives a
//! conservative lookahead window: any message sent during epoch `e`
//! cannot affect another shard before epoch `e + 1`.  The executor
//! therefore advances all shards one *epoch* at a time; within an epoch
//! every shard steps independently (and so may step on any worker
//! thread), and at the epoch barrier the messages produced are merged
//! in `(src, seq)` order — a total order that does not depend on which
//! worker ran which shard or in what interleaving.  Running with one
//! worker or sixteen changes wall clock, never bytes.
//!
//! The pieces:
//!
//! * [`Outbox`] — per-shard message staging; assigns the per-source
//!   `seq` numbers that make the merge order total.
//! * [`run_epoch`] — steps every live shard once, in parallel across
//!   `jobs` workers, and returns the epoch's messages in `(src, seq)`
//!   order.
//! * [`route`] — splits an epoch's messages into next-epoch inboxes
//!   (plus the controller's share), preserving that order.
//! * [`WorkerSpan`] — wall-clock occupancy per worker, for honest
//!   1-core reporting in the bench runner's task trace.
//!
//! Wall-clock instants recorded in [`WorkerSpan`] are trace-only; no
//! simulated quantity ever depends on them.

use std::time::{Duration, Instant};

/// Destination id addressing the (sequential) controller rather than a
/// shard.
pub const CONTROLLER: u32 = u32::MAX;

/// A message in flight: sent by shard `src` as its `seq`-th message of
/// the current epoch, addressed to `dst` (a shard index or
/// [`CONTROLLER`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope<M> {
    pub src: u32,
    pub seq: u32,
    pub dst: u32,
    pub msg: M,
}

/// Per-shard staging area for one epoch's outgoing messages.  `seq` is
/// assigned in send order, so concatenating per-shard outboxes in shard
/// order yields the canonical `(src, seq)` total order.
pub struct Outbox<M> {
    src: u32,
    msgs: Vec<Envelope<M>>,
}

impl<M> Outbox<M> {
    fn new(src: u32) -> Self {
        Outbox { src, msgs: Vec::new() }
    }

    /// Stages a message for delivery at the next epoch barrier.
    pub fn send(&mut self, dst: u32, msg: M) {
        let seq = self.msgs.len() as u32;
        self.msgs.push(Envelope { src: self.src, seq, dst, msg });
    }

    /// Number of messages staged so far this epoch.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// True when nothing has been staged.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }
}

/// Wall-clock occupancy of one worker across the epochs it has run.
/// Purely observational: feeds the per-shard rows of the runner's task
/// trace, never the simulation.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerSpan {
    /// Time spent actually stepping shards.
    pub busy: Duration,
    /// First instant this worker started stepping (across all epochs).
    pub first: Option<Instant>,
    /// Last instant this worker finished stepping.
    pub last: Option<Instant>,
    /// Shard-steps executed.
    pub shards: u64,
    /// Messages produced by shards this worker stepped.
    pub messages: u64,
}

impl WorkerSpan {
    fn note(&mut self, t0: Instant) {
        let now = Instant::now();
        self.busy += now.duration_since(t0);
        if self.first.is_none() {
            self.first = Some(t0);
        }
        self.last = Some(now);
    }
}

/// Steps every live shard once and returns the epoch's messages in
/// `(src, seq)` order.
///
/// * `shards[i] == None` marks a failed/absent shard: it is skipped and
///   its inbound messages are dropped (the modelled network loses
///   traffic addressed to a dead host).
/// * `inboxes` is consumed; missing tail entries are treated as empty.
/// * `jobs` bounds worker threads; shards are split into contiguous
///   chunks so the merge order is independent of scheduling.
/// * `spans[w]` accumulates worker `w`'s occupancy (needs `len >= jobs`
///   after clamping; one worker per chunk).
///
/// The step function receives `(shard_index, shard, inbox, outbox)`.
/// It must derive everything it does from those four values — that is
/// what makes chunking invisible.
pub fn run_epoch<S, M, F>(
    shards: &mut [Option<S>],
    inboxes: Vec<Vec<M>>,
    jobs: usize,
    spans: &mut [WorkerSpan],
    step: &F,
) -> Vec<Envelope<M>>
where
    S: Send,
    M: Send,
    F: Fn(u32, &mut S, Vec<M>, &mut Outbox<M>) + Sync,
{
    let n = shards.len();
    let mut inboxes = inboxes;
    inboxes.resize_with(n, Vec::new);
    let jobs = jobs.clamp(1, n.max(1));
    assert!(spans.len() >= jobs, "need one WorkerSpan per worker");
    let chunk = n.div_ceil(jobs);

    // One shard-step over a contiguous chunk starting at `base`.
    let run_chunk = |base: usize,
                     shards: &mut [Option<S>],
                     inboxes: Vec<Vec<M>>,
                     span: &mut WorkerSpan| {
        let t0 = Instant::now();
        let mut out: Vec<Envelope<M>> = Vec::new();
        for (off, (slot, inbox)) in shards.iter_mut().zip(inboxes).enumerate() {
            if let Some(shard) = slot {
                let idx = (base + off) as u32;
                let mut ob = Outbox::new(idx);
                step(idx, shard, inbox, &mut ob);
                span.shards += 1;
                span.messages += ob.msgs.len() as u64;
                out.append(&mut ob.msgs);
            }
        }
        span.note(t0);
        out
    };

    // Chunk the inboxes to mirror shards.chunks_mut.
    let mut inbox_chunks: Vec<Vec<Vec<M>>> = Vec::with_capacity(jobs);
    {
        let mut rest = inboxes;
        while rest.len() > chunk {
            let tail = rest.split_off(chunk);
            inbox_chunks.push(rest);
            rest = tail;
        }
        inbox_chunks.push(rest);
    }

    let mut outs: Vec<Vec<Envelope<M>>> = Vec::with_capacity(inbox_chunks.len());
    if jobs <= 1 || inbox_chunks.len() <= 1 {
        let ib = inbox_chunks.remove(0);
        outs.push(run_chunk(0, shards, ib, &mut spans[0]));
    } else {
        outs.resize_with(inbox_chunks.len(), Vec::new);
        std::thread::scope(|sc| {
            let mut base = 0usize;
            let shard_chunks = shards.chunks_mut(chunk);
            let iter = shard_chunks
                .zip(inbox_chunks)
                .zip(outs.iter_mut())
                .zip(spans.iter_mut());
            for (((sh, ib), out), span) in iter {
                let b = base;
                base += sh.len();
                sc.spawn(move || {
                    *out = run_chunk(b, sh, ib, span);
                });
            }
        });
    }

    // Chunks are contiguous and in shard order, so concatenation is the
    // canonical (src, seq) order no matter how many workers ran.
    let merged: Vec<Envelope<M>> = outs.into_iter().flatten().collect();
    debug_assert!(merged.windows(2).all(|w| (w[0].src, w[0].seq) < (w[1].src, w[1].seq)));
    merged
}

/// Splits an epoch's merged messages into per-shard inboxes for the
/// next epoch, returning controller-addressed envelopes separately.
/// Both outputs preserve the `(src, seq)` order.  Messages addressed
/// out of range are dropped (dead-letter, like a dead host's inbox).
pub fn route<M>(envelopes: Vec<Envelope<M>>, n_shards: usize) -> (Vec<Vec<M>>, Vec<Envelope<M>>) {
    let mut inboxes: Vec<Vec<M>> = Vec::new();
    inboxes.resize_with(n_shards, Vec::new);
    let mut ctrl = Vec::new();
    for env in envelopes {
        if env.dst == CONTROLLER {
            ctrl.push(env);
        } else if (env.dst as usize) < n_shards {
            inboxes[env.dst as usize].push(env.msg);
        }
    }
    (inboxes, ctrl)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy shard: accumulates received values, forwards its running sum
    /// to the next shard and reports to the controller.
    struct Acc {
        sum: u64,
    }

    fn step_fn(n: usize) -> impl Fn(u32, &mut Acc, Vec<u64>, &mut Outbox<u64>) + Sync {
        move |idx, acc, inbox, out| {
            for v in inbox {
                acc.sum += v;
            }
            acc.sum += u64::from(idx) + 1;
            out.send((idx as usize + 1) as u32 % n as u32, acc.sum);
            out.send(CONTROLLER, acc.sum * 2);
        }
    }

    /// Every delivered message as (src, seq, dst, payload).
    type MessageLog = Vec<(u32, u32, u32, u64)>;

    fn run(n: usize, epochs: usize, jobs: usize) -> (Vec<u64>, MessageLog) {
        let mut shards: Vec<Option<Acc>> = (0..n).map(|_| Some(Acc { sum: 0 })).collect();
        let mut spans = vec![WorkerSpan::default(); jobs.max(1)];
        let mut inboxes: Vec<Vec<u64>> = Vec::new();
        let mut log = Vec::new();
        let step = step_fn(n);
        for _ in 0..epochs {
            let msgs = run_epoch(&mut shards, inboxes, jobs, &mut spans, &step);
            for e in &msgs {
                log.push((e.src, e.seq, e.dst, e.msg));
            }
            let (next, _ctrl) = route(msgs, n);
            inboxes = next;
        }
        let sums = shards.into_iter().map(|s| s.unwrap().sum).collect();
        (sums, log)
    }

    #[test]
    fn worker_count_does_not_change_bytes() {
        let (s1, l1) = run(13, 5, 1);
        for jobs in [2, 4, 8] {
            let (s, l) = run(13, 5, jobs);
            assert_eq!(s1, s, "jobs={jobs}");
            assert_eq!(l1, l, "jobs={jobs}");
        }
    }

    #[test]
    fn messages_are_src_seq_ordered() {
        let (_, log) = run(7, 3, 4);
        let mut per_epoch = log.chunks(14);
        assert!(per_epoch.all(|c| c.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1))));
    }

    #[test]
    fn dead_shards_are_skipped_and_drop_mail() {
        let mut shards: Vec<Option<Acc>> =
            (0..4).map(|i| (i != 2).then_some(Acc { sum: 0 })).collect();
        let mut spans = vec![WorkerSpan::default(); 2];
        let step = step_fn(4);
        let msgs = run_epoch(&mut shards, Vec::new(), 2, &mut spans, &step);
        // Shard 2 produced nothing.
        assert!(msgs.iter().all(|e| e.src != 2));
        let (inboxes, ctrl) = route(msgs, 4);
        // Mail addressed to the dead shard is still routed into its
        // inbox slot; the next run_epoch drops it with the shard.
        assert_eq!(ctrl.len(), 3);
        let second = run_epoch(&mut shards, inboxes, 2, &mut spans, &step);
        assert!(second.iter().all(|e| e.src != 2));
        assert_eq!(spans.iter().map(|s| s.shards).sum::<u64>(), 6);
    }

    #[test]
    fn controller_messages_split_out_in_order() {
        let (_, log) = run(5, 1, 3);
        let ctrl: Vec<_> = log.iter().filter(|r| r.2 == CONTROLLER).collect();
        assert_eq!(ctrl.len(), 5);
        assert!(ctrl.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
