//! Dependency-aware DAG scheduler for the figure runner.
//!
//! Most figure units are cheap *readers* of shared state — a worldcache
//! chain prefix, a memoized probe walk, a memoized compute run. Built
//! lazily inside whichever unit arrived first, that state would be
//! correct (everything is deterministic) but badly scheduled: one unit
//! would simulate 8000 boots while ten others blocked on it.
//!
//! The planner makes the builds explicit. Every distinct resource a
//! unit declares (see [`Dep`]) becomes its producer tasks, and there
//! are exactly two producer shapes:
//!
//! * **chain** tasks climb a worldcache chain rung by requested rung
//!   ([`worldcache::build_to`]), split so that no task climbs more than
//!   [`MAX_CHAIN_SPAN`] boots, publishing records and rung observables
//!   as they pass;
//! * **memo** tasks, one per distinct memo key, run the producer body
//!   the dep carries and fill the [`worldcache::memoized`] entry its
//!   readers hit; their trace kind comes from the dep (`"probe"` for
//!   probe walks, `"compute"` for overload runs);
//!
//! and **unit** tasks are the figure units themselves, gated on their
//! declared producers and otherwise free to run anywhere. The plan is
//! a pure function of the specs (and the cache enable flag): a warm
//! in-process re-run plans the same graph, and its producers find the
//! work already done.
//!
//! Execution is critical-path first: each task's rank is its cost plus
//! the heaviest downstream chain, and the ready heap pops the highest
//! rank (ties by lowest id, so the order is deterministic). None of
//! this affects artefact bytes — results are merged in declared order
//! and every task body is deterministic — which the determinism tests
//! and ci.sh's `--jobs` byte gates pin.
//!
//! Task ids are topological by construction (every dependency's id is
//! smaller than its dependent's), which keeps the rank computation and
//! the report's critical-path scan a single reverse pass.

use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use metrics::TaskPerf;

use crate::figures::{Dep, FigureSpec, UnitOutput};
use crate::worldcache::{self, WorldSpec};

/// Longest climb a single chain task may perform; larger requested
/// spans are split into evenly spaced intermediate rungs. 150 boots is
/// ~15-35 ms of simulation — big enough to amortise task overhead,
/// small enough to pipeline behind consumers.
const MAX_CHAIN_SPAN: usize = 150;

/// What a task does when it runs. Infra bodies return an event count
/// for the trace: boots climbed, probes run, requests simulated.
enum Body {
    Unit(Box<dyn FnOnce() -> UnitOutput + Send>),
    Infra(Box<dyn FnOnce() -> u64 + Send>),
}

struct Task {
    kind: &'static str,
    label: String,
    /// Owning figure id for unit tasks, empty for infrastructure.
    figure: String,
    deps: Vec<usize>,
    /// Estimated wall-clock (ms) for rank seeding; correctness never
    /// depends on it.
    cost: f64,
    /// Destination (figure index, unit index) for unit outputs.
    slot: Option<(usize, usize)>,
    body: Body,
}

/// A planned run: the full task graph, ready to execute.
pub struct Plan {
    tasks: Vec<Task>,
}

/// One task's metadata, for tests and diagnostics.
pub struct TaskView {
    pub kind: &'static str,
    pub label: String,
    pub figure: String,
    pub deps: Vec<usize>,
}

impl Plan {
    /// Number of schedulable tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Body-free view of the graph.
    pub fn view(&self) -> Vec<TaskView> {
        self.tasks
            .iter()
            .map(|t| TaskView {
                kind: t.kind,
                label: t.label.clone(),
                figure: t.figure.clone(),
                deps: t.deps.clone(),
            })
            .collect()
    }
}

/// Builds the task graph for `specs`. Returns the figure heads
/// (stripped of units, for merging) and the plan.
///
/// With the snapshot cache disabled no producer tasks are emitted and
/// units carry no dependencies: each unit body falls back to building
/// what it needs inline, byte-identically — the planner only ever
/// changes *when* work happens, never *what* runs.
pub fn plan(specs: Vec<FigureSpec>) -> (Vec<FigureSpec>, Plan) {
    let mut tasks: Vec<Task> = Vec::new();

    // ---- collect distinct resources, in first-encounter order; memo
    // producers have no dependencies, so they are emitted right away ----
    let mut chains: Vec<(WorldSpec, Vec<usize>)> = Vec::new();
    let mut chain_of: HashMap<worldcache::Key, usize> = HashMap::new();
    let mut memo_task: HashMap<String, usize> = HashMap::new();
    if worldcache::enabled() {
        for dep in specs.iter().flat_map(|s| &s.units).flat_map(|u| &u.deps) {
            match dep {
                Dep::Chain { spec, rung } => {
                    let idx = *chain_of.entry(spec.key()).or_insert_with(|| {
                        chains.push((WorldSpec::clone(spec), Vec::new()));
                        chains.len() - 1
                    });
                    chains[idx].1.push(*rung);
                }
                Dep::Memo(m) => {
                    if let Entry::Vacant(e) = memo_task.entry(m.key.clone()) {
                        e.insert(tasks.len());
                        let produce = m.produce.clone();
                        tasks.push(Task {
                            kind: m.kind,
                            label: m.label.clone(),
                            figure: String::new(),
                            deps: Vec::new(),
                            cost: m.cost,
                            slot: None,
                            body: Body::Infra(Box::new(move || produce())),
                        });
                    }
                }
            }
        }
    }

    // ---- chain tasks, one per rung (ids are topological: each rung
    // depends on the previous one) ----
    let mut chain_task: HashMap<(worldcache::Key, usize), usize> = HashMap::new();
    for (spec, mut rungs) in chains {
        rungs.sort_unstable();
        rungs.dedup();
        // Split long climbs into evenly spaced intermediate rungs, so
        // one 1000-boot chain becomes several short tasks the executor
        // can start early and interleave with other work. Byte-
        // identical: the chain still climbs through exactly the same
        // creates, and `advance` publishes observables at every ladder
        // rung it crosses regardless of task boundaries; consumers only
        // ever read the rungs they declared, which are all kept.
        let mut split = Vec::with_capacity(rungs.len());
        let mut prev = 0usize;
        for rung in rungs {
            let span = rung - prev;
            if span > MAX_CHAIN_SPAN {
                let pieces = span.div_ceil(MAX_CHAIN_SPAN);
                for p in 1..pieces {
                    split.push(prev + span * p / pieces);
                }
            }
            split.push(rung);
            prev = rung;
        }

        let mut prev: Option<usize> = None;
        let mut prev_rung = 0usize;
        for rung in split {
            let id = tasks.len();
            let span = rung - prev_rung;
            let body_spec = spec.clone();
            tasks.push(Task {
                kind: "chain",
                label: format!("chain {}@{rung}", spec.label()),
                figure: String::new(),
                deps: prev.into_iter().collect(),
                cost: span as f64 * worldcache::boot_cost_ms(spec.mode),
                slot: None,
                body: Body::Infra(Box::new(move || worldcache::build_to(&body_spec, rung))),
            });
            chain_task.insert((spec.key(), rung), id);
            prev = Some(id);
            prev_rung = rung;
        }
    }

    // ---- unit tasks, in declared (figure, unit) order ----
    let mut heads = Vec::with_capacity(specs.len());
    for (fi, mut spec) in specs.into_iter().enumerate() {
        for (ui, unit) in spec.units.drain(..).enumerate() {
            let mut deps: Vec<usize> = Vec::new();
            for dep in &unit.deps {
                let producer = match dep {
                    Dep::Chain { spec: ws, rung } => chain_task.get(&(ws.key(), *rung)),
                    Dep::Memo(m) => memo_task.get(&m.key),
                };
                // A missing producer means the cache is disabled:
                // nothing to wait on.
                if let Some(&p) = producer {
                    deps.push(p);
                }
            }
            tasks.push(Task {
                kind: "unit",
                label: unit.label,
                figure: spec.id.to_string(),
                deps,
                cost: unit.cost_hint,
                slot: Some((fi, ui)),
                body: Body::Unit(unit.run),
            });
        }
        heads.push(spec);
    }

    for (i, t) in tasks.iter_mut().enumerate() {
        t.deps.sort_unstable();
        t.deps.dedup();
        debug_assert!(
            t.deps.iter().all(|&d| d < i),
            "task ids must be topological"
        );
    }

    (heads, Plan { tasks })
}

/// A completed unit task's output, tagged with its destination slot.
pub(crate) struct UnitResult {
    pub slot: (usize, usize),
    pub label: String,
    pub out: UnitOutput,
    pub wall_ms: f64,
    pub allocs: u64,
}

/// Ready-heap priority: highest rank first, ties to the lowest id so
/// equal-rank pops are deterministic.
struct Prio {
    rank: f64,
    id: usize,
}

impl PartialEq for Prio {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl Eq for Prio {}
impl PartialOrd for Prio {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Prio {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rank
            .total_cmp(&other.rank)
            .then_with(|| other.id.cmp(&self.id))
    }
}

struct SchedState {
    ready: BinaryHeap<Prio>,
    indeg: Vec<usize>,
    done: usize,
}

struct Ctx {
    n: usize,
    state: Mutex<SchedState>,
    cv: Condvar,
    bodies: Vec<Mutex<Option<Body>>>,
    #[allow(clippy::type_complexity)]
    results: Vec<Mutex<Option<(f64, f64, usize, u64, u64, Option<UnitOutput>)>>>,
    succs: Vec<Vec<usize>>,
    rank: Vec<f64>,
    started: Instant,
}

/// Wakes every worker and marks the run finished if a task body
/// panics, so the panic propagates instead of deadlocking the pool.
struct Bail<'a> {
    ctx: &'a Ctx,
    armed: bool,
}

impl Drop for Bail<'_> {
    fn drop(&mut self) {
        if self.armed {
            if let Ok(mut g) = self.ctx.state.lock() {
                g.done = self.ctx.n;
            }
            self.ctx.cv.notify_all();
        }
    }
}

fn worker(ctx: &Ctx, thread: usize) {
    loop {
        let id = {
            let mut g = ctx.state.lock().expect("scheduler lock");
            loop {
                if g.done == ctx.n {
                    return;
                }
                if let Some(p) = g.ready.pop() {
                    break p.id;
                }
                g = ctx.cv.wait(g).expect("scheduler wait");
            }
        };

        let body = ctx.bodies[id]
            .lock()
            .expect("body lock")
            .take()
            .expect("task claimed once");
        let mut bail = Bail { ctx, armed: true };
        // Allocation counting is per thread and a task runs entirely
        // on the thread that claimed it, so the delta is the task's
        // own count even under parallel workers. Chain/probe/compute
        // tasks are billed here too: a unit's numbers now cover only
        // its own execution, not the shared builds it reads.
        let a0 = crate::alloc::thread_allocs();
        let start_ms = ctx.started.elapsed().as_secs_f64() * 1e3;
        let (events, out) = match body {
            Body::Unit(f) => {
                let o = f();
                (o.events, Some(o))
            }
            Body::Infra(f) => (f(), None),
        };
        let end_ms = ctx.started.elapsed().as_secs_f64() * 1e3;
        let allocs = crate::alloc::thread_allocs() - a0;
        bail.armed = false;
        *ctx.results[id].lock().expect("result lock") =
            Some((start_ms, end_ms, thread, events, allocs, out));

        let mut g = ctx.state.lock().expect("scheduler lock");
        g.done += 1;
        for &s in &ctx.succs[id] {
            g.indeg[s] -= 1;
            if g.indeg[s] == 0 {
                g.ready.push(Prio {
                    rank: ctx.rank[s],
                    id: s,
                });
            }
        }
        drop(g);
        ctx.cv.notify_all();
    }
}

/// Executes the plan on `jobs` workers (inline on the caller when
/// `jobs <= 1`). Returns the task trace in id order plus every unit's
/// output tagged with its destination slot.
pub(crate) fn execute(
    plan: Plan,
    jobs: usize,
    started: Instant,
) -> (Vec<TaskPerf>, Vec<UnitResult>) {
    let n = plan.tasks.len();
    if n == 0 {
        return (Vec::new(), Vec::new());
    }

    // rank[t] = cost[t] + heaviest downstream chain. Ids are
    // topological, so one reverse pass relaxing each task into its
    // dependencies settles every rank.
    let mut rank: Vec<f64> = plan.tasks.iter().map(|t| t.cost).collect();
    for i in (0..n).rev() {
        for &d in &plan.tasks[i].deps {
            let through = plan.tasks[d].cost + rank[i];
            if rank[d] < through {
                rank[d] = through;
            }
        }
    }

    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    for (i, t) in plan.tasks.iter().enumerate() {
        indeg[i] = t.deps.len();
        for &d in &t.deps {
            succs[d].push(i);
        }
    }
    let ready: BinaryHeap<Prio> = (0..n)
        .filter(|&i| indeg[i] == 0)
        .map(|i| Prio { rank: rank[i], id: i })
        .collect();

    let mut meta = Vec::with_capacity(n);
    let mut bodies = Vec::with_capacity(n);
    for t in plan.tasks {
        meta.push((t.kind, t.label, t.figure, t.deps, t.slot));
        bodies.push(Mutex::new(Some(t.body)));
    }

    let ctx = Ctx {
        n,
        state: Mutex::new(SchedState {
            ready,
            indeg,
            done: 0,
        }),
        cv: Condvar::new(),
        bodies,
        results: (0..n).map(|_| Mutex::new(None)).collect(),
        succs,
        rank,
        started,
    };

    if jobs <= 1 {
        worker(&ctx, 0);
    } else {
        std::thread::scope(|scope| {
            for w in 0..jobs {
                let ctx = &ctx;
                scope.spawn(move || worker(ctx, w));
            }
        });
    }

    let mut trace = Vec::with_capacity(n);
    let mut units = Vec::new();
    for (i, ((kind, label, figure, deps, slot), result)) in
        meta.into_iter().zip(ctx.results).enumerate()
    {
        let (start_ms, end_ms, thread, events, allocs, out) = result
            .into_inner()
            .expect("result lock")
            .expect("every task ran");
        trace.push(TaskPerf {
            id: i as u64,
            kind: kind.to_string(),
            label,
            figure,
            thread: thread as u64,
            start_ms,
            end_ms,
            events,
            allocs,
            deps: deps.into_iter().map(|d| d as u64).collect(),
        });
        if let Some(slot) = slot {
            units.push(UnitResult {
                slot,
                label: trace.last().expect("just pushed").label.clone(),
                out: out.expect("unit tasks produce output"),
                wall_ms: end_ms - start_ms,
                allocs,
            });
        }
    }
    (trace, units)
}
