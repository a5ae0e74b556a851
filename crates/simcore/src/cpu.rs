//! Fluid processor-sharing CPU contention model.
//!
//! Guests are pinned to cores (the paper assigns VMs to cores round-robin).
//! Each core has capacity 1.0. Two task kinds exist:
//!
//! - **Finite** tasks have a fixed amount of CPU work (e.g. a guest boot,
//!   a compute-service job) and want as much CPU as they can get.
//! - **Background** tasks model idle-guest housekeeping (Debian services,
//!   Tinyx timer ticks) as a fluid fractional demand of one core.
//!
//! Allocation per core is the classic water-filling fair share: every
//! runnable task receives an equal share `s`, background tasks consume at
//! most their demand, and the surplus is redistributed. This reproduces
//! how the Xen credit scheduler degrades boot times under load (Fig. 11)
//! and the CPU-utilisation scaling of Fig. 15.
//!
//! Density sweeps register thousands of *identical* background demands per
//! core (every guest of one image), and every boot probes the share three
//! times (add probe / read rate / swap probe for the idle demand). The
//! share recompute therefore keeps per-core aggregates and solves the
//! water-fill in closed form when all background demands on a core are
//! equal — O(1) per mutation instead of gather + sort over every task.
//! Any mutation that leaves that regime (removing a background task,
//! changing a demand, mixed demands) falls back to the original sorted
//! water-fill, which also re-establishes the aggregates. Both paths
//! produce bit-identical shares: with equal demands the sorted scan can
//! only terminate at `j == 0` or `j == k` (the candidate share moves
//! monotonically away from the common demand), and the fold-left demand
//! sum over the stable-sorted array equals the insertion-order sum.

use crate::time::SimTime;

/// Handle to a task registered with [`CpuSim`]: the registration
/// sequence number above [`CORE_BITS`] bits of core index, so a handle
/// names its core without a lookup table (and ids still order by
/// registration).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TaskId(u64);

/// Low bits of a [`TaskId`] holding the core index.
const CORE_BITS: u32 = 16;

impl TaskId {
    fn core(self) -> usize {
        (self.0 & ((1 << CORE_BITS) - 1)) as usize
    }
}

/// The two task kinds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TaskKind {
    /// `remaining` CPU-seconds of work (measured at reference core speed).
    Finite {
        /// CPU-seconds left.
        remaining: f64,
    },
    /// A fluid fractional demand of one core, in `[0, 1]`.
    Background {
        /// Demanded fraction of a core.
        demand: f64,
    },
}

/// One core's tasks (kinds inline, insertion-ordered) plus the cached
/// fair share and the aggregates behind the O(1) recompute fast path.
#[derive(Clone, Debug)]
struct CoreState {
    entries: Vec<(TaskId, TaskKind)>,
    /// Cached fair share (rate granted to each finite task).
    share: f64,
    /// Whether the background aggregates below mirror `entries`.
    agg_ok: bool,
    /// All background demands on this core are equal.
    bg_equal: bool,
    bg_count: usize,
    /// The common demand when `bg_equal && bg_count > 0`.
    bg_demand: f64,
    /// Fold-left sum of background demands in insertion order.
    bg_total: f64,
    /// Finite tasks with remaining work > 0.
    n_active: usize,
    /// Reused slow-path sort buffer.
    scratch: Vec<f64>,
}

impl CoreState {
    fn new() -> Self {
        CoreState {
            entries: Vec::new(),
            share: 1.0,
            agg_ok: true,
            bg_equal: true,
            bg_count: 0,
            bg_demand: 0.0,
            bg_total: 0.0,
            n_active: 0,
            scratch: Vec::new(),
        }
    }
}

/// Per-core processor-sharing simulator over virtual time.
#[derive(Clone)]
pub struct CpuSim {
    per_core: Vec<CoreState>,
    now: SimTime,
    next_id: u64,
    speed: f64,
}

impl CpuSim {
    /// Creates a simulator with `cores` cores of relative speed `speed`
    /// (1.0 = the paper's Xeon E5-1630 v3 reference).
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0` or `speed <= 0`.
    pub fn new(cores: usize, speed: f64) -> Self {
        assert!(cores > 0, "need at least one core");
        assert!(speed > 0.0, "speed must be positive");
        assert!(cores <= 1 << CORE_BITS, "core index must fit a task id");
        CpuSim {
            per_core: vec![CoreState::new(); cores],
            now: SimTime::ZERO,
            next_id: 0,
            speed,
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.per_core.len()
    }

    /// Current virtual time of the CPU model.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of tasks currently pinned to `core`.
    pub fn tasks_on_core(&self, core: usize) -> usize {
        self.per_core[core].entries.len()
    }

    /// Total tasks ever registered (finite and background) — a cheap
    /// measure of how much scheduling work this simulation performed.
    pub fn tasks_started(&self) -> u64 {
        self.next_id
    }

    /// Registers a finite task with `work` CPU-seconds on `core`.
    pub fn add_finite(&mut self, core: usize, work: f64) -> TaskId {
        self.add(core, TaskKind::Finite { remaining: work.max(0.0) })
    }

    /// Registers a background task demanding `demand` of a core.
    pub fn add_background(&mut self, core: usize, demand: f64) -> TaskId {
        self.add(
            core,
            TaskKind::Background {
                demand: demand.clamp(0.0, 1.0),
            },
        )
    }

    fn add(&mut self, core: usize, kind: TaskKind) -> TaskId {
        assert!(core < self.per_core.len(), "core {core} out of range");
        let id = TaskId(self.next_id << CORE_BITS | core as u64);
        self.next_id += 1;
        let cs = &mut self.per_core[core];
        match kind {
            TaskKind::Finite { remaining } => {
                if remaining > 0.0 {
                    cs.n_active += 1;
                }
            }
            TaskKind::Background { demand } => {
                if cs.agg_ok {
                    if cs.bg_count == 0 {
                        cs.bg_demand = demand;
                        cs.bg_equal = true;
                    } else if demand != cs.bg_demand {
                        cs.bg_equal = false;
                    }
                    cs.bg_count += 1;
                    cs.bg_total += demand;
                }
            }
        }
        cs.entries.push((id, kind));
        self.recompute(core);
        id
    }

    /// Changes a background task's demand (e.g. a guest going active/idle).
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or not a background task.
    pub fn set_background_demand(&mut self, id: TaskId, demand: f64) {
        let core = id.core();
        let cs = &mut self.per_core[core];
        let pos = cs
            .entries
            .iter()
            .rposition(|(tid, _)| *tid == id)
            .expect("unknown task");
        match &mut cs.entries[pos].1 {
            TaskKind::Background { demand: d } => *d = demand.clamp(0.0, 1.0),
            TaskKind::Finite { .. } => panic!("not a background task"),
        }
        cs.agg_ok = false;
        self.recompute(core);
    }

    /// Removes a task, returning its remaining work (finite) or demand
    /// (background). Returns `None` if the id is unknown.
    pub fn remove(&mut self, id: TaskId) -> Option<f64> {
        let core = id.core();
        let cs = self.per_core.get_mut(core)?;
        let pos = cs.entries.iter().rposition(|(tid, _)| *tid == id)?;
        let (_, kind) = cs.entries.remove(pos);
        match kind {
            TaskKind::Finite { remaining } => {
                if remaining > 0.0 {
                    cs.n_active -= 1;
                }
            }
            TaskKind::Background { .. } => {
                // Removal breaks the append-only fold-left demand sum;
                // the next recompute re-derives the aggregates.
                cs.agg_ok = false;
            }
        }
        self.recompute(core);
        Some(match kind {
            TaskKind::Finite { remaining } => remaining,
            TaskKind::Background { demand } => demand,
        })
    }

    fn kind_of(&self, id: TaskId) -> Option<TaskKind> {
        let cs = self.per_core.get(id.core())?;
        cs.entries
            .iter()
            .rev()
            .find(|(tid, _)| *tid == id)
            .map(|(_, k)| *k)
    }

    /// Remaining work of a finite task.
    pub fn remaining(&self, id: TaskId) -> Option<f64> {
        match self.kind_of(id)? {
            TaskKind::Finite { remaining } => Some(remaining),
            TaskKind::Background { .. } => None,
        }
    }

    /// Rate (CPU-seconds per second) currently granted to a finite task.
    pub fn rate_of(&self, id: TaskId) -> Option<f64> {
        match self.kind_of(id)? {
            TaskKind::Finite { .. } => Some(self.per_core[id.core()].share * self.speed),
            TaskKind::Background { .. } => None,
        }
    }

    /// Utilised fraction of `core` (0..=1).
    pub fn core_utilization(&self, core: usize) -> f64 {
        let cs = &self.per_core[core];
        let s = cs.share;
        let mut u = 0.0;
        for (_, kind) in &cs.entries {
            match *kind {
                TaskKind::Finite { remaining } if remaining > 0.0 => u += s,
                TaskKind::Finite { .. } => {}
                TaskKind::Background { demand } => u += demand.min(s),
            }
        }
        u.min(1.0)
    }

    /// Mean utilisation across all cores (0..=1).
    pub fn total_utilization(&self) -> f64 {
        let n = self.per_core.len();
        (0..n).map(|c| self.core_utilization(c)).sum::<f64>() / n as f64
    }

    /// Time of the earliest finite-task completion under current
    /// allocations, with the task id. `None` if no finite work remains.
    pub fn next_completion(&self) -> Option<(SimTime, TaskId)> {
        let mut cands: Vec<(TaskId, f64, f64)> = Vec::new();
        for cs in &self.per_core {
            let rate = cs.share * self.speed;
            for (id, kind) in &cs.entries {
                if let TaskKind::Finite { remaining } = kind {
                    cands.push((*id, *remaining, rate));
                }
            }
        }
        cands.sort_by_key(|c| c.0); // determinism
        let mut best: Option<(SimTime, TaskId)> = None;
        for (id, remaining, rate) in cands {
            if remaining <= 0.0 {
                return Some((self.now, id));
            }
            if rate > 0.0 {
                // Round up to 1 ns: a sub-nanosecond residue (float
                // error after a burn) must still advance the clock,
                // or run_to_completion would spin forever.
                let dt = SimTime::from_secs_f64(remaining / rate)
                    .max(SimTime::from_nanos(1));
                let at = self.now + dt;
                if best.map(|(b, _)| at < b).unwrap_or(true) {
                    best = Some((at, id));
                }
            }
        }
        best
    }

    /// Advances the model to absolute time `t`, burning down finite work.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if a finite task would complete strictly
    /// before `t` (callers must advance to [`CpuSim::next_completion`]
    /// boundaries first).
    pub fn advance_to(&mut self, t: SimTime) {
        if t <= self.now {
            return;
        }
        let dt = (t - self.now).as_secs_f64();
        for cs in &mut self.per_core {
            let rate = cs.share * self.speed;
            for (_, kind) in &mut cs.entries {
                if let TaskKind::Finite { remaining } = kind {
                    let burn = rate * dt;
                    debug_assert!(
                        *remaining - burn > -1e-6,
                        "finite task overshot completion by {}",
                        burn - *remaining
                    );
                    let was = *remaining;
                    *remaining = (*remaining - burn).max(0.0);
                    if was > 0.0 && *remaining == 0.0 {
                        cs.n_active -= 1;
                    }
                }
            }
        }
        self.now = t;
    }

    /// Runs the given finite task to completion (finite tasks completing
    /// earlier — on any core — are removed along the way), removes it, and
    /// returns the completion time.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or not finite.
    pub fn run_to_completion(&mut self, id: TaskId) -> SimTime {
        match self.kind_of(id) {
            Some(TaskKind::Finite { .. }) => {}
            Some(_) => panic!("not a finite task"),
            None => panic!("unknown task"),
        }
        loop {
            let remaining = match self.kind_of(id) {
                Some(TaskKind::Finite { remaining }) => remaining,
                _ => unreachable!(),
            };
            if remaining <= 1e-9 {
                let at = self.now;
                self.remove(id);
                return at;
            }
            let (at, _) = self
                .next_completion()
                .expect("finite work exists, a completion must too");
            self.advance_to(at);
            self.reap_done();
            if self.kind_of(id).is_none() {
                return at;
            }
        }
    }

    /// Removes every finite task whose work has reached zero.
    pub fn reap_done(&mut self) -> Vec<TaskId> {
        let mut done: Vec<TaskId> = Vec::new();
        for cs in &self.per_core {
            for (id, kind) in &cs.entries {
                if let TaskKind::Finite { remaining } = kind {
                    if *remaining <= 1e-9 {
                        done.push(*id);
                    }
                }
            }
        }
        done.sort();
        for &id in &done {
            self.remove(id);
        }
        done
    }

    /// Recomputes the water-filling fair share for one core.
    ///
    /// Solves `sum_i min(d_i, s) + n_finite * s = 1` for `s`, where `d_i`
    /// are background demands on the core. With no finite tasks the share
    /// is the cap applied to background demands (1.0 if undersubscribed).
    fn recompute(&mut self, core: usize) {
        let cs = &mut self.per_core[core];
        if cs.agg_ok && (cs.bg_count == 0 || cs.bg_equal) {
            let total = if cs.bg_count == 0 { 0.0 } else { cs.bg_total };
            cs.share = Self::share_equal(cs.bg_count, cs.bg_demand, total, cs.n_active);
            return;
        }
        // Slow path: gather + sort, exactly the original solve; also
        // re-derives the fast-path aggregates.
        let mut scratch = std::mem::take(&mut cs.scratch);
        scratch.clear();
        let mut n_finite = 0usize;
        for (_, kind) in &cs.entries {
            match *kind {
                TaskKind::Finite { remaining } if remaining > 0.0 => n_finite += 1,
                TaskKind::Finite { .. } => {}
                TaskKind::Background { demand } => scratch.push(demand),
            }
        }
        scratch.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let total_bg: f64 = scratch.iter().sum();
        cs.share = if n_finite == 0 {
            if total_bg <= 1.0 {
                1.0
            } else {
                // Oversubscribed by background alone: water-fill the cap.
                Self::water_fill(&scratch, 0)
            }
        } else if total_bg + n_finite as f64 * 1.0 <= 1.0 {
            // Nobody is throttled; a finite task can take a whole core
            // minus what backgrounds consume.
            1.0 - total_bg
        } else {
            Self::water_fill(&scratch, n_finite)
        };
        cs.bg_count = scratch.len();
        cs.bg_equal = scratch.windows(2).all(|w| w[0] == w[1]);
        cs.bg_demand = scratch.first().copied().unwrap_or(0.0);
        cs.bg_total = total_bg;
        cs.n_active = n_finite;
        cs.agg_ok = true;
        // Kept at capacity but empty: a world fork copies no stale
        // demands.
        scratch.clear();
        cs.scratch = scratch;
    }

    /// The share when all `k` background demands equal `d` (fold-left sum
    /// `total`), mirroring the branch structure of the slow path bit for
    /// bit.
    fn share_equal(k: usize, d: f64, total: f64, n_finite: usize) -> f64 {
        if n_finite == 0 {
            if total <= 1.0 {
                return 1.0;
            }
            return Self::water_fill_equal(k, d, total, 0);
        }
        if total + n_finite as f64 * 1.0 <= 1.0 {
            return 1.0 - total;
        }
        Self::water_fill_equal(k, d, total, n_finite)
    }

    /// Closed-form [`Self::water_fill`] over `k` equal demands `d`.
    ///
    /// The sorted scan's candidate `s_j = (1 - j*d)/(k - j + n)` moves
    /// monotonically away from `d` as `j` grows (its derivative's sign is
    /// `sign(s_0 - d)`), so the scan can only terminate at `j == 0` (when
    /// `d >= s_0 - 1e-12`) or at `j == k` — intermediate `j` never satisfy
    /// both window bounds. `total` must be the fold-left sum the slow path
    /// would compute, so `j == k` returns the identical float.
    fn water_fill_equal(k: usize, d: f64, total: f64, n_finite: usize) -> f64 {
        let denom0 = (k + n_finite) as f64;
        if denom0 == 0.0 {
            return 1.0;
        }
        let s0 = 1.0 / denom0;
        if k == 0 || d >= s0 - 1e-12 {
            return s0.max(0.0);
        }
        let denom_k = n_finite as f64;
        if denom_k == 0.0 {
            return 1.0;
        }
        ((1.0 - total) / denom_k).max(0.0)
    }

    /// Water-filling solve of `sum min(d_i, s) + n*s = 1` over sorted `d`.
    fn water_fill(sorted_demands: &[f64], n_finite: usize) -> f64 {
        let k = sorted_demands.len();
        let mut prefix = 0.0;
        for j in 0..=k {
            // Assume d_1..d_j are fully satisfied (d_i <= s), the rest and
            // all finite tasks receive s.
            let denom = (k - j + n_finite) as f64;
            if denom == 0.0 {
                return 1.0;
            }
            let s = (1.0 - prefix) / denom;
            let lower_ok = j == 0 || sorted_demands[j - 1] <= s + 1e-12;
            let upper_ok = j == k || sorted_demands[j] >= s - 1e-12;
            if lower_ok && upper_ok {
                return s.max(0.0);
            }
            if j < k {
                prefix += sorted_demands[j];
            }
        }
        // Numerically always resolved above; be safe.
        (1.0 / (k + n_finite).max(1) as f64).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn lone_task_runs_at_full_speed() {
        let mut cpu = CpuSim::new(1, 1.0);
        let id = cpu.add_finite(0, 0.180);
        let done = cpu.run_to_completion(id);
        assert_eq!(done, SimTime::from_millis(180));
    }

    #[test]
    fn speed_scales_rates() {
        let mut cpu = CpuSim::new(1, 0.5);
        let id = cpu.add_finite(0, 0.1);
        let done = cpu.run_to_completion(id);
        assert_eq!(done, SimTime::from_millis(200));
    }

    #[test]
    fn two_finite_tasks_share_a_core() {
        let mut cpu = CpuSim::new(1, 1.0);
        let a = cpu.add_finite(0, 1.0);
        let b = cpu.add_finite(0, 1.0);
        assert!(approx(cpu.rate_of(a).unwrap(), 0.5));
        let done_a = cpu.run_to_completion(a);
        // Both share until both hit 2 s (equal work, equal shares); b is
        // reaped along the way because it finished at the same instant.
        assert_eq!(done_a, SimTime::from_secs(2));
        assert!(cpu.remaining(b).is_none());
    }

    #[test]
    fn background_slows_finite_task() {
        let mut cpu = CpuSim::new(1, 1.0);
        cpu.add_background(0, 0.5);
        let id = cpu.add_finite(0, 0.5);
        // Finite task gets 1 - 0.5 = 0.5 of the core.
        let done = cpu.run_to_completion(id);
        assert_eq!(done, SimTime::from_secs(1));
    }

    #[test]
    fn oversubscribed_core_water_fills() {
        let mut cpu = CpuSim::new(1, 1.0);
        // Two greedy backgrounds (0.8 each) + one finite task:
        // all three are throttled to s = 1/3.
        cpu.add_background(0, 0.8);
        cpu.add_background(0, 0.8);
        let id = cpu.add_finite(0, 1.0);
        assert!(approx(cpu.rate_of(id).unwrap(), 1.0 / 3.0));
        // One small background (0.1) + one greedy (0.9) + one finite:
        // s solves 0.1 + s + s = 1 -> s = 0.45.
        let mut cpu = CpuSim::new(1, 1.0);
        cpu.add_background(0, 0.1);
        cpu.add_background(0, 0.9);
        let id = cpu.add_finite(0, 0.45);
        assert!(approx(cpu.rate_of(id).unwrap(), 0.45));
        assert_eq!(cpu.run_to_completion(id), SimTime::from_secs(1));
    }

    #[test]
    fn utilization_counts_background_demand() {
        let mut cpu = CpuSim::new(4, 1.0);
        for core in 0..4 {
            cpu.add_background(core, 0.25);
        }
        assert!(approx(cpu.total_utilization(), 0.25));
        cpu.add_finite(0, 10.0);
        assert!(approx(cpu.core_utilization(0), 1.0));
    }

    #[test]
    fn background_oversubscription_caps_at_one() {
        let mut cpu = CpuSim::new(1, 1.0);
        for _ in 0..10 {
            cpu.add_background(0, 0.5);
        }
        assert!(approx(cpu.core_utilization(0), 1.0));
    }

    #[test]
    fn removing_tasks_restores_rate() {
        let mut cpu = CpuSim::new(1, 1.0);
        let bg = cpu.add_background(0, 0.5);
        let id = cpu.add_finite(0, 1.0);
        assert!(approx(cpu.rate_of(id).unwrap(), 0.5));
        cpu.remove(bg);
        assert!(approx(cpu.rate_of(id).unwrap(), 1.0));
    }

    #[test]
    fn set_background_demand_updates_share() {
        let mut cpu = CpuSim::new(1, 1.0);
        let bg = cpu.add_background(0, 0.1);
        let id = cpu.add_finite(0, 1.0);
        assert!(approx(cpu.rate_of(id).unwrap(), 0.9));
        // A greedy background is capped at the fair share, not prioritised:
        // with demand 0.6 and one finite task, both get 0.5.
        cpu.set_background_demand(bg, 0.6);
        assert!(approx(cpu.rate_of(id).unwrap(), 0.5));
    }

    #[test]
    fn next_completion_orders_across_cores() {
        let mut cpu = CpuSim::new(2, 1.0);
        let slow = cpu.add_finite(0, 2.0);
        let fast = cpu.add_finite(1, 1.0);
        let (t, id) = cpu.next_completion().unwrap();
        assert_eq!(id, fast);
        assert_eq!(t, SimTime::from_secs(1));
        cpu.advance_to(t);
        cpu.remove(fast);
        let (t2, id2) = cpu.next_completion().unwrap();
        assert_eq!(id2, slow);
        assert_eq!(t2, SimTime::from_secs(2));
    }

    #[test]
    fn advance_burns_work_proportionally() {
        let mut cpu = CpuSim::new(1, 1.0);
        let a = cpu.add_finite(0, 1.0);
        let b = cpu.add_finite(0, 2.0);
        cpu.advance_to(SimTime::from_secs(1));
        assert!(approx(cpu.remaining(a).unwrap(), 0.5));
        assert!(approx(cpu.remaining(b).unwrap(), 1.5));
    }

    #[test]
    fn completion_of_peer_speeds_up_survivor() {
        let mut cpu = CpuSim::new(1, 1.0);
        let _a = cpu.add_finite(0, 0.5);
        let b = cpu.add_finite(0, 1.0);
        // Phase 1: both at 0.5 until t=1 (a done). Phase 2: b alone,
        // 0.5 work at rate 1 -> t=1.5.
        let done_b = cpu.run_to_completion(b);
        assert_eq!(done_b, SimTime::from_millis(1500));
    }

    /// The fast path (equal background demands) and the slow sorted
    /// water-fill must produce bit-identical shares through a mixed
    /// add/remove/burn history.
    #[test]
    fn equal_demand_fast_path_matches_slow_solve() {
        for &(demand, n_bg) in &[
            (0.003_f64, 400_usize),
            (0.02, 60),
            (0.25, 7),
            (0.6, 3),
            (0.0, 100),
        ] {
            // `a` only ever appends (fast path); `b` is the identical
            // world but gets a same-value set_background_demand, which
            // forces the sorted solve and re-derives the aggregates.
            let mut a = CpuSim::new(1, 1.0);
            let mut b = CpuSim::new(1, 1.0);
            let mut bg_b = None;
            let mut bg_a = None;
            for _ in 0..n_bg {
                bg_a = Some(a.add_background(0, demand));
                bg_b = Some(b.add_background(0, demand));
            }
            let (bg_a, bg_b) = (bg_a.unwrap(), bg_b.unwrap());
            b.set_background_demand(bg_b, demand);
            // n_finite = 0: fast- vs slow-derived share.
            assert_eq!(
                a.core_utilization(0).to_bits(),
                b.core_utilization(0).to_bits(),
                "utilization diverges at demand={demand} n_bg={n_bg}"
            );
            let pa = a.add_finite(0, 1.0);
            let pb = b.add_finite(0, 1.0);
            assert_eq!(
                a.rate_of(pa).unwrap().to_bits(),
                b.rate_of(pb).unwrap().to_bits(),
                "probe rate diverges at demand={demand} n_bg={n_bg}"
            );
            // Slow solve with the finite probe present.
            b.set_background_demand(bg_b, demand);
            assert_eq!(
                a.rate_of(pa).unwrap().to_bits(),
                b.rate_of(pb).unwrap().to_bits(),
                "probe rate diverges after slow resolve at demand={demand}"
            );
            // Removing a background falls back to the sorted solve and
            // re-establishes the fast regime on both.
            a.remove(bg_a);
            b.remove(bg_b);
            assert_eq!(
                a.rate_of(pa).unwrap().to_bits(),
                b.rate_of(pb).unwrap().to_bits(),
                "probe rate diverges after removal at demand={demand}"
            );
        }
    }

    /// A finite task burning to exactly zero mid-advance leaves the
    /// incremental active count consistent with a from-scratch recount.
    #[test]
    fn burned_out_task_leaves_share_consistent() {
        let mut cpu = CpuSim::new(1, 1.0);
        cpu.add_background(0, 0.2);
        let a = cpu.add_finite(0, 0.4);
        let (t, id) = cpu.next_completion().unwrap();
        assert_eq!(id, a);
        cpu.advance_to(t);
        // `a` is done (possibly a residue below 1e-9); a fresh probe's
        // share must match a world that never ran `a`.
        cpu.reap_done();
        let probe = cpu.add_finite(0, 1.0);
        let got = cpu.rate_of(probe).unwrap();
        let mut fresh = CpuSim::new(1, 1.0);
        fresh.add_background(0, 0.2);
        let p2 = fresh.add_finite(0, 1.0);
        assert_eq!(got.to_bits(), fresh.rate_of(p2).unwrap().to_bits());
    }
}
