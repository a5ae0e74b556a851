//! The Docker-like container runtime.

use std::collections::BTreeMap;

use simcore::memory::OutOfMemory;
use simcore::{CostModel, MemoryPressure, SimRng, SimTime};

use crate::image::ContainerImage;

/// Identifies a running container.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ContainerId(pub u64);

/// Container runtime errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContainerError {
    /// Host memory exhausted — the condition that ends the paper's
    /// Figure 10 Docker run at ~3,000 containers.
    OutOfMemory(OutOfMemory),
    /// Unknown container.
    NotFound,
    /// Container is not in the right state (pause of a paused container).
    BadState,
}

impl std::fmt::Display for ContainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContainerError::OutOfMemory(e) => write!(f, "{e}"),
            ContainerError::NotFound => write!(f, "no such container"),
            ContainerError::BadState => write!(f, "container in wrong state"),
        }
    }
}

impl std::error::Error for ContainerError {}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ContainerState {
    Running,
    Paused,
}

#[derive(Clone, Debug)]
struct Container {
    state: ContainerState,
    mem: u64,
}

/// Number of container records per daemon metadata allocation block;
/// crossing a block boundary triggers a visible reallocation spike
/// ("the spikes in that curve coincide with large jumps in memory
/// consumption", paper §6.1).
const DAEMON_BLOCK: u64 = 512;

/// A Docker-like runtime on a bare-metal Linux host.
pub struct DockerRuntime {
    image: ContainerImage,
    containers: BTreeMap<ContainerId, Container>,
    /// Host memory (kernel + daemon reserved at construction).
    pub memory: MemoryPressure,
    next_id: u64,
    started_total: u64,
    rng: SimRng,
}

const MIB: u64 = 1 << 20;

impl DockerRuntime {
    /// Creates a runtime for `image` on a host with `mem_bytes` RAM.
    /// 1.5 GiB is reserved for the kernel and the Docker daemon.
    pub fn new(image: ContainerImage, mem_bytes: u64, seed: u64) -> DockerRuntime {
        DockerRuntime {
            image,
            containers: BTreeMap::new(),
            memory: MemoryPressure::new(mem_bytes, 1536 * MIB),
            next_id: 1,
            started_total: 0,
            rng: SimRng::new(seed),
        }
    }

    /// Running + paused containers.
    pub fn count(&self) -> usize {
        self.containers.len()
    }

    /// `docker create`: daemon RPC, image layer mounts, bookkeeping.
    /// Returns the latency of the create step.
    pub fn create_time(&mut self, cost: &CostModel) -> SimTime {
        let mut dt = cost.docker_daemon_rpc;
        dt += cost.docker_layer_mount * self.image.layer_sizes.len() as u64;
        dt += cost.docker_daemon_per_container * self.count() as u64;
        self.rng.jitter(dt, 0.08)
    }

    /// `docker start`: namespaces, cgroups, veth, exec of the app.
    fn start_time(&mut self, cost: &CostModel) -> Result<SimTime, ContainerError> {
        let mut dt = cost.docker_namespace_setup + cost.docker_cgroup_setup + cost.docker_veth_setup;
        dt += SimTime::from_secs_f64(self.image.app_start_work);
        dt += cost.docker_daemon_per_container * self.count() as u64;
        // Daemon metadata reallocation spike at block boundaries.
        if self.started_total > 0 && self.started_total.is_multiple_of(DAEMON_BLOCK) {
            let blocks = self.started_total / DAEMON_BLOCK;
            dt += SimTime::from_millis_f64(120.0) * blocks;
        }
        // Memory-touching work slows under reclaim pressure.
        let pressure = self.memory.factor();
        if pressure.is_finite() {
            dt = dt.scale(pressure.min(50.0));
        }
        Ok(self.rng.jitter(dt, 0.08))
    }

    /// `docker run`: create + start. Returns the container id and the
    /// total latency, or an error when host memory is exhausted.
    pub fn run(
        &mut self,
        cost: &CostModel,
    ) -> Result<(ContainerId, SimTime), ContainerError> {
        let create = self.create_time(cost);
        self.memory
            .allocate(self.image.mem_per_instance)
            .map_err(ContainerError::OutOfMemory)?;
        let start = match self.start_time(cost) {
            Ok(t) => t,
            Err(e) => {
                self.memory.release(self.image.mem_per_instance);
                return Err(e);
            }
        };
        let id = ContainerId(self.next_id);
        self.next_id += 1;
        self.started_total += 1;
        self.containers.insert(
            id,
            Container {
                state: ContainerState::Running,
                mem: self.image.mem_per_instance,
            },
        );
        Ok((id, create + start))
    }

    /// `docker pause`: freezes the container's cgroup.
    pub fn pause(&mut self, cost: &CostModel) -> SimTime {
        cost.docker_daemon_rpc.scale(0.4)
    }

    /// Marks a container paused.
    pub fn pause_container(&mut self, id: ContainerId) -> Result<(), ContainerError> {
        let c = self.containers.get_mut(&id).ok_or(ContainerError::NotFound)?;
        if c.state != ContainerState::Running {
            return Err(ContainerError::BadState);
        }
        c.state = ContainerState::Paused;
        Ok(())
    }

    /// Unpauses a paused container.
    pub fn unpause_container(&mut self, id: ContainerId) -> Result<(), ContainerError> {
        let c = self.containers.get_mut(&id).ok_or(ContainerError::NotFound)?;
        if c.state != ContainerState::Paused {
            return Err(ContainerError::BadState);
        }
        c.state = ContainerState::Running;
        Ok(())
    }

    /// `docker rm -f`: stops and removes a container, freeing memory.
    pub fn remove(&mut self, id: ContainerId) -> Result<(), ContainerError> {
        let c = self.containers.remove(&id).ok_or(ContainerError::NotFound)?;
        self.memory.release(c.mem);
        Ok(())
    }

    /// Total container memory in use (excluding the reserved base),
    /// the quantity Figure 14 plots.
    pub fn container_memory(&self) -> u64 {
        self.containers.values().map(|c| c.mem).sum()
    }

    /// Aggregate idle CPU demand of running containers, in cores.
    pub fn idle_cpu_demand(&self) -> f64 {
        self.containers
            .values()
            .filter(|c| c.state == ContainerState::Running)
            .count() as f64
            * self.image.idle_demand
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1 << 30;

    fn rt() -> (DockerRuntime, CostModel) {
        (
            DockerRuntime::new(ContainerImage::noop(), 128 * GIB, 1),
            CostModel::paper_defaults(),
        )
    }

    #[test]
    fn first_container_starts_in_about_200ms() {
        let (mut rt, cost) = rt();
        let (_, dt) = rt.run(&cost).unwrap();
        let ms = dt.as_millis_f64();
        assert!((100.0..400.0).contains(&ms), "start took {ms} ms");
    }

    #[test]
    fn start_time_grows_mildly_with_density() {
        let (mut rt, cost) = rt();
        let (_, first) = rt.run(&cost).unwrap();
        let mut last = SimTime::ZERO;
        for _ in 0..999 {
            let (_, dt) = rt.run(&cost).unwrap();
            last = dt;
        }
        assert!(last > first);
        // On a log-scale plot the growth to 1,000 is modest (paper Fig 4:
        // "creation time does not depend on the number of existing
        // containers" at this scale).
        assert!(last < first.scale(4.0), "first {first} last {last}");
    }

    #[test]
    fn memory_wall_stops_the_run_near_3000() {
        let (mut rt, cost) = rt();
        let mut n = 0u32;
        loop {
            match rt.run(&cost) {
                Ok(_) => n += 1,
                Err(ContainerError::OutOfMemory(_)) => break,
                Err(e) => panic!("unexpected error {e:?}"),
            }
            assert!(n < 10_000, "memory wall never hit");
        }
        assert!(
            (2_500..4_500).contains(&n),
            "Docker should die around 3,000 containers, got {n}"
        );
    }

    #[test]
    fn pause_unpause_cycle() {
        let (mut rt, cost) = rt();
        let (id, _) = rt.run(&cost).unwrap();
        rt.pause_container(id).unwrap();
        assert_eq!(rt.pause_container(id).unwrap_err(), ContainerError::BadState);
        assert_eq!(rt.idle_cpu_demand(), 0.0);
        rt.unpause_container(id).unwrap();
        assert!(rt.idle_cpu_demand() > 0.0);
    }

    #[test]
    fn remove_frees_memory() {
        let (mut rt, cost) = rt();
        let before = rt.memory.used();
        let (id, _) = rt.run(&cost).unwrap();
        assert!(rt.memory.used() > before);
        rt.remove(id).unwrap();
        assert_eq!(rt.memory.used(), before);
        assert_eq!(rt.remove(id).unwrap_err(), ContainerError::NotFound);
    }

    #[test]
    fn container_memory_is_linear_in_count() {
        let (mut rt, cost) = rt();
        for _ in 0..10 {
            rt.run(&cost).unwrap();
        }
        assert_eq!(rt.container_memory(), 10 * ContainerImage::noop().mem_per_instance);
    }

    #[test]
    fn micropython_fleet_memory_matches_figure_14() {
        let cost = CostModel::paper_defaults();
        let mut rt = DockerRuntime::new(ContainerImage::micropython(), 128 * GIB, 2);
        for _ in 0..1000 {
            rt.run(&cost).unwrap();
        }
        let gb = rt.container_memory() as f64 / (1u64 << 30) as f64;
        assert!((4.0..6.5).contains(&gb), "1,000 Micropython containers ≈ 5 GB, got {gb:.1}");
    }
}
