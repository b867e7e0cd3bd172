//! Cluster-level placement (paper §7 "cluster manager co-design" extension).
//!
//! Given a set of jobs with offline profiles, the cluster manager can place
//! jobs with *complementary* compute/memory profiles on the same GPU to
//! maximize utilization and minimize interference. [`FleetPlacer`] is an
//! incremental *k-way* packer over a complementarity score — a GPU hosts at
//! most one high-priority job plus N best-effort jobs subject to the memory
//! ledger — used by the fleet control plane ([`crate::cluster::FleetSim`])
//! where jobs arrive and depart over time.
//!
//! All tie-breaks are explicit (score, then lowest job/GPU index) so
//! placement is a pure function of its inputs: the fleet determinism tests
//! replay the same trace at 1/4/7 runner threads and require byte-identical
//! output.

use orion_profiler::ProfileTable;
use orion_workloads::model::Workload;

/// Time-weighted average (compute, memory) demand of a workload's kernels.
pub fn demand_vector(w: &Workload) -> (f64, f64) {
    let mut c = 0.0;
    let mut m = 0.0;
    let mut t = 0.0;
    for k in w.kernels() {
        let d = k.solo_duration.as_secs_f64();
        c += d * k.compute_util;
        m += d * k.mem_util;
        t += d;
    }
    if t <= 0.0 {
        (0.0, 0.0)
    } else {
        (c / t, m / t)
    }
}

/// Time-weighted (compute, memory) demand out of a *learned* profile table
/// (PR 5 online profiling), for re-placement decisions that should reflect
/// measured behavior rather than the static workload description.
///
/// Returns `None` when the table has no kernel entries (cold start), so the
/// caller can fall back to [`demand_vector`]. Iterates kernels in id order
/// ([`ProfileTable::sorted_ids`]), so the floating-point sums are
/// deterministic.
pub fn demand_from_profiles(table: &ProfileTable) -> Option<(f64, f64)> {
    let ids = table.sorted_ids();
    if ids.is_empty() {
        return None;
    }
    let mut c = 0.0;
    let mut m = 0.0;
    let mut t = 0.0;
    // `sorted_ids` and `get` come from the same table, so every lookup
    // should hit; tolerate a miss anyway rather than panicking mid-fleet.
    for k in ids.into_iter().filter_map(|id| table.get(id)) {
        let d = k.duration.as_secs_f64();
        c += d * k.compute_util;
        m += d * k.mem_util;
        t += d;
    }
    if t <= 0.0 {
        None
    } else {
        Some((c / t, m / t))
    }
}

/// Complementarity of two demand vectors: high when one is compute-leaning
/// and the other memory-leaning, low when both press the same resource.
///
/// Score = 1 - (overlap of normalized demand directions); in `[0, 1]`.
pub fn demand_complementarity(a: (f64, f64), b: (f64, f64)) -> f64 {
    let (ca, ma) = a;
    let (cb, mb) = b;
    let na = (ca * ca + ma * ma).sqrt();
    let nb = (cb * cb + mb * mb).sqrt();
    if na <= 0.0 || nb <= 0.0 {
        return 1.0;
    }
    // Cosine similarity of the demand vectors; complementarity inverts it.
    let cos = ((ca * cb + ma * mb) / (na * nb)).clamp(0.0, 1.0);
    1.0 - cos
}

/// [`demand_complementarity`] over two workloads' static demand vectors.
pub fn complementarity(a: &Workload, b: &Workload) -> f64 {
    demand_complementarity(demand_vector(a), demand_vector(b))
}

/// What the k-way packer needs to know about one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PackJob {
    /// Memory footprint in bytes (charged against the GPU ledger).
    pub mem: u64,
    /// (compute, memory) demand vector used for complementarity scoring.
    pub demand: (f64, f64),
    /// High-priority job: at most one per GPU.
    pub hp: bool,
}

#[derive(Debug, Clone, Default)]
struct GpuSlot {
    free_mem: u64,
    residents: Vec<usize>,
    hp: Option<usize>,
    /// Offline (dead or quarantined) GPUs accept no placements. Residents
    /// are evacuated by the fleet control plane, not by the placer.
    offline: bool,
}

/// Incremental k-way packer over a fixed fleet of identical GPUs.
///
/// Invariants per GPU: at most `max_jobs` residents, at most one
/// high-priority resident, and the sum of resident footprints fits in
/// `gpu_memory`. Candidate GPUs are scored by mean complementarity between
/// the incoming job's demand vector and the residents' demand vectors;
/// occupied GPUs are preferred over empty ones (pack first, spread only when
/// forced), ties resolve to the lowest GPU index.
#[derive(Debug, Clone)]
pub struct FleetPlacer {
    gpu_memory: u64,
    max_jobs: usize,
    gpus: Vec<GpuSlot>,
    /// Job id -> (gpu, job summary) for current residents.
    placed: std::collections::BTreeMap<usize, (usize, PackJob)>,
}

impl FleetPlacer {
    /// A placer over `gpus` empty devices of `gpu_memory` bytes each,
    /// hosting at most `max_jobs_per_gpu` jobs per device.
    pub fn new(gpus: usize, gpu_memory: u64, max_jobs_per_gpu: usize) -> Self {
        FleetPlacer {
            gpu_memory,
            max_jobs: max_jobs_per_gpu.max(1),
            gpus: vec![
                GpuSlot {
                    free_mem: gpu_memory,
                    residents: Vec::new(),
                    hp: None,
                    offline: false,
                };
                gpus
            ],
            placed: std::collections::BTreeMap::new(),
        }
    }

    fn fits(&self, slot: &GpuSlot, job: &PackJob) -> bool {
        !slot.offline
            && slot.free_mem >= job.mem
            && slot.residents.len() < self.max_jobs
            && !(job.hp && slot.hp.is_some())
    }

    /// Mean complementarity of `demand` against a GPU's residents
    /// (1.0 for an empty GPU).
    pub fn score_against(&self, gpu: usize, demand: (f64, f64)) -> f64 {
        let slot = &self.gpus[gpu];
        if slot.residents.is_empty() {
            return 1.0;
        }
        let sum: f64 = slot
            .residents
            .iter()
            .map(|r| demand_complementarity(demand, self.placed[r].1.demand))
            .sum();
        sum / slot.residents.len() as f64
    }

    /// Places job `id` on the best complementary GPU with capacity, skipping
    /// GPU `exclude` if given. Occupied GPUs win over empty ones; among
    /// occupied candidates the highest mean complementarity wins, ties to
    /// the lowest GPU index. Returns the chosen GPU, or `None` when no GPU
    /// can host the job right now.
    ///
    /// # Panics
    ///
    /// Panics when `id` is already placed.
    pub fn try_place(&mut self, id: usize, job: PackJob, exclude: Option<usize>) -> Option<usize> {
        assert!(!self.placed.contains_key(&id), "job {id} already placed");
        if job.mem > self.gpu_memory {
            return None;
        }
        let mut best_occupied: Option<(f64, usize)> = None;
        let mut first_empty: Option<usize> = None;
        for (g, slot) in self.gpus.iter().enumerate() {
            if Some(g) == exclude || !self.fits(slot, &job) {
                continue;
            }
            if slot.residents.is_empty() {
                if first_empty.is_none() {
                    first_empty = Some(g);
                }
            } else {
                let score = self.score_against(g, job.demand);
                // Strictly-greater keeps the lowest index on ties.
                if best_occupied.is_none_or(|(s, _)| score > s) {
                    best_occupied = Some((score, g));
                }
            }
        }
        let gpu = best_occupied.map(|(_, g)| g).or(first_empty)?;
        self.force_place(id, job, gpu);
        Some(gpu)
    }

    /// Places job `id` on a specific GPU (used to undo a tentative removal).
    ///
    /// # Panics
    ///
    /// Panics when the job does not fit or `id` is already placed.
    pub fn force_place(&mut self, id: usize, job: PackJob, gpu: usize) {
        assert!(!self.placed.contains_key(&id), "job {id} already placed");
        let slot = &mut self.gpus[gpu];
        assert!(
            !slot.offline
                && slot.free_mem >= job.mem
                && slot.residents.len() < self.max_jobs
                && !(job.hp && slot.hp.is_some()),
            "job {id} does not fit on gpu {gpu}"
        );
        slot.free_mem -= job.mem;
        slot.residents.push(id);
        if job.hp {
            slot.hp = Some(id);
        }
        self.placed.insert(id, (gpu, job));
    }

    /// Removes job `id`, freeing its slot. Returns the GPU it was on.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not placed.
    pub fn remove(&mut self, id: usize) -> usize {
        let (gpu, job) = self.placed.remove(&id).expect("job not placed");
        let slot = &mut self.gpus[gpu];
        slot.free_mem += job.mem;
        slot.residents.retain(|&r| r != id);
        if slot.hp == Some(id) {
            slot.hp = None;
        }
        gpu
    }

    /// Replaces the demand vector used to score job `id` in future
    /// placements (fed by the online-learned profile tables).
    pub fn update_demand(&mut self, id: usize, demand: (f64, f64)) {
        if let Some(entry) = self.placed.get_mut(&id) {
            entry.1.demand = demand;
        }
    }

    /// The GPU hosting job `id`, if placed.
    pub fn gpu_of(&self, id: usize) -> Option<usize> {
        self.placed.get(&id).map(|&(g, _)| g)
    }

    /// The stored job summary for a resident.
    pub fn job(&self, id: usize) -> Option<&PackJob> {
        self.placed.get(&id).map(|(_, j)| j)
    }

    /// Resident job ids on a GPU, in placement order.
    pub fn residents(&self, gpu: usize) -> &[usize] {
        &self.gpus[gpu].residents
    }

    /// The high-priority resident of a GPU, if any.
    pub fn hp_of(&self, gpu: usize) -> Option<usize> {
        self.gpus[gpu].hp
    }

    /// Number of GPUs with at least one resident.
    pub fn used_gpus(&self) -> usize {
        self.gpus.iter().filter(|g| !g.residents.is_empty()).count()
    }

    /// Number of GPUs in the fleet.
    pub fn gpus(&self) -> usize {
        self.gpus.len()
    }

    /// Marks a GPU offline (dead or quarantined) or back online. Offline
    /// GPUs accept no placements; existing residents stay until the fleet
    /// control plane evacuates them with [`FleetPlacer::remove`].
    pub fn set_offline(&mut self, gpu: usize, offline: bool) {
        self.gpus[gpu].offline = offline;
    }

    /// True when the GPU is currently offline.
    pub fn is_offline(&self, gpu: usize) -> bool {
        self.gpus[gpu].offline
    }

    /// Number of GPUs currently accepting placements.
    pub fn live_gpus(&self) -> usize {
        self.gpus.iter().filter(|g| !g.offline).count()
    }

    /// Free memory on a GPU, in bytes.
    pub fn free_mem(&self, gpu: usize) -> u64 {
        self.gpus[gpu].free_mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_workloads::registry::inference_workload;
    use orion_workloads::ModelKind;

    #[test]
    fn demand_vectors_reflect_model_character() {
        let bert = inference_workload(ModelKind::Bert);
        let llm = inference_workload(ModelKind::LlmDecode);
        let (cb, mb) = demand_vector(&bert);
        let (cl, ml) = demand_vector(&llm);
        assert!(cb > mb, "BERT inference is compute-leaning");
        assert!(ml > cl, "LLM decode is memory-leaning");
    }

    #[test]
    fn complementarity_prefers_opposite_jobs() {
        let bert = inference_workload(ModelKind::Bert);
        let llm = inference_workload(ModelKind::LlmDecode);
        let bert2 = inference_workload(ModelKind::Bert);
        assert!(complementarity(&bert, &llm) > complementarity(&bert, &bert2));
    }

    #[test]
    fn profile_demand_matches_static_demand() {
        let bert = inference_workload(ModelKind::Bert);
        let table = orion_profiler::profile_workload(&bert, &orion_gpu::spec::GpuSpec::v100_16gb())
            .unwrap()
            .table();
        let (c, m) = demand_from_profiles(&table).expect("profiled table has kernels");
        let (cs, ms) = demand_vector(&bert);
        // Offline profiling measures the same solo durations the static
        // vector integrates, so the two must agree closely.
        assert!((c - cs).abs() < 0.05, "compute {c} vs {cs}");
        assert!((m - ms).abs() < 0.05, "memory {m} vs {ms}");
        assert!(demand_from_profiles(&ProfileTable::default()).is_none());
    }

    #[test]
    fn placer_churn_round_trip() {
        let gib = 1u64 << 30;
        let mut placer = FleetPlacer::new(2, 16 * gib, 4);
        let job = |hp| PackJob {
            mem: 4 * gib,
            demand: (0.6, 0.4),
            hp,
        };
        let g0 = placer.try_place(10, job(true), None).unwrap();
        assert_eq!(g0, 0);
        // Second HP job cannot share GPU 0.
        let g1 = placer.try_place(11, job(true), None).unwrap();
        assert_eq!(g1, 1);
        // BE job packs onto the first occupied GPU (tie on score).
        let g2 = placer.try_place(12, job(false), None).unwrap();
        assert_eq!(g2, 0);
        assert_eq!(placer.used_gpus(), 2);
        assert_eq!(placer.remove(10), 0);
        assert_eq!(placer.hp_of(0), None);
        // Freed HP slot is reusable.
        assert_eq!(placer.try_place(13, job(true), None), Some(0));
        // Excluding every GPU with room leaves the job unplaced.
        let mut full = FleetPlacer::new(1, 16 * gib, 1);
        full.force_place(0, job(false), 0);
        assert_eq!(full.try_place(1, job(false), None), None);

        // A static job set placed HP-first, one GPU per job available: the
        // HP jobs spread, and every GPU holds at most one HP job, at most
        // three residents, and no more memory than it has. A job larger
        // than a device places nowhere.
        let sized = |mem, demand, hp| PackJob { mem, demand, hp };
        let jobs = [
            sized(2 * gib, (0.8, 0.2), true),
            sized(2 * gib, (0.8, 0.2), true),
            sized(6 * gib, (0.1, 0.9), false),
            sized(6 * gib, (0.1, 0.9), false),
            sized(5 * gib, (0.7, 0.3), false),
            sized(20 * gib, (0.5, 0.5), false),
        ];
        let mut packed = FleetPlacer::new(jobs.len(), 16 * gib, 3);
        for (id, &j) in jobs.iter().enumerate() {
            assert_eq!(packed.try_place(id, j, None).is_some(), id < 5, "job {id}");
        }
        assert_ne!(packed.gpu_of(0), packed.gpu_of(1));
        for g in 0..packed.gpus() {
            let residents = packed.residents(g);
            assert!(residents.len() <= 3);
            let mem: u64 = residents.iter().map(|&i| jobs[i].mem).sum();
            assert_eq!(packed.free_mem(g), 16 * gib - mem);
            assert!(residents.iter().filter(|&&i| jobs[i].hp).count() <= 1);
        }
    }

    #[test]
    fn offline_gpus_accept_no_placements() {
        let gib = 1u64 << 30;
        let job = PackJob {
            mem: 4 * gib,
            demand: (0.6, 0.4),
            hp: false,
        };
        let mut placer = FleetPlacer::new(2, 16 * gib, 4);
        placer.set_offline(0, true);
        assert!(placer.is_offline(0));
        assert_eq!(placer.live_gpus(), 1);
        // The packer must route around the offline device.
        assert_eq!(placer.try_place(0, job, None), Some(1));
        placer.set_offline(1, true);
        assert_eq!(placer.live_gpus(), 0);
        assert_eq!(placer.try_place(1, job, None), None);
        // Residents on a newly-offline GPU remain until evacuated, and the
        // ledger round-trips through remove().
        assert_eq!(placer.residents(1), &[0]);
        assert_eq!(placer.free_mem(1), 12 * gib);
        assert_eq!(placer.remove(0), 1);
        assert_eq!(placer.free_mem(1), 16 * gib);
        // Back online, placements resume.
        placer.set_offline(1, false);
        assert_eq!(placer.try_place(2, job, None), Some(1));
    }
}
