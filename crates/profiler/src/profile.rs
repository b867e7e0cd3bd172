//! Profile data model: what the offline phase hands to the scheduler.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Arc;

use orion_desim::time::SimTime;
use orion_gpu::kernel::ResourceProfile;
use orion_gpu::util::UtilSummary;
use orion_json::{json, FromJson, JsonError, ToJson, Value};

/// Profiling results for one kernel, keyed by its id within the workload.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    /// Kernel id (stable within the workload).
    pub kernel_id: u32,
    /// Kernel name (diagnostics only). Interned: shares the
    /// [`orion_gpu::kernel::KernelDesc::name`] allocation when built by the
    /// profiling run, so cloning a profile never copies name bytes.
    pub name: Arc<str>,
    /// Execution time measured on a dedicated device.
    pub duration: SimTime,
    /// Roofline classification (60% rule).
    pub profile: ResourceProfile,
    /// SMs needed, from the occupancy calculation.
    pub sm_needed: u32,
    /// Measured compute-throughput utilization fraction.
    pub compute_util: f64,
    /// Measured memory-bandwidth utilization fraction.
    pub mem_util: f64,
}

/// The offline profile of one workload.
#[derive(Debug, Clone)]
pub struct WorkloadProfile {
    /// Workload label, e.g. `ResNet50-train-bs32`.
    pub label: String,
    /// Per-kernel profiles indexed by kernel id.
    pub kernels: Vec<KernelProfile>,
    /// Solo request latency (inference batch / training iteration),
    /// the reference for `DUR_THRESHOLD` throttling.
    pub request_latency: SimTime,
    /// Average utilizations over the solo run (a Table 1 row).
    pub utilization: UtilSummary,
    /// Peak device-memory use during the solo run, in bytes.
    pub memory_peak: u64,
}

impl WorkloadProfile {
    /// Builds the scheduler's in-memory lookup table. A kernel id listed
    /// twice keeps its last profile.
    pub fn table(&self) -> ProfileTable {
        let mut t = ProfileTable {
            request_latency: self.request_latency,
            ..ProfileTable::default()
        };
        // Ascending ids keep `0..n` dense whatever order the file lists.
        let mut kernels: Vec<&KernelProfile> = self.kernels.iter().collect();
        kernels.sort_by_key(|k| k.kernel_id);
        for k in kernels {
            t.insert(k.clone());
        }
        t
    }

    /// Serializes the profile to a JSON file (the paper's profile-file
    /// handoff between the offline phase and the scheduler).
    pub fn save(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json().to_pretty())
    }

    /// Loads a profile previously written by [`WorkloadProfile::save`].
    pub fn load(path: &Path) -> io::Result<WorkloadProfile> {
        let json = std::fs::read_to_string(path)?;
        let v = orion_json::parse(&json)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        WorkloadProfile::from_json(&v).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

impl ToJson for KernelProfile {
    fn to_json(&self) -> Value {
        json!({
            "kernel_id": self.kernel_id,
            "name": self.name.as_ref(),
            "duration": self.duration.to_json(),
            "profile": self.profile.to_json(),
            "sm_needed": self.sm_needed,
            "compute_util": self.compute_util,
            "mem_util": self.mem_util,
        })
    }
}

impl FromJson for KernelProfile {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        use orion_json::de::*;
        Ok(KernelProfile {
            kernel_id: u32_field(v, "kernel_id")?,
            name: str_field(v, "name")?.into(),
            duration: SimTime::from_json(field(v, "duration")?)?,
            profile: ResourceProfile::from_json(field(v, "profile")?)?,
            sm_needed: u32_field(v, "sm_needed")?,
            compute_util: f64_field(v, "compute_util")?,
            mem_util: f64_field(v, "mem_util")?,
        })
    }
}

impl ToJson for WorkloadProfile {
    fn to_json(&self) -> Value {
        let kernels: Vec<Value> = self.kernels.iter().map(|k| k.to_json()).collect();
        json!({
            "label": &self.label,
            "kernels": kernels,
            "request_latency": self.request_latency.to_json(),
            "utilization": self.utilization.to_json(),
            "memory_peak": self.memory_peak,
        })
    }
}

impl FromJson for WorkloadProfile {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        use orion_json::de::*;
        Ok(WorkloadProfile {
            label: str_field(v, "label")?.to_owned(),
            kernels: array_field(v, "kernels")?
                .iter()
                .map(KernelProfile::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            request_latency: SimTime::from_json(field(v, "request_latency")?)?,
            utilization: UtilSummary::from_json(field(v, "utilization")?)?,
            memory_peak: u64_field(v, "memory_peak")?,
        })
    }
}

/// The scheduler-facing lookup table: kernel id -> profile.
///
/// Workload builders number kernels `0..n`, so the table is a dense vector
/// indexed by kernel id and a lookup is one bounds check. Ids too large for
/// the dense part (more than about twice the number of profiled kernels,
/// e.g. a hand-written profile file with sparse ids) fall back to an ordered
/// map: such a table never allocates by its largest id, and every id still
/// works.
///
/// `Default` yields an empty table: every lookup is a miss, so the scheduler
/// falls back to its conservative unprofiled-kernel path (DESIGN.md §11).
#[derive(Debug, Clone, Default)]
pub struct ProfileTable {
    /// Profiles of ids `0..dense.len()`, indexed by id.
    dense: Vec<Option<KernelProfile>>,
    /// Profiles of ids `>= dense.len()`.
    sparse: BTreeMap<u32, KernelProfile>,
    /// Profiles held by either part.
    len: usize,
    /// Solo request latency of the profiled workload.
    pub request_latency: SimTime,
}

/// Ids the dense part may grow to beyond twice the table's length.
const DENSE_SLACK: usize = 64;

impl ProfileTable {
    /// Looks up a kernel's profile.
    pub fn get(&self, kernel_id: u32) -> Option<&KernelProfile> {
        match self.dense.get(kernel_id as usize) {
            Some(slot) => slot.as_ref(),
            None if self.sparse.is_empty() => None,
            None => self.sparse.get(&kernel_id),
        }
    }

    /// Inserts (or replaces) a kernel's profile. This is how the *online*
    /// profiler admits a learned profile into the scheduler's view at
    /// runtime; offline tables are built in one shot by
    /// [`WorkloadProfile::table`].
    pub fn insert(&mut self, profile: KernelProfile) -> Option<KernelProfile> {
        let id = profile.kernel_id as usize;
        if id >= self.dense.len() && id < 2 * (self.len + 1) + DENSE_SLACK {
            // Grow the dense part over `id`, taking in the sparse ids it
            // now covers.
            self.dense.resize(id + 1, None);
            let rest = self.sparse.split_off(&(profile.kernel_id + 1));
            for (i, p) in std::mem::replace(&mut self.sparse, rest) {
                self.dense[i as usize] = Some(p);
            }
        }
        let old = match self.dense.get_mut(id) {
            Some(slot) => slot.replace(profile),
            None => self.sparse.insert(profile.kernel_id, profile),
        };
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes a kernel's profile (online drift demotion: the kernel goes
    /// back to the conservative unprofiled path until re-admitted).
    pub fn remove(&mut self, kernel_id: u32) -> Option<KernelProfile> {
        let old = match self.dense.get_mut(kernel_id as usize) {
            Some(slot) => slot.take(),
            None => self.sparse.remove(&kernel_id),
        };
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Expected duration of a kernel; zero when unprofiled.
    pub fn duration(&self, kernel_id: u32) -> SimTime {
        self.get(kernel_id).map_or(SimTime::ZERO, |k| k.duration)
    }

    /// Resource profile of a kernel; `Unknown` when unprofiled.
    pub fn resource_profile(&self, kernel_id: u32) -> ResourceProfile {
        self.get(kernel_id)
            .map_or(ResourceProfile::Unknown, |k| k.profile)
    }

    /// SM demand of a kernel; zero when unprofiled.
    pub fn sm_needed(&self, kernel_id: u32) -> u32 {
        self.get(kernel_id).map_or(0, |k| k.sm_needed)
    }

    /// Number of profiled kernels.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no kernels were profiled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All profiles, in ascending kernel-id order.
    fn iter(&self) -> impl Iterator<Item = &KernelProfile> {
        self.dense.iter().flatten().chain(self.sparse.values())
    }

    /// The largest SM demand of any profiled kernel (used as the upper bound
    /// of the `SM_THRESHOLD` binary search, §5.1.1).
    pub fn max_sm_needed(&self) -> u32 {
        self.iter().map(|k| k.sm_needed).max().unwrap_or(0)
    }

    /// Kernel ids present in the table, in ascending order. Callers folding
    /// over entries (e.g. placement demand vectors) iterate in this order,
    /// so their results are deterministic.
    pub fn sorted_ids(&self) -> Vec<u32> {
        self.iter().map(|k| k.kernel_id).collect()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    fn sample_profile() -> WorkloadProfile {
        WorkloadProfile {
            label: "test".into(),
            kernels: vec![
                KernelProfile {
                    kernel_id: 0,
                    name: "conv".into(),
                    duration: SimTime::from_micros(100),
                    profile: ResourceProfile::ComputeBound,
                    sm_needed: 40,
                    compute_util: 0.8,
                    mem_util: 0.2,
                },
                KernelProfile {
                    kernel_id: 1,
                    name: "bn".into(),
                    duration: SimTime::from_micros(30),
                    profile: ResourceProfile::MemoryBound,
                    sm_needed: 20,
                    compute_util: 0.1,
                    mem_util: 0.7,
                },
            ],
            request_latency: SimTime::from_millis(5),
            utilization: orion_gpu::util::UtilSummary {
                compute: 0.3,
                mem_bw: 0.2,
                sm_busy: 0.25,
                elapsed: SimTime::from_millis(5),
            },
            memory_peak: 1 << 30,
        }
    }

    #[test]
    fn table_lookup() {
        let t = sample_profile().table();
        assert_eq!(t.len(), 2);
        assert_eq!(t.duration(0), SimTime::from_micros(100));
        assert_eq!(t.resource_profile(1), ResourceProfile::MemoryBound);
        assert_eq!(t.sm_needed(0), 40);
        assert_eq!(t.max_sm_needed(), 40);
        // Unprofiled kernels degrade gracefully.
        assert_eq!(t.duration(99), SimTime::ZERO);
        assert_eq!(t.resource_profile(99), ResourceProfile::Unknown);
        assert_eq!(t.sm_needed(99), 0);
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join("orion_profile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.json");
        let p = sample_profile();
        p.save(&path).unwrap();
        let back = WorkloadProfile::load(&path).unwrap();
        assert_eq!(back.label, p.label);
        assert_eq!(back.kernels, p.kernels);
        assert_eq!(back.request_latency, p.request_latency);
        std::fs::remove_file(&path).ok();
    }

    fn kernel(id: u32, sm: u32) -> KernelProfile {
        KernelProfile {
            kernel_id: id,
            name: format!("k{id}").into(),
            duration: SimTime::from_nanos(u64::from(id) + 1),
            profile: ResourceProfile::Unknown,
            sm_needed: sm,
            compute_util: 0.0,
            mem_util: 0.0,
        }
    }

    /// Seeded random inserts, replacements and removals over dense, sparse
    /// and huge ids agree with a hash-map model on every accessor.
    #[test]
    fn table_matches_a_map_model() {
        use orion_desim::rng::DetRng;
        for seed in 0..50u64 {
            let mut rng = DetRng::new(seed);
            let mut t = ProfileTable::default();
            let mut model: HashMap<u32, KernelProfile> = HashMap::new();
            for step in 0..500 {
                let id = match rng.uniform_u64(4) {
                    0 | 1 => rng.uniform_u64(100) as u32,
                    2 => rng.uniform_u64(5_000) as u32,
                    _ => u32::MAX - rng.uniform_u64(3) as u32,
                };
                if rng.uniform_u64(4) == 0 {
                    assert_eq!(t.remove(id), model.remove(&id), "seed {seed} step {step}");
                } else {
                    let k = kernel(id, rng.uniform_u64(80) as u32);
                    assert_eq!(t.insert(k.clone()), model.insert(id, k));
                }
                assert_eq!(t.len(), model.len());
                assert_eq!(t.is_empty(), model.is_empty());
                assert_eq!(t.get(id), model.get(&id));
            }
            let mut ids: Vec<u32> = model.keys().copied().collect();
            ids.sort_unstable();
            assert_eq!(t.sorted_ids(), ids, "seed {seed}");
            let max_sm = model.values().map(|k| k.sm_needed).max().unwrap_or(0);
            assert_eq!(t.max_sm_needed(), max_sm);
            for id in 0..6_000 {
                assert_eq!(t.get(id), model.get(&id));
            }
            // The dense part stays proportional to the table, not its ids.
            assert!(t.dense.len() <= 2 * 500 + DENSE_SLACK, "seed {seed}");
        }
    }

    /// A profile file may list sparse or huge kernel ids in any order: the
    /// table falls back to its ordered map for them (no error, no panic,
    /// no allocation by the largest id).
    #[test]
    fn loaded_profile_with_sparse_and_huge_ids_falls_back() {
        let mut p = sample_profile();
        p.kernels = [u32::MAX, 7, 1_000_000_000, 0, 3]
            .iter()
            .map(|&id| kernel(id, id % 97))
            .collect();
        let path = std::env::temp_dir().join(format!("orion_sparse_{}.json", std::process::id()));
        p.save(&path).unwrap();
        let t = WorkloadProfile::load(&path).unwrap().table();
        std::fs::remove_file(&path).ok();
        assert_eq!(t.len(), 5);
        assert_eq!(t.sorted_ids(), vec![0, 3, 7, 1_000_000_000, u32::MAX]);
        assert_eq!(t.sm_needed(u32::MAX), u32::MAX % 97);
        assert_eq!(
            t.duration(1_000_000_000),
            SimTime::from_nanos(1_000_000_001)
        );
        assert!(t.get(8).is_none() && t.get(u32::MAX - 1).is_none());
        let max_sm = p.kernels.iter().map(|k| k.sm_needed).max();
        assert_eq!(Some(t.max_sm_needed()), max_sm);
        assert!(t.dense.len() <= 8, "dense part sized by the largest id");
    }

    #[test]
    fn duplicate_ids_keep_the_last_profile() {
        let mut p = sample_profile();
        p.kernels = vec![kernel(1, 10), kernel(0, 5), kernel(1, 20)];
        let t = p.table();
        assert_eq!(t.len(), 2);
        assert_eq!(t.sm_needed(1), 20);
    }

    #[test]
    fn load_missing_file_errors() {
        let err = WorkloadProfile::load(Path::new("/nonexistent/orion.json"));
        assert!(err.is_err());
    }
}
