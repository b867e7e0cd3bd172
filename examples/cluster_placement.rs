//! Cluster placement (the paper's §7 "cluster manager co-design",
//! implemented): the fleet control plane uses offline compute/memory
//! profiles to put jobs with complementary demands on the same GPU. A static
//! cluster is a one-epoch fleet run in which every job arrives at time 0 and
//! stays to the horizon. Collocation runs then check that the profile-driven
//! placement beats a naive one.
//!
//! Run with: `cargo run --release --example cluster_placement`

use orion::core::cluster::dedicated_refs_serial;
use orion::core::placement::{complementarity, demand_vector};
use orion::prelude::*;
use orion::workloads::models::llm::llm_decode_step;

/// Runs `clients` as a static cluster of `gpus` GPUs, at most two jobs per
/// GPU, with Orion on each. Returns the trace ids on each occupied GPU and
/// the fleet report.
fn static_cluster(clients: Vec<ClientSpec>, gpus: usize) -> (Vec<Vec<usize>>, FleetReport) {
    let mut cfg = FleetConfig::new(gpus, 1);
    cfg.epoch = RunConfig::paper_default().horizon;
    cfg.max_jobs_per_gpu = 2;
    let trace = FleetTrace::fixed(clients, cfg.horizon());
    let dedicated = dedicated_refs_serial(&trace, &cfg).expect("dedicated references run");
    let mut sim = FleetSim::new(trace, cfg, dedicated).expect("offline profiling succeeds");
    let specs = sim.next_epoch().expect("one epoch");
    let groups = specs.iter().map(|s| s.jobs.clone()).collect();
    let results = specs
        .into_iter()
        .map(|s| {
            let r = s.run();
            (s, r)
        })
        .collect();
    sim.absorb(results);
    (groups, sim.into_report())
}

fn total_normalized(r: &FleetReport) -> f64 {
    r.jobs.iter().map(|j| j.normalized).sum()
}

fn main() {
    // Four jobs to place on two GPUs.
    let jobs = vec![
        inference_workload(ModelKind::Bert),        // compute-heavy
        llm_decode_step(),                          // memory-heavy
        inference_workload(ModelKind::ResNet101),   // memory-leaning vision
        inference_workload(ModelKind::Transformer), // compute-leaning NLP
    ];
    println!("job demand vectors (compute, memory):");
    for j in &jobs {
        let (c, m) = demand_vector(j);
        println!("  {:<22} ({c:.2}, {m:.2})", j.label());
    }
    let mk = |i: usize, hp: bool| {
        let w = jobs[i].clone();
        if hp {
            ClientSpec::high_priority(w, ArrivalProcess::ClosedLoop)
        } else {
            ClientSpec::best_effort(w, ArrivalProcess::ClosedLoop)
        }
    };

    // Profile-driven: BERT and ResNet-101 are the high-priority jobs and
    // arrive first, so the one-HP-per-GPU rule spreads them; each
    // best-effort job then goes to the GPU whose resident complements it
    // best.
    let arrivals = [(0, true), (2, true), (1, false), (3, false)];
    let clients = arrivals.iter().map(|&(i, hp)| mk(i, hp)).collect();
    let (groups, profile_driven) = static_cluster(clients, 2);
    println!("\nprofile-driven placement (FleetSim, complementarity packing):");
    for g in &groups {
        let (a, b) = (arrivals[g[0]].0, arrivals[g[1]].0);
        println!(
            "  GPU: {} + {}  (complementarity {:.2})",
            jobs[a].label(),
            jobs[b].label(),
            complementarity(&jobs[a], &jobs[b])
        );
    }
    println!("\nper-job results (profile-driven, Orion on each GPU):");
    for j in &profile_driven.jobs {
        println!(
            "  {:<22} {:>6.1} req/s ({:>3.0}% of dedicated), p99 {:.1} ms",
            j.label,
            j.throughput,
            100.0 * j.normalized,
            j.p99.as_millis_f64()
        );
    }
    println!(
        "profile-driven: total normalized throughput = {:.2} (max 4.0)",
        total_normalized(&profile_driven)
    );

    // Naive adjacent pairing for contrast: each pair is its own one-GPU
    // cluster, so the placer has no choice; the first job of each pair is
    // high-priority.
    let naive_norm: f64 = [(0, 2), (1, 3)]
        .iter()
        .map(|&(a, b)| total_normalized(&static_cluster(vec![mk(a, true), mk(b, false)], 1).1))
        .sum();
    println!("naive (adjacent): total normalized throughput = {naive_norm:.2} (max 4.0)");

    println!("\nPairing compute-heavy with memory-heavy jobs preserves more of each");
    println!("job's dedicated throughput than pairing same-profile jobs.");
}
