//! Load generation and multi-tenant scheduling (§3.10).
//!
//! The load generator turns a per-model request profile (arrival
//! distribution, count) into a deterministic request stream. The scheduler
//! drains per-tenant queues, groups same-model requests into batches up to
//! a maximum batch size ("creating a batch of requests that use the same
//! DNN ... while maximizing batching"), and assigns core partitions under a
//! temporal- or spatial-sharing policy. Its output is a schedule of jobs
//! that TOGSim executes with compiled TOGs from the TOG cache.
//!
//! # Examples
//!
//! ```
//! use ptsim_common::Cycle;
//! use ptsim_scheduler::{ArrivalDist, LoadGenerator, RequestProfile, Scheduler, SharingPolicy};
//!
//! let profile = RequestProfile::new("bert", ArrivalDist::Uniform { interval: 1000 }, 8);
//! let requests = LoadGenerator::new(42).generate(&[profile]);
//! let schedule = Scheduler::new(SharingPolicy::Temporal, 2, 4).schedule(&requests);
//! assert!(!schedule.is_empty());
//! # let _ = Cycle::ZERO;
//! ```

use ptsim_common::rng::{splitmix, Rng};
use ptsim_common::{Cycle, TenantId};

/// Request inter-arrival distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalDist {
    /// All requests arrive at time zero (offline/batch serving).
    AtOnce,
    /// Fixed inter-arrival interval in cycles.
    Uniform {
        /// Cycles between arrivals.
        interval: u64,
    },
    /// Poisson arrivals with the given mean inter-arrival time in cycles.
    Poisson {
        /// Mean cycles between arrivals.
        mean_interval: f64,
    },
}

/// One model's request stream description (§3.10 "DNN request profile").
#[derive(Debug, Clone, PartialEq)]
pub struct RequestProfile {
    /// Model name (the TOG cache key together with the batch size).
    pub model: String,
    /// Arrival process.
    pub arrivals: ArrivalDist,
    /// Number of requests.
    pub count: usize,
}

impl RequestProfile {
    /// Creates a profile.
    pub fn new(model: impl Into<String>, arrivals: ArrivalDist, count: usize) -> Self {
        RequestProfile { model: model.into(), arrivals, count }
    }
}

/// One inference request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Tenant (profile) index.
    pub tenant: TenantId,
    /// Model name.
    pub model: String,
    /// Arrival time.
    pub arrival: Cycle,
}

/// Deterministic request-stream generator.
#[derive(Debug, Clone)]
pub struct LoadGenerator {
    seed: u64,
}

impl LoadGenerator {
    /// Creates a generator with a seed (all randomness is reproducible).
    pub fn new(seed: u64) -> Self {
        LoadGenerator { seed }
    }

    /// The independent RNG seed of tenant `t`: a SplitMix64 finalizer over
    /// the generator seed and the tenant index. Each tenant owning its own
    /// stream keeps profiles decoupled — editing tenant 0's request count
    /// must never reshuffle tenant 1's Poisson arrivals (the old code
    /// threaded one RNG through every profile in order, so it did).
    fn tenant_seed(&self, t: usize) -> u64 {
        splitmix(self.seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Generates the merged, arrival-sorted request stream. Tenant streams
    /// are mutually independent: tenant `t`'s arrivals depend only on the
    /// generator seed, `t`, and tenant `t`'s own profile.
    pub fn generate(&self, profiles: &[RequestProfile]) -> Vec<Request> {
        let mut requests = Vec::new();
        for (t, profile) in profiles.iter().enumerate() {
            let mut rng = Rng::seed_from_u64(self.tenant_seed(t));
            let mut at = 0u64;
            for _ in 0..profile.count {
                let arrival = match profile.arrivals {
                    ArrivalDist::AtOnce => 0,
                    ArrivalDist::Uniform { interval } => {
                        let a = at;
                        at += interval;
                        a
                    }
                    ArrivalDist::Poisson { mean_interval } => {
                        // Like Uniform, the first request arrives at 0 and
                        // the sampled gaps separate consecutive arrivals.
                        let a = at;
                        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                        at += (-u.ln() * mean_interval).ceil() as u64;
                        a
                    }
                };
                requests.push(Request {
                    tenant: TenantId::new(t as u32),
                    model: profile.model.clone(),
                    arrival: Cycle::new(arrival),
                });
            }
        }
        requests.sort_by_key(|r| (r.arrival, r.tenant));
        requests
    }
}

/// How tenants share the NPU (§3.10 "temporal sharing and spatial sharing").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharingPolicy {
    /// Each batch uses all cores; batches of different tenants interleave
    /// over time.
    Temporal,
    /// The cores are partitioned: each tenant owns a fixed subset.
    Spatial,
}

/// One scheduled batch, ready to submit to TOGSim.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledJob {
    /// Tenant the batch belongs to.
    pub tenant: TenantId,
    /// Model name (with the batch size, the TOG-cache key).
    pub model: String,
    /// Requests batched together.
    pub batch: usize,
    /// Earliest start (the latest arrival in the batch).
    pub start_at: Cycle,
    /// First core of the partition.
    pub core_offset: usize,
    /// Cores in the partition.
    pub cores: usize,
}

/// The batching, partitioning scheduler.
#[derive(Debug, Clone, Copy)]
pub struct Scheduler {
    policy: SharingPolicy,
    total_cores: usize,
    max_batch: usize,
}

impl Scheduler {
    /// Creates a scheduler for `total_cores` with a maximum batch size.
    pub fn new(policy: SharingPolicy, total_cores: usize, max_batch: usize) -> Self {
        Scheduler { policy, total_cores: total_cores.max(1), max_batch: max_batch.max(1) }
    }

    /// Groups requests into batched jobs with core assignments.
    ///
    /// Requests of the same tenant and model are merged (up to the maximum
    /// batch size) when their arrivals coincide or overlap; a batch starts
    /// when its last member has arrived.
    pub fn schedule(&self, requests: &[Request]) -> Vec<ScheduledJob> {
        self.schedule_with_tracer(requests, None)
    }

    /// Like [`Scheduler::schedule`], additionally recording one dispatch
    /// event per scheduled batch on the tracer's scheduler track.
    pub fn schedule_with_tracer(
        &self,
        requests: &[Request],
        tracer: Option<&ptsim_trace::Tracer>,
    ) -> Vec<ScheduledJob> {
        let tenants = requests.iter().map(|r| r.tenant.raw() as usize + 1).max().unwrap_or(0);
        let mut jobs = Vec::new();
        for t in 0..tenants {
            let mine: Vec<&Request> = requests.iter().filter(|r| r.tenant.index() == t).collect();
            let (core_offset, cores) = match self.policy {
                SharingPolicy::Temporal => (0, self.total_cores),
                SharingPolicy::Spatial => {
                    let per = (self.total_cores / tenants.max(1)).max(1);
                    ((t * per).min(self.total_cores - 1), per)
                }
            };
            let mut i = 0;
            while i < mine.len() {
                let end = (i + self.max_batch).min(mine.len());
                let batch = &mine[i..end];
                jobs.push(ScheduledJob {
                    tenant: TenantId::new(t as u32),
                    model: batch[0].model.clone(),
                    batch: batch.len(),
                    start_at: batch.last().expect("non-empty batch").arrival,
                    core_offset,
                    cores,
                });
                i = end;
            }
        }
        jobs.sort_by_key(|j| (j.start_at, j.tenant));
        if let Some(t) = tracer {
            for job in &jobs {
                t.dispatch(job.start_at.raw(), job.tenant.raw(), &job.model, job.batch as u32);
            }
        }
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn profile(model: &str, arrivals: ArrivalDist, count: usize) -> RequestProfile {
        RequestProfile::new(model, arrivals, count)
    }

    #[test]
    fn generation_is_deterministic_and_sorted() {
        let profiles = [
            profile("bert", ArrivalDist::Poisson { mean_interval: 500.0 }, 10),
            profile("resnet", ArrivalDist::Uniform { interval: 300 }, 10),
        ];
        let a = LoadGenerator::new(7).generate(&profiles);
        let b = LoadGenerator::new(7).generate(&profiles);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert_eq!(a.len(), 20);
    }

    #[test]
    fn poisson_arrivals_are_strictly_increasing_per_tenant() {
        let reqs = LoadGenerator::new(3).generate(&[profile(
            "m",
            ArrivalDist::Poisson { mean_interval: 100.0 },
            50,
        )]);
        for w in reqs.windows(2) {
            assert!(w[0].arrival < w[1].arrival);
        }
    }

    #[test]
    fn same_seed_reproduces_identical_poisson_stream() {
        let profiles = [profile("m", ArrivalDist::Poisson { mean_interval: 250.0 }, 200)];
        let a = LoadGenerator::new(0xDEAD_BEEF).generate(&profiles);
        let b = LoadGenerator::new(0xDEAD_BEEF).generate(&profiles);
        assert_eq!(a, b, "identical seeds must yield identical streams");
    }

    #[test]
    fn different_seeds_produce_different_poisson_streams() {
        let profiles = [profile("m", ArrivalDist::Poisson { mean_interval: 250.0 }, 100)];
        let a = LoadGenerator::new(1).generate(&profiles);
        let b = LoadGenerator::new(2).generate(&profiles);
        assert_ne!(a, b, "different seeds should diverge");
    }

    #[test]
    fn tenant_streams_are_independent_of_each_other() {
        // Regression: one RNG used to thread through all profiles in
        // order, so editing tenant 0's request count reshuffled tenant 1's
        // Poisson arrivals. Streams now derive per-tenant sub-seeds.
        let noisy = ArrivalDist::Poisson { mean_interval: 300.0 };
        let short = [profile("a", noisy, 3), profile("b", noisy, 20)];
        let long = [profile("a", noisy, 17), profile("b", noisy, 20)];
        let pick = |reqs: Vec<Request>, t: u32| -> Vec<Cycle> {
            reqs.into_iter().filter(|r| r.tenant.raw() == t).map(|r| r.arrival).collect()
        };
        let gen = LoadGenerator::new(99);
        assert_eq!(
            pick(gen.generate(&short), 1),
            pick(gen.generate(&long), 1),
            "tenant 1's stream must not depend on tenant 0's request count"
        );
        // Changing tenant 0's own profile leaves tenant 1 untouched too.
        let uniform = [profile("a", ArrivalDist::Uniform { interval: 10 }, 3), short[1].clone()];
        assert_eq!(pick(gen.generate(&short), 1), pick(gen.generate(&uniform), 1));
    }

    #[test]
    fn poisson_first_arrival_matches_the_uniform_convention() {
        // Regression: Uniform returns the current time *before* advancing
        // (first request at 0) while Poisson advanced first — the two
        // distributions disagreed on when a stream starts.
        for seed in [0, 1, 42, 0xDEAD] {
            let reqs = LoadGenerator::new(seed).generate(&[profile(
                "m",
                ArrivalDist::Poisson { mean_interval: 500.0 },
                5,
            )]);
            assert_eq!(reqs[0].arrival, Cycle::ZERO, "seed {seed}");
        }
    }

    #[test]
    fn poisson_mean_interarrival_matches_the_profile() {
        // With n samples the empirical mean of Exp(1/m) concentrates around
        // m; 15% tolerance at n = 4000 has comfortable headroom.
        let mean_interval = 200.0;
        let n = 4000;
        let reqs = LoadGenerator::new(42).generate(&[profile(
            "m",
            ArrivalDist::Poisson { mean_interval },
            n,
        )]);
        let last = reqs.last().unwrap().arrival.raw();
        let empirical = last as f64 / n as f64;
        let err = (empirical - mean_interval).abs() / mean_interval;
        assert!(
            err < 0.15,
            "empirical mean {empirical:.1} deviates {:.1}% from {mean_interval}",
            err * 100.0
        );
    }

    #[test]
    fn schedule_with_tracer_records_dispatches() {
        let reqs = LoadGenerator::new(0).generate(&[
            profile("a", ArrivalDist::Uniform { interval: 10 }, 6),
            profile("b", ArrivalDist::AtOnce, 2),
        ]);
        let tracer = ptsim_trace::Tracer::new();
        let jobs = Scheduler::new(SharingPolicy::Temporal, 2, 4)
            .schedule_with_tracer(&reqs, Some(&tracer));
        assert_eq!(tracer.len(), jobs.len(), "one dispatch event per batch");
        let evs = tracer.events();
        assert!(evs.iter().all(|e| matches!(e.data, ptsim_trace::EventData::Dispatch { .. })));
        // The plain entry point stays untraced and agrees on the schedule.
        assert_eq!(Scheduler::new(SharingPolicy::Temporal, 2, 4).schedule(&reqs), jobs);
    }

    #[test]
    fn temporal_sharing_gives_all_cores_to_each_batch() {
        let reqs = LoadGenerator::new(0).generate(&[
            profile("a", ArrivalDist::AtOnce, 4),
            profile("b", ArrivalDist::AtOnce, 4),
        ]);
        let jobs = Scheduler::new(SharingPolicy::Temporal, 8, 4).schedule(&reqs);
        assert_eq!(jobs.len(), 2);
        for j in &jobs {
            assert_eq!(j.cores, 8);
            assert_eq!(j.core_offset, 0);
            assert_eq!(j.batch, 4);
        }
    }

    #[test]
    fn spatial_sharing_partitions_cores() {
        let reqs = LoadGenerator::new(0).generate(&[
            profile("a", ArrivalDist::AtOnce, 2),
            profile("b", ArrivalDist::AtOnce, 2),
        ]);
        let jobs = Scheduler::new(SharingPolicy::Spatial, 8, 4).schedule(&reqs);
        let a = jobs.iter().find(|j| j.model == "a").unwrap();
        let b = jobs.iter().find(|j| j.model == "b").unwrap();
        assert_eq!(a.cores, 4);
        assert_eq!(b.cores, 4);
        assert_ne!(a.core_offset, b.core_offset);
    }

    #[test]
    fn batching_respects_max_batch_and_arrival_order() {
        let reqs = LoadGenerator::new(0).generate(&[profile(
            "m",
            ArrivalDist::Uniform { interval: 10 },
            10,
        )]);
        let jobs = Scheduler::new(SharingPolicy::Temporal, 2, 4).schedule(&reqs);
        assert_eq!(jobs.len(), 3); // 4 + 4 + 2
        assert_eq!(jobs[0].batch, 4);
        assert_eq!(jobs[2].batch, 2);
        // A batch starts no earlier than its last member's arrival.
        assert_eq!(jobs[0].start_at, Cycle::new(30));
        assert_eq!(jobs[1].start_at, Cycle::new(70));
    }

    proptest! {
        #[test]
        fn every_request_lands_in_exactly_one_job(
            count_a in 1usize..20,
            count_b in 1usize..20,
            max_batch in 1usize..8,
        ) {
            let reqs = LoadGenerator::new(1).generate(&[
                profile("a", ArrivalDist::Uniform { interval: 50 }, count_a),
                profile("b", ArrivalDist::Poisson { mean_interval: 80.0 }, count_b),
            ]);
            let jobs = Scheduler::new(SharingPolicy::Spatial, 4, max_batch).schedule(&reqs);
            let total: usize = jobs.iter().map(|j| j.batch).sum();
            prop_assert_eq!(total, count_a + count_b);
            for j in &jobs {
                prop_assert!(j.batch <= max_batch);
            }
        }
    }
}

/// Per-request latency statistics from a serving simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingStats {
    /// Sorted request latencies (arrival to batch completion), cycles.
    pub latencies: Vec<u64>,
}

impl ServingStats {
    /// The `p`-th percentile latency (e.g. `0.99`), cycles.
    ///
    /// # Panics
    ///
    /// Panics if no requests were served or `p` is outside `[0, 1]`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p), "percentile must be in [0, 1]");
        assert!(!self.latencies.is_empty(), "no requests served");
        let idx = ((self.latencies.len() - 1) as f64 * p).round() as usize;
        self.latencies[idx]
    }

    /// Mean latency in cycles.
    pub fn mean(&self) -> f64 {
        self.latencies.iter().sum::<u64>() as f64 / self.latencies.len().max(1) as f64
    }

    /// Fraction of requests within an SLO bound (§3.3.3 motivates tail
    /// latency as the metric NPUs optimize for).
    pub fn slo_attainment(&self, slo_cycles: u64) -> f64 {
        let ok = self.latencies.iter().filter(|&&l| l <= slo_cycles).count();
        ok as f64 / self.latencies.len().max(1) as f64
    }
}

/// Closed-loop serving simulation: batches run back-to-back on the NPU
/// (batch service times come from TOGSim measurements supplied by the
/// caller), and each request's latency spans its arrival to its batch's
/// completion — queueing delay included.
///
/// `service_cycles(batch_size)` maps a batch to its NPU time.
pub fn simulate_serving(
    requests: &[Request],
    schedule: &[ScheduledJob],
    mut service_cycles: impl FnMut(usize) -> u64,
) -> ServingStats {
    // Jobs execute in schedule order on one serving pipeline per tenant
    // partition; within a partition they serialize.
    let mut partition_free: std::collections::HashMap<usize, u64> =
        std::collections::HashMap::new();
    let mut latencies = Vec::with_capacity(requests.len());
    // Requests are consumed by jobs in per-tenant arrival order.
    let mut cursor: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    for job in schedule {
        let free = partition_free.entry(job.core_offset).or_insert(0);
        let start = job.start_at.raw().max(*free);
        let done = start + service_cycles(job.batch);
        *free = done;
        // Attribute the completion to this job's `batch` earliest
        // outstanding requests of the tenant.
        let c = cursor.entry(job.tenant.raw()).or_insert(0);
        let mine: Vec<&Request> = requests.iter().filter(|r| r.tenant == job.tenant).collect();
        for r in mine.iter().skip(*c).take(job.batch) {
            latencies.push(done - r.arrival.raw());
        }
        *c += job.batch;
    }
    latencies.sort_unstable();
    ServingStats { latencies }
}

#[cfg(test)]
mod serving_tests {
    use super::*;

    #[test]
    fn serving_latency_includes_queueing() {
        // Two batches back-to-back: the second batch's requests wait.
        let requests =
            LoadGenerator::new(0).generate(&[RequestProfile::new("m", ArrivalDist::AtOnce, 8)]);
        let jobs = Scheduler::new(SharingPolicy::Temporal, 1, 4).schedule(&requests);
        let stats = simulate_serving(&requests, &jobs, |_| 1000);
        assert_eq!(stats.latencies.len(), 8);
        // First batch finishes at 1000, second at 2000.
        assert_eq!(stats.percentile(0.0), 1000);
        assert_eq!(stats.percentile(1.0), 2000);
        assert_eq!(stats.mean(), 1500.0);
        assert_eq!(stats.slo_attainment(1000), 0.5);
        assert_eq!(stats.slo_attainment(2000), 1.0);
    }

    #[test]
    fn spatial_partitions_serve_independently() {
        let requests = LoadGenerator::new(0).generate(&[
            RequestProfile::new("a", ArrivalDist::AtOnce, 4),
            RequestProfile::new("b", ArrivalDist::AtOnce, 4),
        ]);
        let jobs = Scheduler::new(SharingPolicy::Spatial, 2, 4).schedule(&requests);
        let stats = simulate_serving(&requests, &jobs, |_| 500);
        // Different partitions: both batches complete at 500.
        assert!(stats.latencies.iter().all(|&l| l == 500));
    }

    #[test]
    fn batching_amortizes_service_time() {
        let requests = LoadGenerator::new(0).generate(&[RequestProfile::new(
            "m",
            ArrivalDist::Uniform { interval: 10 },
            16,
        )]);
        // Sub-linear batch service: serving batch-16 beats 16 singles.
        let service = |b: usize| 200 + 50 * b as u64;
        let big = Scheduler::new(SharingPolicy::Temporal, 1, 16).schedule(&requests);
        let small = Scheduler::new(SharingPolicy::Temporal, 1, 1).schedule(&requests);
        let big_stats = simulate_serving(&requests, &big, service);
        let small_stats = simulate_serving(&requests, &small, service);
        assert!(big_stats.percentile(0.99) < small_stats.percentile(0.99));
    }
}
