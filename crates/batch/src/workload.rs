//! Synthetic local workload for deployment experiments.
//!
//! UNICORE jobs "are treated the same way any other batch job is treated"
//! (§5.5) — so realistic experiments need the *other* batch jobs too. This
//! generator produces a classic supercomputer-centre load: Poisson
//! arrivals, log-normal runtimes, power-of-two parallelism.

use crate::job::{BatchJobSpec, WorkModel};
use crate::script::{processors_directive, time_directive};
use unicore_crypto::rng::CryptoRng;
use unicore_resources::Architecture;
use unicore_sim::dist;
use unicore_sim::{secs_f64, SimTime, SEC};

/// Parameters of the background-load model.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadModel {
    /// Mean inter-arrival time in seconds.
    pub mean_interarrival_secs: f64,
    /// Log-normal runtime parameter mu (log-seconds).
    pub runtime_mu: f64,
    /// Log-normal runtime parameter sigma.
    pub runtime_sigma: f64,
    /// Maximum power-of-two processor request (2^k).
    pub max_procs_log2: u32,
    /// Fraction of jobs that fail with a nonzero exit code.
    pub failure_rate: f64,
    /// Users overestimate limits by this factor on average.
    pub limit_overestimate: f64,
}

impl WorkloadModel {
    /// A moderately loaded centre: ~1 job/2 min, runtimes centred at ~8 min.
    pub fn moderate() -> Self {
        WorkloadModel {
            mean_interarrival_secs: 120.0,
            runtime_mu: 6.2, // e^6.2 ≈ 490 s
            runtime_sigma: 1.2,
            max_procs_log2: 6,
            failure_rate: 0.05,
            limit_overestimate: 3.0,
        }
    }

    /// A heavily loaded centre.
    #[cfg(test)]
    pub(crate) fn heavy() -> Self {
        WorkloadModel {
            mean_interarrival_secs: 30.0,
            ..Self::moderate()
        }
    }
}

/// One generated arrival.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Arrival (submission) time.
    pub at: SimTime,
    /// The job.
    pub spec: BatchJobSpec,
}

/// Generates background arrivals over `[0, horizon)` for a machine of the
/// given architecture and size.
pub fn generate_background(
    model: &WorkloadModel,
    arch: Architecture,
    machine_nodes: u32,
    horizon: SimTime,
    rng: &mut CryptoRng,
) -> Vec<Arrival> {
    let mut arrivals = Vec::new();
    let mut t = 0.0f64;
    let horizon_secs = horizon as f64 / SEC as f64;
    let mut n = 0u64;
    loop {
        t += dist::exponential(rng, model.mean_interarrival_secs);
        if t >= horizon_secs {
            break;
        }
        n += 1;
        let procs_log2 = dist::uniform_int(rng, 0, model.max_procs_log2 as u64) as u32;
        let procs = (1u32 << procs_log2).min(machine_nodes);
        let runtime_secs =
            dist::lognormal(rng, model.runtime_mu, model.runtime_sigma).clamp(1.0, 86_400.0);
        let limit_secs = (runtime_secs * dist::uniform(rng, 1.0, model.limit_overestimate))
            .clamp(runtime_secs, 172_800.0);
        let fails = rng.next_f64() < model.failure_rate;
        let work = if fails {
            WorkModel::fail_after(secs_f64(runtime_secs), 1, "application error")
        } else {
            WorkModel::succeed_after(secs_f64(runtime_secs))
        };
        let script = format!(
            "{}\n{}\n./background_{n}\n",
            processors_directive(arch, procs),
            time_directive(arch, limit_secs as u64)
        );
        arrivals.push(Arrival {
            at: secs_f64(t),
            spec: BatchJobSpec {
                name: format!("bg{n}"),
                owner: format!("local{}", n % 17),
                script,
                processors: procs,
                time_limit: secs_f64(limit_secs),
                memory_mb: 64 * procs as u64,
                queue: {
                    // Same policy the NJS applies: short jobs go express
                    // unless they exceed the express width cap.
                    let mut q = crate::job::QueueClass::for_time_limit(secs_f64(limit_secs));
                    if q == crate::job::QueueClass::Express && procs > (machine_nodes / 4).max(1) {
                        q = crate::job::QueueClass::Batch;
                    }
                    q
                },
                work,
            },
        });
    }
    arrivals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::BatchSystem;
    use unicore_sim::MINUTE;

    #[test]
    fn arrivals_are_ordered_and_within_horizon() {
        let mut rng = CryptoRng::from_u64(1);
        let horizon = 60 * MINUTE;
        let arrivals = generate_background(
            &WorkloadModel::moderate(),
            Architecture::CrayT3e,
            512,
            horizon,
            &mut rng,
        );
        assert!(!arrivals.is_empty());
        for w in arrivals.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        assert!(arrivals.iter().all(|a| a.at < horizon));
    }

    #[test]
    fn specs_are_submittable() {
        let mut rng = CryptoRng::from_u64(2);
        let mut machine = BatchSystem::new("t3e", Architecture::CrayT3e, 512);
        let arrivals = generate_background(
            &WorkloadModel::moderate(),
            Architecture::CrayT3e,
            512,
            30 * MINUTE,
            &mut rng,
        );
        for a in &arrivals {
            machine.submit(a.spec.clone(), a.at).unwrap();
        }
        machine.run_to_completion();
        assert_eq!(machine.accounting().len(), arrivals.len());
    }

    #[test]
    fn scripts_match_dialect() {
        let mut rng = CryptoRng::from_u64(3);
        for arch in Architecture::ALL {
            let arrivals =
                generate_background(&WorkloadModel::moderate(), arch, 64, 10 * MINUTE, &mut rng);
            for a in &arrivals {
                assert!(
                    crate::script::script_matches_dialect(&a.spec.script, arch),
                    "{arch:?}: {}",
                    a.spec.script
                );
            }
        }
    }

    #[test]
    fn heavy_load_produces_more_jobs() {
        let mut r1 = CryptoRng::from_u64(4);
        let mut r2 = CryptoRng::from_u64(4);
        let h = 60 * MINUTE;
        let moderate = generate_background(
            &WorkloadModel::moderate(),
            Architecture::Generic,
            8,
            h,
            &mut r1,
        );
        let heavy = generate_background(
            &WorkloadModel::heavy(),
            Architecture::Generic,
            8,
            h,
            &mut r2,
        );
        assert!(heavy.len() > moderate.len());
    }

    #[test]
    fn determinism_per_seed() {
        let gen = |seed| {
            let mut rng = CryptoRng::from_u64(seed);
            generate_background(
                &WorkloadModel::moderate(),
                Architecture::NecSx4,
                32,
                20 * MINUTE,
                &mut rng,
            )
            .iter()
            .map(|a| (a.at, a.spec.processors, a.spec.work.actual_runtime))
            .collect::<Vec<_>>()
        };
        assert_eq!(gen(7), gen(7));
        assert_ne!(gen(7), gen(8));
    }
}
