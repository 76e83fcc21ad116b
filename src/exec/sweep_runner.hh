/**
 * @file
 * Shared-nothing parallel sweep execution.
 *
 * Every paper figure and ablation is a grid of independent
 * (application x scheme x config) simulations; SweepRunner executes
 * those grid points on a host thread pool. Each job owns its entire
 * simulated world — config, trace generator (PCG-seeded), Simulator,
 * StatRegistry, PcmDevice — so workers share no mutable state and the
 * merged sweep report is byte-identical whatever the thread count or
 * completion order:
 *
 *   - job seeds are fixed by the job list (deriveJobSeed(base, index)
 *     or the caller's explicit cfg.seed), never by scheduling;
 *   - each worker serializes its own per-job JSON fragment while its
 *     registry is alive;
 *   - the merger splices fragments in job-index order.
 *
 * test_sweep_determinism.cc enforces the byte-identity guarantee; the
 * TSan CI job enforces the shared-nothing claim.
 */

#ifndef ESD_EXEC_SWEEP_RUNNER_HH
#define ESD_EXEC_SWEEP_RUNNER_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "core/simulator.hh"

namespace esd::exec
{

/** One grid point: a full simulation the runner owns end to end. */
struct SweepJob
{
    std::string app;          ///< paper application profile name
    SchemeKind scheme = SchemeKind::Baseline;
    SimConfig cfg;            ///< complete config incl. the job's seed
    std::uint64_t records = 0;
    std::uint64_t warmup = 0;

    /** On-disk trace to replay through the streaming frontend instead
     * of generating `app` synthetically (esd_batch -trace-in=). Each
     * job opens its own frontend, so jobs stay shared-nothing. */
    std::string traceFile;

    /** Intra-simulation pipeline threads (exec/pipeline.hh). 0 keeps
     * the classic single-Simulator path; >= 1 runs the job through a
     * ShardedPipeline, whose report fragment uses the pipeline schema
     * (per-shard results) and is byte-identical at any thread count.
     * Don't mix modes within one sweep — the two schemas differ. */
    unsigned pipelineWorkers = 0;
};

/** What one finished job yields. */
struct SweepOutcome
{
    RunResult result;

    /** Compact per-job JSON document: job identity + the full stats
     * report ({"config","result","stats"}), or job identity + "error"
     * when the job failed. Deterministic — contains no host timing. */
    std::string reportJson;

    /** Host wall-clock seconds this job took (bench-only; deliberately
     * excluded from reportJson). */
    double hostSeconds = 0;

    /** False when the job failed — it threw, or its injected crash
     * did not recover cleanly. A failed slot is a first-class outcome:
     * callers must surface it, never silently drop it. */
    bool ok = true;

    /** Human-readable failure reason when !ok. */
    std::string error;
};

/**
 * Deterministic per-job seed: splitmix64 over (base_seed, job_index).
 * Depends only on the job's grid position, so a sweep's random streams
 * are identical at any -jobs=N. Never returns 0.
 */
std::uint64_t deriveJobSeed(std::uint64_t base_seed,
                            std::uint64_t job_index);

/** Serialized progress callback: (job index, job, its result). */
using SweepProgressFn =
    std::function<void(std::size_t, const SweepJob &, const RunResult &)>;

/** Largest -jobs= value the tools accept; the pool never starts more
 * threads than there are jobs. */
constexpr unsigned kMaxSweepJobs = 1024;

/**
 * Thread-pooled executor for independent Simulator jobs.
 *
 * Workers pull job indices from an atomic cursor and write outcomes
 * into per-job slots, so results always come back in job order
 * regardless of completion order. The progress callback runs under a
 * mutex (safe to print from).
 */
class SweepRunner
{
  public:
    /** @param jobs worker threads; 0 = one per hardware thread. */
    explicit SweepRunner(unsigned jobs = 1);

    /** Resolved worker count (>= 1). */
    unsigned jobs() const { return jobs_; }

    /** Execute every job; outcomes[i] belongs to jobs[i]. */
    std::vector<SweepOutcome> run(const std::vector<SweepJob> &jobs,
                                  const SweepProgressFn &progress =
                                      nullptr) const;

  private:
    unsigned jobs_;
};

/**
 * Merge per-job fragments into the one sweep report document:
 *   {"job_count": N, "jobs": [{...}, ...],
 *    "aggregate": {"read_latency": {...}, "write_latency": {...}}}
 * The aggregate merges every job's exact latency histograms (buckets
 * included), so sweep-wide percentiles are exact, not
 * percentile-of-percentiles. Byte-identical for identical job lists,
 * independent of the worker count that produced @p outcomes.
 */
void writeSweepReport(std::ostream &os,
                      const std::vector<SweepOutcome> &outcomes);

/**
 * First structural divergence between two JSON documents as a
 * dotted/indexed path ("jobs[3].report.stats.pcm.writes"), or "" when
 * structurally equal. Diagnostic for determinism-test failures.
 */
std::string firstJsonDivergence(const std::string &a,
                                const std::string &b);

} // namespace esd::exec

#endif // ESD_EXEC_SWEEP_RUNNER_HH
