/**
 * @file
 * The benchmark's workloads: each is a fixed list of simulation
 * jobs built from the workload seed. A job runs through the
 * library's public API only, times each layer's calls from here
 * (machine construction, program build, Machine::run, stats
 * collection, oracle checks, litmus enumeration), reads the exact
 * simulated counts the library already exposes, and checks its own
 * outputs.
 */

#ifndef ZTXBENCH_JOBS_HH
#define ZTXBENCH_JOBS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace ztxbench {

/** Host seconds spent in each layer's public calls. */
struct Spans
{
    double build = 0;     ///< program build / litmus parse+compile
    double ctor = 0;      ///< sim::Machine construction (+ prefill)
    double run = 0;       ///< Machine::run
    double collect = 0;   ///< collectTxStats + statsJson + digest
    double check = 0;     ///< inject oracles and order inference
    double enumerate = 0; ///< litmus::enumerate
    /** Machine::hostPhaseTimes() (sharded scheduler only). */
    double parallel = 0;
    double merge = 0;
    std::uint64_t quanta = 0;

    void add(const Spans &o);
};

/**
 * Exact simulated counts: deterministic for a given seed, so a
 * simulator-only speed-up must leave every one of them unchanged.
 */
struct Counts
{
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;    ///< elapsed cycles, summed over jobs
    std::uint64_t cpuCycles = 0; ///< elapsed cycles x CPUs
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t abortsStoreConflict = 0;
    std::uint64_t abortsFetchConflict = 0;
    std::uint64_t ppa = 0;
    std::uint64_t soloRequests = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t fetchMisses = 0;
    std::uint64_t xiReceived = 0;
    std::uint64_t xiRejected = 0;
    std::uint64_t stcGathers = 0;
    std::uint64_t stepsDeferred = 0;
    std::uint64_t stepsTotal = 0;
    std::uint64_t litmusSchedules = 0;
    /** Sum and number of normalized throughputs (100 = paper ref). */
    double normThroughputSum = 0;
    unsigned normThroughputJobs = 0;

    void add(const Counts &o);
};

/** Everything one job run produced. */
struct JobResult
{
    bool ok = true;
    std::string why; ///< first failed check, empty when ok
    Spans spans;
    Counts counts;
    /**
     * Simulated-results digest: FNV-1a over the statsJson document
     * (litmus: the enumeration record), the normalized throughput
     * and the abort breakdown.
     */
    std::uint64_t digest = 0;
    /** Human-readable abort breakdown and throughput for the log. */
    std::string summary;
    /** Full statsJson text, kept for cross-job identity checks. */
    std::string stats;
    /** Simulated instructions of Machine::run calls timed here. */
    std::uint64_t runInstructions = 0;

    void fail(std::string reason);
};

/** One job of a workload. */
struct Job
{
    std::string name;
    std::function<JobResult()> run;
    /**
     * Index of an earlier job whose statsJson this job must
     * reproduce byte for byte (-1: none).
     */
    int sameStatsAs = -1;
};

/** The workload names, in the order `all` runs them. */
const std::vector<std::string> &workloadNames();

/**
 * The job list of @p workload for @p seed. @p host_threads is the
 * sharded scheduler's multi-thread point on zec12-144.
 * @return Empty for an unknown workload name.
 */
std::vector<Job> workloadJobs(const std::string &workload,
                              std::uint64_t seed,
                              unsigned host_threads);

} // namespace ztxbench

#endif // ZTXBENCH_JOBS_HH
