/**
 * @file
 * The paper's §IV micro-benchmark: each CPU repeatedly picks 1 or 4
 * random variables from a pool (each on its own cache line) and
 * increments (or, for figure 5(d), reads) them, synchronized by one
 * of the methods under comparison. Time is measured per operation
 * between lock/TBEGIN and unlock/TEND (the MARKB/MARKE region),
 * excluding random-number generation, exactly as in the paper.
 */

#ifndef ZTX_WORKLOAD_UPDATE_BENCH_HH
#define ZTX_WORKLOAD_UPDATE_BENCH_HH

#include <cstdint>
#include <string>

#include "isa/program.hh"
#include "sim/machine.hh"
#include "workload/run.hh"

namespace ztx::workload {

/** Synchronization methods compared in figure 5. */
enum class SyncMethod : std::uint8_t
{
    None,       ///< unsynchronized (upper bound; loses updates)
    CoarseLock, ///< one spin lock for the whole pool
    FineLock,   ///< one spin lock per variable (1-variable ops only)
    RwLock,     ///< read-write lock (read-only ops)
    TBegin,     ///< figure-1 transaction with lock fallback
    TBeginc     ///< figure-3 constrained transaction, no fallback
};

/** Display name of @p method. */
const char *syncMethodName(SyncMethod method);

/** One experiment configuration. */
struct UpdateBenchConfig
{
    unsigned cpus = 2;
    unsigned poolSize = 1;   ///< variables in the pool
    unsigned varsPerOp = 1;  ///< 1 or 4
    bool readOnly = false;   ///< figure 5(d): read instead of update
    SyncMethod method = SyncMethod::CoarseLock;
    unsigned iterations = 200; ///< operations per CPU
    std::uint64_t seed = 1;
    sim::MachineConfig machine{}; ///< topology/geometry/costs
};

/** Outcome of one experiment run. */
struct UpdateBenchResult : RunResult
{
    /** Sum of all pool variables after the run (correctness). */
    std::uint64_t poolSum = 0;
};

/** Build the benchmark program for @p cfg. */
isa::Program buildUpdateProgram(const UpdateBenchConfig &cfg);

/** Build the machine, run the benchmark, collect results. */
UpdateBenchResult runUpdateBench(const UpdateBenchConfig &cfg);

/**
 * Reference throughput for the paper's normalization: 2 CPUs
 * updating a single variable from a pool of 1 under the coarse
 * lock. All reported series are scaled so this equals 100.
 */
double referenceThroughput(const sim::MachineConfig &machine,
                           unsigned iterations = 400);

} // namespace ztx::workload

#endif // ZTX_WORKLOAD_UPDATE_BENCH_HH
