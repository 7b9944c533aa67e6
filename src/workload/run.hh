/**
 * @file
 * The measurement method every workload runner shares (paper §IV):
 * each CPU runs its operations, the time between lock/TBEGIN and
 * unlock/TEND (the MARKB/MARKE region) is measured per operation,
 * and throughput is CPUs / mean region cycles. runWorkload() is the
 * one copy of that run: build the machine, bind the program, run,
 * summarize, check the recorded history, and judge the final state.
 * A workload supplies only its program, its prefill, its history
 * decoding and inference, and its structural walk.
 */

#ifndef ZTX_WORKLOAD_RUN_HH
#define ZTX_WORKLOAD_RUN_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "inject/lincheck.hh"
#include "inject/oracle.hh"
#include "inject/order_infer.hh"
#include "isa/program.hh"
#include "sim/machine.hh"
#include "workload/op_log.hh"
#include "workload/report.hh"

namespace ztx::workload {

/** The outcome fields every workload run reports. */
struct RunResult
{
    /** Mean measured region length (cycles per operation). */
    double meanRegionCycles = 0;

    /** System throughput: cpus / meanRegionCycles (paper §IV). */
    double throughput = 0;

    std::uint64_t txCommits = 0;
    std::uint64_t txAborts = 0;
    std::uint64_t xiRejects = 0;
    Cycles elapsedCycles = 0;

    /** Instructions executed, summed over CPUs. */
    std::uint64_t instructions = 0;

    /** Abort counts keyed by tx::abortReasonName(). */
    std::map<std::string, std::uint64_t> abortsByReason;

    /** Poison/machine-check activity (zero without RAS faults). */
    RasSummary ras;

    /** The forward-progress watchdog stopped the run (chaos). */
    bool watchdogFired = false;
    /** Structural verdict plus the hot-path index oracle. */
    inject::OracleReport oracle;
    /** History verdict (unchecked when op logging is off). */
    inject::LinVerdict lincheck;
    /**
     * Full order-inference report behind `lincheck` (which mirrors
     * its verdict): whether the O(n log n) oracle inferred the
     * order or fell back to the DFS, and why.
     */
    inject::OrderInferReport orderInfer;
};

/**
 * Fill the summary of a finished run into @p res: elapsed cycles,
 * the mean region length and the throughput of @p cpus CPUs (both
 * zero without a measured region), and the transactional and RAS
 * counters.
 */
void summarizeRun(sim::Machine &machine, unsigned cpus,
                  Cycles elapsed, RunResult &res);

/** One workload run: the program and the per-workload steps. */
struct WorkloadRun
{
    /** Names the workload in fatal errors ("list-set"). */
    const char *name = "";
    const sim::MachineConfig *machine = nullptr;
    unsigned cpus = 0;
    std::uint64_t seed = 0;
    const isa::Program *program = nullptr;
    /**
     * A pure measurement (the update benchmark): the run must halt
     * and record a region, and anything else is fatal. Otherwise a
     * watchdog halt is a result, not an error.
     */
    bool strict = false;
    /** Point each CPU's GR15 at its private node arena. */
    bool arena = false;
    /** Record an op log and check its history for linearizability. */
    bool opLog = false;
    /** Per-CPU op-log ring capacity (overflow truncates). */
    std::size_t opLogCapacity = 0;

    /** Host-side initial state, written before the program binds. */
    std::function<void(sim::Machine &)> prefill;
    /** Map a logged record to its ADT operation (op log only). */
    std::function<void(const OpRecord &, inject::LinOp &)> decode;
    /** Infer a linearization of the decoded history (op log only). */
    std::function<inject::OrderInferReport(
        const std::vector<inject::LinOp> &)>
        infer;
    /**
     * Walk the final state once stores drained; return the
     * structural oracle's verdict. Skipped after a watchdog halt.
     */
    std::function<inject::OracleReport(sim::Machine &)> walk;
};

/**
 * Run @p run and fill the shared fields of @p res. A
 * non-linearizable history, a watchdog halt, a structural
 * violation and an inconsistent hot-path index each fail
 * `res.oracle`; the history check runs even after a watchdog halt
 * (it reads recorded registers, and in-flight operations stay
 * pending), the walk does not.
 */
void runWorkload(const WorkloadRun &run, RunResult &res);

} // namespace ztx::workload

#endif // ZTX_WORKLOAD_RUN_HH
