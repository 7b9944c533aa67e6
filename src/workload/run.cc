#include "run.hh"

#include <iostream>

#include "common/log.hh"
#include "debug/replay_dump.hh"
#include "workload/layout.hh"

namespace ztx::workload {

void
summarizeRun(sim::Machine &machine, unsigned cpus, Cycles elapsed,
             RunResult &res)
{
    res.elapsedCycles = elapsed;
    double region_sum = 0;
    std::uint64_t region_count = 0;
    for (unsigned i = 0; i < machine.numCpus(); ++i) {
        region_sum += machine.cpu(i).regionCycles().sum();
        region_count += machine.cpu(i).regionCycles().count();
    }
    res.meanRegionCycles =
        region_count ? region_sum / double(region_count) : 0.0;
    res.throughput = res.meanRegionCycles > 0
                         ? double(cpus) / res.meanRegionCycles
                         : 0.0;

    const TxStatsSummary tx = collectTxStats(machine);
    res.txCommits = tx.commits;
    res.txAborts = tx.aborts;
    res.xiRejects = tx.xiRejects;
    res.instructions = tx.instructions;
    res.abortsByReason = tx.abortsByReason;
    res.ras = collectRasStats(machine);
}

void
runWorkload(const WorkloadRun &run, RunResult &res)
{
    sim::MachineConfig mcfg = *run.machine;
    mcfg.activeCpus = run.cpus;
    mcfg.seed = run.seed;
    sim::Machine machine(mcfg);
    if (run.prefill)
        run.prefill(machine);

    machine.setProgramAll(run.program);
    OpLog oplog(machine.numCpus(), run.opLogCapacity);
    for (unsigned i = 0; i < machine.numCpus(); ++i) {
        if (run.arena)
            machine.cpu(i).setGr(15, arenaBase + Addr(i) * arenaStride);
        if (run.opLog)
            machine.cpu(i).setOpRecorder(&oplog);
    }

    const Cycles elapsed = machine.run();
    res.watchdogFired = machine.watchdogFired();
    if (!machine.allHalted() && (run.strict || !res.watchdogFired))
        ztx_fatal(run.name, " benchmark did not run to completion");
    summarizeRun(machine, run.cpus, elapsed, res);
    if (run.strict && res.meanRegionCycles == 0)
        ztx_fatal("no measured regions recorded");

    if (run.opLog) {
        const auto history = oplog.history(run.decode);
        res.orderInfer = checkLoggedHistoryOrdered(
            oplog, [&] { return run.infer(history); });
        res.lincheck = res.orderInfer.verdict;
        if (res.lincheck.checked && !res.lincheck.linearizable) {
            res.oracle.fail("operation history not linearizable: " +
                            res.lincheck.reason);
            std::cerr << debug::replayScheduleDump(history,
                                                   res.orderInfer);
        }
    }

    if (res.watchdogFired) {
        // Mid-flight transactions hold buffered state; the
        // structure cannot be judged. The run itself is the failure.
        res.oracle.fail("forward-progress watchdog fired; "
                        "structures unchecked");
        return;
    }

    machine.drainAllStores();
    for (auto &v : run.walk(machine).violations)
        res.oracle.fail(std::move(v));
    if (std::string why = indexOracleCheck(machine); !why.empty())
        res.oracle.fail("hot-path index inconsistent: " + why);
}

} // namespace ztx::workload
