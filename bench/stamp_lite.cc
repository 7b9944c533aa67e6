/**
 * @file
 * STAMP-flavoured application profiles ([23]: the IBM XL C/C++ team
 * measured transactional speedups of 1.2x-7x over pthread locks on
 * a STAMP subset, depending on the application).
 *
 * zTX maps three representative profiles onto the update workload:
 *   - "genome-like":   large pool, small transactions, read-mostly
 *     contention -> transactions shine (high end of the range);
 *   - "vacation-like": medium pool, 4-location transactions ->
 *     solid but smaller wins;
 *   - "intruder-like": small pool, high contention -> transactions
 *     barely ahead (low end of the range).
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "json_report.hh"
#include "workload/report.hh"

namespace {

using namespace ztx;
using namespace ztx::workload;

struct Profile
{
    const char *name;
    unsigned poolSize;
    unsigned varsPerOp;
    unsigned cpus;
};

double
runProfile(bench::JsonReport &report, const Profile &profile,
           SyncMethod method)
{
    UpdateBenchConfig cfg;
    cfg.method = method;
    cfg.cpus = profile.cpus;
    cfg.poolSize = profile.poolSize;
    cfg.varsPerOp = profile.varsPerOp;
    cfg.iterations = ztx::bench::benchIterations();
    cfg.machine = ztx::bench::benchMachine();
    const auto res = runUpdateBench(cfg);
    report.addResult(res, {{"profile", profile.name},
                           {"cpus", profile.cpus},
                           {"pool", profile.poolSize},
                           {"vars_per_op", profile.varsPerOp},
                           {"variant", syncMethodName(method)},
                           {"method", syncMethodName(method)}});
    return res.throughput;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonReport report("stamp_lite", argc, argv);
    report.setMachineConfig(ztx::bench::benchMachine());
    report.meta()["iterations"] = ztx::bench::benchIterations();

    std::printf("# STAMP-like profiles: transactional speedup over "
                "a pthread-style lock\n");
    const Profile profiles[] = {
        {"genome-like", 1024, 4, 8},
        {"vacation-like", 256, 4, 6},
        {"intruder-like", 32, 4, 4},
    };
    std::printf("%16s %12s %12s %10s\n", "profile", "lock",
                "tbegin", "speedup");
    for (const Profile &profile : profiles) {
        const double lock =
            runProfile(report, profile, SyncMethod::CoarseLock);
        const double tx =
            runProfile(report, profile, SyncMethod::TBegin);
        std::printf("%16s %12.5f %12.5f %9.2fx\n", profile.name,
                    lock, tx, tx / lock);
    }
    std::printf("# [23] reports factors between 1.2 and 7 depending "
                "on the application\n");
    return report.write() ? 0 : 1;
}
