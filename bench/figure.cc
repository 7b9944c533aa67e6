#include "figure.hh"

#include <cstdio>
#include <iostream>

#include "bench_util.hh"

namespace ztx::bench {

using workload::SyncMethod;
using workload::syncMethodName;

const FigureSpec fig5aSpec = {
    .name = "fig5a",
    .title = "Figure 5(a): TX vs locks, four variables, poolsizes 1k/10k",
    .pools = {1000, 10000},
    .varsPerOp = 4,
    .methods = {SyncMethod::CoarseLock, SyncMethod::TBeginc,
                SyncMethod::TBegin},
    .columns = {"Lock-1k", "TBEGINC-1k", "TBEGIN-1k", "Lock-10k",
                "TBEGINC-10k", "TBEGIN-10k"},
    .poolInVariant = true,
};

const FigureSpec fig5bSpec = {
    .name = "fig5b",
    .title = "Figure 5(b): TX vs locks, single variable, poolsize 10",
    .pools = {10},
    .varsPerOp = 1,
    .methods = {SyncMethod::CoarseLock, SyncMethod::FineLock,
                SyncMethod::TBeginc, SyncMethod::TBegin},
    .columns = {"CoarseLock", "FineLock", "TBEGINC", "TBEGIN"},
};

const FigureSpec fig5cSpec = {
    .name = "fig5c",
    .title = "Figure 5(c): TX vs locks, four variables, poolsize 10",
    .pools = {10},
    .varsPerOp = 4,
    .methods = {SyncMethod::CoarseLock, SyncMethod::TBeginc,
                SyncMethod::TBegin},
    .columns = {"Lock", "TBEGINC", "TBEGIN"},
};

const FigureSpec fig5dSpec = {
    .name = "fig5d",
    .title = "Figure 5(d): TX vs read-write lock, four variables "
             "read, poolsize 10k",
    .pools = {10000},
    .varsPerOp = 4,
    .readOnly = true,
    .methods = {SyncMethod::RwLock, SyncMethod::TBeginc},
    .columns = {"RW-Lock", "TBEGINC"},
};

FigureTables
runFigure(const FigureSpec &spec,
          const std::vector<unsigned> &cpu_points, unsigned iterations,
          JsonReport &report)
{
    const double ref =
        workload::referenceThroughput(benchMachine(), 4 * iterations);
    report.setMachineConfig(benchMachine());
    report.meta()["iterations"] = iterations;
    report.meta()["normalization_reference"] = ref;

    FigureTables tables{{"CPUs", spec.columns}, {"CPUs", spec.columns}};
    for (const unsigned cpus : cpu_points) {
        std::vector<double> normalized, raw;
        for (const unsigned pool : spec.pools) {
            for (const SyncMethod method : spec.methods) {
                workload::UpdateBenchConfig cfg;
                cfg.cpus = cpus;
                cfg.poolSize = pool;
                cfg.varsPerOp = spec.varsPerOp;
                cfg.readOnly = spec.readOnly;
                cfg.method = method;
                cfg.iterations = iterations;
                cfg.machine = benchMachine();
                const auto res = workload::runUpdateBench(cfg);
                normalized.push_back(100.0 * res.throughput / ref);
                raw.push_back(res.throughput);

                std::string variant = syncMethodName(method);
                if (spec.poolInVariant)
                    variant += "-" + std::to_string(pool);
                Json::Object keys = {
                    {"cpus", cpus},
                    {"pool", pool},
                    {"vars_per_op", spec.varsPerOp},
                    {"variant", variant},
                    {"method", syncMethodName(method)},
                    {"normalized_throughput", normalized.back()},
                    {"xi_rejects", res.xiRejects}};
                if (spec.readOnly)
                    keys["read_only"] = true;
                report.addResult(res, std::move(keys));
            }
        }
        tables.normalized.addRow(cpus, normalized);
        tables.raw.addRow(cpus, raw);
    }
    return tables;
}

int
figureMain(const FigureSpec &spec, int argc, char **argv)
{
    JsonReport report(spec.name, argc, argv);
    std::printf("# %s\n", spec.title.c_str());
    std::printf("# normalized throughput (100 = 2 CPUs, 1 var, "
                "pool 1, coarse lock)\n");
    const FigureTables tables =
        runFigure(spec, cpuPoints(), benchIterations(), report);
    tables.normalized.print(std::cout);
    return report.write() ? 0 : 1;
}

} // namespace ztx::bench
