/**
 * @file
 * Sorted linked-list set: lock elision versus a global lock across
 * CPU counts and list lengths. Long traversals make read sets large
 * and overlapping, so the transactional advantage shrinks as the
 * list grows — complementing the figure-5 microbenchmarks with a
 * traversal-shaped workload.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "json_report.hh"
#include "workload/list_set.hh"
#include "workload/report.hh"

int
main(int argc, char **argv)
{
    using namespace ztx;
    using namespace ztx::workload;

    bench::JsonReport report("list_set_bench", argc, argv);
    report.setMachineConfig(bench::benchMachine());
    report.meta()["iterations"] = bench::benchIterations();

    std::printf("# Sorted list set: global lock vs lock elision\n");
    std::printf("# throughput x1000 = 1000 * CPUs / cycles per op\n");

    const auto record = [&](const ListSetBenchResult &res,
                            unsigned cpus, unsigned key_space,
                            bool elision) {
        report.addResult(res,
                         {{"cpus", cpus},
                          {"key_space", key_space},
                          {"variant", elision ? "elision" : "lock"}});
    };

    for (const unsigned key_space : {32u, 256u}) {
        std::printf("\n## key space %u (mean list length ~%u)\n",
                    key_space, key_space / 2);
        SeriesTable table("CPUs", {"Lock", "Elision", "Ratio"});
        for (const unsigned cpus : {2u, 4u, 8u, 16u}) {
            ListSetBenchConfig cfg;
            cfg.cpus = cpus;
            cfg.keySpace = key_space;
            cfg.iterations = ztx::bench::benchIterations();
            cfg.machine = ztx::bench::benchMachine();
            cfg.useElision = false;
            const auto lock_res = runListSetBench(cfg);
            cfg.useElision = true;
            const auto tx_res = runListSetBench(cfg);
            if (!lock_res.sorted || !tx_res.sorted ||
                !lock_res.lengthConsistent ||
                !tx_res.lengthConsistent) {
                std::printf("VALIDATION FAILED\n");
                return 1;
            }
            record(lock_res, cpus, key_space, false);
            record(tx_res, cpus, key_space, true);
            table.addRow(cpus,
                         {1000.0 * lock_res.throughput,
                          1000.0 * tx_res.throughput,
                          tx_res.throughput / lock_res.throughput});
        }
        table.print(std::cout);
    }
    return report.write() ? 0 : 1;
}
