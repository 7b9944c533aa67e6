/**
 * @file
 * Ablations of the design choices DESIGN.md calls out:
 *  - stiff-arming (XI rejection) on/off under high contention —
 *    the paper notes rejection "is very efficient in highly
 *    contended transactions";
 *  - the L1 LRU-extension scheme on/off for a medium-footprint
 *    transactional workload;
 *  - gathering store cache size (store-footprint headroom).
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "isa/assembler.hh"
#include "json_report.hh"
#include "workload/layout.hh"
#include "workload/report.hh"

namespace {

using namespace ztx;
using namespace ztx::workload;

/** High-contention single-variable updates with a TM config tweak. */
double
contendedThroughput(bench::JsonReport &report, unsigned cpus,
                    bool stiff_arm)
{
    UpdateBenchConfig cfg;
    cfg.cpus = cpus;
    cfg.poolSize = 10;
    cfg.varsPerOp = 1;
    cfg.method = SyncMethod::TBeginc;
    cfg.iterations = ztx::bench::benchIterations();
    cfg.machine = ztx::bench::benchMachine();
    cfg.machine.tm.stiffArmEnabled = stiff_arm;
    const auto res = runUpdateBench(cfg);
    report.addResult(
        res, {{"section", "stiff-arm"},
              {"cpus", cpus},
              {"variant", stiff_arm ? "stiff-arm" : "no-stiff-arm"}});
    return res.throughput;
}

/** TX reading `lines` lines spread over L1 rows; success ratio. */
double
footprintSuccessRate(unsigned lines, bool lru_ext, unsigned store_sc)
{
    isa::Assembler as;
    as.lhi(0, 0);
    as.lhi(3, 0);
    as.label("loop");
    as.tbegin(0x00);
    as.jnz("abort");
    for (unsigned i = 0; i < lines; ++i)
        as.lg(1, 0, std::int64_t(poolBase + i * 16384));
    as.tend();
    as.lhi(3, 1);
    as.j("done");
    as.label("abort");
    as.lhi(3, 2);
    as.label("done");
    as.halt();
    const isa::Program p = as.finish();

    sim::MachineConfig mcfg = ztx::bench::benchMachine();
    mcfg.activeCpus = 1;
    mcfg.tm.lruExtensionEnabled = lru_ext;
    mcfg.tm.storeCacheEntries = store_sc;
    sim::Machine m(mcfg);
    m.setProgram(0, &p);
    m.run();
    return m.cpu(0).gr(3) == 1 ? 1.0 : 0.0;
}

/** Store-footprint commit limit for a given store-cache size. */
unsigned
maxCommittableBlocks(unsigned store_cache_entries)
{
    unsigned lo = 1, hi = 256;
    const auto commits = [&](unsigned blocks) {
        isa::Assembler as;
        as.la(9, 0, std::int64_t(poolBase));
        as.lhi(1, 1);
        as.lhi(8, std::int64_t(blocks));
        as.tbegin(0x00);
        as.jnz("out");
        as.label("loop");
        as.stg(1, 9, 0);
        as.la(9, 9, 128);
        as.brct(8, "loop");
        as.tend();
        as.lhi(3, 1);
        as.label("out");
        as.halt();
        const isa::Program p = as.finish();
        sim::MachineConfig mcfg = ztx::bench::benchMachine();
        mcfg.activeCpus = 1;
        mcfg.tm.storeCacheEntries = store_cache_entries;
        sim::Machine m(mcfg);
        m.setProgram(0, &p);
        m.run();
        return m.cpu(0).gr(3) == 1;
    };
    while (lo < hi) {
        const unsigned mid = (lo + hi + 1) / 2;
        if (commits(mid))
            lo = mid;
        else
            hi = mid - 1;
    }
    return lo;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonReport report("ablation", argc, argv);
    report.setMachineConfig(ztx::bench::benchMachine());
    report.meta()["iterations"] = ztx::bench::benchIterations();

    std::printf("# Ablation 1: stiff-arming (XI rejection) under "
                "high contention\n");
    SeriesTable stiff("CPUs", {"StiffArm", "NoStiffArm", "Ratio"});
    for (const unsigned cpus : {8u, 24u, 48u, 100u}) {
        const double with_sa =
            contendedThroughput(report, cpus, true);
        const double without_sa =
            contendedThroughput(report, cpus, false);
        stiff.addRow(cpus, {1000.0 * with_sa, 1000.0 * without_sa,
                            with_sa / without_sa});
    }
    stiff.print(std::cout);

    std::printf("\n# Ablation 2: LRU extension for a 12-line "
                "single-row read footprint\n");
    for (const bool lru_ext : {true, false}) {
        const bool commits =
            footprintSuccessRate(12, lru_ext, 64) > 0.5;
        std::printf("%s extension %s: %s\n",
                    lru_ext ? "with" : "without",
                    lru_ext ? "   " : "", commits ? "commits"
                                                  : "aborts");
        if (report.enabled()) {
            Json rec = Json::object();
            rec["section"] = "lru-extension";
            rec["variant"] = lru_ext ? "lru-ext" : "no-lru-ext";
            rec["lines"] = 12u;
            rec["commits"] = commits;
            report.addRecord(std::move(rec));
        }
    }

    std::printf("\n# Ablation 3: store-cache size vs maximum store "
                "footprint (128-byte blocks)\n");
    SeriesTable sc("Entries", {"MaxBlocks"});
    for (const unsigned entries : {16u, 32u, 64u, 128u}) {
        const unsigned max_blocks = maxCommittableBlocks(entries);
        sc.addRow(entries, {double(max_blocks)});
        if (report.enabled()) {
            Json rec = Json::object();
            rec["section"] = "store-cache";
            rec["store_cache_entries"] = entries;
            rec["max_blocks"] = max_blocks;
            report.addRecord(std::move(rec));
        }
    }
    sc.print(std::cout);
    std::printf("# zEC12 ships 64 entries; the footprint tracks the "
                "store-cache capacity\n");

    std::printf("\n# Ablation 4: speculative over-marking vs the "
                "millicode escalation\n");
    SeriesTable om("OvermarkProb", {"TBEGINC", "SpecReduced"});
    for (const double prob : {0.0, 0.2, 0.5}) {
        UpdateBenchConfig cfg;
        cfg.cpus = 24;
        cfg.poolSize = 10;
        cfg.varsPerOp = 1;
        cfg.method = SyncMethod::TBeginc;
        cfg.iterations = ztx::bench::benchIterations();
        cfg.machine = ztx::bench::benchMachine();
        cfg.machine.tm.speculativeOvermarkProb = prob;

        sim::MachineConfig mcfg = cfg.machine;
        mcfg.activeCpus = cfg.cpus;
        sim::Machine machine(mcfg);
        const isa::Program prog = buildUpdateProgram(cfg);
        machine.setProgramAll(&prog);
        RunResult res;
        summarizeRun(machine, cfg.cpus, machine.run(), res);
        std::uint64_t reduced = 0;
        for (unsigned i = 0; i < machine.numCpus(); ++i) {
            reduced += machine.cpu(i)
                           .stats()
                           .counter("millicode.speculation_reduced")
                           .value();
        }
        report.addSimWork(res.elapsedCycles, res.instructions);
        om.addRow(prob, {1000.0 * res.throughput, double(reduced)});
        if (report.enabled()) {
            Json rec = Json::object();
            rec["section"] = "overmark";
            rec["overmark_prob"] = prob;
            rec["cpus"] = cfg.cpus;
            rec["throughput"] = res.throughput;
            rec["speculation_reduced"] = reduced;
            report.addRecord(std::move(rec));
        }
    }
    om.print(std::cout);
    std::printf("# wrong-path read-set pollution costs throughput; "
                "millicode's speculation\n# reduction keeps "
                "constrained retries converging\n");
    return report.write() ? 0 : 1;
}
