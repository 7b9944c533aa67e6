/**
 * @file
 * Host-side scaling and full-topology speed of the sharded parallel
 * scheduler.
 *
 * Sections written to BENCH_scale.json:
 *
 *  - "host-scaling": the same simulated machine and workload on a
 *    four-chip topology (one shard per chip) driven with 1, 2, and
 *    4 host threads. Each record carries the host wall-clock
 *    numbers, the scheduler's serial fraction (steps_deferred /
 *    steps_total — the Amdahl ceiling the shard-local fast path
 *    attacks), the speedup versus the 1-thread run, and a
 *    determinism_ok verdict: the full stats document of every
 *    multi-threaded run must be byte-identical to its 1-thread
 *    reference.
 *
 *  - "full-topology": the paper's real machine — the 144-core zEC12
 *    (4 MCMs x 6 chips x 6 cores) — plus a 1024-CPU stretch point,
 *    recording sim-MIPS (simulated instructions per host second),
 *    serial fraction, and the host-side per-phase time breakdown
 *    (parallel phase vs. serial barrier merge, from
 *    Machine::hostPhaseTimes()) under a "phase" object. The 144-core
 *    point sweeps host threads {1, 2, 4} with the byte-identity
 *    determinism check. These are the EXPERIMENTS.md before/after
 *    numbers for the flat-directory / sharded-memory / arena layout
 *    work.
 *
 * Results are honest for the machine they ran on: meta.host_cpus
 * records how many host CPUs were available — on a 1-core host no
 * speedup is achievable and the numbers will show that.
 *
 * --smoke restricts the run to a reduced 144-core full-topology
 * point (tiny iteration count, host threads {1, 2}) so CI can
 * exercise the full topology under a wall-time budget.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "common/prof.hh"
#include "isa/assembler.hh"
#include "json_report.hh"
#include "mem/directory.hh"
#include "workload/report.hh"

namespace {

using namespace ztx;

/**
 * Per-CPU private-region transactions: each CPU commits
 * @p iterations transactions of 4 read-modify-writes against its
 * own lines — no cross-chip conflicts, so the parallel phase
 * dominates and host threads can actually help.
 */
isa::Program
privateTxProgram(Addr base, unsigned iterations)
{
    isa::Assembler as;
    as.la(9, 0, std::int64_t(base));
    as.lhi(8, std::int64_t(iterations));
    as.label("loop");
    as.tbegin(0xFF);
    as.jnz("skip"); // private lines: aborts are incidental
    for (int i = 0; i < 4; ++i) {
        as.lg(1, 9, std::int64_t(i * 256));
        as.ahi(1, 1);
        as.lr(2, 9);
        if (i != 0)
            as.ahi(2, std::int64_t(i * 256));
        as.stg(1, 2);
    }
    as.tend();
    as.label("skip");
    as.brct(8, "loop");
    as.halt();
    return as.finish();
}

struct RunResult
{
    double hostSeconds = 0.0;
    Cycles simCycles = 0;
    std::uint64_t instructions = 0;
    workload::SchedStatsSummary sched;
    sim::HostPhaseTimes phase;
    /** Full stats document, for byte-identity comparison. */
    std::string statsText;
    /** Phase-profiler snapshot for this run (host-time data; kept
     *  out of statsText so the determinism compare stays exact). */
    Json prof;
};

RunResult
runOnce(const mem::Topology &topo, unsigned host_threads,
        unsigned iterations,
        std::vector<isa::Program> &programs /* keep-alive */,
        bool trim_geometry = false)
{
    sim::MachineConfig cfg;
    cfg.topology = topo;
    cfg.seed = 17;
    cfg.hostThreads = host_threads;
    if (trim_geometry) {
        // Full-topology points: trim L3/L4 exactly like
        // bench_util's benchMachine() — workload footprints stay
        // far below either size, construction stays cheap at
        // hundreds of CPUs.
        cfg.geometry.l3 = {8ULL << 20, 12};
        cfg.geometry.l4 = {32ULL << 20, 24};
    }
    sim::Machine m(cfg);

    programs.clear();
    programs.reserve(m.numCpus());
    for (unsigned i = 0; i < m.numCpus(); ++i)
        programs.push_back(privateTxProgram(
            Addr(0x40'0000) + Addr(i) * 0x1'0000, iterations));
    for (unsigned i = 0; i < m.numCpus(); ++i)
        m.setProgram(i, &programs[i]);

    prof::reset();
    const auto t0 = std::chrono::steady_clock::now();
    const Cycles elapsed = m.run();
    const auto t1 = std::chrono::steady_clock::now();

    RunResult res;
    res.prof = prof::snapshotJson();
    res.hostSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    res.simCycles = elapsed;
    for (unsigned i = 0; i < m.numCpus(); ++i)
        res.instructions +=
            m.cpu(i).stats().counter("instructions").value();
    res.sched = workload::collectSchedStats(m);
    res.phase = m.hostPhaseTimes();
    std::ostringstream os;
    m.dumpStatsJson(os);
    res.statsText = os.str();
    return res;
}

double
mipsOf(const RunResult &res)
{
    return res.hostSeconds > 0.0
               ? double(res.instructions) / res.hostSeconds / 1e6
               : 0.0;
}

/** The "phase" object of a full-topology record. */
Json
phaseJson(const sim::HostPhaseTimes &pt)
{
    Json p = Json::object();
    p["parallel_seconds"] = pt.parallelSeconds;
    p["merge_seconds"] = pt.mergeSeconds;
    p["quanta"] = pt.quanta;
    const double total = pt.parallelSeconds + pt.mergeSeconds;
    p["merge_share"] =
        total > 0.0 ? pt.mergeSeconds / total : 0.0;
    return p;
}

bool
hasFlag(int argc, char **argv, const char *flag)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return true;
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ztx;

    const bool smoke = hasFlag(argc, argv, "--smoke");
    const bool prof_on = prof::enabledFromEnv();

    bench::JsonReport report("scale", argc, argv);
    report.setMachineConfig(sim::MachineConfig{});
    report.meta()["iterations"] = bench::benchIterations();
    report.meta()["host_cpus"] =
        unsigned(std::thread::hardware_concurrency());
    report.meta()["smoke"] = smoke;
    report.meta()["prof_enabled"] = prof_on;

    const unsigned iterations =
        std::getenv("ZTX_BENCH_FAST") ? bench::benchIterations()
                                      : 4 * bench::benchIterations();

    bool determinism_failed = false;
    std::vector<isa::Program> keep_alive;

    if (!smoke) {
        const char *topo_name = "4chips";
        const mem::Topology topo(4, 4, 1);
        std::printf("# Sharded-scheduler host scaling "
                    "(host_cpus=%u)\n",
                    unsigned(
                        std::thread::hardware_concurrency()));
        std::printf("# %-8s %8s %12s %10s %10s %10s %5s\n",
                    "topology", "threads", "host_sec", "mips",
                    "speedup", "serial", "det");

        double base_seconds = 0.0;
        std::string ref_stats;
        for (const unsigned threads : {1u, 2u, 4u}) {
            const RunResult res =
                runOnce(topo, threads, iterations, keep_alive);
            if (threads == 1) {
                base_seconds = res.hostSeconds;
                ref_stats = res.statsText;
            }
            const bool det = res.statsText == ref_stats;
            determinism_failed |= !det;
            const double mips = mipsOf(res);
            const double speedup =
                res.hostSeconds > 0.0
                    ? base_seconds / res.hostSeconds
                    : 0.0;
            std::printf("  %-8s %8u %12.4f %10.2f %10.2f %10.4f"
                        " %5s\n",
                        topo_name, threads, res.hostSeconds, mips,
                        speedup, res.sched.serialFraction(),
                        det ? "ok" : "FAIL");
            report.addSimWork(res.simCycles, res.instructions);
            report.addSched(res.sched);
            if (report.enabled()) {
                Json rec = Json::object();
                rec["section"] = "host-scaling";
                rec["topology"] = topo_name;
                rec["host_threads"] = threads;
                rec["host_seconds"] = res.hostSeconds;
                rec["sim_cycles"] = std::uint64_t(res.simCycles);
                rec["instructions"] = res.instructions;
                rec["mips"] = mips;
                rec["speedup_vs_1t"] = speedup;
                rec["serial_fraction"] =
                    res.sched.serialFraction();
                rec["determinism_ok"] = det;
                rec["sched"] = bench::schedStatsJson(res.sched);
                rec["prof"] = res.prof;
                report.addRecord(std::move(rec));
            }
        }
    }

    // Full-topology campaign: the paper's zEC12 (4 MCMs x 6 chips
    // x 6 cores = 144 CPUs) end-to-end, plus a 1024-CPU stretch
    // point when the directory can track that many CPUs. The
    // 144-core point sweeps host threads with the byte-identity
    // check; sim-MIPS and the phase breakdown are the layout-work
    // before/after numbers in EXPERIMENTS.md.
    {
        struct FullPoint
        {
            const char *name;
            mem::Topology topo;
            unsigned iters;
            std::vector<unsigned> threads;
        };
        const unsigned full_iters = smoke ? 8u : iterations;
        std::vector<FullPoint> points;
        points.push_back({"zEC12-144", mem::Topology(6, 6, 4),
                          full_iters,
                          smoke ? std::vector<unsigned>{1u, 2u}
                                : std::vector<unsigned>{1u, 2u,
                                                        4u}});
        if (!smoke &&
            mem::maxDirectoryCpus >= 1024 &&
            mem::maxDirectoryChips >= 32)
            points.push_back({"stretch-1024",
                              mem::Topology(32, 8, 4),
                              std::max(1u, full_iters / 8),
                              {1u}});

        std::printf("# Full-topology campaign\n");
        std::printf("# %-12s %5s %8s %12s %10s %10s %10s %5s\n",
                    "topology", "cpus", "threads", "host_sec",
                    "mips", "serial", "merge_sh", "det");
        for (const FullPoint &fp : points) {
            std::string ref_stats;
            for (const unsigned threads : fp.threads) {
                const RunResult res = runOnce(
                    fp.topo, threads, fp.iters, keep_alive,
                    /*trim_geometry=*/true);
                if (threads == fp.threads.front())
                    ref_stats = res.statsText;
                const bool det = res.statsText == ref_stats;
                determinism_failed |= !det;
                const double mips = mipsOf(res);
                const double total = res.phase.parallelSeconds +
                                     res.phase.mergeSeconds;
                std::printf(
                    "  %-12s %5u %8u %12.4f %10.2f %10.4f"
                    " %10.4f %5s\n",
                    fp.name, fp.topo.numCpus(), threads,
                    res.hostSeconds, mips,
                    res.sched.serialFraction(),
                    total > 0.0 ? res.phase.mergeSeconds / total
                                : 0.0,
                    det ? "ok" : "FAIL");
                report.addSimWork(res.simCycles,
                                  res.instructions);
                report.addSched(res.sched);
                if (report.enabled()) {
                    Json rec = Json::object();
                    rec["section"] = "full-topology";
                    rec["topology"] = fp.name;
                    rec["total_cpus"] = fp.topo.numCpus();
                    rec["host_threads"] = threads;
                    rec["iterations"] = fp.iters;
                    rec["host_seconds"] = res.hostSeconds;
                    rec["sim_cycles"] =
                        std::uint64_t(res.simCycles);
                    rec["instructions"] = res.instructions;
                    rec["mips"] = mips;
                    rec["serial_fraction"] =
                        res.sched.serialFraction();
                    rec["determinism_ok"] = det;
                    rec["phase"] = phaseJson(res.phase);
                    rec["sched"] =
                        bench::schedStatsJson(res.sched);
                    rec["prof"] = res.prof;
                report.addRecord(std::move(rec));
                }
            }
        }
    }

    if (determinism_failed)
        std::fprintf(stderr, "scale: DETERMINISM VIOLATION — "
                             "stats diverged across host-thread "
                             "counts\n");
    const bool wrote = report.write();
    return (wrote && !determinism_failed) ? 0 : 1;
}
