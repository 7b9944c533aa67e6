/**
 * @file
 * Machine scheduler: determinism, bounds, solo mode, the
 * forward-progress watchdog, and the structural, linearizability
 * and order-inference oracles on contended workloads.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <tuple>

#include "workload/hashtable.hh"
#include "workload/list_set.hh"
#include "workload/queue.hh"
#include "workload/update_bench.hh"
#include "ztx_test_util.hh"

namespace {

using namespace ztx;
using namespace ztx::test;
using isa::Assembler;
using isa::Program;

/** Counts iterations into GR5 until halted externally. */
Program
counterProgram(unsigned iterations)
{
    Assembler as;
    as.lhi(5, 0);
    as.lhi(8, std::int64_t(iterations));
    as.label("loop");
    as.ahi(5, 1);
    as.brct(8, "loop");
    as.halt();
    return as.finish();
}

TEST(Machine, RunsToCompletion)
{
    const Program p = counterProgram(100);
    sim::Machine m(smallConfig(2));
    m.setProgramAll(&p);
    const Cycles elapsed = m.run();
    EXPECT_TRUE(m.allHalted());
    EXPECT_GT(elapsed, 0u);
    EXPECT_EQ(m.cpu(0).gr(5), 100u);
    EXPECT_EQ(m.cpu(1).gr(5), 100u);
}

TEST(Machine, BoundedRunStops)
{
    Assembler as;
    as.label("spin");
    as.ahi(5, 1);
    as.j("spin");
    const Program p = as.finish();
    sim::Machine m(smallConfig(1));
    m.setProgram(0, &p);
    const Cycles elapsed = m.run(10'000);
    EXPECT_FALSE(m.allHalted());
    EXPECT_LE(elapsed, 10'000u);
    const std::uint64_t first = m.cpu(0).gr(5);
    EXPECT_GT(first, 0u);
    // Resumable: more progress on the next run call.
    m.run(10'000);
    EXPECT_GT(m.cpu(0).gr(5), first);
}

TEST(Machine, DeterministicAcrossIdenticalRuns)
{
    auto run_once = [](std::uint64_t seed) {
        Assembler as;
        as.la(9, 0, std::int64_t(dataBase));
        as.lhi(8, 50);
        as.label("loop");
        as.rnd(1, 16);
        as.sllg(1, 1, 8); // line offset
        as.agr(1, 9);
        as.lr(2, 1);
        as.lg(3, 1);
        as.ahi(3, 1);
        as.stg(3, 2);
        as.brct(8, "loop");
        as.halt();
        const Program p = as.finish();
        auto cfg = smallConfig(4);
        cfg.seed = seed;
        sim::Machine m(cfg);
        for (unsigned i = 0; i < 4; ++i)
            m.setProgram(i, &p);
        const Cycles elapsed = m.run();
        std::uint64_t sum = 0;
        for (unsigned i = 0; i < 16; ++i)
            sum += m.peekMem(dataBase + i * 256, 8) * (i + 1);
        return std::pair(elapsed, sum);
    };
    const auto a = run_once(42);
    const auto b = run_once(42);
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
    const auto c = run_once(43);
    EXPECT_NE(a, c); // different seed, different interleaving
}

TEST(Machine, SoloModeParksOtherCpus)
{
    Assembler as;
    as.label("spin");
    as.ahi(5, 1);
    as.j("spin");
    const Program p = as.finish();
    sim::Machine m(smallConfig(2));
    m.setProgram(0, &p);
    m.setProgram(1, &p);
    m.requestSolo(0);
    m.run(20'000);
    EXPECT_GT(m.cpu(0).gr(5), 100u);
    EXPECT_EQ(m.cpu(1).gr(5), 0u); // parked
    m.releaseSolo(0);
    m.run(20'000);
    EXPECT_GT(m.cpu(1).gr(5), 100u);
}

TEST(Machine, SoloRequestsSerializeWithoutDeadlock)
{
    // The first requester wins; the loser's request is dropped (it
    // will re-request on its next abort). Solo also auto-releases
    // when the holder halts, so competing requests cannot wedge the
    // machine.
    sim::Machine m(smallConfig(2));
    m.requestSolo(0);
    m.requestSolo(1); // loser: ignored
    const Program p = counterProgram(10);
    m.setProgram(0, &p);
    m.setProgram(1, &p);
    m.run();
    EXPECT_TRUE(m.cpu(0).halted());
    EXPECT_TRUE(m.cpu(1).halted());
}

TEST(Machine, ParkedCpuDoesNotGetInterruptBurst)
{
    // Regression: a CPU parked behind solo mode falls many external
    // interrupt periods behind. On release it must skip the missed
    // period boundaries, not work through them as a back-to-back
    // burst of one interrupt per step (each delivery only advanced
    // the deadline by one period, far less than the 800-cycle
    // service stall it charges).
    auto cfg = smallConfig(2);
    cfg.externalInterruptPeriod = 2000; // > osInterruptCost (800)
    const Program p = counterProgram(50'000);
    sim::Machine m(cfg);
    m.setProgram(0, &p);
    m.setProgram(1, &p);
    m.requestSolo(0); // parks CPU1 until CPU0 halts
    m.run();
    ASSERT_TRUE(m.allHalted());
    EXPECT_EQ(m.cpu(1).gr(5), 50'000u);

    const std::uint64_t ints0 =
        m.cpu(0).stats().counter("external_interrupts").value();
    const std::uint64_t ints1 =
        m.cpu(1).stats().counter("external_interrupts").value();
    // Both CPUs run the same program for about the same number of
    // running cycles, so with per-period delivery their interrupt
    // counts are close; the parked backlog collapses into a single
    // delivery. Working through the backlog one period per 800+
    // cycle service stall would inflate CPU1's count several-fold.
    EXPECT_GT(ints0, 0u);
    EXPECT_LT(ints1, ints0 + ints0 / 2 + 10);
    // The missed boundaries are accounted, not delivered.
    EXPECT_GT(m.stats().counter("external.periods_skipped").value(),
              0u);
}

TEST(Machine, StatsDumpContainsComponents)
{
    const Program p = counterProgram(5);
    sim::Machine m(smallConfig(1));
    m.setProgram(0, &p);
    m.run();
    std::ostringstream os;
    m.dumpStats(os);
    const std::string dump = os.str();
    EXPECT_NE(dump.find("cpu0.instructions"), std::string::npos);
}

TEST(Machine, ActiveCpusBoundedByTopology)
{
    auto cfg = smallConfig(8); // exactly the topology capacity
    sim::Machine m(cfg);
    EXPECT_EQ(m.numCpus(), 8u);
}

TEST(Machine, InterleavingProducesRaces)
{
    // Unsynchronized read-modify-write on a shared counter from two
    // CPUs loses updates — evidence the scheduler interleaves at
    // sub-operation granularity (and the baseline for why TX/locks
    // are needed at all).
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.lhi(8, 400);
    as.label("loop");
    as.lg(1, 9);
    as.ahi(1, 1);
    as.stg(1, 9);
    as.brct(8, "loop");
    as.halt();
    const Program p = as.finish();
    sim::Machine m(smallConfig(2));
    m.setProgram(0, &p);
    m.setProgram(1, &p);
    m.run();
    EXPECT_LT(m.peekMem(dataBase, 8), 800u);
    EXPECT_GE(m.peekMem(dataBase, 8), 400u);
}

TEST(Machine, HostThreadsIsInert)
{
    // MachineConfig::hostThreads is kept only for source
    // compatibility: any value runs the one scheduler, so the stats
    // document is byte-identical. The contended 24-CPU coarse lock
    // is where a second run loop would diverge first.
    workload::UpdateBenchConfig cfg;
    cfg.cpus = 24;
    cfg.poolSize = 10000;
    cfg.varsPerOp = 4;
    cfg.method = workload::SyncMethod::CoarseLock;
    cfg.iterations = 10;
    const Program p = workload::buildUpdateProgram(cfg);
    const auto dump = [&](unsigned host_threads) {
        sim::MachineConfig mcfg; // the fig5a bench machine
        mcfg.geometry.l3 = {8ULL << 20, 12};
        mcfg.geometry.l4 = {32ULL << 20, 24};
        mcfg.activeCpus = cfg.cpus;
        mcfg.hostThreads = host_threads;
        sim::Machine m(mcfg);
        m.setProgramAll(&p);
        m.run();
        EXPECT_TRUE(m.allHalted());
        std::ostringstream out;
        m.dumpStatsJson(out);
        return out.str();
    };
    EXPECT_EQ(dump(0), dump(4));
}

/** Spin forever: no commit, no region close, no halt. */
Program
spinProgram()
{
    Assembler as;
    as.label("spin");
    as.ahi(5, 1);
    as.j("spin");
    return as.finish();
}

TEST(Watchdog, IoCompletionsCountAsForwardProgress)
{
    // Regression: a machine whose only work is DMA traffic (CPUs
    // spin uselessly) is making forward progress; the watchdog must
    // not fire while transfers keep completing.
    auto cfg = smallConfig(1);
    cfg.enableIo = true;
    cfg.watchdogCycles = 30'000;
    sim::Machine m(cfg);
    const Program p = spinProgram();
    m.setProgram(0, &p);
    for (unsigned i = 0; i < 1'000; ++i)
        m.io().submit({.write = true,
                       .addr = dataBase + i * 4096,
                       .length = 4096,
                       .pattern = 0x5A});
    m.run(2'000'000);
    EXPECT_FALSE(m.watchdogFired()) << "fired despite live I/O";
    EXPECT_GT(m.io().completed(), 0u);
}

TEST(Watchdog, FiresWithoutAnyProgressSource)
{
    // Counter-check for the test above: the same spinning machine
    // with no I/O traffic must trip the watchdog.
    auto cfg = smallConfig(1);
    cfg.watchdogCycles = 30'000;
    sim::Machine m(cfg);
    const Program p = spinProgram();
    m.setProgram(0, &p);
    m.run(2'000'000);
    EXPECT_TRUE(m.watchdogFired());
}

/**
 * Run @p cfg (four CPUs on two chips, op log on) through @p run
 * without and with a chaos mix. Every run must pass the structural
 * oracle and the order-inferred linearizability check without a
 * watchdog stop, and a replay must reproduce the elapsed cycles and
 * the final structure (@p outcome).
 */
template <typename Config, typename Run, typename Outcome>
void
expectOraclesHold(Config cfg, Run run, Outcome outcome)
{
    cfg.cpus = 4;
    cfg.iterations = 40;
    cfg.opLog = true;
    for (const bool chaos : {false, true}) {
        SCOPED_TRACE(testing::Message() << "chaos=" << chaos);
        cfg.machine = smallConfig(4);
        cfg.machine.watchdogCycles = 2'000'000;
        if (chaos) {
            cfg.machine.faults.xiStormRate = 0.005;
            cfg.machine.faults.spuriousAbortRate = 0.002;
            cfg.machine.faults.delayedXiRate = 0.1;
            cfg.machine.faults.xiDelayMax = 200;
        }
        const auto res = run(cfg);
        EXPECT_FALSE(res.watchdogFired);
        EXPECT_TRUE(res.oracle.ok) << res.oracle.summary();
        ASSERT_TRUE(res.lincheck.checked) << res.lincheck.reason;
        EXPECT_TRUE(res.lincheck.linearizable) << res.lincheck.reason;
        EXPECT_TRUE(res.orderInfer.inferred)
            << res.orderInfer.fallbackReason;
        const auto again = run(cfg);
        EXPECT_EQ(again.elapsedCycles, res.elapsedCycles);
        EXPECT_EQ(outcome(again), outcome(res));
    }
}

TEST(Machine, ElidedListSetOraclesHold)
{
    workload::ListSetBenchConfig cfg;
    cfg.useElision = true;
    expectOraclesHold(cfg, workload::runListSetBench,
                      [](const workload::ListSetBenchResult &r) {
                          EXPECT_TRUE(r.sorted);
                          EXPECT_TRUE(r.lengthConsistent);
                          return std::tuple(r.finalLength, r.txCommits,
                                            r.txAborts);
                      });
}

TEST(Machine, ElidedHashTableOraclesHold)
{
    workload::HashTableBenchConfig cfg;
    cfg.useElision = true;
    expectOraclesHold(cfg, workload::runHashTableBench,
                      [](const workload::HashTableBenchResult &r) {
                          return std::tuple(r.occupiedBuckets,
                                            r.txCommits, r.txAborts);
                      });
}

TEST(Machine, ConstrainedQueueOraclesHold)
{
    workload::QueueBenchConfig cfg;
    cfg.useConstrainedTx = true;
    expectOraclesHold(cfg, workload::runQueueBench,
                      [](const workload::QueueBenchResult &r) {
                          return std::tuple(r.finalLength,
                                            r.dequeuedNonEmpty,
                                            r.txCommits, r.txAborts);
                      });
}

} // namespace
