/**
 * @file
 * The sharded quantum scheduler (hostThreads >= 1): bit-identical
 * stats across host-thread counts — with and without fault
 * injection — architectural agreement with the legacy scheduler,
 * no lost work under real host concurrency, the structural,
 * linearizability and order-inference oracles on contended
 * workloads, and the event-driven watchdog counting I/O
 * completions as forward progress.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "inject/fault_plan.hh"
#include "mem/latency_model.hh"
#include "workload/hashtable.hh"
#include "workload/list_set.hh"
#include "workload/queue.hh"
#include "ztx_test_util.hh"

namespace {

using namespace ztx;
using namespace ztx::test;
using isa::Assembler;
using isa::Program;

/**
 * Contended transactional increments on random slots plus a local
 * counter: exercises TM conflicts, the millicode ladder, and the
 * per-CPU RNG streams. GR5 counts committed outer iterations.
 */
Program
contendedTxProgram(unsigned iterations)
{
    Assembler as;
    as.lhi(5, 0);
    as.lhi(7, std::int64_t(iterations));
    as.la(9, 0, std::int64_t(dataBase));
    as.label("outer");
    as.lhi(0, 0);
    as.label("retry");
    as.tbegin(0xFF);
    as.jnz("abort");
    as.rnd(1, 8);
    as.sllg(1, 1, 8); // slot -> line offset
    as.agr(1, 9);
    as.lr(2, 1);
    as.lg(3, 1);
    as.ahi(3, 1);
    as.stg(3, 2);
    as.tend();
    as.ahi(5, 1);
    as.j("next");
    as.label("abort");
    as.jo("next"); // persistent abort: skip this iteration
    as.ahi(0, 1);
    as.cijnl(0, 6, "next");
    as.j("retry");
    as.label("next");
    as.brct(7, "outer");
    as.halt();
    return as.finish();
}

/** Full-topology config (8 CPUs on 2x2x2 = 4 chips -> 4 shards). */
sim::MachineConfig
shardedConfig(std::uint64_t seed, unsigned host_threads)
{
    auto cfg = smallConfig(8);
    cfg.seed = seed;
    cfg.hostThreads = host_threads;
    return cfg;
}

/** One run: the full stats JSON plus a memory checksum. */
std::pair<std::string, std::uint64_t>
runOnce(const sim::MachineConfig &cfg, const Program &p)
{
    sim::Machine m(cfg);
    m.setProgramAll(&p);
    m.run();
    EXPECT_TRUE(m.allHalted());
    std::ostringstream os;
    m.dumpStatsJson(os);
    std::uint64_t sum = 0;
    for (unsigned i = 0; i < 8; ++i)
        sum += m.peekMem(dataBase + i * 256, 8) * (i + 1);
    return {os.str(), sum};
}

TEST(Sharded, BitIdenticalAcrossHostThreadCounts)
{
    // The acceptance gate of the sharded scheduler: for any seed,
    // the entire stats document (every counter of every component)
    // and the final memory state are byte-identical for 1, 2, and 4
    // host threads. hostThreads is excluded from the config JSON,
    // so the documents can be compared verbatim.
    const Program p = contendedTxProgram(40);
    for (const std::uint64_t seed : {7ull, 21ull, 99ull}) {
        const auto ref = runOnce(shardedConfig(seed, 1), p);
        for (const unsigned threads : {2u, 4u}) {
            const auto got =
                runOnce(shardedConfig(seed, threads), p);
            EXPECT_EQ(ref.first, got.first)
                << "stats diverged: seed " << seed << ", "
                << threads << " host threads";
            EXPECT_EQ(ref.second, got.second)
                << "memory diverged: seed " << seed << ", "
                << threads << " host threads";
        }
    }
}

TEST(Sharded, BitIdenticalUnderChaosInjection)
{
    // Same contract with the fault injector fully engaged: rates,
    // a pinned schedule, and the watchdog armed. Per-CPU RNG
    // streams and barrier-merged storms keep chaos a pure function
    // of (program, config, seed).
    inject::FaultPlan plan;
    plan.spuriousAbortRate = 0.002;
    plan.xiStormRate = 0.004;
    plan.capacitySqueezeRate = 0.001;
    plan.squeezeDuration = 1'500;
    plan.interruptStormRate = 0.001;
    plan.delayedXiRate = 0.05;
    plan.xiDelayMax = 100;
    plan.schedule = {
        {2'000, inject::FaultKind::XiStorm, 1},
        {5'000, inject::FaultKind::CapacitySqueeze, 2},
        {9'000, inject::FaultKind::InterruptStorm, invalidCpu},
    };

    const Program p = contendedTxProgram(30);
    for (const std::uint64_t seed : {7ull, 21ull, 99ull}) {
        auto make = [&](unsigned threads) {
            auto cfg = shardedConfig(seed, threads);
            cfg.faults = plan;
            cfg.watchdogCycles = 2'000'000;
            return cfg;
        };
        const auto ref = runOnce(make(1), p);
        for (const unsigned threads : {2u, 4u}) {
            const auto got = runOnce(make(threads), p);
            EXPECT_EQ(ref.first, got.first)
                << "chaos stats diverged: seed " << seed << ", "
                << threads << " host threads";
            EXPECT_EQ(ref.second, got.second)
                << "chaos memory diverged: seed " << seed << ", "
                << threads << " host threads";
        }
    }
}

TEST(Sharded, NoLostWorkAtFourThreads)
{
    // Every CPU must retire its full iteration count when shards
    // really run on multiple host threads.
    Assembler as;
    as.lhi(5, 0);
    as.lhi(8, 400);
    as.label("loop");
    as.ahi(5, 1);
    as.brct(8, "loop");
    as.halt();
    const Program p = as.finish();

    sim::Machine m(shardedConfig(11, 4));
    m.setProgramAll(&p);
    m.run();
    ASSERT_TRUE(m.allHalted());
    for (unsigned i = 0; i < m.numCpus(); ++i)
        EXPECT_EQ(m.cpu(i).gr(5), 400u) << "cpu " << i;
}

TEST(Sharded, AgreesArchitecturallyWithLegacyScheduler)
{
    // The two schedulers interleave differently (timing is not
    // comparable), but constrained transactions make the shared
    // counter's final value schedule-independent: both must land on
    // exactly cpus * iterations.
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.lhi(8, 50);
    as.label("loop");
    as.tbeginc(0xFF);
    as.lg(1, 9);
    as.ahi(1, 1);
    as.stg(1, 9);
    as.tend();
    as.brct(8, "loop");
    as.halt();
    const Program p = as.finish();

    auto final_count = [&](unsigned host_threads) {
        auto cfg = shardedConfig(5, host_threads);
        sim::Machine m(cfg);
        m.setProgramAll(&p);
        m.run();
        EXPECT_TRUE(m.allHalted());
        return m.peekMem(dataBase, 8);
    };
    const std::uint64_t legacy = final_count(0);
    const std::uint64_t sharded = final_count(1);
    EXPECT_EQ(legacy, 8u * 50u);
    EXPECT_EQ(sharded, legacy);
}

TEST(Sharded, BoundedRunStopsAndResumes)
{
    Assembler as;
    as.label("spin");
    as.ahi(5, 1);
    as.j("spin");
    const Program p = as.finish();
    sim::Machine m(shardedConfig(3, 2));
    m.setProgramAll(&p);
    const Cycles elapsed = m.run(10'000);
    EXPECT_FALSE(m.allHalted());
    EXPECT_LE(elapsed, 10'000u);
    const std::uint64_t first = m.cpu(0).gr(5);
    EXPECT_GT(first, 0u);
    m.run(10'000);
    EXPECT_GT(m.cpu(0).gr(5), first);
}

TEST(Sharded, SoloModeParksOtherCpusAcrossShards)
{
    Assembler as;
    as.label("spin");
    as.ahi(5, 1);
    as.j("spin");
    const Program p = as.finish();
    sim::Machine m(shardedConfig(3, 2));
    m.setProgramAll(&p);
    m.requestSolo(0);
    m.run(20'000);
    EXPECT_GT(m.cpu(0).gr(5), 100u);
    // CPU 5 lives on a different chip (shard) than the holder and
    // must still be parked.
    EXPECT_EQ(m.cpu(5).gr(5), 0u);
    m.releaseSolo(0);
    m.run(20'000);
    EXPECT_GT(m.cpu(5).gr(5), 100u);
}

/**
 * Miss-heavy private sweeps: each CPU repeatedly walks its own
 * @p lines cache lines. With shrunken L1/L2 geometry the region
 * overflows the private levels, so steady-state accesses are
 * chip-local L3 hits — the traffic the shard-local fast path
 * resolves inside the parallel phase.
 */
Program
missHeavyProgram(Addr base, unsigned lines, unsigned sweeps)
{
    Assembler as;
    as.lhi(7, std::int64_t(sweeps));
    as.label("sweep");
    as.lhi(6, std::int64_t(lines));
    as.la(9, 0, std::int64_t(base));
    as.label("walk");
    as.lg(3, 9);
    as.ahi(3, 1);
    as.stg(3, 9);
    as.la(9, 9, 256);
    as.brct(6, "walk");
    as.brct(7, "sweep");
    as.halt();
    return as.finish();
}

/** shardedConfig with caches small enough to force L3 traffic. */
sim::MachineConfig
missHeavyConfig(std::uint64_t seed, unsigned host_threads)
{
    auto cfg = shardedConfig(seed, host_threads);
    cfg.geometry.l1 = {4 * 1024, 2};
    cfg.geometry.l2 = {16 * 1024, 4};
    cfg.geometry.l3 = {1024 * 1024, 8};
    cfg.geometry.l4 = {8 * 1024 * 1024, 8};
    return cfg;
}

/** One miss-heavy run: full stats JSON plus a region checksum. */
std::pair<std::string, std::uint64_t>
runMissHeavy(const sim::MachineConfig &cfg)
{
    sim::Machine m(cfg);
    std::vector<Program> programs;
    programs.reserve(m.numCpus());
    for (unsigned i = 0; i < m.numCpus(); ++i)
        programs.push_back(missHeavyProgram(
            dataBase + Addr(i) * 0x2'0000, 128, 3));
    for (unsigned i = 0; i < m.numCpus(); ++i)
        m.setProgram(i, &programs[i]);
    m.run();
    EXPECT_TRUE(m.allHalted());
    std::ostringstream os;
    m.dumpStatsJson(os);
    std::uint64_t sum = 0;
    for (unsigned i = 0; i < m.numCpus(); ++i)
        for (unsigned k = 0; k < 128; k += 16)
            sum += m.peekMem(dataBase + Addr(i) * 0x2'0000 +
                                 k * 256,
                             8) *
                   (i * 131 + k + 1);
    return {os.str(), sum};
}

TEST(Sharded, MissHeavyDeterminismMatrix)
{
    // The fast path's acceptance gate: with capacity misses forcing
    // L3 traffic through the shard-local path, the stats document
    // and final memory stay byte-identical across host-thread
    // counts, with and without chaos.
    inject::FaultPlan chaos;
    chaos.spuriousAbortRate = 0.002;
    chaos.delayedXiRate = 0.05;
    chaos.xiDelayMax = 60;

    for (const bool inject_chaos : {false, true}) {
        auto make = [&](unsigned threads) {
            auto cfg = missHeavyConfig(31, threads);
            if (inject_chaos) {
                cfg.faults = chaos;
                cfg.watchdogCycles = 2'000'000;
            }
            return cfg;
        };
        const auto ref = runMissHeavy(make(1));
        for (const unsigned threads : {2u, 4u}) {
            const auto got = runMissHeavy(make(threads));
            EXPECT_EQ(ref.first, got.first)
                << "stats diverged: " << threads
                << " host threads, chaos=" << inject_chaos;
            EXPECT_EQ(ref.second, got.second)
                << "memory diverged: " << threads
                << " host threads, chaos=" << inject_chaos;
        }
    }
}

TEST(Sharded, ShardLocalFastPathResolvesL3HitsInPhase)
{
    // Directed: steady-state L3 re-hits on private regions must be
    // resolved inside the parallel phase (sched.l3_local_hits),
    // not deferred to the barrier.
    sim::Machine m(missHeavyConfig(31, 1));
    std::vector<Program> programs;
    for (unsigned i = 0; i < m.numCpus(); ++i)
        programs.push_back(missHeavyProgram(
            dataBase + Addr(i) * 0x2'0000, 128, 3));
    for (unsigned i = 0; i < m.numCpus(); ++i)
        m.setProgram(i, &programs[i]);
    m.run();
    EXPECT_TRUE(m.allHalted());
    auto &st = m.stats();
    EXPECT_GT(st.counter("sched.l3_local_hits").value(), 0u)
        << "no shard-local L3 hits recorded";
    EXPECT_GT(st.counter("sched.steps_total").value(), 0u);
}

/** zEC12-like full topology: 6 cores x 6 chips x 4 MCMs = 144. */
sim::MachineConfig
fullTopologyConfig(std::uint64_t seed, unsigned host_threads)
{
    sim::MachineConfig cfg;
    cfg.topology = mem::Topology(6, 6, 4);
    cfg.seed = seed;
    cfg.hostThreads = host_threads;
    cfg.geometry.l1 = {4 * 1024, 2};
    cfg.geometry.l2 = {16 * 1024, 4};
    cfg.geometry.l3 = {8 * 1024 * 1024, 12};
    cfg.geometry.l4 = {32 * 1024 * 1024, 24};
    return cfg;
}

TEST(Sharded, FullTopologyDeterminismMatrix)
{
    // The scale campaign's correctness gate on the real 144-CPU
    // zEC12 topology: stats and memory bit-identical across host
    // threads. Shorter sweeps than the 8-CPU matrix keep 9 runs of
    // 144 CPUs inside the test timeout.
    auto run = [](const sim::MachineConfig &cfg) {
        sim::Machine m(cfg);
        std::vector<Program> programs;
        programs.reserve(m.numCpus());
        for (unsigned i = 0; i < m.numCpus(); ++i)
            programs.push_back(missHeavyProgram(
                dataBase + Addr(i) * 0x2'0000, 64, 2));
        for (unsigned i = 0; i < m.numCpus(); ++i)
            m.setProgram(i, &programs[i]);
        m.run();
        EXPECT_TRUE(m.allHalted());
        std::ostringstream os;
        m.dumpStatsJson(os);
        std::uint64_t sum = 0;
        for (unsigned i = 0; i < m.numCpus(); ++i)
            sum += m.peekMem(dataBase + Addr(i) * 0x2'0000, 8) *
                   (i + 1);
        return std::pair<std::string, std::uint64_t>{os.str(),
                                                     sum};
    };
    for (const std::uint64_t seed : {17ull, 29ull, 63ull}) {
        const auto ref = run(fullTopologyConfig(seed, 1));
        for (const unsigned threads : {2u, 4u}) {
            const auto got = run(fullTopologyConfig(seed, threads));
            EXPECT_EQ(ref.first, got.first)
                << "stats diverged: seed " << seed << ", "
                << threads << " host threads";
            EXPECT_EQ(ref.second, got.second)
                << "memory diverged: seed " << seed << ", "
                << threads << " host threads";
        }
    }
}

TEST(Sharded, LegacyArchStatsMatchShardedFullTopology)
{
    // hostThreads = 0 (legacy serial scheduler) completes the
    // determinism matrix: it is compared architecturally, not on
    // the raw document (MachineConfig doc) — but "architecturally"
    // is in fact everything except the scheduler's own bookkeeping.
    // Strip the sched.* / scheduler.* counters and the remaining
    // stats document must be byte-identical between the two
    // schedulers.
    auto arch_stats = [](const sim::MachineConfig &cfg) {
        sim::Machine m(cfg);
        std::vector<Program> programs;
        programs.reserve(m.numCpus());
        for (unsigned i = 0; i < m.numCpus(); ++i)
            programs.push_back(missHeavyProgram(
                dataBase + Addr(i) * 0x2'0000, 64, 2));
        for (unsigned i = 0; i < m.numCpus(); ++i)
            m.setProgram(i, &programs[i]);
        m.run();
        EXPECT_TRUE(m.allHalted());
        std::ostringstream os;
        m.dumpStatsJson(os);
        std::istringstream in(os.str());
        std::string filtered;
        std::string line;
        while (std::getline(in, line)) {
            if (line.find("\"sched.") != std::string::npos ||
                line.find("\"scheduler.") != std::string::npos)
                continue;
            filtered += line;
            filtered += '\n';
        }
        return filtered;
    };
    for (const std::uint64_t seed : {17ull, 29ull, 63ull}) {
        const std::string legacy =
            arch_stats(fullTopologyConfig(seed, 0));
        const std::string sharded =
            arch_stats(fullTopologyConfig(seed, 1));
        EXPECT_EQ(legacy, sharded)
            << "architectural stats diverged between the legacy "
               "and sharded schedulers: seed "
            << seed;
    }
}

TEST(Sharded, SameShardXiAbortMatchesLegacy)
{
    // A conflict abort delivered by a same-shard XI inside the
    // parallel phase must leave the same architectural state (TDB
    // block, abort-handler path, final memory) as the legacy serial
    // scheduler resolving the same conflict.
    constexpr Addr shared = dataBase;
    constexpr Addr tdb_addr = dataBase + 0x1000;

    // CPU 0: open a transaction, tx-read the shared line, then sit
    // in the transaction long enough for CPU 1's stores to land.
    Assembler a0;
    a0.la(8, 0, std::int64_t(tdb_addr));
    a0.la(9, 0, std::int64_t(shared));
    a0.lhi(5, 0);
    a0.tbegin(0xFF, {.tdbBase = 8});
    a0.jnz("handler");
    a0.lg(3, 9);
    a0.lhi(1, 4'000);
    a0.delay(1);
    a0.tend();
    a0.lhi(5, 1); // committed
    a0.halt();
    a0.label("handler");
    a0.lhi(5, 2); // aborted
    a0.halt();
    const Program p0 = a0.finish();

    // CPU 1 (same chip, same shard): wait, then hammer the line
    // with exclusive stores until the reject ladder gives up.
    Assembler a1;
    a1.la(9, 0, std::int64_t(shared));
    a1.lhi(1, 500);
    a1.delay(1);
    a1.lhi(8, 64);
    a1.label("hammer");
    a1.lg(3, 9);
    a1.ahi(3, 1);
    a1.stg(3, 9);
    a1.brct(8, "hammer");
    a1.halt();
    const Program p1 = a1.finish();

    auto outcome = [&](unsigned host_threads) {
        auto cfg = shardedConfig(13, host_threads);
        cfg.activeCpus = 2; // both CPUs on chip 0 -> one shard
        sim::Machine m(cfg);
        m.setProgram(0, &p0);
        m.setProgram(1, &p1);
        m.run();
        EXPECT_TRUE(m.allHalted());
        std::uint64_t tdb_sum = 0;
        for (unsigned off = 0; off < 256; off += 8)
            tdb_sum += m.peekMem(tdb_addr + off, 8) * (off + 1);
        return std::tuple<std::uint64_t, std::uint64_t,
                          std::uint64_t>{
            m.cpu(0).gr(5), tdb_sum, m.peekMem(shared, 8)};
    };

    const auto legacy = outcome(0);
    const auto sharded = outcome(1);
    // The conflict must actually abort CPU 0 (not be ridden out),
    // and every architectural artifact must agree bit-for-bit.
    EXPECT_EQ(std::get<0>(legacy), 2u) << "legacy run committed";
    EXPECT_EQ(legacy, sharded);
}

TEST(Sharded, HeapCarriesAcrossQuantaAndRuns)
{
    // The per-shard event heap is built once and carried: after the
    // initial seeding (one reinsert per live CPU), later quanta and
    // resumed runs must not rebuild it.
    Assembler as;
    as.label("spin");
    as.ahi(5, 1);
    as.j("spin");
    const Program p = as.finish();

    sim::Machine m(shardedConfig(3, 2));
    m.setProgramAll(&p);
    m.run(10'000);
    auto &st = m.stats();
    const std::uint64_t seeded =
        st.counter("sched.heap_reinserts").value();
    EXPECT_EQ(seeded, m.numCpus())
        << "initial seeding should insert each CPU exactly once";
    m.run(10'000);
    EXPECT_EQ(st.counter("sched.heap_reinserts").value(), seeded)
        << "resumed run rebuilt the carried heap";
}

TEST(Sharded, QuantumLatencyBounds)
{
    // The quantum the fast path relies on: the cheapest cross-chip
    // interaction at default latencies.
    const mem::LatencyModel lat;
    EXPECT_EQ(lat.minCrossChipLatency(), 68u);
}

/**
 * Oracle runs on the sharded scheduler: smallConfig(4) puts the
 * four CPUs on two chips (two shards), so the contended structures
 * cross shards and every cross-chip access defers to the barrier.
 */
sim::MachineConfig
oracleMachine(bool chaos)
{
    sim::MachineConfig cfg = smallConfig(4);
    cfg.watchdogCycles = 2'000'000;
    if (chaos) {
        cfg.faults.xiStormRate = 0.005;
        cfg.faults.spuriousAbortRate = 0.002;
        cfg.faults.delayedXiRate = 0.1;
        cfg.faults.xiDelayMax = 200;
    }
    return cfg;
}

/**
 * Run @p cfg (op-log on) through @p run at hostThreads 1, 2 and 4,
 * without and with the chaos mix. Every run must pass the
 * structural oracle and the order-inferred linearizability check
 * without a watchdog stop; elapsed cycles and the final structure
 * (@p outcome) must match the 1-thread run.
 */
template <typename Config, typename Run, typename Outcome>
void
expectOraclesAcrossHostThreads(Config cfg, Run run, Outcome outcome)
{
    cfg.cpus = 4;
    cfg.iterations = 40;
    cfg.opLog = true;
    for (const bool chaos : {false, true}) {
        cfg.machine = oracleMachine(chaos);
        Cycles ref_cycles = 0;
        decltype(outcome(run(cfg))) ref_outcome{};
        for (const unsigned threads : {1u, 2u, 4u}) {
            SCOPED_TRACE(testing::Message()
                         << threads << " host threads, chaos="
                         << chaos);
            cfg.machine.hostThreads = threads;
            const auto res = run(cfg);
            EXPECT_FALSE(res.watchdogFired);
            EXPECT_TRUE(res.oracle.ok) << res.oracle.summary();
            ASSERT_TRUE(res.lincheck.checked) << res.lincheck.reason;
            EXPECT_TRUE(res.lincheck.linearizable)
                << res.lincheck.reason;
            EXPECT_TRUE(res.orderInfer.inferred)
                << res.orderInfer.fallbackReason;
            if (threads == 1) {
                ref_cycles = res.elapsedCycles;
                ref_outcome = outcome(res);
            } else {
                EXPECT_EQ(res.elapsedCycles, ref_cycles);
                EXPECT_EQ(outcome(res), ref_outcome);
            }
        }
    }
}

TEST(Sharded, ElidedListSetOraclesHoldAcrossHostThreads)
{
    workload::ListSetBenchConfig cfg;
    cfg.useElision = true;
    expectOraclesAcrossHostThreads(
        cfg, workload::runListSetBench,
        [](const workload::ListSetBenchResult &r) {
            EXPECT_TRUE(r.sorted);
            EXPECT_TRUE(r.lengthConsistent);
            return std::tuple(r.finalLength, r.txCommits, r.txAborts);
        });
}

TEST(Sharded, ElidedHashTableOraclesHoldAcrossHostThreads)
{
    workload::HashTableBenchConfig cfg;
    cfg.useElision = true;
    expectOraclesAcrossHostThreads(
        cfg, workload::runHashTableBench,
        [](const workload::HashTableBenchResult &r) {
            return std::tuple(r.occupiedBuckets, r.txCommits,
                              r.txAborts);
        });
}

TEST(Sharded, ConstrainedQueueOraclesHoldAcrossHostThreads)
{
    workload::QueueBenchConfig cfg;
    cfg.useConstrainedTx = true;
    expectOraclesAcrossHostThreads(
        cfg, workload::runQueueBench,
        [](const workload::QueueBenchResult &r) {
            return std::tuple(r.finalLength, r.dequeuedNonEmpty,
                              r.txCommits, r.txAborts);
        });
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
    // not fire while transfers keep completing — in both the legacy
    // and the sharded scheduler.
    for (const unsigned host_threads : {0u, 1u}) {
        auto cfg = smallConfig(1);
        cfg.hostThreads = host_threads;
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
        EXPECT_FALSE(m.watchdogFired())
            << "fired with " << host_threads
            << " host threads despite live I/O";
        EXPECT_GT(m.io().completed(), 0u);
    }
}

TEST(Watchdog, FiresWithoutAnyProgressSource)
{
    // Counter-check for the test above: the same spinning machine
    // with no I/O traffic must trip the watchdog in both schedulers.
    for (const unsigned host_threads : {0u, 1u}) {
        auto cfg = smallConfig(1);
        cfg.hostThreads = host_threads;
        cfg.watchdogCycles = 30'000;
        sim::Machine m(cfg);
        const Program p = spinProgram();
        m.setProgram(0, &p);
        m.run(2'000'000);
        EXPECT_TRUE(m.watchdogFired())
            << host_threads << " host threads";
    }
}

} // namespace
