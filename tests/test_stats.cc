/** @file Unit tests for counters, distributions, and histograms. */

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "common/json.hh"
#include "common/stats.hh"
#include "sim/machine.hh"
#include "workload/update_bench.hh"

namespace {

using ztx::Counter;
using ztx::Distribution;
using ztx::Histogram;
using ztx::Json;
using ztx::StatGroup;

TEST(Counter, StartsAtZeroAndIncrements)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(5);
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Distribution, MeanMinMax)
{
    Distribution d;
    d.sample(2.0);
    d.sample(4.0);
    d.sample(9.0);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 9.0);
    EXPECT_EQ(d.count(), 3u);
}

TEST(Distribution, EmptyIsZero)
{
    Distribution d;
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.min(), 0.0);
    EXPECT_DOUBLE_EQ(d.max(), 0.0);
}

TEST(Distribution, ResetForgets)
{
    Distribution d;
    d.sample(100.0);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
    d.sample(1.0);
    EXPECT_DOUBLE_EQ(d.max(), 1.0);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(4, 10.0); // [0,10) [10,20) [20,30) [30,40) + overflow
    h.sample(0.0);
    h.sample(9.9);
    h.sample(10.0);
    h.sample(35.0);
    h.sample(40.0);  // overflow
    h.sample(999.0); // overflow
    // Values a size_t cannot hold, and NaN, are overflow too.
    h.sample(std::numeric_limits<double>::infinity());
    h.sample(1e300);
    h.sample(std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 0u);
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_EQ(h.bucketCount(4), 5u);
    EXPECT_EQ(h.total(), 9u);
}

TEST(Histogram, NegativeClampsToFirstBucket)
{
    Histogram h(2, 1.0);
    h.sample(-5.0);
    EXPECT_EQ(h.bucketCount(0), 1u);
}

TEST(StatGroup, NamedCountersPersist)
{
    StatGroup g("cpu0");
    g.counter("aborts").inc(3);
    EXPECT_EQ(g.counter("aborts").value(), 3u);
}

TEST(StatGroup, DumpFormat)
{
    StatGroup g("l1");
    g.counter("hits").inc(7);
    std::ostringstream os;
    g.dump(os);
    EXPECT_EQ(os.str(), "l1.hits 7\n");
}

TEST(StatGroup, ResetAllClearsEverything)
{
    StatGroup g("x");
    g.counter("a").inc(2);
    g.distribution("d").sample(1.0);
    g.histogram("h", 4, 10.0).sample(5.0);
    g.resetAll();
    EXPECT_EQ(g.counter("a").value(), 0u);
    EXPECT_EQ(g.distribution("d").count(), 0u);
    EXPECT_EQ(g.histogram("h", 4, 10.0).total(), 0u);
}

TEST(StatGroup, DumpDistributionEmitsFullSummary)
{
    StatGroup g("cpu");
    g.distribution("lat").sample(2.0);
    g.distribution("lat").sample(6.0);
    std::ostringstream os;
    g.dump(os);
    EXPECT_EQ(os.str(), "cpu.lat.mean 4\n"
                        "cpu.lat.count 2\n"
                        "cpu.lat.min 2\n"
                        "cpu.lat.max 6\n"
                        "cpu.lat.sum 8\n");
}

TEST(StatGroup, DumpHistogramEmitsBuckets)
{
    StatGroup g("cpu");
    Histogram &h = g.histogram("reg", 2, 10.0);
    h.sample(5.0);
    h.sample(15.0);
    h.sample(99.0);
    std::ostringstream os;
    g.dump(os);
    EXPECT_EQ(os.str(), "cpu.reg.bucket0 1\n"
                        "cpu.reg.bucket1 1\n"
                        "cpu.reg.overflow 1\n"
                        "cpu.reg.total 3\n");
}

TEST(StatGroup, HistogramFirstRegistrationWins)
{
    StatGroup g("x");
    Histogram &a = g.histogram("h", 4, 10.0);
    Histogram &b = g.histogram("h", 99, 1.0);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.buckets(), 4u);
    EXPECT_DOUBLE_EQ(b.bucketWidth(), 10.0);
}

TEST(StatGroup, JsonRoundTrip)
{
    StatGroup g("cpu0");
    g.counter("tx.commits").inc(41);
    g.distribution("region").sample(10.0);
    g.distribution("region").sample(30.0);
    g.histogram("hist", 2, 16.0).sample(3.0);
    g.histogram("hist", 2, 16.0).sample(100.0);

    std::ostringstream os;
    g.dumpJson(os, 2);
    const auto parsed = Json::parse(os.str());
    ASSERT_TRUE(parsed.has_value());

    EXPECT_EQ(parsed->find("name")->str(), "cpu0");
    const Json *counters = parsed->find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->find("tx.commits")->asUint(), 41u);

    const Json *dist =
        parsed->find("distributions")->find("region");
    ASSERT_NE(dist, nullptr);
    EXPECT_EQ(dist->find("count")->asUint(), 2u);
    EXPECT_DOUBLE_EQ(dist->find("mean")->number(), 20.0);
    EXPECT_DOUBLE_EQ(dist->find("min")->number(), 10.0);
    EXPECT_DOUBLE_EQ(dist->find("max")->number(), 30.0);
    EXPECT_DOUBLE_EQ(dist->find("sum")->number(), 40.0);

    const Json *hist = parsed->find("histograms")->find("hist");
    ASSERT_NE(hist, nullptr);
    EXPECT_DOUBLE_EQ(hist->find("bucket_width")->number(), 16.0);
    ASSERT_EQ(hist->find("buckets")->size(), 2u);
    EXPECT_EQ(hist->find("buckets")->at(0).asUint(), 1u);
    EXPECT_EQ(hist->find("buckets")->at(1).asUint(), 0u);
    EXPECT_EQ(hist->find("overflow")->asUint(), 1u);
    EXPECT_EQ(hist->find("total")->asUint(), 2u);
}

TEST(Json, ScalarsRoundTrip)
{
    Json j = Json::object();
    j["u"] = std::uint64_t(18446744073709551615ull);
    j["neg"] = -42;
    j["pi"] = 3.25;
    j["s"] = "quote \" backslash \\ newline \n";
    j["t"] = true;
    j["n"] = nullptr;
    Json arr = Json::array();
    arr.push(1u);
    arr.push("two");
    j["arr"] = std::move(arr);

    const auto parsed = Json::parse(j.dump(2));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->find("u")->asUint(),
              18446744073709551615ull);
    EXPECT_DOUBLE_EQ(parsed->find("neg")->number(), -42.0);
    EXPECT_DOUBLE_EQ(parsed->find("pi")->number(), 3.25);
    EXPECT_EQ(parsed->find("s")->str(),
              "quote \" backslash \\ newline \n");
    EXPECT_TRUE(parsed->find("t")->boolean());
    EXPECT_TRUE(parsed->find("n")->isNull());
    EXPECT_EQ(parsed->find("arr")->size(), 2u);
    EXPECT_EQ(parsed->find("arr")->at(1).str(), "two");
}

TEST(StatGroup, CounterHandleBindsOnFirstInc)
{
    StatGroup g("g");
    ztx::CounterHandle h(g, "events");
    EXPECT_TRUE(g.counters().empty()); // unfired: no key
    h.inc();
    h.inc(4);
    EXPECT_EQ(g.counters().at("events").value(), 5u);
    // A counter registered through the group first is the same one.
    g.counter("other").inc(2);
    ztx::CounterHandle other(g, "other");
    other.inc();
    EXPECT_EQ(g.counters().at("other").value(), 3u);
    g.resetAll();
    h.inc();
    EXPECT_EQ(g.counters().at("events").value(), 1u);
}

/** Counter keys of every instantiated CPU of @p m, in CPU order. */
std::vector<std::set<std::string>>
cpuCounterKeys(const ztx::sim::Machine &m)
{
    std::vector<std::set<std::string>> keys;
    for (unsigned i = 0; i < m.numCpus(); ++i) {
        keys.emplace_back();
        for (const auto &[name, unused] : m.cpu(i).stats().counters())
            keys.back().insert(name);
    }
    return keys;
}

/** A finished run: the machine and the program it ran. */
struct UpdateRun
{
    std::unique_ptr<ztx::isa::Program> program;
    std::unique_ptr<ztx::sim::Machine> machine;
};

/**
 * Run the update benchmark's program on @p cpus CPUs of an 8-CPU
 * machine (legacy scheduler).
 */
UpdateRun
runUpdate(ztx::workload::SyncMethod method, unsigned cpus,
          unsigned pool, unsigned vars, unsigned iterations,
          bool contended)
{
    using namespace ztx;
    workload::UpdateBenchConfig cfg;
    cfg.cpus = cpus;
    cfg.poolSize = pool;
    cfg.varsPerOp = vars;
    cfg.method = method;
    cfg.iterations = iterations;
    sim::MachineConfig mc;
    mc.topology = mem::Topology(2, 2, 2);
    mc.activeCpus = cpus;
    mc.seed = 1;
    if (contended) {
        // Hang avoidance and timer ticks add conflict and
        // interrupt aborts to the stiff-armed conflicts.
        mc.tm.xiRejectAbortThreshold = 2;
        mc.externalInterruptPeriod = 3000;
    }
    UpdateRun run{std::make_unique<isa::Program>(
                      workload::buildUpdateProgram(cfg)),
                  std::make_unique<sim::Machine>(mc)};
    run.machine->setProgramAll(run.program.get());
    run.machine->run();
    EXPECT_TRUE(run.machine->allHalted());
    return run;
}

TEST(StatGroup, BoundHandlesKeepKeySet)
{
    using ztx::workload::SyncMethod;
    using Keys = std::set<std::string>;

    // Coarse lock on 3 of 8 CPUs: the 5 inactive CPUs have no stats
    // group at all, and the active ones no tx.* or millicode.* keys.
    {
        const UpdateRun run =
            runUpdate(SyncMethod::CoarseLock, 3, 16, 1, 40, false);
        EXPECT_EQ(run.machine->statsJson().find("cpus")->size(), 3u);
        for (const Keys &keys : cpuCounterKeys(*run.machine))
            EXPECT_EQ(keys, (Keys{"instructions", "xi.received"}));
    }

    // TBEGIN on 8 CPUs: the tx.abort.<reason> keys are exactly the
    // reasons that fired (CPU 2 never took a TABORT).
    {
        const UpdateRun run =
            runUpdate(SyncMethod::TBegin, 8, 16, 4, 60, true);
        const Keys common = {
            "external_interrupts",        "fetch.rejected",
            "instructions",               "millicode.ppa",
            "tx.abort.external-interrupt", "tx.abort.fetch-conflict",
            "tx.abort.store-conflict",    "tx.aborts",
            "tx.begins",                  "tx.commits",
            "xi.received",                "xi.rejects_sent"};
        const auto keys = cpuCounterKeys(*run.machine);
        for (unsigned i = 0; i < keys.size(); ++i) {
            Keys want = common;
            if (i != 2)
                want.insert("tx.abort.tabort");
            EXPECT_EQ(keys[i], want) << "cpu " << i;
        }
    }

    // TBEGINC escalates through the millicode ladder.
    {
        const UpdateRun run =
            runUpdate(SyncMethod::TBeginc, 8, 16, 4, 60, true);
        const Keys want = {"external_interrupts",
                           "fetch.rejected",
                           "instructions",
                           "millicode.constrained_delays",
                           "millicode.solo_releases",
                           "millicode.solo_requests",
                           "millicode.speculation_reduced",
                           "tx.abort.external-interrupt",
                           "tx.abort.fetch-conflict",
                           "tx.abort.store-conflict",
                           "tx.aborts",
                           "tx.begins",
                           "tx.begins_constrained",
                           "tx.commits",
                           "tx.commits_constrained",
                           "xi.received",
                           "xi.rejects_sent"};
        for (const Keys &keys : cpuCounterKeys(*run.machine))
            EXPECT_EQ(keys, want);
    }
}

TEST(Json, ParseRejectsMalformed)
{
    EXPECT_FALSE(Json::parse("").has_value());
    EXPECT_FALSE(Json::parse("{").has_value());
    EXPECT_FALSE(Json::parse("{\"a\":1,}").has_value());
    EXPECT_FALSE(Json::parse("[1, 2").has_value());
    EXPECT_FALSE(Json::parse("true false").has_value());
    EXPECT_FALSE(Json::parse("\"unterminated").has_value());
    EXPECT_TRUE(Json::parse("{\"a\": [1, 2.5, null]}").has_value());
}

} // namespace
