/**
 * @file
 * End-to-end tests for the JSON reporting subsystem: the
 * BENCH_<name>.json document written by bench::JsonReport, the
 * machine-level statsJson() document, and the invariant that the
 * abort-reason breakdown sums to the total abort count.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>

#include "../bench/json_report.hh"
#include "workload/update_bench.hh"
#include "ztx_test_util.hh"

namespace {

using namespace ztx;
using namespace ztx::test;
using workload::SyncMethod;
using workload::UpdateBenchConfig;

/** Read a whole file into a string. */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** A contended update-bench run on the small test machine. */
workload::UpdateBenchResult
contendedRun()
{
    UpdateBenchConfig cfg;
    cfg.cpus = 8;
    cfg.poolSize = 2;
    cfg.varsPerOp = 2;
    cfg.method = SyncMethod::TBegin;
    cfg.iterations = 200;
    cfg.machine = smallConfig(8);
    return workload::runUpdateBench(cfg);
}

TEST(JsonReportPath, DisabledWithoutEnvOrFlag)
{
    unsetenv("ZTX_BENCH_JSON");
    EXPECT_EQ(bench::jsonReportPath("x", 0, nullptr), "");
    bench::JsonReport report("x");
    EXPECT_FALSE(report.enabled());
    EXPECT_TRUE(report.write()); // disabled write is a no-op success
}

TEST(JsonReportPath, EnvVarNamesTheFile)
{
    setenv("ZTX_BENCH_JSON", "/some/dir", 1);
    EXPECT_EQ(bench::jsonReportPath("fig", 0, nullptr),
              "/some/dir/BENCH_fig.json");
    unsetenv("ZTX_BENCH_JSON");
}

TEST(JsonReportPath, FlagBeatsEnvVar)
{
    setenv("ZTX_BENCH_JSON", "/some/dir", 1);
    const char *argv1[] = {"bench", "--json", "/tmp/out.json"};
    EXPECT_EQ(bench::jsonReportPath("fig", 3,
                                    const_cast<char **>(argv1)),
              "/tmp/out.json");
    const char *argv2[] = {"bench", "--json=/tmp/eq.json"};
    EXPECT_EQ(bench::jsonReportPath("fig", 2,
                                    const_cast<char **>(argv2)),
              "/tmp/eq.json");
    unsetenv("ZTX_BENCH_JSON");
}

TEST(JsonReport, WritesSchemaConformingDocument)
{
    const std::string path =
        ::testing::TempDir() + "BENCH_unit.json";
    std::remove(path.c_str());
    const char *argv[] = {"bench", "--json", path.c_str()};
    bench::JsonReport report("unit", 3,
                             const_cast<char **>(argv));
    ASSERT_TRUE(report.enabled());
    report.setMachineConfig(smallConfig(2));
    report.meta()["iterations"] = 7u;

    const auto res = contendedRun();
    report.addResult(res, {{"cpus", 2u}, {"variant", "tbegin"}});
    ASSERT_TRUE(report.write());

    const auto doc = Json::parse(slurp(path));
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("kind")->str(), "ztx.bench");
    EXPECT_EQ(doc->find("schema_version")->asUint(), 1u);
    EXPECT_EQ(doc->find("bench")->str(), "unit");

    const Json *meta = doc->find("meta");
    ASSERT_NE(meta, nullptr);
    EXPECT_EQ(meta->find("iterations")->asUint(), 7u);
    const Json *machine = meta->find("machine");
    ASSERT_NE(machine, nullptr);
    EXPECT_EQ(machine->find("seed")->asUint(), 12345u);
    EXPECT_EQ(machine->find("topology")
                  ->find("total_cpus")
                  ->asUint(),
              8u);

    const Json *records = doc->find("records");
    ASSERT_NE(records, nullptr);
    ASSERT_EQ(records->size(), 1u);
    const Json &r = records->at(0);
    EXPECT_EQ(r.find("variant")->str(), "tbegin");
    EXPECT_GT(r.find("throughput")->number(), 0.0);
    EXPECT_GT(r.find("sim_cycles")->asUint(), 0u);
    EXPECT_GT(r.find("instructions")->asUint(), 0u);
    ASSERT_NE(r.find("aborts_by_reason"), nullptr);

    const Json *speed = doc->find("sim_speed");
    ASSERT_NE(speed, nullptr);
    EXPECT_GT(speed->find("host_seconds")->number(), 0.0);
    EXPECT_EQ(speed->find("sim_cycles")->asUint(),
              std::uint64_t(res.elapsedCycles));
    EXPECT_EQ(speed->find("instructions")->asUint(),
              res.instructions);
    EXPECT_GT(speed->find("sim_cycles_per_host_second")->number(),
              0.0);
    EXPECT_GT(
        speed->find("instructions_per_host_second")->number(),
        0.0);
    std::remove(path.c_str());
}

TEST(JsonReport, AbortBreakdownSumsToTotalAborts)
{
    const auto res = contendedRun();
    ASSERT_GT(res.txAborts, 0u) << "workload must contend";
    std::uint64_t by_reason = 0;
    for (const auto &[reason, n] : res.abortsByReason) {
        EXPECT_FALSE(reason.empty());
        by_reason += n;
    }
    EXPECT_EQ(by_reason, res.txAborts);

    const Json rec = bench::resultJson(res);
    std::uint64_t json_sum = 0;
    for (const auto &[reason, n] :
         rec.find("aborts_by_reason")->items())
        json_sum += n.asUint();
    EXPECT_EQ(json_sum, res.txAborts);
    EXPECT_EQ(rec.find("aborts")->asUint(), res.txAborts);
}

TEST(MachineStatsJson, CoversAllComponents)
{
    isa::Assembler as;
    as.lhi(5, 0);
    as.lhi(8, 50);
    as.label("loop");
    as.tbegin(0x00);
    as.jnz("skip");
    as.ahi(5, 1);
    as.tend();
    as.label("skip");
    as.brct(8, "loop");
    as.halt();
    const isa::Program p = as.finish();

    sim::Machine m(smallConfig(2));
    m.setProgramAll(&p);
    m.run();

    std::ostringstream os;
    m.dumpStatsJson(os);
    const auto doc = Json::parse(os.str());
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("kind")->str(), "ztx.machine.stats");

    const Json *meta = doc->find("meta");
    ASSERT_NE(meta, nullptr);
    EXPECT_EQ(meta->find("seed")->asUint(), 12345u);
    EXPECT_EQ(meta->find("instantiated_cpus")->asUint(), 2u);
    EXPECT_GT(meta->find("elapsed_cycles")->asUint(), 0u);
    EXPECT_EQ(meta->find("topology")->find("total_cpus")->asUint(),
              8u);
    EXPECT_TRUE(meta->find("tm")->contains("store_cache_entries"));

    for (const char *group : {"machine", "hierarchy", "os"})
        EXPECT_TRUE(doc->contains(group)) << group;
    EXPECT_FALSE(doc->contains("io")); // not enabled

    const Json *cpus = doc->find("cpus");
    ASSERT_NE(cpus, nullptr);
    ASSERT_EQ(cpus->size(), 2u);
    const Json *counters = cpus->at(0).find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_GT(counters->find("instructions")->asUint(), 0u);
    EXPECT_GT(counters->find("tx.commits")->asUint(), 0u);
    // The scheduler's own stats ride along in the machine group.
    EXPECT_GT(doc->find("machine")
                  ->find("counters")
                  ->find("scheduler.steps")
                  ->asUint(),
              0u);
}

} // namespace
