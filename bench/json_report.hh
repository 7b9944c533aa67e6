/**
 * @file
 * Machine-readable bench reporting: every benchmark binary can
 * emit a `BENCH_<name>.json` document containing one record per
 * sweep point (CPU count / variant, throughput, abort breakdown by
 * reason) plus run metadata and a sim-speed self-meter (simulated
 * cycles and instructions per host second), so performance changes
 * across PRs are diffable by machines, not just eyeballs.
 *
 * Activation:
 *   --json <path>        explicit output file (beats the env var)
 *   ZTX_BENCH_JSON=<dir> write <dir>/BENCH_<name>.json
 * With neither, the report is disabled and text output is the only
 * effect of the binary, exactly as before.
 */

#ifndef ZTX_BENCH_JSON_REPORT_HH
#define ZTX_BENCH_JSON_REPORT_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

#include "common/json.hh"
#include "common/types.hh"
#include "sim/machine.hh"
#include "workload/report.hh"
#include "workload/run.hh"

namespace ztx::bench {

/**
 * Resolve the JSON output path for @p bench_name from a `--json
 * <path>` / `--json=<path>` argument or the `ZTX_BENCH_JSON`
 * directory; empty when reporting is disabled.
 */
std::string jsonReportPath(const std::string &bench_name, int argc,
                           char **argv);

/** An abort-reason map as a JSON object. */
Json abortBreakdownJson(
    const std::map<std::string, std::uint64_t> &aborts_by_reason);

/**
 * A RAS summary as a JSON object: poison/machine-check activity and
 * what recovery did. All-zero (same shape) without RAS faults.
 */
Json rasStatsJson(const workload::RasSummary &ras);

/**
 * The shared result fields of one sweep-point record: throughput,
 * commit/abort counts, the abort-reason breakdown, and the
 * simulated work (cycles, instructions) behind the point.
 */
Json resultJson(const workload::RunResult &res);

/** Collects sweep-point records and writes the bench document. */
class JsonReport
{
  public:
    /**
     * @param bench_name Short name; the default file is
     *        BENCH_<bench_name>.json.
     * @param argc/argv Scanned (not consumed) for `--json`.
     * Also arms the phase profiler when ZTX_PROF is set.
     */
    explicit JsonReport(std::string bench_name, int argc = 0,
                        char **argv = nullptr);

    /** True when a destination was configured. */
    bool enabled() const { return !path_.empty(); }

    /** Destination file ("" when disabled). */
    const std::string &path() const { return path_; }

    /** Run-metadata object; add bench-specific keys freely. */
    Json &meta() { return meta_; }

    /** Record the sweep's machine configuration under meta. */
    void setMachineConfig(const sim::MachineConfig &config);

    /**
     * Append one sweep-point record (no-op when disabled). With the
     * phase profiler armed, the record also carries a `prof`
     * snapshot of the host time spent since the previous record.
     */
    void addRecord(Json record);

    /** Account simulated work for the sim-speed self-meter. */
    void addSimWork(Cycles cycles, std::uint64_t instructions);

    /**
     * Account @p res's simulated work and append its record:
     * resultJson(@p res) plus the point's identifying @p keys.
     */
    void addResult(const workload::RunResult &res, Json::Object keys);

    /**
     * Write the document (no-op success when disabled).
     * @return False when the file could not be written.
     */
    bool write();

  private:
    std::string name_;
    std::string path_;
    Json meta_ = Json::object();
    Json records_ = Json::array();
    std::uint64_t simCycles_ = 0;
    std::uint64_t instructions_ = 0;
    std::chrono::steady_clock::time_point start_;
};

} // namespace ztx::bench

#endif // ZTX_BENCH_JSON_REPORT_HH
