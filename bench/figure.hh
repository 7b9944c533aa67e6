/**
 * @file
 * The figure 5(a)-(d) sweep as data: a FigureSpec names the update
 * workload's pools, operation shape and compared methods, and
 * runFigure() runs every (CPU count, pool, method) point, records
 * it in the bench report, and returns the throughput table
 * normalized to the paper's reference (100 ≙ 2 CPUs, 1 variable,
 * pool of 1, coarse lock).
 */

#ifndef ZTX_BENCH_FIGURE_HH
#define ZTX_BENCH_FIGURE_HH

#include <string>
#include <vector>

#include "json_report.hh"
#include "workload/report.hh"
#include "workload/update_bench.hh"

namespace ztx::bench {

/** One figure's sweep: the table has one column per (pool, method). */
struct FigureSpec
{
    /** Report name; the file is BENCH_<name>.json. */
    std::string name;
    /** First comment line printed above the table. */
    std::string title;
    std::vector<unsigned> pools;
    unsigned varsPerOp = 1;
    bool readOnly = false;
    std::vector<workload::SyncMethod> methods;
    /** Column headers, pool-major: pools.size() * methods.size(). */
    std::vector<std::string> columns;
    /** Record variants as "<method>-<pool>" instead of "<method>". */
    bool poolInVariant = false;
};

/** The tables of one figure sweep, one row per CPU count. */
struct FigureTables
{
    /** Normalized throughput (100 ≙ the reference): the figure. */
    workload::SeriesTable normalized;
    /** Raw throughput, CPUs / mean region cycles. */
    workload::SeriesTable raw;
};

/** @name The paper's figures 5(a)-(d) @{ */
extern const FigureSpec fig5aSpec;
extern const FigureSpec fig5bSpec;
extern const FigureSpec fig5cSpec;
extern const FigureSpec fig5dSpec;
/** @} */

/**
 * Run @p spec at @p cpu_points with @p iterations operations per
 * CPU on benchMachine(), one record per point in @p report.
 */
FigureTables runFigure(const FigureSpec &spec,
                       const std::vector<unsigned> &cpu_points,
                       unsigned iterations, JsonReport &report);

/**
 * A figure binary's main: run @p spec at cpuPoints() and
 * benchIterations(), print the title and the normalized table,
 * and write the report. @return The process exit status.
 */
int figureMain(const FigureSpec &spec, int argc, char **argv);

} // namespace ztx::bench

#endif // ZTX_BENCH_FIGURE_HH
