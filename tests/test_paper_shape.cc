/**
 * @file
 * Paper-shape gate: reduced runs of the figure 5 sweeps assert the
 * orderings EXPERIMENTS.md marks ✓, on raw throughputs. Only the
 * claims with a clear margin at these reduced points are gated:
 *  - 5(b): both transaction flavours beat both locks at every CPU
 *    count (the smallest lead, TBEGIN at 2 CPUs, is ~33 %);
 *  - 5(d): the RW lock is flat from 24 to 100 CPUs while TBEGINC
 *    keeps growing.
 * 5(c) stays ungated: its lock leads TBEGINC by ~2 % at 100 CPUs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "../bench/figure.hh"

namespace {

using namespace ztx;

const std::vector<unsigned> points = {2, 4, 8, 24, 100};
constexpr unsigned iterations = 60;

/** Raw-throughput table of @p spec at the reduced points. */
workload::SeriesTable
sweep(const bench::FigureSpec &spec)
{
    unsetenv("ZTX_BENCH_JSON"); // keep the report disabled
    bench::JsonReport report(spec.name);
    return bench::runFigure(spec, points, iterations, report).raw;
}

TEST(PaperShape, Fig5bTransactionsBeatBothLocksEverywhere)
{
    const auto raw = sweep(bench::fig5bSpec);
    ASSERT_EQ(raw.rows(), points.size());
    // Columns: CoarseLock, FineLock, TBEGINC, TBEGIN.
    for (std::size_t row = 0; row < raw.rows(); ++row) {
        const double best_lock =
            std::max(raw.value(row, 0), raw.value(row, 1));
        EXPECT_GT(raw.value(row, 2), best_lock)
            << "TBEGINC at " << points[row] << " CPUs";
        EXPECT_GT(raw.value(row, 3), best_lock)
            << "TBEGIN at " << points[row] << " CPUs";
    }
}

TEST(PaperShape, Fig5dRwLockFlatWhileTbegincGrows)
{
    const auto raw = sweep(bench::fig5dSpec);
    ASSERT_EQ(raw.rows(), points.size());
    // Columns: RW-Lock, TBEGINC; rows 3 and 4 are 24 and 100 CPUs.
    const double rw_growth = raw.value(4, 0) / raw.value(3, 0);
    const double tx_growth = raw.value(4, 1) / raw.value(3, 1);
    EXPECT_LT(rw_growth, 1.3) << "RW lock should plateau past 24";
    EXPECT_GT(tx_growth, 3.0) << "TBEGINC should keep scaling";
    EXPECT_GT(raw.value(4, 1), 5.0 * raw.value(4, 0));
}

} // namespace
