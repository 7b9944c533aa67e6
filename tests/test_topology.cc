/** @file Unit tests for SMP topology and the latency model. */

#include <gtest/gtest.h>

#include "mem/latency_model.hh"
#include "mem/topology.hh"

namespace {

using ztx::mem::DataSource;
using ztx::mem::Distance;
using ztx::mem::LatencyModel;
using ztx::mem::Topology;

TEST(Topology, DefaultSizes)
{
    Topology t;
    EXPECT_EQ(t.numCpus(), 120u);
    EXPECT_EQ(t.numChips(), 20u);
    EXPECT_EQ(t.numMcms(), 5u);
}

TEST(Topology, ChipAndMcmMapping)
{
    Topology t(6, 4, 5);
    EXPECT_EQ(t.chipOf(0), 0u);
    EXPECT_EQ(t.chipOf(5), 0u);
    EXPECT_EQ(t.chipOf(6), 1u);
    EXPECT_EQ(t.mcmOf(0), 0u);
    EXPECT_EQ(t.mcmOf(23), 0u);
    EXPECT_EQ(t.mcmOf(24), 1u);
}

TEST(Topology, Distances)
{
    Topology t(6, 4, 5);
    EXPECT_EQ(t.distance(3, 3), Distance::SameCpu);
    EXPECT_EQ(t.distance(0, 5), Distance::SameChip);
    EXPECT_EQ(t.distance(0, 6), Distance::SameMcm);
    EXPECT_EQ(t.distance(0, 23), Distance::SameMcm);
    EXPECT_EQ(t.distance(0, 24), Distance::CrossMcm);
    EXPECT_EQ(t.distance(24, 0), Distance::CrossMcm);
}

TEST(Topology, CustomShape)
{
    Topology t(2, 2, 2);
    EXPECT_EQ(t.numCpus(), 8u);
    EXPECT_EQ(t.distance(0, 1), Distance::SameChip);
    EXPECT_EQ(t.distance(0, 2), Distance::SameMcm);
    EXPECT_EQ(t.distance(0, 4), Distance::CrossMcm);
}

TEST(LatencyModel, HierarchyOrdering)
{
    LatencyModel lat;
    EXPECT_LT(lat.fetch(DataSource::L1), lat.fetch(DataSource::L2));
    EXPECT_LT(lat.fetch(DataSource::L2), lat.fetch(DataSource::L3));
    EXPECT_LT(lat.fetch(DataSource::L3), lat.fetch(DataSource::L4));
    EXPECT_LT(lat.fetch(DataSource::L4),
              lat.fetch(DataSource::RemoteMcm));
    EXPECT_LT(lat.fetch(DataSource::RemoteMcm),
              lat.fetch(DataSource::Memory));
}

TEST(LatencyModel, PaperGivenLatencies)
{
    LatencyModel lat;
    // The paper states 4-cycle L1 use latency and a 7-cycle L1-miss
    // penalty to the L2.
    EXPECT_EQ(lat.fetch(DataSource::L1), 4u);
    EXPECT_EQ(lat.fetch(DataSource::L2), 11u);
}

TEST(Topology, RangesMatchChipAndMcmOf)
{
    // A chip's and an MCM's CPUs form one contiguous range: the
    // directory's holder query masks sharer words with these ranges.
    for (const Topology t : {Topology(), Topology(6, 6, 4),
                             Topology(7, 3, 5)}) {
        for (ztx::CpuId a = 0; a < t.numCpus(); ++a) {
            const auto chip = t.chipRange(a);
            const auto mcm = t.mcmRange(a);
            for (ztx::CpuId b = 0; b < t.numCpus(); ++b) {
                EXPECT_EQ(chip.contains(b), t.chipOf(a) == t.chipOf(b));
                EXPECT_EQ(mcm.contains(b), t.mcmOf(a) == t.mcmOf(b));
            }
        }
    }
}

TEST(LatencyModel, InterventionGrowsWithDistance)
{
    LatencyModel lat;
    EXPECT_EQ(lat.intervention(Distance::SameCpu), 0u);
    EXPECT_LT(lat.intervention(Distance::SameChip),
              lat.intervention(Distance::SameMcm));
    EXPECT_LT(lat.intervention(Distance::SameMcm),
              lat.intervention(Distance::CrossMcm));
}

TEST(LatencyModel, RejectRetryIsPositive)
{
    LatencyModel lat;
    EXPECT_GT(lat.rejectRetry(Distance::SameChip), 0u);
}

} // namespace
