/** @file Unit tests for the global coherence directory. */

#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "mem/directory.hh"

namespace {

using ztx::Addr;
using ztx::CpuId;
using ztx::invalidCpu;
using ztx::mem::CoherenceDirectory;
using ztx::mem::CpuRange;
using ztx::mem::HolderScope;

constexpr Addr lineA = 0x1000;
constexpr Addr lineB = 0x2000;

TEST(Directory, UnknownLineIsIdle)
{
    CoherenceDirectory d;
    EXPECT_TRUE(d.lookup(lineA).idle());
    EXPECT_FALSE(d.holds(0, lineA));
}

TEST(Directory, ExclusiveOwnership)
{
    CoherenceDirectory d;
    d.setExclusive(lineA, 3);
    EXPECT_EQ(d.lookup(lineA).owner, CpuId(3));
    EXPECT_TRUE(d.holds(3, lineA));
    EXPECT_FALSE(d.holds(2, lineA));
}

TEST(Directory, SharersAccumulate)
{
    CoherenceDirectory d;
    d.addSharer(lineA, 1);
    d.addSharer(lineA, 2);
    EXPECT_TRUE(d.holds(1, lineA));
    EXPECT_TRUE(d.holds(2, lineA));
    EXPECT_EQ(d.lookup(lineA).owner, invalidCpu);
}

TEST(Directory, DemoteOwnerBecomesSharer)
{
    CoherenceDirectory d;
    d.setExclusive(lineA, 5);
    d.demoteOwner(lineA);
    EXPECT_EQ(d.lookup(lineA).owner, invalidCpu);
    EXPECT_TRUE(d.holds(5, lineA));
    d.addSharer(lineA, 6);
    EXPECT_TRUE(d.holds(6, lineA));
}

TEST(Directory, SetExclusiveDropsOldSharers)
{
    CoherenceDirectory d;
    d.addSharer(lineA, 1);
    d.addSharer(lineA, 2);
    d.setExclusive(lineA, 7);
    EXPECT_FALSE(d.holds(1, lineA));
    EXPECT_FALSE(d.holds(2, lineA));
    EXPECT_TRUE(d.holds(7, lineA));
}

TEST(Directory, RemoveOwnerAndSharers)
{
    CoherenceDirectory d;
    d.setExclusive(lineA, 4);
    d.remove(lineA, 4);
    EXPECT_TRUE(d.lookup(lineA).idle());
}

TEST(Directory, RemoveLeavesIdleEntriesUntracked)
{
    // Never-erase contract: remove() leaves the slot in place, but
    // idle entries stop counting as tracked lines.
    CoherenceDirectory d;
    d.addSharer(lineA, 0);
    d.addSharer(lineB, 0);
    EXPECT_EQ(d.trackedLines(), 2u);
    d.remove(lineA, 0);
    EXPECT_EQ(d.trackedLines(), 1u);
    EXPECT_TRUE(d.lookup(lineA).idle());
}

TEST(Directory, SharersExceptSkipsSelfAndOwner)
{
    CoherenceDirectory d;
    d.addSharer(lineA, 1);
    d.addSharer(lineA, 2);
    d.addSharer(lineA, 3);
    std::vector<CpuId> others;
    d.forEachSharerExcept(lineA, 2,
                          [&](CpuId c) { others.push_back(c); });
    EXPECT_EQ(others.size(), 2u);
    EXPECT_EQ(others[0], CpuId(1));
    EXPECT_EQ(others[1], CpuId(3));
}

TEST(Directory, SharerWalkCopiesWordsAndSkipsOwner)
{
    CoherenceDirectory d;
    d.configure(130);
    d.addSharer(lineA, 129);
    d.addSharer(lineA, 3);
    d.addSharer(lineA, 64);
    // The callback removes holders; the walk still visits every
    // sharer of the state it started from, in ascending id.
    std::vector<CpuId> seen;
    d.forEachSharerExcept(lineA, invalidCpu, [&](CpuId c) {
        seen.push_back(c);
        d.remove(lineA, 3);
        d.remove(lineA, 129);
    });
    EXPECT_EQ(seen, (std::vector<CpuId>{3, 64, 129}));

    // An owner is its own sharer but is never visited.
    d.setExclusive(lineB, 70);
    seen.clear();
    d.forEachSharerExcept(lineB, 5,
                          [&](CpuId c) { seen.push_back(c); });
    EXPECT_TRUE(seen.empty());
}

TEST(Directory, HolderScopeMasksCpuRanges)
{
    CoherenceDirectory d;
    d.configure(130); // three sharer words, the last one partial
    const CpuRange chip{60, 66};  // straddles words 0 and 1
    const CpuRange mcm{48, 96};

    // Absent line: nobody holds it.
    HolderScope s = d.holderScope(lineA, 62, chip, mcm);
    EXPECT_EQ(s.owner, invalidCpu);
    EXPECT_FALSE(s.other || s.inChip || s.inMcm);

    // The requester alone does not count as a holder.
    d.addSharer(lineA, 62);
    s = d.holderScope(lineA, 62, chip, mcm);
    EXPECT_FALSE(s.other || s.inChip || s.inMcm);

    // A sharer in the next word, inside the chip range.
    d.addSharer(lineA, 65);
    s = d.holderScope(lineA, 62, chip, mcm);
    EXPECT_TRUE(s.other && s.inChip && s.inMcm);

    // Only a far sharer in the partial last word.
    d.remove(lineA, 65);
    d.addSharer(lineA, 129);
    s = d.holderScope(lineA, 62, chip, mcm);
    EXPECT_TRUE(s.other);
    EXPECT_FALSE(s.inChip || s.inMcm);

    // Range ends are half-open: 66 is outside the chip, 95 inside
    // the MCM, 96 outside it.
    d.addSharer(lineA, 66);
    s = d.holderScope(lineA, 62, chip, mcm);
    EXPECT_FALSE(s.inChip);
    EXPECT_TRUE(s.inMcm);
    d.remove(lineA, 66);
    d.addSharer(lineA, 95);
    EXPECT_TRUE(d.holderScope(lineA, 62, chip, mcm).inMcm);
    d.remove(lineA, 95);
    d.addSharer(lineA, 96);
    EXPECT_FALSE(d.holderScope(lineA, 62, chip, mcm).inMcm);

    // The owner is reported, and counts only when it is not the
    // requester.
    d.setExclusive(lineB, 60);
    s = d.holderScope(lineB, 60, chip, mcm);
    EXPECT_EQ(s.owner, CpuId(60));
    EXPECT_FALSE(s.other);
    s = d.holderScope(lineB, 100, chip, mcm);
    EXPECT_EQ(s.owner, CpuId(60));
    EXPECT_TRUE(s.other && s.inChip && s.inMcm);
}

TEST(Directory, IndependentLines)
{
    CoherenceDirectory d;
    d.setExclusive(lineA, 1);
    d.setExclusive(lineB, 2);
    EXPECT_TRUE(d.holds(1, lineA));
    EXPECT_FALSE(d.holds(1, lineB));
}

TEST(Directory, RehashMigratesSlotsIntact)
{
    // Push far past the initial capacity so the flat table grows
    // several times; every entry's owner and sharers must survive
    // each slot migration.
    CoherenceDirectory d;
    const std::size_t cap0 = d.capacity();
    constexpr unsigned n = 3000;
    const auto lineOf = [](unsigned i) {
        return Addr(0x10000) + Addr(i) * 0x100;
    };
    for (unsigned i = 0; i < n; ++i) {
        if (i % 3 == 0)
            d.setExclusive(lineOf(i), CpuId(i % 64));
        else
            d.addSharer(lineOf(i), CpuId(i % 64));
    }
    EXPECT_GT(d.capacity(), cap0);
    EXPECT_EQ(d.size(), std::size_t(n)); // never-erase: all keys live
    for (unsigned i = 0; i < n; ++i) {
        const auto e = d.lookup(lineOf(i));
        if (i % 3 == 0)
            EXPECT_EQ(e.owner, CpuId(i % 64)) << i;
        else
            EXPECT_TRUE(e.sharers[i % 64]) << i;
    }
    // Growth keeps the table under its 3/4 load bound.
    EXPECT_LE(d.size() * 4, d.capacity() * 3);
}

TEST(Directory, ConfigureSizesSharerWords)
{
    // Small machines track sharers in one 64-bit word instead of
    // the compile-time worst case; CPUs beyond the configured count
    // are rejected rather than silently dropped.
    CoherenceDirectory d;
    d.configure(8);
    EXPECT_EQ(d.sharerWords(), 1u);
    d.addSharer(lineA, 7);
    EXPECT_TRUE(d.holds(7, lineA));
    EXPECT_DEATH(d.addSharer(lineB, 64), "cannot track");

    CoherenceDirectory wide;
    wide.configure(1024);
    EXPECT_EQ(wide.sharerWords(), 16u);
    wide.setExclusive(lineA, 1023);
    EXPECT_TRUE(wide.holds(1023, lineA));
    EXPECT_TRUE(wide.lookup(lineA).owner == CpuId(1023));
}

} // namespace
