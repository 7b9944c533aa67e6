/**
 * @file
 * Randomized equivalence of the indexed per-access hot path against
 * naive reference models.
 *
 * The production GatheringStoreCache answers overlay/findOpen/XI
 * queries from a block index (open-addressed map + occupancy
 * bitmaps + line summary); the production CacheArray keeps a
 * SoA layout with per-set valid masks and fused probes. Both claim
 * bit-identical semantics to the historical linear scans. These
 * tests drive thousands of randomized mixed operations through the
 * production structures and through straight-line reference models
 * (a scan-based store cache, a true-LRU map array) and compare every
 * observable — query results, victim choices, live counts, and the
 * full memory image — after every operation, plus the structures'
 * own indexCheck() ground-truth verification.
 *
 * The hierarchy's fetch path decides L1/L2 hits from directory words
 * and finds the supplying cache by masking the sharer words with the
 * requester's chip and MCM CPU ranges; it is compared against a scan
 * over every CPU of the machine. The hierarchy clears tx marks from
 * a per-CPU footprint list; it is compared against a full L1 sweep.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bitset>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "core/store_cache.hh"
#include "mem/cache_array.hh"
#include "mem/hierarchy.hh"
#include "mem/main_memory.hh"

namespace {

using namespace ztx;
using core::GatheringStoreCache;
using core::storeCacheBlockAlign;
using core::storeCacheBlockBytes;
using mem::CacheArray;
using mem::CacheGeometry;
using mem::DataSource;
using mem::Distance;
using mem::Hierarchy;
using mem::MainMemory;
using mem::Topology;

/**
 * The historical gathering store cache: a flat entry array with
 * linear scans everywhere, mirroring the pre-index implementation
 * operation for operation (same eviction choice, same overflow
 * condition, same write-back order).
 */
class RefStoreCache
{
  public:
    explicit RefStoreCache(unsigned num_entries)
        : entries_(num_entries)
    {
    }

    bool
    store(Addr addr, const std::uint8_t *bytes, unsigned len,
          bool transactional, bool ntstg, MainMemory &memory)
    {
        while (len > 0) {
            const Addr block = storeCacheBlockAlign(addr);
            const unsigned in_block = unsigned(std::min<std::uint64_t>(
                len, block + storeCacheBlockBytes - addr));
            Entry *entry = nullptr;
            for (auto &e : entries_) {
                if (e.live && !e.closed && e.block == block &&
                    e.transactional == transactional) {
                    entry = &e;
                    break;
                }
            }
            if (!entry) {
                for (auto &e : entries_) {
                    if (!e.live) {
                        entry = &e;
                        break;
                    }
                }
                if (!entry) {
                    Entry *oldest = nullptr;
                    for (auto &e : entries_) {
                        if (!e.transactional &&
                            (!oldest || e.seq < oldest->seq))
                            oldest = &e;
                    }
                    if (!oldest)
                        return false; // all-transactional overflow
                    writeBack(*oldest, memory);
                    oldest->live = false;
                    entry = oldest;
                }
                entry->live = true;
                entry->transactional = transactional;
                entry->closed = false;
                entry->block = block;
                entry->seq = ++seq_;
                entry->valid.reset();
                entry->ntstg.reset();
            }
            const std::uint64_t off = addr - entry->block;
            for (unsigned i = 0; i < in_block; ++i) {
                const std::uint64_t b = off + i;
                entry->data[b] = bytes[i];
                entry->valid.set(b);
                if (ntstg)
                    entry->ntstg.set(b / 8);
            }
            addr += in_block;
            bytes += in_block;
            len -= in_block;
        }
        return true;
    }

    void
    overlay(Addr addr, unsigned len, std::uint8_t *buf) const
    {
        std::vector<const Entry *> hits;
        for (const auto &e : entries_) {
            if (e.live && e.block < addr + len &&
                addr < e.block + storeCacheBlockBytes)
                hits.push_back(&e);
        }
        std::sort(hits.begin(), hits.end(),
                  [](const Entry *a, const Entry *b) {
                      return a->seq < b->seq;
                  });
        for (const Entry *e : hits) {
            const Addr lo = std::max(addr, e->block);
            const Addr hi = std::min(addr + len,
                                     e->block + storeCacheBlockBytes);
            for (Addr b = lo; b < hi; ++b) {
                if (e->valid[b - e->block])
                    buf[b - addr] = e->data[b - e->block];
            }
        }
    }

    void
    closeAllEntries(MainMemory &memory)
    {
        for (auto &e : entries_) {
            if (!e.live)
                continue;
            writeBack(e, memory);
            e.live = false;
        }
    }

    void
    commitTransaction(MainMemory &memory)
    {
        for (auto &e : entries_) {
            if (!e.live || !e.transactional)
                continue;
            writeBack(e, memory);
            e.transactional = false;
            e.ntstg.reset();
        }
    }

    void
    abortTransaction(MainMemory &memory)
    {
        for (auto &e : entries_) {
            if (!e.live || !e.transactional)
                continue;
            for (std::uint64_t dw = 0;
                 dw < storeCacheBlockBytes / 8; ++dw) {
                if (!e.ntstg[dw])
                    continue;
                for (std::uint64_t b = dw * 8; b < dw * 8 + 8; ++b)
                    if (e.valid[b])
                        memory.writeByte(e.block + b, e.data[b]);
            }
            e.live = false;
        }
    }

    bool
    hasTransactionalLine(Addr line) const
    {
        for (const auto &e : entries_)
            if (e.live && e.transactional &&
                lineAlign(e.block) == line)
                return true;
        return false;
    }

    bool
    hasAnyLine(Addr line) const
    {
        for (const auto &e : entries_)
            if (e.live && lineAlign(e.block) == line)
                return true;
        return false;
    }

    void
    drainLine(Addr line, MainMemory &memory)
    {
        for (auto &e : entries_) {
            if (e.live && !e.transactional &&
                lineAlign(e.block) == line) {
                writeBack(e, memory);
                e.live = false;
            }
        }
    }

    void
    drainAll(MainMemory &memory)
    {
        for (auto &e : entries_) {
            if (e.live && !e.transactional) {
                writeBack(e, memory);
                e.live = false;
            }
        }
    }

    unsigned
    liveEntries() const
    {
        unsigned n = 0;
        for (const auto &e : entries_)
            n += e.live ? 1 : 0;
        return n;
    }

    unsigned
    liveTransactionalEntries() const
    {
        unsigned n = 0;
        for (const auto &e : entries_)
            n += (e.live && e.transactional) ? 1 : 0;
        return n;
    }

  private:
    struct Entry
    {
        bool live = false;
        bool transactional = false;
        bool closed = false;
        Addr block = 0;
        std::uint64_t seq = 0;
        std::array<std::uint8_t, storeCacheBlockBytes> data{};
        std::bitset<storeCacheBlockBytes> valid;
        std::bitset<storeCacheBlockBytes / 8> ntstg;
    };

    static void
    writeBack(const Entry &entry, MainMemory &memory)
    {
        for (std::uint64_t b = 0; b < storeCacheBlockBytes; ++b)
            if (entry.valid[b])
                memory.writeByte(entry.block + b, entry.data[b]);
    }

    std::vector<Entry> entries_;
    std::uint64_t seq_ = 0;
};

/** Addresses confined to a few lines so entries collide heavily. */
Addr
pickAddr(Rng &rng, unsigned lines)
{
    return Addr(rng.nextBounded(lines)) * lineSizeBytes +
           rng.nextBounded(lineSizeBytes);
}

TEST(HotPathProperty, StoreCacheMatchesScanReference)
{
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
        Rng rng(seed);
        // 8 entries against 6 lines (12 blocks): gather, evict, and
        // all-transactional overflow paths are all reachable.
        GatheringStoreCache dut(8);
        RefStoreCache ref(8);
        MainMemory dut_mem;
        MainMemory ref_mem;
        constexpr unsigned kLines = 6;
        bool in_tx = false;

        for (unsigned op = 0; op < 4000; ++op) {
            const unsigned kind = unsigned(rng.nextBounded(100));
            if (kind < 55) {
                // Mixed-size store, transactional only inside a tx,
                // NTSTG on a transactional minority. Some stores
                // fill a whole block or hit one of its end bytes,
                // so write-back runs reach both block ends.
                const unsigned shape = unsigned(rng.nextBounded(10));
                Addr addr = pickAddr(rng, kLines);
                unsigned len = 1u + unsigned(rng.nextBounded(16));
                if (shape == 0) {
                    addr = storeCacheBlockAlign(addr);
                    len = unsigned(storeCacheBlockBytes);
                } else if (shape == 1) {
                    addr = storeCacheBlockAlign(addr) +
                           (rng.nextBool(0.5)
                                ? 0
                                : storeCacheBlockBytes - 1);
                    len = 1;
                }
                std::uint8_t bytes[storeCacheBlockBytes];
                for (unsigned i = 0; i < len; ++i)
                    bytes[i] = std::uint8_t(rng.next());
                const bool tx = in_tx && rng.nextBool(0.7);
                const bool ntstg = tx && rng.nextBool(0.15);
                const bool ok = dut.store(addr, bytes, len, tx,
                                          ntstg, dut_mem);
                const bool ref_ok = ref.store(addr, bytes, len, tx,
                                              ntstg, ref_mem);
                ASSERT_EQ(ok, ref_ok) << "store overflow diverged";
                if (!ok) {
                    // Footprint overflow: the architecture aborts.
                    dut.abortTransaction(dut_mem);
                    ref.abortTransaction(ref_mem);
                    in_tx = false;
                }
            } else if (kind < 70) {
                // Load overlay across a random window.
                const Addr addr = pickAddr(rng, kLines);
                const unsigned len =
                    1u + unsigned(rng.nextBounded(32));
                std::uint8_t dut_buf[32];
                std::uint8_t ref_buf[32];
                dut_mem.readBlock(addr, dut_buf, len);
                ref_mem.readBlock(addr, ref_buf, len);
                dut.overlay(addr, len, dut_buf);
                ref.overlay(addr, len, ref_buf);
                for (unsigned i = 0; i < len; ++i)
                    ASSERT_EQ(dut_buf[i], ref_buf[i])
                        << "overlay byte " << i << " diverged";
            } else if (kind < 80) {
                // Incoming-XI queries (aligned and unaligned).
                Addr line = lineAlign(pickAddr(rng, kLines));
                if (rng.nextBool(0.2))
                    line += 1 + rng.nextBounded(lineSizeBytes - 1);
                ASSERT_EQ(dut.hasTransactionalLine(line),
                          ref.hasTransactionalLine(line));
                ASSERT_EQ(dut.hasAnyLine(line),
                          ref.hasAnyLine(line));
            } else if (kind < 86) {
                const Addr line = lineAlign(pickAddr(rng, kLines));
                dut.drainLine(line, dut_mem);
                ref.drainLine(line, ref_mem);
            } else if (kind < 90) {
                dut.drainAll(dut_mem);
                ref.drainAll(ref_mem);
            } else if (kind < 96) {
                // Transaction boundary: a new outermost TBEGIN
                // closes+drains, TEND commits, abort discards.
                if (!in_tx) {
                    dut.closeAllEntries(dut_mem);
                    ref.closeAllEntries(ref_mem);
                    in_tx = true;
                } else if (rng.nextBool(0.5)) {
                    dut.commitTransaction(dut_mem);
                    ref.commitTransaction(ref_mem);
                    in_tx = false;
                } else {
                    dut.abortTransaction(dut_mem);
                    ref.abortTransaction(ref_mem);
                    in_tx = false;
                }
            } else {
                ASSERT_EQ(dut.liveEntries(), ref.liveEntries());
                ASSERT_EQ(dut.liveTransactionalEntries(),
                          ref.liveTransactionalEntries());
            }
            ASSERT_EQ(dut.indexCheck(), "") << "after op " << op;
            // Memory lines are created by the same bytes landing.
            ASSERT_EQ(dut_mem.linesAllocated(),
                      ref_mem.linesAllocated())
                << "after op " << op;
        }

        // Flush both and compare the full memory images.
        if (in_tx) {
            dut.commitTransaction(dut_mem);
            ref.commitTransaction(ref_mem);
        }
        dut.drainAll(dut_mem);
        ref.drainAll(ref_mem);
        ASSERT_EQ(dut_mem.linesAllocated(), ref_mem.linesAllocated());
        for (Addr a = 0; a < Addr(kLines) * lineSizeBytes; ++a)
            ASSERT_EQ(dut_mem.read(a, 1), ref_mem.read(a, 1))
                << "memory byte " << a << " diverged (seed "
                << seed << ")";
    }
}

/** True-LRU reference: per-set vector ordered by insertion slot. */
class RefCacheArray
{
  public:
    RefCacheArray(std::uint64_t rows, unsigned assoc)
        : rows_(rows), assoc_(assoc), effAssoc_(assoc),
          sets_(rows)
    {
    }

    struct Way
    {
        bool valid = false;
        Addr line = 0;
        std::uint8_t flags = 0;
        std::uint64_t lastUse = 0;
    };

    std::uint64_t row(Addr line) const
    {
        return (line >> lineSizeLog2) % rows_;
    }

    Way *
    find(Addr line)
    {
        for (auto &w : sets_[row(line)])
            if (w.valid && w.line == line)
                return &w;
        return nullptr;
    }

    bool
    touch(Addr line)
    {
        Way *w = find(line);
        if (!w)
            return false;
        w->lastUse = ++useTick_;
        return true;
    }

    CacheArray::Victim
    insert(Addr line, std::uint8_t flags)
    {
        auto &set = sets_[row(line)];
        if (set.size() < assoc_)
            set.resize(assoc_);
        unsigned valid_ways = 0;
        for (const auto &w : set)
            valid_ways += w.valid ? 1 : 0;
        Way *slot = nullptr;
        if (valid_ways < effAssoc_) {
            for (auto &w : set) {
                if (!w.valid) {
                    slot = &w;
                    break;
                }
            }
        }
        CacheArray::Victim victim;
        if (!slot) {
            for (auto &w : set) {
                if (!w.valid)
                    continue;
                if (!slot || w.lastUse < slot->lastUse)
                    slot = &w;
            }
            victim.valid = true;
            victim.line = slot->line;
            victim.flags = slot->flags;
        }
        slot->valid = true;
        slot->line = line;
        slot->flags = flags;
        slot->lastUse = ++useTick_;
        return victim;
    }

    bool
    invalidate(Addr line)
    {
        Way *w = find(line);
        if (!w)
            return false;
        w->valid = false;
        w->flags = 0;
        return true;
    }

    void setEffectiveAssoc(unsigned ways)
    {
        effAssoc_ = (ways == 0 || ways >= assoc_) ? assoc_ : ways;
    }

    std::size_t
    validCount() const
    {
        std::size_t n = 0;
        for (const auto &set : sets_)
            for (const auto &w : set)
                n += w.valid ? 1 : 0;
        return n;
    }

  private:
    std::uint64_t rows_;
    unsigned assoc_;
    unsigned effAssoc_;
    std::vector<std::vector<Way>> sets_;
    std::uint64_t useTick_ = 0;
};

TEST(HotPathProperty, CacheArrayMatchesTrueLruReference)
{
    for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
        Rng rng(seed);
        constexpr std::uint64_t kRows = 8;
        constexpr unsigned kAssoc = 4;
        CacheArray dut(
            CacheGeometry{kRows * kAssoc * lineSizeBytes, kAssoc},
            "dut");
        RefCacheArray ref(kRows, kAssoc);
        constexpr unsigned kLines = 64; // 8 tags per set

        const auto pickLine = [&] {
            return Addr(rng.nextBounded(kLines)) * lineSizeBytes;
        };

        for (unsigned op = 0; op < 6000; ++op) {
            const unsigned kind = unsigned(rng.nextBounded(100));
            const Addr line = pickLine();
            if (kind < 35) {
                if (dut.contains(line))
                    continue; // insert requires absence
                const std::uint8_t flags =
                    std::uint8_t(rng.nextBounded(4));
                // Exercise both the classic and the fused path; the
                // probe must predict whether the insert evicts.
                CacheArray::Victim dv;
                if (rng.nextBool(0.5)) {
                    const auto p = dut.probeForInsert(line);
                    ASSERT_FALSE(p.hit);
                    dv = dut.insertAt(p, line, flags);
                    ASSERT_EQ(p.wouldEvict, dv.valid);
                } else {
                    dv = dut.insert(line, flags);
                }
                const auto rv = ref.insert(line, flags);
                ASSERT_EQ(dv.valid, rv.valid);
                if (dv.valid) {
                    ASSERT_EQ(dv.line, rv.line);
                    ASSERT_EQ(dv.flags, rv.flags);
                }
            } else if (kind < 60) {
                // Fused find+touch against the reference's touch.
                const bool hit = rng.nextBool(0.5)
                                     ? dut.findAndTouch(line)
                                     : dut.touch(line);
                ASSERT_EQ(hit, ref.touch(line));
            } else if (kind < 72) {
                const auto *w = ref.find(line);
                ASSERT_EQ(dut.contains(line), w != nullptr);
                ASSERT_EQ(dut.flagsOf(line),
                          w ? w->flags : std::uint8_t(0));
            } else if (kind < 82) {
                if (dut.contains(line)) {
                    const std::uint8_t bits =
                        std::uint8_t(1 + rng.nextBounded(3));
                    dut.setFlags(line, bits);
                    ref.find(line)->flags |= bits;
                } else {
                    const std::uint8_t bits =
                        std::uint8_t(1 + rng.nextBounded(3));
                    dut.clearFlags(line, bits);
                    ASSERT_EQ(ref.find(line), nullptr);
                }
            } else if (kind < 95) {
                ASSERT_EQ(dut.invalidate(line),
                          ref.invalidate(line));
            } else if (kind < 98) {
                // XI-style capacity squeeze and release.
                const unsigned ways =
                    unsigned(1 + rng.nextBounded(kAssoc));
                dut.setEffectiveAssoc(ways);
                ref.setEffectiveAssoc(ways);
            } else {
                ASSERT_EQ(dut.validCount(), ref.validCount());
            }
            ASSERT_EQ(dut.indexCheck(), "") << "after op " << op;
        }

        // Final sweep: every possible tag agrees.
        for (unsigned k = 0; k < kLines; ++k) {
            const Addr line = Addr(k) * lineSizeBytes;
            const auto *w = ref.find(line);
            ASSERT_EQ(dut.contains(line), w != nullptr);
            ASSERT_EQ(dut.flagsOf(line),
                      w ? w->flags : std::uint8_t(0));
        }
    }
}

/** Rejects rejectable XIs with probability @p reject_p. */
class RandomRejectClient : public mem::CacheClient
{
  public:
    RandomRejectClient(std::uint64_t seed, double reject_p)
        : rng_(seed), rejectP_(reject_p)
    {
    }

    mem::XiResponse
    incomingXi(const mem::XiContext &ctx) override
    {
        const bool rejectable = ctx.kind == mem::XiKind::Demote ||
                                ctx.kind == mem::XiKind::Exclusive;
        return rejectable && rng_.nextBool(rejectP_)
                   ? mem::XiResponse::Reject
                   : mem::XiResponse::Accept;
    }

    void l1Evicted(Addr, std::uint8_t) override {}

  private:
    Rng rng_;
    double rejectP_;
};

/**
 * Where @p cpu's fetch of @p line is supplied from, by brute force:
 * the local arrays, then the nearest holder found by testing every
 * CPU of the machine against the directory, then the shared caches.
 */
DataSource
scanSource(const Hierarchy &hier, CpuId cpu, Addr line)
{
    if (hier.inL1(cpu, line))
        return DataSource::L1;
    if (hier.inL2(cpu, line))
        return DataSource::L2;
    const Topology &topo = hier.topology();
    const mem::DirectoryEntry e = hier.directory().lookup(line);
    bool found = false;
    Distance best = Distance::CrossMcm;
    for (CpuId other = 0; other < topo.numCpus(); ++other) {
        if (other == cpu || (e.owner != other && !e.sharers[other]))
            continue;
        const Distance d = topo.distance(cpu, other);
        best = found ? std::min(best, d) : d;
        found = true;
    }
    if (found) {
        return best == Distance::SameChip  ? DataSource::L3
               : best == Distance::SameMcm ? DataSource::L4
                                           : DataSource::RemoteMcm;
    }
    if (hier.inL3(topo.chipOf(cpu), line))
        return DataSource::L3;
    if (hier.inL4(topo.mcmOf(cpu), line))
        return DataSource::L4;
    for (unsigned m = 0; m < topo.numMcms(); ++m)
        if (m != topo.mcmOf(cpu) && hier.inL4(m, line))
            return DataSource::RemoteMcm;
    return DataSource::Memory;
}

/** Small per-level caches, so every supplier kind shows up. */
mem::HierarchyGeometry
smallGeometry()
{
    mem::HierarchyGeometry geo;
    geo.l1 = CacheGeometry{2 * 2 * lineSizeBytes, 2};
    geo.l2 = CacheGeometry{4 * 4 * lineSizeBytes, 4};
    geo.l3 = CacheGeometry{8 * 8 * lineSizeBytes, 8};
    geo.l4 = CacheGeometry{16 * 8 * lineSizeBytes, 8};
    return geo;
}

/**
 * Drive random reads, writes and cache flushes through @p topo and
 * compare every fetch's supplier with the all-CPU scan.
 */
void
checkFetchSource(const Topology &topo, unsigned sharer_words,
                 std::uint64_t seed)
{
    Hierarchy hier(topo, mem::LatencyModel{}, smallGeometry());
    ASSERT_EQ(hier.directory().sharerWords(), sharer_words);
    std::vector<std::unique_ptr<RandomRejectClient>> clients;
    for (CpuId i = 0; i < topo.numCpus(); ++i) {
        clients.push_back(std::make_unique<RandomRejectClient>(
            seed * 1000 + i, 0.2));
        hier.setClient(i, clients.back().get());
    }

    Rng rng(seed);
    std::array<unsigned, 6> seen{};
    for (unsigned op = 0; op < 20000; ++op) {
        const CpuId cpu = CpuId(rng.nextBounded(topo.numCpus()));
        const unsigned kind = unsigned(rng.nextBounded(100));
        if (kind < 3) {
            hier.flushCpuCaches(cpu); // evict everything it holds
            continue;
        }
        const Addr line = Addr(rng.nextBounded(160)) * lineSizeBytes;
        const DataSource want = scanSource(hier, cpu, line);
        const mem::AccessResult res = hier.fetch(cpu, line, kind < 40);
        ASSERT_EQ(res.source, want)
            << "op " << op << " on " << topo.numCpus() << " CPUs";
        ++seen[std::size_t(want)];
        // These small shared caches evict often: every L3/L4
        // back-invalidation must keep the levels inclusive.
        hier.checkInvariants();
    }
    // Every supplier kind must have been exercised.
    for (std::size_t s = 0; s < seen.size(); ++s)
        EXPECT_GT(seen[s], 0u)
            << "source " << s << " on " << topo.numCpus() << " CPUs";
}

TEST(HotPathProperty, FetchSourceMatchesAllCpuScan)
{
    for (const std::uint64_t seed : {21ull, 22ull}) {
        // The paper's 144-CPU machine: three full sharer words;
        // 6-CPU chips and 36-CPU MCMs straddle word boundaries.
        checkFetchSource(Topology(6, 6, 4), 3, seed);
        // 105 CPUs: 7-CPU chips and 21-CPU MCMs cross the words at
        // other offsets, and the last word is only partly used.
        checkFetchSource(Topology(7, 3, 5), 2, seed);
    }
}

/** Every valid L1 line of @p cpu with its flags. */
std::map<Addr, std::uint8_t>
l1Flags(const Hierarchy &hier, CpuId cpu)
{
    std::map<Addr, std::uint8_t> out;
    hier.l1Array(cpu).forEachValid(
        [&](const CacheArray::Entry &e) { out[e.line] = e.flags; });
    return out;
}

TEST(HotPathProperty, TxMarksClearedFromFootprint)
{
    // clearTxMarks() clears only the lines listed when they got
    // their first tx bit. A full sweep of the L1 after every clear
    // must find no tx bit left, every other flag and every other
    // CPU untouched, and no line added or dropped.
    constexpr std::uint8_t kTx =
        mem::line_flag::txRead | mem::line_flag::txDirty;
    const Topology topo(2, 2, 2);
    constexpr unsigned kLines = 24;
    const auto lineAt = [](unsigned k) {
        return Addr(k) * lineSizeBytes;
    };

    for (const std::uint64_t seed : {31ull, 32ull, 33ull}) {
        Hierarchy hier(topo, mem::LatencyModel{}, smallGeometry());
        std::vector<std::unique_ptr<RandomRejectClient>> clients;
        for (CpuId i = 0; i < topo.numCpus(); ++i) {
            clients.push_back(
                std::make_unique<RandomRejectClient>(seed + i, 0.0));
            hier.setClient(i, clients.back().get());
        }

        unsigned clears = 0;
        const auto clearAndCheck = [&](CpuId cpu) {
            std::vector<std::map<Addr, std::uint8_t>> before;
            for (CpuId i = 0; i < topo.numCpus(); ++i)
                before.push_back(l1Flags(hier, i));
            hier.clearTxMarks(cpu);
            ++clears;
            for (CpuId i = 0; i < topo.numCpus(); ++i) {
                const auto after = l1Flags(hier, i);
                ASSERT_EQ(after.size(), before[i].size());
                for (const auto &[line, flags] : before[i]) {
                    const auto it = after.find(line);
                    ASSERT_NE(it, after.end());
                    const std::uint8_t want =
                        i == cpu ? std::uint8_t(flags & ~kTx) : flags;
                    ASSERT_EQ(it->second, want)
                        << "cpu " << i << " line 0x" << std::hex
                        << line;
                }
            }
        };

        // A line marked, evicted by its row-mates, refilled and
        // marked again is listed twice; both entries must clear.
        // Lines k, k+2, k+4 share row k % 2 of the two-row L1.
        ASSERT_TRUE(hier.fetch(0, lineAt(0), false).source !=
                    DataSource::L1);
        hier.markTxRead(0, lineAt(0));
        hier.fetch(0, lineAt(2), false);
        hier.fetch(0, lineAt(4), false);
        ASSERT_FALSE(hier.inL1(0, lineAt(0)));
        hier.fetch(0, lineAt(0), true);
        ASSERT_TRUE(hier.inL1(0, lineAt(0)));
        ASSERT_FALSE(hier.txRead(0, lineAt(0)));
        hier.markTxDirty(0, lineAt(0));
        hier.markTxRead(0, lineAt(4));
        clearAndCheck(0);
        ASSERT_FALSE(hier.txDirty(0, lineAt(0)));

        Rng rng(seed);
        for (unsigned op = 0; op < 6000; ++op) {
            const CpuId cpu = CpuId(rng.nextBounded(topo.numCpus()));
            const Addr line = lineAt(unsigned(rng.nextBounded(kLines)));
            const unsigned kind = unsigned(rng.nextBounded(100));
            if (kind < 40) {
                hier.fetch(cpu, line, rng.nextBool(0.4));
            } else if (kind < 70) {
                // Marks land on L1-resident lines only.
                if (hier.inL1(cpu, line)) {
                    if (rng.nextBool(0.5))
                        hier.markTxRead(cpu, line);
                    else
                        hier.markTxDirty(cpu, line);
                }
            } else if (kind < 76) {
                // Squeeze or restore: evictions of marked lines.
                const unsigned ways = unsigned(rng.nextBounded(3));
                hier.squeezeCapacity(cpu, ways, ways);
            } else if (kind < 79) {
                // A cold-cache reset needs a mark-free L1; stale
                // list entries of evicted lines may remain.
                bool marked = false;
                for (const auto &[l, flags] : l1Flags(hier, cpu))
                    marked = marked || (flags & kTx) != 0;
                if (!marked)
                    hier.flushCpuCaches(cpu);
            } else if (kind < 82) {
                // Poison is a non-tx flag the clear must keep.
                hier.poisonLine(line, false);
            } else if (kind < 84) {
                hier.scrubLine(line);
            } else if (kind < 94) {
                clearAndCheck(cpu);
            } else {
                hier.injectAdversarialXi(cpu, line);
            }
            if (HasFatalFailure())
                return;
        }
        for (CpuId i = 0; i < topo.numCpus(); ++i)
            clearAndCheck(i);
        EXPECT_GT(clears, 500u);
    }
}

} // namespace
