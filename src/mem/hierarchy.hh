/**
 * @file
 * The zEC12-like cache hierarchy and SMP coherence engine.
 *
 * Owns the per-CPU L1/L2 tag arrays, per-chip L3, per-MCM L4, the
 * global coherence directory, the transactional bit planes the paper
 * adds to the L1 directory (tx-read / tx-dirty latches and the 64-row
 * LRU-extension vector), and the XI protocol with reject support.
 *
 * CPUs interact through fetch() and the tx-mark methods; incoming XIs
 * are delivered synchronously to the registered CacheClient of the
 * target CPU, which decides Accept/Reject and performs transaction
 * aborts as side effects. Latencies are returned to the caller as
 * cycle costs per the LatencyModel (see DESIGN.md).
 */

#ifndef ZTX_MEM_HIERARCHY_HH
#define ZTX_MEM_HIERARCHY_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/cache_array.hh"
#include "mem/directory.hh"
#include "mem/geometry.hh"
#include "mem/latency_model.hh"
#include "mem/topology.hh"
#include "mem/xi.hh"

namespace ztx::mem {

/** Outcome of a fetch request. */
struct AccessResult
{
    /** Total cycle cost of the access (or of the rejected attempt). */
    Cycles latency = 0;

    /** True if a Demote/Exclusive XI was stiff-armed; retry later. */
    bool rejected = false;

    /** CPU that rejected the XI (valid when rejected). */
    CpuId rejecter = invalidCpu;

    /** Where the data came from (valid when !rejected). */
    DataSource source = DataSource::L1;
};

/** Four-level inclusive cache hierarchy with XI coherence. */
class Hierarchy
{
  public:
    Hierarchy(const Topology &topo, const LatencyModel &lat,
              const HierarchyGeometry &geo = HierarchyGeometry{});

    /** Register the XI client (the CPU's LSU model) for @p cpu. */
    void setClient(CpuId cpu, CacheClient *client);

    /**
     * Bring @p line into @p cpu's L1 in shared (read) or exclusive
     * (write) state, driving the full coherence protocol.
     *
     * @param cpu Requesting CPU.
     * @param line Line-aligned address.
     * @param exclusive True for store access (needs ownership).
     * @return latency/rejection outcome; on rejection no state moved.
     */
    AccessResult fetch(CpuId cpu, Addr line, bool exclusive);

    /**
     * @name Transactional bit plane (paper §III.C)
     * @{
     */
    /** Set the tx-read latch for @p line (must be L1-resident). */
    void markTxRead(CpuId cpu, Addr line);

    /** Set the tx-dirty latch for @p line (must be L1-resident). */
    void markTxDirty(CpuId cpu, Addr line);

    /** Clear tx latches and the LRU-extension vector (TBEGIN/end). */
    void clearTxMarks(CpuId cpu);

    /**
     * Turn off the L1 valid bits of all tx-dirty lines (abort path:
     * "effectively removing them from the L1 instantaneously").
     * Lines remain L2-resident and exclusively owned.
     */
    void killTxDirtyLines(CpuId cpu);

    /** tx-read latch state of @p line in @p cpu's L1. */
    bool txRead(CpuId cpu, Addr line) const;

    /** tx-dirty latch state of @p line in @p cpu's L1. */
    bool txDirty(CpuId cpu, Addr line) const;

    /** True if @p cpu's LRU-extension row covers @p line. */
    bool lruExtensionHit(CpuId cpu, Addr line) const;

    /** True if any LRU-extension row is set for @p cpu. */
    bool lruExtensionAny(CpuId cpu) const;
    /** @} */

    /**
     * Enable/disable the LRU-extension scheme. With it disabled, a
     * tx-read line displaced from the L1 immediately aborts the
     * transaction (footprint limited to L1 capacity); this is the
     * "No LRU extension" ablation of Figure 5(f).
     */
    void setLruExtensionEnabled(bool enabled);

    /** @name Introspection for tests and stats @{ */
    bool inL1(CpuId cpu, Addr line) const;
    bool inL2(CpuId cpu, Addr line) const;
    bool inL3(unsigned chip, Addr line) const;
    bool inL4(unsigned mcm, Addr line) const;
    const CoherenceDirectory &directory() const { return dir_; }
    const Topology &topology() const { return topo_; }
    const LatencyModel &latencyModel() const { return lat_; }
    const HierarchyGeometry &geometry() const { return geo_; }
    const CacheArray &l1Array(CpuId cpu) const { return l1_[cpu]; }
    // Hot-path fetch counters accumulate in per-CPU deltas and are
    // folded into the StatGroup whenever stats are observed.
    StatGroup &stats() { foldHotCounters(); return stats_; }
    const StatGroup &stats() const { foldHotCounters(); return stats_; }
    /** @} */

    /**
     * Verify the inclusivity and directory/array consistency
     * invariants; panics on violation (used by property tests).
     */
    void checkInvariants() const;

    /**
     * Verify every cache array's per-set metadata (valid masks,
     * tag-to-set mapping, tag uniqueness) against a
     * ground-truth walk. @return Empty string when consistent, else
     * the first violation (chaos-oracle hook; soft-failing
     * counterpart of checkInvariants()).
     */
    std::string indexCheck() const;

    /**
     * @name Fault-injection hooks (src/inject)
     * @{
     */
    /** Register (or clear, with nullptr) the XI delay probe. */
    void setXiDelayProbe(XiDelayProbe *probe) { xiProbe_ = probe; }

    /**
     * Lines currently part of @p cpu's transactional footprint an
     * adversary can aim conflict XIs at: lines marked tx-read or
     * tx-dirty in the L1, plus evicted-but-tracked lines whose
     * tx-read promise lives on in an LRU-extension row. The latter
     * come from a per-CPU shadow list the hierarchy keeps alongside
     * the (imprecise, row-granular) extension vector.
     */
    std::vector<Addr> txFootprintLines(CpuId cpu) const;

    /**
     * The evicted-but-tracked lines of @p cpu: tx-read lines that
     * were displaced from the L1 while their promise was preserved
     * by an LRU-extension row. Cleared with the tx marks.
     */
    const std::vector<Addr> &lruTrackedLines(CpuId cpu) const
    {
        return lruExtTracked_[cpu];
    }

    /**
     * Send a hostile conflict XI for @p line to @p target on behalf
     * of no real requester: an Exclusive XI when the target owns the
     * line (rejectable — stiff-arming defends) or a ReadOnly XI when
     * it merely shares it (not rejectable). On Accept the line is
     * removed from the target, keeping the directory consistent, as
     * if a remote CPU had claimed it.
     * @return True if the line was taken (XI accepted), false if the
     *         target stiff-armed or does not hold the line.
     */
    bool injectAdversarialXi(CpuId target, Addr line);

    /**
     * Shrink @p cpu's effective L1/L2 associativity to @p l1_ways /
     * @p l2_ways (0 restores the configured geometry). Subsequent
     * fills behave as if the extra ways did not exist, forcing
     * capacity evictions — and through inclusivity, LRU-XI aborts —
     * long before the nominal cache size. Resident lines are not
     * flushed eagerly; they fall out through replacement.
     */
    void squeezeCapacity(CpuId cpu, unsigned l1_ways,
                         unsigned l2_ways);
    /** @} */

    /**
     * @name Line-poisoning RAS model (src/inject, DESIGN.md §5c)
     *
     * Poison is metadata on the functional line image (the arrays
     * hold tags only): the `cached` bit says some cached copy of the
     * line is corrupt, the `memory` bit says the home/memory image
     * itself is corrupt so a refresh-from-memory cannot scrub it.
     * Propagation (fetch intervention, castout, XI data transfer) is
     * counted but — by design — never escalates cached poison to the
     * memory image; memory-side poison exists only via injection.
     * @{
     */
    /** Poison state bits returned by poisonState(). */
    static constexpr std::uint8_t poisonCached = 0x1;
    static constexpr std::uint8_t poisonMemorySide = 0x2;

    /**
     * Inject poison on @p line. With
     * @p memory_side the home image is corrupt too: scrubLine()
     * cannot recover it and the OS model kills/restarts instead.
     */
    void poisonLine(Addr line, bool memory_side);

    /** True if some cached copy of @p line is poisoned. */
    bool
    poisonedCached(Addr line) const
    {
        if (!poisonActive_)
            return false;
        const auto it = poison_.find(line);
        return it != poison_.end() && (it->second & poisonCached);
    }

    /** True if the memory image of @p line is poisoned. */
    bool
    poisonedMemory(Addr line) const
    {
        if (!poisonActive_)
            return false;
        const auto it = poison_.find(line);
        return it != poison_.end() && (it->second & poisonMemorySide);
    }

    /** Cheap gate: any line poisoned anywhere right now. */
    bool anyPoisoned() const { return poisonActive_; }

    /** Raw poison bits of @p line (tests). */
    std::uint8_t
    poisonState(Addr line) const
    {
        const auto it = poison_.find(line);
        return it == poison_.end() ? 0 : it->second;
    }

    /**
     * Machine-check recovery, step 1: refresh
     * the cached image of @p line from memory.
     * @return True if the scrub succeeded (memory image clean);
     *         false when the memory image is itself poisoned.
     */
    bool scrubLine(Addr line);

    /**
     * Machine-check recovery, step 2 for memory-side poison: the OS
     * reinitializes the frame, clearing all
     * poison on @p line. Pairs with kill-and-restart of the
     * workload item that owned the data.
     */
    void reloadLine(Addr line);

    /**
     * True if @p line is currently part of @p cpu's transactional
     * footprint (tx-read/tx-dirty latch or evicted-but-tracked LRU
     * extension). Cheap single-line variant of txFootprintLines().
     */
    bool inTxFootprint(CpuId cpu, Addr line) const;
    /** @} */

    /**
     * Invalidate every line of @p cpu's L1 and L2 (and its
     * directory holdings) — a cold-cache reset used by Monte-Carlo
     * harnesses that reuse one machine across trials. Must not be
     * called while the CPU has transactional marks outstanding.
     */
    void flushCpuCaches(CpuId cpu);

  private:
    /**
     * Counters of the per-access fetch and XI paths, summed over
     * all CPUs and moved into stats_ when stats are observed.
     */
    struct HotCounters
    {
        std::uint64_t fetchTotal = 0;
        std::uint64_t l1Hit = 0;
        std::uint64_t l2Hit = 0;
        std::uint64_t l1Evict = 0;
        std::uint64_t lruExtSet = 0;
        std::uint64_t txDirtyKilled = 0;
        std::uint64_t fetchMiss = 0;
        std::uint64_t l2Evict = 0;
        std::uint64_t xiReadOnly = 0;
        std::uint64_t xiDemote = 0;
        std::uint64_t xiExclusive = 0;
        std::uint64_t xiLru = 0;
        std::uint64_t xiRejected = 0;
        std::uint64_t xiDelayed = 0;
        // Poison propagation observed on the access paths.
        std::uint64_t poisonSpreadFetch = 0;
        std::uint64_t poisonSpreadCastout = 0;
        std::uint64_t poisonSpreadXi = 0;
    };

    void foldHotCounters() const;

    AccessResult localHit(CpuId cpu, Addr line);
    /** Supplier of @p line for @p cpu, given where its holders lie. */
    DataSource findSource(CpuId cpu, Addr line,
                          const HolderScope &holders) const;
    /** @p other_holder: a CPU other than @p cpu held @p line. */
    void propagatePoisonOnFill(CpuId cpu, Addr line, bool other_holder,
                               DataSource source);

    XiResponse sendXi(XiKind kind, Addr line, CpuId target,
                      CpuId requester);
    Cycles probeDelay(XiKind kind, CpuId target, CpuId requester);
    void removeFromCpu(CpuId cpu, Addr line);
    void installLocal(CpuId cpu, Addr line);
    void insertL1(CpuId cpu, Addr line);
    /** insertL1 completing a probeForInsert miss without re-probing. */
    void insertL1At(CpuId cpu, Addr line,
                    const CacheArray::Probe &probe);
    void handleL2Evict(CpuId cpu, Addr victim);
    void handleL3Evict(unsigned chip, Addr victim);
    void handleL4Evict(unsigned mcm, Addr victim);
    /** Set tx bit @p bit on @p line, listing the line if it is new. */
    void markTx(CpuId cpu, Addr line, std::uint8_t bit);
    CacheClient *client(CpuId cpu) const;

    static constexpr std::uint8_t txBits =
        line_flag::txRead | line_flag::txDirty;

    Topology topo_;
    LatencyModel lat_;
    HierarchyGeometry geo_;
    CoherenceDirectory dir_;
    std::vector<CacheArray> l1_;
    std::vector<CacheArray> l2_;
    std::vector<CacheArray> l3_;
    std::vector<CacheArray> l4_;
    std::vector<CacheClient *> clients_;
    /** Per-CPU LRU-extension vector, one bit per L1 row. */
    std::vector<std::vector<bool>> lruExt_;
    /**
     * Per-CPU shadow of the extension vector at line granularity:
     * the tx-read lines actually displaced while tracked, so the
     * footprint stays enumerable for injection targeting.
     */
    std::vector<std::vector<Addr>> lruExtTracked_;
    /**
     * Per-CPU transactional footprint list: every L1 line that got
     * a tx bit since the last clearTxMarks(), so clearing costs the
     * footprint rather than a sweep of the L1.
     */
    std::vector<std::vector<Addr>> txLines_;
    bool lruExtEnabled_ = true;
    /** Poison bits per line (poisonCached/poisonMemorySide). */
    std::unordered_map<Addr, std::uint8_t> poison_;
    /** Fast gate for the common no-poison case. */
    bool poisonActive_ = false;
    XiDelayProbe *xiProbe_ = nullptr;
    mutable HotCounters hot_{};
    mutable StatGroup stats_;
    /** @name Shared-cache eviction counters @{ */
    CounterHandle l3EvictStat_{stats_, "l3.evict"};
    CounterHandle l4EvictStat_{stats_, "l4.evict"};
    /** @} */
};

} // namespace ztx::mem

#endif // ZTX_MEM_HIERARCHY_HH
