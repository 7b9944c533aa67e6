/**
 * @file
 * One shard of the sharded parallel scheduler: the event queue of
 * one chip, runnable on a host thread.
 *
 * The Machine synchronizes shards in fixed cycle quanta (gem5-style)
 * sized to the fastest path that can cross a shard boundary: the
 * minimum cross-chip latency. Within a quantum every shard steps
 * only shard-owned work — own L1/L2 hits, own transactional bits,
 * own store cache, self-aborts, and (through the shard-local fast
 * path) same-chip L3 hits and same-shard coherence — while anything
 * that would leave the shard, touch the OS, or arbitrate solo mode
 * is *deferred* and re-executed serially at the quantum barrier in
 * a deterministic order. Because the
 * decision to defer depends only on the shard partition and cache
 * state — never on how many host threads drive the shards — an
 * N-thread run is bit-identical to the 1-thread run. See DESIGN.md
 * ("Sharded deterministic parallel scheduling").
 *
 * The Shard is also the core::CpuEnv of its member CPUs: the clock
 * is the shard-local current time, forward-progress ticks accumulate
 * in a shard-local delta, and solo-mode requests issued during the
 * parallel phase are buffered for ordered application at the
 * barrier.
 */

#ifndef ZTX_SIM_SHARD_HH
#define ZTX_SIM_SHARD_HH

#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "core/config.hh"
#include "sim/arena.hh"

namespace ztx::sim {

class Machine;

/** Per-chip event queue of the sharded scheduler. */
class Shard final : public core::CpuEnv
{
  public:
    /**
     * @param machine Owning machine (shared state, merge point).
     * @param chip Chip index this shard covers (merge tie-break).
     * @param cpus Member CPU ids (a contiguous id range).
     */
    Shard(Machine &machine, unsigned chip, std::vector<CpuId> cpus);

    /** @name core::CpuEnv @{ */
    Cycles now() const override { return curTime_; }
    void requestSolo(CpuId cpu) override;
    void releaseSolo(CpuId cpu) override;
    CpuId soloHolder() const override;
    void noteProgress(CpuId cpu) override
    {
        (void)cpu;
        ++progress_;
    }
    /** @} */

    /**
     * Prepare the shard for a run() call. The event heap is carried
     * across calls: only member CPUs whose ready time changed while
     * the heap was cold (program rebinds, bounded-run resume) are
     * reinserted, counted in sched.heap_reinserts.
     */
    void beginRun();

    /** Earliest pending event, or ~Cycles(0) when the heap is dry. */
    Cycles nextEventTime() const;

    /**
     * Parallel phase: process every event strictly before @p q_end,
     * stepping member CPUs in local-only mode. Deferred steps are
     * recorded for the barrier; CPUs parked by solo mode are pushed
     * to @p q_end.
     */
    void runQuantum(Cycles q_end);

    /** Chip index. */
    unsigned chip() const { return chip_; }

  private:
    friend class Machine;

    /**
     * Push a heap entry for @p id at time @p t, recording the key
     * so beginRun() can tell live entries from stale ones. All
     * pushes go through here.
     */
    void push(Cycles t, CpuId id);

    /** A step that must be re-executed serially at the barrier. */
    struct DeferredStep
    {
        Cycles at;
        CpuId cpu;
    };

    /** A solo request/release buffered during the parallel phase. */
    struct SoloOp
    {
        Cycles at;
        CpuId cpu;
        bool request; ///< false = release
    };

    Machine &machine_;
    unsigned chip_;
    std::vector<CpuId> cpus_;

    using HeapEntry = std::pair<Cycles, CpuId>;
    std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                        std::greater<HeapEntry>>
        heap_;

    /** Shard-local clock: the event time currently executing. */
    Cycles curTime_ = 0;
    /** Time of the last event this shard actually executed. */
    Cycles lastEventAt_ = 0;

    /**
     * Quantum-lived records live in the shard's private arena:
     * written during the parallel phase (no cross-thread
     * contention), consumed and released at the barrier, where the
     * arena rewinds — steady-state quanta perform no host
     * allocation (DESIGN.md §5b).
     */
    Arena arena_;
    ArenaVector<DeferredStep> deferred_;
    ArenaVector<SoloOp> soloOps_;

    /** @name Per-quantum deltas, folded at the barrier @{ */
    std::uint64_t steps_ = 0;
    std::uint64_t extDelivered_ = 0;
    std::uint64_t extSkipped_ = 0;
    std::uint64_t progress_ = 0;
    /** Shard-local fast-path L3 hits (sched.l3_local_hits). */
    std::uint64_t l3Local_ = 0;
    /** @} */
};

} // namespace ztx::sim

#endif // ZTX_SIM_SHARD_HH
