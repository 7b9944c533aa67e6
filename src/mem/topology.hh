/**
 * @file
 * SMP topology: CPUs grouped into CP chips (sharing an L3), chips
 * grouped into MCMs (sharing an L4), MCMs connected coherently.
 */

#ifndef ZTX_MEM_TOPOLOGY_HH
#define ZTX_MEM_TOPOLOGY_HH

#include <cstdint>

#include "common/types.hh"

namespace ztx::mem {

/** Relative position of two CPUs in the cache hierarchy. */
enum class Distance : std::uint8_t
{
    SameCpu,  ///< identical CPU
    SameChip, ///< different cores under the same L3
    SameMcm,  ///< different chips under the same L4
    CrossMcm  ///< different MCMs
};

/** Half-open range [lo, hi) of CPU ids. */
struct CpuRange
{
    CpuId lo = 0;
    CpuId hi = 0;

    bool contains(CpuId cpu) const { return cpu >= lo && cpu < hi; }
};

/**
 * Machine topology. Defaults model the system evaluated in the paper:
 * 6 cores per CP chip, 4 chips per MCM node (the paper reports the
 * tested MCM node holds 24 CPUs), 5 MCMs for up to 120 usable CPUs.
 * CPUs are numbered chip by chip and chips MCM by MCM, so each chip
 * and each MCM is one contiguous CPU range.
 */
class Topology
{
  public:
    Topology(unsigned cores_per_chip = 6, unsigned chips_per_mcm = 4,
             unsigned mcms = 5)
        : coresPerChip_(cores_per_chip), chipsPerMcm_(chips_per_mcm),
          mcms_(mcms)
    {
    }

    /** Total CPUs in the machine. */
    unsigned
    numCpus() const
    {
        return coresPerChip_ * chipsPerMcm_ * mcms_;
    }

    /** Number of CP chips (L3 domains). */
    unsigned numChips() const { return chipsPerMcm_ * mcms_; }

    /** Number of MCMs (L4 domains). */
    unsigned numMcms() const { return mcms_; }

    /** Cores sharing each L3. */
    unsigned coresPerChip() const { return coresPerChip_; }

    /** Chips sharing each L4. */
    unsigned chipsPerMcm() const { return chipsPerMcm_; }

    /** Chip (L3 domain) index of @p cpu. */
    unsigned chipOf(CpuId cpu) const { return cpu / coresPerChip_; }

    /** MCM (L4 domain) index of @p cpu. */
    unsigned
    mcmOf(CpuId cpu) const
    {
        return chipOf(cpu) / chipsPerMcm_;
    }

    /** The CPUs sharing @p cpu's L3. */
    CpuRange
    chipRange(CpuId cpu) const
    {
        const CpuId lo = chipOf(cpu) * coresPerChip_;
        return {lo, lo + coresPerChip_};
    }

    /** The CPUs sharing @p cpu's L4. */
    CpuRange
    mcmRange(CpuId cpu) const
    {
        const unsigned n = coresPerChip_ * chipsPerMcm_;
        const CpuId lo = cpu / n * n;
        return {lo, lo + n};
    }

    /** Hierarchical distance between two CPUs. */
    Distance
    distance(CpuId a, CpuId b) const
    {
        if (a == b)
            return Distance::SameCpu;
        if (chipOf(a) == chipOf(b))
            return Distance::SameChip;
        if (mcmOf(a) == mcmOf(b))
            return Distance::SameMcm;
        return Distance::CrossMcm;
    }

  private:
    unsigned coresPerChip_;
    unsigned chipsPerMcm_;
    unsigned mcms_;
};

} // namespace ztx::mem

#endif // ZTX_MEM_TOPOLOGY_HH
