/**
 * @file
 * Program Event Recording controls (paper §II.E.2).
 *
 * PER triggers program interruptions on stores into a watched range
 * or instruction fetches from a watched range (watch-/break-points).
 * The TX facility adds two features: *event suppression* (no PER
 * events while in transactional mode, so a single-stepped transaction
 * behaves like one big instruction) and the *PER TEND event*, which
 * fires at successful completion of an outermost TEND so a debugger
 * can re-examine watch-points at transaction granularity.
 */

#ifndef ZTX_DEBUG_PER_HH
#define ZTX_DEBUG_PER_HH

#include "common/types.hh"

namespace ztx::debug {

/** One address range watch. */
struct PerRange
{
    bool enabled = false;
    Addr start = 0;
    Addr end = 0; ///< inclusive

    /** True if the watch covers any byte of [addr, addr+size). */
    bool
    matches(Addr addr, unsigned size = 1) const
    {
        return enabled && addr <= end && addr + size - 1 >= start;
    }
};

/** Per-CPU PER configuration (set by the "OS"/debugger). */
struct PerControls
{
    /** Watch stores into a storage range. */
    PerRange storeRange;

    /** Watch instruction fetches from a storage range. */
    PerRange ifetchRange;

    /** Watch successful branches *into* a storage range. */
    PerRange branchRange;

    /** TX extension (i): suppress PER events in transactional mode. */
    bool suppressInTx = false;

    /** TX extension (ii): event on outermost TEND completion. */
    bool tendEvent = false;
};

} // namespace ztx::debug

#endif // ZTX_DEBUG_PER_HH
