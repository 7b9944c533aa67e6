#include "abort.hh"

#include "common/log.hh"

namespace ztx::tx {

const char *
abortReasonName(AbortReason reason)
{
    switch (reason) {
      case AbortReason::None: return "none";
      case AbortReason::ExternalInterrupt: return "external-interrupt";
      case AbortReason::ProgramInterrupt: return "program-interrupt";
      case AbortReason::MachineCheck: return "machine-check";
      case AbortReason::IoInterrupt: return "io-interrupt";
      case AbortReason::FetchOverflow: return "fetch-overflow";
      case AbortReason::StoreOverflow: return "store-overflow";
      case AbortReason::FetchConflict: return "fetch-conflict";
      case AbortReason::StoreConflict: return "store-conflict";
      case AbortReason::RestrictedInstruction:
        return "restricted-instruction";
      case AbortReason::FilteredProgramInterrupt:
        return "filtered-program-interrupt";
      case AbortReason::NestingDepthExceeded:
        return "nesting-depth-exceeded";
      case AbortReason::CacheFetchRelated: return "cache-fetch";
      case AbortReason::CacheStoreRelated: return "cache-store";
      case AbortReason::CacheOther: return "cache-other";
      case AbortReason::DataPoisoned: return "data-poisoned";
      case AbortReason::DiagnosticAbort: return "diagnostic";
      case AbortReason::Miscellaneous: return "miscellaneous";
      case AbortReason::TAbortBase: return "tabort";
    }
    return "?";
}

std::size_t
abortReasonIndex(AbortReason reason)
{
    for (std::size_t i = 0; i < allAbortReasons.size(); ++i)
        if (allAbortReasons[i] == reason)
            return i;
    ztx_panic("unknown abort reason ", unsigned(reason));
}

const char *
interruptCodeName(InterruptCode code)
{
    switch (code) {
      case InterruptCode::None: return "none";
      case InterruptCode::Operation: return "operation";
      case InterruptCode::PrivilegedOperation:
        return "privileged-operation";
      case InterruptCode::PageFault: return "page-fault";
      case InterruptCode::FixedPointDivide:
        return "fixed-point-divide";
      case InterruptCode::DecimalData: return "decimal-data";
      case InterruptCode::ConstraintViolation:
        return "constraint-violation";
      case InterruptCode::PerEvent: return "per-event";
    }
    return "?";
}

bool
isFiltered(InterruptCode code, std::uint8_t pifc,
           bool instruction_fetch)
{
    // Exceptions related to instruction fetching are never filtered:
    // a page fault on a transaction-only code page would otherwise
    // never be resolved by the OS (paper §II.C).
    if (instruction_fetch)
        return false;
    switch (code) {
      case InterruptCode::PageFault:
        // Group 3 (access): filtered at PIFC 2 only.
        return pifc >= 2;
      case InterruptCode::FixedPointDivide:
      case InterruptCode::DecimalData:
        // Group 4 (data/arithmetic): filtered at PIFC 1 and 2.
        return pifc >= 1;
      default:
        // Groups 1/2 plus constraint violations and PER events are
        // never filtered.
        return false;
    }
}

} // namespace ztx::tx
