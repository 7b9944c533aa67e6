/**
 * @file
 * Constrained-transaction rule checking (paper §II.D).
 *
 * A transaction started with TBEGINC must obey:
 *   - at most 32 instructions execute,
 *   - all instruction text within 256 consecutive bytes,
 *   - only forward-pointing relative branches (no loops/calls),
 *   - data accesses touch at most 4 aligned octowords (32 bytes),
 *   - only the constrained instruction subset is used.
 *
 * Violations raise a non-filterable constraint-violation program
 * interruption. The limits are architected constants so that future
 * implementations can keep guaranteeing success.
 */

#ifndef ZTX_TX_CONSTRAINTS_HH
#define ZTX_TX_CONSTRAINTS_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/types.hh"
#include "isa/instruction.hh"

namespace ztx::tx {

/** Architected constrained-transaction limits. */
inline constexpr unsigned constrainedMaxInstructions = 32;
inline constexpr unsigned constrainedMaxTextBytes = 256;
inline constexpr unsigned constrainedMaxOctowords = 4;

/** Which constrained-transaction rule was broken. */
enum class ConstraintViolationKind : std::uint8_t
{
    TooManyInstructions,
    TextFootprint,
    BackwardBranch,
    RestrictedOperation,
    DataFootprint,
};

/** Number of ConstraintViolationKind values (dense from 0). */
inline constexpr std::size_t numConstraintViolationKinds = 5;

/** Human-readable violation name. */
const char *constraintViolationName(ConstraintViolationKind kind);

/** Tracks one constrained transaction's rule compliance. */
class ConstraintChecker
{
  public:
    ConstraintChecker() = default;

    /** Start tracking a constrained TX whose TBEGINC is at @p addr. */
    void begin(Addr tbeginc_addr);

    /** Stop tracking (TEND or abort). */
    void end();

    /** True while a constrained transaction is being tracked. */
    bool active() const { return active_; }

    /**
     * Validate the next instruction to execute.
     * @param inst The decoded instruction.
     * @param addr Its address.
     * @return The violated rule, or nullopt if compliant.
     */
    std::optional<ConstraintViolationKind>
    checkInstruction(const isa::Instruction &inst, Addr addr);

    /**
     * Validate a data access of @p size bytes at @p addr, tracking
     * the set of distinct aligned octowords touched.
     * @return DataFootprint if the 4-octoword budget is exceeded.
     */
    std::optional<ConstraintViolationKind>
    checkDataAccess(Addr addr, unsigned size);

    /** Instructions executed so far in this constrained TX. */
    unsigned instructionCount() const { return instructions_; }

    /** Distinct octowords touched so far. */
    unsigned octowordCount() const { return numOctowords_; }

  private:
    bool trackOctoword(Addr octoword);

    bool active_ = false;
    Addr beginAddr_ = 0;
    Addr lastAddr_ = 0;
    unsigned instructions_ = 0;
    unsigned numOctowords_ = 0;
    std::array<Addr, constrainedMaxOctowords> octowords_{};
};

} // namespace ztx::tx

#endif // ZTX_TX_CONSTRAINTS_HH
