/**
 * @file
 * An assembled program: instructions located at byte-accurate
 * addresses, fetched by address by the CPU interpreter.
 *
 * Instructions are 2, 4 or 6 bytes long and laid out back to back
 * from an even base, so every instruction starts on a halfword. The
 * assembler therefore records, for each halfword of the program's
 * extent, the slot that starts there (or none), and fetch() is a
 * bounds check plus one table load.
 */

#ifndef ZTX_ISA_PROGRAM_HH
#define ZTX_ISA_PROGRAM_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "isa/instruction.hh"

namespace ztx::isa {

/** Immutable instruction stream with address-based fetch. */
class Program
{
  public:
    /** An instruction placed at its assembled address. */
    struct Slot
    {
        Instruction inst;
        Addr addr;
        std::uint8_t length;
    };

    Program() = default;

    /**
     * Fetch the instruction at @p addr.
     * @return The slot, or nullptr when @p addr is not the address
     *         of any assembled instruction.
     */
    const Slot *
    fetch(Addr addr) const
    {
        // Below the base the offset wraps and fails the bounds check.
        const Addr off = addr - base_;
        if ((off & 1) || (off >> 1) >= slotAt_.size())
            return nullptr;
        const std::uint32_t i = slotAt_[off >> 1];
        return i == noSlot ? nullptr : &slots_[i];
    }

    /** Address of the first instruction. */
    Addr entry() const;

    /** Address of a named label (fatal if unknown). */
    Addr labelAddr(const std::string &name) const;

    /** Number of instructions. */
    std::size_t size() const { return slots_.size(); }

    /** All slots, in address order (for listings and tests). */
    const std::vector<Slot> &slots() const { return slots_; }

  private:
    friend class Assembler;

    static constexpr std::uint32_t noSlot = ~std::uint32_t(0);

    std::vector<Slot> slots_;
    /** Address of the first instruction (even). */
    Addr base_ = 0;
    /** Slot index starting at halfword i of the extent, or noSlot. */
    std::vector<std::uint32_t> slotAt_;
    std::unordered_map<std::string, Addr> labels_;
};

} // namespace ztx::isa

#endif // ZTX_ISA_PROGRAM_HH
