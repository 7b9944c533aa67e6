/** @file Unit tests for opcodes, the assembler, and programs. */

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "isa/opcodes.hh"
#include "isa/program.hh"
#include "isa/registers.hh"

namespace {

using namespace ztx;
using namespace ztx::isa;

TEST(OpcodeInfo, LengthsAreZLike)
{
    EXPECT_EQ(opcodeInfo(Opcode::LR).length, 2u);
    EXPECT_EQ(opcodeInfo(Opcode::LHI).length, 4u);
    EXPECT_EQ(opcodeInfo(Opcode::LG).length, 6u);
    EXPECT_EQ(opcodeInfo(Opcode::TBEGIN).length, 6u);
    EXPECT_EQ(opcodeInfo(Opcode::TEND).length, 4u);
}

TEST(OpcodeInfo, ClassificationFlags)
{
    EXPECT_TRUE(opcodeInfo(Opcode::LG).isLoad);
    EXPECT_TRUE(opcodeInfo(Opcode::STG).isStore);
    EXPECT_TRUE(opcodeInfo(Opcode::CS).isLoad);
    EXPECT_TRUE(opcodeInfo(Opcode::CS).isStore);
    EXPECT_TRUE(opcodeInfo(Opcode::BRC).isBranch);
    EXPECT_TRUE(opcodeInfo(Opcode::ADB).modifiesFpr);
    EXPECT_TRUE(opcodeInfo(Opcode::SAR).modifiesAr);
    EXPECT_FALSE(opcodeInfo(Opcode::SAR).restrictedInTx);
    EXPECT_TRUE(opcodeInfo(Opcode::LPSWE).restrictedInTx);
}

TEST(OpcodeInfo, ConstrainedSubset)
{
    // The constrained subset includes loads, stores, CS, branches,
    // simple arithmetic -- and excludes FP/decimal/complex ops.
    EXPECT_FALSE(opcodeInfo(Opcode::LG).restrictedInConstrained);
    EXPECT_FALSE(opcodeInfo(Opcode::STG).restrictedInConstrained);
    EXPECT_FALSE(opcodeInfo(Opcode::CS).restrictedInConstrained);
    EXPECT_FALSE(opcodeInfo(Opcode::AGR).restrictedInConstrained);
    EXPECT_FALSE(opcodeInfo(Opcode::BRC).restrictedInConstrained);
    EXPECT_TRUE(opcodeInfo(Opcode::ADB).restrictedInConstrained);
    EXPECT_TRUE(opcodeInfo(Opcode::AP).restrictedInConstrained);
    EXPECT_TRUE(opcodeInfo(Opcode::DSGR).restrictedInConstrained);
    EXPECT_TRUE(opcodeInfo(Opcode::TBEGIN).restrictedInConstrained);
    EXPECT_TRUE(opcodeInfo(Opcode::TBEGINC).restrictedInConstrained);
    EXPECT_TRUE(opcodeInfo(Opcode::NTSTG).restrictedInConstrained);
}

TEST(OpcodeInfo, ExceptionGroups)
{
    EXPECT_EQ(opcodeInfo(Opcode::LG).exceptionGroup,
              ExceptionGroup::Access);
    EXPECT_EQ(opcodeInfo(Opcode::DSGR).exceptionGroup,
              ExceptionGroup::Arithmetic);
    EXPECT_EQ(opcodeInfo(Opcode::INVALID).exceptionGroup,
              ExceptionGroup::Always);
    EXPECT_EQ(opcodeInfo(Opcode::LR).exceptionGroup,
              ExceptionGroup::None);
}

TEST(OpcodeInfo, NamesMatch)
{
    EXPECT_STREQ(opcodeName(Opcode::TBEGIN), "TBEGIN");
    EXPECT_STREQ(opcodeName(Opcode::NTSTG), "NTSTG");
    EXPECT_STREQ(opcodeName(Opcode::HALT), "HALT");
}

TEST(ConditionMasks, Selection)
{
    EXPECT_TRUE(ccSelected(maskZero, 0));
    EXPECT_FALSE(ccSelected(maskZero, 1));
    EXPECT_TRUE(ccSelected(maskNotZero, 1));
    EXPECT_TRUE(ccSelected(maskNotZero, 3));
    EXPECT_FALSE(ccSelected(maskNotZero, 0));
    EXPECT_TRUE(ccSelected(maskOnes, 3));
    for (std::uint8_t cc = 0; cc < 4; ++cc)
        EXPECT_TRUE(ccSelected(maskAlways, cc));
}

TEST(ConditionHelpers, SignedAndCompare)
{
    EXPECT_EQ(ccOfSigned(0), 0);
    EXPECT_EQ(ccOfSigned(-5), 1);
    EXPECT_EQ(ccOfSigned(5), 2);
    EXPECT_EQ(ccOfCompare(1, 1), 0);
    EXPECT_EQ(ccOfCompare(0, 1), 1);
    EXPECT_EQ(ccOfCompare(2, 1), 2);
}

TEST(Assembler, AddressesAdvanceByLength)
{
    Assembler as(0x1000);
    as.lr(1, 2);    // 2 bytes
    as.lhi(3, 7);   // 4 bytes
    as.lg(4, 5, 8); // 6 bytes
    as.halt();
    const Program p = as.finish();
    ASSERT_EQ(p.size(), 4u);
    EXPECT_EQ(p.slots()[0].addr, 0x1000u);
    EXPECT_EQ(p.slots()[1].addr, 0x1002u);
    EXPECT_EQ(p.slots()[2].addr, 0x1006u);
    EXPECT_EQ(p.slots()[3].addr, 0x100Cu);
}

TEST(Assembler, FetchByAddress)
{
    Assembler as(0x2000);
    as.lhi(0, 42);
    as.halt();
    const Program p = as.finish();
    const auto *slot = p.fetch(0x2000);
    ASSERT_NE(slot, nullptr);
    EXPECT_EQ(slot->inst.op, Opcode::LHI);
    EXPECT_EQ(slot->inst.imm, 42);
    EXPECT_EQ(p.fetch(0x2001), nullptr);
    EXPECT_EQ(p.entry(), 0x2000u);
}

/** A mixed-length program (2/4/6-byte slots) at @p base. */
Program
mixedProgram(Addr base)
{
    Assembler as(base);
    as.label("top");
    as.lr(1, 2);    // 2 bytes
    as.lhi(3, 7);   // 4 bytes
    as.lg(4, 5, 8); // 6 bytes
    as.lr(6, 7);
    as.lg(4, 5, 16);
    as.j("top");
    as.halt();
    return as.finish();
}

TEST(Program, DenseFetchMatchesSlots)
{
    // The default base, the litmus base and a small one.
    for (const Addr base : {Addr(0x10'0000), Addr(0x50'0000),
                            Addr(0x2000)}) {
        const Program p = mixedProgram(base);
        const auto &slots = p.slots();
        const Addr end = slots.back().addr + slots.back().length;
        // Every address from before the entry to past the end:
        // slot addresses return their own slot, everything else
        // (mid-instruction, odd, outside) returns nullptr.
        std::size_t next = 0;
        for (Addr a = base - 16; a < end + 16; ++a) {
            if (next < slots.size() && a == slots[next].addr) {
                EXPECT_EQ(p.fetch(a), &slots[next]) << std::hex << a;
                ++next;
            } else {
                EXPECT_EQ(p.fetch(a), nullptr) << std::hex << a;
            }
        }
        EXPECT_EQ(next, slots.size());
        EXPECT_EQ(p.fetch(0), nullptr);
        EXPECT_EQ(p.fetch(~Addr(0)), nullptr);
        EXPECT_EQ(p.fetch(~Addr(0) - 1), nullptr);

        // A copy answers from its own slots.
        const Program copy = p;
        EXPECT_EQ(copy.fetch(slots[2].addr), &copy.slots()[2]);
    }

    // Empty programs, default-constructed or assembled, hold nothing.
    const Program none;
    const Program finished = Assembler(0x50'0000).finish();
    for (const Addr a : {Addr(0), Addr(2), Addr(0x10'0000),
                         Addr(0x50'0000), Addr(0x50'0002)}) {
        EXPECT_EQ(none.fetch(a), nullptr);
        EXPECT_EQ(finished.fetch(a), nullptr);
    }

    // The slot table is halfword-indexed: an odd base is refused.
    EXPECT_EXIT(Assembler(0x10'0001), ::testing::ExitedWithCode(1),
                "odd");
}

TEST(Assembler, ForwardAndBackwardLabels)
{
    Assembler as;
    as.label("top");
    as.lhi(1, 0);
    as.j("done");     // forward reference
    as.j("top");      // backward reference
    as.label("done");
    as.halt();
    const Program p = as.finish();
    EXPECT_EQ(p.slots()[1].inst.target, p.labelAddr("done"));
    EXPECT_EQ(p.slots()[2].inst.target, p.labelAddr("top"));
    EXPECT_EQ(p.labelAddr("top"), p.entry());
}

TEST(Assembler, BranchHelpersSetMasks)
{
    Assembler as;
    as.label("t");
    as.jnz("t");
    as.jz("t");
    as.jo("t");
    as.cijnl(0, 6, "t");
    as.halt();
    const Program p = as.finish();
    EXPECT_EQ(p.slots()[0].inst.mask, maskNotZero);
    EXPECT_EQ(p.slots()[1].inst.mask, maskZero);
    EXPECT_EQ(p.slots()[2].inst.mask, maskOnes);
    EXPECT_EQ(p.slots()[3].inst.mask, maskCc0 | maskCc2);
}

TEST(Assembler, TBeginFields)
{
    Assembler as;
    as.tbegin(0xFF, {.tdbBase = 8, .tdbDisp = 0x40,
                     .allowArMod = false, .allowFprMod = false,
                     .pifc = 2});
    as.tend();
    as.halt();
    const Program p = as.finish();
    const auto &tb = p.slots()[0].inst;
    EXPECT_EQ(tb.grsm, 0xFF);
    EXPECT_EQ(tb.base, 8);
    EXPECT_EQ(tb.disp, 0x40);
    EXPECT_FALSE(tb.allowArMod);
    EXPECT_FALSE(tb.allowFprMod);
    EXPECT_EQ(tb.pifc, 2);
}

TEST(Assembler, TBeginCForcesControls)
{
    Assembler as;
    as.tbeginc(0x80);
    as.tend();
    as.halt();
    const Program p = as.finish();
    const auto &tb = p.slots()[0].inst;
    EXPECT_EQ(tb.grsm, 0x80);
    // TBEGINC has no F or PIFC fields; controls read as zero.
    EXPECT_FALSE(tb.allowFprMod);
    EXPECT_EQ(tb.pifc, 0);
    EXPECT_TRUE(tb.allowArMod);
}

TEST(Program, LabelAddrForData)
{
    Assembler as(0x100);
    as.nop();
    as.label("after");
    as.halt();
    const Program p = as.finish();
    EXPECT_EQ(p.labelAddr("after"), 0x102u);
}

} // namespace
