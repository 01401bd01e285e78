/**
 * @file
 * Unit tests for the ISA layer: opcode classification, the program
 * builder, the disassembler, the Table IV characterizer, and the
 * reference vector machine's edge-case semantics.
 */

#include <gtest/gtest.h>

#include <limits>

#include "isa/functional.hh"
#include "isa/program.hh"

namespace eve
{
namespace
{

TEST(OpClassify, EveryOpcodeHasAClass)
{
    for (unsigned i = 0; i < unsigned(Op::NumOps); ++i) {
        const Op op = Op(i);
        EXPECT_NO_FATAL_FAILURE(opClass(op));
        EXPECT_NE(opName(op), "<bad-op>");
    }
}

TEST(OpClassify, VectorAndMemoryPredicates)
{
    // Every opcode, checked against the enum's declared groups: the
    // scalar opcodes come first, the vector memory opcodes last.
    struct Group
    {
        Op first, last;
        OpClass cls;
    };
    const Group groups[] = {
        {Op::SAlu, Op::SAlu, OpClass::ScalarAlu},
        {Op::SMul, Op::SMul, OpClass::ScalarMul},
        {Op::SLoad, Op::SLoad, OpClass::ScalarLoad},
        {Op::SStore, Op::SStore, OpClass::ScalarStore},
        {Op::SBranch, Op::SBranch, OpClass::ScalarBranch},
        {Op::VSetVl, Op::VMvXS, OpClass::VecCtrl},
        {Op::VAdd, Op::VMaxu, OpClass::VecAlu},
        {Op::VMul, Op::VRemu, OpClass::VecMul},
        {Op::VMseq, Op::VMerge, OpClass::VecAlu},
        {Op::VMvVX, Op::VRgather, OpClass::VecXe},
        {Op::VRedSum, Op::VFirst, OpClass::VecRed},
        {Op::VLoad, Op::VLoad, OpClass::VecMemUnit},
        {Op::VLoadStrided, Op::VLoadStrided, OpClass::VecMemStride},
        {Op::VLoadIndexed, Op::VLoadIndexed, OpClass::VecMemIndex},
        {Op::VStore, Op::VStore, OpClass::VecMemUnit},
        {Op::VStoreStrided, Op::VStoreStrided, OpClass::VecMemStride},
        {Op::VStoreIndexed, Op::VStoreIndexed, OpClass::VecMemIndex},
    };
    for (unsigned i = 0; i < unsigned(Op::NumOps); ++i) {
        const Op op = Op(i);
        SCOPED_TRACE(std::string(opName(op)));
        unsigned matched = 0;
        for (const Group& g : groups)
            if (op >= g.first && op <= g.last) {
                EXPECT_EQ(opClass(op), g.cls);
                ++matched;
            }
        EXPECT_EQ(matched, 1u);

        const bool load = op >= Op::VLoad && op <= Op::VLoadIndexed;
        const bool store = op >= Op::VStore && op <= Op::VStoreIndexed;
        EXPECT_EQ(isVectorOp(op), op >= Op::VSetVl);
        EXPECT_EQ(isMemOp(op),
                  op == Op::SLoad || op == Op::SStore || load || store);
        EXPECT_EQ(isVecLoad(op), load);
        EXPECT_EQ(isVecStore(op), store);
    }
    EXPECT_DEATH(opClass(Op::NumOps), "unknown opcode");
}

TEST(Program, BuilderOwnsIndexStorage)
{
    Program prog;
    prog.loadIndexed(1, 0x100, {0, 4, 8, 12});
    prog.storeIndexed(2, 0x200, {12, 8, 4, 0});
    ASSERT_EQ(prog.size(), 2u);
    EXPECT_EQ(prog.instructions()[0].vl, 4u);
    ASSERT_NE(prog.instructions()[0].indices, nullptr);
    EXPECT_EQ(prog.instructions()[0].indices[2], 8u);
    EXPECT_EQ(prog.instructions()[1].indices[0], 12u);
}

TEST(Program, ReplayReachesSink)
{
    Program prog;
    prog.setVl(8);
    prog.vv(Op::VAdd, 1, 2, 3, 8);
    CountingSink sink;
    prog.replay(sink);
    EXPECT_EQ(sink.total, 2u);
}

TEST(Disassemble, RendersKeyForms)
{
    Program prog;
    prog.setVl(16);
    prog.vv(Op::VAdd, 1, 2, 3, 16);
    prog.vx(Op::VSll, 4, 1, 3, 16);
    prog.load(5, 0x1000, 16);
    prog.loadStrided(6, 0x2000, 128, 16);
    prog.vv(Op::VMin, 7, 5, 6, 16, /*masked=*/true);
    const auto& is = prog.instructions();
    EXPECT_EQ(disassemble(is[0]), "vsetvl vl=16");
    EXPECT_EQ(disassemble(is[1]), "vadd v1, v2, v3, vl=16");
    EXPECT_EQ(disassemble(is[2]), "vsll v4, v1, x(3), vl=16");
    EXPECT_NE(disassemble(is[3]).find("vle32 v5, 0x1000"),
              std::string::npos);
    EXPECT_NE(disassemble(is[4]).find("stride=128"),
              std::string::npos);
    EXPECT_NE(disassemble(is[5]).find("v0.t"), std::string::npos);
}

TEST(Characterizer, CountsClassesAndOps)
{
    Program prog;
    prog.setVl(64);                        // ctrl
    prog.load(1, 0, 64);                   // us
    prog.loadStrided(2, 0x400, 256, 64);   // st
    prog.vv(Op::VMul, 3, 1, 2, 64);        // imul
    prog.vv(Op::VAdd, 3, 3, 1, 64, true);  // ialu, predicated
    prog.vv(Op::VRedSum, 4, 3, 4, 64);     // xe bucket
    prog.store(3, 0x800, 64);              // us

    Characterizer c;
    prog.replay(c);
    Instr scalar;
    scalar.op = Op::SAlu;
    c.consume(scalar);

    EXPECT_EQ(c.dynInstrs, 8u);
    EXPECT_EQ(c.vecInstrs, 7u);
    EXPECT_EQ(c.ctrl, 1u);
    EXPECT_EQ(c.us, 2u);
    EXPECT_EQ(c.st, 1u);
    EXPECT_EQ(c.imul, 1u);
    EXPECT_EQ(c.ialu, 1u);
    EXPECT_EQ(c.xe, 1u);
    EXPECT_EQ(c.predInstrs, 1u);
    // ops: 6 x 64-element ops + 1-element ctrl + 1 scalar.
    EXPECT_EQ(c.totalOps, 6u * 64u + 1u + 1u);
    EXPECT_DOUBLE_EQ(c.arithIntensity(), 3.0 * 64 / (3.0 * 64));
    EXPECT_NEAR(c.vecInstrPct(), 100.0 * 7 / 8, 1e-9);
}

class VecMachineTest : public testing::Test
{
  protected:
    VecMachineTest() : mem(4096), machine(mem, 16) {}

    void
    fill(unsigned reg, std::initializer_list<std::int32_t> values)
    {
        unsigned i = 0;
        for (auto v : values)
            machine.setElem(reg, i++, v);
    }

    ByteMem mem;
    VecMachine machine;
};

TEST_F(VecMachineTest, MaskedOpPreservesInactive)
{
    fill(0, {1, 0, 1, 0});
    fill(1, {10, 20, 30, 40});
    fill(2, {1, 1, 1, 1});
    Program prog;
    prog.vv(Op::VAdd, 1, 1, 2, 4, /*masked=*/true);
    prog.replay(machine);
    EXPECT_EQ(machine.elem(1, 0), 11);
    EXPECT_EQ(machine.elem(1, 1), 20);
    EXPECT_EQ(machine.elem(1, 2), 31);
    EXPECT_EQ(machine.elem(1, 3), 40);
}

TEST_F(VecMachineTest, SlideUpInjectsScalar)
{
    fill(1, {5, 6, 7, 8});
    Program prog;
    prog.vx(Op::VSlide1Up, 2, 1, -9, 4);
    prog.replay(machine);
    EXPECT_EQ(machine.elem(2, 0), -9);
    EXPECT_EQ(machine.elem(2, 1), 5);
    EXPECT_EQ(machine.elem(2, 3), 7);
}

TEST_F(VecMachineTest, SlideDownShiftsAndFills)
{
    fill(1, {5, 6, 7, 8});
    Program prog;
    prog.vx(Op::VSlide1Down, 2, 1, 99, 4);
    prog.replay(machine);
    EXPECT_EQ(machine.elem(2, 0), 6);
    EXPECT_EQ(machine.elem(2, 2), 8);
    EXPECT_EQ(machine.elem(2, 3), 99);
}

TEST_F(VecMachineTest, SlideUpInPlaceIsSafe)
{
    fill(1, {5, 6, 7, 8});
    Program prog;
    prog.vx(Op::VSlide1Up, 1, 1, 0, 4);
    prog.replay(machine);
    EXPECT_EQ(machine.elem(1, 0), 0);
    EXPECT_EQ(machine.elem(1, 1), 5);
    EXPECT_EQ(machine.elem(1, 2), 6);
    EXPECT_EQ(machine.elem(1, 3), 7);
}

TEST_F(VecMachineTest, RgatherOutOfRangeYieldsZero)
{
    fill(1, {10, 20, 30, 40});
    fill(2, {3, 0, 100, 1});
    Program prog;
    prog.vv(Op::VRgather, 3, 1, 2, 4);
    prog.replay(machine);
    EXPECT_EQ(machine.elem(3, 0), 40);
    EXPECT_EQ(machine.elem(3, 1), 10);
    EXPECT_EQ(machine.elem(3, 2), 0);  // index 100 >= vl
    EXPECT_EQ(machine.elem(3, 3), 20);
}

TEST_F(VecMachineTest, ReductionSeedsFromSrc2)
{
    fill(1, {1, 2, 3, 4});
    fill(2, {100, 0, 0, 0});
    Program prog;
    prog.vv(Op::VRedSum, 3, 1, 2, 4);
    prog.replay(machine);
    EXPECT_EQ(machine.elem(3, 0), 110);
}

TEST_F(VecMachineTest, MaskedReductionSkipsInactive)
{
    fill(0, {1, 0, 0, 1});
    fill(1, {1, 2, 3, 4});
    fill(2, {0, 0, 0, 0});
    Program prog;
    prog.vv(Op::VRedMax, 3, 1, 2, 4, /*masked=*/true);
    prog.replay(machine);
    EXPECT_EQ(machine.elem(3, 0), 4);
}

TEST_F(VecMachineTest, DivisionEdgeCases)
{
    const std::int32_t min = std::numeric_limits<std::int32_t>::min();
    fill(1, {7, min, 5, min});
    fill(2, {0, -1, 0, 0});
    Program prog;
    prog.vv(Op::VDiv, 3, 1, 2, 4);
    prog.vv(Op::VRem, 4, 1, 2, 4);
    prog.replay(machine);
    EXPECT_EQ(machine.elem(3, 0), -1);    // div by zero
    EXPECT_EQ(machine.elem(3, 1), min);   // overflow
    EXPECT_EQ(machine.elem(4, 0), 7);     // rem by zero = dividend
    EXPECT_EQ(machine.elem(4, 1), 0);     // overflow rem = 0
    EXPECT_EQ(machine.elem(3, 3), -1);
}

TEST_F(VecMachineTest, StridedAndIndexedMemory)
{
    for (int i = 0; i < 8; ++i)
        mem.store32(Addr(i) * 4, 100 + i);
    Program prog;
    prog.loadStrided(1, 0, 8, 4);  // every other word
    prog.loadIndexed(2, 0, {28, 0, 4, 4});
    prog.replay(machine);
    EXPECT_EQ(machine.elem(1, 0), 100);
    EXPECT_EQ(machine.elem(1, 1), 102);
    EXPECT_EQ(machine.elem(1, 3), 106);
    EXPECT_EQ(machine.elem(2, 0), 107);
    EXPECT_EQ(machine.elem(2, 1), 100);
    EXPECT_EQ(machine.elem(2, 3), 101);
}

TEST_F(VecMachineTest, NegativeStrideLoad)
{
    for (int i = 0; i < 8; ++i)
        mem.store32(Addr(i) * 4, i);
    Program prog;
    prog.loadStrided(1, 7 * 4, -4, 4);
    prog.replay(machine);
    EXPECT_EQ(machine.elem(1, 0), 7);
    EXPECT_EQ(machine.elem(1, 3), 4);
}

TEST_F(VecMachineTest, VMvXSCapturesElementZero)
{
    fill(5, {1234, 0, 0, 0});
    Instr mv;
    mv.op = Op::VMvXS;
    mv.src1 = 5;
    mv.vl = 1;
    machine.consume(mv);
    EXPECT_EQ(machine.lastScalarResult(), 1234);
}

TEST_F(VecMachineTest, SetVlClampsToVlmax)
{
    Program prog;
    prog.setVl(1000);
    prog.replay(machine);
    EXPECT_EQ(machine.currentVl(), 16u);
}


TEST_F(VecMachineTest, IotaComputesExclusivePrefixCount)
{
    fill(1, {1, 0, 1, 1});
    Program prog;
    prog.vv(Op::VIota, 2, 1, 0, 4);
    prog.replay(machine);
    EXPECT_EQ(machine.elem(2, 0), 0);
    EXPECT_EQ(machine.elem(2, 1), 1);
    EXPECT_EQ(machine.elem(2, 2), 1);
    EXPECT_EQ(machine.elem(2, 3), 2);
}

TEST_F(VecMachineTest, PopcCountsSetMaskBits)
{
    fill(1, {1, 0, 3, 2});  // bit 0 set for elements 0 and 2
    Program prog;
    prog.vv(Op::VPopc, 2, 1, 0, 4);
    prog.replay(machine);
    EXPECT_EQ(machine.elem(2, 0), 2);
}

TEST_F(VecMachineTest, FirstFindsLowestSetBitOrMinusOne)
{
    fill(1, {0, 0, 1, 1});
    Program prog;
    prog.vv(Op::VFirst, 2, 1, 0, 4);
    prog.replay(machine);
    EXPECT_EQ(machine.elem(2, 0), 2);

    fill(1, {0, 0, 0, 0});
    Program none;
    none.vv(Op::VFirst, 3, 1, 0, 4);
    none.replay(machine);
    EXPECT_EQ(machine.elem(3, 0), -1);
}

TEST_F(VecMachineTest, MaskedIotaOnlyWritesActive)
{
    fill(0, {1, 0, 1, 1});
    fill(1, {1, 1, 1, 0});
    fill(2, {-5, -5, -5, -5});
    Program prog;
    prog.vv(Op::VIota, 2, 1, 0, 4, /*masked=*/true);
    prog.replay(machine);
    EXPECT_EQ(machine.elem(2, 0), 0);
    EXPECT_EQ(machine.elem(2, 1), -5);  // inactive
    EXPECT_EQ(machine.elem(2, 2), 2);
    EXPECT_EQ(machine.elem(2, 3), 3);
}

TEST(ByteMemTest, RoundTripAndBounds)
{
    ByteMem mem(64);
    mem.store32(0, -123);
    mem.store32(60, 456);
    EXPECT_EQ(mem.load32(0), -123);
    EXPECT_EQ(mem.load32(60), 456);
    EXPECT_DEATH(mem.load32(61), "beyond");
}

TEST(ByteMemTest, UnitStrideAccessPanicsOnItsLastElement)
{
    // 52, 56, 60 fit a 64-byte memory; the last element, 64, does not.
    ByteMem mem(64);
    VecMachine machine(mem, 16);
    Instr access;
    access.op = Op::VLoad;
    access.vl = 4;
    access.addr = 52;
    EXPECT_DEATH(machine.consume(access), "beyond");
    access.op = Op::VStore;
    EXPECT_DEATH(machine.consume(access), "beyond");
}

TEST(ByteMemTest, StridedAccessPanicsOnItsLastElement)
{
    ByteMem mem(64);
    VecMachine machine(mem, 16);
    Instr access;
    access.op = Op::VLoadStrided;
    access.vl = 4;
    access.addr = 0;
    access.stride = 21; // 0, 21, 42 fit; 63 runs past the end
    EXPECT_DEATH(machine.consume(access), "beyond");
    access.op = Op::VStoreStrided;
    EXPECT_DEATH(machine.consume(access), "beyond");
    // Downward: 40, 24, 8 fit; the last element lies below address 0,
    // however much memory lies above.
    ByteMem big(4096);
    VecMachine wide(big, 16);
    access.addr = 40;
    access.stride = -16;
    EXPECT_DEATH(wide.consume(access), "beyond");
    access.op = Op::VLoadStrided;
    EXPECT_DEATH(wide.consume(access), "beyond");
}

TEST(ByteMemTest, InactiveOutOfRangeElementDoesNotPanic)
{
    ByteMem mem(64);
    VecMachine machine(mem, 16);
    for (std::uint32_t i = 0; i < 4; ++i)
        machine.setElem(0, i, i < 3);
    mem.store32(42, 77);
    Instr access;
    access.op = Op::VLoadStrided;
    access.masked = true;
    access.dst = 1;
    access.vl = 4;
    access.addr = 0;
    access.stride = 21; // element 3 (address 63) is masked off
    machine.consume(access);
    EXPECT_EQ(machine.elem(1, 2), 77);
}

} // namespace
} // namespace eve
