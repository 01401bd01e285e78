/**
 * @file
 * Differential test of VecMachine against RefVecMachine, the
 * per-element reference interpreter: seeded random instruction
 * streams run through both machines, and after every instruction
 * the register files, vl, the captured scalar and the whole memory
 * image must be identical.
 *
 * The streams cover every vector opcode on machines with vlmax 4, 16
 * and 2048 (so vl ranges over 1..2048), masked and unmasked, vv and
 * vx, unit, strided (negative and sub-word strides included) and
 * indexed memory, masked accesses whose inactive elements lie out of
 * range, and the aliasing cases the kernels must order correctly:
 * src == dst, dst == v0, and division by zero / INT_MIN / -1
 * operands.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <sstream>
#include <vector>

#include "common/rng.hh"
#include "isa/functional.hh"
#include "isa/program.hh"

#include "ref_vec_machine.hh"

namespace eve
{
namespace
{

using test::RefVecMachine;

constexpr std::size_t kMemBytes = 256 * 1024;
constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();

std::vector<Op>
vectorOps()
{
    std::vector<Op> ops;
    for (unsigned i = 0; i < unsigned(Op::NumOps); ++i)
        if (isVectorOp(Op(i)))
            ops.push_back(Op(i));
    return ops;
}

std::string
describe(const Instr& in)
{
    std::ostringstream os;
    os << disassemble(in) << " [vl=" << in.vl << " dst=v" << int(in.dst)
       << " src1=v" << int(in.src1) << " src2=v" << int(in.src2)
       << " masked=" << in.masked << " vx=" << in.usesScalar
       << " imm=" << in.imm << " addr=" << in.addr
       << " stride=" << in.stride << "]";
    return os.str();
}

/** Two machines over two identical memories, stepped in lock step. */
class DiffRig
{
  public:
    DiffRig(std::uint32_t vlmax, std::uint64_t seed)
        : vlmax(vlmax), memFast(kMemBytes), memRef(kMemBytes),
          fast(memFast, vlmax), ref(memRef, vlmax), rng(seed)
    {
        for (std::size_t a = 0; a < kMemBytes; a += 4) {
            const std::int32_t v = value();
            std::memcpy(memFast.data().data() + a, &v, 4);
            std::memcpy(memRef.data().data() + a, &v, 4);
        }
        for (unsigned reg = 0; reg < 32; ++reg)
            randomizeReg(reg);
    }

    /** Operand values biased towards edge cases and small indices. */
    std::int32_t
    value()
    {
        static const std::int32_t special[] = {0, 1, -1, kMin, kMax,
                                               31, 32, 33, -32};
        switch (rng.below(8)) {
          case 0:
            return special[rng.below(std::size(special))];
          case 1:
          case 2:
            return std::int32_t(rng.below(vlmax + 2));
          case 3:
            return std::int32_t(rng.below(64)) - 32;
          default:
            return rng.i32();
        }
    }

    void
    set(unsigned reg, std::uint32_t i, std::int32_t v)
    {
        fast.setElem(reg, i, v);
        ref.setElem(reg, i, v);
    }

    void
    randomizeReg(unsigned reg)
    {
        for (std::uint32_t i = 0; i < vlmax; ++i)
            set(reg, i, value());
    }

    /** A fresh v0: all set, all clear, random bits or random words. */
    void
    randomizeMask()
    {
        const unsigned kind = unsigned(rng.below(4));
        for (std::uint32_t i = 0; i < vlmax; ++i) {
            std::int32_t v;
            switch (kind) {
              case 0: v = 1; break;
              case 1: v = 0; break;
              case 2: v = std::int32_t(rng.below(2)); break;
              default: v = value(); break;
            }
            set(0, i, v);
        }
    }

    /** A random vl for a non-control op: 1..vlmax, edges favoured. */
    std::uint32_t
    randomVl()
    {
        switch (rng.below(4)) {
          case 0:
            return vlmax;
          case 1:
            return 1 + std::uint32_t(rng.below(std::min(vlmax, 8u)));
          default:
            return 1 + std::uint32_t(rng.below(vlmax));
        }
    }

    /** Step both machines and compare every piece of state. */
    void
    step(const Instr& in)
    {
        fast.consume(in);
        ref.consume(in);
        ++steps;
        ASSERT_EQ(fast.currentVl(), ref.currentVl()) << describe(in);
        ASSERT_EQ(fast.lastScalarResult(), ref.lastScalarResult())
            << describe(in);
        const VecMachineState state = fast.saveState();
        for (unsigned reg = 0; reg < 32; ++reg) {
            if (state.vregs[reg] == ref.regs()[reg])
                continue;
            for (std::uint32_t i = 0; i < vlmax; ++i)
                ASSERT_EQ(state.vregs[reg][i], ref.regs()[reg][i])
                    << "v" << reg << "[" << i << "] after step " << steps
                    << ": " << describe(in);
        }
        if (memFast.data() != memRef.data()) {
            for (std::size_t a = 0; a < kMemBytes; ++a)
                ASSERT_EQ(memFast.data()[a], memRef.data()[a])
                    << "memory byte " << a << " after step " << steps
                    << ": " << describe(in);
        }
    }

    /** A random, in-range instance of @p op. */
    Instr
    randomInstr(Op op)
    {
        Instr in;
        in.op = op;
        // Few registers, so src == dst and dst == v0 come up often.
        in.dst = std::uint8_t(rng.below(6));
        in.src1 = std::uint8_t(rng.below(6));
        in.src2 = std::uint8_t(rng.below(6));
        in.masked = rng.below(2) == 0;
        in.usesScalar = rng.below(2) == 0;
        in.imm = value();
        in.vl = randomVl();

        switch (opClass(op)) {
          case OpClass::VecCtrl:
            in.vl = std::uint32_t(rng.below(3 * vlmax + 1));
            if (op == Op::VSetVl && rng.below(4) == 0)
                in.imm = std::int64_t(rng.next() >> 1);
            else if (op == Op::VSetVl)
                in.imm = std::int64_t(rng.below(2 * vlmax + 1));
            break;
          case OpClass::VecXe:
            if (op == Op::VSlideUp || op == Op::VSlideDown) {
                static const std::int64_t far[] = {0xffffffffll,
                                                   0x80000000ll,
                                                   0x1'0000'0003ll};
                switch (rng.below(4)) {
                  case 0:
                    in.imm = far[rng.below(std::size(far))];
                    break;
                  case 1:
                    in.imm = std::int64_t(in.vl + rng.below(3));
                    break;
                  default:
                    in.imm = std::int64_t(rng.below(in.vl + 1));
                    break;
                }
            }
            break;
          case OpClass::VecMemUnit:
          case OpClass::VecMemStride:
          case OpClass::VecMemIndex:
            placeMemory(in);
            break;
          default:
            break;
        }
        return in;
    }

    /** Give a memory op an address (and stride or indices) in range. */
    void
    placeMemory(Instr& in)
    {
        const std::uint32_t n = in.vl;
        const Addr top = kMemBytes - 4;
        // A masked access sometimes runs its last element off the end
        // of memory with that element inactive: it must not panic, and
        // the earlier elements must still move.
        const bool off_end = in.masked && n >= 2 && rng.below(6) == 0;
        switch (opClass(in.op)) {
          case OpClass::VecMemUnit:
            if (off_end) {
                in.addr = top - Addr(n - 2) * 4 - rng.below(4);
            } else {
                in.addr = rng.below(kMemBytes - Addr(n) * 4 + 1);
            }
            break;
          case OpClass::VecMemStride: {
            static const std::int64_t strides[] = {
                0, 1, 2, 3, 4, 5, 8, 12, 64, 136, 256,
                -1, -3, -4, -8, -64, -136, -256};
            std::int64_t s = rng.below(3) == 0
                                 ? std::int64_t(rng.range(-300, 300))
                                 : strides[rng.below(std::size(strides))];
            const std::int64_t mag = s < 0 ? -s : s;
            if (n > 1 && mag * std::int64_t(n - 1) > std::int64_t(top))
                s = (s < 0 ? -1 : 1) * std::int64_t(top / (n - 1));
            in.stride = s;
            const Addr span = Addr(s < 0 ? -s : s) * Addr(n - 1);
            if (off_end && s != 0) {
                // Element n-2 is the last one in range.
                const Addr inner = Addr(s < 0 ? -s : s) * Addr(n - 2);
                in.addr = s > 0 ? top - inner : inner;
            } else if (s < 0) {
                in.addr = span + rng.below(top - span + 1);
            } else {
                in.addr = rng.below(top - span + 1);
            }
            break;
          }
          default: {
            in.addr = rng.below(kMemBytes / 2);
            indexStore.assign(n, 0);
            for (auto& idx : indexStore)
                idx = std::uint32_t(rng.below(top - in.addr + 1));
            if (off_end)
                indexStore[n - 1] = std::uint32_t(kMemBytes);
            in.indices = indexStore.data();
            break;
          }
        }
        if (off_end)
            set(0, n - 1, ref.elem(0, n - 1) & ~1);
    }

    std::uint32_t vlmax;
    ByteMem memFast;
    ByteMem memRef;
    VecMachine fast;
    RefVecMachine ref;
    Rng rng;
    std::vector<std::uint32_t> indexStore;
    unsigned steps = 0;
};

class VecMachineRef : public testing::TestWithParam<std::uint32_t>
{
};

TEST_P(VecMachineRef, RandomStreamsMatchReferenceEveryStep)
{
    const std::uint32_t vlmax = GetParam();
    DiffRig rig(vlmax, 0x5eed0000 + vlmax);
    const std::vector<Op> ops = vectorOps();
    const unsigned rounds = vlmax >= 1024 ? 24 : 60;
    for (unsigned round = 0; round < rounds; ++round) {
        for (Op op : ops) {
            if (rig.rng.below(4) == 0)
                rig.randomizeMask();
            if (rig.rng.below(8) == 0)
                rig.randomizeReg(1 + unsigned(rig.rng.below(5)));
            rig.step(rig.randomInstr(op));
            if (testing::Test::HasFatalFailure())
                return;
        }
    }
}

TEST_P(VecMachineRef, AliasedOperandsMatchReference)
{
    // Every alias pattern the kernels must order correctly, on every
    // opcode whose elements read other elements or v0.
    const std::uint32_t vlmax = GetParam();
    DiffRig rig(vlmax, 0xa11a5000 + vlmax);
    const Op ops[] = {Op::VSlide1Up, Op::VSlide1Down, Op::VSlideUp,
                      Op::VSlideDown, Op::VIota, Op::VRgather,
                      Op::VMerge, Op::VMacc, Op::VAdd, Op::VDiv,
                      Op::VRedSum, Op::VPopc, Op::VFirst, Op::VId,
                      Op::VMvVX};
    struct Alias
    {
        std::uint8_t dst, src1, src2;
    };
    const Alias aliases[] = {
        {2, 2, 3}, {2, 3, 2}, {2, 2, 2}, {0, 2, 3},
        {0, 0, 3}, {0, 2, 0}, {0, 0, 0}, {3, 0, 0},
    };
    for (Op op : ops)
        for (const Alias& a : aliases)
            for (int masked = 0; masked < 2; ++masked)
                for (int vx = 0; vx < 2; ++vx) {
                    rig.randomizeMask();
                    rig.randomizeReg(2);
                    rig.randomizeReg(3);
                    Instr in = rig.randomInstr(op);
                    in.dst = a.dst;
                    in.src1 = a.src1;
                    in.src2 = a.src2;
                    in.masked = masked;
                    in.usesScalar = vx;
                    rig.step(in);
                    if (testing::Test::HasFatalFailure())
                        return;
                }
}

TEST_P(VecMachineRef, DivisionEdgeOperandsMatchReference)
{
    const std::uint32_t vlmax = GetParam();
    DiffRig rig(vlmax, 0xd1d0000 + vlmax);
    const std::int32_t lhs[] = {kMin, kMax, 0, 7, -7, 1, -1};
    const std::int32_t rhs[] = {0, -1, 1, 2, -2, kMin};
    for (Op op : {Op::VDiv, Op::VDivu, Op::VRem, Op::VRemu, Op::VMulh})
        for (int vx = 0; vx < 2; ++vx)
            for (std::int32_t b : rhs) {
                for (std::uint32_t i = 0; i < vlmax; ++i) {
                    rig.set(1, i, lhs[i % std::size(lhs)]);
                    rig.set(2, i, rhs[(i / std::size(lhs)) %
                                      std::size(rhs)]);
                }
                Instr in;
                in.op = op;
                in.dst = 3;
                in.src1 = 1;
                in.src2 = 2;
                in.vl = vlmax;
                in.usesScalar = vx;
                in.imm = b;
                rig.step(in);
                if (testing::Test::HasFatalFailure())
                    return;
            }
}

INSTANTIATE_TEST_SUITE_P(Vlmax, VecMachineRef,
                         testing::Values(4u, 16u, 2048u),
                         [](const auto& info) {
                             return "vlmax" + std::to_string(info.param);
                         });

} // namespace
} // namespace eve
