/**
 * @file
 * RefVecMachine: the per-element reference semantics of VecMachine.
 *
 * This is the straightforward interpreter VecMachine::consume used to
 * be: one loop over the elements with the opcode switch, the mask
 * test and the vv/vx pick inside it, and a bounds-checked ByteMem
 * load32/store32 per element. It stays in the tests as the oracle the
 * per-opcode kernels are compared against, instruction by
 * instruction, so keep it simple rather than fast.
 */

#ifndef EVE_TESTS_REF_VEC_MACHINE_HH
#define EVE_TESTS_REF_VEC_MACHINE_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/log.hh"
#include "isa/functional.hh"

namespace eve::test
{

/** Element-at-a-time interpreter with VecMachine's semantics. */
class RefVecMachine : public InstrSink
{
  public:
    RefVecMachine(ByteMem& mem, std::uint32_t vlmax)
        : mem(mem), hwVl(vlmax),
          vregs(32, std::vector<std::int32_t>(vlmax, 0))
    {
    }

    std::int32_t elem(unsigned reg, std::uint32_t idx) const
    {
        return vregs.at(reg).at(idx);
    }

    void setElem(unsigned reg, std::uint32_t idx, std::int32_t value)
    {
        vregs.at(reg).at(idx) = value;
    }

    std::uint32_t currentVl() const { return vl; }
    std::int32_t lastScalarResult() const { return scalarResult; }
    const std::vector<std::vector<std::int32_t>>& regs() const
    {
        return vregs;
    }

    void consume(const Instr& instr) override;

  private:
    bool
    active(const Instr& instr, std::uint32_t i) const
    {
        // vmerge is inherently governed by v0 (its selector); the
        // masked flag adds nothing (RVV has no separately-masked
        // vmerge form).
        if (instr.op == Op::VMerge)
            return true;
        return !instr.masked || (vregs[0][i] & 1);
    }

    static std::int32_t
    divide(std::int32_t a, std::int32_t b)
    {
        if (b == 0)
            return -1;
        if (a == std::numeric_limits<std::int32_t>::min() && b == -1)
            return a;
        return a / b;
    }

    static std::int32_t
    remainder(std::int32_t a, std::int32_t b)
    {
        if (b == 0)
            return a;
        if (a == std::numeric_limits<std::int32_t>::min() && b == -1)
            return 0;
        return a % b;
    }

    static std::uint32_t asU(std::int32_t v)
    {
        return static_cast<std::uint32_t>(v);
    }

    static std::int32_t asS(std::uint32_t v)
    {
        return static_cast<std::int32_t>(v);
    }

    ByteMem& mem;
    std::uint32_t hwVl;
    std::uint32_t vl = 0;
    std::int32_t scalarResult = 0;
    std::vector<std::vector<std::int32_t>> vregs;
};

inline void
RefVecMachine::consume(const Instr& instr)
{
    if (!isVectorOp(instr.op))
        return;

    const std::uint32_t n =
        opClass(instr.op) == OpClass::VecCtrl
            ? std::min<std::uint32_t>(instr.vl, hwVl)
            : instr.vl;
    if (n > hwVl)
        panic("VecMachine: vl %u exceeds vlmax %u for %s", n, hwVl,
              std::string(opName(instr.op)).c_str());

    auto& dst = vregs[instr.dst];
    const auto& s1 = vregs[instr.src1];
    const auto& s2 = vregs[instr.src2];
    const std::int32_t sx = static_cast<std::int32_t>(instr.imm);
    auto rhs = [&](std::uint32_t i) {
        return instr.usesScalar ? sx : s2[i];
    };

    switch (instr.op) {
      case Op::VSetVl:
        vl = std::min<std::uint32_t>(std::uint32_t(instr.imm), hwVl);
        return;
      case Op::VMfence:
        return;
      case Op::VMvXS:
        scalarResult = s1[0];
        return;

      case Op::VMvVX:
        for (std::uint32_t i = 0; i < n; ++i)
            if (active(instr, i))
                dst[i] = sx;
        return;
      case Op::VId:
        for (std::uint32_t i = 0; i < n; ++i)
            if (active(instr, i))
                dst[i] = asS(i);
        return;

      case Op::VLoad:
        for (std::uint32_t i = 0; i < n; ++i)
            if (active(instr, i))
                dst[i] = mem.load32(instr.addr + Addr(i) * 4);
        return;
      case Op::VLoadStrided:
        for (std::uint32_t i = 0; i < n; ++i)
            if (active(instr, i))
                dst[i] = mem.load32(instr.addr +
                                    Addr(std::int64_t(i) * instr.stride));
        return;
      case Op::VLoadIndexed:
        if (!instr.indices)
            panic("VecMachine: indexed load without indices");
        for (std::uint32_t i = 0; i < n; ++i)
            if (active(instr, i))
                dst[i] = mem.load32(instr.addr + instr.indices[i]);
        return;
      case Op::VStore:
        for (std::uint32_t i = 0; i < n; ++i)
            if (active(instr, i))
                mem.store32(instr.addr + Addr(i) * 4, s1[i]);
        return;
      case Op::VStoreStrided:
        for (std::uint32_t i = 0; i < n; ++i)
            if (active(instr, i))
                mem.store32(instr.addr + Addr(std::int64_t(i) * instr.stride),
                            s1[i]);
        return;
      case Op::VStoreIndexed:
        if (!instr.indices)
            panic("VecMachine: indexed store without indices");
        for (std::uint32_t i = 0; i < n; ++i)
            if (active(instr, i))
                mem.store32(instr.addr + instr.indices[i], s1[i]);
        return;

      case Op::VSlide1Up: {
        // Process downward so in-place src==dst behaves like hardware.
        for (std::uint32_t i = n; i-- > 1;)
            if (active(instr, i))
                dst[i] = s1[i - 1];
        if (active(instr, 0))
            dst[0] = sx;
        return;
      }
      case Op::VSlide1Down: {
        for (std::uint32_t i = 0; i + 1 < n; ++i)
            if (active(instr, i))
                dst[i] = s1[i + 1];
        if (n > 0 && active(instr, n - 1))
            dst[n - 1] = sx;
        return;
      }
      case Op::VSlideUp: {
        const std::uint32_t off = std::uint32_t(instr.imm);
        for (std::uint32_t i = n; i-- > 0;) {
            if (i < off)
                break;
            if (active(instr, i))
                dst[i] = s1[i - off];
        }
        return;
      }
      case Op::VSlideDown: {
        const std::uint32_t off = std::uint32_t(instr.imm);
        for (std::uint32_t i = 0; i < n; ++i)
            if (active(instr, i))
                dst[i] = (i + off < n) ? s1[i + off] : 0;
        return;
      }
      case Op::VRgather: {
        std::vector<std::int32_t> tmp(n);
        for (std::uint32_t i = 0; i < n; ++i) {
            std::uint32_t sel = instr.usesScalar ? asU(sx) : asU(s2[i]);
            tmp[i] = (sel < n) ? s1[sel] : 0;
        }
        for (std::uint32_t i = 0; i < n; ++i)
            if (active(instr, i))
                dst[i] = tmp[i];
        return;
      }

      case Op::VIota: {
        // Prefix count of set bits in src1's mask (exclusive scan),
        // written to active destination elements.
        std::int32_t running = 0;
        for (std::uint32_t i = 0; i < n; ++i) {
            if (active(instr, i))
                dst[i] = running;
            if (s1[i] & 1)
                ++running;
        }
        return;
      }

      case Op::VPopc: {
        std::int32_t count = 0;
        for (std::uint32_t i = 0; i < n; ++i)
            if (active(instr, i) && (s1[i] & 1))
                ++count;
        dst[0] = count;
        return;
      }

      case Op::VFirst: {
        std::int32_t first = -1;
        for (std::uint32_t i = 0; i < n; ++i)
            if (active(instr, i) && (s1[i] & 1)) {
                first = asS(i);
                break;
            }
        dst[0] = first;
        return;
      }

      case Op::VRedSum:
      case Op::VRedMin:
      case Op::VRedMax: {
        std::int32_t acc = s2[0];
        for (std::uint32_t i = 0; i < n; ++i) {
            if (!active(instr, i))
                continue;
            switch (instr.op) {
              case Op::VRedSum:
                acc = asS(asU(acc) + asU(s1[i]));
                break;
              case Op::VRedMin:
                acc = std::min(acc, s1[i]);
                break;
              default:
                acc = std::max(acc, s1[i]);
                break;
            }
        }
        dst[0] = acc;
        return;
      }

      default:
        break;
    }

    // Element-wise binary forms.
    for (std::uint32_t i = 0; i < n; ++i) {
        if (!active(instr, i))
            continue;
        const std::int32_t a = s1[i];
        const std::int32_t b = rhs(i);
        std::int32_t r;
        switch (instr.op) {
          case Op::VAdd:   r = asS(asU(a) + asU(b)); break;
          case Op::VSub:   r = asS(asU(a) - asU(b)); break;
          case Op::VRsub:  r = asS(asU(b) - asU(a)); break;
          case Op::VAnd:   r = a & b; break;
          case Op::VOr:    r = a | b; break;
          case Op::VXor:   r = a ^ b; break;
          case Op::VSll:   r = asS(asU(a) << (asU(b) & 31)); break;
          case Op::VSrl:   r = asS(asU(a) >> (asU(b) & 31)); break;
          case Op::VSra:   r = a >> (asU(b) & 31); break;
          case Op::VMin:   r = std::min(a, b); break;
          case Op::VMax:   r = std::max(a, b); break;
          case Op::VMinu:  r = asS(std::min(asU(a), asU(b))); break;
          case Op::VMaxu:  r = asS(std::max(asU(a), asU(b))); break;
          case Op::VMul:   r = asS(asU(a) * asU(b)); break;
          case Op::VMulh:
            r = asS(std::uint32_t(
                (std::int64_t(a) * std::int64_t(b)) >> 32));
            break;
          case Op::VMacc:  r = asS(asU(dst[i]) + asU(a) * asU(b)); break;
          case Op::VDiv:   r = divide(a, b); break;
          case Op::VDivu:
            r = asS(asU(b) == 0 ? 0xffffffffu : asU(a) / asU(b));
            break;
          case Op::VRem:   r = remainder(a, b); break;
          case Op::VRemu:  r = asS(asU(b) == 0 ? asU(a) : asU(a) % asU(b));
            break;
          case Op::VMseq:  r = (a == b); break;
          case Op::VMsne:  r = (a != b); break;
          case Op::VMslt:  r = (a < b); break;
          case Op::VMsle:  r = (a <= b); break;
          case Op::VMsgt:  r = (a > b); break;
          case Op::VMand:  r = (a & b) & 1; break;
          case Op::VMor:   r = (a | b) & 1; break;
          case Op::VMxor:  r = (a ^ b) & 1; break;
          case Op::VMandn: r = (a & ~b) & 1; break;
          case Op::VMerge:
            // vmerge.vvm: dst = v0.mask[i] ? src1 : src2 (always uses
            // v0 as the selector; the masked flag is implied).
            r = (vregs[0][i] & 1) ? a : b;
            break;
          default:
            panic("VecMachine: unhandled opcode %s",
                  std::string(opName(instr.op)).c_str());
        }
        dst[i] = r;
    }
}

} // namespace eve::test

#endif // EVE_TESTS_REF_VEC_MACHINE_HH
