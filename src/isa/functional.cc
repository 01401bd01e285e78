#include "isa/functional.hh"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/log.hh"

namespace eve
{

std::int32_t
ByteMem::load32(Addr addr) const
{
    check(addr);
    std::int32_t v;
    std::memcpy(&v, bytes.data() + addr, 4);
    return v;
}

void
ByteMem::store32(Addr addr, std::int32_t value)
{
    check(addr);
    std::memcpy(bytes.data() + addr, &value, 4);
}

std::int32_t*
ByteMem::wordPtr(Addr addr)
{
    check(addr);
    return reinterpret_cast<std::int32_t*>(bytes.data() + addr);
}

const std::int32_t*
ByteMem::wordPtr(Addr addr) const
{
    check(addr);
    return reinterpret_cast<const std::int32_t*>(bytes.data() + addr);
}

void
ByteMem::check(Addr addr) const
{
    if (addr + 4 > bytes.size())
        panic("ByteMem: access at 0x%llx beyond size 0x%llx",
              (unsigned long long)addr, (unsigned long long)bytes.size());
}

VecMachine::VecMachine(ByteMem& mem, std::uint32_t vlmax)
    : mem(mem), hwVl(vlmax),
      vregs(32, std::vector<std::int32_t>(vlmax, 0)), gathered(vlmax)
{
}

std::int32_t
VecMachine::elem(unsigned reg, std::uint32_t idx) const
{
    if (reg >= 32 || idx >= hwVl)
        panic("VecMachine::elem: v%u[%u] out of range", reg, idx);
    return vregs[reg][idx];
}

void
VecMachine::setElem(unsigned reg, std::uint32_t idx, std::int32_t value)
{
    if (reg >= 32 || idx >= hwVl)
        panic("VecMachine::setElem: v%u[%u] out of range", reg, idx);
    vregs[reg][idx] = value;
}

VecMachineState
VecMachine::saveState() const
{
    VecMachineState state;
    state.vlmax = hwVl;
    state.vl = vl;
    state.scalarResult = scalarResult;
    state.vregs = vregs;
    return state;
}

void
VecMachine::restoreState(const VecMachineState& state)
{
    if (state.vlmax != hwVl || state.vregs.size() != vregs.size())
        panic("VecMachine::restoreState: snapshot shape (vlmax %u, "
              "%zu regs) does not match machine (vlmax %u, %zu regs)",
              state.vlmax, state.vregs.size(), hwVl, vregs.size());
    for (const auto& reg : state.vregs)
        if (reg.size() != hwVl)
            panic("VecMachine::restoreState: register width %zu != "
                  "vlmax %u",
                  reg.size(), hwVl);
    vl = state.vl;
    scalarResult = state.scalarResult;
    vregs = state.vregs;
}

namespace
{

std::int32_t
divide(std::int32_t a, std::int32_t b)
{
    if (b == 0)
        return -1;
    if (a == std::numeric_limits<std::int32_t>::min() && b == -1)
        return a;
    return a / b;
}

std::int32_t
remainder(std::int32_t a, std::int32_t b)
{
    if (b == 0)
        return a;
    if (a == std::numeric_limits<std::int32_t>::min() && b == -1)
        return 0;
    return a % b;
}

std::uint32_t
asU(std::int32_t v)
{
    return static_cast<std::uint32_t>(v);
}

std::int32_t
asS(std::uint32_t v)
{
    return static_cast<std::int32_t>(v);
}

/** @p a where bit 0 of @p mask is set, else @p b; no branch. */
std::int32_t
maskSelect(std::int32_t mask, std::int32_t a, std::int32_t b)
{
    const std::int32_t take = -(mask & 1);
    return (a & take) | (b & ~take);
}

/** One decoded instruction: raw operand arrays and its flags. */
struct Operands
{
    std::int32_t* d;
    const std::int32_t* a; ///< src1
    const std::int32_t* b; ///< src2
    const std::int32_t* m; ///< v0, the mask
    std::int32_t x;        ///< the .vx scalar
    std::uint32_t n;
    bool masked;
    bool scalar;

    bool on(std::uint32_t i) const { return !masked || (m[i] & 1); }
};

/*
 * The loops below copy their operands into locals first, so the
 * compiler knows a store to an element cannot move the bound or an
 * operand. Every loop reads v0[i] before it writes element i, so a
 * destination that is v0 itself sees the mask as it was, as RVV
 * requires. Masked element-wise loops use maskSelect() rather than
 * branch on the mask, writing inactive elements back unchanged, so
 * they vectorize and do not mispredict; every operation is defined
 * for every input, so computing an inactive element's result is
 * harmless.
 */

template <bool Masked, bool Scalar, typename F>
void
binaryLoop(const Operands& o, F f)
{
    std::int32_t* const d = o.d;
    const std::int32_t* const a = o.a;
    const std::int32_t* const b = o.b;
    const std::int32_t* const m = o.m;
    const std::int32_t x = o.x;
    const std::uint32_t n = o.n;
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::int32_t r = f(a[i], Scalar ? x : b[i], d[i]);
        d[i] = Masked ? maskSelect(m[i], r, d[i]) : r;
    }
}

/** d[i] = f(src1[i], src2[i] or x, d[i]) on active elements. */
template <typename F>
void
binary(const Operands& o, F f)
{
    if (o.masked) {
        if (o.scalar)
            binaryLoop<true, true>(o, f);
        else
            binaryLoop<true, false>(o, f);
    } else {
        if (o.scalar)
            binaryLoop<false, true>(o, f);
        else
            binaryLoop<false, false>(o, f);
    }
}

template <bool Masked, typename F>
void
fillLoop(const Operands& o, F f)
{
    std::int32_t* const d = o.d;
    const std::int32_t* const m = o.m;
    const std::uint32_t n = o.n;
    for (std::uint32_t i = 0; i < n; ++i)
        d[i] = Masked ? maskSelect(m[i], f(i), d[i]) : f(i);
}

/** d[i] = f(i) on active elements. */
template <typename F>
void
fill(const Operands& o, F f)
{
    if (o.masked)
        fillLoop<true>(o, f);
    else
        fillLoop<false>(o, f);
}

/** vmerge: v0 always selects, whatever the masked flag says. */
template <bool Scalar>
void
mergeLoop(const Operands& o)
{
    std::int32_t* const d = o.d;
    const std::int32_t* const a = o.a;
    const std::int32_t* const b = o.b;
    const std::int32_t* const m = o.m;
    const std::int32_t x = o.x;
    const std::uint32_t n = o.n;
    for (std::uint32_t i = 0; i < n; ++i)
        d[i] = maskSelect(m[i], a[i], Scalar ? x : b[i]);
}

/**
 * Fold f over the active src1 elements. An inactive element
 * contributes @p identity, which f must leave the accumulator
 * unchanged by.
 */
template <bool Masked, typename F>
std::int32_t
reduceLoop(const Operands& o, std::int32_t acc, std::int32_t identity,
           F f)
{
    const std::int32_t* const a = o.a;
    const std::int32_t* const m = o.m;
    const std::uint32_t n = o.n;
    for (std::uint32_t i = 0; i < n; ++i)
        acc = f(acc, Masked ? maskSelect(m[i], a[i], identity) : a[i]);
    return acc;
}

/** d[0] = f folded over active src1 elements, seeded by src2[0]. */
template <typename F>
void
reduce(const Operands& o, std::int32_t identity, F f)
{
    const std::int32_t seed = o.b[0];
    o.d[0] = o.masked ? reduceLoop<true>(o, seed, identity, f)
                      : reduceLoop<false>(o, seed, identity, f);
}

/**
 * True iff all @p n >= 1 words at @p addr + i * @p stride lie inside
 * a memory of @p size bytes. They do iff the first and the last do,
 * computed without wrapping; anything else takes the per-element
 * checked path, which panics exactly where the first active element
 * falls out of range.
 */
bool
wordsInRange(Addr addr, std::int64_t stride, std::uint32_t n,
             std::size_t size)
{
    if (size < 4 || addr > size - 4)
        return false;
    const std::uint64_t mag = stride < 0 ? 0 - std::uint64_t(stride)
                                         : std::uint64_t(stride);
    std::uint64_t span;
    if (__builtin_mul_overflow(mag, std::uint64_t(n - 1), &span))
        return false;
    return stride < 0 ? span <= addr : span <= size - 4 - addr;
}

template <bool Masked>
void
loadStridedLoop(const Operands& o, const std::uint8_t* base, Addr addr,
                std::int64_t stride)
{
    std::int32_t* const d = o.d;
    const std::int32_t* const m = o.m;
    const std::uint32_t n = o.n;
    for (std::uint32_t i = 0; i < n; ++i, addr += Addr(stride))
        if (!Masked || (m[i] & 1))
            std::memcpy(&d[i], base + addr, 4);
}

template <bool Masked>
void
storeStridedLoop(const Operands& o, std::uint8_t* base, Addr addr,
                 std::int64_t stride)
{
    const std::int32_t* const a = o.a;
    const std::int32_t* const m = o.m;
    const std::uint32_t n = o.n;
    for (std::uint32_t i = 0; i < n; ++i, addr += Addr(stride))
        if (!Masked || (m[i] & 1))
            std::memcpy(base + addr, &a[i], 4);
}

/** Unit-stride (@p stride 4) or strided load into d. */
void
loadStrided(const Operands& o, ByteMem& mem, Addr addr,
            std::int64_t stride)
{
    if (o.n == 0)
        return;
    if (!wordsInRange(addr, stride, o.n, mem.size())) {
        for (std::uint32_t i = 0; i < o.n; ++i)
            if (o.on(i))
                o.d[i] = mem.load32(addr + Addr(std::int64_t(i) * stride));
        return;
    }
    const std::uint8_t* base = mem.data().data();
    if (o.masked)
        loadStridedLoop<true>(o, base, addr, stride);
    else if (stride == 4)
        std::memcpy(o.d, base + addr, std::size_t(o.n) * 4);
    else
        loadStridedLoop<false>(o, base, addr, stride);
}

/** Unit-stride (@p stride 4) or strided store of src1; in order. */
void
storeStrided(const Operands& o, ByteMem& mem, Addr addr,
             std::int64_t stride)
{
    if (o.n == 0)
        return;
    if (!wordsInRange(addr, stride, o.n, mem.size())) {
        for (std::uint32_t i = 0; i < o.n; ++i)
            if (o.on(i))
                mem.store32(addr + Addr(std::int64_t(i) * stride), o.a[i]);
        return;
    }
    std::uint8_t* base = mem.data().data();
    if (o.masked)
        storeStridedLoop<true>(o, base, addr, stride);
    else if (stride == 4)
        std::memcpy(base + addr, o.a, std::size_t(o.n) * 4);
    else
        storeStridedLoop<false>(o, base, addr, stride);
}

template <bool Masked>
void
loadIndexedLoop(const Operands& o, const ByteMem& mem, Addr addr,
                const std::uint32_t* idx)
{
    std::int32_t* const d = o.d;
    const std::int32_t* const m = o.m;
    const std::uint32_t n = o.n;
    for (std::uint32_t i = 0; i < n; ++i)
        if (!Masked || (m[i] & 1))
            d[i] = mem.load32(addr + idx[i]);
}

template <bool Masked>
void
storeIndexedLoop(const Operands& o, ByteMem& mem, Addr addr,
                 const std::uint32_t* idx)
{
    const std::int32_t* const a = o.a;
    const std::int32_t* const m = o.m;
    const std::uint32_t n = o.n;
    for (std::uint32_t i = 0; i < n; ++i)
        if (!Masked || (m[i] & 1))
            mem.store32(addr + idx[i], a[i]);
}

/** The element-wise binary forms: one loop per opcode. */
void
elementwise(const Operands& o, Op op)
{
    using I = std::int32_t;
    switch (op) {
      case Op::VAdd:
        return binary(o, [](I a, I b, I) { return asS(asU(a) + asU(b)); });
      case Op::VSub:
        return binary(o, [](I a, I b, I) { return asS(asU(a) - asU(b)); });
      case Op::VRsub:
        return binary(o, [](I a, I b, I) { return asS(asU(b) - asU(a)); });
      case Op::VAnd:
        return binary(o, [](I a, I b, I) { return a & b; });
      case Op::VOr:
        return binary(o, [](I a, I b, I) { return a | b; });
      case Op::VXor:
        return binary(o, [](I a, I b, I) { return a ^ b; });
      case Op::VSll:
        return binary(o, [](I a, I b, I) {
            return asS(asU(a) << (asU(b) & 31));
        });
      case Op::VSrl:
        return binary(o, [](I a, I b, I) {
            return asS(asU(a) >> (asU(b) & 31));
        });
      case Op::VSra:
        return binary(o, [](I a, I b, I) { return a >> (asU(b) & 31); });
      case Op::VMin:
        return binary(o, [](I a, I b, I) { return std::min(a, b); });
      case Op::VMax:
        return binary(o, [](I a, I b, I) { return std::max(a, b); });
      case Op::VMinu:
        return binary(o, [](I a, I b, I) {
            return asS(std::min(asU(a), asU(b)));
        });
      case Op::VMaxu:
        return binary(o, [](I a, I b, I) {
            return asS(std::max(asU(a), asU(b)));
        });
      case Op::VMul:
        return binary(o, [](I a, I b, I) { return asS(asU(a) * asU(b)); });
      case Op::VMulh:
        return binary(o, [](I a, I b, I) {
            return asS(std::uint32_t(
                (std::int64_t(a) * std::int64_t(b)) >> 32));
        });
      case Op::VMacc:
        return binary(o, [](I a, I b, I acc) {
            return asS(asU(acc) + asU(a) * asU(b));
        });
      case Op::VDiv:
        return binary(o, [](I a, I b, I) { return divide(a, b); });
      case Op::VDivu:
        return binary(o, [](I a, I b, I) {
            return asS(asU(b) == 0 ? 0xffffffffu : asU(a) / asU(b));
        });
      case Op::VRem:
        return binary(o, [](I a, I b, I) { return remainder(a, b); });
      case Op::VRemu:
        return binary(o, [](I a, I b, I) {
            return asS(asU(b) == 0 ? asU(a) : asU(a) % asU(b));
        });
      case Op::VMseq:
        return binary(o, [](I a, I b, I) { return I(a == b); });
      case Op::VMsne:
        return binary(o, [](I a, I b, I) { return I(a != b); });
      case Op::VMslt:
        return binary(o, [](I a, I b, I) { return I(a < b); });
      case Op::VMsle:
        return binary(o, [](I a, I b, I) { return I(a <= b); });
      case Op::VMsgt:
        return binary(o, [](I a, I b, I) { return I(a > b); });
      case Op::VMand:
        return binary(o, [](I a, I b, I) { return (a & b) & 1; });
      case Op::VMor:
        return binary(o, [](I a, I b, I) { return (a | b) & 1; });
      case Op::VMxor:
        return binary(o, [](I a, I b, I) { return (a ^ b) & 1; });
      case Op::VMandn:
        return binary(o, [](I a, I b, I) { return (a & ~b) & 1; });
      default:
        panic("VecMachine: unhandled opcode %s",
              std::string(opName(op)).c_str());
    }
}

} // namespace

void
VecMachine::consume(const Instr& instr)
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

    const Operands o{vregs[instr.dst].data(),
                     vregs[instr.src1].data(),
                     vregs[instr.src2].data(),
                     vregs[0].data(),
                     static_cast<std::int32_t>(instr.imm),
                     n,
                     instr.masked,
                     instr.usesScalar};
    std::int32_t* const d = o.d;
    const std::int32_t* const a = o.a;

    switch (instr.op) {
      case Op::VSetVl:
        vl = std::min<std::uint32_t>(std::uint32_t(instr.imm), hwVl);
        return;
      case Op::VMfence:
        return;
      case Op::VMvXS:
        scalarResult = a[0];
        return;

      case Op::VMvVX:
        return fill(o, [x = o.x](std::uint32_t) { return x; });
      case Op::VId:
        return fill(o, [](std::uint32_t i) { return asS(i); });

      case Op::VLoad:
        return loadStrided(o, mem, instr.addr, 4);
      case Op::VLoadStrided:
        return loadStrided(o, mem, instr.addr, instr.stride);
      case Op::VLoadIndexed:
        if (!instr.indices)
            panic("VecMachine: indexed load without indices");
        if (o.masked)
            return loadIndexedLoop<true>(o, mem, instr.addr, instr.indices);
        return loadIndexedLoop<false>(o, mem, instr.addr, instr.indices);
      case Op::VStore:
        return storeStrided(o, mem, instr.addr, 4);
      case Op::VStoreStrided:
        return storeStrided(o, mem, instr.addr, instr.stride);
      case Op::VStoreIndexed:
        if (!instr.indices)
            panic("VecMachine: indexed store without indices");
        if (o.masked)
            return storeIndexedLoop<true>(o, mem, instr.addr, instr.indices);
        return storeIndexedLoop<false>(o, mem, instr.addr, instr.indices);

      case Op::VSlide1Up:
        // Downward, so an in-place src == dst reads each element
        // before overwriting it; unmasked, that is a memmove.
        if (!o.masked && n > 1)
            std::memmove(d + 1, a, std::size_t(n - 1) * 4);
        else
            for (std::uint32_t i = n; i-- > 1;)
                if (o.on(i))
                    d[i] = a[i - 1];
        if (o.on(0))
            d[0] = o.x;
        return;
      case Op::VSlide1Down:
        if (!o.masked && n > 1)
            std::memmove(d, a + 1, std::size_t(n - 1) * 4);
        else
            for (std::uint32_t i = 0; i + 1 < n; ++i)
                if (o.on(i))
                    d[i] = a[i + 1];
        if (n > 0 && o.on(n - 1))
            d[n - 1] = o.x;
        return;
      case Op::VSlideUp: {
        const std::uint32_t off = std::uint32_t(instr.imm);
        for (std::uint32_t i = n; i-- > 0 && i >= off;)
            if (o.on(i))
                d[i] = a[i - off];
        return;
      }
      case Op::VSlideDown: {
        // i + off wraps like the 32-bit index it is.
        const std::uint32_t off = std::uint32_t(instr.imm);
        for (std::uint32_t i = 0; i < n; ++i)
            if (o.on(i))
                d[i] = (i + off < n) ? a[i + off] : 0;
        return;
      }
      case Op::VRgather:
        // Read every source element before writing any.
        for (std::uint32_t i = 0; i < n; ++i) {
            const std::uint32_t sel = asU(o.scalar ? o.x : o.b[i]);
            gathered[i] = (sel < n) ? a[sel] : 0;
        }
        for (std::uint32_t i = 0; i < n; ++i)
            if (o.on(i))
                d[i] = gathered[i];
        return;

      case Op::VIota: {
        // Exclusive prefix count of src1's mask bits, written to
        // active elements; src1[i] is read after d[i] is written.
        std::int32_t running = 0;
        for (std::uint32_t i = 0; i < n; ++i) {
            if (o.on(i))
                d[i] = running;
            if (a[i] & 1)
                ++running;
        }
        return;
      }
      case Op::VPopc: {
        std::int32_t count = 0;
        for (std::uint32_t i = 0; i < n; ++i)
            if (o.on(i) && (a[i] & 1))
                ++count;
        d[0] = count;
        return;
      }
      case Op::VFirst: {
        std::int32_t first = -1;
        for (std::uint32_t i = 0; i < n; ++i)
            if (o.on(i) && (a[i] & 1)) {
                first = asS(i);
                break;
            }
        d[0] = first;
        return;
      }

      case Op::VRedSum:
        return reduce(o, 0, [](std::int32_t acc, std::int32_t v) {
            return asS(asU(acc) + asU(v));
        });
      case Op::VRedMin:
        return reduce(o, std::numeric_limits<std::int32_t>::max(),
                      [](std::int32_t acc, std::int32_t v) {
                          return std::min(acc, v);
                      });
      case Op::VRedMax:
        return reduce(o, std::numeric_limits<std::int32_t>::min(),
                      [](std::int32_t acc, std::int32_t v) {
                          return std::max(acc, v);
                      });

      case Op::VMerge:
        if (o.scalar)
            return mergeLoop<true>(o);
        return mergeLoop<false>(o);

      default:
        return elementwise(o, instr.op);
    }
}

} // namespace eve
