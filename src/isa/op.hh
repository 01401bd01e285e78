/**
 * @file
 * Opcodes of the simulated instruction stream.
 *
 * The trace format carries both scalar bookkeeping instructions and
 * vector instructions from a next-generation vector ISA modelled on
 * the 32-bit integer subset of RISC-V RVV. Every opcode is classified
 * into one of the OpClass categories, which drive both the timing
 * models and the Table IV instruction-mix characterization.
 */

#ifndef EVE_ISA_OP_HH
#define EVE_ISA_OP_HH

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string_view>

namespace eve
{

/** All opcodes understood by the timing and functional models. */
enum class Op : std::uint8_t
{
    // Scalar trace instructions.
    SAlu,       ///< scalar integer ALU (address arithmetic, compares)
    SMul,       ///< scalar integer multiply/divide
    SLoad,      ///< scalar load
    SStore,     ///< scalar store
    SBranch,    ///< scalar conditional branch (loop back-edges)

    // Vector configuration / control.
    VSetVl,     ///< set vector length (returns granted vl)
    VMfence,    ///< vector memory fence (scalar-vector ordering)
    VMvXS,      ///< move element 0 to the scalar core (writeback)

    // Vector integer ALU.
    VAdd, VSub, VRsub,
    VAnd, VOr, VXor,
    VSll, VSrl, VSra,
    VMin, VMax, VMinu, VMaxu,

    // Vector integer multiply / divide.
    VMul, VMulh, VMacc,
    VDiv, VDivu, VRem, VRemu,

    // Vector compares (write a 0/1 mask into the destination).
    VMseq, VMsne, VMslt, VMsle, VMsgt,

    // Mask-register logical operations.
    VMand, VMor, VMxor, VMandn,

    // Predicated select.
    VMerge,

    // Cross-element operations.
    VMvVX,      ///< broadcast a scalar into all elements
    VId,        ///< write element indices 0..vl-1
    VIota,      ///< prefix count of set mask bits (viota.m)
    VSlide1Up, VSlide1Down,
    VSlideUp, VSlideDown,
    VRgather,

    // Reductions.
    VRedSum, VRedMin, VRedMax,
    VPopc,      ///< population count of a mask (vpopc.m)
    VFirst,     ///< index of the first set mask bit, -1 if none

    // Vector memory.
    VLoad,          ///< unit-stride load
    VLoadStrided,   ///< constant-stride load
    VLoadIndexed,   ///< indexed (gather) load
    VStore,         ///< unit-stride store
    VStoreStrided,  ///< constant-stride store
    VStoreIndexed,  ///< indexed (scatter) store

    NumOps
};

/** Coarse classification used by timing models and characterization. */
enum class OpClass : std::uint8_t
{
    ScalarAlu,
    ScalarMul,
    ScalarLoad,
    ScalarStore,
    ScalarBranch,
    VecCtrl,        ///< vsetvl, vmfence, vmv.x.s
    VecAlu,         ///< integer alu, compares, mask logic, merges
    VecMul,         ///< multiply / divide / macc (iterative in EVE)
    VecXe,          ///< cross-element: slides, gathers, broadcasts
    VecRed,         ///< reductions (handled by the VRU)
    VecMemUnit,     ///< unit-stride loads/stores
    VecMemStride,   ///< constant-stride loads/stores
    VecMemIndex,    ///< indexed loads/stores
};

namespace detail
{

/** Each opcode's class, indexed by Op. */
inline constexpr OpClass kOpClass[] = {
    // SAlu, SMul, SLoad, SStore, SBranch
    OpClass::ScalarAlu, OpClass::ScalarMul, OpClass::ScalarLoad,
    OpClass::ScalarStore, OpClass::ScalarBranch,
    // VSetVl, VMfence, VMvXS
    OpClass::VecCtrl, OpClass::VecCtrl, OpClass::VecCtrl,
    // VAdd .. VMaxu
    OpClass::VecAlu, OpClass::VecAlu, OpClass::VecAlu,
    OpClass::VecAlu, OpClass::VecAlu, OpClass::VecAlu,
    OpClass::VecAlu, OpClass::VecAlu, OpClass::VecAlu,
    OpClass::VecAlu, OpClass::VecAlu, OpClass::VecAlu, OpClass::VecAlu,
    // VMul .. VRemu
    OpClass::VecMul, OpClass::VecMul, OpClass::VecMul,
    OpClass::VecMul, OpClass::VecMul, OpClass::VecMul, OpClass::VecMul,
    // VMseq .. VMsgt, VMand .. VMandn, VMerge
    OpClass::VecAlu, OpClass::VecAlu, OpClass::VecAlu, OpClass::VecAlu,
    OpClass::VecAlu,
    OpClass::VecAlu, OpClass::VecAlu, OpClass::VecAlu, OpClass::VecAlu,
    OpClass::VecAlu,
    // VMvVX, VId, VIota, VSlide1Up, VSlide1Down, VSlideUp, VSlideDown,
    // VRgather
    OpClass::VecXe, OpClass::VecXe, OpClass::VecXe, OpClass::VecXe,
    OpClass::VecXe, OpClass::VecXe, OpClass::VecXe, OpClass::VecXe,
    // VRedSum, VRedMin, VRedMax, VPopc, VFirst
    OpClass::VecRed, OpClass::VecRed, OpClass::VecRed, OpClass::VecRed,
    OpClass::VecRed,
    // VLoad, VLoadStrided, VLoadIndexed, VStore, VStoreStrided,
    // VStoreIndexed
    OpClass::VecMemUnit, OpClass::VecMemStride, OpClass::VecMemIndex,
    OpClass::VecMemUnit, OpClass::VecMemStride, OpClass::VecMemIndex,
};
static_assert(std::size(kOpClass) == std::size_t(Op::NumOps),
              "kOpClass needs exactly one entry per opcode");

constexpr std::uint32_t
classBit(OpClass c)
{
    return std::uint32_t{1} << unsigned(c);
}

/** The classes of vector instructions. */
inline constexpr std::uint32_t kVectorClasses =
    classBit(OpClass::VecCtrl) | classBit(OpClass::VecAlu) |
    classBit(OpClass::VecMul) | classBit(OpClass::VecXe) |
    classBit(OpClass::VecRed) | classBit(OpClass::VecMemUnit) |
    classBit(OpClass::VecMemStride) | classBit(OpClass::VecMemIndex);

/** The classes that read or write memory. */
inline constexpr std::uint32_t kMemClasses =
    classBit(OpClass::ScalarLoad) | classBit(OpClass::ScalarStore) |
    classBit(OpClass::VecMemUnit) | classBit(OpClass::VecMemStride) |
    classBit(OpClass::VecMemIndex);

/** Panics: @p op is not a valid opcode. */
[[noreturn]] void unknownOpcode(Op op);

} // namespace detail

/** Classify an opcode; panics on a value outside Op. */
inline OpClass
opClass(Op op)
{
    if (std::size_t(op) >= std::size(detail::kOpClass)) [[unlikely]]
        detail::unknownOpcode(op);
    return detail::kOpClass[std::size_t(op)];
}

/** True iff the opcode is a vector instruction. */
inline bool
isVectorOp(Op op)
{
    return (detail::kVectorClasses & detail::classBit(opClass(op))) != 0;
}

/** True iff the opcode reads or writes memory. */
inline bool
isMemOp(Op op)
{
    return (detail::kMemClasses & detail::classBit(opClass(op))) != 0;
}

/** True iff the opcode is a vector load (any addressing mode). */
inline bool
isVecLoad(Op op)
{
    return op == Op::VLoad || op == Op::VLoadStrided ||
           op == Op::VLoadIndexed;
}

/** True iff the opcode is a vector store (any addressing mode). */
inline bool
isVecStore(Op op)
{
    return op == Op::VStore || op == Op::VStoreStrided ||
           op == Op::VStoreIndexed;
}

/** Human-readable mnemonic. */
std::string_view opName(Op op);

} // namespace eve

#endif // EVE_ISA_OP_HH
