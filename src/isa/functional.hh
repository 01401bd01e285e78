/**
 * @file
 * Reference functional semantics for the vector ISA.
 *
 * VecMachine executes the vector instruction stream with plain C++
 * semantics against a flat byte memory. It is the golden model the
 * bit-accurate EVE SRAM executor is cross-checked against, and it is
 * also what the workload self-checks run on.
 */

#ifndef EVE_ISA_FUNCTIONAL_HH
#define EVE_ISA_FUNCTIONAL_HH

#include <cstdint>
#include <vector>

#include "isa/instr.hh"

namespace eve
{

/** Flat little-endian byte memory with bounds checking. */
class ByteMem
{
  public:
    explicit ByteMem(std::size_t size_bytes = 0) : bytes(size_bytes) {}

    void resize(std::size_t size_bytes) { bytes.resize(size_bytes); }

    std::size_t size() const { return bytes.size(); }

    std::int32_t load32(Addr addr) const;
    void store32(Addr addr, std::int32_t value);

    /** Typed view helpers for workload setup. */
    std::int32_t* wordPtr(Addr addr);
    const std::int32_t* wordPtr(Addr addr) const;

    /** Whole-image access (checkpoint serialization). */
    std::vector<std::uint8_t>& data() { return bytes; }
    const std::vector<std::uint8_t>& data() const { return bytes; }

  private:
    void check(Addr addr) const;

    std::vector<std::uint8_t> bytes;
};

/** Snapshot of a VecMachine's architectural state (checkpoints). */
struct VecMachineState
{
    std::uint32_t vlmax = 0;
    std::uint32_t vl = 0;
    std::int32_t scalarResult = 0;
    std::vector<std::vector<std::int32_t>> vregs;
};

/**
 * Functional vector machine: 32 vector registers of 32-bit elements.
 *
 * Mask semantics follow RVV with v0 as the mask register: element i is
 * active iff bit 0 of v0[i] is set. Compares write 0/1 per element.
 * Reductions write their result into element 0 of the destination,
 * seeded with element 0 of src2.
 *
 * consume() decodes each instruction once and runs one loop per
 * opcode over raw element arrays; unit-stride and strided accesses
 * check their first and last element once instead of every element.
 * Its semantics are pinned, instruction by instruction, to a
 * per-element reference interpreter in the tests.
 */
class VecMachine : public InstrSink
{
  public:
    /**
     * @param mem     memory the machine loads from / stores to
     * @param vlmax   hardware vector length (register capacity)
     */
    VecMachine(ByteMem& mem, std::uint32_t vlmax);

    void consume(const Instr& instr) override;

    /** Read element @p idx of vector register @p reg. */
    std::int32_t elem(unsigned reg, std::uint32_t idx) const;

    /** Write element @p idx of vector register @p reg (tests only). */
    void setElem(unsigned reg, std::uint32_t idx, std::int32_t value);

    std::uint32_t vlmax() const { return hwVl; }

    /** Granted vl of the last VSetVl. */
    std::uint32_t currentVl() const { return vl; }

    /** Value captured by the last VMvXS. */
    std::int32_t lastScalarResult() const { return scalarResult; }

    /** Snapshot the architectural state (checkpoint capture). */
    VecMachineState saveState() const;

    /**
     * Install a snapshot; panics on a vlmax or register-shape
     * mismatch (a checkpoint from a differently-configured machine).
     */
    void restoreState(const VecMachineState& state);

  private:
    ByteMem& mem;
    std::uint32_t hwVl;
    std::uint32_t vl = 0;
    std::int32_t scalarResult = 0;
    std::vector<std::vector<std::int32_t>> vregs;
    std::vector<std::int32_t> gathered; ///< vrgather's staging buffer
};

} // namespace eve

#endif // EVE_ISA_FUNCTIONAL_HH
