/**
 * @file
 * Retained vector programs, a builder API, the Table IV
 * characterizer, and a disassembler.
 *
 * Workload generators usually stream instructions straight into
 * sinks, but tests and examples want a small retained program they
 * can build once and replay against several machines; Program
 * provides that, owning any index buffers referenced by its
 * instructions.
 */

#ifndef EVE_ISA_PROGRAM_HH
#define EVE_ISA_PROGRAM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "isa/instr.hh"

namespace eve
{

/**
 * A retained sequence of instructions with owned index storage.
 *
 * The builder methods cover the opcode forms used throughout the
 * test-suite and the examples; anything can also be appended as a raw
 * Instr via push().
 */
class Program
{
  public:
    /** Append a raw instruction record. */
    void push(const Instr& instr) { instrs.push_back(instr); }

    /** vsetvl: request @p requested elements. */
    void setVl(std::uint32_t requested);

    /** Vector-vector binary op: dst = op(src1, src2). */
    void vv(Op op, unsigned dst, unsigned src1, unsigned src2,
            std::uint32_t vl, bool masked = false);

    /** Vector-scalar binary op: dst = op(src1, scalar). */
    void vx(Op op, unsigned dst, unsigned src1, std::int64_t scalar,
            std::uint32_t vl, bool masked = false);

    /** Unit-stride load into @p dst from @p addr. */
    void load(unsigned dst, Addr addr, std::uint32_t vl,
              bool masked = false);

    /** Unit-stride store of @p src to @p addr. */
    void store(unsigned src, Addr addr, std::uint32_t vl,
               bool masked = false);

    /** Constant-stride load. */
    void loadStrided(unsigned dst, Addr addr, std::int64_t stride,
                     std::uint32_t vl, bool masked = false);

    /** Indexed (gather) load; @p offsets are byte offsets from addr. */
    void loadIndexed(unsigned dst, Addr addr,
                     std::vector<std::uint32_t> offsets,
                     bool masked = false);

    /** Indexed (scatter) store. */
    void storeIndexed(unsigned src, Addr addr,
                      std::vector<std::uint32_t> offsets,
                      bool masked = false);

    /** Replay the program into a sink. */
    void replay(InstrSink& sink) const;

    const std::vector<Instr>& instructions() const { return instrs; }

    std::size_t size() const { return instrs.size(); }

  private:
    std::vector<Instr> instrs;
    // Owned storage backing Instr::indices pointers. deque-like
    // stability is required, hence unique_ptr per buffer.
    std::vector<std::unique_ptr<std::vector<std::uint32_t>>> indexBufs;
};

/**
 * Instruction-mix characterizer producing the Table IV columns.
 *
 * Counts dynamic instructions, vector-instruction fraction, the
 * per-category mix of the *vector* instructions, total operations
 * (scalar instructions + vector instructions x active vl), and
 * arithmetic intensity of the vector unit.
 */
class Characterizer : public InstrSink
{
  public:
    void consume(const Instr& instr) override;

    std::uint64_t dynInstrs = 0;     ///< all dynamic instructions
    std::uint64_t vecInstrs = 0;     ///< vector instructions
    std::uint64_t predInstrs = 0;    ///< masked vector instructions

    std::uint64_t ctrl = 0;   ///< vector control instructions
    std::uint64_t ialu = 0;   ///< vector integer alu
    std::uint64_t imul = 0;   ///< vector integer mul/div
    std::uint64_t xe = 0;     ///< cross-element + reductions
    std::uint64_t us = 0;     ///< unit-stride memory
    std::uint64_t st = 0;     ///< strided memory
    std::uint64_t idx = 0;    ///< indexed memory

    std::uint64_t totalOps = 0;   ///< scalar instrs + vec instrs * vl
    std::uint64_t vecOps = 0;     ///< vec instrs * vl
    std::uint64_t vecMathOps = 0; ///< arithmetic element operations
    std::uint64_t vecMemOps = 0;  ///< memory element operations

    /** Percentage of dynamic instructions that are vector. */
    double vecInstrPct() const;

    /** Percentage of operations performed by the vector unit. */
    double vecOpPct() const;

    /** Logical parallelism: total ops / dynamic instructions. */
    double logicalParallelism() const;

    /** Arithmetic intensity: math element ops / memory element ops. */
    double arithIntensity() const;
};

/** Render one instruction as assembly-like text. */
std::string disassemble(const Instr& instr);

} // namespace eve

#endif // EVE_ISA_PROGRAM_HH
