/**
 * @file
 * Failure-injection tests: the verification machinery must actually
 * detect wrong results, and invalid configurations must be rejected
 * loudly rather than mis-simulated. A checker that cannot fail is
 * not a checker.
 */

#include <gtest/gtest.h>

#include "analytic/circuits.hh"
#include "core/sram/eve_sram.hh"
#include "core/uprog/macro_lib.hh"
#include "cpu/io_core.hh"
#include "driver/system.hh"
#include "isa/functional.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "workloads/workload.hh"

namespace eve
{
namespace
{

TEST(FaultInjection, WorkloadVerifyDetectsCorruption)
{
    for (const char* name : {"vvadd", "mmult", "sw", "scan"}) {
        auto w = makeWorkload(name, true);
        w->init();
        VecMachine machine(w->memory(), 64);
        w->emitVector(machine, 64);
        ASSERT_EQ(w->verify(), 0u) << name;
        // Flip one output word: the checker must notice.
        // (Outputs live in the upper region of each workload's
        // memory; scanning from the end finds one quickly.)
        ByteMem& mem = w->memory();
        bool corrupted = false;
        for (Addr a = mem.size() - 64; a >= 4 && !corrupted; a -= 4) {
            const std::int32_t v = mem.load32(a);
            mem.store32(a, v ^ 0x5a5a5a5a);
            if (w->verify() > 0) {
                corrupted = true;
            } else {
                mem.store32(a, v);  // not an output word; restore
            }
        }
        EXPECT_TRUE(corrupted)
            << name << ": no output word affected verify()";
    }
}

TEST(FaultInjection, MacroProgramCorruptionIsCaught)
{
    // Drop the final micro-op of an add program: the result must
    // differ from the reference (the property suite would catch it).
    EveSramConfig cfg;
    cfg.lanes = 2;
    cfg.pf = 8;
    EveSram sram(cfg);
    MacroLib lib(cfg);
    // Values whose sum has bits in the top segment, so losing the
    // final segment writeback is visible.
    sram.writeElement(0, 2, 0xf0000001u);
    sram.writeElement(0, 3, 1u);
    Instr add;
    add.op = Op::VAdd;
    add.dst = 4;
    add.src1 = 2;
    add.src2 = 3;
    add.vl = 2;
    MacroProgram prog = lib.build(add).prog;
    prog.pop_back();  // lose the last segment's writeback
    sram.run(prog);
    EXPECT_NE(sram.readElement(0, 4), 0xf0000002u);
}

TEST(FaultInjection, BadConfigurationsDie)
{
    // Unsupported parallelization factor.
    EXPECT_DEATH(CircuitModel::cycleTimeNs(64), "unsupported");
    // Vector length beyond the hardware.
    EveSramConfig cfg;
    cfg.lanes = 2;
    cfg.pf = 8;
    EveSram sram(cfg);
    EXPECT_DEATH(sram.writeElement(5, 0, 1), "col");
    EXPECT_DEATH(sram.rowOf(60, 0), "out of range");
}

TEST(FaultInjection, CacheGeometryMustBePowersOfTwo)
{
    // Lookups split addresses with shifts and masks, so a line size
    // or bank count that is not a power of two must be refused, not
    // silently mis-indexed.
    Dram dram(DramParams{});
    CacheParams odd_line;
    odd_line.line_bytes = 48;
    EXPECT_DEATH((void)Cache(odd_line, &dram), "line size 48 bytes");
    CacheParams three_banks;
    three_banks.banks = 3;
    EXPECT_DEATH((void)Cache(three_banks, &dram), "bank count 3");
    CacheParams no_banks;
    no_banks.banks = 0;
    EXPECT_DEATH((void)Cache(no_banks, &dram), "bank count 0");
}

TEST(FaultInjection, VlBeyondHardwarePanics)
{
    SystemConfig cfg;
    cfg.kind = SystemKind::O3EVE;
    cfg.eve_pf = 32;  // hw vl = 256
    System sys(cfg);
    Instr instr;
    instr.op = Op::VAdd;
    instr.vl = 1024;
    EXPECT_DEATH(sys.timing().consume(instr), "exceeds hardware vl");
}

TEST(FaultInjection, ScalarOpInVectorEngineOnlyCoreDies)
{
    HierarchyParams hp;
    MemHierarchy mem(hp);
    IOCoreParams p;
    IOCore core(p, mem);
    Instr v;
    v.op = Op::VAdd;
    v.vl = 4;
    EXPECT_DEATH(core.consume(v), "vector instruction");
}

} // namespace
} // namespace eve
