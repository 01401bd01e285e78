#include "isa/program.hh"

#include <sstream>

#include "common/log.hh"

namespace eve
{

void
Program::setVl(std::uint32_t requested)
{
    Instr i;
    i.op = Op::VSetVl;
    i.imm = requested;
    i.vl = requested;
    instrs.push_back(i);
}

void
Program::vv(Op op, unsigned dst, unsigned src1, unsigned src2,
            std::uint32_t vl, bool masked)
{
    Instr i;
    i.op = op;
    i.dst = std::uint8_t(dst);
    i.src1 = std::uint8_t(src1);
    i.src2 = std::uint8_t(src2);
    i.vl = vl;
    i.masked = masked;
    instrs.push_back(i);
}

void
Program::vx(Op op, unsigned dst, unsigned src1, std::int64_t scalar,
            std::uint32_t vl, bool masked)
{
    Instr i;
    i.op = op;
    i.dst = std::uint8_t(dst);
    i.src1 = std::uint8_t(src1);
    i.usesScalar = true;
    i.imm = scalar;
    i.vl = vl;
    i.masked = masked;
    instrs.push_back(i);
}

void
Program::load(unsigned dst, Addr addr, std::uint32_t vl, bool masked)
{
    Instr i;
    i.op = Op::VLoad;
    i.dst = std::uint8_t(dst);
    i.addr = addr;
    i.vl = vl;
    i.masked = masked;
    instrs.push_back(i);
}

void
Program::store(unsigned src, Addr addr, std::uint32_t vl, bool masked)
{
    Instr i;
    i.op = Op::VStore;
    i.src1 = std::uint8_t(src);
    i.addr = addr;
    i.vl = vl;
    i.masked = masked;
    instrs.push_back(i);
}

void
Program::loadStrided(unsigned dst, Addr addr, std::int64_t stride,
                     std::uint32_t vl, bool masked)
{
    Instr i;
    i.op = Op::VLoadStrided;
    i.dst = std::uint8_t(dst);
    i.addr = addr;
    i.stride = stride;
    i.vl = vl;
    i.masked = masked;
    instrs.push_back(i);
}

void
Program::loadIndexed(unsigned dst, Addr addr,
                     std::vector<std::uint32_t> offsets, bool masked)
{
    indexBufs.push_back(std::make_unique<std::vector<std::uint32_t>>(
        std::move(offsets)));
    Instr i;
    i.op = Op::VLoadIndexed;
    i.dst = std::uint8_t(dst);
    i.addr = addr;
    i.vl = std::uint32_t(indexBufs.back()->size());
    i.indices = indexBufs.back()->data();
    i.masked = masked;
    instrs.push_back(i);
}

void
Program::storeIndexed(unsigned src, Addr addr,
                      std::vector<std::uint32_t> offsets, bool masked)
{
    indexBufs.push_back(std::make_unique<std::vector<std::uint32_t>>(
        std::move(offsets)));
    Instr i;
    i.op = Op::VStoreIndexed;
    i.src1 = std::uint8_t(src);
    i.addr = addr;
    i.vl = std::uint32_t(indexBufs.back()->size());
    i.indices = indexBufs.back()->data();
    i.masked = masked;
    instrs.push_back(i);
}

void
Program::replay(InstrSink& sink) const
{
    for (const auto& i : instrs)
        sink.consume(i);
}

void
Characterizer::consume(const Instr& instr)
{
    ++dynInstrs;
    if (!isVectorOp(instr.op)) {
        ++totalOps;
        return;
    }

    ++vecInstrs;
    if (instr.masked)
        ++predInstrs;

    std::uint64_t elems = instr.vl;
    switch (opClass(instr.op)) {
      case OpClass::VecCtrl:
        ++ctrl;
        elems = 1;
        break;
      case OpClass::VecAlu:
        ++ialu;
        vecMathOps += elems;
        break;
      case OpClass::VecMul:
        ++imul;
        vecMathOps += elems;
        break;
      case OpClass::VecXe:
      case OpClass::VecRed:
        ++xe;
        vecMathOps += elems;
        break;
      case OpClass::VecMemUnit:
        ++us;
        vecMemOps += elems;
        break;
      case OpClass::VecMemStride:
        ++st;
        vecMemOps += elems;
        break;
      case OpClass::VecMemIndex:
        ++idx;
        vecMemOps += elems;
        break;
      default:
        panic("Characterizer: unexpected class for %s",
              std::string(opName(instr.op)).c_str());
    }

    totalOps += elems;
    vecOps += elems;
}

double
Characterizer::vecInstrPct() const
{
    return dynInstrs ? 100.0 * double(vecInstrs) / double(dynInstrs) : 0.0;
}

double
Characterizer::vecOpPct() const
{
    return totalOps ? 100.0 * double(vecOps) / double(totalOps) : 0.0;
}

double
Characterizer::logicalParallelism() const
{
    return dynInstrs ? double(totalOps) / double(dynInstrs) : 0.0;
}

double
Characterizer::arithIntensity() const
{
    return vecMemOps ? double(vecMathOps) / double(vecMemOps) : 0.0;
}

std::string
disassemble(const Instr& instr)
{
    std::ostringstream os;
    os << opName(instr.op);
    if (!isVectorOp(instr.op)) {
        if (isMemOp(instr.op))
            os << " 0x" << std::hex << instr.addr << std::dec;
        return os.str();
    }
    switch (opClass(instr.op)) {
      case OpClass::VecCtrl:
        if (instr.op == Op::VSetVl)
            os << " vl=" << instr.vl;
        else if (instr.op == Op::VMvXS)
            os << " x, v" << int(instr.src1);
        break;
      case OpClass::VecMemUnit:
      case OpClass::VecMemStride:
      case OpClass::VecMemIndex:
        os << (isVecLoad(instr.op) ? " v" : " v")
           << int(isVecLoad(instr.op) ? instr.dst : instr.src1)
           << ", 0x" << std::hex << instr.addr << std::dec;
        if (opClass(instr.op) == OpClass::VecMemStride)
            os << ", stride=" << instr.stride;
        os << ", vl=" << instr.vl;
        break;
      default:
        os << " v" << int(instr.dst) << ", v" << int(instr.src1);
        if (instr.usesScalar)
            os << ", x(" << instr.imm << ")";
        else
            os << ", v" << int(instr.src2);
        os << ", vl=" << instr.vl;
        break;
    }
    if (instr.masked)
        os << ", v0.t";
    return os.str();
}

} // namespace eve
