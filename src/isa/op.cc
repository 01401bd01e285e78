#include "isa/op.hh"

#include "common/log.hh"

namespace eve
{

void
detail::unknownOpcode(Op op)
{
    panic("opClass: unknown opcode %d", int(op));
}

std::string_view
opName(Op op)
{
    switch (op) {
      case Op::SAlu: return "s.alu";
      case Op::SMul: return "s.mul";
      case Op::SLoad: return "s.load";
      case Op::SStore: return "s.store";
      case Op::SBranch: return "s.branch";
      case Op::VSetVl: return "vsetvl";
      case Op::VMfence: return "vmfence";
      case Op::VMvXS: return "vmv.x.s";
      case Op::VAdd: return "vadd";
      case Op::VSub: return "vsub";
      case Op::VRsub: return "vrsub";
      case Op::VAnd: return "vand";
      case Op::VOr: return "vor";
      case Op::VXor: return "vxor";
      case Op::VSll: return "vsll";
      case Op::VSrl: return "vsrl";
      case Op::VSra: return "vsra";
      case Op::VMin: return "vmin";
      case Op::VMax: return "vmax";
      case Op::VMinu: return "vminu";
      case Op::VMaxu: return "vmaxu";
      case Op::VMul: return "vmul";
      case Op::VMulh: return "vmulh";
      case Op::VMacc: return "vmacc";
      case Op::VDiv: return "vdiv";
      case Op::VDivu: return "vdivu";
      case Op::VRem: return "vrem";
      case Op::VRemu: return "vremu";
      case Op::VMseq: return "vmseq";
      case Op::VMsne: return "vmsne";
      case Op::VMslt: return "vmslt";
      case Op::VMsle: return "vmsle";
      case Op::VMsgt: return "vmsgt";
      case Op::VMand: return "vmand";
      case Op::VMor: return "vmor";
      case Op::VMxor: return "vmxor";
      case Op::VMandn: return "vmandn";
      case Op::VMerge: return "vmerge";
      case Op::VMvVX: return "vmv.v.x";
      case Op::VId: return "vid";
      case Op::VIota: return "viota";
      case Op::VSlide1Up: return "vslide1up";
      case Op::VSlide1Down: return "vslide1down";
      case Op::VSlideUp: return "vslideup";
      case Op::VSlideDown: return "vslidedown";
      case Op::VRgather: return "vrgather";
      case Op::VRedSum: return "vredsum";
      case Op::VRedMin: return "vredmin";
      case Op::VRedMax: return "vredmax";
      case Op::VPopc: return "vpopc";
      case Op::VFirst: return "vfirst";
      case Op::VLoad: return "vle32";
      case Op::VLoadStrided: return "vlse32";
      case Op::VLoadIndexed: return "vluxei32";
      case Op::VStore: return "vse32";
      case Op::VStoreStrided: return "vsse32";
      case Op::VStoreIndexed: return "vsuxei32";
      default: return "<bad-op>";
    }
}

} // namespace eve
