//===- cubin/Cubin.cpp ----------------------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// Container layout (all little-endian):
///   header: magic u32, version u32, section count u32
///   info:   name (u16 len + bytes), grid x/y/z u32, warps u32, shared u32
///   per section: name (u16 len + bytes), data size u32, data bytes
///
/// Text-section statement encoding:
///   tag u8 (0 = label, 1 = instruction)
///   label:        strtab index u32
///   instruction:  opcode u8, control u32 (ControlCode::encode),
///                 guard u8 (bit0 present, bit1 negated, bits 4..6 index),
///                 modifier count u8 + strtab indices u32[],
///                 operand count u8 + operands
///   operand:      kind u8, flags u8 (wide|reuse|neg|not|abs|desc),
///                 then kind-specific payload (see encode/decodeOperand).
///
//===----------------------------------------------------------------------===//

#include "cubin/Cubin.h"

#include <cassert>
#include <cstring>
#include <map>

using namespace cuasmrl;
using namespace cuasmrl::cubin;

namespace {

//===----------------------------------------------------------------------===//
// Byte stream helpers
//===----------------------------------------------------------------------===//

class Writer {
public:
  explicit Writer(std::vector<uint8_t> &Out) : Out(Out) {}
  void u8(uint8_t V) { Out.push_back(V); }
  void u16(uint16_t V) { raw(&V, 2); }
  void u32(uint32_t V) { raw(&V, 4); }
  void u64(uint64_t V) { raw(&V, 8); }
  void f64(double V) { raw(&V, 8); }
  void str(const std::string &S) {
    u16(static_cast<uint16_t>(S.size()));
    raw(S.data(), S.size());
  }

private:
  void raw(const void *P, size_t N) {
    const uint8_t *B = static_cast<const uint8_t *>(P);
    Out.insert(Out.end(), B, B + N);
  }
  std::vector<uint8_t> &Out;
};

class Reader {
public:
  Reader(const std::vector<uint8_t> &In) : In(In) {}
  bool ok() const { return !Failed; }
  uint8_t u8() { return take<uint8_t>(); }
  uint16_t u16() { return take<uint16_t>(); }
  uint32_t u32() { return take<uint32_t>(); }
  uint64_t u64() { return take<uint64_t>(); }
  double f64() { return take<double>(); }
  std::string str() {
    uint16_t Len = u16();
    if (Pos + Len > In.size()) {
      Failed = true;
      return {};
    }
    std::string S(reinterpret_cast<const char *>(In.data() + Pos), Len);
    Pos += Len;
    return S;
  }
  std::vector<uint8_t> bytes(size_t N) {
    if (Pos + N > In.size()) {
      Failed = true;
      return {};
    }
    std::vector<uint8_t> B(In.begin() + Pos, In.begin() + Pos + N);
    Pos += N;
    return B;
  }
  bool atEnd() const { return Pos >= In.size(); }

private:
  template <typename T> T take() {
    T V{};
    if (Pos + sizeof(T) > In.size()) {
      Failed = true;
      return V;
    }
    std::memcpy(&V, In.data() + Pos, sizeof(T));
    Pos += sizeof(T);
    return V;
  }
  const std::vector<uint8_t> &In;
  size_t Pos = 0;
  bool Failed = false;
};

//===----------------------------------------------------------------------===//
// String table
//===----------------------------------------------------------------------===//

class StringTable {
public:
  uint32_t intern(const std::string &S) {
    auto [It, New] = Index.emplace(S, static_cast<uint32_t>(Strings.size()));
    if (New)
      Strings.push_back(S);
    return It->second;
  }
  const std::vector<std::string> &strings() const { return Strings; }

private:
  std::map<std::string, uint32_t> Index;
  std::vector<std::string> Strings;
};

//===----------------------------------------------------------------------===//
// Operand codec
//===----------------------------------------------------------------------===//

uint8_t operandFlags(const sass::Operand &Op) {
  uint8_t F = 0;
  F |= Op.isWide() ? 0x01 : 0;
  F |= Op.hasReuse() ? 0x02 : 0;
  F |= Op.isNegated() ? 0x04 : 0;
  F |= Op.isNot() ? 0x08 : 0;
  F |= Op.isAbs() ? 0x10 : 0;
  F |= Op.hasDesc() ? 0x20 : 0;
  return F;
}

void encodeReg(Writer &W, const sass::Register &R) {
  W.u8(static_cast<uint8_t>(R.regClass()));
  W.u16(static_cast<uint16_t>(R.index()));
}

sass::Register decodeReg(Reader &R) {
  uint8_t Class = R.u8();
  uint16_t Index = R.u16();
  return sass::Register(static_cast<sass::RegClass>(Class), Index);
}

void encodeOperand(Writer &W, StringTable &Strs, const sass::Operand &Op) {
  W.u8(static_cast<uint8_t>(Op.kind()));
  W.u8(operandFlags(Op));
  switch (Op.kind()) {
  case sass::Operand::Kind::Reg:
    encodeReg(W, Op.baseReg());
    break;
  case sass::Operand::Kind::Imm:
    W.u64(static_cast<uint64_t>(Op.immValue()));
    break;
  case sass::Operand::Kind::FloatImm:
    W.f64(Op.floatValue());
    break;
  case sass::Operand::Kind::ConstMem:
    W.u32(Op.constBank());
    W.u64(static_cast<uint64_t>(Op.constOffset()));
    break;
  case sass::Operand::Kind::Mem:
    encodeReg(W, Op.baseReg());
    if (Op.hasDesc())
      encodeReg(W, Op.descReg());
    W.u64(static_cast<uint64_t>(Op.memOffset()));
    break;
  case sass::Operand::Kind::Special:
  case sass::Operand::Kind::Label:
    W.u32(Strs.intern(Op.name()));
    break;
  }
}

sass::Operand decodeOperand(Reader &R,
                            const std::vector<std::string> &Strs) {
  auto Kind = static_cast<sass::Operand::Kind>(R.u8());
  uint8_t Flags = R.u8();
  sass::Operand Op;
  switch (Kind) {
  case sass::Operand::Kind::Reg:
    Op = sass::Operand::reg(decodeReg(R));
    break;
  case sass::Operand::Kind::Imm:
    Op = sass::Operand::imm(static_cast<int64_t>(R.u64()));
    break;
  case sass::Operand::Kind::FloatImm:
    Op = sass::Operand::floatImm(R.f64());
    break;
  case sass::Operand::Kind::ConstMem: {
    uint32_t Bank = R.u32();
    Op = sass::Operand::constMem(Bank, static_cast<int64_t>(R.u64()));
    break;
  }
  case sass::Operand::Kind::Mem: {
    sass::Register Base = decodeReg(R);
    sass::Register Desc;
    if (Flags & 0x20)
      Desc = decodeReg(R);
    Op = sass::Operand::mem(Base, static_cast<int64_t>(R.u64()));
    if (Flags & 0x20)
      Op.setDesc(Desc);
    break;
  }
  case sass::Operand::Kind::Special:
  case sass::Operand::Kind::Label: {
    uint32_t Idx = R.u32();
    std::string Name = Idx < Strs.size() ? Strs[Idx] : "";
    Op = Kind == sass::Operand::Kind::Special
             ? sass::Operand::special(std::move(Name))
             : sass::Operand::label(std::move(Name));
    break;
  }
  }
  Op.setWide(Flags & 0x01);
  Op.setReuse(Flags & 0x02);
  Op.setNegated(Flags & 0x04);
  Op.setNot(Flags & 0x08);
  Op.setAbs(Flags & 0x10);
  return Op;
}

} // namespace

//===----------------------------------------------------------------------===//
// CubinFile
//===----------------------------------------------------------------------===//

Section *CubinFile::findSection(const std::string &Name) {
  for (Section &S : Sections)
    if (S.Name == Name)
      return &S;
  return nullptr;
}

const Section *CubinFile::findSection(const std::string &Name) const {
  for (const Section &S : Sections)
    if (S.Name == Name)
      return &S;
  return nullptr;
}

Section &CubinFile::addSection(std::string Name) {
  if (Section *Existing = findSection(Name))
    return *Existing;
  Sections.push_back({std::move(Name), {}});
  return Sections.back();
}

std::vector<uint8_t> CubinFile::serialize() const {
  std::vector<uint8_t> Out;
  Writer W(Out);
  W.u32(Magic);
  W.u32(Version);
  W.str(Info.Name);
  W.u32(Info.GridX);
  W.u32(Info.GridY);
  W.u32(Info.GridZ);
  W.u32(Info.WarpsPerBlock);
  W.u32(Info.SharedBytes);
  W.u32(static_cast<uint32_t>(Sections.size()));
  for (const Section &S : Sections) {
    W.str(S.Name);
    W.u32(static_cast<uint32_t>(S.Data.size()));
    Out.insert(Out.end(), S.Data.begin(), S.Data.end());
  }
  return Out;
}

Expected<CubinFile>
CubinFile::deserialize(const std::vector<uint8_t> &Bytes) {
  Reader R(Bytes);
  if (R.u32() != Magic)
    return Error("bad cubin magic");
  if (R.u32() != Version)
    return Error("unsupported cubin version");
  CubinFile File;
  File.Info.Name = R.str();
  File.Info.GridX = R.u32();
  File.Info.GridY = R.u32();
  File.Info.GridZ = R.u32();
  File.Info.WarpsPerBlock = R.u32();
  File.Info.SharedBytes = R.u32();
  uint32_t Count = R.u32();
  for (uint32_t I = 0; I < Count && R.ok(); ++I) {
    Section S;
    S.Name = R.str();
    uint32_t Size = R.u32();
    S.Data = R.bytes(Size);
    File.Sections.push_back(std::move(S));
  }
  if (!R.ok())
    return Error("truncated cubin");
  // Exactly one encoding per file: bytes past the last section would
  // let two different byte strings decode to the same cubin.
  if (!R.atEnd())
    return Error("trailing bytes after the last cubin section");
  return File;
}

//===----------------------------------------------------------------------===//
// Assemble / disassemble
//===----------------------------------------------------------------------===//

CubinFile cubin::assemble(const sass::Program &Prog,
                          const KernelInfo &Info) {
  CubinFile File;
  File.info() = Info;
  if (File.info().Name.empty())
    File.info().Name = Prog.name();

  StringTable Strs;
  std::vector<uint8_t> Text;
  Writer W(Text);
  W.u32(static_cast<uint32_t>(Prog.size()));
  for (size_t I = 0; I < Prog.size(); ++I) {
    const sass::Statement &S = Prog.stmt(I);
    if (S.isLabel()) {
      W.u8(0);
      W.u32(Strs.intern(S.label()));
      continue;
    }
    const sass::Instruction &Instr = S.instr();
    W.u8(1);
    W.u8(static_cast<uint8_t>(Instr.opcode()));
    W.u32(Instr.ctrl().encode());
    uint8_t Guard = 0;
    if (Instr.hasGuard()) {
      Guard = 0x01 | (Instr.guardNegated() ? 0x02 : 0) |
              (static_cast<uint8_t>(Instr.guardReg().index()) << 4);
    }
    W.u8(Guard);
    W.u8(static_cast<uint8_t>(Instr.modifiers().size()));
    for (const std::string &Mod : Instr.modifiers())
      W.u32(Strs.intern(Mod));
    W.u8(static_cast<uint8_t>(Instr.operands().size()));
    for (const sass::Operand &Op : Instr.operands())
      encodeOperand(W, Strs, Op);
  }

  // String table after the text so interning is complete.
  std::vector<uint8_t> StrTab;
  Writer SW(StrTab);
  SW.u32(static_cast<uint32_t>(Strs.strings().size()));
  for (const std::string &S : Strs.strings())
    SW.str(S);

  File.addSection(".text").Data = std::move(Text);
  File.addSection(".strtab").Data = std::move(StrTab);
  return File;
}

Expected<sass::Program> cubin::disassemble(const CubinFile &File) {
  const Section *Text = File.findSection(".text");
  const Section *StrTab = File.findSection(".strtab");
  if (!Text || !StrTab)
    return Error("cubin missing .text or .strtab section");

  std::vector<std::string> Strs;
  {
    Reader R(StrTab->Data);
    uint32_t Count = R.u32();
    for (uint32_t I = 0; I < Count && R.ok(); ++I)
      Strs.push_back(R.str());
    if (!R.ok())
      return Error("corrupt string table");
  }

  sass::Program Prog(File.info().Name);
  Reader R(Text->Data);
  uint32_t Count = R.u32();
  for (uint32_t I = 0; I < Count && R.ok(); ++I) {
    uint8_t Tag = R.u8();
    if (Tag == 0) {
      uint32_t Idx = R.u32();
      if (Idx >= Strs.size())
        return Error("label string index out of range");
      Prog.appendLabel(Strs[Idx]);
      continue;
    }
    if (Tag != 1)
      return Error("unknown statement tag in text section");
    sass::Instruction Instr;
    Instr.setOpcode(static_cast<sass::Opcode>(R.u8()));
    Instr.ctrl() = sass::ControlCode::decode(R.u32());
    uint8_t Guard = R.u8();
    if (Guard & 0x01)
      Instr.setGuard(sass::Register::predicate(Guard >> 4), Guard & 0x02);
    uint8_t NumMods = R.u8();
    for (uint8_t M = 0; M < NumMods; ++M) {
      uint32_t Idx = R.u32();
      if (Idx >= Strs.size())
        return Error("modifier string index out of range");
      Instr.modifiers().push_back(Strs[Idx]);
    }
    uint8_t NumOps = R.u8();
    for (uint8_t Op = 0; Op < NumOps; ++Op)
      Instr.operands().push_back(decodeOperand(R, Strs));
    Prog.appendInstr(std::move(Instr));
  }
  if (!R.ok())
    return Error("truncated text section");
  return Prog;
}

void cubin::replaceKernelSection(CubinFile &File,
                                 const sass::Program &NewProg) {
  CubinFile Fresh = assemble(NewProg, File.info());
  // Swap in the new text/strtab; every other section is preserved
  // verbatim (§4.1: symbol tables and ELF structure must survive).
  File.addSection(".text").Data =
      std::move(Fresh.findSection(".text")->Data);
  File.addSection(".strtab").Data =
      std::move(Fresh.findSection(".strtab")->Data);
}
