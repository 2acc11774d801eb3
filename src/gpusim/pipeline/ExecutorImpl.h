//===- gpusim/pipeline/ExecutorImpl.h - Functional SASS semantics ------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Warp-scalar functional semantics for the SASS subset the toolchain
/// emits. `executeInstr` is a template over an execution context so the
/// same semantics drive both execution models:
///
///  - the *oracle* (program order, immediate commits) — the architectural
///    reference the paper's probabilistic testing compares against, and
///  - the *timed machine* — whose context defers register commits by the
///    hardware latency, so schedules that violate stall counts or
///    scoreboard waits observably read stale values (§2.3.1). That
///    hazard fidelity is what makes dependency-based microbenchmarking
///    (§4.3) and invalid-schedule detection work.
///
/// The context must provide:
/// \code
///   uint32_t readR(unsigned);    void writeR(unsigned, uint32_t);
///   uint32_t readUR(unsigned);   void writeUR(unsigned, uint32_t);
///   bool     readP(unsigned);    void writeP(unsigned, bool);
///   bool     readUP(unsigned);   void writeUP(unsigned, bool);
///   uint32_t loadShared(uint32_t);   void storeShared(uint32_t, uint32_t);
///   uint32_t loadGlobal(uint64_t);   void storeGlobal(uint64_t, uint32_t);
///   uint32_t loadConst(uint32_t offset);
///   uint32_t specialReg(std::string_view name);
/// \endcode
///
/// This header is the *implementation* of the execute stage: the ~750
/// lines of opcode semantics below are parsed and instantiated exactly
/// once, by `pipeline/ExecuteStage.cpp`. Every other TU sees only the
/// `executeTimed` / `executeOracle` declarations in `ExecuteStage.h`
/// (and the `ExecResult` contract in `gpusim/Executor.h`). Include it
/// anywhere else and you are re-growing the build-time cost the split
/// removed — don't.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_GPUSIM_PIPELINE_EXECUTORIMPL_H
#define CUASMRL_GPUSIM_PIPELINE_EXECUTORIMPL_H

#include "gpusim/DecodedProgram.h"
#include "gpusim/Executor.h"
#include "gpusim/Fp16.h"
#include "sass/Instruction.h"

#include <cmath>
#include <cstring>
#include <string_view>

namespace cuasmrl {
namespace gpusim {

namespace detail {

inline float asFloat(uint32_t Bits) {
  float F;
  std::memcpy(&F, &Bits, sizeof(F));
  return F;
}
inline uint32_t asBits(float F) {
  uint32_t B;
  std::memcpy(&B, &F, sizeof(B));
  return B;
}

template <typename Ctx>
uint32_t readReg(Ctx &C, const sass::Register &R) {
  using sass::RegClass;
  if (R.isZero())
    return R.isPredicate() ? 1u : 0u;
  switch (R.regClass()) {
  case RegClass::General:
    return C.readR(R.index());
  case RegClass::Uniform:
    return C.readUR(R.index());
  case RegClass::Predicate:
    return C.readP(R.index()) ? 1u : 0u;
  case RegClass::UniformPredicate:
    return C.readUP(R.index()) ? 1u : 0u;
  }
  return 0;
}

template <typename Ctx>
void writeReg(Ctx &C, const sass::Register &R, uint32_t Value) {
  using sass::RegClass;
  if (R.isZero())
    return; // RZ/PT writes are discarded.
  switch (R.regClass()) {
  case RegClass::General:
    C.writeR(R.index(), Value);
    break;
  case RegClass::Uniform:
    C.writeUR(R.index(), Value);
    break;
  case RegClass::Predicate:
    C.writeP(R.index(), Value != 0);
    break;
  case RegClass::UniformPredicate:
    C.writeUP(R.index(), Value != 0);
    break;
  }
}

/// Reads an operand as a 32-bit integer value (applying integer
/// negation / absolute modifiers).
template <typename Ctx>
uint32_t readInt(Ctx &C, const sass::Operand &Op) {
  using sass::Operand;
  uint32_t V = 0;
  switch (Op.kind()) {
  case Operand::Kind::Reg:
    V = readReg(C, Op.baseReg());
    if (Op.isNot())
      V = Op.baseReg().isPredicate() ? !V : ~V;
    break;
  case Operand::Kind::Imm:
    V = static_cast<uint32_t>(Op.immValue());
    break;
  case Operand::Kind::FloatImm:
    V = asBits(static_cast<float>(Op.floatValue()));
    break;
  case Operand::Kind::ConstMem:
    V = C.loadConst(static_cast<uint32_t>(Op.constOffset()));
    break;
  case Operand::Kind::Special:
    V = C.specialReg(Op.name());
    break;
  case Operand::Kind::Mem:
  case Operand::Kind::Label:
    break;
  }
  if (Op.isAbs()) {
    int32_t S = static_cast<int32_t>(V);
    V = static_cast<uint32_t>(S < 0 ? -S : S);
  }
  if (Op.isNegated())
    V = static_cast<uint32_t>(-static_cast<int32_t>(V));
  return V;
}

/// Reads an operand as a float (applying float negation / |abs|).
template <typename Ctx>
float readFloat(Ctx &C, const sass::Operand &Op) {
  using sass::Operand;
  float V = 0.0f;
  switch (Op.kind()) {
  case Operand::Kind::Reg:
    V = asFloat(readReg(C, Op.baseReg()));
    break;
  case Operand::Kind::Imm:
    V = asFloat(static_cast<uint32_t>(Op.immValue()));
    break;
  case Operand::Kind::FloatImm:
    V = static_cast<float>(Op.floatValue());
    break;
  case Operand::Kind::ConstMem:
    V = asFloat(C.loadConst(static_cast<uint32_t>(Op.constOffset())));
    break;
  case Operand::Kind::Special:
    V = asFloat(C.specialReg(Op.name()));
    break;
  case Operand::Kind::Mem:
  case Operand::Kind::Label:
    break;
  }
  if (Op.isAbs())
    V = std::fabs(V);
  if (Op.isNegated())
    V = -V;
  return V;
}

/// Reads a predicate-valued operand (handles '!').
template <typename Ctx>
bool readPred(Ctx &C, const sass::Operand &Op) {
  bool V = readReg(C, Op.baseReg()) != 0;
  return Op.isNot() ? !V : V;
}

/// Computes a 64-bit global address from a `.64` memory operand.
/// Register pairs follow the paper's Eq. 2 convention: the even index
/// holds the low word.
template <typename Ctx>
uint64_t readAddr64(Ctx &C, const sass::Operand &Op) {
  unsigned Base = Op.baseReg().index();
  if (!Op.isWide())
    return static_cast<uint64_t>(readReg(C, Op.baseReg())) +
           static_cast<uint64_t>(Op.memOffset());
  unsigned Lo = Base & ~1u;
  unsigned Hi = Base | 1u;
  uint64_t Addr =
      static_cast<uint64_t>(C.readR(Lo)) |
      (static_cast<uint64_t>(C.readR(Hi)) << 32);
  return Addr + static_cast<uint64_t>(Op.memOffset());
}

/// Computes a 32-bit shared-memory address.
template <typename Ctx>
uint32_t readAddr32(Ctx &C, const sass::Operand &Op) {
  uint32_t Base = Op.baseReg().isZero() ? 0 : readReg(C, Op.baseReg());
  return Base + static_cast<uint32_t>(Op.memOffset());
}

/// Standard LOP3 lookup-table semantics.
inline uint32_t lop3(uint32_t A, uint32_t B, uint32_t CV, uint32_t Lut) {
  uint32_t R = 0;
  if (Lut & 0x01)
    R |= ~A & ~B & ~CV;
  if (Lut & 0x02)
    R |= ~A & ~B & CV;
  if (Lut & 0x04)
    R |= ~A & B & ~CV;
  if (Lut & 0x08)
    R |= ~A & B & CV;
  if (Lut & 0x10)
    R |= A & ~B & ~CV;
  if (Lut & 0x20)
    R |= A & ~B & CV;
  if (Lut & 0x40)
    R |= A & B & ~CV;
  if (Lut & 0x80)
    R |= A & B & CV;
  return R;
}

/// Comparison dispatch shared by ISETP/FSETP, on the pre-decoded
/// selector (CmpKind::None compares false, like an unknown modifier).
template <typename T> bool compare(CmpKind Cmp, T A, T B) {
  switch (Cmp) {
  case CmpKind::LT:
    return A < B;
  case CmpKind::LE:
    return A <= B;
  case CmpKind::GT:
    return A > B;
  case CmpKind::GE:
    return A >= B;
  case CmpKind::EQ:
    return A == B;
  case CmpKind::NE:
    return A != B;
  case CmpKind::None:
    break;
  }
  return false;
}

} // namespace detail

/// Executes one instruction against the context, using the instruction's
/// pre-decoded record \p D for every modifier-derived decision (latency
/// class, semantic flags, comparison/MUFU selectors, branch target).
/// Memory side effects happen immediately; register writes go through
/// the context (which may defer their visibility). Returns control-flow
/// guidance.
template <typename Ctx>
ExecResult executeInstr(const sass::Instruction &I, const DecodedInstr &D,
                        Ctx &C) {
  using namespace detail;
  using sass::Opcode;
  using sass::Operand;

  ExecResult Res;

  // Guard predicate: a false guard suppresses all architectural effects
  // (the instruction still consumes its issue slot — the machine models
  // that; @!PT instructions are the paper's §5.7.2 dead loads).
  if (I.hasGuard()) {
    bool G = readReg(C, I.guardReg()) != 0;
    if (I.guardNegated())
      G = !G;
    if (!G) {
      if (I.opcode() == Opcode::EXIT || I.opcode() == Opcode::BRA)
        return Res; // Fall through.
      Res.Predicated = false;
      return Res;
    }
  }

  const std::vector<Operand> &Ops = I.operands();
  auto Dest = [&]() -> sass::Register { return Ops[0].baseReg(); };

  switch (I.opcode()) {
  // ----- Integer ALU ----------------------------------------------------
  case Opcode::IADD3: {
    // IADD3 Rd[, Pcarry], Ra, Rb, Rc  (+ .X carry-in as trailing preds).
    unsigned Src = 1;
    sass::Register CarryOut = sass::Register::pt();
    if (Src < Ops.size() && Ops[Src].isReg() &&
        Ops[Src].baseReg().isPredicate() && !Ops[Src].isNot()) {
      CarryOut = Ops[Src].baseReg();
      ++Src;
    }
    uint64_t Sum = 0;
    unsigned Count = 0;
    bool CarryIn = false;
    for (unsigned J = Src; J < Ops.size(); ++J) {
      if (Ops[J].isReg() && Ops[J].baseReg().isPredicate()) {
        // Trailing carry-in predicate of the .X form.
        if (D.has(DecodedInstr::ModX))
          CarryIn = CarryIn || readPred(C, Ops[J]);
        continue;
      }
      if (Count++ < 3)
        Sum += readInt(C, Ops[J]);
    }
    if (D.has(DecodedInstr::ModX) && CarryIn)
      Sum += 1;
    writeReg(C, Dest(), static_cast<uint32_t>(Sum));
    if (!CarryOut.isZero())
      writeReg(C, CarryOut, (Sum >> 32) ? 1u : 0u);
    break;
  }
  case Opcode::IMAD: {
    bool Wide = D.has(DecodedInstr::ModWide);
    bool Unsigned = D.has(DecodedInstr::ModU32);
    unsigned Src = 1;
    // Skip carry-out predicate slot if present.
    if (Src < Ops.size() && Ops[Src].isReg() &&
        Ops[Src].baseReg().isPredicate() && !Ops[Src].isNot())
      ++Src;
    if (Ops.size() < Src + 3)
      break;
    uint32_t A = readInt(C, Ops[Src]);
    uint32_t B = readInt(C, Ops[Src + 1]);
    if (Wide) {
      // 64-bit addend: register pair or sign-extended immediate/const.
      const Operand &COp = Ops[Src + 2];
      uint64_t C64;
      if (COp.isReg() && !COp.baseReg().isZero()) {
        unsigned Lo = COp.baseReg().index() & ~1u;
        C64 = static_cast<uint64_t>(C.readR(Lo)) |
              (static_cast<uint64_t>(C.readR(Lo | 1)) << 32);
      } else {
        C64 = static_cast<uint64_t>(
            static_cast<int64_t>(static_cast<int32_t>(readInt(C, COp))));
      }
      uint64_t Prod =
          Unsigned
              ? static_cast<uint64_t>(A) * static_cast<uint64_t>(B)
              : static_cast<uint64_t>(
                    static_cast<int64_t>(static_cast<int32_t>(A)) *
                    static_cast<int64_t>(static_cast<int32_t>(B)));
      uint64_t R = Prod + C64;
      unsigned D = Dest().index() & ~1u;
      C.writeR(D, static_cast<uint32_t>(R));
      C.writeR(D | 1, static_cast<uint32_t>(R >> 32));
      break;
    }
    uint32_t CV = readInt(C, Ops[Src + 2]);
    if (D.has(DecodedInstr::ModHi)) {
      uint64_t Prod = static_cast<uint64_t>(A) * B;
      writeReg(C, Dest(), static_cast<uint32_t>(Prod >> 32) + CV);
    } else {
      writeReg(C, Dest(), A * B + CV);
    }
    break;
  }
  case Opcode::LEA: {
    // LEA Rd, Ra, Rb, shift.
    if (Ops.size() < 3)
      break;
    uint32_t A = readInt(C, Ops[1]);
    uint32_t B = readInt(C, Ops[2]);
    uint32_t Shift =
        Ops.size() > 3 ? (readInt(C, Ops[3]) & 31u) : 0u;
    writeReg(C, Dest(), (A << Shift) + B);
    break;
  }
  case Opcode::LOP3: {
    // LOP3.LUT Rd, Ra, Rb, Rc, lut[, !PT].
    if (Ops.size() < 5)
      break;
    uint32_t R = lop3(readInt(C, Ops[1]), readInt(C, Ops[2]),
                      readInt(C, Ops[3]), readInt(C, Ops[4]) & 0xff);
    writeReg(C, Dest(), R);
    break;
  }
  case Opcode::SHF: {
    // SHF.L/.R[.U32] Rd, Ra, shift, Rc (funnel shift of Rc:Ra).
    if (Ops.size() < 4)
      break;
    uint32_t A = readInt(C, Ops[1]);
    uint32_t S = readInt(C, Ops[2]) & 63u;
    uint32_t Hi = readInt(C, Ops[3]);
    uint64_t Pair = (static_cast<uint64_t>(Hi) << 32) | A;
    uint32_t R;
    if (D.has(DecodedInstr::ModL))
      R = static_cast<uint32_t>((Pair << (S & 31)) >> 32);
    else
      R = static_cast<uint32_t>(Pair >> (S & 31));
    writeReg(C, Dest(), R);
    break;
  }
  case Opcode::IABS: {
    int32_t A = static_cast<int32_t>(readInt(C, Ops[1]));
    writeReg(C, Dest(), static_cast<uint32_t>(A < 0 ? -A : A));
    break;
  }
  case Opcode::IMNMX: {
    // IMNMX[.U32] Rd, Ra, Rb, Pc (Pc true -> min, false -> max).
    if (Ops.size() < 4)
      break;
    bool Min = readPred(C, Ops[3]);
    if (D.has(DecodedInstr::ModU32)) {
      uint32_t A = readInt(C, Ops[1]), B = readInt(C, Ops[2]);
      writeReg(C, Dest(), Min ? std::min(A, B) : std::max(A, B));
    } else {
      int32_t A = static_cast<int32_t>(readInt(C, Ops[1]));
      int32_t B = static_cast<int32_t>(readInt(C, Ops[2]));
      writeReg(C, Dest(),
               static_cast<uint32_t>(Min ? std::min(A, B) : std::max(A, B)));
    }
    break;
  }
  case Opcode::SEL: {
    if (Ops.size() < 4)
      break;
    bool P = readPred(C, Ops[3]);
    writeReg(C, Dest(), P ? readInt(C, Ops[1]) : readInt(C, Ops[2]));
    break;
  }
  case Opcode::ISETP: {
    // ISETP.<cmp>[.U32].AND Pd, Pq, Ra, Rb, Pc.
    if (Ops.size() < 5)
      break;
    bool R;
    if (D.has(DecodedInstr::ModU32))
      R = compare<uint32_t>(D.Cmp, readInt(C, Ops[2]), readInt(C, Ops[3]));
    else
      R = compare<int32_t>(D.Cmp, static_cast<int32_t>(readInt(C, Ops[2])),
                           static_cast<int32_t>(readInt(C, Ops[3])));
    bool Combine = readPred(C, Ops[4]);
    bool Result =
        D.has(DecodedInstr::ModOr) ? (R || Combine) : (R && Combine);
    writeReg(C, Ops[0].baseReg(), Result);
    if (!Ops[1].baseReg().isZero())
      writeReg(C, Ops[1].baseReg(), (!R) && Combine);
    break;
  }
  case Opcode::POPC: {
    writeReg(C, Dest(), __builtin_popcount(readInt(C, Ops[1])));
    break;
  }

  // ----- FP32 ALU ---------------------------------------------------------
  case Opcode::FADD: {
    writeReg(C, Dest(),
             asBits(readFloat(C, Ops[1]) + readFloat(C, Ops[2])));
    break;
  }
  case Opcode::FMUL: {
    writeReg(C, Dest(),
             asBits(readFloat(C, Ops[1]) * readFloat(C, Ops[2])));
    break;
  }
  case Opcode::FFMA: {
    writeReg(C, Dest(),
             asBits(std::fma(readFloat(C, Ops[1]), readFloat(C, Ops[2]),
                             readFloat(C, Ops[3]))));
    break;
  }
  case Opcode::FMNMX: {
    if (Ops.size() < 4)
      break;
    bool Min = readPred(C, Ops[3]);
    float A = readFloat(C, Ops[1]), B = readFloat(C, Ops[2]);
    writeReg(C, Dest(), asBits(Min ? std::fmin(A, B) : std::fmax(A, B)));
    break;
  }
  case Opcode::FSEL: {
    if (Ops.size() < 4)
      break;
    bool P = readPred(C, Ops[3]);
    writeReg(C, Dest(),
             asBits(P ? readFloat(C, Ops[1]) : readFloat(C, Ops[2])));
    break;
  }
  case Opcode::FSETP: {
    if (Ops.size() < 5)
      break;
    bool R =
        compare<float>(D.Cmp, readFloat(C, Ops[2]), readFloat(C, Ops[3]));
    bool Combine = readPred(C, Ops[4]);
    bool Result =
        D.has(DecodedInstr::ModOr) ? (R || Combine) : (R && Combine);
    writeReg(C, Ops[0].baseReg(), Result);
    if (!Ops[1].baseReg().isZero())
      writeReg(C, Ops[1].baseReg(), (!R) && Combine);
    break;
  }
  case Opcode::MUFU: {
    float A = readFloat(C, Ops[1]);
    float R = 0.0f;
    switch (D.Mufu) {
    case MufuKind::Rcp:
      R = 1.0f / A;
      break;
    case MufuKind::Rsq:
      R = 1.0f / std::sqrt(A);
      break;
    case MufuKind::Sqrt:
      R = std::sqrt(A);
      break;
    case MufuKind::Ex2:
      R = std::exp2(A);
      break;
    case MufuKind::Lg2:
      R = std::log2(A);
      break;
    case MufuKind::Sin:
      R = std::sin(A);
      break;
    case MufuKind::Cos:
      R = std::cos(A);
      break;
    case MufuKind::None:
      break;
    }
    writeReg(C, Dest(), asBits(R));
    break;
  }

  // ----- Packed FP16 / tensor core ---------------------------------------
  case Opcode::HADD2: {
    uint32_t A = readInt(C, Ops[1]), B = readInt(C, Ops[2]);
    writeReg(C, Dest(),
             packHalf2(unpackLo(A) + unpackLo(B), unpackHi(A) + unpackHi(B)));
    break;
  }
  case Opcode::HMUL2: {
    uint32_t A = readInt(C, Ops[1]), B = readInt(C, Ops[2]);
    writeReg(C, Dest(),
             packHalf2(unpackLo(A) * unpackLo(B), unpackHi(A) * unpackHi(B)));
    break;
  }
  case Opcode::HFMA2: {
    uint32_t A = readInt(C, Ops[1]), B = readInt(C, Ops[2]),
             CV = readInt(C, Ops[3]);
    writeReg(C, Dest(),
             packHalf2(unpackLo(A) * unpackLo(B) + unpackLo(CV),
                       unpackHi(A) * unpackHi(B) + unpackHi(CV)));
    break;
  }
  case Opcode::HMMA: {
    // Warp-scalar HMMA: a dot-2 accumulate over packed fp16 sources into
    // an FP32 accumulator — the per-register slice of the tensor-core
    // fragment computation.
    uint32_t A = readInt(C, Ops[1]), B = readInt(C, Ops[2]);
    float Acc = asFloat(readInt(C, Ops[3]));
    Acc += unpackLo(A) * unpackLo(B) + unpackHi(A) * unpackHi(B);
    writeReg(C, Dest(), asBits(Acc));
    break;
  }
  case Opcode::IMMA: {
    uint32_t A = readInt(C, Ops[1]), B = readInt(C, Ops[2]);
    int32_t Acc = static_cast<int32_t>(readInt(C, Ops[3]));
    for (int Byte = 0; Byte < 4; ++Byte) {
      int8_t Ab = static_cast<int8_t>(A >> (8 * Byte));
      int8_t Bb = static_cast<int8_t>(B >> (8 * Byte));
      Acc += static_cast<int32_t>(Ab) * Bb;
    }
    writeReg(C, Dest(), static_cast<uint32_t>(Acc));
    break;
  }

  // ----- Conversions -------------------------------------------------------
  case Opcode::I2F: {
    uint32_t A = readInt(C, Ops[1]);
    float R = D.has(DecodedInstr::ModU32)
                  ? static_cast<float>(A)
                  : static_cast<float>(static_cast<int32_t>(A));
    writeReg(C, Dest(), asBits(R));
    break;
  }
  case Opcode::F2I: {
    float A = readFloat(C, Ops[1]);
    if (D.has(DecodedInstr::ModU32))
      writeReg(C, Dest(), static_cast<uint32_t>(A < 0 ? 0.0f : A));
    else
      writeReg(C, Dest(),
               static_cast<uint32_t>(static_cast<int32_t>(A)));
    break;
  }
  case Opcode::F2F: {
    // F2F.F32.F16 Rd, Ra: widen low half; F2F.F16.F32: narrow.
    uint32_t A = readInt(C, Ops[1]);
    if (D.has(DecodedInstr::ModF16) && D.has(DecodedInstr::ModFirstF32))
      writeReg(C, Dest(), packHalf2(asFloat(A), 0.0f));
    else
      writeReg(C, Dest(), asBits(unpackLo(A)));
    break;
  }

  // ----- Moves / misc -------------------------------------------------------
  case Opcode::MOV:
  case Opcode::MOV32I: {
    writeReg(C, Dest(), readInt(C, Ops[1]));
    break;
  }
  case Opcode::PRMT: {
    if (Ops.size() < 4)
      break;
    uint32_t A = readInt(C, Ops[1]);
    uint32_t Sel = readInt(C, Ops[2]);
    uint32_t B = readInt(C, Ops[3]);
    uint64_t Bytes = (static_cast<uint64_t>(B) << 32) | A;
    uint32_t R = 0;
    for (int Nib = 0; Nib < 4; ++Nib) {
      uint32_t S = (Sel >> (4 * Nib)) & 0x7;
      uint8_t Byte = static_cast<uint8_t>(Bytes >> (8 * S));
      if ((Sel >> (4 * Nib)) & 0x8) // MSB replicate.
        Byte = (Byte & 0x80) ? 0xff : 0x00;
      R |= static_cast<uint32_t>(Byte) << (8 * Nib);
    }
    writeReg(C, Dest(), R);
    break;
  }
  case Opcode::PLOP3: {
    // PLOP3.LUT Pd, Pq, Pa, Pb, Pc, lut, imm.
    if (Ops.size() < 6)
      break;
    bool A = readPred(C, Ops[2]), B = readPred(C, Ops[3]),
         CP = readPred(C, Ops[4]);
    uint32_t Lut = readInt(C, Ops[5]) & 0xff;
    unsigned Idx = (A ? 4u : 0u) | (B ? 2u : 0u) | (CP ? 1u : 0u);
    bool R = (Lut >> Idx) & 1;
    writeReg(C, Ops[0].baseReg(), R);
    if (!Ops[1].baseReg().isZero())
      writeReg(C, Ops[1].baseReg(), !R);
    break;
  }
  case Opcode::SHFL: {
    // Warp-scalar: identity shuffle; the in-bounds predicate is true.
    if (Ops.size() >= 3 && Ops[1].isReg() &&
        Ops[1].baseReg().isPredicate()) {
      writeReg(C, Ops[1].baseReg(), 1);
      writeReg(C, Dest(), readInt(C, Ops[2]));
    } else if (Ops.size() >= 2) {
      writeReg(C, Dest(), readInt(C, Ops[1]));
    }
    break;
  }
  case Opcode::CS2R:
  case Opcode::S2R: {
    writeReg(C, Dest(), C.specialReg(Ops[1].name()));
    break;
  }
  case Opcode::VOTE: {
    // VOTE.ALL Rd, Pd, Pa — warp-scalar: unanimous iff Pa.
    if (Ops.size() >= 3) {
      bool A = readPred(C, Ops[2]);
      writeReg(C, Dest(), A ? 0xffffffffu : 0u);
      if (Ops[1].isReg() && Ops[1].baseReg().isPredicate())
        writeReg(C, Ops[1].baseReg(), A);
    }
    break;
  }
  case Opcode::NOP:
    break;

  // ----- Memory --------------------------------------------------------------
  case Opcode::LDG: {
    const Operand *Mem = I.memOperand();
    if (!Mem)
      break;
    uint64_t Addr = readAddr64(C, *Mem);
    unsigned N = D.DataRegs;
    unsigned D = Dest().index();
    for (unsigned W = 0; W < N; ++W)
      C.writeR(D + W, C.loadGlobal(Addr + 4ull * W));
    break;
  }
  case Opcode::STG: {
    const Operand *Mem = I.memOperand();
    if (!Mem || Ops.size() < 2)
      break;
    uint64_t Addr = readAddr64(C, *Mem);
    unsigned N = D.DataRegs;
    unsigned S = Ops.back().baseReg().index();
    for (unsigned W = 0; W < N; ++W)
      C.storeGlobal(Addr + 4ull * W, C.readR(S + W));
    break;
  }
  case Opcode::LDS:
  case Opcode::LDSM: {
    const Operand *Mem = I.memOperand();
    if (!Mem)
      break;
    uint32_t Addr = readAddr32(C, *Mem);
    unsigned N = D.DataRegs;
    unsigned D = Dest().index();
    for (unsigned W = 0; W < N; ++W)
      C.writeR(D + W, C.loadShared(Addr + 4 * W));
    break;
  }
  case Opcode::STS: {
    const Operand *Mem = I.memOperand();
    if (!Mem || Ops.size() < 2)
      break;
    uint32_t Addr = readAddr32(C, *Mem);
    unsigned N = D.DataRegs;
    unsigned S = Ops.back().baseReg().index();
    for (unsigned W = 0; W < N; ++W)
      C.storeShared(Addr + 4 * W, C.readR(S + W));
    break;
  }
  case Opcode::LDGSTS: {
    // LDGSTS.E[.BYPASS][.128] [Rs+soff], desc[UR][Rg.64+goff][, P].
    if (Ops.size() < 2 || !Ops[0].isMem() || !Ops[1].isMem())
      break;
    uint32_t SAddr = readAddr32(C, Ops[0]);
    uint64_t GAddr = readAddr64(C, Ops[1]);
    bool DoCopy = true;
    if (Ops.size() >= 3 && Ops[2].isReg() &&
        Ops[2].baseReg().isPredicate())
      DoCopy = readPred(C, Ops[2]);
    unsigned N = D.DataRegs;
    for (unsigned W = 0; W < N; ++W)
      C.storeShared(SAddr + 4 * W,
                    DoCopy ? C.loadGlobal(GAddr + 4ull * W) : 0u);
    break;
  }
  case Opcode::LDC: {
    const Operand &Src = Ops[1];
    writeReg(C, Dest(),
             C.loadConst(static_cast<uint32_t>(Src.constOffset())));
    break;
  }
  case Opcode::ATOM:
  case Opcode::RED: {
    const Operand *Mem = I.memOperand();
    if (!Mem)
      break;
    uint64_t Addr = readAddr64(C, *Mem);
    bool Returns = I.opcode() == Opcode::ATOM;
    const Operand &Val = Ops.back();
    uint32_t Old = C.loadGlobal(Addr);
    uint32_t New;
    if (D.has(DecodedInstr::ModF32))
      New = asBits(asFloat(Old) + readFloat(C, Val));
    else
      New = Old + readInt(C, Val);
    C.storeGlobal(Addr, New);
    if (Returns && Ops[0].isReg())
      writeReg(C, Dest(), Old);
    break;
  }

  // ----- Control flow -----------------------------------------------------
  case Opcode::BRA: {
    for (const Operand &Op : Ops)
      if (Op.isLabel()) {
        Res.K = ExecResult::Kind::Branch;
        Res.TargetIdx = D.BranchTarget;
        break;
      }
    break;
  }
  case Opcode::EXIT:
    Res.K = ExecResult::Kind::Exit;
    break;
  case Opcode::BAR:
    Res.K = ExecResult::Kind::BlockBarrier;
    break;
  case Opcode::CALL:
  case Opcode::RET:
  case Opcode::DEPBAR:
  case Opcode::LDGDEPBAR:
  case Opcode::BSSY:
  case Opcode::BSYNC:
  case Opcode::WARPSYNC:
  case Opcode::MEMBAR:
  case Opcode::ERRBAR:
  case Opcode::YIELD:
    // Synchronization placement effects are modeled by the machine (they
    // bound reordering and consume issue slots); no functional effect.
    break;
  }
  return Res;
}

} // namespace gpusim
} // namespace cuasmrl

#endif // CUASMRL_GPUSIM_PIPELINE_EXECUTORIMPL_H
