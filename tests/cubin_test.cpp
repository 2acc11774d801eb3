//===- tests/cubin_test.cpp - binary container tests ---------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "cubin/Cubin.h"
#include "sass/Parser.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace cuasmrl;
using namespace cuasmrl::cubin;

namespace {

sass::Program parseOrDie(const std::string &Text,
                         const std::string &Name = "k") {
  Expected<sass::Program> P = sass::Parser::parseProgram(Text, Name);
  EXPECT_TRUE(P.hasValue()) << (P.hasValue() ? "" : P.error().str());
  return P.hasValue() ? P.takeValue() : sass::Program();
}

const char *SampleText = R"(
  [B------:R-:W-:-:S04] MOV R2, c[0x0][0x160] ;
.L_LOOP:
  [B------:R-:W0:-:S01] LDG.E.128 R4, desc[UR16][R2.64+0x40] ;
  [B0-----:R-:W-:-:S05] FFMA R8, R4.reuse, R5, R6 ;
  [B------:R-:W-:-:S01] @!P0 BRA `(.L_LOOP) ;
  [B------:R-:W-:-:S01] STG.E [R2.64], R8 ;
  [B------:R-:W-:-:S01] EXIT ;
)";

/// Generates a random (syntactically coherent) instruction for
/// round-trip property testing.
sass::Instruction randomInstruction(Rng &R) {
  // Placeholders: first two %d are register numbers, the third (when
  // present) is an offset/immediate constant.
  static const char *Lines[] = {
      "IADD3 R%d, R%d, 0x%x, RZ ;",
      "IMAD.WIDE R%d, R%d, 0x%x, R6 ;",
      "LDG.E.128 R%d, desc[UR16][R%d.64+0x%x] ;",
      "STG.E.64 [R%d.64+0x40], R%d ;",
      "HMMA.16816.F32 R%d, R%d.reuse, R8, R12 ;",
      "FFMA R%d, R%d, |R10|, -R9 ;",
      "ISETP.GE.AND P0, PT, R%d, 0x%x, PT ;",
      "LDGSTS.E.BYPASS.128 [R%d+0x40], desc[UR16][R%d.64+0x%x], P3 ;",
      "MUFU.RCP R%d, R%d ;",
      "@!PT LDS.128 R%d, [R%d+0x%x] ;",
  };
  char Buffer[128];
  const char *Template = Lines[R.uniformInt(std::size(Lines))];
  // Registers kept even and small so pair/vector forms stay coherent.
  unsigned A = 2 * (1 + R.uniformInt(40));
  unsigned B = 2 * (1 + R.uniformInt(40));
  unsigned C = 16 * R.uniformInt(32);
  std::snprintf(Buffer, sizeof(Buffer), Template, A, B, C);
  Expected<sass::Instruction> I = sass::Parser::parseInstruction(Buffer);
  EXPECT_TRUE(I.hasValue()) << Buffer;
  sass::Instruction Instr = I.takeValue();
  // Random control code.
  Instr.ctrl().setWaitMask(static_cast<uint8_t>(R.uniformInt(64)));
  if (R.bernoulli(0.3))
    Instr.ctrl().setReadBarrier(static_cast<int>(R.uniformInt(6)));
  if (R.bernoulli(0.5))
    Instr.ctrl().setWriteBarrier(static_cast<int>(R.uniformInt(6)));
  Instr.ctrl().setYield(R.bernoulli(0.2));
  Instr.ctrl().setStall(static_cast<unsigned>(R.uniformInt(16)));
  return Instr;
}

} // namespace

TEST(Cubin, AssembleDisassembleRoundTrip) {
  // The container's KernelInfo name becomes the program name on
  // disassembly, so parse under the same name.
  sass::Program P = parseOrDie(SampleText, "sample");
  KernelInfo Info;
  Info.Name = "sample";
  Info.GridX = 8;
  Info.WarpsPerBlock = 4;
  Info.SharedBytes = 1024;
  CubinFile File = assemble(P, Info);
  Expected<sass::Program> Q = disassemble(File);
  ASSERT_TRUE(Q.hasValue()) << Q.error().str();
  EXPECT_EQ(P.str(), Q->str());
}

TEST(Cubin, SerializeDeserializeBytes) {
  sass::Program P = parseOrDie(SampleText, "sample");
  KernelInfo Info;
  Info.Name = "sample";
  Info.GridY = 3;
  CubinFile File = assemble(P, Info);
  std::vector<uint8_t> Bytes = File.serialize();
  Expected<CubinFile> Back = CubinFile::deserialize(Bytes);
  ASSERT_TRUE(Back.hasValue()) << Back.error().str();
  EXPECT_EQ(Back->info().Name, "sample");
  EXPECT_EQ(Back->info().GridY, 3u);
  Expected<sass::Program> Q = disassemble(*Back);
  ASSERT_TRUE(Q.hasValue());
  EXPECT_EQ(P.str(), Q->str());
}

TEST(Cubin, ByteExactReassembly) {
  sass::Program P = parseOrDie(SampleText);
  CubinFile A = assemble(P, {});
  Expected<sass::Program> Q = disassemble(A);
  ASSERT_TRUE(Q.hasValue());
  CubinFile B = assemble(*Q, A.info());
  EXPECT_EQ(A.serialize(), B.serialize());
}

TEST(Cubin, DeserializeRejectsGarbage) {
  std::vector<uint8_t> Junk = {1, 2, 3, 4, 5};
  EXPECT_FALSE(CubinFile::deserialize(Junk).hasValue());
  std::vector<uint8_t> Truncated = assemble(parseOrDie(SampleText), {})
                                       .serialize();
  Truncated.resize(Truncated.size() / 2);
  EXPECT_FALSE(CubinFile::deserialize(Truncated).hasValue());
}

TEST(Cubin, DeserializeRejectsTrailingBytes) {
  // serialize() plus anything is not a cubin: a decoder that stopped
  // after the last section would read two byte strings as one file.
  std::vector<uint8_t> Bytes = assemble(parseOrDie(SampleText), {})
                                   .serialize();
  ASSERT_TRUE(CubinFile::deserialize(Bytes).hasValue());
  for (std::vector<uint8_t> Tail :
       {std::vector<uint8_t>{0}, std::vector<uint8_t>{0xFF, 0x01},
        std::vector<uint8_t>(Bytes.begin(), Bytes.begin() + 12)}) {
    std::vector<uint8_t> Padded = Bytes;
    Padded.insert(Padded.end(), Tail.begin(), Tail.end());
    Expected<CubinFile> Back = CubinFile::deserialize(Padded);
    ASSERT_FALSE(Back.hasValue()) << Tail.size() << " trailing bytes";
    EXPECT_NE(Back.error().str().find("trailing"), std::string::npos);
  }
}

TEST(Cubin, ReplaceKernelSectionPreservesOthers) {
  sass::Program P = parseOrDie(SampleText);
  CubinFile File = assemble(P, {});
  Section &Extra = File.addSection(".nv.custom");
  Extra.Data = {0xde, 0xad, 0xbe, 0xef};

  sass::Program Q = P;
  Q.swap(4, 5); // STG and EXIT? Indices: label at 1; pick instr pair.
  // Ensure we swapped two instructions (stmt 4 and 5 are FFMA / BRA? be
  // safe: swap the two stores at the end if instructions).
  CubinFile Before = File;
  replaceKernelSection(File, Q);
  Expected<sass::Program> Back = disassemble(File);
  ASSERT_TRUE(Back.hasValue());
  EXPECT_EQ(Back->str(), Q.str());
  const Section *Custom = File.findSection(".nv.custom");
  ASSERT_NE(Custom, nullptr);
  EXPECT_EQ(Custom->Data, (std::vector<uint8_t>{0xde, 0xad, 0xbe, 0xef}));
}

/// Property: assemble/disassemble is the identity over randomized
/// instruction streams (500 instructions across 10 seeds).
class CubinRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(CubinRoundTrip, RandomProgramsSurvive) {
  Rng R(GetParam());
  sass::Program P("fuzz");
  for (int I = 0; I < 50; ++I) {
    if (R.bernoulli(0.1))
      P.appendLabel(".L_" + std::to_string(I));
    P.appendInstr(randomInstruction(R));
  }
  CubinFile File = assemble(P, {});
  Expected<sass::Program> Q = disassemble(File);
  ASSERT_TRUE(Q.hasValue()) << Q.error().str();
  EXPECT_EQ(P.str(), Q->str());
  // And the byte stream survives a serialize cycle too.
  Expected<CubinFile> Back = CubinFile::deserialize(File.serialize());
  ASSERT_TRUE(Back.hasValue());
  Expected<sass::Program> Q2 = disassemble(*Back);
  ASSERT_TRUE(Q2.hasValue());
  EXPECT_EQ(P.str(), Q2->str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CubinRoundTrip,
                         ::testing::Range(1, 11));
