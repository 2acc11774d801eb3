//===- cubin/Cubin.h - Binary kernel container (cubin stand-in) --------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The binary artifact the pipeline intercepts, patches and reloads
/// (paper §4.1): an ELF-like container with a text section holding the
/// encoded kernel, a string table, and a metadata section carrying the
/// launch geometry ("the meta-information such as the symbol tables and
/// the ELF format must be preserved").
///
/// NVIDIA's real instruction encoding is undocumented; this container
/// defines its own deterministic encoding (see Encoding.h) and is
/// byte-exact round-trippable: assemble(disassemble(x)) == x.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_CUBIN_CUBIN_H
#define CUASMRL_CUBIN_CUBIN_H

#include "sass/Program.h"
#include "support/Error.h"

#include <cstdint>
#include <string>
#include <vector>

namespace cuasmrl {
namespace cubin {

/// Launch metadata carried beside the text section.
struct KernelInfo {
  std::string Name;
  uint32_t GridX = 1, GridY = 1, GridZ = 1;
  uint32_t WarpsPerBlock = 4;
  uint32_t SharedBytes = 0;
};

/// One section of the container.
struct Section {
  std::string Name; ///< ".text", ".strtab", ".info", ...
  std::vector<uint8_t> Data;
};

/// The container.
class CubinFile {
public:
  static constexpr uint32_t Magic = 0x4e425543; // "CUBN".
  static constexpr uint32_t Version = 1;

  CubinFile() = default;

  /// \name Sections
  /// @{
  Section *findSection(const std::string &Name);
  const Section *findSection(const std::string &Name) const;
  Section &addSection(std::string Name);
  const std::vector<Section> &sections() const { return Sections; }
  /// @}

  KernelInfo &info() { return Info; }
  const KernelInfo &info() const { return Info; }

  /// \name Byte-level serialization
  /// @{
  std::vector<uint8_t> serialize() const;
  /// The inverse of serialize(): \p Bytes must hold exactly one
  /// container, so a decoded file serializes back to \p Bytes.
  /// Truncated input and trailing bytes are errors.
  static Expected<CubinFile> deserialize(const std::vector<uint8_t> &Bytes);
  /// @}

private:
  KernelInfo Info;
  std::vector<Section> Sections;
};

/// Encodes \p Prog (plus \p Info) into a container — the "assembler".
CubinFile assemble(const sass::Program &Prog, const KernelInfo &Info);

/// Decodes the container's text section back into SASS — the
/// "disassembler" the pipeline runs on intercepted cubins (§3.1).
Expected<sass::Program> disassemble(const CubinFile &File);

/// Replaces the kernel (text) section while preserving every other
/// section — the §4.1 substitution step.
void replaceKernelSection(CubinFile &File, const sass::Program &NewProg);

} // namespace cubin
} // namespace cuasmrl

#endif // CUASMRL_CUBIN_CUBIN_H
