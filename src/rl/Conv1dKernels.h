//===- rl/Conv1dKernels.h - conv1d kernel instantiations ---------*- C++ -*-===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal to rl::conv1d and its tests; not part of the public API.
///
/// The three conv1d kernels are register-tiled over a GCC vector type
/// and instantiated once per vector width: 16 bytes everywhere, and 32
/// bytes (AVX2) on x86-64. rl::conv1d runs the widest set the CPU can
/// execute. Every element any instantiation writes receives exactly the
/// float operations of the textbook loops, in the same order, so all
/// sets produce the same bits (docs/TRAINING.md, PPO section).
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_RL_CONV1DKERNELS_H
#define CUASMRL_RL_CONV1DKERNELS_H

#include <cstddef>
#include <vector>

namespace cuasmrl {
namespace rl {
namespace detail {

/// X [Cin, L], W [Cout, Cin, K], B [Cout], output [Cout, L]; K is odd
/// and the convolution is same-padded.
struct Conv1dShape {
  size_t Cin, Cout, L, K;
};

/// One instantiation of the conv1d kernels. \p G is the gradient of the
/// output, [Cout, L].
struct Conv1dKernels {
  const char *Name;
  /// Writes the convolution of X with W, plus B, to Out [Cout, L].
  void (*Forward)(const Conv1dShape &S, const float *X, const float *W,
                  const float *B, float *Out);
  /// Adds the weight and bias gradients for G to WGrad [Cout, Cin, K]
  /// and BGrad [Cout].
  void (*ParamGrad)(const Conv1dShape &S, const float *G, const float *X,
                    float *WGrad, float *BGrad);
  /// Adds the input gradient for G to XGrad [Cin, L].
  void (*InputGrad)(const Conv1dShape &S, const float *G, const float *W,
                    float *XGrad);
};

/// The set rl::conv1d uses: 32-byte tiles when the CPU has AVX2.
const Conv1dKernels &conv1dKernels();

/// Every set this CPU can execute, narrowest first.
std::vector<const Conv1dKernels *> executableConv1dKernels();

} // namespace detail
} // namespace rl
} // namespace cuasmrl

#endif // CUASMRL_RL_CONV1DKERNELS_H
