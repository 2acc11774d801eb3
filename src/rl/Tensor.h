//===- rl/Tensor.h - Minimal reverse-mode autograd tensors -------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact dynamic-graph autograd engine sized for the paper's agent:
/// 1-D/2-D/3-D float tensors, the op set PPO needs (conv1d, linear,
/// activations, masked log-softmax, reductions, elementwise arithmetic)
/// and reverse-mode differentiation over the recorded tape.
///
/// Ops take a whole minibatch: a 2-D [B, N] operand is B rows and a 1-D
/// one is a single row, and the conv stack takes a ragged batch (below).
/// Each batched op runs the single-sample arithmetic over its samples in
/// batch order, forward and backward, so every value and every gradient
/// is bit-identical to B single-sample graphs whose backward passes run
/// in batch order (docs/TRAINING.md, PPO section).
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_RL_TENSOR_H
#define CUASMRL_RL_TENSOR_H

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace cuasmrl {
namespace rl {

/// Graph node: storage, gradient and the backward closure.
struct TensorNode {
  std::vector<float> Data;
  std::vector<float> Grad;
  std::vector<size_t> Shape;
  bool RequiresGrad = false;
  /// Propagates this->Grad into the parents' Grad buffers.
  std::function<void()> Backward;
  std::vector<std::shared_ptr<TensorNode>> Parents;
  /// Traversal bookkeeping for topological sort.
  int Visited = 0;

  size_t size() const { return Data.size(); }
};

/// Value-semantics handle over a graph node.
class Tensor {
public:
  Tensor() = default;
  explicit Tensor(std::shared_ptr<TensorNode> N) : N(std::move(N)) {}

  /// \name Construction
  /// @{
  static Tensor zeros(std::vector<size_t> Shape, bool RequiresGrad = false);
  static Tensor fromVector(std::vector<float> Data,
                           std::vector<size_t> Shape,
                           bool RequiresGrad = false);
  static Tensor scalar(float Value, bool RequiresGrad = false);
  /// @}

  bool valid() const { return N != nullptr; }
  const std::vector<size_t> &shape() const { return N->Shape; }
  size_t size() const { return N->size(); }
  std::vector<float> &data() { return N->Data; }
  const std::vector<float> &data() const { return N->Data; }
  std::vector<float> &grad() { return N->Grad; }
  const std::vector<float> &grad() const { return N->Grad; }
  bool requiresGrad() const { return N->RequiresGrad; }
  float item() const { return N->Data.at(0); }

  std::shared_ptr<TensorNode> node() const { return N; }

  /// Runs reverse-mode differentiation from this (scalar) tensor.
  void backward();

  /// Zeroes the gradient buffer.
  void zeroGrad();

private:
  std::shared_ptr<TensorNode> N;
};

/// \name Elementwise ops (same-shape operands)
/// @{
Tensor add(const Tensor &A, const Tensor &B);
Tensor sub(const Tensor &A, const Tensor &B);
Tensor mul(const Tensor &A, const Tensor &B);
Tensor minElem(const Tensor &A, const Tensor &B);
Tensor neg(const Tensor &A);
Tensor expT(const Tensor &A);
Tensor relu(const Tensor &A);
Tensor tanhT(const Tensor &A);
Tensor clampRange(const Tensor &A, float Lo, float Hi);
Tensor scalarMul(const Tensor &A, float S);
/// @}

/// \name Reductions / shape ops
/// @{
Tensor sumT(const Tensor &A);                 ///< -> scalar
Tensor meanT(const Tensor &A);                ///< -> scalar
/// Per-row sum: [B, N] -> [B].
Tensor rowSums(const Tensor &A);
/// Per-row concat: [Na] + [Nb] -> [Na + Nb], [B, Na] + [B, Nb] ->
/// [B, Na + Nb].
Tensor concat(const Tensor &A, const Tensor &B);
/// Picks entry Index[r] of each row r: [B, N] -> [B] (a 1-D tensor and
/// one index give a scalar).
Tensor gather(const Tensor &A, const std::vector<size_t> &Index);
/// @}

/// \name Neural-network ops
/// @{
/// y = W x + b per row, W [Out, In], b [Out]: x [In] -> [Out], or
/// x [B, In] -> [B, Out].
Tensor linear(const Tensor &W, const Tensor &X, const Tensor &B);
/// Same-padded 1-D convolution over a ragged batch: X [Cin, sum(Lens)]
/// holds sample s as a contiguous [Cin, Lens[s]] block, samples back to
/// back (one sample is a plain [Cin, L] matrix); W [Cout, Cin, K] and
/// B [Cout] give the [Cout, sum(Lens)] batch laid out alike. K must be
/// odd, and no position reads across a sample boundary. Outputs and
/// gradients are bit-identical to the textbook scalar loops, and so
/// identical on every ISA, whichever SIMD width the CPU lets it dispatch
/// to (docs/TRAINING.md, PPO section); the input gradient is computed
/// only when X requires grad.
Tensor conv1d(const Tensor &X, const Tensor &W, const Tensor &B,
              const std::vector<size_t> &Lens);
/// Mean over each sample's length axis of a ragged batch (as conv1d
/// lays it out): [C, sum(Lens)] -> [B, C].
Tensor meanPool(const Tensor &X, const std::vector<size_t> &Lens);
/// Max over each sample's length axis: [C, sum(Lens)] -> [B, C].
Tensor maxPool(const Tensor &X, const std::vector<size_t> &Lens);
/// Sets masked-out entries (Mask[i] == 0) to -1e9; gradient flows only
/// through kept entries. Elementwise: \p Mask spans all of \p A, e.g.
/// B action masks back to back for [B, A] logits.
Tensor maskedFill(const Tensor &A, const std::vector<uint8_t> &Mask);
/// Numerically stable log-softmax of each row.
Tensor logSoftmax(const Tensor &A);
/// @}

} // namespace rl
} // namespace cuasmrl

#endif // CUASMRL_RL_TENSOR_H
