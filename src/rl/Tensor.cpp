//===- rl/Tensor.cpp -----------------------------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "rl/Tensor.h"
#include "rl/Conv1dKernels.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>

using namespace cuasmrl;
using namespace cuasmrl::rl;

Tensor Tensor::zeros(std::vector<size_t> Shape, bool RequiresGrad) {
  auto N = std::make_shared<TensorNode>();
  size_t Total = 1;
  for (size_t D : Shape)
    Total *= D;
  N->Data.assign(Total, 0.0f);
  N->Grad.assign(Total, 0.0f);
  N->Shape = std::move(Shape);
  N->RequiresGrad = RequiresGrad;
  return Tensor(N);
}

Tensor Tensor::fromVector(std::vector<float> Data, std::vector<size_t> Shape,
                          bool RequiresGrad) {
  auto N = std::make_shared<TensorNode>();
  size_t Total = 1;
  for (size_t D : Shape)
    Total *= D;
  assert(Total == Data.size() && "shape does not match data size");
  N->Grad.assign(Data.size(), 0.0f);
  N->Data = std::move(Data);
  N->Shape = std::move(Shape);
  N->RequiresGrad = RequiresGrad;
  return Tensor(N);
}

Tensor Tensor::scalar(float Value, bool RequiresGrad) {
  return fromVector({Value}, {1}, RequiresGrad);
}

void Tensor::zeroGrad() { std::fill(N->Grad.begin(), N->Grad.end(), 0.0f); }

void Tensor::backward() {
  assert(N->size() == 1 && "backward() expects a scalar loss");
  // Topological order by iterative DFS.
  std::vector<TensorNode *> Order;
  std::vector<TensorNode *> Stack = {N.get()};
  while (!Stack.empty()) {
    TensorNode *Cur = Stack.back();
    if (Cur->Visited == 2) {
      Stack.pop_back();
      continue;
    }
    if (Cur->Visited == 1) {
      Cur->Visited = 2;
      Order.push_back(Cur);
      Stack.pop_back();
      continue;
    }
    Cur->Visited = 1;
    for (const auto &P : Cur->Parents)
      if (P->Visited == 0)
        Stack.push_back(P.get());
  }
  N->Grad[0] = 1.0f;
  for (auto It = Order.rbegin(); It != Order.rend(); ++It) {
    if ((*It)->Backward)
      (*It)->Backward();
    (*It)->Visited = 0;
  }
}

namespace {

std::shared_ptr<TensorNode> makeNode(std::vector<size_t> Shape,
                                     std::vector<std::shared_ptr<TensorNode>>
                                         Parents) {
  auto N = std::make_shared<TensorNode>();
  size_t Total = 1;
  for (size_t D : Shape)
    Total *= D;
  N->Data.assign(Total, 0.0f);
  N->Grad.assign(Total, 0.0f);
  N->Shape = std::move(Shape);
  for (const auto &P : Parents)
    N->RequiresGrad = N->RequiresGrad || P->RequiresGrad;
  N->Parents = std::move(Parents);
  return N;
}

/// Rows of a batched operand: [B, N] is B rows, a 1-D tensor one.
size_t rowsOf(const Tensor &A) {
  return A.shape().size() == 2 ? A.shape()[0] : 1;
}

/// The shape of a per-row op's result with \p N entries per row, 1-D
/// for a 1-D operand.
std::vector<size_t> rowShape(const Tensor &A, size_t N) {
  if (A.shape().size() == 2)
    return {A.shape()[0], N};
  return {N};
}

} // namespace

Tensor rl::add(const Tensor &A, const Tensor &B) {
  assert(A.size() == B.size());
  auto N = makeNode(A.shape(), {A.node(), B.node()});
  for (size_t I = 0; I < N->size(); ++I)
    N->Data[I] = A.data()[I] + B.data()[I];
  auto An = A.node(), Bn = B.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [An, Bn, Self] {
    auto S = Self.lock();
    for (size_t I = 0; I < S->size(); ++I) {
      An->Grad[I] += S->Grad[I];
      Bn->Grad[I] += S->Grad[I];
    }
  };
  return Tensor(N);
}

Tensor rl::sub(const Tensor &A, const Tensor &B) {
  assert(A.size() == B.size());
  auto N = makeNode(A.shape(), {A.node(), B.node()});
  for (size_t I = 0; I < N->size(); ++I)
    N->Data[I] = A.data()[I] - B.data()[I];
  auto An = A.node(), Bn = B.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [An, Bn, Self] {
    auto S = Self.lock();
    for (size_t I = 0; I < S->size(); ++I) {
      An->Grad[I] += S->Grad[I];
      Bn->Grad[I] -= S->Grad[I];
    }
  };
  return Tensor(N);
}

Tensor rl::mul(const Tensor &A, const Tensor &B) {
  assert(A.size() == B.size());
  auto N = makeNode(A.shape(), {A.node(), B.node()});
  for (size_t I = 0; I < N->size(); ++I)
    N->Data[I] = A.data()[I] * B.data()[I];
  auto An = A.node(), Bn = B.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [An, Bn, Self] {
    auto S = Self.lock();
    for (size_t I = 0; I < S->size(); ++I) {
      An->Grad[I] += S->Grad[I] * Bn->Data[I];
      Bn->Grad[I] += S->Grad[I] * An->Data[I];
    }
  };
  return Tensor(N);
}

Tensor rl::minElem(const Tensor &A, const Tensor &B) {
  assert(A.size() == B.size());
  auto N = makeNode(A.shape(), {A.node(), B.node()});
  for (size_t I = 0; I < N->size(); ++I)
    N->Data[I] = std::min(A.data()[I], B.data()[I]);
  auto An = A.node(), Bn = B.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [An, Bn, Self] {
    auto S = Self.lock();
    for (size_t I = 0; I < S->size(); ++I) {
      if (An->Data[I] <= Bn->Data[I])
        An->Grad[I] += S->Grad[I];
      else
        Bn->Grad[I] += S->Grad[I];
    }
  };
  return Tensor(N);
}

Tensor rl::neg(const Tensor &A) { return scalarMul(A, -1.0f); }

Tensor rl::expT(const Tensor &A) {
  auto N = makeNode(A.shape(), {A.node()});
  for (size_t I = 0; I < N->size(); ++I)
    N->Data[I] = std::exp(A.data()[I]);
  auto An = A.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [An, Self] {
    auto S = Self.lock();
    for (size_t I = 0; I < S->size(); ++I)
      An->Grad[I] += S->Grad[I] * S->Data[I];
  };
  return Tensor(N);
}

Tensor rl::relu(const Tensor &A) {
  auto N = makeNode(A.shape(), {A.node()});
  for (size_t I = 0; I < N->size(); ++I)
    N->Data[I] = std::max(0.0f, A.data()[I]);
  auto An = A.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [An, Self] {
    auto S = Self.lock();
    for (size_t I = 0; I < S->size(); ++I)
      if (An->Data[I] > 0.0f)
        An->Grad[I] += S->Grad[I];
  };
  return Tensor(N);
}

Tensor rl::tanhT(const Tensor &A) {
  auto N = makeNode(A.shape(), {A.node()});
  for (size_t I = 0; I < N->size(); ++I)
    N->Data[I] = std::tanh(A.data()[I]);
  auto An = A.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [An, Self] {
    auto S = Self.lock();
    for (size_t I = 0; I < S->size(); ++I)
      An->Grad[I] += S->Grad[I] * (1.0f - S->Data[I] * S->Data[I]);
  };
  return Tensor(N);
}

Tensor rl::clampRange(const Tensor &A, float Lo, float Hi) {
  auto N = makeNode(A.shape(), {A.node()});
  for (size_t I = 0; I < N->size(); ++I)
    N->Data[I] = std::clamp(A.data()[I], Lo, Hi);
  auto An = A.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [An, Self, Lo, Hi] {
    auto S = Self.lock();
    for (size_t I = 0; I < S->size(); ++I)
      if (An->Data[I] > Lo && An->Data[I] < Hi)
        An->Grad[I] += S->Grad[I];
  };
  return Tensor(N);
}

Tensor rl::scalarMul(const Tensor &A, float Sc) {
  auto N = makeNode(A.shape(), {A.node()});
  for (size_t I = 0; I < N->size(); ++I)
    N->Data[I] = A.data()[I] * Sc;
  auto An = A.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [An, Self, Sc] {
    auto S = Self.lock();
    for (size_t I = 0; I < S->size(); ++I)
      An->Grad[I] += S->Grad[I] * Sc;
  };
  return Tensor(N);
}

Tensor rl::sumT(const Tensor &A) {
  auto N = makeNode({1}, {A.node()});
  float Total = 0.0f;
  for (float V : A.data())
    Total += V;
  N->Data[0] = Total;
  auto An = A.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [An, Self] {
    auto S = Self.lock();
    for (size_t I = 0; I < An->size(); ++I)
      An->Grad[I] += S->Grad[0];
  };
  return Tensor(N);
}

Tensor rl::meanT(const Tensor &A) {
  return scalarMul(sumT(A), 1.0f / static_cast<float>(A.size()));
}

Tensor rl::rowSums(const Tensor &A) {
  const size_t Rows = rowsOf(A), Cols = A.size() / Rows;
  auto N = makeNode({Rows}, {A.node()});
  for (size_t R = 0; R < Rows; ++R) {
    float Total = 0.0f;
    for (size_t I = 0; I < Cols; ++I)
      Total += A.data()[R * Cols + I];
    N->Data[R] = Total;
  }
  auto An = A.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [An, Self, Rows, Cols] {
    auto S = Self.lock();
    for (size_t R = 0; R < Rows; ++R)
      for (size_t I = 0; I < Cols; ++I)
        An->Grad[R * Cols + I] += S->Grad[R];
  };
  return Tensor(N);
}

Tensor rl::concat(const Tensor &A, const Tensor &B) {
  const size_t Rows = rowsOf(A);
  assert(rowsOf(B) == Rows && "concat operands differ in rows");
  const size_t NA = A.size() / Rows, NB = B.size() / Rows;
  auto N = makeNode(rowShape(A, NA + NB), {A.node(), B.node()});
  for (size_t R = 0; R < Rows; ++R) {
    float *Row = N->Data.data() + R * (NA + NB);
    std::copy_n(A.data().begin() + R * NA, NA, Row);
    std::copy_n(B.data().begin() + R * NB, NB, Row + NA);
  }
  auto An = A.node(), Bn = B.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [An, Bn, Self, Rows, NA, NB] {
    auto S = Self.lock();
    for (size_t R = 0; R < Rows; ++R) {
      const float *G = S->Grad.data() + R * (NA + NB);
      for (size_t I = 0; I < NA; ++I)
        An->Grad[R * NA + I] += G[I];
      for (size_t I = 0; I < NB; ++I)
        Bn->Grad[R * NB + I] += G[NA + I];
    }
  };
  return Tensor(N);
}

Tensor rl::gather(const Tensor &A, const std::vector<size_t> &Index) {
  const size_t Rows = Index.size();
  assert(Rows == rowsOf(A) && "one index per row");
  const size_t Cols = A.size() / Rows;
  auto N = makeNode({Rows}, {A.node()});
  for (size_t R = 0; R < Rows; ++R) {
    assert(Index[R] < Cols);
    N->Data[R] = A.data()[R * Cols + Index[R]];
  }
  auto An = A.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [An, Self, Index, Cols] {
    auto S = Self.lock();
    for (size_t R = 0; R < Index.size(); ++R)
      An->Grad[R * Cols + Index[R]] += S->Grad[R];
  };
  return Tensor(N);
}

Tensor rl::linear(const Tensor &W, const Tensor &X, const Tensor &B) {
  assert(W.shape().size() == 2 && "weight must be [Out, In]");
  size_t Out = W.shape()[0], In = W.shape()[1];
  size_t Rows = rowsOf(X);
  assert(X.size() == Rows * In && B.size() == Out);
  auto N = makeNode(rowShape(X, Out), {W.node(), X.node(), B.node()});
  for (size_t R = 0; R < Rows; ++R) {
    const float *XRow = X.data().data() + R * In;
    for (size_t O = 0; O < Out; ++O) {
      float Acc = B.data()[O];
      const float *Row = W.data().data() + O * In;
      for (size_t I = 0; I < In; ++I)
        Acc += Row[I] * XRow[I];
      N->Data[R * Out + O] = Acc;
    }
  }
  auto Wn = W.node(), Xn = X.node(), Bn = B.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [Wn, Xn, Bn, Self, Rows, Out, In] {
    auto S = Self.lock();
    // Row by row, so each weight and bias gradient element takes the
    // rows' terms in row order.
    for (size_t R = 0; R < Rows; ++R) {
      const float *XRow = Xn->Data.data() + R * In;
      float *XGrad = Xn->Grad.data() + R * In;
      for (size_t O = 0; O < Out; ++O) {
        float G = S->Grad[R * Out + O];
        if (G == 0.0f)
          continue;
        Bn->Grad[O] += G;
        float *WRow = Wn->Grad.data() + O * In;
        const float *WData = Wn->Data.data() + O * In;
        for (size_t I = 0; I < In; ++I) {
          WRow[I] += G * XRow[I];
          XGrad[I] += G * WData[I];
        }
      }
    }
  };
  return Tensor(N);
}

//===----------------------------------------------------------------------===//
// conv1d kernels
//
// Each kernel is a register tile of Rows x 2 vectors whose 2 * Rows
// accumulators stay live for a whole reduction; the tiles only choose
// which elements are in flight at once. Every element still receives
// exactly the float operations of the textbook loops, in the same
// order: per output, the bias, then its taps in (C, T) order; per
// weight or bias gradient, the positions in ascending order; per input
// gradient, (O, P) in ascending order. docs/TRAINING.md spells out why
// the liberties the backward takes (no G == 0 skip, zeros read for
// out-of-range taps) are exact, and why the forward takes none.
//===----------------------------------------------------------------------===//

namespace {

using detail::Conv1dShape;

/// Taps [Lo, Hi) that read an in-range input position P + T - Pad at
/// output position \p P. Empty when Lo >= Hi.
struct TapRange {
  size_t Lo, Hi;
};

TapRange tapsAt(size_t P, size_t Pad, size_t K, size_t L) {
  return {P < Pad ? Pad - P : 0, std::min(K, L + Pad - P)};
}

/// Floats per copy when the weight gradient gathers its input windows.
constexpr size_t Run = 8;

/// \p N rounded up to a whole number of \p Span-wide tiles.
size_t roundUp(size_t N, size_t Span) { return (N + Span - 1) / Span * Span; }

/// BGrad[O] += G[O][P] over ascending P.
void biasGrad(const Conv1dShape &S, const float *G, float *BGrad) {
  for (size_t P = 0; P < S.L; ++P)
    for (size_t O = 0; O < S.Cout; ++O)
      BGrad[O] += G[O * S.L + P];
}

// The tiles below are templates over a GCC vector type V and are
// always inlined, so each instantiation compiles for the ISA of the
// entry point that calls it. Vectors move through memcpy and
// references: a 32-byte vector passed or returned by value from code
// built without AVX changes the ABI (-Wpsabi). A broadcast of a scalar
// b is written `b - V{}` or as a scalar-vector operation, never
// `V{} + b`, which turns a -0 scalar into +0.

template <typename V> constexpr size_t lanes() {
  return sizeof(V) / sizeof(float);
}

template <typename V>
[[gnu::always_inline]] inline void load(V &Out, const float *P) {
  std::memcpy(&Out, P, sizeof(V));
}

template <typename V>
[[gnu::always_inline]] inline void store(float *P, const V &In) {
  std::memcpy(P, &In, sizeof(V));
}

/// Output channels [O, O + Rows) at positions [P, P + 2 * lanes), all of
/// whose taps are in range.
template <typename V, size_t Rows>
[[gnu::always_inline]] inline void
forwardTile(const Conv1dShape &S, const float *X, const float *W,
            const float *B, float *Out, size_t O, size_t P) {
  constexpr size_t N = lanes<V>();
  const size_t Taps = S.Cin * S.K, Pad = S.K / 2;
  V Acc[Rows][2] = {};
  for (size_t R = 0; R < Rows; ++R) {
    Acc[R][0] = B[O + R] - V{};
    Acc[R][1] = Acc[R][0];
  }
  for (size_t C = 0; C < S.Cin; ++C) {
    const float *XRow = X + C * S.L + P - Pad;
    const float *WTap = W + O * Taps + C * S.K;
    for (size_t T = 0; T < S.K; ++T) {
      V X0 = {}, X1 = {};
      load(X0, XRow + T);
      load(X1, XRow + T + N);
      for (size_t R = 0; R < Rows; ++R) {
        const float Wt = WTap[R * Taps + T];
        Acc[R][0] += Wt * X0;
        Acc[R][1] += Wt * X1;
      }
    }
  }
  for (size_t R = 0; R < Rows; ++R) {
    store(Out + (O + R) * S.L + P, Acc[R][0]);
    store(Out + (O + R) * S.L + P + N, Acc[R][1]);
  }
}

/// The forward at output positions [Lo, Hi), with bounds-checked taps,
/// vectorized over output channels: WT is W transposed to
/// [Cin * K, Width] and BP is B, both zero-padded to Width, a whole
/// number of vectors.
template <typename V>
[[gnu::always_inline]] inline void
forwardEdges(const Conv1dShape &S, const float *X, const float *WT,
             const float *BP, size_t Width, float *Out, size_t Lo,
             size_t Hi) {
  constexpr size_t N = lanes<V>();
  const size_t Pad = S.K / 2;
  for (size_t P = Lo; P < Hi; ++P) {
    const TapRange R = tapsAt(P, Pad, S.K, S.L);
    for (size_t J = 0; J < Width; J += N) {
      V Acc = {};
      load(Acc, BP + J);
      for (size_t C = 0; C < S.Cin; ++C)
        for (size_t T = R.Lo; T < R.Hi; ++T) {
          V Wv = {};
          load(Wv, WT + (C * S.K + T) * Width + J);
          Acc += Wv * X[C * S.L + P + T - Pad];
        }
      float Col[N] = {};
      store(Col, Acc);
      for (size_t O = J; O < std::min(J + N, S.Cout); ++O)
        Out[O * S.L + P] = Col[O - J];
    }
  }
}

/// Tiles cover the interior positions [Pad, L - Pad), where every tap is
/// in range; the last tile shifts left to end at L - Pad. Outputs are
/// stored, not accumulated, so a position two tiles cover gets the same
/// value twice. The 2 * Pad edge positions, or every position of a row
/// too short for one tile, take bounds-checked loops: the forward may
/// not read zeros for out-of-range taps, because its sums start at a
/// bias that may be -0.
template <typename V>
[[gnu::always_inline]] inline void forwardKernel(const Conv1dShape &S,
                                                 const float *X,
                                                 const float *W,
                                                 const float *B, float *Out) {
  constexpr size_t N = lanes<V>(), Span = 2 * N;
  const size_t Taps = S.Cin * S.K, Pad = S.K / 2;
  const size_t Width = roundUp(S.Cout, N);
  std::vector<float> WT(Taps * Width, 0.0f), BP(Width, 0.0f);
  std::copy(B, B + S.Cout, BP.begin());
  for (size_t O = 0; O < S.Cout; ++O)
    for (size_t I = 0; I < Taps; ++I)
      WT[I * Width + O] = W[O * Taps + I];
  if (S.L < 2 * Pad + Span) {
    forwardEdges<V>(S, X, WT.data(), BP.data(), Width, Out, 0, S.L);
    return;
  }
  const size_t Last = S.L - Pad - Span;
  for (size_t P = Pad;; P += Span) {
    const size_t At = std::min(P, Last);
    size_t O = 0;
    for (; O + 4 <= S.Cout; O += 4)
      forwardTile<V, 4>(S, X, W, B, Out, O, At);
    for (; O < S.Cout; ++O)
      forwardTile<V, 1>(S, X, W, B, Out, O, At);
    if (At == Last)
      break;
  }
  forwardEdges<V>(S, X, WT.data(), BP.data(), Width, Out, 0, Pad);
  forwardEdges<V>(S, X, WT.data(), BP.data(), Width, Out, S.L - Pad, S.L);
}

/// Weight-gradient rows [O, O + Rows), columns [I, I + 2 * lanes): each
/// column gains G times its Window column, position by position.
template <typename V, size_t Rows>
[[gnu::always_inline]] inline void
paramGradTile(size_t L, size_t Stride, const float *G, const float *Window,
              float *Staged, size_t O, size_t I) {
  constexpr size_t N = lanes<V>();
  V Acc[Rows][2] = {};
  for (size_t R = 0; R < Rows; ++R) {
    load(Acc[R][0], Staged + (O + R) * Stride + I);
    load(Acc[R][1], Staged + (O + R) * Stride + I + N);
  }
  for (size_t P = 0; P < L; ++P) {
    V W0 = {}, W1 = {};
    load(W0, Window + P * Stride + I);
    load(W1, Window + P * Stride + I + N);
    for (size_t R = 0; R < Rows; ++R) {
      const float Gv = G[(O + R) * L + P];
      Acc[R][0] += Gv * W0;
      Acc[R][1] += Gv * W1;
    }
  }
  for (size_t R = 0; R < Rows; ++R) {
    store(Staged + (O + R) * Stride + I, Acc[R][0]);
    store(Staged + (O + R) * Stride + I + N, Acc[R][1]);
  }
}

/// Row P of Window holds what every (input channel, tap) reads at output
/// position P, laid out like a [Cin, K] weight row, with zeros for
/// out-of-range taps and zero columns up to a whole number of tiles.
/// The weight-gradient rows are staged at the same stride, so no column
/// is left over, and copied back afterwards.
template <typename V>
[[gnu::always_inline]] inline void
paramGradKernel(const Conv1dShape &S, const float *G, const float *X,
                float *WGrad, float *BGrad) {
  constexpr size_t Span = 2 * lanes<V>();
  const size_t Taps = S.Cin * S.K, Pad = S.K / 2;
  const size_t Stride = roundUp(Taps, Span);
  std::vector<float> Window(S.L * Stride, 0.0f);
  for (size_t P = 0; P < S.L; ++P) {
    const TapRange R = tapsAt(P, Pad, S.K, S.L);
    float *Row = Window.data() + P * Stride;
    for (size_t C = 0; C < S.Cin; ++C) {
      // A run of K in-range taps is copied as Run floats at once when
      // source and row have room; the next channel's run overwrites
      // the excess.
      if (R.Lo == 0 && R.Hi == S.K && S.K <= Run && C * S.K + Run <= Taps &&
          C * S.L + P - Pad + Run <= S.Cin * S.L) {
        std::memcpy(Row + C * S.K, X + C * S.L + P - Pad, Run * sizeof(float));
        continue;
      }
      for (size_t T = R.Lo; T < R.Hi; ++T)
        Row[C * S.K + T] = X[C * S.L + P + T - Pad];
    }
  }
  std::vector<float> Staged(S.Cout * Stride, 0.0f);
  for (size_t O = 0; O < S.Cout; ++O)
    std::copy(WGrad + O * Taps, WGrad + (O + 1) * Taps,
              Staged.begin() + O * Stride);
  for (size_t I = 0; I < Stride; I += Span) {
    size_t O = 0;
    for (; O + 4 <= S.Cout; O += 4)
      paramGradTile<V, 4>(S.L, Stride, G, Window.data(), Staged.data(), O, I);
    for (; O < S.Cout; ++O)
      paramGradTile<V, 1>(S.L, Stride, G, Window.data(), Staged.data(), O, I);
  }
  for (size_t O = 0; O < S.Cout; ++O)
    std::copy(Staged.begin() + O * Stride, Staged.begin() + O * Stride + Taps,
              WGrad + O * Taps);
  biasGrad(S, G, BGrad);
}

/// Input-gradient rows [C, C + Rows), positions [Q, Q + 2 * lanes): per
/// output channel, taps in descending order, so each position gets its
/// terms in ascending output-position order.
template <typename V, size_t Rows>
[[gnu::always_inline]] inline void
inputGradTile(const Conv1dShape &S, size_t Stride, const float *GPad,
              const float *W, float *Staged, size_t C, size_t Q) {
  constexpr size_t N = lanes<V>();
  const size_t Taps = S.Cin * S.K, GStride = Stride + S.K - 1;
  V Acc[Rows][2] = {};
  for (size_t R = 0; R < Rows; ++R) {
    load(Acc[R][0], Staged + (C + R) * Stride + Q);
    load(Acc[R][1], Staged + (C + R) * Stride + Q + N);
  }
  for (size_t O = 0; O < S.Cout; ++O) {
    // Tap T reads output position Q + Pad - T, which GPad holds at
    // Q + 2 * Pad - T = Q + K - 1 - T.
    const float *GRow = GPad + O * GStride + Q + S.K - 1;
    const float *WTap = W + O * Taps + C * S.K;
    for (size_t T = S.K; T-- > 0;) {
      V G0 = {}, G1 = {};
      load(G0, GRow - T);
      load(G1, GRow - T + N);
      for (size_t R = 0; R < Rows; ++R) {
        const float Wt = WTap[R * S.K + T];
        Acc[R][0] += G0 * Wt;
        Acc[R][1] += G1 * Wt;
      }
    }
  }
  for (size_t R = 0; R < Rows; ++R) {
    store(Staged + (C + R) * Stride + Q, Acc[R][0]);
    store(Staged + (C + R) * Stride + Q + N, Acc[R][1]);
  }
}

/// GPad holds each row of G with K - 1 zeros around it (Pad on each
/// side) and zero columns up to a whole number of tiles, so every tap of
/// every position reads in bounds. The input-gradient rows are staged at
/// the tile stride and copied back afterwards.
template <typename V>
[[gnu::always_inline]] inline void inputGradKernel(const Conv1dShape &S,
                                                   const float *G,
                                                   const float *W,
                                                   float *XGrad) {
  constexpr size_t Span = 2 * lanes<V>();
  const size_t Pad = S.K / 2;
  const size_t Stride = roundUp(S.L, Span), GStride = Stride + S.K - 1;
  std::vector<float> GPad(S.Cout * GStride, 0.0f);
  for (size_t O = 0; O < S.Cout; ++O)
    std::copy(G + O * S.L, G + (O + 1) * S.L,
              GPad.begin() + O * GStride + Pad);
  std::vector<float> Staged(S.Cin * Stride, 0.0f);
  for (size_t C = 0; C < S.Cin; ++C)
    std::copy(XGrad + C * S.L, XGrad + (C + 1) * S.L,
              Staged.begin() + C * Stride);
  for (size_t Q = 0; Q < Stride; Q += Span) {
    size_t C = 0;
    for (; C + 4 <= S.Cin; C += 4)
      inputGradTile<V, 4>(S, Stride, GPad.data(), W, Staged.data(), C, Q);
    for (; C < S.Cin; ++C)
      inputGradTile<V, 1>(S, Stride, GPad.data(), W, Staged.data(), C, Q);
  }
  for (size_t C = 0; C < S.Cin; ++C)
    std::copy(Staged.begin() + C * Stride, Staged.begin() + C * Stride + S.L,
              XGrad + C * S.L);
}

typedef float Vec16 __attribute__((vector_size(16)));

void forward16(const Conv1dShape &S, const float *X, const float *W,
               const float *B, float *Out) {
  forwardKernel<Vec16>(S, X, W, B, Out);
}
void paramGrad16(const Conv1dShape &S, const float *G, const float *X,
                 float *WGrad, float *BGrad) {
  paramGradKernel<Vec16>(S, G, X, WGrad, BGrad);
}
void inputGrad16(const Conv1dShape &S, const float *G, const float *W,
                 float *XGrad) {
  inputGradKernel<Vec16>(S, G, W, XGrad);
}
const detail::Conv1dKernels Kernels16 = {"16-byte", forward16, paramGrad16,
                                         inputGrad16};

#if defined(__x86_64__)
// AVX2 only: no FMA, which would fuse each multiply-add into one
// rounding. The build pins -ffp-contract=off for the same reason.
typedef float Vec32 __attribute__((vector_size(32)));

__attribute__((target("avx2"))) void forward32(const Conv1dShape &S,
                                               const float *X, const float *W,
                                               const float *B, float *Out) {
  forwardKernel<Vec32>(S, X, W, B, Out);
}
__attribute__((target("avx2"))) void paramGrad32(const Conv1dShape &S,
                                                 const float *G,
                                                 const float *X, float *WGrad,
                                                 float *BGrad) {
  paramGradKernel<Vec32>(S, G, X, WGrad, BGrad);
}
__attribute__((target("avx2"))) void
inputGrad32(const Conv1dShape &S, const float *G, const float *W,
            float *XGrad) {
  inputGradKernel<Vec32>(S, G, W, XGrad);
}
const detail::Conv1dKernels Kernels32 = {"32-byte (AVX2)", forward32,
                                         paramGrad32, inputGrad32};

bool cpuHasAvx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}
#endif

} // namespace

const detail::Conv1dKernels &detail::conv1dKernels() {
  static const Conv1dKernels &Dispatched = *executableConv1dKernels().back();
  return Dispatched;
}

std::vector<const detail::Conv1dKernels *>
detail::executableConv1dKernels() {
  std::vector<const Conv1dKernels *> Sets = {&Kernels16};
#if defined(__x86_64__)
  if (cpuHasAvx2())
    Sets.push_back(&Kernels32);
#endif
  return Sets;
}

Tensor rl::conv1d(const Tensor &X, const Tensor &W, const Tensor &B,
                  const std::vector<size_t> &Lens) {
  assert(X.shape().size() == 2 && W.shape().size() == 3);
  const size_t Cin = X.shape()[0], Cout = W.shape()[0], K = W.shape()[2];
  assert(W.shape()[1] == Cin && B.size() == Cout && K % 2 == 1);
  assert(std::accumulate(Lens.begin(), Lens.end(), size_t(0)) ==
             X.shape()[1] &&
         "lengths must cover the batch");
  const detail::Conv1dKernels *Kernels = &detail::conv1dKernels();

  auto N = makeNode({Cout, X.shape()[1]}, {X.node(), W.node(), B.node()});
  for (size_t S = 0, At = 0; S < Lens.size(); At += Lens[S++])
    Kernels->Forward({Cin, Cout, Lens[S], K}, X.data().data() + Cin * At,
                     W.data().data(), B.data().data(),
                     N->Data.data() + Cout * At);
  auto Xn = X.node(), Wn = W.node(), Bn = B.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [Xn, Wn, Bn, Self, Lens, Cin, Cout, K, Kernels] {
    auto Node = Self.lock();
    // Sample by sample, so each weight and bias gradient element takes
    // the samples' terms in batch order.
    for (size_t S = 0, At = 0; S < Lens.size(); At += Lens[S++]) {
      const detail::Conv1dShape Shape{Cin, Cout, Lens[S], K};
      const float *G = Node->Grad.data() + Cout * At;
      Kernels->ParamGrad(Shape, G, Xn->Data.data() + Cin * At,
                         Wn->Grad.data(), Bn->Grad.data());
      // conv1's input is the observation, which needs no gradient.
      if (Xn->RequiresGrad)
        Kernels->InputGrad(Shape, G, Wn->Data.data(),
                           Xn->Grad.data() + Cin * At);
    }
  };
  return Tensor(N);
}

Tensor rl::meanPool(const Tensor &X, const std::vector<size_t> &Lens) {
  assert(X.shape().size() == 2);
  const size_t C = X.shape()[0], Batch = Lens.size();
  auto N = makeNode({Batch, C}, {X.node()});
  for (size_t S = 0, At = 0; S < Batch; At += Lens[S++]) {
    const size_t L = Lens[S];
    const float *Block = X.data().data() + C * At;
    for (size_t Ch = 0; Ch < C; ++Ch) {
      float Acc = 0.0f;
      for (size_t P = 0; P < L; ++P)
        Acc += Block[Ch * L + P];
      N->Data[S * C + Ch] = Acc / static_cast<float>(L);
    }
  }
  auto Xn = X.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [Xn, Self, Lens, C] {
    auto Node = Self.lock();
    for (size_t S = 0, At = 0; S < Lens.size(); At += Lens[S++]) {
      const size_t L = Lens[S];
      float *Block = Xn->Grad.data() + C * At;
      for (size_t Ch = 0; Ch < C; ++Ch) {
        float G = Node->Grad[S * C + Ch] / static_cast<float>(L);
        for (size_t P = 0; P < L; ++P)
          Block[Ch * L + P] += G;
      }
    }
  };
  return Tensor(N);
}

Tensor rl::maxPool(const Tensor &X, const std::vector<size_t> &Lens) {
  assert(X.shape().size() == 2);
  const size_t C = X.shape()[0], Batch = Lens.size();
  auto N = makeNode({Batch, C}, {X.node()});
  // The flat index of each (sample, channel) maximum.
  auto ArgMax = std::make_shared<std::vector<size_t>>(Batch * C, 0);
  for (size_t S = 0, At = 0; S < Batch; At += Lens[S++]) {
    const size_t L = Lens[S];
    for (size_t Ch = 0; Ch < C; ++Ch) {
      const size_t Row = C * At + Ch * L;
      size_t Best = 0;
      for (size_t P = 1; P < L; ++P)
        if (X.data()[Row + P] > X.data()[Row + Best])
          Best = P;
      (*ArgMax)[S * C + Ch] = Row + Best;
      N->Data[S * C + Ch] = X.data()[Row + Best];
    }
  }
  auto Xn = X.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [Xn, Self, ArgMax] {
    auto S = Self.lock();
    for (size_t I = 0; I < S->size(); ++I)
      Xn->Grad[(*ArgMax)[I]] += S->Grad[I];
  };
  return Tensor(N);
}

Tensor rl::maskedFill(const Tensor &A, const std::vector<uint8_t> &Mask) {
  assert(A.size() == Mask.size());
  auto N = makeNode(A.shape(), {A.node()});
  auto MaskCopy = std::make_shared<std::vector<uint8_t>>(Mask);
  for (size_t I = 0; I < N->size(); ++I)
    N->Data[I] = Mask[I] ? A.data()[I] : -1e9f;
  auto An = A.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [An, Self, MaskCopy] {
    auto S = Self.lock();
    for (size_t I = 0; I < S->size(); ++I)
      if ((*MaskCopy)[I])
        An->Grad[I] += S->Grad[I];
  };
  return Tensor(N);
}

Tensor rl::logSoftmax(const Tensor &A) {
  const size_t Rows = rowsOf(A), Cols = A.size() / Rows;
  auto N = makeNode(A.shape(), {A.node()});
  for (size_t R = 0; R < Rows; ++R) {
    const float *In = A.data().data() + R * Cols;
    float Max = -1e30f;
    for (size_t I = 0; I < Cols; ++I)
      Max = std::max(Max, In[I]);
    float Sum = 0.0f;
    for (size_t I = 0; I < Cols; ++I)
      Sum += std::exp(In[I] - Max);
    float LogZ = Max + std::log(Sum);
    for (size_t I = 0; I < Cols; ++I)
      N->Data[R * Cols + I] = In[I] - LogZ;
  }
  auto An = A.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [An, Self, Rows, Cols] {
    auto S = Self.lock();
    for (size_t R = 0; R < Rows; ++R) {
      const float *G = S->Grad.data() + R * Cols;
      const float *Out = S->Data.data() + R * Cols;
      float GradSum = 0.0f;
      for (size_t I = 0; I < Cols; ++I)
        GradSum += G[I];
      for (size_t I = 0; I < Cols; ++I)
        An->Grad[R * Cols + I] += G[I] - std::exp(Out[I]) * GradSum;
    }
  };
  return Tensor(N);
}
