//===- rl/Tensor.cpp -----------------------------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "rl/Tensor.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>

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

Tensor rl::scalarAdd(const Tensor &A, float Sc) {
  auto N = makeNode(A.shape(), {A.node()});
  for (size_t I = 0; I < N->size(); ++I)
    N->Data[I] = A.data()[I] + Sc;
  auto An = A.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [An, Self] {
    auto S = Self.lock();
    for (size_t I = 0; I < S->size(); ++I)
      An->Grad[I] += S->Grad[I];
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

Tensor rl::concat(const Tensor &A, const Tensor &B) {
  auto N = makeNode({A.size() + B.size()}, {A.node(), B.node()});
  std::copy(A.data().begin(), A.data().end(), N->Data.begin());
  std::copy(B.data().begin(), B.data().end(),
            N->Data.begin() + A.size());
  auto An = A.node(), Bn = B.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [An, Bn, Self] {
    auto S = Self.lock();
    for (size_t I = 0; I < An->size(); ++I)
      An->Grad[I] += S->Grad[I];
    for (size_t I = 0; I < Bn->size(); ++I)
      Bn->Grad[I] += S->Grad[An->size() + I];
  };
  return Tensor(N);
}

Tensor rl::gather(const Tensor &A, size_t Index) {
  assert(Index < A.size());
  auto N = makeNode({1}, {A.node()});
  N->Data[0] = A.data()[Index];
  auto An = A.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [An, Self, Index] {
    auto S = Self.lock();
    An->Grad[Index] += S->Grad[0];
  };
  return Tensor(N);
}

Tensor rl::linear(const Tensor &W, const Tensor &X, const Tensor &B) {
  assert(W.shape().size() == 2 && "weight must be [Out, In]");
  size_t Out = W.shape()[0], In = W.shape()[1];
  assert(X.size() == In && B.size() == Out);
  auto N = makeNode({Out}, {W.node(), X.node(), B.node()});
  for (size_t O = 0; O < Out; ++O) {
    float Acc = B.data()[O];
    const float *Row = W.data().data() + O * In;
    for (size_t I = 0; I < In; ++I)
      Acc += Row[I] * X.data()[I];
    N->Data[O] = Acc;
  }
  auto Wn = W.node(), Xn = X.node(), Bn = B.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [Wn, Xn, Bn, Self, Out, In] {
    auto S = Self.lock();
    for (size_t O = 0; O < Out; ++O) {
      float G = S->Grad[O];
      if (G == 0.0f)
        continue;
      Bn->Grad[O] += G;
      float *WRow = Wn->Grad.data() + O * In;
      const float *WData = Wn->Data.data() + O * In;
      for (size_t I = 0; I < In; ++I) {
        WRow[I] += G * Xn->Data[I];
        Xn->Grad[I] += G * WData[I];
      }
    }
  };
  return Tensor(N);
}

namespace {

/// Output positions [Lo, Hi) at which tap \p T of a same-padded kernel
/// reads an in-range input position P + T - Pad. Empty when Lo >= Hi.
struct TapRange {
  size_t Lo, Hi;
};

TapRange tapRange(size_t T, size_t Pad, size_t L) {
  size_t Lo = T < Pad ? Pad - T : 0;
  size_t Shift = T > Pad ? T - Pad : 0;
  return {Lo, L > Shift ? L - Shift : 0};
}

} // namespace

// Every loop below gives each element exactly the float operations of
// the textbook loops, in the same order (per output: bias, then taps in
// (C, T) order; per weight or bias gradient: positions in ascending
// order; per input gradient: (O, P) in ascending order). The innermost
// loops run over independent elements, so they vectorize without
// reassociating any sum. docs/TRAINING.md spells out why the two
// liberties the backward takes (no G == 0 skip, zeros read for
// out-of-range taps) are exact.
Tensor rl::conv1d(const Tensor &X, const Tensor &W, const Tensor &B) {
  assert(X.shape().size() == 2 && W.shape().size() == 3);
  size_t Cin = X.shape()[0], L = X.shape()[1];
  size_t Cout = W.shape()[0], K = W.shape()[2];
  assert(W.shape()[1] == Cin && B.size() == Cout && K % 2 == 1);
  size_t Pad = K / 2;

  auto N = makeNode({Cout, L}, {X.node(), W.node(), B.node()});
  for (size_t O = 0; O < Cout; ++O) {
    float *Out = N->Data.data() + O * L;
    std::fill(Out, Out + L, B.data()[O]);
    for (size_t C = 0; C < Cin; ++C) {
      const float *XRow = X.data().data() + C * L;
      const float *WRow = W.data().data() + (O * Cin + C) * K;
      for (size_t T = 0; T < K; ++T) {
        const float Wt = WRow[T];
        const TapRange R = tapRange(T, Pad, L);
        for (size_t P = R.Lo; P < R.Hi; ++P)
          Out[P] += Wt * XRow[P + T - Pad];
      }
    }
  }
  auto Xn = X.node(), Wn = W.node(), Bn = B.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [Xn, Wn, Bn, Self, Cin, Cout, L, K, Pad] {
    auto S = Self.lock();
    const float *G = S->Grad.data();

    // Weight and bias gradients. Row P of Window holds what every
    // (input channel, tap) reads at output position P, laid out like a
    // weight row [Cin, K], with zeros where the tap is out of range.
    // Each output channel's weight-gradient row then gains G times one
    // Window row per position, in ascending P.
    const size_t Taps = Cin * K;
    std::vector<float> Window(L * Taps, 0.0f);
    for (size_t C = 0; C < Cin; ++C) {
      const float *XRow = Xn->Data.data() + C * L;
      for (size_t T = 0; T < K; ++T) {
        const TapRange R = tapRange(T, Pad, L);
        for (size_t P = R.Lo; P < R.Hi; ++P)
          Window[P * Taps + C * K + T] = XRow[P + T - Pad];
      }
    }
    for (size_t O = 0; O < Cout; ++O) {
      const float *GRow = G + O * L;
      float *WGrad = Wn->Grad.data() + O * Taps;
      float BGrad = Bn->Grad[O];
      for (size_t P = 0; P < L; ++P) {
        const float Gv = GRow[P];
        const float *Win = Window.data() + P * Taps;
        BGrad += Gv;
        for (size_t I = 0; I < Taps; ++I)
          WGrad[I] += Gv * Win[I];
      }
      Bn->Grad[O] = BGrad;
    }

    // Input gradient: descending taps give every input position its
    // contributions in ascending output-position order.
    if (!Xn->RequiresGrad)
      return;
    for (size_t O = 0; O < Cout; ++O) {
      const float *GRow = G + O * L;
      for (size_t C = 0; C < Cin; ++C) {
        float *XGrad = Xn->Grad.data() + C * L;
        const float *WRow = Wn->Data.data() + (O * Cin + C) * K;
        for (size_t T = K; T-- > 0;) {
          const float Wt = WRow[T];
          const TapRange R = tapRange(T, Pad, L);
          for (size_t P = R.Lo; P < R.Hi; ++P)
            XGrad[P + T - Pad] += GRow[P] * Wt;
        }
      }
    }
  };
  return Tensor(N);
}

Tensor rl::meanPool(const Tensor &X) {
  assert(X.shape().size() == 2);
  size_t C = X.shape()[0], L = X.shape()[1];
  auto N = makeNode({C}, {X.node()});
  for (size_t Ch = 0; Ch < C; ++Ch) {
    float Acc = 0.0f;
    for (size_t P = 0; P < L; ++P)
      Acc += X.data()[Ch * L + P];
    N->Data[Ch] = Acc / static_cast<float>(L);
  }
  auto Xn = X.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [Xn, Self, C, L] {
    auto S = Self.lock();
    for (size_t Ch = 0; Ch < C; ++Ch) {
      float G = S->Grad[Ch] / static_cast<float>(L);
      for (size_t P = 0; P < L; ++P)
        Xn->Grad[Ch * L + P] += G;
    }
  };
  return Tensor(N);
}

Tensor rl::maxPool(const Tensor &X) {
  assert(X.shape().size() == 2);
  size_t C = X.shape()[0], L = X.shape()[1];
  auto N = makeNode({C}, {X.node()});
  auto ArgMax = std::make_shared<std::vector<size_t>>(C, 0);
  for (size_t Ch = 0; Ch < C; ++Ch) {
    size_t Best = 0;
    for (size_t P = 1; P < L; ++P)
      if (X.data()[Ch * L + P] > X.data()[Ch * L + Best])
        Best = P;
    (*ArgMax)[Ch] = Best;
    N->Data[Ch] = X.data()[Ch * L + Best];
  }
  auto Xn = X.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [Xn, Self, ArgMax, L] {
    auto S = Self.lock();
    for (size_t Ch = 0; Ch < S->size(); ++Ch)
      Xn->Grad[Ch * L + (*ArgMax)[Ch]] += S->Grad[Ch];
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
  auto N = makeNode(A.shape(), {A.node()});
  float Max = -1e30f;
  for (float V : A.data())
    Max = std::max(Max, V);
  float Sum = 0.0f;
  for (float V : A.data())
    Sum += std::exp(V - Max);
  float LogZ = Max + std::log(Sum);
  for (size_t I = 0; I < N->size(); ++I)
    N->Data[I] = A.data()[I] - LogZ;
  auto An = A.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [An, Self] {
    auto S = Self.lock();
    float GradSum = 0.0f;
    for (float G : S->Grad)
      GradSum += G;
    for (size_t I = 0; I < S->size(); ++I)
      An->Grad[I] += S->Grad[I] - std::exp(S->Data[I]) * GradSum;
  };
  return Tensor(N);
}
