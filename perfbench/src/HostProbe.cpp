//===- perfbench/src/HostProbe.cpp - Fixed work that times the host --------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The host probe: one step of training a small MLP on a fixed batch,
/// written in the style of rl/Tensor (a tape of small heap vectors with a
/// backward closure each) but kept here, so no change to the library
/// changes it. On a shared host the same optimize job, repeated in one
/// thread, alternates between a fast and a ~1.6x slower state that lasts
/// milliseconds to minutes. Integer, scalar floating-point and
/// pointer-chasing loops do not see this; allocation-heavy code of this
/// kind does, by a similar factor, so the probe's time tracks the host's
/// speed for the program's work.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <functional>

using namespace perfbench;

namespace {

struct Node;
using NodePtr = std::shared_ptr<Node>;

struct Node {
  std::vector<float> V, G;
  std::vector<NodePtr> In;
  std::function<void(Node &)> Back;
};

struct Tape {
  std::vector<NodePtr> Order;
  NodePtr make(size_t N) {
    auto P = std::make_shared<Node>();
    P->V.assign(N, 0.0f);
    P->G.assign(N, 0.0f);
    Order.push_back(P);
    return P;
  }
};

/// Rows outputs of W X + B for a Rows x Cols weight.
NodePtr linear(Tape &T, const NodePtr &W, const NodePtr &X, const NodePtr &B,
               size_t Rows, size_t Cols) {
  NodePtr Y = T.make(Rows);
  for (size_t R = 0; R < Rows; ++R) {
    float S = B->V[R];
    for (size_t C = 0; C < Cols; ++C)
      S += W->V[R * Cols + C] * X->V[C];
    Y->V[R] = S;
  }
  Y->In = {W, X, B};
  Y->Back = [Rows, Cols](Node &Out) {
    Node &W = *Out.In[0], &X = *Out.In[1], &B = *Out.In[2];
    for (size_t R = 0; R < Rows; ++R) {
      B.G[R] += Out.G[R];
      for (size_t C = 0; C < Cols; ++C) {
        W.G[R * Cols + C] += Out.G[R] * X.V[C];
        X.G[C] += Out.G[R] * W.V[R * Cols + C];
      }
    }
  };
  return Y;
}

NodePtr tanhNode(Tape &T, const NodePtr &X) {
  NodePtr Y = T.make(X->V.size());
  for (size_t I = 0; I < Y->V.size(); ++I)
    Y->V[I] = std::tanh(X->V[I]);
  Y->In = {X};
  Y->Back = [](Node &Out) {
    for (size_t I = 0; I < Out.V.size(); ++I)
      Out.In[0]->G[I] += Out.G[I] * (1.0f - Out.V[I] * Out.V[I]);
  };
  return Y;
}

} // namespace

double perfbench::probeHostMs() {
  constexpr size_t In = 48, Hidden = 64, Batch = 12;
  Tape Params;
  auto Init = [&](size_t N, float Scale) {
    NodePtr P = Params.make(N);
    for (size_t I = 0; I < N; ++I)
      P->V[I] = Scale * float(int((I * 2654435761u) % 201) - 100) / 100.0f;
    return P;
  };
  NodePtr W1 = Init(Hidden * In, 0.15f), B1 = Init(Hidden, 0.01f);
  NodePtr W2 = Init(Hidden * Hidden, 0.12f), B2 = Init(Hidden, 0.01f);
  NodePtr W3 = Init(Hidden, 0.1f), B3 = Init(1, 0.0f);

  const Clock::time_point Start = Clock::now();
  Tape T;
  float Loss = 0.0f;
  for (size_t Row = 0; Row < Batch; ++Row) {
    NodePtr X = T.make(In);
    for (size_t I = 0; I < In; ++I)
      X->V[I] = float((Row * 31 + I * 7) % 17) / 17.0f - 0.5f;
    NodePtr H1 = tanhNode(T, linear(T, W1, X, B1, Hidden, In));
    NodePtr H2 = tanhNode(T, linear(T, W2, H1, B2, Hidden, Hidden));
    NodePtr Out = linear(T, W3, H2, B3, 1, Hidden);
    const float Err = Out->V[0] - float(Row % 3) + 1.0f;
    Loss += Err * Err;
    Out->G[0] = 2.0f * Err / float(Batch);
  }
  for (auto It = T.Order.rbegin(); It != T.Order.rend(); ++It)
    if ((*It)->Back)
      (*It)->Back(**It);
  for (const NodePtr &P : Params.Order)
    for (size_t I = 0; I < P->V.size(); ++I)
      P->V[I] -= 0.01f * P->G[I];
  const double Ms = msBetween(Start, Clock::now());
  volatile float Sink = Loss + W1->V[0];
  (void)Sink;
  return Ms;
}
