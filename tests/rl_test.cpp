//===- tests/rl_test.cpp - autograd + PPO tests --------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "rl/ActorCritic.h"
#include "rl/Adam.h"
#include "rl/Conv1dKernels.h"
#include "rl/Ppo.h"
#include "rl/RolloutRunner.h"
#include "rl/Tensor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>

#include <sys/resource.h>

using namespace cuasmrl;
using namespace cuasmrl::rl;

//===----------------------------------------------------------------------===//
// Autograd: analytic gradients vs finite differences
//===----------------------------------------------------------------------===//

namespace {

/// Numerically checks d(loss)/d(param[idx]) for a scalar-loss builder.
template <typename BuilderT>
void checkGradient(Tensor &Param, size_t Idx, BuilderT Build,
                   float Tol = 2e-2) {
  Tensor Loss = Build();
  Param.zeroGrad();
  // Clear all grads by rebuilding; backward accumulates into Param.
  Loss.backward();
  float Analytic = Param.grad()[Idx];

  float Eps = 1e-3f;
  float Orig = Param.data()[Idx];
  Param.data()[Idx] = Orig + Eps;
  float Up = Build().item();
  Param.data()[Idx] = Orig - Eps;
  float Down = Build().item();
  Param.data()[Idx] = Orig;
  float Numeric = (Up - Down) / (2 * Eps);
  EXPECT_NEAR(Analytic, Numeric, Tol * std::max(1.0f, std::fabs(Numeric)))
      << "index " << Idx;
}

} // namespace

TEST(Autograd, AddSubMul) {
  Tensor A = Tensor::fromVector({1, 2, 3}, {3}, true);
  Tensor B = Tensor::fromVector({4, -5, 6}, {3}, true);
  Tensor L = sumT(mul(add(A, B), sub(A, B)));
  L.backward();
  // d/dA sum(A^2 - B^2) = 2A; d/dB = -2B.
  for (int I = 0; I < 3; ++I) {
    EXPECT_FLOAT_EQ(A.grad()[I], 2 * A.data()[I]);
    EXPECT_FLOAT_EQ(B.grad()[I], -2 * B.data()[I]);
  }
}

TEST(Autograd, ExpLogSoftmaxFiniteDiff) {
  Tensor X = Tensor::fromVector({0.3f, -1.2f, 2.0f, 0.0f}, {4}, true);
  for (size_t I = 0; I < 4; ++I)
    checkGradient(X, I, [&] { return gather(logSoftmax(X), {2}); });
}

TEST(Autograd, ReluTanhClamp) {
  Tensor X = Tensor::fromVector({-1.0f, 0.5f, 2.0f}, {3}, true);
  for (size_t I = 0; I < 3; ++I) {
    checkGradient(X, I, [&] { return sumT(relu(X)); });
    checkGradient(X, I, [&] { return sumT(tanhT(X)); });
    checkGradient(X, I, [&] { return sumT(clampRange(X, -0.7f, 1.5f)); });
    checkGradient(X, I, [&] { return sumT(expT(X)); });
  }
}

TEST(Autograd, MinElemPicksBranch) {
  Tensor A = Tensor::fromVector({1.0f, 5.0f}, {2}, true);
  Tensor B = Tensor::fromVector({3.0f, 2.0f}, {2}, true);
  Tensor L = sumT(minElem(A, B));
  L.backward();
  EXPECT_FLOAT_EQ(A.grad()[0], 1.0f);
  EXPECT_FLOAT_EQ(A.grad()[1], 0.0f);
  EXPECT_FLOAT_EQ(B.grad()[0], 0.0f);
  EXPECT_FLOAT_EQ(B.grad()[1], 1.0f);
}

TEST(Autograd, LinearFiniteDiff) {
  Rng R(3);
  Tensor W = Tensor::fromVector({0.1f, -0.2f, 0.3f, 0.4f, 0.5f, -0.6f},
                                {2, 3}, true);
  Tensor X = Tensor::fromVector({1.0f, -1.0f, 0.5f}, {3}, true);
  Tensor B = Tensor::fromVector({0.1f, 0.2f}, {2}, true);
  auto Build = [&] { return sumT(tanhT(linear(W, X, B))); };
  for (size_t I = 0; I < W.size(); ++I)
    checkGradient(W, I, Build);
  for (size_t I = 0; I < X.size(); ++I)
    checkGradient(X, I, Build);
  for (size_t I = 0; I < B.size(); ++I)
    checkGradient(B, I, Build);
}

TEST(Autograd, Conv1dFiniteDiff) {
  Tensor X = Tensor::fromVector(
      {0.5f, -0.3f, 0.8f, 0.1f, -0.7f, 0.2f, 0.4f, -0.1f}, {2, 4}, true);
  Tensor W = Tensor::fromVector(
      {0.2f, -0.1f, 0.3f, 0.4f, 0.1f, -0.2f}, {1, 2, 3}, true);
  Tensor B = Tensor::fromVector({0.05f}, {1}, true);
  auto Build = [&] { return sumT(relu(conv1d(X, W, B, {4}))); };
  for (size_t I = 0; I < W.size(); ++I)
    checkGradient(W, I, Build);
  for (size_t I = 0; I < X.size(); ++I)
    checkGradient(X, I, Build);
}

TEST(Autograd, PoolingFiniteDiff) {
  Tensor X = Tensor::fromVector({1.0f, 3.0f, 2.0f, -1.0f, 0.0f, 4.0f},
                                {2, 3}, true);
  for (size_t I = 0; I < X.size(); ++I) {
    checkGradient(X, I, [&] { return sumT(meanPool(X, {3})); });
    checkGradient(X, I, [&] { return sumT(maxPool(X, {3})); });
  }
}

TEST(Autograd, MaskedFillBlocksGradient) {
  Tensor X = Tensor::fromVector({1.0f, 2.0f, 3.0f}, {3}, true);
  std::vector<uint8_t> Mask = {1, 0, 1};
  Tensor L = sumT(expT(logSoftmax(maskedFill(X, Mask))));
  L.backward();
  EXPECT_FLOAT_EQ(X.grad()[1], 0.0f);
}

TEST(Autograd, MaskedSoftmaxZeroesProbability) {
  Tensor X = Tensor::fromVector({1.0f, 10.0f, 1.0f}, {3}, true);
  std::vector<uint8_t> Mask = {1, 0, 1};
  Tensor P = expT(logSoftmax(maskedFill(X, Mask)));
  EXPECT_NEAR(P.data()[1], 0.0f, 1e-12);
  EXPECT_NEAR(P.data()[0] + P.data()[2], 1.0f, 1e-5);
}

TEST(Autograd, ReusedNodeAccumulatesOnce) {
  // Diamond graph: L = sum(X*X + X*X); dL/dX = 4X.
  Tensor X = Tensor::fromVector({2.0f}, {1}, true);
  Tensor Sq = mul(X, X);
  Tensor L = sumT(add(Sq, Sq));
  L.backward();
  EXPECT_FLOAT_EQ(X.grad()[0], 8.0f);
}

//===----------------------------------------------------------------------===//
// conv1d: bit-identity against the textbook loops
//===----------------------------------------------------------------------===//

namespace {

/// The textbook conv1d forward: one scalar accumulator per output,
/// adding the in-range taps in order. This is the reference the
/// vectorized kernels must match bit for bit. The tap loop runs over
/// the in-range window instead of skipping out-of-range taps with a
/// branch: GCC 12 at -O3 with AVX-512 turns such a branch into an add
/// of +0.0, which makes a -0 output +0.
std::vector<float> referenceConv1d(const Tensor &X, const Tensor &W,
                                   const Tensor &B) {
  size_t Cin = X.shape()[0], L = X.shape()[1];
  size_t Cout = W.shape()[0], K = W.shape()[2];
  long Pad = static_cast<long>(K / 2);
  std::vector<float> Data(Cout * L);
  for (size_t O = 0; O < Cout; ++O) {
    for (size_t P = 0; P < L; ++P) {
      // Taps whose input position P + T - Pad lies in [0, L).
      long First = std::max(0L, Pad - static_cast<long>(P));
      long Last = std::min(static_cast<long>(K),
                           static_cast<long>(L) + Pad - static_cast<long>(P));
      float Acc = B.data()[O];
      for (size_t C = 0; C < Cin; ++C) {
        const float *XRow = X.data().data() + C * L;
        const float *WRow = W.data().data() + (O * Cin + C) * K;
        for (long T = First; T < Last; ++T)
          Acc += WRow[T] * XRow[static_cast<long>(P) + T - Pad];
      }
      Data[O * L + P] = Acc;
    }
  }
  return Data;
}

/// Gradient buffers the reference backward accumulates into.
struct RefGrads {
  std::vector<float> X, W, B;
};

/// The textbook conv1d backward for upstream gradient \p G: per-position
/// G == 0 skip, bounds-checked taps, input gradient always written.
void referenceConv1dBackward(const std::vector<float> &G, const Tensor &X,
                             const Tensor &W, RefGrads &Out) {
  size_t Cin = X.shape()[0], L = X.shape()[1];
  size_t Cout = W.shape()[0], K = W.shape()[2];
  long Pad = static_cast<long>(K / 2);
  for (size_t O = 0; O < Cout; ++O) {
    for (size_t P = 0; P < L; ++P) {
      float Gv = G[O * L + P];
      if (Gv == 0.0f)
        continue;
      Out.B[O] += Gv;
      for (size_t C = 0; C < Cin; ++C) {
        float *XGrad = Out.X.data() + C * L;
        const float *XRow = X.data().data() + C * L;
        float *WGrad = Out.W.data() + (O * Cin + C) * K;
        const float *WRow = W.data().data() + (O * Cin + C) * K;
        for (size_t T = 0; T < K; ++T) {
          long Pos = static_cast<long>(P) + static_cast<long>(T) - Pad;
          if (Pos >= 0 && Pos < static_cast<long>(L)) {
            WGrad[T] += Gv * XRow[Pos];
            XGrad[Pos] += Gv * WRow[T];
          }
        }
      }
    }
  }
}

/// Finite values with exact zeros of both signs and negatives mixed in.
std::vector<float> mixedValues(Rng &R, size_t N) {
  std::vector<float> V(N);
  for (float &X : V) {
    switch (R.uniformInt(6)) {
    case 0:
      X = 0.0f;
      break;
    case 1:
      X = -0.0f;
      break;
    default:
      X = static_cast<float>(R.normal());
      break;
    }
  }
  return V;
}

bool sameBits(const std::vector<float> &A, const std::vector<float> &B) {
  return A.size() == B.size() &&
         std::memcmp(A.data(), B.data(), A.size() * sizeof(float)) == 0;
}

} // namespace

TEST(Conv1dReference, KernelsMatchTextbookLoopsBitForBit) {
  // conv1d runs the dispatched instantiation through the tape; every
  // instantiation this CPU can execute is also called directly. The
  // lengths leave tile remainders at both vector widths, 92 being the
  // mean instruction count of a cold job.
  const std::vector<const detail::Conv1dKernels *> Sets =
      detail::executableConv1dKernels();
  Rng R(20251017);
  for (size_t L : {1, 2, 3, 5, 17, 40, 72, 92, 97, 130})
    for (size_t Cin : {1, 4, 17, 33})
      for (size_t Cout : {1, 4, 16})
        for (size_t K : {1, 3, 5})
          for (bool InputGrad : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << "L=" << L << " Cin=" << Cin << " Cout=" << Cout
                         << " K=" << K << " input grad=" << InputGrad);
            const detail::Conv1dShape Shape{Cin, Cout, L, K};
            Tensor W = Tensor::fromVector(mixedValues(R, Cout * Cin * K),
                                          {Cout, Cin, K}, true);
            Tensor B = Tensor::fromVector(mixedValues(R, Cout), {Cout}, true);
            RefGrads Ref{{}, std::vector<float>(W.size(), 0.0f),
                         std::vector<float>(B.size(), 0.0f)};
            // Each instantiation, called directly, accumulates its own
            // parameter gradients.
            std::vector<RefGrads> Direct(Sets.size());
            for (RefGrads &D : Direct) {
              D.W.assign(W.size(), 0.0f);
              D.B.assign(B.size(), 0.0f);
            }
            // Several backward passes accumulate into one set of
            // parameter gradients, as the samples of a PPO minibatch do.
            for (int Sample = 0; Sample < 3; ++Sample) {
              Tensor X = Tensor::fromVector(mixedValues(R, Cin * L),
                                            {Cin, L}, InputGrad);
              Tensor Y = conv1d(X, W, B, {L});
              const std::vector<float> Expected = referenceConv1d(X, W, B);
              ASSERT_TRUE(sameBits(Y.data(), Expected));

              // relu masks the upstream gradient the way the net's
              // activations do; Upstream adds both signs and zeros.
              Tensor Upstream =
                  Tensor::fromVector(mixedValues(R, Cout * L), {Cout, L});
              sumT(mul(relu(Y), Upstream)).backward();
              Ref.X.assign(X.size(), 0.0f);
              referenceConv1dBackward(Y.grad(), X, W, Ref);
              ASSERT_TRUE(sameBits(W.grad(), Ref.W));
              ASSERT_TRUE(sameBits(B.grad(), Ref.B));
              if (InputGrad)
                ASSERT_TRUE(sameBits(X.grad(), Ref.X));
              else
                ASSERT_TRUE(
                    sameBits(X.grad(), std::vector<float>(X.size(), 0.0f)));

              // Called directly, the input gradient starts from a sum
              // already in the buffer (never -0, like every gradient);
              // only FromStart.X is compared.
              std::vector<float> XStart = mixedValues(R, X.size());
              for (float &V : XStart)
                V = V == 0.0f ? 0.0f : V;
              RefGrads FromStart{XStart, std::vector<float>(W.size()),
                                 std::vector<float>(B.size())};
              referenceConv1dBackward(Y.grad(), X, W, FromStart);
              for (size_t I = 0; I < Sets.size(); ++I) {
                SCOPED_TRACE(Sets[I]->Name);
                std::vector<float> Out(Y.size(),
                                       std::numeric_limits<float>::quiet_NaN());
                Sets[I]->Forward(Shape, X.data().data(), W.data().data(),
                                 B.data().data(), Out.data());
                ASSERT_TRUE(sameBits(Out, Expected));
                Sets[I]->ParamGrad(Shape, Y.grad().data(), X.data().data(),
                                   Direct[I].W.data(), Direct[I].B.data());
                ASSERT_TRUE(sameBits(Direct[I].W, Ref.W));
                ASSERT_TRUE(sameBits(Direct[I].B, Ref.B));
                Direct[I].X = XStart;
                Sets[I]->InputGrad(Shape, Y.grad().data(), W.data().data(),
                                   Direct[I].X.data());
                ASSERT_TRUE(sameBits(Direct[I].X, FromStart.X));
              }
            }
          }
}

TEST(Conv1dReference, RaggedBatchMatchesPerSampleLoops) {
  // A ragged batch runs every sample through the single-sample kernels:
  // each sample's output and input-gradient block equal the textbook
  // loops on that sample alone, and the parameter gradients equal the
  // textbook backward of sample 0, then sample 1, ... accumulated into
  // one buffer, as a PPO minibatch's per-sample tapes did.
  Rng R(20261017);
  const std::vector<std::vector<size_t>> Batches = {
      {92}, {17, 92, 40}, {5, 5}, {130, 1, 72}};
  for (const std::vector<size_t> &Lens : Batches)
    for (size_t K : {3, 5}) {
      const size_t Cin = 4, Cout = 16;
      size_t Total = 0;
      for (size_t L : Lens)
        Total += L;
      SCOPED_TRACE(testing::Message()
                   << "samples=" << Lens.size() << " total=" << Total
                   << " K=" << K);
      Tensor W = Tensor::fromVector(mixedValues(R, Cout * Cin * K),
                                    {Cout, Cin, K}, true);
      Tensor B = Tensor::fromVector(mixedValues(R, Cout), {Cout}, true);
      Tensor X = Tensor::fromVector(mixedValues(R, Cin * Total), {Cin, Total},
                                    true);
      Tensor Y = conv1d(X, W, B, Lens);
      Tensor Upstream =
          Tensor::fromVector(mixedValues(R, Cout * Total), {Cout, Total});
      sumT(mul(relu(Y), Upstream)).backward();

      RefGrads Ref{{}, std::vector<float>(W.size(), 0.0f),
                   std::vector<float>(B.size(), 0.0f)};
      size_t At = 0;
      for (size_t L : Lens) {
        auto Block = [&](const std::vector<float> &V, size_t Rows) {
          return std::vector<float>(V.begin() + Rows * At,
                                    V.begin() + Rows * (At + L));
        };
        Tensor Xs = Tensor::fromVector(Block(X.data(), Cin), {Cin, L});
        ASSERT_TRUE(sameBits(Block(Y.data(), Cout), referenceConv1d(Xs, W, B)));
        Ref.X.assign(Cin * L, 0.0f);
        referenceConv1dBackward(Block(Y.grad(), Cout), Xs, W, Ref);
        ASSERT_TRUE(sameBits(Block(X.grad(), Cin), Ref.X));
        At += L;
      }
      EXPECT_TRUE(sameBits(W.grad(), Ref.W));
      EXPECT_TRUE(sameBits(B.grad(), Ref.B));
    }
}

namespace {

/// Succeeds when every element is +0; otherwise prints the first that
/// is not.
testing::AssertionResult allPositiveZero(const std::vector<float> &V) {
  for (float F : V)
    if (F != 0.0f || std::signbit(F)) {
      std::ostringstream OS;
      OS << std::hexfloat << F;
      return testing::AssertionFailure() << OS.str();
    }
  return testing::AssertionSuccess();
}

} // namespace

TEST(FpContraction, LinearAndConv1dRoundEveryProduct) {
  // (1 + 2^-12)^2 = 1 + 2^-11 + 2^-24 rounds to 1 + 2^-11, which the
  // bias cancels exactly, giving +0. A fused multiply-add rounds once,
  // after the add, and keeps the 2^-24.
  const float V = 1.0f + std::ldexp(1.0f, -12);
  const float Bias = -(1.0f + std::ldexp(1.0f, -11));

  // linear: the forward, then the weight and input gradients for an
  // upstream gradient of V into buffers that already hold Bias.
  Tensor W = Tensor::fromVector({V}, {1, 1}, true);
  Tensor X = Tensor::fromVector({V}, {1}, true);
  Tensor B = Tensor::fromVector({Bias}, {1}, true);
  Tensor Y = linear(W, X, B);
  EXPECT_TRUE(allPositiveZero(Y.data()));
  W.grad()[0] = Bias;
  X.grad()[0] = Bias;
  sumT(mul(Y, Tensor::fromVector({V}, {1}))).backward();
  EXPECT_TRUE(allPositiveZero(W.grad()));
  EXPECT_TRUE(allPositiveZero(X.grad()));

  // conv1d: channel O reads channel O through the centre tap (weight V)
  // and every other tap is 0. L = 40 leaves whole tiles, a shifted tile
  // and edges at both vector widths.
  const detail::Conv1dShape S{4, 4, 40, 3};
  std::vector<float> CW(S.Cout * S.Cin * S.K, 0.0f);
  for (size_t O = 0; O < S.Cout; ++O)
    CW[(O * S.Cin + O) * S.K + 1] = V;
  const std::vector<float> CX(S.Cin * S.L, V), CB(S.Cout, Bias);
  // One position's gradient for the weights; every position's for the
  // input, whose gradient sees only the centre tap's weight.
  std::vector<float> GOne(S.Cout * S.L, 0.0f);
  for (size_t O = 0; O < S.Cout; ++O)
    GOne[O * S.L + 20] = V;
  const std::vector<float> GAll(S.Cout * S.L, V);
  for (const detail::Conv1dKernels *Set : detail::executableConv1dKernels()) {
    SCOPED_TRACE(Set->Name);
    std::vector<float> Out(S.Cout * S.L);
    Set->Forward(S, CX.data(), CW.data(), CB.data(), Out.data());
    EXPECT_TRUE(allPositiveZero(Out));
    std::vector<float> WGrad(CW.size(), Bias), BGrad(S.Cout, 0.0f);
    Set->ParamGrad(S, GOne.data(), CX.data(), WGrad.data(), BGrad.data());
    EXPECT_TRUE(allPositiveZero(WGrad));
    std::vector<float> XGrad(CX.size(), Bias);
    Set->InputGrad(S, GAll.data(), CW.data(), XGrad.data());
    EXPECT_TRUE(allPositiveZero(XGrad));
  }
}

//===----------------------------------------------------------------------===//
// Optimizer
//===----------------------------------------------------------------------===//

TEST(AdamTest, MinimizesQuadratic) {
  Tensor X = Tensor::fromVector({5.0f, -3.0f}, {2}, true);
  Adam Opt({X}, 0.1);
  for (int Iter = 0; Iter < 300; ++Iter) {
    Opt.zeroGrad();
    Tensor L = sumT(mul(X, X));
    L.backward();
    Opt.step();
  }
  EXPECT_NEAR(X.data()[0], 0.0f, 0.05f);
  EXPECT_NEAR(X.data()[1], 0.0f, 0.05f);
}

TEST(AdamTest, GradClipBoundsNorm) {
  Tensor X = Tensor::fromVector({30.0f, 40.0f}, {2}, true);
  X.grad()[0] = 30.0f;
  X.grad()[1] = 40.0f;
  double Norm = clipGradNorm({X}, 0.5);
  EXPECT_NEAR(Norm, 50.0, 1e-6);
  double After = std::hypot(X.grad()[0], X.grad()[1]);
  EXPECT_NEAR(After, 0.5, 1e-5);
}

//===----------------------------------------------------------------------===//
// Network
//===----------------------------------------------------------------------===//

TEST(ActorCriticTest, ForwardShapes) {
  Rng R(1);
  NetConfig C;
  C.Features = 7;
  C.Length = 12;
  C.Actions = 6;
  ActorCritic Net(C, R);
  std::vector<float> Obs(7 * 12, 0.5f);
  std::vector<uint8_t> Mask(6, 1);
  Mask[3] = 0;
  ActorCritic::Output Out = Net.forward({{Obs, Mask}});
  EXPECT_EQ(Out.MaskedLogits.size(), 6u);
  EXPECT_EQ(Out.Value.size(), 1u);
  EXPECT_LT(Out.MaskedLogits.data()[3], -1e8f);
}

TEST(ActorCriticTest, OrthogonalInitScales) {
  Rng R(2);
  NetConfig C;
  C.Features = 5;
  C.Length = 8;
  C.Actions = 4;
  ActorCritic Net(C, R);
  // Policy head uses gain 0.01: logits start tiny (near-uniform policy).
  std::vector<float> Obs(5 * 8, 0.3f);
  std::vector<uint8_t> Mask(4, 1);
  ActorCritic::Output Out = Net.forward({{Obs, Mask}});
  for (float L : Out.MaskedLogits.data())
    EXPECT_LT(std::fabs(L), 0.5f);
}

TEST(ActorCriticTest, CheckpointRoundTrip) {
  Rng R(3);
  NetConfig C;
  C.Features = 5;
  C.Length = 8;
  C.Actions = 4;
  ActorCritic Net(C, R);
  std::ostringstream OS;
  Net.save(OS);

  Rng R2(99);
  ActorCritic Other(C, R2);
  std::istringstream IS(OS.str());
  ASSERT_TRUE(Other.load(IS));

  std::vector<float> Obs(5 * 8, 0.3f);
  std::vector<uint8_t> Mask(4, 1);
  EXPECT_EQ(Net.forward({{Obs, Mask}}).MaskedLogits.data(),
            Other.forward({{Obs, Mask}}).MaskedLogits.data());
}

TEST(ActorCriticTest, LoadRejectsGarbage) {
  Rng R(3);
  NetConfig C;
  C.Features = 5;
  C.Length = 8;
  C.Actions = 4;
  ActorCritic Net(C, R);
  std::istringstream IS("not a checkpoint");
  EXPECT_FALSE(Net.load(IS));
}

//===----------------------------------------------------------------------===//
// Checkpoint decoder fuzzing: load() and loadCompatible()
//===----------------------------------------------------------------------===//

namespace {

/// Byte layout of a saved checkpoint: magic, u32 tensor count, then per
/// tensor a u32 dim count, u64 dims and the float data.
constexpr size_t kCountOffset = 8;
constexpr size_t kFirstDimsOffset = 12;
constexpr size_t kFirstDimOffset = 16;

NetConfig fuzzGeometry() {
  NetConfig C;
  C.Features = 5;
  C.Length = 8;
  C.Actions = 4;
  C.Channels = 4;
  C.Hidden = 8;
  return C;
}

std::string saved(const ActorCritic &Net) {
  std::ostringstream OS;
  Net.save(OS);
  return OS.str();
}

std::string paramBytes(const ActorCritic &Net) {
  std::string Bytes;
  for (const Tensor &P : Net.parameters())
    Bytes.append(reinterpret_cast<const char *>(P.data().data()),
                 P.size() * sizeof(float));
  return Bytes;
}

template <typename T>
std::string withField(std::string Blob, size_t Offset, T Value) {
  std::memcpy(&Blob[Offset], &Value, sizeof(T));
  return Blob;
}

/// Feeds \p Stream to both decoders of \p Net, whose live weights were
/// saved as \p Good. A rejected stream must leave every parameter
/// byte-identical; a stream load() accepts must re-save to itself.
/// \returns how many of the two decoders accepted.
int decodeBoth(ActorCritic &Net, const std::string &Stream,
               const std::string &Good) {
  const std::string Before = paramBytes(Net);
  auto Restore = [&] {
    std::istringstream IS(Good);
    EXPECT_TRUE(Net.load(IS));
  };
  int Accepted = 0;
  std::istringstream Strict(Stream);
  if (Net.load(Strict)) {
    ++Accepted;
    EXPECT_EQ(saved(Net), Stream.substr(0, Good.size()));
  } else {
    EXPECT_EQ(paramBytes(Net), Before);
  }
  Restore();
  std::istringstream Lenient(Stream);
  if (Net.loadCompatible(Lenient) > 0)
    ++Accepted;
  else
    EXPECT_EQ(paramBytes(Net), Before);
  Restore();
  return Accepted;
}

/// Peak resident set size of this process, in KiB. A high-water mark:
/// its growth over a test bounds the test's allocations only when no
/// earlier test in the process peaked higher. ctest runs one test per
/// process; a whole-binary run reaches the hostile-claim test before
/// the bit-flip test, the other one here that decodes hostile lengths.
long peakRssKiB() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return Usage.ru_maxrss;
}

} // namespace

TEST(CheckpointFuzz, EveryTruncationIsRejectedUnchanged) {
  Rng R(5);
  ActorCritic Net(fuzzGeometry(), R);
  const std::string Good = saved(Net);
  ASSERT_EQ(decodeBoth(Net, Good, Good), 2);
  for (size_t Len = 0; Len < Good.size(); ++Len)
    ASSERT_EQ(decodeBoth(Net, Good.substr(0, Len), Good), 0)
        << "prefix of " << Len << " bytes";
}

TEST(CheckpointFuzz, HostileCountsAndDimensionsAreRejected) {
  Rng R(7);
  ActorCritic Net(fuzzGeometry(), R);
  const std::string Good = saved(Net);
  const long RssBefore = peakRssKiB();

  for (uint32_t Count : {0u, 11u, 256u, 257u, 0xffffffffu})
    EXPECT_EQ(decodeBoth(Net, withField(Good, kCountOffset, Count), Good), 0)
        << "tensor count " << Count;
  // Claiming one tensor too few leaves the last as trailing bytes: a
  // well-formed 9-tensor checkpoint that only loadCompatible() takes.
  EXPECT_EQ(decodeBoth(Net, withField(Good, kCountOffset, 9u), Good), 1);
  for (uint32_t Dims : {0u, 2u, 9u, 0xffffffffu})
    EXPECT_EQ(decodeBoth(Net, withField(Good, kFirstDimsOffset, Dims), Good),
              0)
        << "dim count " << Dims;
  // Zero, just over the element bound, and values whose byte size
  // overflows 64 bits.
  for (uint64_t Dim : {uint64_t(0), (uint64_t(1) << 28) + 1, uint64_t(1) << 62,
                       ~uint64_t(0)})
    EXPECT_EQ(decodeBoth(Net, withField(Good, kFirstDimOffset, Dim), Good), 0)
        << "first dim " << Dim;

  // In-bound claims the stream cannot back: 2^28 floats (1 GiB) in one
  // dim, and 2^14 x 2^14 over two dims. The stream ends long before.
  std::string Header = Good.substr(0, kFirstDimsOffset);
  std::string OneDim = withField(Header + std::string(12, '\0'),
                                 kFirstDimsOffset, uint32_t(1));
  OneDim = withField(OneDim, kFirstDimOffset, uint64_t(1) << 28);
  std::string TwoDims = withField(Header + std::string(20, '\0'),
                                  kFirstDimsOffset, uint32_t(2));
  TwoDims = withField(TwoDims, kFirstDimOffset, uint64_t(1) << 14);
  TwoDims = withField(TwoDims, kFirstDimOffset + 8, uint64_t(1) << 14);
  for (const std::string &Claim : {OneDim, TwoDims}) {
    EXPECT_EQ(decodeBoth(Net, Claim + std::string(4096, '\x7f'), Good), 0);
    EXPECT_EQ(decodeBoth(Net, Claim, Good), 0);
  }
  // ...and none of them made the decoder allocate what it claimed.
  EXPECT_LT(peakRssKiB() - RssBefore, 256 * 1024);
}

TEST(CheckpointFuzz, SeededBitFlipsNeverCorruptARejectingNet) {
  Rng R(6);
  ActorCritic Net(fuzzGeometry(), R);
  const std::string Good = saved(Net);
  Rng Flips(20251017);
  unsigned Accepted = 0, Rejected = 0;
  for (int Trial = 0; Trial < 4000; ++Trial) {
    std::string Stream = Good;
    // Most trials hit the header, where every field is load-bearing;
    // the rest land anywhere, mostly in tensor data.
    const size_t Span = Trial % 2 ? Stream.size() : kFirstDimOffset + 64;
    const unsigned NumFlips = 1 + static_cast<unsigned>(Flips.uniformInt(4));
    for (unsigned F = 0; F < NumFlips; ++F) {
      const size_t Bit = Flips.uniformInt(Span * 8);
      Stream[Bit / 8] = static_cast<char>(Stream[Bit / 8] ^ (1 << (Bit % 8)));
    }
    const int Took = decodeBoth(Net, Stream, Good);
    ASSERT_FALSE(testing::Test::HasFailure()) << "trial " << Trial;
    Accepted += Took;
    Rejected += 2 - Took;
  }
  // Both outcomes were exercised.
  EXPECT_GT(Accepted, 0u);
  EXPECT_GT(Rejected, 0u);
}

//===----------------------------------------------------------------------===//
// PPO on toy environments
//===----------------------------------------------------------------------===//

namespace {

/// Contextual bandit chain: action `Best` yields +1, others 0; the
/// episode lasts 4 steps; one action is permanently masked.
class BanditEnv : public Env {
public:
  explicit BanditEnv(unsigned Best = 2) : Best(Best) {}

  std::vector<float> reset() override {
    Steps = 0;
    return std::vector<float>(obsRows() * obsFeatures(), 0.25f);
  }
  EnvStep step(unsigned Action) override {
    EnvStep R;
    R.Reward = Action == Best ? 1.0 : 0.0;
    ++Steps;
    R.Done = Steps >= 4;
    R.Obs = std::vector<float>(obsRows() * obsFeatures(), 0.25f);
    return R;
  }
  std::vector<uint8_t> actionMask() override {
    std::vector<uint8_t> M(actionCount(), 1);
    M[0] = 0; // Permanently illegal.
    return M;
  }
  unsigned actionCount() const override { return 5; }
  size_t obsRows() const override { return 6; }
  size_t obsFeatures() const override { return 4; }

private:
  unsigned Best;
  unsigned Steps = 0;
};

} // namespace

TEST(PpoTest, LearnsBanditOptimum) {
  BanditEnv E1, E2;
  PpoConfig C;
  C.TotalSteps = 2048;
  C.RolloutLen = 32;
  C.Seed = 7;
  C.Channels = 4;
  C.Hidden = 16;
  // The paper's default lr (2.5e-4) is sized for ~15k-step runs; the
  // toy test budget warrants a faster rate.
  C.Lr = 1e-3;
  PpoTrainer Trainer({&E1, &E2}, C);
  std::vector<UpdateStats> Series = Trainer.train();
  ASSERT_FALSE(Series.empty());
  // Optimal return is 4.0 (reward 1 for 4 steps).
  EXPECT_GT(Series.back().MeanEpisodicReturn, 3.0);
  // The policy must never pick the masked action in greedy play.
  BanditEnv Probe;
  std::vector<unsigned> Actions = Trainer.playGreedy(Probe, 4);
  for (unsigned A : Actions)
    EXPECT_NE(A, 0u);
}

TEST(PpoTest, EntropyDecreasesAsPolicyConverges) {
  BanditEnv E1;
  PpoConfig C;
  C.TotalSteps = 1024;
  C.RolloutLen = 32;
  C.Seed = 3;
  C.Channels = 4;
  C.Hidden = 16;
  C.Lr = 1e-3;
  PpoTrainer Trainer({&E1}, C);
  std::vector<UpdateStats> Series = Trainer.train();
  ASSERT_GE(Series.size(), 4u);
  // Figure 12: policy entropy decreases over training.
  EXPECT_LT(Series.back().Entropy, Series.front().Entropy);
}

TEST(PpoTest, ApproxKlStaysFinite) {
  BanditEnv E1;
  PpoConfig C;
  C.TotalSteps = 256;
  C.RolloutLen = 32;
  C.Seed = 5;
  C.Channels = 4;
  C.Hidden = 16;
  PpoTrainer Trainer({&E1}, C);
  for (UpdateStats S : Trainer.train()) {
    EXPECT_TRUE(std::isfinite(S.ApproxKl));
    EXPECT_TRUE(std::isfinite(S.PolicyLoss));
    EXPECT_TRUE(std::isfinite(S.ValueLoss));
    EXPECT_GE(S.ClipFraction, 0.0);
    EXPECT_LE(S.ClipFraction, 1.0);
  }
}

TEST(PpoTest, DeterministicForSeed) {
  auto Run = [](uint64_t Seed) {
    BanditEnv E;
    PpoConfig C;
    C.TotalSteps = 128;
    C.RolloutLen = 32;
    C.Seed = Seed;
    C.Channels = 4;
    C.Hidden = 16;
    PpoTrainer T({&E}, C);
    return T.train().back().PolicyLoss;
  };
  EXPECT_EQ(Run(11), Run(11));
  EXPECT_NE(Run(11), Run(12));
}

TEST(PpoTest, CriticLearnsOptimalReturn) {
  // Once the policy converges on the bandit, the critic's prediction at
  // the initial state must approach the discounted optimal return
  // (1 + g + g^2 + g^3 with g = 0.99: ~3.94).
  BanditEnv E(1);
  PpoConfig C;
  C.TotalSteps = 3072;
  C.RolloutLen = 32;
  C.Seed = 9;
  C.Channels = 4;
  C.Hidden = 16;
  C.Lr = 1e-3;
  PpoTrainer Trainer({&E}, C);
  Trainer.train();
  BanditEnv Probe;
  std::vector<float> Obs = Probe.reset();
  std::vector<uint8_t> Mask = Probe.actionMask();
  float V = Trainer.net().forward({{Obs, Mask}}).Value.item();
  EXPECT_GT(V, 2.0f);
  EXPECT_LT(V, 5.5f);
}

//===----------------------------------------------------------------------===//
// Minibatch-major update vs. a per-sample reference tape
//===----------------------------------------------------------------------===//

namespace {

/// An env that only declares a geometry: the trainer sizes its net from
/// it, and the test hands the trainer synthetic batches.
class GeometryEnv : public Env {
public:
  GeometryEnv(size_t Rows, size_t Features, unsigned Actions)
      : Rows(Rows), Features(Features), Actions(Actions) {}
  std::vector<float> reset() override {
    return std::vector<float>(Rows * Features, 0.0f);
  }
  EnvStep step(unsigned) override { return EnvStep(); }
  std::vector<uint8_t> actionMask() override {
    return std::vector<uint8_t>(Actions, 1);
  }
  unsigned actionCount() const override { return Actions; }
  size_t obsRows() const override { return Rows; }
  size_t obsFeatures() const override { return Features; }

private:
  size_t Rows, Features;
  unsigned Actions;
};

/// A random trajectory of \p Steps transitions from \p E, with masks
/// padded to \p NetActions as the rollout runner pads them.
Trajectory randomTrajectory(Rng &R, const GeometryEnv &E, size_t NetActions,
                            unsigned Steps) {
  auto Observation = [&] {
    std::vector<float> Obs(E.obsRows() * E.obsFeatures());
    for (float &V : Obs)
      V = static_cast<float>(R.normal());
    return Obs;
  };
  auto Mask = [&] {
    std::vector<uint8_t> M(NetActions, 0);
    for (unsigned A = 0; A < E.actionCount(); ++A)
      M[A] = R.uniformInt(3) != 0;
    M[R.uniformInt(E.actionCount())] = 1;
    return M;
  };
  Trajectory T;
  for (unsigned Step = 0; Step < Steps; ++Step) {
    Transition Tr;
    Tr.Obs = Observation();
    Tr.Mask = Mask();
    do
      Tr.Action = static_cast<unsigned>(R.uniformInt(E.actionCount()));
    while (!Tr.Mask[Tr.Action]);
    Tr.LogProb = static_cast<float>(std::log(R.uniformReal(0.05, 1.0)));
    Tr.Value = static_cast<float>(R.normal(0.0, 0.5));
    Tr.Reward = static_cast<float>(R.normal());
    Tr.Done = R.uniformInt(8) == 0;
    T.Steps.push_back(std::move(Tr));
  }
  T.BootstrapObs = Observation();
  T.BootstrapMask = Mask();
  return T;
}

/// PpoTrainer::updateFromBatch as it ran before the update became
/// minibatch-major: one graph per sample, chained into the minibatch
/// loss by add, one backward per minibatch. Kept only here, as the
/// reference the batched update must equal bit for bit.
class ReferenceTrainer {
public:
  ReferenceTrainer(const NetConfig &NC, const PpoConfig &C)
      : Config(C), SampleRng(C.Seed), Net(NC, SampleRng),
        Optimizer(Net.parameters(), C.Lr) {}

  const ActorCritic &net() const { return Net; }

  UpdateStats update(const TrajectoryBatch &Batch) {
    const std::vector<Trajectory> &Trajs = Batch.Trajectories;
    StepsDone += static_cast<unsigned>(Batch.totalSteps());
    std::vector<std::vector<float>> Adv(Trajs.size()), Ret(Trajs.size());
    for (size_t J = 0; J < Trajs.size(); ++J) {
      const Trajectory &Traj = Trajs[J];
      const size_t T = Traj.Steps.size();
      Adv[J].resize(T);
      Ret[J].resize(T);
      float NextValue =
          Net.forward({{Traj.BootstrapObs, Traj.BootstrapMask}}).Value.item();
      float Gae = 0.0f;
      for (size_t Step = T; Step-- > 0;) {
        const Transition &S = Traj.Steps[Step];
        float VNext = Step + 1 < T ? Traj.Steps[Step + 1].Value : NextValue;
        float NonTerminal = S.Done ? 0.0f : 1.0f;
        float Delta = S.Reward +
                      static_cast<float>(Config.Gamma) * VNext * NonTerminal -
                      S.Value;
        Gae = Delta + static_cast<float>(Config.Gamma * Config.GaeLambda) *
                          NonTerminal * Gae;
        Adv[J][Step] = Gae;
        Ret[J][Step] = Gae + S.Value;
      }
    }

    std::vector<std::pair<size_t, size_t>> Index;
    for (size_t J = 0; J < Trajs.size(); ++J)
      for (size_t Step = 0; Step < Trajs[J].Steps.size(); ++Step)
        Index.push_back({J, Step});
    if (Config.AnnealLr) {
      double Frac = 1.0 - static_cast<double>(StepsDone) /
                              std::max(1u, Config.TotalSteps);
      Optimizer.setLr(Config.Lr * std::max(0.05, Frac));
    }

    double SumPolicyLoss = 0, SumValueLoss = 0, SumEntropy = 0, SumKl = 0,
           SumClip = 0;
    size_t BatchCount = 0;
    size_t BatchSize = Index.size();
    size_t MbSize = std::max<size_t>(1, BatchSize / Config.MiniBatches);
    for (unsigned Epoch = 0; Epoch < Config.Epochs; ++Epoch) {
      SampleRng.shuffle(Index);
      for (size_t Start = 0; Start < BatchSize; Start += MbSize) {
        size_t End = std::min(BatchSize, Start + MbSize);
        size_t Count = End - Start;
        double Mean = 0, Var = 0;
        for (size_t I = Start; I < End; ++I)
          Mean += Adv[Index[I].first][Index[I].second];
        Mean /= Count;
        for (size_t I = Start; I < End; ++I) {
          double D = Adv[Index[I].first][Index[I].second] - Mean;
          Var += D * D;
        }
        double Std = std::sqrt(Var / Count) + 1e-8;

        // x + c as its own node, the way the per-sample tape shifted
        // by a constant.
        auto Shift = [](const Tensor &X, float C) {
          return add(X, Tensor::scalar(C));
        };
        Tensor Loss = Tensor::scalar(0.0f);
        double KlAccum = 0, ClipAccum = 0, EntAccum = 0, PlAccum = 0,
               VlAccum = 0;
        for (size_t I = Start; I < End; ++I) {
          const Transition &S = Trajs[Index[I].first].Steps[Index[I].second];
          float A = static_cast<float>(
              Config.NormAdvantage
                  ? (Adv[Index[I].first][Index[I].second] - Mean) / Std
                  : Adv[Index[I].first][Index[I].second]);
          float R = Ret[Index[I].first][Index[I].second];

          ActorCritic::Output Out = Net.forward({{S.Obs, S.Mask}});
          Tensor LogP = logSoftmax(Out.MaskedLogits);
          Tensor NewLogProb = gather(LogP, {S.Action});
          Tensor Ratio = expT(Shift(NewLogProb, -S.LogProb));
          Tensor Surr1 = scalarMul(Ratio, A);
          Tensor Surr2 = scalarMul(
              clampRange(Ratio, 1.0f - static_cast<float>(Config.ClipCoef),
                         1.0f + static_cast<float>(Config.ClipCoef)),
              A);
          Tensor PolicyLoss = neg(minElem(Surr1, Surr2));
          Tensor VDiff = Shift(Out.Value, -R);
          Tensor VLoss = mul(VDiff, VDiff);
          if (Config.ClipVLoss) {
            Tensor VClipped =
                Shift(clampRange(Shift(Out.Value, -S.Value),
                                 -static_cast<float>(Config.ClipCoef),
                                 static_cast<float>(Config.ClipCoef)),
                      S.Value - R);
            Tensor VLossClipped = mul(VClipped, VClipped);
            VLoss = neg(minElem(neg(VLoss), neg(VLossClipped)));
          }
          Tensor Probs = expT(LogP);
          Tensor Entropy = neg(sumT(mul(Probs, LogP)));
          Tensor SampleLoss = add(
              PolicyLoss,
              add(scalarMul(VLoss, static_cast<float>(Config.VfCoef) * 0.5f),
                  scalarMul(Entropy, -static_cast<float>(Config.EntCoef))));
          Loss = add(Loss, SampleLoss);

          double RatioVal = Ratio.item();
          double LogRatio = NewLogProb.item() - S.LogProb;
          KlAccum += (RatioVal - 1.0) - LogRatio;
          ClipAccum += std::fabs(RatioVal - 1.0) > Config.ClipCoef;
          EntAccum += Entropy.item();
          PlAccum += PolicyLoss.item();
          VlAccum += VLoss.item();
        }
        Loss = scalarMul(Loss, 1.0f / static_cast<float>(Count));
        Optimizer.zeroGrad();
        Loss.backward();
        clipGradNorm(Net.parameters(), Config.MaxGradNorm);
        Optimizer.step();
        SumPolicyLoss += PlAccum / Count;
        SumValueLoss += VlAccum / Count;
        SumEntropy += EntAccum / Count;
        SumKl += KlAccum / Count;
        SumClip += ClipAccum / Count;
        ++BatchCount;
      }
    }
    UpdateStats Stats;
    Stats.PolicyLoss = SumPolicyLoss / BatchCount;
    Stats.ValueLoss = SumValueLoss / BatchCount;
    Stats.Entropy = SumEntropy / BatchCount;
    Stats.ApproxKl = SumKl / BatchCount;
    Stats.ClipFraction = SumClip / BatchCount;
    return Stats;
  }

private:
  PpoConfig Config;
  Rng SampleRng;
  ActorCritic Net;
  Adam Optimizer;
  unsigned StepsDone = 0;
};

bool sameBits(double A, double B) { return std::memcmp(&A, &B, sizeof A) == 0; }

} // namespace

TEST(BatchedUpdateTest, EqualsPerSampleReferenceTape) {
  // Random batches over envs of different row and action counts (so
  // minibatches are ragged), at both network widths, with one and with
  // several minibatches per epoch. After every update, each parameter
  // gradient (the last minibatch's, clipped) and each weight must equal
  // the reference tape's bit for bit, and so must the loss diagnostics.
  struct Case {
    std::vector<size_t> Rows;
    size_t Channels, Hidden;
    unsigned MiniBatches, Epochs;
    bool ClipVLoss;
  };
  const std::vector<Case> Cases = {
      {{9, 9}, 16, 64, 1, 1, true},
      {{9, 23, 14}, 16, 64, 3, 2, true},
      {{31, 6}, 4, 16, 2, 2, false},
      {{12}, 4, 16, 4, 1, true},
  };
  const size_t Features = 7;
  for (size_t CI = 0; CI < Cases.size(); ++CI) {
    const Case &C = Cases[CI];
    SCOPED_TRACE(testing::Message() << "case " << CI);
    std::vector<std::unique_ptr<GeometryEnv>> Envs;
    std::vector<Env *> Pool;
    for (size_t J = 0; J < C.Rows.size(); ++J) {
      Envs.push_back(std::make_unique<GeometryEnv>(
          C.Rows[J], Features, static_cast<unsigned>(4 + 2 * J)));
      Pool.push_back(Envs.back().get());
    }
    PpoConfig PC;
    PC.Seed = 40 + CI;
    PC.Channels = C.Channels;
    PC.Hidden = C.Hidden;
    PC.MiniBatches = C.MiniBatches;
    PC.Epochs = C.Epochs;
    PC.ClipVLoss = C.ClipVLoss;
    PC.TotalSteps = 256;
    PpoTrainer Trainer(Pool, PC);
    ReferenceTrainer Reference(Trainer.net().config(), PC);

    Rng R(90 + CI);
    for (int Update = 0; Update < 3; ++Update) {
      SCOPED_TRACE(testing::Message() << "update " << Update);
      TrajectoryBatch Batch;
      for (const std::unique_ptr<GeometryEnv> &E : Envs)
        Batch.Trajectories.push_back(randomTrajectory(
            R, *E, Trainer.net().config().Actions, 5 + Update));
      UpdateStats Got = Trainer.updateFromBatch(Batch);
      UpdateStats Want = Reference.update(Batch);

      std::vector<Tensor> P = Trainer.net().parameters();
      std::vector<Tensor> Q = Reference.net().parameters();
      ASSERT_EQ(P.size(), Q.size());
      for (size_t I = 0; I < P.size(); ++I) {
        SCOPED_TRACE(testing::Message() << "parameter " << I);
        ASSERT_EQ(P[I].size(), Q[I].size());
        EXPECT_EQ(std::memcmp(P[I].grad().data(), Q[I].grad().data(),
                              P[I].size() * sizeof(float)),
                  0);
        EXPECT_EQ(std::memcmp(P[I].data().data(), Q[I].data().data(),
                              P[I].size() * sizeof(float)),
                  0);
      }
      EXPECT_TRUE(sameBits(Got.PolicyLoss, Want.PolicyLoss));
      EXPECT_TRUE(sameBits(Got.ValueLoss, Want.ValueLoss));
      EXPECT_TRUE(sameBits(Got.Entropy, Want.Entropy));
      EXPECT_TRUE(sameBits(Got.ApproxKl, Want.ApproxKl));
      EXPECT_TRUE(sameBits(Got.ClipFraction, Want.ClipFraction));
    }
  }
}

//===----------------------------------------------------------------------===//
// RolloutRunner: parallel collection determinism
//===----------------------------------------------------------------------===//

namespace {

PpoConfig rolloutTestConfig() {
  PpoConfig C;
  C.TotalSteps = 256;
  C.RolloutLen = 32;
  C.Seed = 21;
  C.Channels = 4;
  C.Hidden = 16;
  return C;
}

} // namespace

TEST(RolloutTest, WorkerCountDoesNotChangeTrainingStats) {
  // The worker pool is a wall-clock knob only: per-slot Rng streams
  // make collection embarrassingly deterministic, so every statistic
  // of a full training run must be bit-identical at any worker count.
  auto Run = [](unsigned Workers) {
    BanditEnv E1, E2, E3, E4;
    const PpoConfig C = rolloutTestConfig();
    RolloutConfig RC;
    RC.Workers = Workers;
    RC.Seed = C.Seed;
    RolloutRunner Runner({&E1, &E2, &E3, &E4}, RC);
    PpoTrainer T(Runner, C);
    return T.train();
  };
  std::vector<UpdateStats> Serial = Run(1);
  std::vector<UpdateStats> Threaded = Run(4);
  ASSERT_EQ(Serial.size(), Threaded.size());
  for (size_t I = 0; I < Serial.size(); ++I) {
    EXPECT_EQ(Serial[I].StepsDone, Threaded[I].StepsDone);
    EXPECT_EQ(Serial[I].MeanEpisodicReturn, Threaded[I].MeanEpisodicReturn);
    EXPECT_EQ(Serial[I].PolicyLoss, Threaded[I].PolicyLoss);
    EXPECT_EQ(Serial[I].ValueLoss, Threaded[I].ValueLoss);
    EXPECT_EQ(Serial[I].Entropy, Threaded[I].Entropy);
    EXPECT_EQ(Serial[I].ApproxKl, Threaded[I].ApproxKl);
    EXPECT_EQ(Serial[I].ClipFraction, Threaded[I].ClipFraction);
  }
}

TEST(RolloutTest, SlotTrajectoryInvariantToEnvCount) {
  // Slot i's action-sampling stream depends only on (seed, i), so the
  // trajectory slot 0 produces in a 1-env run equals slot 0 of a 4-env
  // run under the same frozen policy: per-slot reductions (reward sums,
  // action sequences) are batching-invariant.
  NetConfig NC;
  BanditEnv Probe;
  NC.Features = Probe.obsFeatures();
  NC.Length = Probe.obsRows();
  NC.Actions = Probe.actionCount();
  NC.Channels = 4;
  NC.Hidden = 16;

  auto Collect = [&NC](size_t NumEnvs, unsigned Workers) {
    std::vector<std::unique_ptr<Env>> Envs;
    for (size_t I = 0; I < NumEnvs; ++I)
      Envs.push_back(std::make_unique<BanditEnv>());
    RolloutConfig RC;
    RC.Workers = Workers;
    RC.Seed = 33;
    RolloutRunner Runner(std::move(Envs), RC);
    Rng NetRng(5);
    ActorCritic Net(NC, NetRng);
    return Runner.collect(Net, 32);
  };

  TrajectoryBatch One = Collect(1, 1);
  TrajectoryBatch Four = Collect(4, 4);
  ASSERT_EQ(One.Trajectories.size(), 1u);
  ASSERT_EQ(Four.Trajectories.size(), 4u);

  const Trajectory &A = One.Trajectories[0];
  const Trajectory &B = Four.Trajectories[0];
  ASSERT_EQ(A.Steps.size(), B.Steps.size());
  for (size_t I = 0; I < A.Steps.size(); ++I) {
    EXPECT_EQ(A.Steps[I].Action, B.Steps[I].Action);
    EXPECT_EQ(A.Steps[I].Reward, B.Steps[I].Reward);
    EXPECT_EQ(A.Steps[I].LogProb, B.Steps[I].LogProb);
  }
  EXPECT_EQ(A.rewardSum(), B.rewardSum());
  EXPECT_EQ(A.CompletedReturns, B.CompletedReturns);
  // Sibling slots draw from distinct streams (they must explore
  // independently, not mirror slot 0).
  bool AnySlotDiffers = false;
  for (size_t S = 1; S < 4 && !AnySlotDiffers; ++S)
    for (size_t I = 0; I < Four.Trajectories[S].Steps.size(); ++I)
      if (Four.Trajectories[S].Steps[I].Action != A.Steps[I].Action) {
        AnySlotDiffers = true;
        break;
      }
  EXPECT_TRUE(AnySlotDiffers);
}

TEST(RolloutTest, EpisodeStatePersistsAcrossCollectCalls) {
  // BanditEnv episodes last 4 steps; a 32-step segment completes 8.
  std::vector<std::unique_ptr<Env>> Envs;
  Envs.push_back(std::make_unique<BanditEnv>());
  RolloutConfig RC;
  RC.Seed = 3;
  RolloutRunner Runner(std::move(Envs), RC);
  NetConfig NC;
  BanditEnv Probe;
  NC.Features = Probe.obsFeatures();
  NC.Length = Probe.obsRows();
  NC.Actions = Probe.actionCount();
  NC.Channels = 4;
  NC.Hidden = 16;
  Rng NetRng(5);
  ActorCritic Net(NC, NetRng);

  TrajectoryBatch First = Runner.collect(Net, 30);
  TrajectoryBatch Second = Runner.collect(Net, 30);
  // 60 steps = 15 full episodes; the 8th episode straddles the calls.
  EXPECT_EQ(First.Trajectories[0].CompletedReturns.size(), 7u);
  EXPECT_EQ(Second.Trajectories[0].CompletedReturns.size(), 8u);
  EXPECT_EQ(First.totalSteps(), 30u);
}
