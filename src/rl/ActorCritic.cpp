//===- rl/ActorCritic.cpp -------------------------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "rl/ActorCritic.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <istream>
#include <numeric>
#include <optional>
#include <ostream>

using namespace cuasmrl;
using namespace cuasmrl::rl;

namespace {

/// Orthogonal initialization (Gram-Schmidt over the smaller dimension)
/// scaled by \p Gain; the convention from the PPO-details study.
Tensor orthogonal(std::vector<size_t> Shape, double Gain, Rng &R) {
  size_t Rows = Shape[0];
  size_t Cols = 1;
  for (size_t D = 1; D < Shape.size(); ++D)
    Cols *= Shape[D];

  std::vector<std::vector<double>> Q(Rows, std::vector<double>(Cols));
  for (auto &Row : Q)
    for (double &V : Row)
      V = R.normal();

  // Gram-Schmidt over rows (transpose logic when Rows > Cols so the
  // orthogonalized dimension is the smaller one).
  bool Transpose = Rows > Cols;
  size_t N = Transpose ? Cols : Rows;
  size_t M = Transpose ? Rows : Cols;
  auto At = [&](size_t I, size_t J) -> double & {
    return Transpose ? Q[J][I] : Q[I][J];
  };
  for (size_t I = 0; I < N; ++I) {
    for (size_t P = 0; P < I; ++P) {
      double Dot = 0;
      for (size_t J = 0; J < M; ++J)
        Dot += At(I, J) * At(P, J);
      for (size_t J = 0; J < M; ++J)
        At(I, J) -= Dot * At(P, J);
    }
    double Norm = 0;
    for (size_t J = 0; J < M; ++J)
      Norm += At(I, J) * At(I, J);
    Norm = std::sqrt(std::max(Norm, 1e-12));
    for (size_t J = 0; J < M; ++J)
      At(I, J) /= Norm;
  }

  std::vector<float> Data(Rows * Cols);
  for (size_t I = 0; I < Rows; ++I)
    for (size_t J = 0; J < Cols; ++J)
      Data[I * Cols + J] = static_cast<float>(Q[I][J] * Gain);
  return Tensor::fromVector(std::move(Data), std::move(Shape),
                            /*RequiresGrad=*/true);
}

} // namespace

ActorCritic::ActorCritic(NetConfig C, Rng &R) : Config(C) {
  assert(C.Features && C.Length && C.Actions && "geometry must be set");
  double HiddenGain = std::sqrt(2.0);
  W1 = orthogonal({C.Channels, C.Features, C.Kernel}, HiddenGain, R);
  B1 = Tensor::zeros({C.Channels}, true);
  W2 = orthogonal({C.Channels, C.Channels, C.Kernel}, HiddenGain, R);
  B2 = Tensor::zeros({C.Channels}, true);
  Wh = orthogonal({C.Hidden, 2 * C.Channels}, HiddenGain, R);
  Bh = Tensor::zeros({C.Hidden}, true);
  Wp = orthogonal({C.Actions, C.Hidden}, 0.01, R);
  Bp = Tensor::zeros({C.Actions}, true);
  Wv = orthogonal({1, C.Hidden}, 1.0, R);
  Bv = Tensor::zeros({1}, true);
}

ActorCritic::Output
ActorCritic::forward(const std::vector<Input> &Batch) const {
  // Row counts come from the observations themselves: the conv stack
  // and mean/max pooling are length-free, so one network consumes
  // observations from differently sized kernels (Config.Length is only
  // the pool maximum, for documentation and sizing).
  const size_t F = Config.Features;
  std::vector<size_t> Lens;
  Lens.reserve(Batch.size());
  for (const Input &In : Batch) {
    assert(F > 0 && !In.Obs.empty() && In.Obs.size() % F == 0 &&
           "observation shape mismatch");
    assert(In.Mask.size() == Config.Actions && "mask shape mismatch");
    Lens.push_back(In.Obs.size() / F);
  }
  const size_t Total = std::accumulate(Lens.begin(), Lens.end(), size_t(0));

  // Transpose each [L x F] row-major observation into its channel-major
  // [F x L] block of the ragged batch.
  std::vector<float> ChanMajor(F * Total);
  std::vector<uint8_t> Masks;
  Masks.reserve(Batch.size() * Config.Actions);
  float *Block = ChanMajor.data();
  for (size_t S = 0; S < Batch.size(); ++S) {
    const size_t L = Lens[S];
    for (size_t Row = 0; Row < L; ++Row)
      for (size_t Feat = 0; Feat < F; ++Feat)
        Block[Feat * L + Row] = Batch[S].Obs[Row * F + Feat];
    Block += F * L;
    Masks.insert(Masks.end(), Batch[S].Mask.begin(), Batch[S].Mask.end());
  }

  Tensor X = Tensor::fromVector(std::move(ChanMajor), {F, Total});
  X = relu(conv1d(X, W1, B1, Lens));
  X = relu(conv1d(X, W2, B2, Lens));
  Tensor Pooled = concat(meanPool(X, Lens), maxPool(X, Lens));
  Tensor H = relu(linear(Wh, Pooled, Bh));

  Output Out;
  Out.MaskedLogits = maskedFill(linear(Wp, H, Bp), Masks);
  Out.Value = linear(Wv, H, Bv);
  return Out;
}

std::vector<Tensor> ActorCritic::parameters() const {
  return {W1, B1, W2, B2, Wh, Bh, Wp, Bp, Wv, Bv};
}

void ActorCritic::save(std::ostream &OS) const {
  const char Magic[8] = {'C', 'U', 'A', 'S', 'M', 'R', 'L', '1'};
  OS.write(Magic, sizeof(Magic));
  std::vector<Tensor> Params = parameters();
  uint32_t Count = static_cast<uint32_t>(Params.size());
  OS.write(reinterpret_cast<const char *>(&Count), sizeof(Count));
  for (const Tensor &P : Params) {
    uint32_t Dims = static_cast<uint32_t>(P.shape().size());
    OS.write(reinterpret_cast<const char *>(&Dims), sizeof(Dims));
    for (size_t D : P.shape()) {
      uint64_t D64 = D;
      OS.write(reinterpret_cast<const char *>(&D64), sizeof(D64));
    }
    OS.write(reinterpret_cast<const char *>(P.data().data()),
             static_cast<std::streamsize>(P.size() * sizeof(float)));
  }
}

namespace {

/// One checkpoint tensor parsed into temporary storage.
struct ParsedTensor {
  std::vector<size_t> Shape;
  std::vector<float> Data;
};

/// Parses a full checkpoint stream into temporaries — no live tensor
/// is touched, which is what makes load() transactional. nullopt on
/// any malformed input (bad magic, truncated stream, absurd sizes).
std::optional<std::vector<ParsedTensor>> parseCheckpoint(std::istream &IS) {
  // Sanity bounds: a real checkpoint holds 10 tensors of at most a few
  // million floats; anything beyond these limits is corruption. Data is
  // read in chunks of at most ChunkElems, so storage grows only with
  // the bytes the stream really holds: a short stream claiming a huge
  // tensor fails at its first missing chunk, not after allocating it.
  constexpr uint32_t MaxTensors = 256;
  constexpr uint32_t MaxDims = 8;
  constexpr uint64_t MaxElems = uint64_t(1) << 28;
  constexpr uint64_t ChunkElems = uint64_t(1) << 16;

  char Magic[8];
  IS.read(Magic, sizeof(Magic));
  if (!IS || std::string(Magic, 8) != "CUASMRL1")
    return std::nullopt;
  uint32_t Count = 0;
  IS.read(reinterpret_cast<char *>(&Count), sizeof(Count));
  if (!IS || Count == 0 || Count > MaxTensors)
    return std::nullopt;

  std::vector<ParsedTensor> Tensors(Count);
  for (ParsedTensor &T : Tensors) {
    uint32_t Dims = 0;
    IS.read(reinterpret_cast<char *>(&Dims), sizeof(Dims));
    if (!IS || Dims == 0 || Dims > MaxDims)
      return std::nullopt;
    uint64_t Elems = 1;
    for (uint32_t D = 0; D < Dims; ++D) {
      uint64_t D64 = 0;
      IS.read(reinterpret_cast<char *>(&D64), sizeof(D64));
      if (!IS || D64 == 0 || D64 > MaxElems)
        return std::nullopt;
      Elems *= D64;
      if (Elems > MaxElems)
        return std::nullopt;
      T.Shape.push_back(static_cast<size_t>(D64));
    }
    for (uint64_t Done = 0; Done < Elems;) {
      const uint64_t Chunk = std::min(ChunkElems, Elems - Done);
      T.Data.resize(static_cast<size_t>(Done + Chunk));
      IS.read(reinterpret_cast<char *>(T.Data.data() + Done),
              static_cast<std::streamsize>(Chunk * sizeof(float)));
      if (!IS)
        return std::nullopt;
      Done += Chunk;
    }
  }
  return Tensors;
}

} // namespace

bool ActorCritic::load(std::istream &IS) {
  std::optional<std::vector<ParsedTensor>> Parsed = parseCheckpoint(IS);
  std::vector<Tensor> Params = parameters();
  if (!Parsed || Parsed->size() != Params.size())
    return false;
  // Validate every shape before touching any live tensor: the swap
  // below happens only when the whole checkpoint matches.
  for (size_t I = 0; I < Params.size(); ++I)
    if ((*Parsed)[I].Shape != Params[I].shape())
      return false;
  for (size_t I = 0; I < Params.size(); ++I)
    Params[I].data() = std::move((*Parsed)[I].Data);
  return true;
}

size_t ActorCritic::loadCompatible(std::istream &IS) {
  std::optional<std::vector<ParsedTensor>> Parsed = parseCheckpoint(IS);
  if (!Parsed)
    return 0;
  std::vector<Tensor> Params = parameters();
  size_t Matched = 0;
  // Position + shape matching: the parameter order is fixed (W1, B1,
  // W2, B2, Wh, Bh, Wp, Bp, Wv, Bv), so tensor I of the checkpoint
  // corresponds to tensor I of this net; a shape mismatch (e.g. the
  // policy head of a different action count, or conv1 at a different
  // feature width) skips that tensor and keeps its current init.
  const size_t N = std::min(Parsed->size(), Params.size());
  for (size_t I = 0; I < N; ++I) {
    if ((*Parsed)[I].Shape != Params[I].shape())
      continue;
    Params[I].data() = std::move((*Parsed)[I].Data);
    ++Matched;
  }
  return Matched;
}
