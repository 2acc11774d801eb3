//===- rl/ActorCritic.h - CNN encoder + MLP heads (paper §3.5/3.7) -----------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// "The RL agent has a Convolutional Neural Network (CNN) for encoding
/// the state representation, followed by an MLP layer to output the
/// probability of each action" (§3.5), trained with an actor-critic
/// policy-gradient algorithm (§3.7). The embedding matrix enters with
/// instructions along the convolution length axis and features as
/// channels; two same-padded conv layers, mean+max pooling, a hidden MLP
/// and separate policy/value heads. Orthogonal initialization with the
/// standard gains (hidden sqrt(2), policy 0.01, value 1.0) follows the
/// PPO implementation-details study the paper takes its hyperparameters
/// from [11].
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_RL_ACTORCRITIC_H
#define CUASMRL_RL_ACTORCRITIC_H

#include "rl/Tensor.h"
#include "support/Rng.h"

#include <iosfwd>

namespace cuasmrl {
namespace rl {

/// Network geometry. Features is fixed per network; Length and Actions
/// are *maxima* over the envs the net trains on — the conv stack plus
/// mean/max pooling handles any row count, and shorter action spaces
/// are padded with always-masked entries (see RolloutRunner), so one
/// net serves a mixed-kernel pool.
struct NetConfig {
  size_t Features = 0; ///< Embedding features per instruction.
  size_t Length = 0;   ///< Max instructions (conv length axis).
  size_t Actions = 0;  ///< Max 2 x movable memory instructions.
  size_t Channels = 16;
  size_t Hidden = 64;
  size_t Kernel = 5;
};

/// Policy + value network.
class ActorCritic {
public:
  ActorCritic(NetConfig Config, Rng &InitRng);

  /// One observation of a batch: row-major [rows x Features] as
  /// produced by env::Embedding, and its action mask, which must span
  /// Config.Actions entries (shorter action spaces padded with zeros).
  struct Input {
    const std::vector<float> &Obs;
    const std::vector<uint8_t> &Mask;
  };

  struct Output {
    Tensor MaskedLogits; ///< [B, Actions], invalid entries at -1e9.
    Tensor Value;        ///< [B, 1]: one value per observation.
  };

  /// Builds the forward graph for a batch of B observations. Each row
  /// count is derived from its observation, so observations from
  /// differently sized kernels share one network and one batch (a
  /// ragged batch, see rl::conv1d). Rollouts and greedy replay pass one
  /// observation; the PPO update passes a minibatch, whose values and
  /// gradients equal those of one-observation graphs (rl/Tensor.h).
  Output forward(const std::vector<Input> &Batch) const;

  /// All trainable parameters (stable order; used by Adam/checkpoints).
  std::vector<Tensor> parameters() const;

  const NetConfig &config() const { return Config; }

  /// \name Checkpointing (§3.7: "the agent's weight is checkpointed")
  /// @{
  void save(std::ostream &OS) const;
  /// Transactional: the stream is parsed and validated into temporary
  /// storage first and the live weights are only replaced when every
  /// tensor matched, so a malformed or geometry-mismatched stream can
  /// never leave the net partially mutated. \returns false on
  /// malformed input or geometry mismatch (net unchanged).
  bool load(std::istream &IS);
  /// Warm start from a possibly differently-shaped checkpoint: copies
  /// every tensor whose position and shape match this net (the conv
  /// and hidden layers transfer whenever Features/Channels/Hidden
  /// agree; the policy/value heads additionally need matching action
  /// counts) and leaves the rest at their current values. \returns the
  /// number of tensors copied — 0 for a malformed stream (net
  /// unchanged, like load()).
  size_t loadCompatible(std::istream &IS);
  /// @}

private:
  NetConfig Config;
  Tensor W1, B1; ///< conv1: [C, F, K], [C].
  Tensor W2, B2; ///< conv2: [C, C, K], [C].
  Tensor Wh, Bh; ///< hidden: [H, 2C], [H].
  Tensor Wp, Bp; ///< policy head: [A, H], [A].
  Tensor Wv, Bv; ///< value head: [1, H], [1].
};

} // namespace rl
} // namespace cuasmrl

#endif // CUASMRL_RL_ACTORCRITIC_H
