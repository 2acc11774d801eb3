//===- rl/Env.h - Gym-like environment interface ------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The minimal environment surface PPO needs (the paper wraps its
/// reordering transition in "the standardized Gym interface", §3.7).
/// The assembly game adapts to this in core/; tests plug in toy
/// environments to validate the algorithm in isolation.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_RL_ENV_H
#define CUASMRL_RL_ENV_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cuasmrl {
namespace rl {

/// One environment transition.
struct EnvStep {
  std::vector<float> Obs;
  double Reward = 0.0;
  bool Done = false;
};

/// Abstract episodic environment with invalid-action masking.
///
/// Thread-safety contract: an Env instance is single-threaded — the
/// rollout engine steps each env from exactly one worker at a time,
/// never two. Implementations may therefore keep mutable state without
/// locking, but must not share mutable state *between* instances
/// unless that state is itself thread-safe (the assembly game shares
/// only a MeasurementCache, which is). reset()/step()/actionMask() are
/// called from worker threads; the three shape accessors must be safe
/// to call at any time.
class Env {
public:
  virtual ~Env();

  virtual std::vector<float> reset() = 0;
  virtual EnvStep step(unsigned Action) = 0;
  /// Legality per action; all-zero masks are treated as uniform.
  virtual std::vector<uint8_t> actionMask() = 0;
  virtual unsigned actionCount() const = 0;
  /// Observation matrix shape (instructions x features).
  virtual size_t obsRows() const = 0;
  virtual size_t obsFeatures() const = 0;
};

} // namespace rl
} // namespace cuasmrl

#endif // CUASMRL_RL_ENV_H
