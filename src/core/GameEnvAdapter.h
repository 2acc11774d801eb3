//===- core/GameEnvAdapter.h - AssemblyGame as an rl::Env --------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Adapts the assembly game to the Gym-like surface PPO consumes
/// (§3.7: "the reordering process is encapsulated in the environment
/// transition, which followed the standardized Gym interface").
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_CORE_GAMEENVADAPTER_H
#define CUASMRL_CORE_GAMEENVADAPTER_H

#include "env/AssemblyGame.h"
#include "rl/Env.h"

#include <cassert>
#include <memory>
#include <utility>

namespace cuasmrl {
namespace core {

/// Thin adapter; non-owning by default, or owning when handed the game
/// by unique_ptr (the RolloutRunner env-pool case, where the runner
/// must keep its games alive).
class GameEnvAdapter : public rl::Env {
public:
  explicit GameEnvAdapter(env::AssemblyGame &Game) : Game(Game) {}
  explicit GameEnvAdapter(std::unique_ptr<env::AssemblyGame> Owned)
      : OwnedGame((assert(Owned && "owning adapter needs a game"),
                   std::move(Owned))),
        Game(*OwnedGame) {}

  std::vector<float> reset() override { return Game.reset(); }

  rl::EnvStep step(unsigned Action) override {
    env::AssemblyGame::StepResult R = Game.step(Action);
    rl::EnvStep Out;
    Out.Obs = std::move(R.Observation);
    Out.Reward = R.Reward;
    Out.Done = R.Done;
    return Out;
  }

  std::vector<uint8_t> actionMask() override { return Game.actionMask(); }
  unsigned actionCount() const override { return Game.actionCount(); }
  size_t obsRows() const override { return Game.obsRows(); }
  size_t obsFeatures() const override { return Game.obsFeatures(); }

  env::AssemblyGame &game() { return Game; }

private:
  std::unique_ptr<env::AssemblyGame> OwnedGame; ///< Null when non-owning.
  env::AssemblyGame &Game;
};

} // namespace core
} // namespace cuasmrl

#endif // CUASMRL_CORE_GAMEENVADAPTER_H
