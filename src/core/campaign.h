// Detect -> retrain campaign: the workhorse loop of the evaluation
// harnesses (F2, T2, T7) and the natural building block for users who
// want the Figure-1 economics without the RQ5 assessment machinery —
// "spend this query budget with this method, folding what it finds back
// into the model every round".
//
// Execution: the rounds run one after another — round r+1's detect
// needs round r's retrained weights — and detect and retrain each use the
// pool internally. The CampaignResult is bit-identical at any
// OPAD_THREADS value (test-pinned at {1,8}).
#pragma once

#include "core/methods.h"
#include "core/retrainer.h"

namespace opad {

struct CampaignConfig {
  std::size_t rounds = 4;
  std::uint64_t query_budget = 20000;  // total across rounds
  RetrainConfig retrain;
  std::uint64_t base_seed = 1;  // derives per-round rng streams
};

struct CampaignRound {
  std::size_t round = 0;
  DetectionStats detection;
  RetrainResult retrain;
};

struct CampaignResult {
  std::vector<CampaignRound> rounds;
  /// Cross-round accounting, folded with DetectionStats::operator+= so
  /// every stats field aggregates (the old struct carried three hand-
  /// picked totals and silently dropped the rest).
  DetectionStats totals;
};

/// Runs `method` against `model` for config.rounds rounds, retraining on
/// `anchor` + the round's findings after each round. The model is
/// modified in place.
CampaignResult run_detect_retrain_campaign(Classifier& model,
                                           const TestingMethod& method,
                                           const MethodContext& context,
                                           const Dataset& anchor,
                                           const CampaignConfig& config);

}  // namespace opad
