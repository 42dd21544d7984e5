// RQ3 wrapper — runs an attack over a set of seeds, classifies each found
// misclassification as operational / non-operational via the naturalness
// threshold tau, and accounts model queries against a shared budget.
//
// generate() attacks and scores lane-sized seed chunks in parallel, then
// folds them in canonical seed order. Per-seed rng streams derive from
// (stream_base, seed position) and attack/score are pure functions of
// (parameters, seed, stream), so the Detection is bit-identical at any
// thread count and lane width.
#pragma once

#include <optional>
#include <vector>

#include "attack/attack.h"
#include "core/types.h"
#include "data/dataset.h"
#include "naturalness/metric.h"
#include "op/profile.h"

namespace opad {

class TestCaseGenerator {
 public:
  /// Seeds attacked together per Attack::run_batch call (and per worker
  /// chunk). Width only trades load balance against batching efficiency;
  /// results are bit-identical at any width (test-pinned).
  static constexpr std::size_t kDefaultLaneWidth = 8;

  /// `metric`/`tau` define the operational-AE acceptance rule; both may be
  /// absent for baselines that do not reason about naturalness (every AE
  /// then counts as operational = false, naturalness = NaN -> 0).
  /// `profile` (optional) annotates each AE with its seed's OP density.
  TestCaseGenerator(AttackPtr attack, NaturalnessPtr metric,
                    std::optional<double> tau, ProfilePtr profile,
                    std::size_t lane_width = kDefaultLaneWidth);

  /// Attacks pool rows `seed_indices`, accounting results in index order
  /// until the budget is exhausted (checked between seeds) or the list
  /// ends. Seeds are partitioned into lanes of `lane_width` and each lane
  /// group is attacked on a model replica through Attack::run_batch — one
  /// batched pre-check decides the clean failures, then the attack drives
  /// all still-active lanes through shared forward/backward passes. Each
  /// seed keeps its own Rng stream (derived from one draw of `rng`), so
  /// the returned Detection — including query accounting on `model` — is
  /// bit-identical for any OPAD_THREADS value and any lane width. Callers
  /// control the parallel over-run per call by the span length; the
  /// budget cut-off is applied after the batch is attacked, and only the
  /// exact affordable prefix of seeds is accounted: the first seed whose
  /// measured cost exceeds the remaining budget is discarded and the
  /// budget is marked depleted, so the consumed total never exceeds the
  /// budget (regression-pinned).
  Detection generate(Classifier& model, const Dataset& pool,
                     std::span<const std::size_t> seed_indices,
                     BudgetTracker& budget, Rng& rng) const;

  const Attack& attack() const { return *attack_; }
  std::size_t lane_width() const { return lane_width_; }

 private:
  struct SeedOutcome;

  /// Batched pre-check + lane-batched attack of pool rows
  /// seed_indices[lo, hi), then naturalness + seed OP log-density of
  /// every success; outcome j corresponds to seed_indices[lo + j]. Each
  /// seed's rng stream derives from its position in the whole span, and
  /// the chunk attacks a fresh replica of `model`, so concurrent chunks
  /// are independent.
  std::vector<SeedOutcome> attack_chunk(
      const Classifier& model, const Dataset& pool,
      std::span<const std::size_t> seed_indices, std::size_t lo,
      std::size_t hi, std::uint64_t stream_base) const;

  AttackPtr attack_;
  NaturalnessPtr metric_;
  std::optional<double> tau_;
  ProfilePtr profile_;
  std::size_t lane_width_;
};

}  // namespace opad
