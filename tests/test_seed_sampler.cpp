#include "core/seed_sampler.h"
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "nn/metrics.h"
#include "op/class_conditional.h"
#include "op/generator_profile.h"
#include "op/gmm.h"
#include "op/histogram.h"
#include "test_helpers.h"
#include "util/parallel.h"

namespace opad {
namespace {

class SeedSamplerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    task_ = new testing::RingTask(testing::make_ring_task(500, 100, 21));
    Rng rng(22);
    model_ = new Classifier(testing::train_mlp(task_->train, 24, 25, rng));
    profile_ = std::make_shared<GaussianGeneratorProfile>(task_->generator);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete task_;
    model_ = nullptr;
    task_ = nullptr;
    profile_.reset();
  }

  static testing::RingTask* task_;
  static Classifier* model_;
  static ProfilePtr profile_;
};

testing::RingTask* SeedSamplerTest::task_ = nullptr;
Classifier* SeedSamplerTest::model_ = nullptr;
ProfilePtr SeedSamplerTest::profile_;

TEST_F(SeedSamplerTest, WeightsArePositiveAndFinite) {
  SeedSamplerConfig config;
  const SeedSampler sampler(config, profile_);
  const auto w = sampler.weights(*model_, task_->test);
  ASSERT_EQ(w.size(), task_->test.size());
  for (double v : w) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GT(v, 0.0);
  }
}

TEST_F(SeedSamplerTest, GammaOneIsPureDensity) {
  SeedSamplerConfig config;
  config.gamma = 1.0;
  const SeedSampler sampler(config, profile_);
  const auto w = sampler.weights(*model_, task_->test);
  // Weight ordering must follow density ordering exactly.
  std::size_t dense = 0, sparse = 0;
  double best_density = -1e18, worst_density = 1e18;
  for (std::size_t i = 0; i < task_->test.size(); ++i) {
    const double d = profile_->log_density(task_->test.sample(i).x);
    if (d > best_density) {
      best_density = d;
      dense = i;
    }
    if (d < worst_density) {
      worst_density = d;
      sparse = i;
    }
  }
  EXPECT_GT(w[dense], w[sparse]);
}

TEST_F(SeedSamplerTest, GammaZeroIsPureAuxiliary) {
  SeedSamplerConfig config;
  config.gamma = 0.0;
  config.aux = AuxiliaryKind::kMargin;
  const SeedSampler sampler(config, profile_);
  const auto w = sampler.weights(*model_, task_->test);
  const auto margins = batch_margins(*model_, task_->test.inputs());
  // Weights are exactly 1 - margin (floored); ordering must invert.
  std::size_t risky = 0, safe = 0;
  for (std::size_t i = 0; i < margins.size(); ++i) {
    if (margins[i] < margins[risky]) risky = i;
    if (margins[i] > margins[safe]) safe = i;
  }
  EXPECT_GE(w[risky], w[safe]);
}

TEST_F(SeedSamplerTest, NoProfileMeansUniformDensityFactor) {
  SeedSamplerConfig config;
  config.gamma = 1.0;
  config.aux = AuxiliaryKind::kNone;
  const SeedSampler sampler(config, nullptr);
  const auto w = sampler.weights(*model_, task_->test);
  for (double v : w) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST_F(SeedSamplerTest, EntropyAuxiliaryWorks) {
  SeedSamplerConfig config;
  config.gamma = 0.0;
  config.aux = AuxiliaryKind::kEntropy;
  const SeedSampler sampler(config, profile_);
  const auto w = sampler.weights(*model_, task_->test);
  for (double v : w) {
    EXPECT_GT(v, 0.0);
    EXPECT_LE(v, 1.0 + 1e-9);
  }
}

TEST_F(SeedSamplerTest, SurpriseAuxiliaryRequiresReference) {
  SeedSamplerConfig config;
  config.aux = AuxiliaryKind::kSurprise;
  EXPECT_THROW(SeedSampler(config, profile_), PreconditionError);
  config.surprise_reference = task_->train.inputs();
  EXPECT_NO_THROW(SeedSampler(config, profile_));
}

TEST_F(SeedSamplerTest, SurpriseScoresHigherForOutliers) {
  SeedSamplerConfig config;
  config.gamma = 0.0;
  config.aux = AuxiliaryKind::kSurprise;
  config.surprise_reference = task_->train.inputs();
  const SeedSampler sampler(config, profile_);
  // Build a pool with one far outlier.
  Tensor inputs({3, 2});
  inputs(0, 0) = 2.0f;  // near a cluster
  inputs(1, 0) = -1.0f;
  inputs(1, 1) = 1.7f;  // near another cluster
  inputs(2, 0) = 50.0f;
  inputs(2, 1) = 50.0f;  // far outlier
  const Dataset pool(std::move(inputs), {0, 1, 0}, 3);
  const auto w = sampler.weights(*model_, pool);
  EXPECT_GT(w[2], w[0]);
  EXPECT_GT(w[2], w[1]);
}

TEST_F(SeedSamplerTest, SampleReturnsDistinctValidIndices) {
  SeedSamplerConfig config;
  const SeedSampler sampler(config, profile_);
  Rng rng(23);
  const auto picks = sampler.sample(*model_, task_->test, 20, rng);
  EXPECT_EQ(picks.size(), 20u);
  std::set<std::size_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 20u);
  for (std::size_t i : picks) ASSERT_LT(i, task_->test.size());
}

TEST_F(SeedSamplerTest, SamplingDistributionNormalised) {
  SeedSamplerConfig config;
  const SeedSampler sampler(config, profile_);
  const auto q = sampler.sampling_distribution(*model_, task_->test);
  const double total = std::accumulate(q.begin(), q.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_F(SeedSamplerTest, AllocationSamplingRespectsCells) {
  Rng rng(24);
  SeedSamplerConfig config;
  const SeedSampler sampler(config, profile_);
  const CellPartition partition =
      CellPartition::fit(task_->test.inputs(), 2, 2, rng);
  // Ask for seeds only from cell of the first test point.
  const std::size_t target_cell =
      partition.cell_index(task_->test.sample(0).x);
  std::vector<std::size_t> allocation(partition.cell_count(), 0);
  allocation[target_cell] = 5;
  const auto picks = sampler.sample_with_allocation(
      *model_, task_->test, partition, allocation, rng);
  EXPECT_GE(picks.size(), 1u);
  for (std::size_t i : picks) {
    EXPECT_EQ(partition.cell_index(task_->test.sample(i).x), target_cell);
  }
}

TEST_F(SeedSamplerTest, AllocationShortfallRedistributed) {
  Rng rng(25);
  SeedSamplerConfig config;
  const SeedSampler sampler(config, profile_);
  const CellPartition partition =
      CellPartition::fit(task_->test.inputs(), 4, 2, rng);
  // Find an empty cell and allocate everything there.
  std::vector<bool> occupied(partition.cell_count(), false);
  for (std::size_t i = 0; i < task_->test.size(); ++i) {
    occupied[partition.cell_index(task_->test.sample(i).x)] = true;
  }
  std::size_t empty_cell = partition.cell_count();
  for (std::size_t c = 0; c < occupied.size(); ++c) {
    if (!occupied[c]) {
      empty_cell = c;
      break;
    }
  }
  ASSERT_LT(empty_cell, partition.cell_count()) << "expected an empty cell";
  std::vector<std::size_t> allocation(partition.cell_count(), 0);
  allocation[empty_cell] = 8;
  const auto picks = sampler.sample_with_allocation(
      *model_, task_->test, partition, allocation, rng);
  // Shortfall redistributed to other rows rather than dropped.
  EXPECT_EQ(picks.size(), 8u);
}

TEST_F(SeedSamplerTest, BatchedWeightsMatchPerRowLoopAcrossThreadCounts) {
  // Restores the global pool to its default when the sweep exits.
  struct GlobalPoolGuard {
    ~GlobalPoolGuard() { ThreadPool::configure_global(0); }
  } guard;
  Rng rng(23);
  GmmConfig gmm;
  gmm.components = 4;
  gmm.max_iterations = 10;
  ClassConditionalConfig cc;
  cc.gmm.components = 2;
  cc.gmm.max_iterations = 10;
  const std::vector<ProfilePtr> profiles = {
      profile_,
      std::make_shared<GaussianMixtureModel>(
          GaussianMixtureModel::fit(task_->train.inputs(), gmm, rng)),
      std::make_shared<ClassConditionalProfile>(
          ClassConditionalProfile::fit(task_->train, cc, rng))};
  SeedSamplerConfig config;
  config.aux = AuxiliaryKind::kNone;  // w = density^gamma exactly
  const Dataset& pool = task_->test;
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    // Reference: every row scored on its own, serially.
    std::vector<double> log_p(pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i) {
      log_p[i] = profiles[p]->log_density(pool.sample(i).x);
    }
    const double max_lp = *std::max_element(log_p.begin(), log_p.end());
    const SeedSampler sampler(config, profiles[p]);
    for (const std::size_t threads : {1u, 8u}) {
      ThreadPool::configure_global(threads);
      const auto w = sampler.weights(*model_, pool);
      ASSERT_EQ(w.size(), pool.size());
      for (std::size_t i = 0; i < pool.size(); ++i) {
        const double density = std::exp(std::max(log_p[i] - max_lp, -30.0));
        const double expected =
            std::pow(density, config.gamma) * std::pow(1.0, 1.0 - config.gamma);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(w[i]),
                  std::bit_cast<std::uint64_t>(expected))
            << "profile " << p << " row " << i << " threads " << threads;
      }
    }
  }
}

TEST(SeedSamplerConfigValidation, GammaRange) {
  SeedSamplerConfig config;
  config.gamma = 1.5;
  EXPECT_THROW(SeedSampler(config, nullptr), PreconditionError);
  config.gamma = -0.1;
  EXPECT_THROW(SeedSampler(config, nullptr), PreconditionError);
}

TEST(AuxiliaryKindName, CoversAll) {
  EXPECT_STREQ(auxiliary_kind_name(AuxiliaryKind::kMargin), "margin");
  EXPECT_STREQ(auxiliary_kind_name(AuxiliaryKind::kEntropy), "entropy");
  EXPECT_STREQ(auxiliary_kind_name(AuxiliaryKind::kSurprise), "surprise");
  EXPECT_STREQ(auxiliary_kind_name(AuxiliaryKind::kNone), "none");
}

}  // namespace
}  // namespace opad
