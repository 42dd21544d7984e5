#include <cmath>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>
// End-to-end integration test of the Figure-1 pipeline on the ring task.
#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "nn/serialize.h"
#include "reliability/ground_truth.h"
#include "test_helpers.h"
#include "util/parallel.h"

namespace opad {
namespace {

/// Restores the global pool to its OPAD_THREADS / hardware default when a
/// thread-count-sweeping test exits (also on failure).
struct GlobalPoolGuard {
  ~GlobalPoolGuard() { ThreadPool::configure_global(0); }
};

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  if (a.size() == 0) return true;
  return std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

PipelineConfig small_pipeline_config() {
  PipelineConfig config;
  config.rq1.synthetic_size = 500;
  config.rq1.gmm.components = 3;
  config.rq3.ball.eps = 0.4f;
  config.rq3.ball.input_lo = -5.0f;
  config.rq3.ball.input_hi = 5.0f;
  config.rq3.steps = 10;
  config.rq3.restarts = 2;
  config.rq4.epochs = 3;
  config.rq5.bins_per_dim = 4;
  config.rq5.probes_per_assessment = 50;
  config.rq5.target_pmi = 0.02;
  config.seeds_per_iteration = 40;
  config.max_iterations = 3;
  config.query_budget = 200000;
  return config;
}

TEST(Pipeline, RunsAllIterationsAndRecordsEverything) {
  // Operational distribution: skewed priors + slight shift.
  auto op_generator = GaussianClustersGenerator::make_ring(3, 2.0, 0.15)
                          .with_class_priors({0.6, 0.3, 0.1});
  Rng rng(51);
  const Dataset operational_sample = op_generator.make_dataset(150, rng);

  auto task = testing::make_ring_task(600, 100, 52);
  Rng train_rng(53);
  Classifier model = testing::train_mlp(task.train, 24, 25, train_rng);

  const OpTestingPipeline pipeline(small_pipeline_config());
  std::size_t callbacks = 0;
  const PipelineResult result = pipeline.run(
      model, operational_sample, rng,
      [&callbacks](const IterationRecord& record, Classifier&) {
        ++callbacks;
        EXPECT_GT(record.assessment.probes, 0u);
      });

  EXPECT_GE(result.iterations.size(), 1u);
  EXPECT_LE(result.iterations.size(), 3u);
  EXPECT_EQ(callbacks, result.iterations.size());
  EXPECT_GT(result.total_queries, 0u);
  EXPECT_LE(result.total_queries, 200000u);  // budget is a hard ceiling
  EXPECT_TRUE(std::isfinite(result.tau));
  for (const auto& record : result.iterations) {
    EXPECT_GT(record.detection.seeds_attacked, 0u);
    EXPECT_GE(record.assessment.pmi_upper, record.assessment.pmi_mean);
  }
}

TEST(Pipeline, ImprovesOperationalReliability) {
  auto op_generator = GaussianClustersGenerator::make_ring(3, 2.0, 0.2)
                          .with_class_priors({0.5, 0.35, 0.15});
  Rng rng(54);
  const Dataset operational_sample = op_generator.make_dataset(200, rng);

  // Deliberately under-trained model: plenty of operational AEs exist.
  auto task = testing::make_ring_task(300, 100, 55);
  Rng train_rng(56);
  Classifier model = testing::train_mlp(task.train, 12, 6, train_rng);

  GroundTruthConfig gt_config;
  gt_config.samples = 1500;
  Rng gt_rng(57);
  const double before =
      true_misclassification_rate(model, op_generator, gt_config, gt_rng)
          .estimate;

  PipelineConfig config = small_pipeline_config();
  config.max_iterations = 4;
  config.seeds_per_iteration = 60;
  config.rq5.target_pmi = 1e-6;  // never met: run all iterations
  const OpTestingPipeline pipeline(config);
  pipeline.run(model, operational_sample, rng);

  Rng gt_rng2(57);
  const double after =
      true_misclassification_rate(model, op_generator, gt_config, gt_rng2)
          .estimate;
  // The retrained model must not be worse on the true OP, and typically
  // improves substantially on an under-trained start.
  EXPECT_LE(after, before + 0.02)
      << "pipeline must not degrade operational reliability (before="
      << before << ", after=" << after << ")";
}

TEST(Pipeline, StopsWhenTargetMet) {
  auto op_generator = GaussianClustersGenerator::make_ring(3, 2.0, 0.15);
  Rng rng(58);
  const Dataset operational_sample = op_generator.make_dataset(150, rng);
  auto task = testing::make_ring_task(600, 100, 59);
  Rng train_rng(60);
  Classifier model = testing::train_mlp(task.train, 24, 30, train_rng);

  PipelineConfig config = small_pipeline_config();
  config.rq5.target_pmi = 0.99;  // trivially met after one iteration
  const OpTestingPipeline pipeline(config);
  const PipelineResult result = pipeline.run(model, operational_sample, rng);
  EXPECT_TRUE(result.target_reached);
  EXPECT_EQ(result.iterations.size(), 1u);
}

TEST(Pipeline, RespectsQueryBudget) {
  auto op_generator = GaussianClustersGenerator::make_ring(3, 2.0, 0.15);
  Rng rng(61);
  const Dataset operational_sample = op_generator.make_dataset(120, rng);
  auto task = testing::make_ring_task(400, 100, 62);
  Rng train_rng(63);
  Classifier model = testing::train_mlp(task.train, 16, 10, train_rng);

  PipelineConfig config = small_pipeline_config();
  config.query_budget = 3000;  // very small
  config.max_iterations = 10;
  config.rq5.target_pmi = 1e-9;
  const OpTestingPipeline pipeline(config);
  const PipelineResult result = pipeline.run(model, operational_sample, rng);
  // Budget binds long before 10 iterations complete.
  EXPECT_LT(result.iterations.size(), 10u);
  // Regression: the final attack batch and the assessor's probe loop are
  // both clamped to the exact budget prefix, so the recorded consumption
  // can never overrun the configured budget.
  EXPECT_LE(result.total_queries, 3000u);
}

TEST(Pipeline, NeverOverrunsAnyTightBudget) {
  auto op_generator = GaussianClustersGenerator::make_ring(3, 2.0, 0.15);
  Rng data_rng(64);
  const Dataset operational_sample = op_generator.make_dataset(120, data_rng);
  auto task = testing::make_ring_task(400, 100, 65);
  Rng train_rng(66);
  const Classifier model_snapshot =
      testing::train_mlp(task.train, 16, 10, train_rng);

  // Sweep budgets so the cut-off lands mid-batch, mid-assessment, and
  // mid-iteration; total_queries <= query_budget must hold at every one.
  for (const std::uint64_t budget : {37u, 150u, 999u, 2500u}) {
    Classifier model = model_snapshot.clone();
    PipelineConfig config = small_pipeline_config();
    config.query_budget = budget;
    config.max_iterations = 4;
    config.rq5.target_pmi = 1e-9;
    const OpTestingPipeline pipeline(config);
    Rng rng(67);
    const PipelineResult result = pipeline.run(model, operational_sample, rng);
    EXPECT_LE(result.total_queries, budget) << "budget " << budget;
  }
}

TEST(Pipeline, DeterministicGivenSeeds) {
  auto op_generator = GaussianClustersGenerator::make_ring(3, 2.0, 0.2);
  Rng data_rng(71);
  const Dataset operational_sample = op_generator.make_dataset(120, data_rng);
  auto task = testing::make_ring_task(300, 50, 72);

  auto run_once = [&]() {
    Rng train_rng(73);
    Classifier model = testing::train_mlp(task.train, 12, 8, train_rng);
    PipelineConfig config = small_pipeline_config();
    config.max_iterations = 2;
    const OpTestingPipeline pipeline(config);
    Rng rng(74);
    return pipeline.run(model, operational_sample, rng);
  };
  const PipelineResult a = run_once();
  const PipelineResult b = run_once();
  EXPECT_EQ(a.total_queries, b.total_queries);
  EXPECT_EQ(a.all_aes.size(), b.all_aes.size());
  EXPECT_DOUBLE_EQ(a.tau, b.tau);
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    EXPECT_EQ(a.iterations[i].detection.aes_found,
              b.iterations[i].detection.aes_found);
    EXPECT_DOUBLE_EQ(a.iterations[i].assessment.pmi_mean,
                     b.iterations[i].assessment.pmi_mean);
  }
}

TEST(Pipeline, ValidatesConfig) {
  PipelineConfig config = small_pipeline_config();
  config.seeds_per_iteration = 0;
  EXPECT_THROW(OpTestingPipeline{config}, PreconditionError);
  config = small_pipeline_config();
  config.naturalness_quantile = 1.5;
  EXPECT_THROW(OpTestingPipeline{config}, PreconditionError);
}

// ---------------------------------------------------------------------------
// Determinism pins: every PipelineResult field except the timing trace is
// bit-identical at any thread count, down to AE bytes, the RQ1 fit trace,
// the retrained weights and the caller's rng state.

struct PipelineRun {
  PipelineResult result;
  std::vector<Tensor> weights;  // model parameters after the run
  std::uint64_t rng_next = 0;   // post-run rng state witness
};

class PipelineDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    task_ = new testing::RingTask(testing::make_ring_task(300, 50, 211));
    auto op_gen = task_->generator.with_class_priors({0.6, 0.3, 0.1});
    Rng rng(212);
    op_sample_ = new Dataset(op_gen.make_dataset(120, rng));
    Rng train_rng(213);
    model_ = new Classifier(testing::train_mlp(task_->train, 12, 8, train_rng));
  }
  static void TearDownTestSuite() {
    delete op_sample_;
    delete model_;
    op_sample_ = nullptr;
    model_ = nullptr;
    delete task_;
    task_ = nullptr;
  }

  static PipelineRun run_once(std::size_t max_retained = 0) {
    PipelineConfig config;
    config.rq1.synthetic_size = 300;
    config.rq1.gmm.components = 3;
    config.rq3.ball.eps = 0.4f;
    config.rq3.ball.input_lo = -5.0f;
    config.rq3.ball.input_hi = 5.0f;
    config.rq3.steps = 8;
    config.rq3.restarts = 2;
    config.rq4.epochs = 2;
    config.rq5.bins_per_dim = 4;
    config.rq5.probes_per_assessment = 30;
    config.rq5.target_pmi = 1e-6;  // never met: run all iterations
    config.seeds_per_iteration = 24;
    config.max_iterations = 2;
    config.query_budget = 100000;
    config.max_retained_aes = max_retained;
    const OpTestingPipeline pipeline(config);
    Classifier model = model_->clone();
    Rng rng(214);
    PipelineRun out;
    out.result = pipeline.run(model, *op_sample_, rng);
    out.weights = snapshot_parameters(model.network());
    out.rng_next = rng();  // shared-rng draw count must match exactly
    return out;
  }

  static void expect_identical(const PipelineRun& a, const PipelineRun& b,
                               const std::string& label) {
    SCOPED_TRACE(label);
    const PipelineResult& ra = a.result;
    const PipelineResult& rb = b.result;
    EXPECT_EQ(ra.total_queries, rb.total_queries);
    EXPECT_EQ(ra.target_reached, rb.target_reached);
    EXPECT_EQ(ra.tau, rb.tau);
    ASSERT_EQ(ra.iterations.size(), rb.iterations.size());
    for (std::size_t i = 0; i < ra.iterations.size(); ++i) {
      const IterationRecord& ia = ra.iterations[i];
      const IterationRecord& ib = rb.iterations[i];
      EXPECT_EQ(ia.detection.seeds_attacked, ib.detection.seeds_attacked);
      EXPECT_EQ(ia.detection.aes_found, ib.detection.aes_found);
      EXPECT_EQ(ia.detection.clean_failures, ib.detection.clean_failures);
      EXPECT_EQ(ia.detection.operational_aes, ib.detection.operational_aes);
      EXPECT_EQ(ia.detection.queries_used, ib.detection.queries_used);
      EXPECT_EQ(ia.retrain.ae_count, ib.retrain.ae_count);
      EXPECT_EQ(ia.retrain.final_loss, ib.retrain.final_loss);
      EXPECT_EQ(ia.assessment.pmi_mean, ib.assessment.pmi_mean);
      EXPECT_EQ(ia.assessment.pmi_upper, ib.assessment.pmi_upper);
      EXPECT_EQ(ia.assessment.probes, ib.assessment.probes);
      EXPECT_EQ(ia.assessment.target_met, ib.assessment.target_met);
      EXPECT_EQ(ia.budget_used_total, ib.budget_used_total);
    }
    ASSERT_EQ(ra.all_aes.size(), rb.all_aes.size());
    for (std::size_t i = 0; i < ra.all_aes.size(); ++i) {
      EXPECT_TRUE(bitwise_equal(ra.all_aes[i].seed, rb.all_aes[i].seed)) << i;
      EXPECT_TRUE(
          bitwise_equal(ra.all_aes[i].adversarial, rb.all_aes[i].adversarial))
          << i;
      EXPECT_EQ(ra.all_aes[i].naturalness, rb.all_aes[i].naturalness) << i;
      EXPECT_EQ(ra.all_aes[i].is_operational, rb.all_aes[i].is_operational)
          << i;
    }
    // The RQ1 GMM fit trace is the strictest float witness.
    ASSERT_EQ(ra.gmm_trace.mean_log_likelihood.size(),
              rb.gmm_trace.mean_log_likelihood.size());
    for (std::size_t i = 0; i < ra.gmm_trace.mean_log_likelihood.size(); ++i) {
      EXPECT_EQ(ra.gmm_trace.mean_log_likelihood[i],
                rb.gmm_trace.mean_log_likelihood[i])
          << i;
    }
    // Retrained weights and the shared rng's post-run state must agree:
    // both runs consumed the same draws in the same order.
    ASSERT_EQ(a.weights.size(), b.weights.size());
    for (std::size_t i = 0; i < a.weights.size(); ++i) {
      EXPECT_TRUE(bitwise_equal(a.weights[i], b.weights[i])) << "param " << i;
    }
    EXPECT_EQ(a.rng_next, b.rng_next);
  }

  static testing::RingTask* task_;
  static Dataset* op_sample_;
  static Classifier* model_;
};

testing::RingTask* PipelineDeterminismTest::task_ = nullptr;
Dataset* PipelineDeterminismTest::op_sample_ = nullptr;
Classifier* PipelineDeterminismTest::model_ = nullptr;

TEST_F(PipelineDeterminismTest, BitIdenticalAcrossThreadCounts) {
  GlobalPoolGuard guard;
  ThreadPool::configure_global(1);
  const PipelineRun baseline = run_once();
  ASSERT_FALSE(baseline.result.iterations.empty());
  ASSERT_FALSE(baseline.result.gmm_trace.mean_log_likelihood.empty());
  ASSERT_FALSE(baseline.result.all_aes.empty());

  ThreadPool::configure_global(8);
  expect_identical(baseline, run_once(), "threads=8");
}

TEST_F(PipelineDeterminismTest, TraceNamesEveryStepInOrder) {
  const PipelineRun run = run_once();
  const std::vector<StepTiming>& steps = run.result.trace.stages;
  const char* const names[] = {"sample", "fuzz", "retrain", "assess"};
  ASSERT_EQ(steps.size(), std::size(names));
  for (std::size_t i = 0; i < steps.size(); ++i) {
    EXPECT_EQ(steps[i].name, names[i]);
    EXPECT_EQ(steps[i].items, run.result.iterations.size()) << names[i];
    EXPECT_EQ(steps[i].peak_queue, 0u) << names[i];
  }
  // `fuzz` sees every sampled seed.
  EXPECT_EQ(steps[1].rows, steps[0].rows);
}

TEST_F(PipelineDeterminismTest, MaxRetainedAesCapsRetentionNotStats) {
  const PipelineRun full = run_once();
  ASSERT_GE(full.result.all_aes.size(), 3u)
      << "config must find enough AEs for the cap to bind";
  const std::size_t cap = full.result.all_aes.size() / 2;

  const PipelineRun capped = run_once(cap);
  // Retention capped to the first `cap` AEs in canonical order...
  ASSERT_EQ(capped.result.all_aes.size(), cap);
  for (std::size_t i = 0; i < cap; ++i) {
    EXPECT_TRUE(bitwise_equal(capped.result.all_aes[i].adversarial,
                              full.result.all_aes[i].adversarial))
        << i;
  }
  // ...while stats, accounting, and the retrained model are untouched.
  ASSERT_EQ(capped.result.iterations.size(), full.result.iterations.size());
  for (std::size_t i = 0; i < capped.result.iterations.size(); ++i) {
    EXPECT_EQ(capped.result.iterations[i].detection.aes_found,
              full.result.iterations[i].detection.aes_found);
    EXPECT_EQ(capped.result.iterations[i].detection.operational_aes,
              full.result.iterations[i].detection.operational_aes);
  }
  EXPECT_EQ(capped.result.total_queries, full.result.total_queries);
  ASSERT_EQ(capped.weights.size(), full.weights.size());
  for (std::size_t i = 0; i < capped.weights.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(capped.weights[i], full.weights[i])) << i;
  }
  EXPECT_EQ(capped.rng_next, full.rng_next);
}

}  // namespace
}  // namespace opad
