// The Figure-1 workflow: the five-step iterative operational testing loop.
//
//   Step 1 (RQ1, once):   learn the OP from an operational sample and
//                         synthesise the operational dataset; calibrate
//                         the naturalness threshold tau on it.
//   Step 2 (RQ2, loop):   weight-based seed sampling, guided after the
//                         first iteration by the assessor's per-cell
//                         allocation feedback.
//   Step 3 (RQ3, loop):   naturalness-guided fuzzing around each seed.
//   Step 4 (RQ4, loop):   OP-weighted adversarial retraining on the
//                         detected operational AEs.
//   Step 5 (RQ5, loop):   cell-based reliability assessment of the
//                         retrained model; stop when the upper credible
//                         bound on pmi meets the target, else feed the
//                         posterior back into step 2.
//
// Execution: the steps run one after another. The loop is a strict
// chain (each round's attack needs the previous round's retrained
// weights), so the parallelism lives inside the steps: fuzzing attacks
// seed lanes on the pool, and retraining, assessment and the RQ1 fit use
// the pool internally. Every PipelineResult field except `trace` is
// bit-identical at any OPAD_THREADS value (test-pinned at {1,8}).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "attack/natural_fuzzer.h"
#include "core/assessor.h"
#include "core/retrainer.h"
#include "core/seed_sampler.h"
#include "core/test_generator.h"
#include "op/synthesizer.h"

namespace opad {

struct PipelineConfig {
  SynthesizerConfig rq1;
  SeedSamplerConfig rq2;
  NaturalFuzzerConfig rq3;  // rq3.tau is overwritten by calibration
  RetrainConfig rq4;
  AssessorConfig rq5;

  std::size_t seeds_per_iteration = 80;
  std::size_t max_iterations = 5;
  /// tau = this quantile of the naturalness scores of the operational
  /// dataset (see naturalness_threshold()).
  double naturalness_quantile = 0.05;
  /// Route the RQ5 posterior into RQ2 seed allocation.
  bool use_feedback_allocation = true;
  /// Total model-query budget for the whole run (attacks + assessment).
  std::uint64_t query_budget = 500000;
  /// Seeds per Attack::run_batch lane group in the RQ3 fuzzing step.
  /// Purely a batching knob: results are bit-identical at any width.
  std::size_t attack_lane_width = TestCaseGenerator::kDefaultLaneWidth;
  /// Rows per chunk when campaign stages consume a SampleStream (the
  /// out-of-core path; see DESIGN.md "Out-of-core streaming"). Purely a
  /// memory/throughput knob: streaming consumers are bit-identical at any
  /// chunk size.
  std::size_t stream_chunk_size = 4096;
  /// Cap on PipelineResult::all_aes (0 = retain everything). Detection
  /// stats stay uncapped — the cap bounds long-campaign memory, keeping
  /// the first `max_retained_aes` AEs in canonical seed order
  /// (regression-pinned).
  std::size_t max_retained_aes = 0;
};

/// Wall time one pipeline step spent, summed across iterations.
struct StepTiming {
  std::string name;
  std::size_t items = 0;       // iterations that ran the step
  std::size_t rows = 0;        // rows the step processed
  std::uint64_t busy_us = 0;   // summed wall time
  /// Always 0: the steps hand off in memory, with no queue between them.
  /// Kept for benchmark readers that report queue occupancy.
  std::size_t peak_queue = 0;
};

/// Per-step attribution of a pipeline run. The steps are `sample` (RQ2),
/// `fuzz` (RQ3: attack, naturalness scoring and the budget fold),
/// `retrain` (RQ4) and `assess` (RQ5), in that order.
struct PipelineTrace {
  std::vector<StepTiming> stages;
};

struct IterationRecord {
  std::size_t iteration = 0;
  DetectionStats detection;
  RetrainResult retrain;
  Assessment assessment;
  std::uint64_t budget_used_total = 0;  // cumulative at end of iteration
};

struct PipelineResult {
  std::vector<IterationRecord> iterations;
  bool target_reached = false;
  std::uint64_t total_queries = 0;
  double tau = 0.0;
  std::vector<OperationalAE> all_aes;  // across iterations (capped)
  /// RQ1 GMM fit witness (empty when the OP model is a KDE): per-EM-
  /// iteration mean log-likelihood, bit-identical across thread counts.
  GmmFitTrace gmm_trace;
  /// Where the wall-clock went, per step, summed across iterations.
  /// Attribution only — excluded from the determinism contract.
  PipelineTrace trace;
};

class OpTestingPipeline {
 public:
  explicit OpTestingPipeline(PipelineConfig config);

  /// Observation hook, called after each iteration (e.g. for logging true
  /// pmi against an external oracle in experiments).
  using IterationCallback =
      std::function<void(const IterationRecord&, Classifier&)>;

  /// Runs the loop on `model`, which is retrained in place.
  /// `operational_sample` is the observed (small, labelled) operational
  /// data from which the OP is learned.
  PipelineResult run(Classifier& model, const Dataset& operational_sample,
                     Rng& rng, const IterationCallback& callback = {}) const;

  const PipelineConfig& config() const { return config_; }

 private:
  PipelineConfig config_;
};

}  // namespace opad
