// F1 — the Figure-1 workflow end to end on the digits workload.
//
// Reproduces the paper's proposed five-step loop and reports, per
// iteration: detected AEs / operational AEs, the RQ5 reliability claim
// (posterior mean and 95% upper bound on pmi — the probability that the
// next operational input is mishandled, where "mishandled" means wrong
// OR not locally robust, the ReAsDL unastuteness notion), and — because
// this setting has a ground-truth oracle — the *true* operational
// unastuteness and clean misclassification rates of the retrained model.
// Expected shape: both ground-truth curves fall across iterations, the
// claim brackets the true unastuteness from above, and the loop stops
// when the claim meets the target.
//
// Usage: bench_f1_pipeline [--smoke]
//   --smoke   seconds-scale variant of the same runs (used by the CI
//             TSan soak leg); numbers from smoke mode are not meaningful
//             and are mirrored to *_smoke.csv files.
#include <cstring>
#include <iostream>

#include "bench_common.h"
#include "attack/pgd.h"
#include "core/pipeline.h"
#include "reliability/ground_truth.h"
#include "util/stopwatch.h"

using namespace opad;
using namespace opad::bench;

namespace {

double true_unastuteness(Classifier& model,
                         const SyntheticDigitsGenerator& generator,
                         const Attack& probe, std::size_t samples,
                         Rng& rng) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < samples; ++i) {
    const LabeledSample s = generator.sample(rng);
    bool mishandled = model.predict_single(s.x) != s.y;
    if (!mishandled) mishandled = probe.run(model, s.x, s.y, rng).success;
    if (mishandled) ++bad;
  }
  return static_cast<double>(bad) / static_cast<double>(samples);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  Stopwatch watch;
  std::cout << "F1: operational testing pipeline (Figure 1), synthetic "
               "digits, skewed operational profile"
            << (smoke ? " (smoke mode)" : "") << "\n\n";

  DigitsWorkloadConfig wconfig;
  DigitsWorkload w = make_digits_workload(wconfig);

  const double clean_acc = [&] {
    const auto preds = w.model->predict(w.test.inputs());
    std::size_t ok = 0;
    for (std::size_t i = 0; i < preds.size(); ++i) {
      if (preds[i] == w.test.label(i)) ++ok;
    }
    return static_cast<double>(ok) / preds.size();
  }();

  PipelineConfig config;
  config.rq1.synthetic_size = 1200;
  config.rq1.gmm.components = 10;
  config.rq1.gmm.max_iterations = 40;
  config.rq3.ball = w.ball;
  config.rq3.steps = 12;
  config.rq3.restarts = 2;
  config.rq3.lambda = 0.5;
  config.rq4.epochs = 4;
  config.rq4.ae_emphasis = 3.0;
  config.rq5.bins_per_dim = 4;
  config.rq5.grid_dims = 2;
  config.rq5.probes_per_assessment = 150;
  config.rq5.target_pmi = 0.50;
  config.seeds_per_iteration = 120;
  config.max_iterations = 8;
  config.query_budget = 500000;
  if (smoke) {
    config.rq1.synthetic_size = 400;
    config.rq1.gmm.components = 5;
    config.rq1.gmm.max_iterations = 15;
    config.rq5.probes_per_assessment = 50;
    config.seeds_per_iteration = 40;
    config.max_iterations = 2;
    config.query_budget = 60000;
  }
  const std::size_t oracle_probes = smoke ? 100 : 600;
  const std::size_t oracle_samples = smoke ? 500 : 3000;

  std::cout << "model: balanced-test accuracy " << Table::num(clean_acc, 3)
            << ", eps = " << w.ball.eps << ", target pmi (unastuteness) = "
            << config.rq5.target_pmi << "\n\n";

  // Ground-truth probe: same shape as the assessor's robustness check.
  PgdConfig probe_config;
  probe_config.ball = w.ball;
  probe_config.steps = 6;
  probe_config.restarts = 1;
  const Pgd probe(probe_config);

  Rng gt_rng(99);
  const double unastute_before = true_unastuteness(
      *w.model, *w.op_generator, probe, oracle_probes, gt_rng);
  const double clean_before = true_operational_pmi(
      *w.model, *w.op_generator, oracle_samples, gt_rng);
  std::cout << "before testing: true unastuteness "
            << Table::num(unastute_before, 4) << ", true clean pmi "
            << Table::num(clean_before, 4) << "\n\n";

  Table table({"iter", "seeds", "AEs", "opAEs", "claim_mean",
               "claim_upper95", "true_unastute", "true_clean_pmi",
               "cum_queries"});
  std::vector<std::vector<std::string>> csv_rows;

  Rng rng(7);
  const OpTestingPipeline pipeline(config);
  const PipelineResult result = pipeline.run(
      *w.model, w.operational_sample, rng,
      [&](const IterationRecord& record, Classifier& model) {
        Rng oracle_rng(1000 + record.iteration);
        const double unastute = true_unastuteness(
            model, *w.op_generator, probe, oracle_probes, oracle_rng);
        const double clean_pmi = true_operational_pmi(
            model, *w.op_generator, oracle_samples, oracle_rng);
        std::vector<std::string> row = {
            std::to_string(record.iteration),
            std::to_string(record.detection.seeds_attacked),
            std::to_string(record.detection.aes_found),
            std::to_string(record.detection.operational_aes),
            Table::num(record.assessment.pmi_mean, 4),
            Table::num(record.assessment.pmi_upper, 4),
            Table::num(unastute, 4),
            Table::num(clean_pmi, 4),
            std::to_string(record.budget_used_total)};
        table.add_row(row);
        csv_rows.push_back(row);
      });

  emit_table(table, smoke ? "f1_pipeline_smoke" : "f1_pipeline",
             {"iter", "seeds", "aes", "op_aes", "claim_mean",
              "claim_upper95", "true_unastute", "true_clean_pmi",
              "cum_queries"},
             csv_rows);

  std::cout << "stopping rule: target pmi " << config.rq5.target_pmi
            << (result.target_reached ? " reached" : " not reached")
            << " after " << result.iterations.size() << " iterations, "
            << result.total_queries << " model queries\n";
  std::cout << "total operational AEs collected: " << [&] {
    std::size_t n = 0;
    for (const auto& ae : result.all_aes) n += ae.is_operational ? 1 : 0;
    return n;
  }() << " of " << result.all_aes.size() << " AEs\n";
  std::cout << "elapsed: " << Table::num(watch.seconds(), 1) << "s\n";
  return 0;
}
