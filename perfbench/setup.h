// Workload construction: the trained models, learned OPs and naturalness
// judges the workloads run against. Construction uses fixed seeds — the
// run's --seed selects the campaign inputs, not the model under test.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/methods.h"
#include "data/digits.h"
#include "data/generators.h"
#include "op/synthesizer.h"
#include "util/parallel.h"
#include "workloads.h"

namespace opad::perf {

/// A trained model with its learned OP and naturalness judge: the 64-d
/// synthetic-digits workload (T1 / F1 / serving) or the 2-d Gaussian ring
/// (streaming).
struct Setup {
  std::shared_ptr<const DataGenerator> op_generator;
  Dataset train;
  Dataset test;                 // balanced seed pool
  Dataset operational_sample;   // observed operational executions
  std::unique_ptr<Classifier> model;
  OperationalLearningResult op;  // RQ1 output
  NaturalnessPtr metric;
  double tau = 0.0;
  BallConfig ball;
  double gmm_fit_us = 0.0;  // RQ1 fit time inside construction

  MethodContext context() const;
};

Setup make_digits(bool smoke);
Setup make_ring();

/// Serving under open-loop load (serve_load.cpp), for a traced run: the
/// digits model behind a DetectionService with a DensityDetector, its
/// latency windows, rate ladder and one window through the decorators;
/// fills the serve.*, detect.score_batch and nn.logits per-layer metrics.
void trace_serving(const Setup& w, const Options& options, Report& report);

/// Mixes a run variant and a stream index into an Rng seed.
std::uint64_t derive_seed(std::uint64_t variant, std::uint64_t index);

/// Hex digest of the exact bytes of a sequence of doubles.
std::string digest(const std::vector<double>& values);

/// Builds the workload at least three times, and for at least 1.5 seconds
/// (once in smoke and traced runs), on one pool lane, and records the mean
/// construction time, with the host's steal taken out (unstolen_s), as
/// setup_s and the median RQ1 fit time as op.gmm_fit_us. Returns the last
/// construction. One lane: training runs thousands of small parallel
/// sections, and at two lanes the wake-up latency of the shared host's
/// virtual CPUs moved setup_s by 0.4-0.66 s between processes.
template <typename Make>
Setup measure_setup(const Options& options, Report& report, Make&& make) {
  const bool once = options.smoke || options.trace;
  std::vector<double> gmm_us;
  std::optional<Setup> setup;
  HostClock spent;  // summed over the constructions
  ThreadPool::configure_global(1);
  const std::uint64_t first = now_ns();
  do {
    setup.reset();
    const HostClock start = HostClock::now();
    setup.emplace(make());
    spent += HostClock::now() - start;
    gmm_us.push_back(setup->gmm_fit_us);
  } while (!once && (gmm_us.size() < 3 || seconds_since(first) < 1.5));
  ThreadPool::configure_global(0);
  report.metrics["setup_s"] =
      unstolen_s(spent) / static_cast<double>(gmm_us.size());
  report.layers["op.gmm_fit_us"] = median(gmm_us);
  return std::move(*setup);
}

}  // namespace opad::perf
