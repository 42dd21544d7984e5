// Span tracing for the benchmark's traced run, from outside the library.
//
// Spans are recorded into per-thread buffers (no locking on the hot path)
// and folded once, after the workload, into per-name totals. Self time of
// a span is its duration minus the durations of the spans directly nested
// in it on the same thread.
//
// The decorators below wrap the library's public extension interfaces —
// NaturalnessMetric, ForwardScorer, Detector, SampleStream — and open one
// span per call. Everything else is timed as direct calls with ScopedSpan.
// With tracing disabled a span costs one relaxed atomic load.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/stream.h"
#include "detect/detector.h"
#include "naturalness/metric.h"
#include "nn/model.h"

namespace opad::perf {

using Clock = std::chrono::steady_clock;

struct SpanTotals {
  std::uint64_t calls = 0;
  std::uint64_t rows = 0;     // rows handled, for per-row rates
  double total_us = 0.0;      // summed span durations
  double self_us = 0.0;       // total_us minus same-thread child spans
};

class Tracer {
 public:
  static void set_enabled(bool on);
  static bool enabled();

  /// Opens a span on the calling thread. `name` must have static storage.
  static void begin(const char* name);
  /// Closes the innermost open span, crediting `rows` to it.
  static void end(std::uint64_t rows = 0);

  /// Folds every thread's finished spans into per-name totals and clears
  /// the buffers. Call with no span open on any thread.
  static std::map<std::string, SpanTotals> collect();
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : active_(Tracer::enabled()) {
    if (active_) Tracer::begin(name);
  }
  ~ScopedSpan() {
    if (active_) Tracer::end(rows_);
  }
  void add_rows(std::uint64_t rows) { rows_ += rows; }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_;
  std::uint64_t rows_ = 0;
};

/// Naturalness metric decorator: spans "naturalness.score" and
/// "naturalness.gradient". Replicas are wrapped too.
class TimedMetric final : public NaturalnessMetric {
 public:
  explicit TimedMetric(NaturalnessPtr inner) : inner_(std::move(inner)) {}
  std::size_t dim() const override { return inner_->dim(); }
  double score(const Tensor& x) const override;
  bool has_gradient() const override { return inner_->has_gradient(); }
  Tensor score_gradient(const Tensor& x) const override;
  std::shared_ptr<const NaturalnessMetric> thread_replica() const override;

 private:
  NaturalnessPtr inner_;
};

/// Dispatch time (ns) and rows of each forward pass.
using BatchLog = std::vector<std::pair<std::uint64_t, std::size_t>>;

/// Forward-pass decorator: spans "nn.logits" with the batch rows, and
/// appends each call to `log` when one is given (single caller thread).
class TimedScorer final : public ForwardScorer {
 public:
  explicit TimedScorer(std::unique_ptr<ForwardScorer> inner,
                       BatchLog* log = nullptr)
      : inner_(std::move(inner)), log_(log) {}
  std::size_t input_dim() const override { return inner_->input_dim(); }
  std::size_t num_classes() const override { return inner_->num_classes(); }
  Tensor logits(const Tensor& inputs, ActivationTape* tape) override;
  std::uint64_t query_count() const override { return inner_->query_count(); }
  void reset_query_count() override { inner_->reset_query_count(); }
  void add_queries(std::uint64_t n) override { inner_->add_queries(n); }
  std::unique_ptr<ForwardScorer> clone_scorer() const override;
  const char* precision() const override { return inner_->precision(); }

 private:
  std::unique_ptr<ForwardScorer> inner_;
  BatchLog* log_;
};

/// Detector decorator: spans "detect.score_batch" with the batch rows.
/// Carries the inner detector's threshold.
class TimedDetector final : public Detector {
 public:
  explicit TimedDetector(DetectorPtr inner);
  std::string name() const override { return inner_->name(); }
  std::size_t dim() const override { return inner_->dim(); }
  void fit(const Dataset& reference, Rng& rng) override;
  bool fitted() const override { return inner_->fitted(); }
  void score_batch(const Tensor& inputs,
                   std::span<double> out) const override;
  bool has_gradient() const override { return inner_->has_gradient(); }
  Tensor score_gradient(const Tensor& x) const override;
  std::shared_ptr<const Detector> thread_replica() const override;

 private:
  DetectorPtr inner_;
};

/// Sample-stream decorator: spans "data.chunk" per materialised chunk.
/// The inner stream must outlive the decorator.
class TimedStream final : public SampleStream {
 public:
  explicit TimedStream(const SampleStream& inner) : inner_(&inner) {}
  std::size_t size() const override { return inner_->size(); }
  std::size_t dim() const override { return inner_->dim(); }
  std::size_t num_classes() const override { return inner_->num_classes(); }
  std::size_t chunk_size() const override { return inner_->chunk_size(); }
  Dataset chunk(std::size_t i) const override;

 private:
  const SampleStream* inner_;
};

}  // namespace opad::perf
