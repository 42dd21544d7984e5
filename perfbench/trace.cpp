#include "trace.h"

#include <atomic>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace opad::perf {

namespace {

struct Frame {
  const char* name;
  Clock::time_point start;
  double child_us;
};

struct ThreadBuffer {
  std::vector<Frame> stack;
  std::unordered_map<const char*, SpanTotals> totals;
};

std::atomic<bool> g_enabled{false};
std::mutex g_registry_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_registry;

ThreadBuffer& local_buffer() {
  // Buffers are owned by the registry so spans recorded on threads that
  // have since exited (a stopped service's scheduler) still get folded.
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    g_registry.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_registry.back().get();
  }
  return *buffer;
}

}  // namespace

void Tracer::set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Tracer::begin(const char* name) {
  local_buffer().stack.push_back({name, Clock::now(), 0.0});
}

void Tracer::end(std::uint64_t rows) {
  const Clock::time_point now = Clock::now();
  ThreadBuffer& buffer = local_buffer();
  const Frame frame = buffer.stack.back();
  buffer.stack.pop_back();
  const double us =
      std::chrono::duration<double, std::micro>(now - frame.start).count();
  SpanTotals& totals = buffer.totals[frame.name];
  ++totals.calls;
  totals.rows += rows;
  totals.total_us += us;
  totals.self_us += us - frame.child_us;
  if (!buffer.stack.empty()) buffer.stack.back().child_us += us;
}

std::map<std::string, SpanTotals> Tracer::collect() {
  std::map<std::string, SpanTotals> out;
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (auto& buffer : g_registry) {
    for (const auto& [name, t] : buffer->totals) {
      SpanTotals& o = out[name];
      o.calls += t.calls;
      o.rows += t.rows;
      o.total_us += t.total_us;
      o.self_us += t.self_us;
    }
    buffer->totals.clear();
  }
  return out;
}

double TimedMetric::score(const Tensor& x) const {
  ScopedSpan span("naturalness.score");
  return inner_->score(x);
}

Tensor TimedMetric::score_gradient(const Tensor& x) const {
  ScopedSpan span("naturalness.gradient");
  return inner_->score_gradient(x);
}

std::shared_ptr<const NaturalnessMetric> TimedMetric::thread_replica() const {
  NaturalnessPtr replica = inner_->thread_replica();
  if (!replica) return nullptr;
  return std::make_shared<TimedMetric>(std::move(replica));
}

Tensor TimedScorer::logits(const Tensor& inputs, ActivationTape* tape) {
  if (log_ != nullptr) {
    log_->emplace_back(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count(),
        inputs.dim(0));
  }
  ScopedSpan span("nn.logits");
  span.add_rows(inputs.dim(0));
  return inner_->logits(inputs, tape);
}

std::unique_ptr<ForwardScorer> TimedScorer::clone_scorer() const {
  return std::make_unique<TimedScorer>(inner_->clone_scorer());
}

TimedDetector::TimedDetector(DetectorPtr inner) : inner_(std::move(inner)) {
  set_threshold(inner_->threshold());
}

void TimedDetector::fit(const Dataset&, Rng&) {
  OPAD_EXPECTS_MSG(false, "TimedDetector wraps an already fitted detector");
}

void TimedDetector::score_batch(const Tensor& inputs,
                                std::span<double> out) const {
  ScopedSpan span("detect.score_batch");
  span.add_rows(inputs.dim(0));
  inner_->score_batch(inputs, out);
}

Tensor TimedDetector::score_gradient(const Tensor& x) const {
  return inner_->score_gradient(x);
}

std::shared_ptr<const Detector> TimedDetector::thread_replica() const {
  DetectorPtr replica = inner_->thread_replica();
  if (!replica) return nullptr;
  return std::make_shared<TimedDetector>(std::move(replica));
}

Dataset TimedStream::chunk(std::size_t i) const {
  ScopedSpan span("data.chunk");
  span.add_rows(inner_->chunk_rows(i));
  return inner_->chunk(i);
}

}  // namespace opad::perf
