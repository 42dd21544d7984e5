#include "workloads.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>

#include "core/methods.h"
#include "core/pipeline.h"
#include "data/stream.h"
#include "op/cells.h"
#include "op/drift.h"
#include "op/gmm.h"
#include "op/histogram.h"
#include "setup.h"
#include "trace.h"
#include "util/parallel.h"
#include "util/resource.h"

namespace opad::perf {

// ---------------------------------------------------------------- helpers

void Report::check_payload(std::uint64_t variant,
                           const std::map<std::string, std::string>& p,
                           const std::string& context) {
  auto& pinned = payloads[std::to_string(variant)];
  if (pinned.empty()) {
    pinned = p;
    return;
  }
  for (const auto& [key, value] : p) {
    const auto it = pinned.find(key);
    if (it == pinned.end() || it->second != value) {
      errors.push_back(context + ": " + key + " = " + value + ", expected " +
                       (it == pinned.end() ? "<absent>" : it->second));
    }
  }
}

double median(std::vector<double> values) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double tail_percentile(std::vector<double> values, double q) {
  const std::size_t n = values.size();
  if (n == 0) return -1.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  if (n - 1 - idx < 10) return -1.0;
  return values[idx];
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

HostClock HostClock::now() {
  HostClock clock;
  clock.wall_s = static_cast<double>(now_ns()) * 1e-9;
  timespec cpu{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
  clock.cpu_s = static_cast<double>(cpu.tv_sec) +
                static_cast<double>(cpu.tv_nsec) * 1e-9;
  // First line of /proc/stat: "cpu user nice system idle iowait irq
  // softirq steal ...", in clock ticks, summed over all CPUs.
  if (std::FILE* f = std::fopen("/proc/stat", "r")) {
    unsigned long long t[8] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &t[0],
                    &t[1], &t[2], &t[3], &t[4], &t[5], &t[6], &t[7]) == 8) {
      clock.steal_s = static_cast<double>(t[7]) /
                      static_cast<double>(sysconf(_SC_CLK_TCK));
    }
    std::fclose(f);
  }
  return clock;
}

double unstolen_s(const HostClock& interval) {
  const double lost = interval.cpu_s + interval.steal_s;
  return lost > 0.0 ? interval.wall_s * interval.cpu_s / lost
                    : interval.wall_s;
}

double steal_share(const HostClock& interval) {
  const double lost = interval.cpu_s + interval.steal_s;
  return lost > 0.0 ? interval.steal_s / lost : 0.0;
}

std::string join(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) {
    if (!out.empty()) out += ' ';
    out += std::to_string(std::llround(v));
  }
  return out;
}

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void finish_report(Report& report) {
  report.metrics["peak_rss_kb"] = static_cast<double>(peak_rss_kb());
}

namespace {

/// Rows per chunk of the stream workload's SampleStream.
constexpr std::size_t kChunkRows = 8192;

/// Runs body(variant) for variants seed % kVariants, seed % kVariants + 1,
/// ... in groups of `group` (kVariants: whole cycles), as many groups as
/// fit in `seconds` and at least one. A recording run visits every
/// variant once.
template <typename Fn>
void repeat_variants(const Options& options, double seconds,
                     std::uint64_t group, Fn&& body) {
  const std::uint64_t start = now_ns();
  for (std::uint64_t done = 0;;) {
    for (std::uint64_t k = 0; k < group; ++k, ++done) {
      body((options.seed + done) % kVariants);
    }
    if (options.record ? done >= kVariants
                       : seconds_since(start) * static_cast<double>(
                                                    done + group) /
                                 static_cast<double>(done) >
                             seconds) {
      return;
    }
  }
}

/// The measuring phase's rates, over its wall time with the host's steal
/// taken out, and how much the host stole.
void record_rates(const HostClock& phase, double queries, double rows,
                  Report& report) {
  const double seconds = unstolen_s(phase);
  report.metrics["queries_per_s"] = queries / seconds;
  report.metrics["rows_per_s"] = rows / seconds;
  report.info["phase.wall_s"] = exact(phase.wall_s);
  report.info["phase.steal_share"] = exact(steal_share(phase));
}

struct SpanReader {
  std::map<std::string, SpanTotals> spans;
  const SpanTotals& operator[](const std::string& name) const {
    static const SpanTotals kNone;
    const auto it = spans.find(name);
    return it == spans.end() ? kNone : it->second;
  }
};

// ---------------------------------------------------------------- detect

struct SuiteRun {
  double wall_s = 0.0;
  std::uint64_t queries = 0;
  std::uint64_t seeds = 0;
  std::map<std::string, std::string> payload;
  std::vector<std::pair<std::string, double>> method_us;
  std::vector<DetectionStats> method_stats;
};

SuiteRun run_suite(Classifier& model, const MethodContext& ctx,
                   const std::vector<MethodPtr>& methods,
                   std::uint64_t budget, std::uint64_t variant) {
  SuiteRun run;
  const std::uint64_t start = now_ns();
  for (std::size_t m = 0; m < methods.size(); ++m) {
    Rng rng(derive_seed(variant, m));
    const std::uint64_t t0 = now_ns();
    const Detection d = methods[m]->detect(model, ctx, budget, rng);
    run.method_us.emplace_back(methods[m]->name(),
                               static_cast<double>(now_ns() - t0) * 1e-3);
    run.method_stats.push_back(d.stats);
    run.queries += d.stats.queries_used;
    run.seeds += d.stats.seeds_attacked;
    const std::string key = methods[m]->name();
    run.payload[key + ".queries_used"] = std::to_string(d.stats.queries_used);
    run.payload[key + ".aes_found"] = std::to_string(d.stats.aes_found);
    run.payload[key + ".operational_aes"] =
        std::to_string(d.stats.operational_aes);
  }
  run.wall_s = seconds_since(start);
  return run;
}

std::vector<MethodPtr> t1_methods() {
  const MethodSuiteConfig config;
  std::vector<MethodPtr> methods = standard_method_suite(config);
  methods.push_back(make_mifgsm_uniform_method(config));
  return methods;
}

// -------------------------------------------------------------- pipeline

PipelineConfig f1_config(const BallConfig& ball, bool smoke) {
  PipelineConfig config;
  config.rq1.synthetic_size = 1200;
  config.rq1.gmm.components = 10;
  // No early stop: RQ1 runs the same number of EM iterations for every
  // input variant, so the seed changes the inputs, not the amount of work.
  config.rq1.gmm.max_iterations = 20;
  config.rq1.gmm.tolerance = 0.0;
  config.rq3.ball = ball;
  config.rq3.steps = 12;
  config.rq3.restarts = 2;
  config.rq3.lambda = 0.5;
  config.rq4.epochs = 4;
  config.rq4.ae_emphasis = 3.0;
  config.rq5.bins_per_dim = 4;
  config.rq5.grid_dims = 2;
  config.rq5.probes_per_assessment = 150;
  // Unreachable target: every variant runs all iterations.
  config.rq5.target_pmi = 0.01;
  config.seeds_per_iteration = 100;
  config.max_iterations = 5;
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
  return config;
}

struct PipelineRun {
  double wall_s = 0.0;
  std::uint64_t queries = 0;
  std::uint64_t seeds = 0;
  /// Wall time up to each iteration's callback, from the previous one.
  std::vector<double> iteration_us;
  /// Wall time from the last callback to the end of the run.
  double tail_us = 0.0;
  std::map<std::string, std::string> payload;
  PipelineResult result;
};

PipelineRun run_f1(const Classifier& base, const Dataset& operational_sample,
                   const PipelineConfig& config, std::uint64_t variant) {
  PipelineRun run;
  Classifier model = base.clone();
  Rng rng(derive_seed(variant, 100));
  const OpTestingPipeline pipeline(config);
  const std::uint64_t start = now_ns();
  std::uint64_t last = start;
  run.result = pipeline.run(model, operational_sample, rng,
                            [&](const IterationRecord&, Classifier&) {
                              const std::uint64_t t = now_ns();
                              run.iteration_us.push_back(
                                  static_cast<double>(t - last) * 1e-3);
                              last = t;
                            });
  run.tail_us = static_cast<double>(now_ns() - last) * 1e-3;
  run.wall_s = seconds_since(start);
  const PipelineResult& r = run.result;
  run.queries = r.total_queries;
  std::uint64_t aes = 0;
  for (const IterationRecord& it : r.iterations) {
    run.seeds += it.detection.seeds_attacked;
    aes += it.detection.aes_found;
  }
  run.payload["total_queries"] = std::to_string(r.total_queries);
  run.payload["aes_found"] = std::to_string(aes);
  run.payload["retained_aes"] = std::to_string(r.all_aes.size());
  run.payload["iterations"] = std::to_string(r.iterations.size());
  run.payload["pmi_upper"] =
      r.iterations.empty() ? "none"
                           : exact(r.iterations.back().assessment.pmi_upper);
  const auto& ll = r.gmm_trace.mean_log_likelihood;
  run.payload["gmm_trace.length"] = std::to_string(ll.size());
  run.payload["gmm_trace.digest"] = digest(ll);
  return run;
}

// ---------------------------------------------------------------- stream

struct StreamRun {
  double wall_s = 0.0;
  double gmm_us = 0.0, cells_us = 0.0, detect_us = 0.0, drift_us = 0.0;
  std::uint64_t queries = 0;
  std::map<std::string, std::string> payload;
};

StreamRun run_stream_leg(const Setup& w, const SampleStream& stream,
                         const Tensor& drift_reference,
                         std::uint64_t variant) {
  StreamRun run;
  const std::uint64_t start = now_ns();
  std::uint64_t t = start;
  const auto lap = [&](double& slot) {
    const std::uint64_t now = now_ns();
    slot = static_cast<double>(now - t) * 1e-3;
    t = now;
  };

  GmmConfig gmm_config;
  gmm_config.components = 3;
  gmm_config.kmeans_iterations = 2;
  gmm_config.max_iterations = 4;
  gmm_config.tolerance = 0.0;
  GmmFitTrace gmm_trace;
  {
    Rng rng(derive_seed(variant, 200));
    GaussianMixtureModel::fit(stream, gmm_config, rng, &gmm_trace);
  }
  lap(run.gmm_us);

  std::shared_ptr<const CellPartition> partition;
  {
    Rng rng(derive_seed(variant, 201));
    partition = std::make_shared<const CellPartition>(
        CellPartition::fit(stream, /*bins_per_dim=*/8, /*grid_dims=*/2, rng));
    const HistogramProfile histogram(partition, stream);
    (void)histogram;
  }
  lap(run.cells_us);

  Detection detection;
  {
    MethodContext ctx = w.context();
    ctx.seeds.stream = &stream;
    ctx.max_retained_aes = 256;
    Rng rng(derive_seed(variant, 202));
    detection = make_operational_testing_method()->detect(
        *w.model, ctx, stream.size(), rng);
  }
  lap(run.detect_us);

  std::size_t alarms = 0;
  {
    Rng rng(derive_seed(variant, 203));
    DriftMonitor monitor(partition, drift_reference, DriftMonitorConfig{},
                         rng);
    alarms = monitor.observe_stream(stream);
  }
  lap(run.drift_us);
  run.wall_s = seconds_since(start);

  run.queries = detection.stats.queries_used;
  run.payload["cases"] = std::to_string(detection.stats.seeds_attacked);
  run.payload["failures"] = std::to_string(detection.stats.aes_found);
  run.payload["operational_aes"] =
      std::to_string(detection.stats.operational_aes);
  run.payload["alarms"] = std::to_string(alarms);
  run.payload["gmm_trace.digest"] = digest(gmm_trace.mean_log_likelihood);
  return run;
}

}  // namespace

// ------------------------------------------------------------- workloads

Report run_detect(const Options& options) {
  Report report;
  const std::uint64_t budget = options.smoke ? 2000 : 3000;
  Setup w = measure_setup(options, report,
                          [&] { return make_digits(options.smoke); });
  const MethodContext ctx = w.context();
  const std::vector<MethodPtr> methods = t1_methods();

  const auto run_checked = [&](const MethodContext& c, std::uint64_t variant,
                                const char* label) {
    SuiteRun run = run_suite(*w.model, c, methods, budget, variant);
    report.attempted += methods.size();
    report.check_payload(variant, run.payload, label);
    return run;
  };
  const std::uint64_t variant = options.seed % kVariants;

  if (!options.trace) {
    double queries = 0.0, seeds = 0.0;
    std::vector<double> suite_qps;
    const HostClock start = HostClock::now();
    repeat_variants(options, options.seconds, kVariants,
                    [&](std::uint64_t v) {
      const SuiteRun run = run_checked(ctx, v, "detect");
      queries += static_cast<double>(run.queries);
      seeds += static_cast<double>(run.seeds);
      suite_qps.push_back(static_cast<double>(run.queries) / run.wall_s);
    });
    record_rates(HostClock::now() - start, queries, seeds, report);
    report.info["queries_per_s.suites"] = join(suite_qps);
  } else {
    const SuiteRun plain = run_checked(ctx, variant, "detect");
    MethodContext traced_ctx = ctx;
    traced_ctx.metric = std::make_shared<TimedMetric>(ctx.metric);
    const auto traced_pass = [&](const char* suffix, const char* label) {
      const std::uint64_t queries_before = w.model->query_count();
      Tracer::set_enabled(true);
      const SuiteRun run = run_checked(traced_ctx, variant, label);
      Tracer::set_enabled(false);
      const SpanReader spans{Tracer::collect()};
      const std::string s = suffix;
      for (std::size_t m = 0; m < methods.size(); ++m) {
        const std::string base = "core.detect." + run.method_us[m].first;
        const DetectionStats& st = run.method_stats[m];
        report.layers[base + ".busy_us" + s] = run.method_us[m].second;
        if (!s.empty()) continue;
        report.layers[base + ".queries"] = static_cast<double>(st.queries_used);
        report.layers[base + ".op_aes_per_kquery"] =
            st.queries_used == 0 ? 0.0
                                 : 1000.0 * static_cast<double>(
                                                st.operational_aes) /
                                       static_cast<double>(st.queries_used);
      }
      for (const char* name : {"naturalness.score", "naturalness.gradient"}) {
        const std::string n = name;
        if (s.empty()) {
          report.layers[n + ".calls"] =
              static_cast<double>(spans[n].calls);
        }
        report.layers[n + ".self_us" + s] = spans[n].self_us;
      }
      if (s.empty()) {
        report.layers["nn.queries"] =
            static_cast<double>(w.model->query_count() - queries_before);
      }
      return run;
    };
    const SuiteRun traced = traced_pass("", "detect traced");
    report.layers["trace.overhead_us"] = (traced.wall_s - plain.wall_s) * 1e6;
    report.layers["core.detect.queries_per_wall_s"] =
        static_cast<double>(plain.queries) / plain.wall_s;
    ThreadPool::configure_global(1);
    const SuiteRun single = traced_pass(".threads1", "detect traced threads=1");
    ThreadPool::configure_global(0);
    report.layers["core.detect.queries_per_wall_s.threads1"] =
        static_cast<double>(single.queries) / single.wall_s;
    // The serve layers, on the same model.
    trace_serving(w, options, report);
  }
  finish_report(report);
  return report;
}

Report run_pipeline(const Options& options) {
  Report report;
  Setup w = measure_setup(options, report,
                          [&] { return make_digits(options.smoke); });
  const PipelineConfig config = f1_config(w.ball, options.smoke);

  const auto run_checked = [&](std::uint64_t variant, const char* label) {
    PipelineRun run = run_f1(*w.model, w.operational_sample, config, variant);
    ++report.attempted;
    report.check_payload(variant, run.payload, label);
    return run;
  };
  const std::uint64_t variant = options.seed % kVariants;

  if (!options.trace) {
    double queries = 0.0, seeds = 0.0;
    std::vector<double> run_qps;
    const HostClock start = HostClock::now();
    repeat_variants(options, options.seconds, kVariants,
                    [&](std::uint64_t v) {
      const PipelineRun run = run_checked(v, "pipeline");
      queries += static_cast<double>(run.queries);
      seeds += static_cast<double>(run.seeds);
      run_qps.push_back(static_cast<double>(run.queries) / run.wall_s);
    });
    record_rates(HostClock::now() - start, queries, seeds, report);
    report.info["queries_per_s.runs"] = join(run_qps);
  } else {
    // The stage trace is part of every PipelineResult: nothing is wrapped
    // here, so there is no tracing overhead to report.
    const auto traced_pass = [&](const char* suffix, const char* label) {
      const PipelineRun run = run_checked(variant, label);
      const std::string s = suffix;
      report.layers["core.pipeline.iteration_us" + s] =
          median(run.iteration_us);
      std::size_t peak_queue = 0;
      for (const char* stage : {"sample", "fuzz", "score", "fold", "collect",
                                "retrain", "assess"}) {
        double busy = 0.0;
        for (const auto& st : run.result.trace.stages) {
          if (st.name == stage) busy += static_cast<double>(st.busy_us);
        }
        report.layers[std::string("sched.stage.") + stage + ".busy_us" + s] =
            busy;
      }
      for (const auto& st : run.result.trace.stages) {
        peak_queue = std::max(peak_queue, st.peak_queue);
      }
      if (s.empty()) {
        report.layers["sched.stage.peak_queue"] =
            static_cast<double>(peak_queue);
        report.layers["nn.queries"] = static_cast<double>(run.queries);
      }
      return run;
    };
    const PipelineRun traced = traced_pass("", "pipeline traced");
    report.layers["core.pipeline.queries_per_wall_s"] =
        static_cast<double>(traced.queries) / traced.wall_s;
    ThreadPool::configure_global(1);
    const PipelineRun single =
        traced_pass(".threads1", "pipeline traced threads=1");
    ThreadPool::configure_global(0);
    report.layers["core.pipeline.queries_per_wall_s.threads1"] =
        static_cast<double>(single.queries) / single.wall_s;
  }
  finish_report(report);
  return report;
}

Report run_stream(const Options& options) {
  Report report;
  const std::size_t n = options.smoke ? 20'000 : 400'000;
  Setup w = measure_setup(options, report, [&] { return make_ring(); });
  report.info["rows"] = std::to_string(n);

  const auto run_checked = [&](std::uint64_t variant, bool traced,
                               const char* label) {
    const GeneratorSampleStream stream(w.op_generator, n, kChunkRows,
                                       derive_seed(variant, 300));
    const TimedStream timed(stream);
    const Dataset reference = materialize_prefix(stream, 2000);
    StreamRun run = run_stream_leg(
        w, traced ? static_cast<const SampleStream&>(timed) : stream,
        reference.inputs(), variant);
    ++report.attempted;
    report.check_payload(variant, run.payload, label);
    return run;
  };
  const std::uint64_t variant = options.seed % kVariants;

  if (!options.trace) {
    double queries = 0.0, rows = 0.0;
    std::vector<double> leg_rows;
    const HostClock start = HostClock::now();
    repeat_variants(options, options.seconds, 1,
                    [&](std::uint64_t v) {
      const StreamRun run = run_checked(v, false, "stream");
      queries += static_cast<double>(run.queries);
      rows += static_cast<double>(n);
      leg_rows.push_back(static_cast<double>(n) / run.wall_s);
    });
    record_rates(HostClock::now() - start, queries, rows, report);
    report.info["rows_per_s.legs"] = join(leg_rows);
  } else {
    const StreamRun plain = run_checked(variant, false, "stream");
    const std::uint64_t queries_before = w.model->query_count();
    Tracer::set_enabled(true);
    const StreamRun traced = run_checked(variant, true, "stream traced");
    Tracer::set_enabled(false);
    const SpanReader spans{Tracer::collect()};
    const SpanTotals& chunks = spans["data.chunk"];
    report.layers["data.chunk.calls"] = static_cast<double>(chunks.calls);
    report.layers["data.chunk.self_us"] = chunks.self_us;
    report.layers["data.passes"] =
        static_cast<double>(chunks.rows) / static_cast<double>(n);
    report.layers["op.gmm_fit_us"] = traced.gmm_us;
    report.layers["op.cells_us"] = traced.cells_us;
    report.layers["core.detect_stream_us"] = traced.detect_us;
    report.layers["op.drift_us"] = traced.drift_us;
    report.layers["nn.queries"] =
        static_cast<double>(w.model->query_count() - queries_before);
    report.layers["trace.overhead_us"] = (traced.wall_s - plain.wall_s) * 1e6;
    report.layers["core.stream.rows_per_wall_s"] =
        static_cast<double>(n) / plain.wall_s;
    // Direct timing of the forward pass on stream-sized chunks.
    const Dataset chunk =
        GeneratorSampleStream(w.op_generator, kChunkRows, kChunkRows, 0)
            .chunk(0);
    const std::uint64_t t0 = now_ns();
    constexpr int kCalls = 20;
    for (int i = 0; i < kCalls; ++i) (void)w.model->logits(chunk.inputs());
    report.layers["nn.logits_us_per_row"] =
        static_cast<double>(now_ns() - t0) * 1e-3 /
        static_cast<double>(kCalls * chunk.size());
  }
  finish_report(report);
  return report;
}

}  // namespace opad::perf
