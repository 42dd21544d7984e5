// opad_perf — runs one benchmark workload and prints one JSON line.
//
//   opad_perf --workload detect|pipeline|stream --seed N
//             --seconds S --trace 0|1 [--smoke] [--record]
//
// The line holds host facts, the end-to-end metrics (untraced runs) or
// the per-layer metrics (traced runs), the exact output payload for the
// correctness gate, and attempted/failed operation counts. run.py builds
// this binary, applies the gate and prints the benchmark's result line.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>

#include "tensor/gemm.h"
#include "util/cpu_features.h"
#include "util/parallel.h"
#include "workloads.h"

namespace {

using namespace opad::perf;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <typename Map, typename Fn>
std::string object(const Map& map, Fn&& value) {
  std::string out = "{";
  for (const auto& [key, v] : map) {
    if (out.size() > 1) out += ", ";
    out += quote(key) + ": " + value(v);
  }
  return out + "}";
}

int usage() {
  std::cerr << "usage: opad_perf --workload detect|pipeline|stream "
               "--seed N --seconds S --trace 0|1 [--smoke] [--record]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) != "0";
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--record") {
      options.record = true;
    } else {
      return usage();
    }
  }
  if (kSanitized || !kOptimized) {
    std::cerr << "opad_perf: refusing to measure a "
              << (kSanitized ? "sanitizer" : "unoptimised") << " build ("
              << OPAD_PERF_BUILD_TYPE << ")\n";
    return 3;
  }

  Report report;
  try {
    if (workload == "detect") {
      report = run_detect(options);
    } else if (workload == "pipeline") {
      report = run_pipeline(options);
    } else if (workload == "stream") {
      report = run_stream(options);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "opad_perf: " << workload << " failed: " << e.what() << "\n";
    return 1;
  }

  std::map<std::string, std::string> host = {
      {"cpu", opad::cpu_features_string()},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"threads", std::to_string(opad::ThreadPool::global().thread_count())},
      {"gemm_kernel",
       opad::gemm_kernel_name(opad::active_gemm_kernel())},
      {"build_type", OPAD_PERF_BUILD_TYPE},
  };
  const auto as_number = [](double v) { return number(v); };
  const auto as_string = [](const std::string& v) { return quote(v); };
  std::string error_list = "[";
  for (std::size_t i = 0; i < report.errors.size(); ++i) {
    error_list += (i ? ", " : "") + quote(report.errors[i]);
  }
  error_list += "]";
  std::cout << "{\"workload\": " << quote(workload)
            << ", \"host\": " << object(host, as_string)
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed
            << ", \"errors\": " << error_list
            << ", \"payloads\": "
            << object(report.payloads,
                      [&](const std::map<std::string, std::string>& p) {
                        return object(p, as_string);
                      })
            << ", \"info\": " << object(report.info, as_string)
            << ", \"metrics\": " << object(report.metrics, as_number)
            << ", \"layers\": " << object(report.layers, as_number) << "}"
            << std::endl;
  return 0;
}
