// rsbench: the raysched benchmark binary. Runs one named workload for a
// given seed and time budget, checks its outputs, prints every metric with
// its unit, and ends stdout with one JSON result line:
//
//   rsbench --workload <serve-maxweight|serve-rayleigh-ahm|sweep-fig1>
//           --seed <n> --seconds <s> --trace <0|1> --scratch <dir>
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload with per-layer probes and reports the per-layer metrics. The
// exit code is 0 only when every correctness check passed. README.md lists
// the workloads and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <new>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "model/generator.hpp"
#include "model/power.hpp"

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// Counting global operator new/delete (the bench/perf_serve idiom): passive
// forwarders to malloc/free, plain + nothrow + array forms only.
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace rsbench {

raysched::model::Network paper_network(std::size_t n,
                                       raysched::util::RngStream& rng) {
  raysched::model::RandomPlaneParams params;
  params.num_links = n;
  return raysched::model::Network(
      raysched::model::random_plane_links(params, rng),
      raysched::model::PowerAssignment::uniform(kPower), kAlpha,
      raysched::units::Power(kNoise));
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double idx = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return sum(values) / static_cast<double>(values.size());
}

std::uint64_t alloc_count() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

// One thread's calibration work: independent integer streams plus random
// reads and writes over a private 1 MiB buffer, so it loads the core and
// its caches the way the workloads do. The sum goes to `sink` so the work
// cannot be optimized away.
void calibration_kernel(std::vector<std::uint32_t>& buf, std::uint64_t seed,
                        std::atomic<std::uint64_t>& sink) {
  const std::size_t mask = buf.size() - 1;
  std::uint64_t a = 0x9E3779B97F4A7C15ULL ^ seed;
  std::uint64_t b = a * 3 + 1;
  std::uint64_t c = a * 5 + 7;
  std::uint64_t d = a * 7 + 3;
  std::uint64_t acc = 0;
  for (int i = 0; i < 12000; ++i) {
    a ^= a << 13;
    a ^= a >> 7;
    a ^= a << 17;
    b ^= b << 13;
    b ^= b >> 7;
    b ^= b << 17;
    c = c * 6364136223846793005ULL + 1442695040888963407ULL;
    d = d * 2862933555777941757ULL + 3037000493ULL;
    acc += buf[a & mask] + buf[(b >> 20) & mask];
    buf[(c >> 30) & mask] += static_cast<std::uint32_t>(d >> 60);
  }
  sink.fetch_add(acc, std::memory_order_relaxed);
}

}  // namespace

double calibration_us(std::size_t threads) {
  static std::uint64_t calls = 0;
  // One buffer per thread slot, kept across calls: like the workload's own
  // data, it is as cold as the work in between left it.
  static std::vector<std::vector<std::uint32_t>> buffers;
  while (buffers.size() < threads) {
    buffers.emplace_back(std::size_t{1} << 18, 1);
  }
  const std::uint64_t seed = ++calls;
  std::atomic<std::uint64_t> sink{0};
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<double> us(threads);
  auto body = [&](std::size_t k) {
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) {
    }
    const auto t0 = Clock::now();
    calibration_kernel(buffers[k], seed * 8 + k, sink);
    us[k] = micros_since(t0);
  };
  std::vector<std::thread> helpers;
  for (std::size_t k = 1; k < threads; ++k) helpers.emplace_back(body, k);
  while (ready.load() + 1 < threads) {
  }
  go.store(true, std::memory_order_release);
  body(0);
  for (std::thread& t : helpers) t.join();
  return *std::max_element(us.begin(), us.end());
}

}  // namespace rsbench

namespace {

using rsbench::Metric;
using rsbench::Options;
using rsbench::Result;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every workload reports every end-to-end metric (BENCHMARK.json
// "end_to_end").
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"slots_per_s", "1/s"},
    {"slot_p50_us", "us"},
    {"slot_p99_us", "us"},
    {"served_per_slot", "pkts/slot"},
    {"fail_ratio", "ratio"},
    {"peak_rss_mib", "MiB"},
};

// The traced run reports every per-layer metric (BENCHMARK.json
// "per_layer"); a layer a workload leaves idle reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"trace.slots_per_s", "1/s"},
    {"trace.slot_p50_us", "us"},
    {"trace.slot_p99_us", "us"},
    {"trace.overhead_pct", "%"},
    {"host.calibration_us", "us"},
    {"serve.quiet_slot_p50_us", "us"},
    {"serve.quiet_slot_p99_us", "us"},
    {"serve.recompute_slot_p50_us", "us"},
    {"serve.recompute_slot_p99_us", "us"},
    {"serve.reap_slot_p50_us", "us"},
    {"serve.policy_compute_p50_us", "us"},
    {"serve.policy_compute_p99_us", "us"},
    {"serve.snapshot_write_us", "us"},
    {"serve.allocs_per_quiet_slot", "allocs/slot"},
    {"serve.allocs_per_recompute_slot", "allocs/slot"},
    {"serve.success_ratio", "ratio"},
    {"serve.recompute_adoptions", "count"},
    {"serve.recompute_timeouts", "count"},
    {"serve.stale_pruned", "count"},
    {"serve.drops_churn", "count"},
    {"algorithms.oracle_build_s", "s"},
    {"algorithms.schedule_size", "links"},
    {"algorithms.oracle_mib", "MiB"},
    {"model.network_build_s", "s"},
    {"model.sinr_rayleigh_p50_us", "us"},
    {"model.live_set_size", "links"},
    {"model.gain_mib", "MiB"},
    {"core.kernel_build_s", "s"},
    {"core.price_schedule_us", "us"},
    {"core.expected_rayleigh_p50_us", "us"},
    {"core.kernel_mib", "MiB"},
    {"sim.instance_p50_us", "us"},
    {"sim.trial_p50_us", "us"},
    {"sim.trial_p99_us", "us"},
    {"sim.busy_frac", "ratio"},
    {"sim.cells_skipped", "count"},
    {"sim.speedup_4t", "x"},
};

std::span<const MetricSpec> table(bool end_to_end) {
  if (end_to_end) return kEndToEnd;
  return kPerLayer;
}

const MetricSpec* find_spec(const Metric& m) {
  for (const MetricSpec& spec : table(m.end_to_end)) {
    if (m.name == spec.name) return &spec;
  }
  return nullptr;
}

/// Puts `metrics` in table order, adds idle per-layer metrics as 0, and
/// reports names missing from or unknown to the table.
std::vector<Metric> complete(const std::vector<Metric>& metrics, bool trace,
                             Result& result) {
  for (const Metric& m : metrics) {
    result.check(find_spec(m) != nullptr, "unknown metric " + m.name);
  }
  std::vector<Metric> ordered;
  for (const MetricSpec& spec : table(!trace)) {
    const auto it = std::find_if(metrics.begin(), metrics.end(),
                                 [&](const Metric& m) {
                                   return m.name == spec.name &&
                                          m.end_to_end == !trace;
                                 });
    if (it != metrics.end()) {
      ordered.push_back(*it);
    } else if (trace) {
      ordered.push_back({spec.name, 0.0, 0, false});
    } else {
      result.check(false, std::string("missing metric ") + spec.name);
    }
  }
  return ordered;
}

[[noreturn]] void usage_error(const std::string& what) {
  std::cerr << "rsbench: " << what << "\n"
            << "usage: rsbench --workload <serve-maxweight|serve-rayleigh-ahm"
               "|sweep-fig1> --seed <n> --seconds <s> --trace <0|1>"
               " --scratch <dir>\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options options;
  for (int k = 1; k < argc; ++k) {
    const std::string flag = argv[k];
    if (k + 1 >= argc) usage_error("missing value for " + flag);
    const std::string value = argv[++k];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (flag == "--scratch") {
        options.scratch = value;
      } else {
        usage_error("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage_error("bad value '" + value + "' for " + flag);
    }
  }
  if (options.workload.empty()) usage_error("--workload is required");
  if (!(options.seconds > 0.0)) usage_error("--seconds must be positive");
  if (options.scratch.empty()) usage_error("--scratch is required");
  return options;
}

std::string full_precision(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  Result result;
  try {
    if (options.workload == "serve-maxweight") {
      result = rsbench::run_serve_maxweight(options);
    } else if (options.workload == "serve-rayleigh-ahm") {
      result = rsbench::run_serve_rayleigh_ahm(options);
    } else if (options.workload == "sweep-fig1") {
      result = rsbench::run_sweep_fig1(options);
    } else {
      usage_error("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "rsbench: " << options.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }

  const std::vector<Metric> metrics =
      complete(result.metrics, options.trace, result);
  for (const Metric& m : metrics) {
    result.check(std::isfinite(m.value), m.name + " is not finite");
    result.check(!m.end_to_end || m.value > 0.0, m.name + " is not positive");
  }
  result.check(result.attempted > 0, "nothing was attempted");

  std::cout << "workload " << options.workload << " seed " << options.seed
            << " trace " << (options.trace ? 1 : 0) << "\n";
  for (const std::string& note : result.notes) std::cout << note << "\n";
  for (const Metric& m : metrics) {
    std::cout << m.name << " " << full_precision(m.value) << " "
              << find_spec(m)->unit;
    if (m.samples > 0) std::cout << " (n=" << m.samples << ")";
    std::cout << "\n";
  }
  for (const std::string& failure : result.check_failures) {
    std::cout << "CHECK FAILED: " << failure << "\n";
  }

  const bool correct = result.check_failures.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    std::cout << (first ? "" : ", ") << "\"" << m.name
              << "\": {\"value\": "
              << full_precision(std::isfinite(m.value) ? m.value : 0.0)
              << ", \"unit\": \"" << find_spec(m)->unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
