// kylix_perfbench — the repository benchmark binary.
//
//   kylix_perfbench --workload <replay-twitter|minibatch-zipf|async-yahoo>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--small] [--corrupt-op <k>]
//
// Prints human-readable notes, a "# fingerprint {...}" line stamping the
// host and build, and as the last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
// the untraced run (--trace 0) or the per-layer metrics of the traced run
// (--trace 1). Exits non-zero when any checked op failed. --small shrinks
// every workload to self-test size; --corrupt-op k corrupts the result of
// timed op k so a self-test can see it counted as failed.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "kylix_perfbench: %s\nusage: kylix_perfbench --workload "
               "<replay-twitter|minibatch-zipf|async-yahoo> --seed <n> "
               "--seconds <s> --trace <0|1> [--small] [--corrupt-op <k>]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_uint(const char* text, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') usage(flag);
  return v;
}

Config parse(int argc, char** argv) {
  Config cfg;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      cfg.workload = next();
    } else if (arg == "--seed") {
      cfg.seed = parse_uint(next(), "bad --seed");
    } else if (arg == "--seconds") {
      char* end = nullptr;
      const char* text = next();
      cfg.seconds = std::strtod(text, &end);
      if (end == text || *end != '\0' || !(cfg.seconds > 0) ||
          cfg.seconds > 120) {
        usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      const std::uint64_t t = parse_uint(next(), "bad --trace");
      if (t > 1) usage("bad --trace");
      cfg.trace = t == 1;
      have_trace = true;
    } else if (arg == "--small") {
      cfg.small = true;
    } else if (arg == "--corrupt-op") {
      cfg.corrupt_op = parse_uint(next(), "bad --corrupt-op");
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (cfg.workload.empty() || !have_trace) usage("missing arguments");
  return cfg;
}

std::vector<int> affinity_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Config cfg = parse(argc, argv);
  const std::vector<int> cpus = affinity_cpus();
  const unsigned usable =
      cpus.empty() ? std::max(1u, std::thread::hardware_concurrency())
                   : static_cast<unsigned>(cpus.size());
  // One usable CPU is left to the rest of the system: a BSP round waits for
  // its slowest worker, so a worker that shares its CPU with anything else
  // stalls every rank.
  cfg.threads = std::clamp(usable - 1, 1u, 4u);

  Report report;
  try {
    if (cfg.workload == "replay-twitter") {
      run_replay_twitter(cfg, report);
    } else if (cfg.workload == "minibatch-zipf") {
      run_minibatch_zipf(cfg, report);
    } else if (cfg.workload == "async-yahoo") {
      run_async_yahoo(cfg, report);
    } else {
      usage(("unknown workload " + cfg.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kylix_perfbench: run aborted: %s\n", e.what());
    return 1;
  }

  if (cfg.trace) {
    // Pairs and layers this workload does not exercise read 0.
    for (const auto& [name, unit] : per_layer_names()) {
      if (!report.has(name)) report.metric(name, 0.0, unit);
    }
  }
  const double failed_frac =
      report.attempted > 0 ? static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted)
                           : 1.0;

  std::string affinity;
  for (const int c : cpus) {
    if (!affinity.empty()) affinity += ',';
    affinity += std::to_string(c);
  }
  std::string fp = "{\"cpu\":" + json_string(cpu_model()) +
                   ",\"nproc\":" +
                   std::to_string(std::thread::hardware_concurrency()) +
                   ",\"affinity\":" + json_string(affinity) +
                   ",\"compiler\":" + json_string(PERFBENCH_COMPILER) +
                   ",\"flags\":" + json_string(PERFBENCH_FLAGS) +
                   ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) +
                   ",\"engine_threads\":" + std::to_string(cfg.threads) +
                   ",\"workload\":" + json_string(cfg.workload) +
                   ",\"seed\":" + std::to_string(cfg.seed) +
                   ",\"trace\":" + (cfg.trace ? "1" : "0") +
                   ",\"small\":" + (cfg.small ? "1" : "0") +
                   ",\"setup_reps\":" + std::to_string(kSetupReps) +
                   ",\"warmup_ops\":" + std::to_string(kWarmupOps);
  for (const auto& [key, value] : report.stamps()) {
    fp += ',';
    fp += json_string(key);
    fp += ':';
    fp += json_string(value);
  }
  fp += "}";

  for (const std::string& note : report.notes()) {
    std::printf("# %s\n", note.c_str());
  }
  std::printf("# run phases: %s\n", report.phases().c_str());
  std::printf("# fingerprint %s\n", fp.c_str());
  for (const Report::Metric& m : report.metrics()) {
    std::printf("# %-44s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("# %-44s %16.6f %s (%llu of %llu ops)\n", "failed_frac",
              failed_frac, "fraction",
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));

  const bool correct = report.failed == 0 && report.attempted > 0;
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const Report::Metric& m : report.metrics()) {
    if (!first) json += ", ";
    first = false;
    json += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
