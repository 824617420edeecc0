// perfbench: one workload of the repository benchmark, from inputs it
// generates from --seed, for about --seconds, with its outputs checked.
//
//   perfbench --workload learn_link|serve|live_mixed --seed N
//             --seconds S --trace 0|1 --workdir DIR [--source-id ID]
//
// Prints a run record line, report lines, and as the last line one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end metrics of metrics.h. With --trace 1
// the run measures twice, each for half of --seconds: untraced, then
// traced; it prints the layer metrics of the traced half plus the
// traced-minus-untraced difference of every end-to-end metric
// (overhead.*), and writes the spans to DIR/spans.jsonl. Exits 1 when
// an output check fails, 2 on bad arguments.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "common.h"
#include "metrics.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using perfbench::WorkloadResult;

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "learn_link|serve|live_mixed --seed N --seconds S --trace 0|1 "
               "--workdir DIR [--source-id ID]\n",
               message);
  return 2;
}

WorkloadResult Run(const perfbench::RunConfig& config,
                   perfbench::Tracer& tracer) {
  if (config.workload == "learn_link") {
    return perfbench::RunLearnLink(config, tracer);
  }
  if (config.workload == "serve") return perfbench::RunServe(config, tracer);
  return perfbench::RunLiveMixed(config, tracer);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage("flags come as --name value");
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return Usage("every flag needs a value");
  for (const char* required : {"workload", "seed", "seconds", "trace", "workdir"}) {
    if (args.count(required) == 0) {
      return Usage((std::string("missing --") + required).c_str());
    }
  }
  perfbench::RunConfig config;
  config.workload = args["workload"];
  if (config.workload != "learn_link" && config.workload != "serve" &&
      config.workload != "live_mixed") {
    return Usage("unknown workload");
  }
  char* end = nullptr;
  config.seed = std::strtoull(args["seed"].c_str(), &end, 10);
  if (*end != '\0') return Usage("--seed must be a whole number");
  config.seconds = std::strtod(args["seconds"].c_str(), &end);
  if (*end != '\0' || !(config.seconds > 0.0)) {
    return Usage("--seconds must be positive");
  }
  const std::string trace = args["trace"];
  if (trace != "0" && trace != "1") return Usage("--trace must be 0 or 1");
  config.workdir = args["workdir"];

  // Run record: enough to refuse comparing runs of different inputs,
  // builds or machines.
  const std::string source_id =
      args.count("source-id") != 0 ? args["source-id"] : "unknown";
  std::printf(
      "record {\"workload\":%s,\"seed\":%llu,\"seconds\":%g,\"trace\":%s,"
      "\"nproc\":%ld,\"hardware_concurrency\":%u,\"build_type\":%s,"
      "\"compiler\":%s,\"commit\":%s}\n",
      JsonString(config.workload).c_str(),
      static_cast<unsigned long long>(config.seed), config.seconds,
      trace.c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      std::thread::hardware_concurrency(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(), JsonString(source_id).c_str());

  WorkloadResult result;
  if (trace == "0") {
    perfbench::Tracer off(false);
    result = Run(config, off);
  } else {
    perfbench::RunConfig half = config;
    half.seconds = config.seconds / 2.0;
    perfbench::Tracer off(false);
    const WorkloadResult untraced = Run(half, off);
    perfbench::Tracer on(true);
    result = Run(half, on);
    result.correct = result.correct && untraced.correct;
    result.errors.insert(result.errors.end(), untraced.errors.begin(),
                         untraced.errors.end());
    result.attempted += untraced.attempted;
    result.failed += untraced.failed;
    for (const auto& metric : perfbench::kEndToEnd) {
      result.layers[std::string("overhead.") + metric.name] =
          result.end_to_end[metric.name] -
          untraced.end_to_end.at(metric.name);
    }
    result.layers["fail_frac"] =
        result.attempted == 0 ? 0.0
                              : static_cast<double>(result.failed) /
                                    static_cast<double>(result.attempted);
    if (!on.WriteJsonLines(config.workdir + "/spans.jsonl")) {
      result.Fail("cannot write " + config.workdir + "/spans.jsonl");
    }
  }

  if (result.attempted == 0) result.Fail("nothing was attempted");
  std::string metrics;
  const auto emit = [&](const perfbench::MetricSpec& spec,
                        const std::map<std::string, double>& values) {
    const auto it = values.find(spec.name);
    const double value = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      result.Fail(std::string("metric ") + spec.name + " is not finite");
      return;
    }
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name, value, spec.unit);
    metrics += buffer;
  };
  if (trace == "0") {
    for (const auto& spec : perfbench::kEndToEnd) emit(spec, result.end_to_end);
  } else {
    for (const auto& spec : perfbench::kLayers) emit(spec, result.layers);
  }

  for (const auto& [name, fingerprint] : result.fingerprints) {
    std::printf("fingerprint %s %016llx\n", name.c_str(),
                static_cast<unsigned long long>(fingerprint));
  }
  for (const std::string& line : result.report) {
    std::printf("%s\n", line.c_str());
  }
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
