#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>

#include "io/csv.h"
#include "rule/builder.h"

namespace perfbench {

using namespace genlink;

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

void ResetPeakRss() {
  // "5" resets the peak-RSS watermark (Linux >= 4.0); without it the
  // reported peak covers the whole process, which is still an upper
  // bound.
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

LinkageRule PinnedRule() {
  const auto name = [] {
    return Prop("name").Transform("stripPunctuation").Lower();
  };
  const auto phone = [] { return Prop("phone").Transform("removeDashes"); };
  // A record matches when the phone agrees exactly, or when the name is
  // within two edits and the phone within four (an outdated number).
  auto rule = RuleBuilder()
                  .Aggregate("max")
                  .Compare("levenshtein", 1.0, phone(), phone())
                  .Aggregate("min")
                  .Compare("levenshtein", 4.0, name(), name())
                  .Compare("levenshtein", 8.0, phone(), phone())
                  .End()
                  .End()
                  .Build();
  if (!rule.ok()) {
    std::fprintf(stderr, "pinned rule does not build: %s\n",
                 rule.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(rule).value();
}

std::string CsvHeader(const Schema& schema) {
  std::vector<std::string> header = {"id"};
  for (const std::string& name : schema.property_names()) {
    header.push_back(name);
  }
  return WriteCsv({header});
}

std::string CsvRow(const Entity& entity, const Schema& schema,
                   char value_separator, bool* ok) {
  std::vector<std::string> row = {entity.id()};
  for (PropertyId p = 0; p < schema.NumProperties(); ++p) {
    const ValueSet& values = entity.Values(p);
    std::string cell;
    for (size_t k = 0; k < values.size(); ++k) {
      if (ok != nullptr && values[k].find(value_separator) != std::string::npos) {
        *ok = false;
      }
      if (k > 0) cell.push_back(value_separator);
      cell += values[k];
    }
    row.push_back(std::move(cell));
  }
  return WriteCsv({row});
}

std::string DatasetToCsv(const Dataset& dataset, char value_separator,
                         bool* ok) {
  *ok = true;
  std::string csv = CsvHeader(dataset.schema());
  for (const Entity& entity : dataset.entities()) {
    csv += CsvRow(entity, dataset.schema(), value_separator, ok);
  }
  return csv;
}

bool SameLinks(const std::vector<GeneratedLink>& x,
               const std::vector<GeneratedLink>& y) {
  return x.size() == y.size() &&
         std::equal(x.begin(), x.end(), y.begin(),
                    [](const GeneratedLink& a, const GeneratedLink& b) {
                      return a.id_a == b.id_a && a.id_b == b.id_b &&
                             a.score == b.score;
                    });
}

bool WriteFile(const std::string& path, const std::string& content) {
  return WriteStringToFile(path, content).ok();
}

double LinkQuality::F1() const {
  const double denominator = static_cast<double>(emitted + expected);
  return denominator == 0.0
             ? 0.0
             : 2.0 * static_cast<double>(true_positive) / denominator;
}

LinkQuality ScoreLinks(const std::vector<GeneratedLink>& links,
                       const std::vector<ReferenceLink>& positives) {
  std::set<std::pair<std::string, std::string>> truth;
  for (const ReferenceLink& link : positives) {
    truth.emplace(link.id_a, link.id_b);
  }
  LinkQuality quality;
  quality.emitted = links.size();
  quality.expected = truth.size();
  for (const GeneratedLink& link : links) {
    if (truth.count({link.id_a, link.id_b}) != 0) ++quality.true_positive;
  }
  return quality;
}

void AddLayerTotals(const Tracer& tracer, WorkloadResult& result) {
  for (const auto& [layer, totals] : TotalsByLayer(tracer.Spans())) {
    if (layer == "bench") continue;
    result.layers[layer + ".self_s"] = totals.self_s;
    result.layers[layer + ".spans"] = static_cast<double>(totals.spans);
  }
}

std::string Fmt(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

}  // namespace perfbench
