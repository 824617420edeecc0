// The benchmark's workloads (README.md in this directory says why each
// was chosen). Each runs for about `config.seconds`, checks its
// outputs, and fills the end-to-end metrics of metrics.h; with an
// enabled tracer it also records spans and fills the layer metrics.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"
#include "trace.h"

namespace perfbench {

WorkloadResult RunLearnLink(const RunConfig& config, Tracer& tracer);
WorkloadResult RunServe(const RunConfig& config, Tracer& tracer);
WorkloadResult RunLiveMixed(const RunConfig& config, Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
