// Open-loop HTTP load generator: one thread, non-blocking keep-alive
// connections, requests sent on a precomputed arrival schedule whether
// or not earlier ones were answered (HTTP/1.1 pipelining), each timed
// from the moment it was due.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// One scheduled request.
struct Arrival {
  /// Due time in ns after the schedule starts.
  int64_t due_ns = 0;
  /// Index into the payload table.
  uint32_t payload = 0;
  /// Writes must apply in schedule order, so they all travel on
  /// connection 0 (one connection is served in order); reads go to the
  /// connection with the fewest outstanding requests.
  bool ordered = false;
};

/// Exponential inter-arrival times at `rate` per second for
/// `duration_s`, drawn from `seed` (a Poisson process), starting at
/// `offset_ns`. Payload indexes are filled by the caller.
std::vector<Arrival> PoissonSchedule(double rate, double duration_s,
                                     uint64_t seed, int64_t offset_ns = 0);

/// What happened to one scheduled request.
struct Completion {
  /// HTTP status; 0 for a transport error or a request still
  /// unanswered at the drain deadline.
  int status = 0;
  bool body_ok = false;
  /// From due time to the last response byte.
  double latency_ms = 0.0;
  /// How late the generator handed the request to the socket.
  double late_ms = 0.0;
  /// Steady-clock ns of the due time (absolute), for span alignment.
  int64_t due_abs_ns = 0;
};

/// Checks one response body for arrival `index`; true when correct.
using BodyCheck =
    std::function<bool(size_t index, int status, std::string_view body)>;

/// Builds "POST <path>" with a keep-alive body.
std::string HttpPost(std::string_view path, std::string_view body);

/// Runs `schedule` (sorted by due time) against 127.0.0.1:`port` over
/// `connections` keep-alive connections. Returns one Completion per
/// arrival. Requests unanswered `drain_s` after the last due time fail
/// with status 0.
std::vector<Completion> RunOpenLoop(uint16_t port, size_t connections,
                                    const std::vector<Arrival>& schedule,
                                    const std::vector<std::string>& payloads,
                                    const BodyCheck& check, double drain_s);

/// Runs the requests closed-loop: each connection keeps exactly one
/// request in flight, taking the next unsent index. Returns the wall
/// seconds to answer all of them; completions as for RunOpenLoop
/// (latency from send).
double RunClosedLoop(uint16_t port, size_t connections,
                     const std::vector<uint32_t>& payload_order,
                     const std::vector<std::string>& payloads,
                     const BodyCheck& check, std::vector<Completion>* out);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
