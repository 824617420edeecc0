#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <random>

#include "trace.h"

namespace perfbench {

namespace {

struct Connection {
  int fd = -1;
  std::string out;
  size_t out_offset = 0;
  std::string in;
  /// Arrival indexes awaiting a response, in send order.
  std::deque<size_t> pending;

  bool HasOutput() const { return out_offset < out.size(); }
};

int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Case-insensitive prefix match of a header line.
bool HeaderIs(std::string_view line, std::string_view name) {
  if (line.size() < name.size()) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(line[i])) != name[i]) {
      return false;
    }
  }
  return true;
}

/// Pops complete responses off `conn.in`. Returns false on a response
/// that cannot be parsed (the connection is then unusable).
template <typename OnResponse>
bool ParseResponses(Connection& conn, const OnResponse& on_response) {
  for (;;) {
    const size_t header_end = conn.in.find("\r\n\r\n");
    if (header_end == std::string::npos) return true;
    const std::string_view head(conn.in.data(), header_end);
    if (head.size() < 12 || head.substr(0, 7) != "HTTP/1.") return false;
    const int status = std::atoi(std::string(head.substr(9, 3)).c_str());
    size_t length = 0;
    size_t line_start = head.find("\r\n");
    while (line_start != std::string_view::npos) {
      line_start += 2;
      const size_t line_end = head.find("\r\n", line_start);
      const std::string_view line = head.substr(
          line_start, line_end == std::string_view::npos ? std::string_view::npos
                                                         : line_end - line_start);
      if (HeaderIs(line, "content-length:")) {
        length = std::strtoull(std::string(line.substr(15)).c_str(), nullptr, 10);
      }
      line_start = line_end;
    }
    const size_t body_start = header_end + 4;
    if (conn.in.size() < body_start + length) return true;
    on_response(status, std::string_view(conn.in).substr(body_start, length));
    conn.in.erase(0, body_start + length);
  }
}

/// Sends buffered output until the socket would block. False on error.
bool Flush(Connection& conn) {
  while (conn.HasOutput()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_offset,
                             conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
    conn.out_offset += static_cast<size_t>(n);
  }
  conn.out.clear();
  conn.out_offset = 0;
  return true;
}

/// Reads what is available. False when the peer closed or failed.
bool Fill(Connection& conn) {
  char buffer[65536];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      conn.in.append(buffer, static_cast<size_t>(n));
      // ACK at once. The daemon leaves Nagle on, so a response finished
      // while the previous one is unacknowledged waits for our ACK; a
      // delayed ACK would add tens of ms of TCP timer to the latency.
      const int one = 1;
      ::setsockopt(conn.fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
      continue;
    }
    if (n == 0) return false;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;
  }
}

/// Drops a broken connection: its pending requests fail, and a fresh
/// connection takes its place.
template <typename OnFailure>
void Reconnect(Connection& conn, uint16_t port, const OnFailure& on_failure) {
  for (size_t index : conn.pending) on_failure(index);
  conn.pending.clear();
  conn.out.clear();
  conn.out_offset = 0;
  conn.in.clear();
  if (conn.fd >= 0) ::close(conn.fd);
  conn.fd = Connect(port);
}

void Poll(std::vector<Connection>& conns, int64_t timeout_ns) {
  std::vector<pollfd> fds;
  for (const Connection& conn : conns) {
    short events = POLLIN;
    if (conn.HasOutput()) events |= POLLOUT;
    fds.push_back(pollfd{conn.fd, events, 0});
  }
  timeout_ns = std::max<int64_t>(timeout_ns, 0);
  timespec timeout{static_cast<time_t>(timeout_ns / 1000000000),
                   static_cast<long>(timeout_ns % 1000000000)};
  ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
}

void CloseAll(std::vector<Connection>& conns) {
  for (Connection& conn : conns) {
    if (conn.fd >= 0) ::close(conn.fd);
    conn.fd = -1;
  }
}

}  // namespace

std::vector<Arrival> PoissonSchedule(double rate, double duration_s,
                                     uint64_t seed, int64_t offset_ns) {
  std::vector<Arrival> schedule;
  std::mt19937_64 rng(seed);
  double t = 0.0;
  for (;;) {
    // Inverse-CDF exponential draw from 53 uniform bits: identical on
    // every platform, unlike std::exponential_distribution.
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    t += -std::log1p(-u) / rate;
    if (t >= duration_s) break;
    Arrival arrival;
    arrival.due_ns = offset_ns + static_cast<int64_t>(t * 1e9);
    schedule.push_back(arrival);
  }
  return schedule;
}

std::string HttpPost(std::string_view path, std::string_view body) {
  std::string request = "POST ";
  request += path;
  request += " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: text/csv\r\n"
             "Content-Length: ";
  request += std::to_string(body.size());
  request += "\r\n\r\n";
  request += body;
  return request;
}

std::vector<Completion> RunOpenLoop(uint16_t port, size_t connections,
                                    const std::vector<Arrival>& schedule,
                                    const std::vector<std::string>& payloads,
                                    const BodyCheck& check, double drain_s) {
  std::vector<Completion> done(schedule.size());
  std::vector<Connection> conns(std::max<size_t>(connections, 1));
  for (Connection& conn : conns) conn.fd = Connect(port);

  const int64_t start = NowNs() + 1000000;  // 1 ms lead to connect
  const int64_t last_due = schedule.empty() ? 0 : schedule.back().due_ns;
  const int64_t deadline =
      start + last_due + static_cast<int64_t>(drain_s * 1e9);
  size_t next = 0;
  size_t outstanding = 0;
  const auto fail = [&](size_t index) {
    done[index].status = 0;
    done[index].body_ok = false;
    done[index].latency_ms =
        static_cast<double>(NowNs() - done[index].due_abs_ns) * 1e-6;
    --outstanding;
  };

  for (;;) {
    const int64_t now = NowNs();
    while (next < schedule.size() && start + schedule[next].due_ns <= now) {
      const Arrival& arrival = schedule[next];
      size_t target = 0;
      if (!arrival.ordered) {
        for (size_t c = 1; c < conns.size(); ++c) {
          if (conns[c].pending.size() < conns[target].pending.size()) {
            target = c;
          }
        }
      }
      Connection& conn = conns[target];
      done[next].due_abs_ns = start + arrival.due_ns;
      done[next].late_ms =
          static_cast<double>(now - done[next].due_abs_ns) * 1e-6;
      ++outstanding;
      if (conn.fd < 0) {
        fail(next);
      } else {
        conn.out += payloads[arrival.payload];
        conn.pending.push_back(next);
      }
      ++next;
    }
    for (Connection& conn : conns) {
      if (conn.fd >= 0 && conn.HasOutput() && !Flush(conn)) {
        Reconnect(conn, port, fail);
      }
    }
    if (next == schedule.size() && outstanding == 0) break;
    if (now > deadline) break;

    const int64_t until =
        next < schedule.size() ? start + schedule[next].due_ns : deadline;
    Poll(conns, std::min<int64_t>(until - NowNs(), 20000000));
    for (Connection& conn : conns) {
      if (conn.fd < 0) continue;
      const bool open = Fill(conn);
      const bool parsed = ParseResponses(conn, [&](int status,
                                                   std::string_view body) {
        if (conn.pending.empty()) return;
        const size_t index = conn.pending.front();
        conn.pending.pop_front();
        done[index].status = status;
        done[index].body_ok = check(index, status, body);
        done[index].latency_ms =
            static_cast<double>(NowNs() - done[index].due_abs_ns) * 1e-6;
        --outstanding;
      });
      if (!open || !parsed) Reconnect(conn, port, fail);
    }
  }
  // Whatever is still unanswered at the deadline failed.
  for (Connection& conn : conns) {
    for (size_t index : conn.pending) fail(index);
    conn.pending.clear();
  }
  CloseAll(conns);
  return done;
}

double RunClosedLoop(uint16_t port, size_t connections,
                     const std::vector<uint32_t>& payload_order,
                     const std::vector<std::string>& payloads,
                     const BodyCheck& check, std::vector<Completion>* out) {
  std::vector<Completion>& done = *out;
  done.assign(payload_order.size(), Completion{});
  std::vector<Connection> conns(std::max<size_t>(connections, 1));
  for (Connection& conn : conns) conn.fd = Connect(port);
  size_t next = 0;
  size_t finished = 0;
  const auto send_next = [&](Connection& conn) {
    if (next >= payload_order.size() || conn.fd < 0) return;
    done[next].due_abs_ns = NowNs();
    conn.out += payloads[payload_order[next]];
    conn.pending.push_back(next);
    ++next;
  };
  const auto fail = [&](size_t index) {
    done[index].status = 0;
    ++finished;
  };
  const int64_t start = NowNs();
  for (Connection& conn : conns) send_next(conn);
  while (finished < payload_order.size()) {
    bool any_open = false;
    for (Connection& conn : conns) {
      if (conn.fd < 0) continue;
      any_open = true;
      if (conn.HasOutput() && !Flush(conn)) {
        Reconnect(conn, port, fail);
        send_next(conn);
      }
    }
    if (!any_open) break;
    Poll(conns, 20000000);
    for (Connection& conn : conns) {
      if (conn.fd < 0) continue;
      const bool open = Fill(conn);
      const bool parsed = ParseResponses(conn, [&](int status,
                                                   std::string_view body) {
        if (conn.pending.empty()) return;
        const size_t index = conn.pending.front();
        conn.pending.pop_front();
        done[index].status = status;
        done[index].body_ok = check(index, status, body);
        done[index].latency_ms =
            static_cast<double>(NowNs() - done[index].due_abs_ns) * 1e-6;
        ++finished;
        send_next(conn);
      });
      if (!open || !parsed) {
        Reconnect(conn, port, fail);
        send_next(conn);
      }
    }
  }
  const double seconds = static_cast<double>(NowNs() - start) * 1e-9;
  CloseAll(conns);
  return seconds;
}

}  // namespace perfbench
