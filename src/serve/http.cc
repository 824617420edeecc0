#include "serve/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>

namespace genlink {

namespace {

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

const std::string* HttpRequest::FindHeader(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (EqualsIgnoreCase(key, name)) return &value;
  }
  return nullptr;
}

std::string_view HttpRequest::Path() const {
  const size_t query = target.find('?');
  return std::string_view(target).substr(0, query);
}

std::string_view HttpStatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default:  return "Unknown";
  }
}

std::string SerializeHttpResponse(const HttpResponse& response) {
  std::string out;
  out.reserve(128 + response.body.size());
  out += "HTTP/1.1 ";
  out += std::to_string(response.status);
  out += ' ';
  out += HttpStatusReason(response.status);
  out += "\r\nContent-Type: ";
  out += response.content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(response.body.size());
  out += "\r\n";
  for (const auto& [key, value] : response.extra_headers) {
    out += key;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  out += "\r\n";
  out += response.body;
  return out;
}

HttpRequestParser::State HttpRequestParser::Consume(std::string_view data) {
  if (state_ != State::kNeedMore) return state_;
  if (!data.empty()) started_ = true;
  buffer_.append(data);
  if (!in_body_) {
    // Terminator: CRLFCRLF, or bare LFLF for hand-written test input.
    size_t header_end = std::string::npos;
    size_t body_start = 0;
    const size_t crlf = buffer_.find("\r\n\r\n");
    const size_t lf = buffer_.find("\n\n");
    if (crlf != std::string::npos && (lf == std::string::npos || crlf < lf)) {
      header_end = crlf;
      body_start = crlf + 4;
    } else if (lf != std::string::npos) {
      header_end = lf;
      body_start = lf + 2;
    }
    if (header_end == std::string::npos) {
      if (buffer_.size() > max_header_bytes_) return Fail(431);
      return state_;
    }
    if (header_end > max_header_bytes_) return Fail(431);
    if (ParseHeaders(header_end, body_start) == State::kError) return state_;
  }
  if (buffer_.size() < body_length_) return state_;
  request_.body = buffer_.substr(0, body_length_);
  buffer_.erase(0, body_length_);
  return state_ = State::kComplete;
}

HttpRequestParser::State HttpRequestParser::ParseHeaders(size_t header_end,
                                                         size_t body_start) {
  std::string_view block(buffer_.data(), header_end);
  bool first = true;
  while (!block.empty()) {
    const size_t eol = block.find('\n');
    std::string_view line = block.substr(0, eol);
    block.remove_prefix(eol == std::string_view::npos ? block.size() : eol + 1);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (first) {
      // "METHOD SP target SP HTTP/1.x"
      const size_t sp1 = line.find(' ');
      const size_t sp2 = line.rfind(' ');
      if (sp1 == std::string_view::npos || sp2 == sp1) return Fail(400);
      const std::string_view version = line.substr(sp2 + 1);
      if (!version.starts_with("HTTP/1.")) return Fail(400);
      request_.method = std::string(line.substr(0, sp1));
      request_.target = std::string(Trim(line.substr(sp1 + 1, sp2 - sp1 - 1)));
      if (request_.method.empty() || request_.target.empty()) return Fail(400);
      first = false;
      continue;
    }
    if (line.empty()) continue;
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) return Fail(400);
    request_.headers.emplace_back(std::string(Trim(line.substr(0, colon))),
                                  std::string(Trim(line.substr(colon + 1))));
  }
  if (first) return Fail(400);  // no request line at all

  if (request_.FindHeader("Transfer-Encoding") != nullptr) {
    return Fail(400);  // chunked bodies are not accepted
  }
  // More than one Content-Length is refused outright (RFC 9112 §6.3):
  // keeping either copy frames the body differently from a peer that
  // keeps the other one.
  const std::string* cl = nullptr;
  for (const auto& [key, value] : request_.headers) {
    if (!EqualsIgnoreCase(key, "Content-Length")) continue;
    if (cl != nullptr) return Fail(400);
    cl = &value;
  }
  body_length_ = 0;
  if (cl != nullptr) {
    if (cl->empty()) return Fail(400);
    uint64_t length = 0;
    for (const char c : *cl) {
      if (c < '0' || c > '9') return Fail(400);
      length = length * 10 + static_cast<uint64_t>(c - '0');
      if (length > max_body_bytes_) return Fail(413);
    }
    body_length_ = static_cast<size_t>(length);
  }
  buffer_.erase(0, body_start);
  in_body_ = true;
  return state_;
}

void HttpRequestParser::Reset() {
  state_ = State::kNeedMore;
  error_status_ = 400;
  in_body_ = false;
  body_length_ = 0;
  request_ = HttpRequest{};
  started_ = !buffer_.empty();
  if (started_) Consume({});  // pipelined bytes may already hold a request
}

namespace {

/// Waits until `fd` is ready for `events` or the deadline passes.
bool PollFor(int fd, short events, std::chrono::steady_clock::time_point until) {
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= until) return false;
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(until - now);
    struct pollfd pfd = {fd, events, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(remaining.count()) + 1);
    if (rc > 0) return true;
    if (rc < 0 && errno != EINTR) return false;
  }
}

/// True when `raw` already holds a full response: complete header
/// block plus Content-Length body bytes (responses without a
/// Content-Length are only complete at EOF, so they return false).
bool ResponseComplete(const std::string& raw) {
  size_t body_start = raw.find("\r\n\r\n");
  size_t header_end = body_start;
  if (body_start != std::string::npos) {
    body_start += 4;
  } else {
    header_end = body_start = raw.find("\n\n");
    if (body_start == std::string::npos) return false;
    body_start += 2;
  }
  std::string_view block(raw.data(), header_end);
  while (!block.empty()) {
    const size_t eol = block.find('\n');
    std::string_view line = block.substr(0, eol);
    block.remove_prefix(eol == std::string_view::npos ? block.size() : eol + 1);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    if (!EqualsIgnoreCase(Trim(line.substr(0, colon)), "Content-Length")) {
      continue;
    }
    uint64_t length = 0;
    const std::string_view value = Trim(line.substr(colon + 1));
    if (value.empty()) return false;
    for (const char c : value) {
      if (c < '0' || c > '9') return false;
      length = length * 10 + static_cast<uint64_t>(c - '0');
    }
    return raw.size() - body_start >= length;
  }
  return false;
}

}  // namespace

Result<HttpResponse> HttpCall(uint16_t port, std::string_view method,
                              std::string_view target, std::string_view body,
                              std::string_view content_type, int timeout_ms) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return Status::IoError("socket() failed");
  struct FdCloser {
    int fd;
    ~FdCloser() { ::close(fd); }
  } closer{fd};

  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    if (errno != EINPROGRESS) {
      return Status::IoError("connect() failed: " +
                             std::string(std::strerror(errno)));
    }
    if (!PollFor(fd, POLLOUT, until)) {
      return Status::IoError("connect timeout");
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) < 0 ||
        so_error != 0) {
      return Status::IoError("connect() failed: " +
                             std::string(std::strerror(so_error)));
    }
  }

  std::string request;
  request.reserve(128 + body.size());
  request += method;
  request += ' ';
  request += target;
  request += " HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n";
  if (!body.empty()) {
    request += "Content-Type: ";
    request += content_type;
    request += "\r\n";
  }
  request += "Content-Length: ";
  request += std::to_string(body.size());
  request += "\r\n\r\n";
  request += body;

  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!PollFor(fd, POLLOUT, until)) return Status::IoError("send timeout");
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::IoError("send() failed: " +
                           std::string(std::strerror(errno)));
  }

  // Connection: close — the full response is everything until EOF.
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      raw.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) break;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!PollFor(fd, POLLIN, until)) return Status::IoError("read timeout");
      continue;
    }
    if (errno == EINTR) continue;
    // A reset after the full response was buffered is a success: the
    // daemon's shed path answers 503 and closes without reading the
    // request, and request bytes racing that close can turn the FIN
    // into an RST on some schedules.
    if (errno == ECONNRESET && ResponseComplete(raw)) break;
    return Status::IoError("recv() failed: " +
                           std::string(std::strerror(errno)));
  }

  const size_t crlf = raw.find("\r\n\r\n");
  const size_t lf = raw.find("\n\n");
  size_t header_end = std::string::npos;
  size_t body_start = 0;
  if (crlf != std::string::npos && (lf == std::string::npos || crlf < lf)) {
    header_end = crlf;
    body_start = crlf + 4;
  } else if (lf != std::string::npos) {
    header_end = lf;
    body_start = lf + 2;
  }
  if (header_end == std::string::npos) {
    return Status::ParseError("malformed HTTP response (no header end)");
  }

  HttpResponse response;
  std::string_view block(raw.data(), header_end);
  bool first = true;
  while (!block.empty()) {
    const size_t eol = block.find('\n');
    std::string_view line = block.substr(0, eol);
    block.remove_prefix(eol == std::string_view::npos ? block.size() : eol + 1);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (first) {
      // "HTTP/1.1 200 OK"
      const size_t sp1 = line.find(' ');
      if (sp1 == std::string_view::npos) {
        return Status::ParseError("malformed HTTP status line");
      }
      response.status = 0;
      for (const char c : line.substr(sp1 + 1, 3)) {
        if (c < '0' || c > '9') {
          return Status::ParseError("malformed HTTP status code");
        }
        response.status = response.status * 10 + (c - '0');
      }
      first = false;
      continue;
    }
    if (line.empty()) continue;
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    std::string key(Trim(line.substr(0, colon)));
    std::string value(Trim(line.substr(colon + 1)));
    if (EqualsIgnoreCase(key, "Content-Type")) response.content_type = value;
    response.extra_headers.emplace_back(std::move(key), std::move(value));
  }
  response.body = raw.substr(body_start);
  return response;
}

}  // namespace genlink
