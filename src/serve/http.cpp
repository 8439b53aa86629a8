#include "serve/http.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "api/error.h"
#include "util/strings.h"

namespace keddah::serve {

namespace {

/// Applies `ms` as a socket timeout option (SO_RCVTIMEO / SO_SNDTIMEO).
/// Clamped to at least 1 ms: a zero timeval means "block forever", which
/// is exactly what a budgeted read must never do.
void set_socket_timeout_ms(int fd, int option, std::int64_t ms) {
  if (ms < 1) ms = 1;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv));
}

enum class ReadStatus { kData, kClosed, kTimeout, kError };

/// One budgeted read: arms SO_RCVTIMEO with the deadline's remainder, then
/// reads a chunk. Retries EINTR; reports a timeout both when the socket
/// timer fires and when the overall deadline has lapsed (so a drip-feeding
/// client cannot reset the budget by landing one byte per read).
ReadStatus read_some(int fd, std::string& buffer, const util::Deadline& deadline) {
  if (deadline.expired()) return ReadStatus::kTimeout;
  set_socket_timeout_ms(fd, SO_RCVTIMEO, deadline.remaining_ms(1000));
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer.append(chunk, static_cast<std::size_t>(n));
      return ReadStatus::kData;
    }
    if (n == 0) return ReadStatus::kClosed;
    if (errno == EINTR) {
      if (deadline.expired()) return ReadStatus::kTimeout;
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return ReadStatus::kTimeout;
    return ReadStatus::kError;
  }
}

/// Sends the whole buffer. MSG_NOSIGNAL turns a peer that closed
/// mid-response into an EPIPE return instead of a process-killing SIGPIPE;
/// EINTR retries; SO_SNDTIMEO (armed by the caller) bounds a stalled
/// reader. Returns false when any byte could not be delivered.
bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;  // peer gone, stalled past SO_SNDTIMEO, or error
    off += static_cast<std::size_t>(n);
  }
  return true;
}

enum class LengthStatus { kOk, kMalformed, kOverflow };

/// Case-insensitive Content-Length lookup over the raw header block. A
/// missing header is a valid zero-length body; a non-numeric value is a
/// protocol defect the caller answers with 400 (never silently treated as
/// 0); an overflowing value is reported as kOverflow for a 413.
LengthStatus content_length(const std::string& headers, std::size_t* out) {
  *out = 0;
  for (const auto& line : util::split(headers, '\n')) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    if (util::to_lower(util::trim(line.substr(0, colon))) != "content-length") continue;
    // View `line` itself: trimming a substr() temporary would leave `value`
    // dangling once the statement ends.
    const auto value = util::trim(std::string_view(line).substr(colon + 1));
    if (value.empty()) return LengthStatus::kMalformed;
    std::size_t length = 0;
    for (const char c : value) {
      if (!std::isdigit(static_cast<unsigned char>(c))) return LengthStatus::kMalformed;
      const auto digit = static_cast<std::size_t>(c - '0');
      if (length > (std::numeric_limits<std::size_t>::max() - digit) / 10) {
        return LengthStatus::kOverflow;
      }
      length = length * 10 + digit;
    }
    *out = length;
    return LengthStatus::kOk;
  }
  return LengthStatus::kOk;
}

/// Canned error response for transport-detected defects. Retryable codes
/// carry a fixed Retry-After so the bytes stay deterministic.
HttpResponse transport_error(api::ErrorCode code, const std::string& message) {
  HttpResponse response;
  response.status = api::error_http_status(code);
  response.body = api::error_body(code, message);
  if (api::error_retryable(code)) response.retry_after_s = 1;
  return response;
}

}  // namespace

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

HttpServer::HttpServer(const HttpOptions& options) : options_(options) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("serve: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(util::format("serve: cannot bind 127.0.0.1:%u (%s)",
                                          static_cast<unsigned>(options_.port),
                                          detail.c_str()));
  }
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: listen() failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
  pool_ = std::make_unique<util::ThreadPool>(util::resolved_threads(options_.threads));
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::start(HttpHandler handler) {
  handler_ = std::move(handler);
  acceptor_ = std::thread([this] { accept_loop(); });
}

void HttpServer::stop() {
  if (stopping_.exchange(true)) {
    if (acceptor_.joinable()) acceptor_.join();
    return;
  }
  {
    util::MutexLock lock(&state_mutex_);
    if (listen_fd_ >= 0) {
      // shutdown() unblocks a pending accept(); close() releases the port.
      ::shutdown(listen_fd_, SHUT_RDWR);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
  }
  if (acceptor_.joinable()) acceptor_.join();
  // Drain handshake: in-flight connections finish under a deadline. Their
  // socket phases are individually budgeted, so even a hostile peer cannot
  // hold a worker past header/body/write timeouts; the wait below exists
  // so a clean shutdown returns as soon as the last response is written.
  {
    const auto drain = util::Deadline::after_ms(options_.drain_timeout_ms);
    util::MutexLock lock(&pending_mutex_);
    while (pending_ > 0 && !drain.expired()) {
      drained_cv_.wait_for_ms(pending_mutex_, drain.remaining_ms(100));
    }
  }
  // The pool destructor joins workers; any connection still running past
  // the drain deadline finishes its (budgeted) phase first.
  pool_.reset();
}

TransportStats HttpServer::transport_stats() const {
  TransportStats stats;
  stats.accepted = accepted_.load();
  stats.rejected_pending = rejected_pending_.load();
  stats.header_timeouts = header_timeouts_.load();
  stats.body_timeouts = body_timeouts_.load();
  stats.oversized = oversized_.load();
  stats.malformed = malformed_.load();
  stats.early_disconnects = early_disconnects_.load();
  stats.write_aborts = write_aborts_.load();
  return stats;
}

void HttpServer::accept_loop() {
  while (!stopping_.load()) {
    int listen_fd = -1;
    {
      util::MutexLock lock(&state_mutex_);
      listen_fd = listen_fd_;
    }
    if (listen_fd < 0) break;  // stop() already closed the listener
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) break;
      if (errno == EINTR) continue;
      break;  // listener is gone; nothing to accept on
    }
    // Admission bound: beyond max_pending accepted-but-unfinished
    // connections, answer a canned 429 here instead of queueing unbounded
    // work behind the pool. The write is bounded by SO_SNDTIMEO and the
    // body is tiny, so the accept loop is not meaningfully stalled.
    bool admit = false;
    {
      util::MutexLock lock(&pending_mutex_);
      if (pending_ < options_.max_pending) {
        ++pending_;
        admit = true;
      }
    }
    if (options_.sndbuf_bytes > 0) {
      const int sndbuf = static_cast<int>(options_.sndbuf_bytes);
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
    }
    if (!admit) {
      rejected_pending_.fetch_add(1);
      respond(fd, transport_error(api::ErrorCode::kQueueFull,
                                  "connection queue at capacity; retry later"));
      ::close(fd);
      continue;
    }
    accepted_.fetch_add(1);
    pool_->submit([this, fd] {
      handle_connection(fd);
      finish_connection();
    });
  }
}

void HttpServer::finish_connection() {
  {
    util::MutexLock lock(&pending_mutex_);
    --pending_;
    if (pending_ > 0) return;
  }
  drained_cv_.notify_all();
}

void HttpServer::respond(int fd, const HttpResponse& response) {
  set_socket_timeout_ms(fd, SO_SNDTIMEO, options_.write_timeout_ms);
  std::string out = util::format("HTTP/1.1 %d %s\r\n", response.status,
                                 status_text(response.status));
  out += "Content-Type: " + response.content_type + "\r\n";
  out += util::format("Content-Length: %zu\r\n", response.body.size());
  if (response.retry_after_s > 0) {
    out += util::format("Retry-After: %lld\r\n",
                        static_cast<long long>(response.retry_after_s));
  }
  out += "Connection: close\r\n\r\n";
  out += response.body;
  if (!write_all(fd, out)) write_aborts_.fetch_add(1);
}

void HttpServer::handle_connection(int fd) {
  // Phase 1: the header block, under one overall budget. A peer that
  // dribbles bytes (slow-loris) exhausts the deadline, not a worker.
  const auto request_deadline = util::Deadline::after_ms(options_.handler_budget_ms);
  const auto header_deadline = util::Deadline::after_ms(options_.header_timeout_ms);
  std::string data;
  std::size_t header_end = std::string::npos;
  while ((header_end = data.find("\r\n\r\n")) == std::string::npos) {
    if (data.size() > options_.max_header_bytes) {
      oversized_.fetch_add(1);
      respond(fd, transport_error(api::ErrorCode::kPayloadTooLarge,
                                  util::format("header block exceeds %zu bytes",
                                               options_.max_header_bytes)));
      ::close(fd);
      return;
    }
    switch (read_some(fd, data, header_deadline)) {
      case ReadStatus::kData: continue;
      case ReadStatus::kClosed:
        if (data.empty()) {
          // Probe/port-scan connection: nothing was asked, nothing is owed.
          early_disconnects_.fetch_add(1);
        } else {
          // The peer half-closed mid-header; it may still be reading, so
          // answer the framing defect instead of silently dropping it.
          malformed_.fetch_add(1);
          respond(fd, transport_error(api::ErrorCode::kBadRequest,
                                      "truncated request: header block never "
                                      "terminated with CRLFCRLF"));
        }
        ::close(fd);
        return;
      case ReadStatus::kTimeout:
        header_timeouts_.fetch_add(1);
        respond(fd, transport_error(api::ErrorCode::kRequestTimeout,
                                    "request header read budget exhausted"));
        ::close(fd);
        return;
      case ReadStatus::kError:
        early_disconnects_.fetch_add(1);
        ::close(fd);
        return;
    }
  }

  // The cap applies to the finished block too: a whole oversized header
  // landing in one read must not slip past the mid-read check above.
  if (header_end > options_.max_header_bytes) {
    oversized_.fetch_add(1);
    respond(fd, transport_error(api::ErrorCode::kPayloadTooLarge,
                                util::format("header block exceeds %zu bytes",
                                             options_.max_header_bytes)));
    ::close(fd);
    return;
  }

  // Phase 2: framing. Both defects are answered, not swallowed: a
  // malformed Content-Length is a 400 (treating it as 0 would desync the
  // connection), an oversized declaration is a 413 before reading a byte
  // of the body.
  std::size_t body_length = 0;
  switch (content_length(data.substr(0, header_end), &body_length)) {
    case LengthStatus::kOk: break;
    case LengthStatus::kMalformed:
      malformed_.fetch_add(1);
      respond(fd, transport_error(api::ErrorCode::kBadRequest,
                                  "malformed Content-Length: value is not a "
                                  "non-negative integer"));
      ::close(fd);
      return;
    case LengthStatus::kOverflow:
      oversized_.fetch_add(1);
      respond(fd, transport_error(api::ErrorCode::kPayloadTooLarge,
                                  "declared Content-Length overflows"));
      ::close(fd);
      return;
  }
  if (body_length > options_.max_body_bytes) {
    oversized_.fetch_add(1);
    respond(fd, transport_error(api::ErrorCode::kPayloadTooLarge,
                                util::format("declared body of %zu bytes exceeds the "
                                             "%zu byte cap",
                                             body_length, options_.max_body_bytes)));
    ::close(fd);
    return;
  }

  // Phase 3: the body, under its own budget.
  const std::size_t body_start = header_end + 4;
  const auto body_deadline = util::Deadline::after_ms(options_.body_timeout_ms);
  while (data.size() < body_start + body_length) {
    switch (read_some(fd, data, body_deadline)) {
      case ReadStatus::kData: continue;
      case ReadStatus::kClosed:
        malformed_.fetch_add(1);
        respond(fd, transport_error(api::ErrorCode::kBadRequest,
                                    "request body shorter than the declared "
                                    "Content-Length"));
        ::close(fd);
        return;
      case ReadStatus::kTimeout:
        body_timeouts_.fetch_add(1);
        respond(fd, transport_error(api::ErrorCode::kRequestTimeout,
                                    "request body read budget exhausted"));
        ::close(fd);
        return;
      case ReadStatus::kError:
        early_disconnects_.fetch_add(1);
        ::close(fd);
        return;
    }
  }

  // Phase 4: parse the request line and dispatch.
  HttpRequest request;
  const auto line_end = data.find("\r\n");
  const auto request_line = data.substr(0, line_end);
  const auto first_space = request_line.find(' ');
  const auto second_space =
      first_space == std::string::npos ? std::string::npos
                                       : request_line.find(' ', first_space + 1);
  HttpResponse response;
  if (second_space == std::string::npos || first_space == 0) {
    malformed_.fetch_add(1);
    response = transport_error(api::ErrorCode::kBadRequest,
                               "malformed request line (want METHOD TARGET VERSION)");
  } else {
    request.method = request_line.substr(0, first_space);
    request.path = request_line.substr(first_space + 1, second_space - first_space - 1);
    request.body = data.substr(body_start, body_length);
    request.deadline = request_deadline;
    try {
      response = handler_(request);
    } catch (const std::exception& e) {
      // Exception text flows through util::Json, so quotes/backslashes in
      // e.what() are escaped instead of corrupting the envelope.
      response = transport_error(api::ErrorCode::kInternal, e.what());
    }
  }
  respond(fd, response);
  ::close(fd);
}

}  // namespace keddah::serve
