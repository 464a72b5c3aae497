#include "obs/serve.h"

#include <netinet/in.h>
#include <poll.h>
#include <strings.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <utility>

#include "obs/json_parse.h"

namespace df::obs {

namespace {

constexpr size_t kMaxHeadBytes = 16 * 1024;

const char* reason_phrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 409:
      return "Conflict";
    case 413:
      return "Content Too Large";
    case 503:
      return "Service Unavailable";
    default:
      return "Status";
  }
}

void send_all(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return;  // peer gone; nothing to recover
    off += static_cast<size_t>(n);
  }
}

void send_response(int fd, const HttpResponse& r,
                   const std::string& extra_headers = {}) {
  std::string out = "HTTP/1.1 ";
  out += std::to_string(r.status);
  out += ' ';
  out += reason_phrase(r.status);
  out += "\r\nContent-Type: ";
  out += r.content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(r.body.size());
  out += "\r\nConnection: close\r\n";
  out += extra_headers;
  out += "\r\n";
  out += r.body;
  send_all(fd, out);
}

// Case-insensitive single-header lookup in a raw request head. Returns the
// trimmed value or "" when absent.
std::string header_value(const std::string& head, const std::string& name) {
  size_t pos = head.find("\r\n");
  while (pos != std::string::npos && pos + 2 < head.size()) {
    const size_t eol = head.find("\r\n", pos + 2);
    const std::string line = head.substr(
        pos + 2, eol == std::string::npos ? std::string::npos : eol - pos - 2);
    const size_t colon = line.find(':');
    if (colon != std::string::npos && colon == name.size() &&
        ::strncasecmp(line.c_str(), name.c_str(), name.size()) == 0) {
      size_t begin = colon + 1;
      while (begin < line.size() && line[begin] == ' ') ++begin;
      size_t end = line.size();
      while (end > begin && (line[end - 1] == ' ' || line[end - 1] == '\t')) {
        --end;
      }
      return line.substr(begin, end - begin);
    }
    pos = eol;
  }
  return "";
}

}  // namespace

HttpServer::~HttpServer() { stop(); }

void HttpServer::handle(std::string path, Handler fn) {
  std::lock_guard<std::mutex> lock(mu_);
  handlers_[std::move(path)] = std::move(fn);
}

void HttpServer::handle_route(std::string prefix, RouteHandler fn) {
  std::lock_guard<std::mutex> lock(mu_);
  routes_[std::move(prefix)] = std::move(fn);
}

HttpServer::RouteHandler HttpServer::find_route(
    const std::string& path) const {
  // Longest matching prefix: a route matches its exact path or any path one
  // '/' below it, so "/jobs" serves "/jobs/7/pause" but never "/jobsx".
  std::lock_guard<std::mutex> lock(mu_);
  const RouteHandler* best = nullptr;
  size_t best_len = 0;
  for (const auto& [prefix, fn] : routes_) {
    if (path.size() < prefix.size() ||
        path.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    if (path.size() > prefix.size() && path[prefix.size()] != '/') continue;
    if (best == nullptr || prefix.size() > best_len) {
      best = &fn;
      best_len = prefix.size();
    }
  }
  return best != nullptr ? *best : RouteHandler{};
}

bool HttpServer::start(uint16_t port, std::string* error) {
  if (running()) return true;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 16) < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    ::close(fd);
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  } else {
    port_ = port;
  }
  listen_fd_ = fd;
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { loop(); });
  return true;
}

void HttpServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void HttpServer::loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd p{};
    p.fd = listen_fd_;
    p.events = POLLIN;
    const int r = ::poll(&p, 1, /*timeout_ms=*/100);
    if (r <= 0 || (p.revents & POLLIN) == 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    // A stuck peer must not wedge the accept loop: every recv — head and
    // body alike — is bounded by this timeout.
    timeval tv{};
    tv.tv_sec = 2;
    ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    serve_client(client);
    ::close(client);
  }
}

void HttpServer::serve_client(int fd) {
  // Read until the end of the request head; bytes past it are the start of
  // the body.
  std::string req;
  char buf[2048];
  size_t head_end = std::string::npos;
  while (req.size() < kMaxHeadBytes) {
    head_end = req.find("\r\n\r\n");
    if (head_end != std::string::npos) break;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    req.append(buf, static_cast<size_t>(n));
  }
  requests_.fetch_add(1, std::memory_order_relaxed);

  const size_t line_end = req.find("\r\n");
  const std::string line =
      line_end == std::string::npos ? req : req.substr(0, line_end);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                              : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos ||
      head_end == std::string::npos) {
    HttpResponse r;
    r.status = 400;
    r.body = "bad request\n";
    send_response(fd, r);
    return;
  }
  const std::string head = req.substr(0, head_end);
  HttpRequest request;
  request.method = line.substr(0, sp1);
  request.path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const size_t query = request.path.find('?');
  if (query != std::string::npos) request.path.resize(query);

  // Body: declared by Content-Length and capped at kMaxBodyBytes. The limit
  // is enforced twice — against the declared length before reading a single
  // body byte, and against the actual byte count for clients that lie.
  size_t content_length = 0;
  const std::string declared = header_value(head, "Content-Length");
  if (!declared.empty()) {
    uint64_t v = 0;
    if (!decode_u64(declared, &v)) {
      // Digits past 2^64-1 are a length, just too large; anything else is
      // not a length at all.
      if (declared.find_first_not_of("0123456789") != std::string::npos) {
        HttpResponse r;
        r.status = 400;
        r.body = "bad Content-Length\n";
        send_response(fd, r);
        return;
      }
      v = UINT64_MAX;
    }
    if (v > kMaxBodyBytes) {
      HttpResponse r;
      r.status = 413;
      r.body = "request body too large (limit " +
               std::to_string(kMaxBodyBytes) + " bytes)\n";
      send_response(fd, r);
      return;
    }
    content_length = static_cast<size_t>(v);
  }
  request.body = req.substr(head_end + 4);
  while (request.body.size() < content_length) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // slow/dead client: the receive timeout fired
    request.body.append(buf, static_cast<size_t>(n));
    if (request.body.size() > kMaxBodyBytes) {
      HttpResponse r;
      r.status = 413;
      r.body = "request body too large (limit " +
               std::to_string(kMaxBodyBytes) + " bytes)\n";
      send_response(fd, r);
      return;
    }
  }
  if (request.body.size() < content_length) {
    HttpResponse r;
    r.status = 400;
    r.body = "incomplete request body\n";
    send_response(fd, r);
    return;
  }
  if (request.body.size() > content_length) request.body.resize(content_length);

  bool have_routes = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    have_routes = !routes_.empty();
  }
  const std::string allow =
      have_routes ? "Allow: GET, POST\r\n" : "Allow: GET\r\n";

  if (request.method != "GET" && request.method != "POST") {
    HttpResponse r;
    r.status = 405;
    r.body = "method not allowed\n";
    send_response(fd, r, allow);
    return;
  }

  if (request.method == "GET") {
    Handler fn;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = handlers_.find(request.path);
      if (it != handlers_.end()) fn = it->second;
    }
    if (fn) {
      send_response(fd, fn());
      return;
    }
  }

  if (const RouteHandler route = find_route(request.path); route) {
    send_response(fd, route(request));
    return;
  }

  if (request.method == "POST") {
    // No route claims the path: the resource (if it exists at all) is
    // GET-only — the historical read-only-server behaviour.
    HttpResponse r;
    r.status = 405;
    r.body = "method not allowed\n";
    send_response(fd, r, allow);
    return;
  }
  HttpResponse r;
  r.status = 404;
  r.body = "not found\n";
  send_response(fd, r);
}

}  // namespace df::obs
