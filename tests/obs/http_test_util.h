// Minimal blocking HTTP client for introspection-server tests: one request
// per connection against 127.0.0.1 (matching the server's
// `Connection: close` contract), response read to EOF and split into
// status / content type / body. Test-only — intentionally not a library.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

namespace df::test {

struct HttpTestResponse {
  bool ok = false;  // transport-level success (connect + parseable response)
  int status = 0;
  std::string content_type;
  std::string allow;  // the Allow header on 405 responses
  std::string body;
};

// Sends `req` verbatim (head and body) and parses the response.
inline HttpTestResponse http_raw(uint16_t port, const std::string& req) {
  HttpTestResponse out;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return out;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return out;
  }
  size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return out;
    }
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);

  const size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) return out;
  const std::string head = raw.substr(0, head_end);
  out.body = raw.substr(head_end + 4);
  if (std::sscanf(head.c_str(), "HTTP/1.1 %d", &out.status) != 1) return out;
  // Single-line headers; the server never emits continuations.
  size_t pos = head.find("\r\n");
  while (pos != std::string::npos) {
    const size_t eol = head.find("\r\n", pos + 2);
    const std::string line = head.substr(
        pos + 2, eol == std::string::npos ? std::string::npos : eol - pos - 2);
    constexpr const char kCt[] = "Content-Type: ";
    if (line.rfind(kCt, 0) == 0) {
      out.content_type = line.substr(sizeof(kCt) - 1);
    }
    constexpr const char kAllow[] = "Allow: ";
    if (line.rfind(kAllow, 0) == 0) {
      out.allow = line.substr(sizeof(kAllow) - 1);
    }
    pos = eol;
  }
  out.ok = true;
  return out;
}

inline HttpTestResponse http_request(uint16_t port, const std::string& method,
                                     const std::string& target,
                                     const std::string& body = "") {
  std::string req = method + " " + target +
                    " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                    "Connection: close\r\n";
  if (!body.empty() || method == "POST") {
    req += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  req += "\r\n";
  return http_raw(port, req + body);
}

inline HttpTestResponse http_get(uint16_t port, const std::string& target) {
  return http_request(port, "GET", target);
}

inline HttpTestResponse http_post(uint16_t port, const std::string& target,
                                  const std::string& body) {
  return http_request(port, "POST", target, body);
}

}  // namespace df::test
