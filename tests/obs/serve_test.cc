#include "obs/serve.h"

#include <gtest/gtest.h>

#include <string>

#include "obs/json.h"
#include "obs/json_parse.h"
#include "tests/obs/http_test_util.h"

namespace df::obs {
namespace {

using df::test::http_get;
using df::test::http_request;

TEST(HttpServer, BindsEphemeralPortAndStops) {
  HttpServer srv;
  std::string error;
  ASSERT_TRUE(srv.start(0, &error)) << error;
  EXPECT_TRUE(srv.running());
  EXPECT_GT(srv.port(), 0);
  srv.stop();
  EXPECT_FALSE(srv.running());
  srv.stop();  // idempotent
  EXPECT_FALSE(srv.running());
}

TEST(HttpServer, ServesRegisteredHandler) {
  HttpServer srv;
  srv.handle("/status", [] {
    HttpResponse r;
    r.content_type = "application/json";
    JsonWriter w;
    w.begin_object().field("healthy", true).field("devices", uint64_t{7});
    w.end_object();
    r.body = w.take();
    return r;
  });
  ASSERT_TRUE(srv.start(0));

  const auto res = http_get(srv.port(), "/status");
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.status, 200);
  EXPECT_EQ(res.content_type, "application/json");
  std::string error;
  const auto doc = json_parse(res.body, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_NE(doc->find("devices"), nullptr);
  EXPECT_EQ(doc->find("devices")->as_u64(), 7u);
  EXPECT_GE(srv.requests(), 1u);
}

TEST(HttpServer, QueryStringIsStrippedBeforeMatching) {
  HttpServer srv;
  srv.handle("/metrics", [] {
    HttpResponse r;
    r.body = "ok";
    return r;
  });
  ASSERT_TRUE(srv.start(0));
  const auto res = http_get(srv.port(), "/metrics?window=5m");
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.status, 200);
  EXPECT_EQ(res.body, "ok");
}

TEST(HttpServer, UnknownPathIs404) {
  HttpServer srv;
  srv.handle("/known", [] { return HttpResponse{}; });
  ASSERT_TRUE(srv.start(0));
  const auto res = http_get(srv.port(), "/unknown");
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.status, 404);
}

// A server without route handlers is read-only: every non-GET method —
// even on a registered path — gets 405 with an Allow header naming the one
// accepted method (RFC 9110 requires Allow on 405 responses).
TEST(HttpServer, NonGetIs405WithAllowHeader) {
  HttpServer srv;
  srv.handle("/status", [] { return HttpResponse{}; });
  ASSERT_TRUE(srv.start(0));
  for (const char* method : {"POST", "PUT", "DELETE", "HEAD"}) {
    const auto res = http_request(srv.port(), method, "/status");
    ASSERT_TRUE(res.ok) << method;
    EXPECT_EQ(res.status, 405) << method;
    EXPECT_EQ(res.allow, "GET") << method;
  }
}

// Route handlers see the method, the matched path, and the request body —
// the shape of the job API (POST /jobs with a JobSpec document).
TEST(HttpServer, RouteReceivesMethodPathAndBody) {
  HttpServer srv;
  srv.handle_route("/jobs", [](const HttpRequest& req) {
    HttpResponse r;
    r.body = req.method + " " + req.path + " [" + req.body + "]";
    return r;
  });
  ASSERT_TRUE(srv.start(0));

  auto res = df::test::http_post(srv.port(), "/jobs", "{\"seed\":7}");
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.status, 200);
  EXPECT_EQ(res.body, "POST /jobs [{\"seed\":7}]");

  res = http_get(srv.port(), "/jobs/12/pause");
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.body, "GET /jobs/12/pause []");

  // Prefix match requires a path-segment boundary, not a string prefix.
  res = http_get(srv.port(), "/jobsx");
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.status, 404);
}

// The longest registered prefix wins, and exact GET handlers shadow routes.
TEST(HttpServer, LongestRoutePrefixWinsAndExactHandlersShadow) {
  HttpServer srv;
  srv.handle_route("/jobs", [](const HttpRequest&) {
    HttpResponse r;
    r.body = "outer";
    return r;
  });
  srv.handle_route("/jobs/special", [](const HttpRequest&) {
    HttpResponse r;
    r.body = "inner";
    return r;
  });
  srv.handle("/jobs/exact", [] {
    HttpResponse r;
    r.body = "exact";
    return r;
  });
  ASSERT_TRUE(srv.start(0));
  EXPECT_EQ(http_get(srv.port(), "/jobs/7").body, "outer");
  EXPECT_EQ(http_get(srv.port(), "/jobs/special/x").body, "inner");
  EXPECT_EQ(http_get(srv.port(), "/jobs/exact").body, "exact");
}

// With routes registered the Allow header advertises POST too, and a POST
// to a path no route claims still gets 405 (the resource is GET-only).
TEST(HttpServer, PostOutsideRoutesIs405WithExtendedAllow) {
  HttpServer srv;
  srv.handle("/metrics", [] { return HttpResponse{}; });
  srv.handle_route("/jobs", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(srv.start(0));
  const auto res = df::test::http_post(srv.port(), "/metrics", "x");
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.status, 405);
  EXPECT_EQ(res.allow, "GET, POST");
}

// Oversized bodies are rejected with 413 before the handler ever runs —
// first from the declared Content-Length, and the connection can never
// buffer more than the cap.
TEST(HttpServer, OversizedBodyIs413) {
  bool handler_ran = false;
  HttpServer srv;
  srv.handle_route("/jobs", [&handler_ran](const HttpRequest&) {
    handler_ran = true;
    return HttpResponse{};
  });
  ASSERT_TRUE(srv.start(0));
  const std::string big(HttpServer::kMaxBodyBytes + 1, 'x');
  const auto res = df::test::http_post(srv.port(), "/jobs", big);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.status, 413);
  EXPECT_FALSE(handler_ran);

  // At the cap exactly the request goes through.
  const std::string fits(HttpServer::kMaxBodyBytes, 'x');
  const auto ok = df::test::http_post(srv.port(), "/jobs", fits);
  ASSERT_TRUE(ok.ok);
  EXPECT_EQ(ok.status, 200);
  EXPECT_TRUE(handler_ran);
}

// Content-Length is a whole decimal count: anything else is a 400, not a
// "too large" 413 and not a prefix read as the length.
TEST(HttpServer, MalformedContentLengthIs400) {
  bool handler_ran = false;
  HttpServer srv;
  srv.handle_route("/jobs", [&handler_ran](const HttpRequest&) {
    handler_ran = true;
    return HttpResponse{};
  });
  ASSERT_TRUE(srv.start(0));
  const auto post = [&](const std::string& length) {
    return df::test::http_raw(srv.port(),
                              "POST /jobs HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\nContent-Length: " +
                                  length + "\r\n\r\nhello");
  };
  for (const char* bad : {"abc", "5x", "-5", "+5", "0x5"}) {
    const auto res = post(bad);
    ASSERT_TRUE(res.ok) << bad;
    EXPECT_EQ(res.status, 400) << bad;
  }
  EXPECT_FALSE(handler_ran);
  const auto huge = post("99999999999999999999999");
  ASSERT_TRUE(huge.ok);
  EXPECT_EQ(huge.status, 413);
  const auto ok = post("5");
  ASSERT_TRUE(ok.ok);
  EXPECT_EQ(ok.status, 200);
  EXPECT_TRUE(handler_ran);
}

TEST(HttpServer, HandlerStatusCodePropagates) {
  HttpServer srv;
  srv.handle("/healthz", [] {
    HttpResponse r;
    r.status = 503;
    r.body = "stalled: A1\n";
    return r;
  });
  ASSERT_TRUE(srv.start(0));
  const auto res = http_get(srv.port(), "/healthz");
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.status, 503);
  EXPECT_EQ(res.body, "stalled: A1\n");
}

TEST(HttpServer, HandlersReplaceableWhileRunning) {
  HttpServer srv;
  srv.handle("/v", [] {
    HttpResponse r;
    r.body = "one";
    return r;
  });
  ASSERT_TRUE(srv.start(0));
  EXPECT_EQ(http_get(srv.port(), "/v").body, "one");
  srv.handle("/v", [] {
    HttpResponse r;
    r.body = "two";
    return r;
  });
  EXPECT_EQ(http_get(srv.port(), "/v").body, "two");
}

TEST(HttpServer, PortInUseFailsWithError) {
  HttpServer a;
  ASSERT_TRUE(a.start(0));
  HttpServer b;
  std::string error;
  EXPECT_FALSE(b.start(a.port(), &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(b.running());
}

}  // namespace
}  // namespace df::obs
