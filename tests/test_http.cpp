// HTTP codec round-trips, incremental parsing across arbitrary splits, and
// router dispatch.
#include <gtest/gtest.h>

#include "http/http.hpp"

namespace pprox::http {
namespace {

TEST(HttpMessage, RequestSerializeHasLengthAndCrlf) {
  HttpRequest req;
  req.method = "POST";
  req.target = "/engines/ur/events";
  req.set_header("Content-Type", "application/json");
  req.body = R"({"user":"u"})";
  const std::string wire = req.serialize();
  EXPECT_NE(wire.find("POST /engines/ur/events HTTP/1.1\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 12\r\n"), std::string::npos);
  EXPECT_NE(wire.find("\r\n\r\n"), std::string::npos);
}

TEST(HttpMessage, SetHeaderOverwritesCaseInsensitive) {
  HttpRequest req;
  req.set_header("content-type", "text/plain");
  req.set_header("Content-Type", "application/json");
  ASSERT_NE(req.header("CONTENT-TYPE"), nullptr);
  EXPECT_EQ(*req.header("CONTENT-TYPE"), "application/json");
  EXPECT_EQ(req.headers.size(), 1u);
}

TEST(HttpMessage, StatusReasons) {
  EXPECT_EQ(status_reason(200), "OK");
  EXPECT_EQ(status_reason(404), "Not Found");
  EXPECT_EQ(status_reason(503), "Service Unavailable");
  EXPECT_EQ(status_reason(599), "Unknown");
}

TEST(HttpParser, ParsesSerializedRequest) {
  HttpRequest req;
  req.method = "GET";
  req.target = "/queries?user=u1";
  req.body = "payload";
  HttpParser parser(HttpParser::Mode::kRequest);
  parser.feed(req.serialize());
  const auto parsed = parser.next_request();
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->method, "GET");
  EXPECT_EQ(parsed->target, "/queries?user=u1");
  EXPECT_EQ(parsed->body, "payload");
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(HttpParser, ParsesSerializedResponse) {
  HttpResponse resp = HttpResponse::json_response(201, R"({"ok":true})");
  HttpParser parser(HttpParser::Mode::kResponse);
  parser.feed(resp.serialize());
  const auto parsed = parser.next_response();
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, 201);
  EXPECT_EQ(parsed->body, R"({"ok":true})");
  ASSERT_NE(parsed->header("content-type"), nullptr);
  EXPECT_EQ(*parsed->header("content-type"), "application/json");
}

TEST(HttpParser, IncompleteMessageNeedsMoreData) {
  HttpParser parser(HttpParser::Mode::kRequest);
  parser.feed("POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nab");
  EXPECT_FALSE(parser.next_request().has_value());
  parser.feed("cde");
  const auto parsed = parser.next_request();
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->body, "abcde");
}

class HttpSplitTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HttpSplitTest, ArbitrarySplitPointsReassemble) {
  HttpRequest req;
  req.method = "POST";
  req.target = "/x";
  req.body = "0123456789abcdef";
  const std::string wire = req.serialize();
  const std::size_t split = GetParam() % wire.size();

  HttpParser parser(HttpParser::Mode::kRequest);
  parser.feed(std::string_view(wire).substr(0, split));
  (void)parser.next_request();
  parser.feed(std::string_view(wire).substr(split));
  const auto parsed = parser.next_request();
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->body, "0123456789abcdef");
  EXPECT_FALSE(parser.broken());
}

INSTANTIATE_TEST_SUITE_P(Splits, HttpSplitTest,
                         ::testing::Values(1, 5, 16, 17, 30, 40, 50, 57, 58, 59,
                                           60, 70));

TEST(HttpParser, PipelinedRequests) {
  HttpRequest a;
  a.target = "/a";
  HttpRequest b;
  b.target = "/b";
  b.body = "body-b";
  HttpParser parser(HttpParser::Mode::kRequest);
  parser.feed(a.serialize() + b.serialize());
  const auto first = parser.next_request();
  const auto second = parser.next_request();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->target, "/a");
  EXPECT_EQ(second->target, "/b");
  EXPECT_EQ(second->body, "body-b");
  EXPECT_FALSE(parser.next_request().has_value());
}

TEST(HttpParser, MalformedStartLineBreaksStream) {
  HttpParser parser(HttpParser::Mode::kRequest);
  parser.feed("NOT-HTTP\r\nFoo: bar\r\n\r\n");
  EXPECT_FALSE(parser.next_request().has_value());
  EXPECT_TRUE(parser.broken());
}

TEST(HttpParser, MalformedHeaderBreaksStream) {
  HttpParser parser(HttpParser::Mode::kRequest);
  parser.feed("GET / HTTP/1.1\r\nbad header line\r\n\r\n");
  EXPECT_FALSE(parser.next_request().has_value());
  EXPECT_TRUE(parser.broken());
}

TEST(HttpParser, BadContentLengthBreaksStream) {
  HttpParser parser(HttpParser::Mode::kRequest);
  parser.feed("GET / HTTP/1.1\r\nContent-Length: abc\r\n\r\n");
  EXPECT_FALSE(parser.next_request().has_value());
  EXPECT_TRUE(parser.broken());

  // SIZE_MAX would wrap `consumed + body_len` and hand the next request's
  // bytes out as this one's body, then parse them again as a request.
  HttpParser wrap(HttpParser::Mode::kRequest);
  wrap.feed("POST /events HTTP/1.1\r\nContent-Length: 18446744073709551615"
            "\r\n\r\nGET /queries HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
  EXPECT_FALSE(wrap.next_request().has_value());
  EXPECT_TRUE(wrap.broken());

  // A huge declared length must not let the peer grow the buffer.
  HttpParser huge(HttpParser::Mode::kRequest);
  huge.feed("POST /events HTTP/1.1\r\nContent-Length: 1000000000000\r\n\r\n");
  const std::string chunk(1 << 20, 'x');
  for (int i = 0; i < 4 && !huge.broken(); ++i) {
    huge.feed(chunk);
    EXPECT_FALSE(huge.next_request().has_value());
  }
  EXPECT_TRUE(huge.broken());
}

TEST(HttpParser, OversizedHeadersBreakStream) {
  HttpParser parser(HttpParser::Mode::kRequest);
  parser.feed("GET / HTTP/1.1\r\nX: " + std::string(70 * 1024, 'a'));
  EXPECT_FALSE(parser.next_request().has_value());
  EXPECT_TRUE(parser.broken());
}

TEST(HttpParser, ResponseStatusOutOfRangeBreaks) {
  HttpParser parser(HttpParser::Mode::kResponse);
  parser.feed("HTTP/1.1 999 Whatever\r\n\r\n");
  EXPECT_FALSE(parser.next_response().has_value());
  EXPECT_TRUE(parser.broken());
}

TEST(Router, ExactAndWildcardDispatch) {
  Router router;
  router.add("POST", "/engines/*/events",
             [](const HttpRequest&) { return HttpResponse::json_response(201, "{}"); });
  router.add("GET", "/health",
             [](const HttpRequest&) { return HttpResponse::json_response(200, "ok"); });

  HttpRequest post;
  post.method = "POST";
  post.target = "/engines/ur/events";
  EXPECT_EQ(router.dispatch(post).status, 201);

  HttpRequest health;
  health.method = "GET";
  health.target = "/health?verbose=1";  // query string ignored
  EXPECT_EQ(router.dispatch(health).status, 200);
}

TEST(Router, NotFoundAndMethodNotAllowed) {
  Router router;
  router.add("GET", "/a", [](const HttpRequest&) {
    return HttpResponse::json_response(200, "{}");
  });
  HttpRequest missing;
  missing.target = "/b";
  EXPECT_EQ(router.dispatch(missing).status, 404);
  HttpRequest wrong_method;
  wrong_method.method = "POST";
  wrong_method.target = "/a";
  EXPECT_EQ(router.dispatch(wrong_method).status, 405);
}

TEST(Router, PatternMatching) {
  EXPECT_TRUE(Router::pattern_matches("/a/*/c", "/a/b/c"));
  EXPECT_FALSE(Router::pattern_matches("/a/*/c", "/a/b/d"));
  EXPECT_FALSE(Router::pattern_matches("/a/*/c", "/a/b/c/d"));
  EXPECT_FALSE(Router::pattern_matches("/a/*", "/a/"));  // '*' needs nonempty
  EXPECT_TRUE(Router::pattern_matches("/a", "/a"));
  EXPECT_FALSE(Router::pattern_matches("/a", "/a/b"));
  EXPECT_FALSE(Router::pattern_matches("/a/b", "/a"));
}

TEST(Router, FirstMatchWins) {
  Router router;
  router.add("GET", "/x/*", [](const HttpRequest&) {
    return HttpResponse::json_response(200, "wild");
  });
  router.add("GET", "/x/y", [](const HttpRequest&) {
    return HttpResponse::json_response(200, "exact");
  });
  HttpRequest req;
  req.target = "/x/y";
  EXPECT_EQ(router.dispatch(req).body, "wild");
}

}  // namespace
}  // namespace pprox::http
