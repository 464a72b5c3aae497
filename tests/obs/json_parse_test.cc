// Tests for the JSON read side (obs/json_parse.h): the strict u64 decoders,
// json_parse's tree, and JsonReader reading JsonWriter documents in order.
#include "obs/json_parse.h"

#include <gtest/gtest.h>

#include <string>

#include "obs/json.h"

namespace df::obs {
namespace {

std::string parse_error(std::string_view text) {
  std::string error;
  EXPECT_FALSE(json_parse(text, &error).has_value()) << text;
  return error;
}

TEST(JsonDecode, U64AcceptsDigitsOnlyAndRejectsOverflow) {
  uint64_t v = 7;
  EXPECT_TRUE(decode_u64("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(decode_u64("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_TRUE(decode_u64("007", &v));
  EXPECT_EQ(v, 7u);
  for (const char* bad : {"", "-1", "+1", "1.9", "1e3", " 1", "1 ", "0x10",
                          "18446744073709551616", "99999999999999999999"}) {
    EXPECT_FALSE(decode_u64(bad, &v)) << bad;
  }
}

TEST(JsonDecode, HexU64NeedsPrefixAndHexDigitsOnly) {
  uint64_t v = 0;
  EXPECT_TRUE(decode_hex_u64("0x0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(decode_hex_u64("0xffffffffffffffff", &v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_TRUE(decode_hex_u64("0xDeadBeef", &v));
  EXPECT_EQ(v, 0xdeadbeefu);
  for (const char* bad : {"", "0x", "ff", "0X1", "0x1g", "0x-1", "0x+1",
                          "0x 1", "0x10000000000000000", "1"}) {
    EXPECT_FALSE(decode_hex_u64(bad, &v)) << bad;
  }
}

TEST(JsonValueU64, IsStrictOnNumbersAndHexStrings) {
  const auto doc = json_parse(
      R"({"n":42,"h":"0x2a","neg":-1,"frac":1.9,"exp":1e3,"dec":"42"})",
      nullptr);
  ASSERT_TRUE(doc.has_value());
  uint64_t v = 0;
  EXPECT_TRUE(doc->find("n")->to_u64(&v));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(doc->find("h")->to_u64(&v));
  EXPECT_EQ(v, 42u);
  for (const char* key : {"neg", "frac", "exp", "dec"}) {
    EXPECT_FALSE(doc->find(key)->to_u64(&v)) << key;
    EXPECT_EQ(doc->find(key)->as_u64(), 0u) << key;
  }
}

TEST(JsonParse, DecodesEveryEscape) {
  const auto doc = json_parse(
      R"(["q\"b\\s\/b\bf\fn\nr\rt\t", "Aé€\u0000"])", nullptr);
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->items.size(), 2u);
  EXPECT_EQ(doc->items[0].scalar, "q\"b\\s/b\bf\fn\nr\rt\t");
  EXPECT_EQ(doc->items[1].scalar,
            std::string("A\xc3\xa9\xe2\x82\xac\0", 7));
  EXPECT_NE(parse_error(R"(["\x"])").find("bad string escape"),
            std::string::npos);
  EXPECT_NE(parse_error(R"(["\u00g1"])").find("bad \\u escape digit"),
            std::string::npos);
  EXPECT_NE(parse_error(R"(["\u00)").find("truncated \\u escape"),
            std::string::npos);
}

TEST(JsonParse, ReadsBackControlBytesTheWriterEscapes) {
  std::string all;
  for (int c = 1; c < 0x20; ++c) all.push_back(static_cast<char>(c));
  all += "\"\\/plain";
  JsonWriter w;
  w.begin_object();
  w.field(all, all);
  w.end_object();
  const auto doc = json_parse(w.str(), nullptr);
  ASSERT_TRUE(doc.has_value()) << w.str();
  ASSERT_EQ(doc->members.size(), 1u);
  EXPECT_EQ(doc->members[0].first, all);
  EXPECT_EQ(doc->members[0].second.scalar, all);
}

TEST(JsonParse, NestingLimitIs64Containers) {
  const auto nested = [](int depth) {
    return std::string(static_cast<size_t>(depth), '[') + "1" +
           std::string(static_cast<size_t>(depth), ']');
  };
  EXPECT_TRUE(json_parse(nested(JsonReader::kMaxDepth), nullptr).has_value());
  EXPECT_NE(parse_error(nested(JsonReader::kMaxDepth + 1))
                .find("nesting too deep"),
            std::string::npos);
  std::string objects;
  for (int i = 0; i <= JsonReader::kMaxDepth; ++i) objects += "{\"k\":";
  EXPECT_NE(parse_error(objects).find("nesting too deep"), std::string::npos);
}

TEST(JsonParse, RejectsEveryTruncationAndTrailingGarbage) {
  const std::string doc =
      R"({"a":[1,-2.5e3,true,false,null],"b":{"c":"d\n"},"e":"0x1f"})";
  ASSERT_TRUE(json_parse(doc, nullptr).has_value());
  for (size_t cut = 0; cut < doc.size(); ++cut) {
    EXPECT_FALSE(parse_error(doc.substr(0, cut)).empty()) << cut;
  }
  EXPECT_TRUE(json_parse(doc + " \n\t\r", nullptr).has_value());
  EXPECT_EQ(parse_error(doc + " x"),
            "offset " + std::to_string(doc.size() + 1) +
                ": trailing garbage after document");
  EXPECT_NE(parse_error("{}{}").find("trailing garbage"), std::string::npos);
}

TEST(JsonParse, KeepsRawNumberTokensAndMemberOrder) {
  const auto doc = json_parse(
      R"({"z":-0,"a":1.50,"m":1E+3,"big":18446744073709551616,"a":2})",
      nullptr);
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->members.size(), 5u);
  const char* keys[] = {"z", "a", "m", "big", "a"};
  const char* raw[] = {"-0", "1.50", "1E+3", "18446744073709551616", "2"};
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(doc->members[i].first, keys[i]);
    EXPECT_TRUE(doc->members[i].second.is_number());
    EXPECT_EQ(doc->members[i].second.scalar, raw[i]);
  }
  // find() returns the first of duplicate keys.
  EXPECT_EQ(doc->find("a")->scalar, "1.50");
}

TEST(JsonParse, ErrorsCarryTheOffset) {
  EXPECT_EQ(parse_error(R"({"a":1,})"),
            "offset 7: expected object key string");
  EXPECT_EQ(parse_error("[1 2]"), "offset 3: expected ',' or ']' in array");
  EXPECT_EQ(parse_error(R"({"a" 1})"),
            "offset 5: expected ':' after object key");
  EXPECT_EQ(parse_error(R"({"a":1 "b":2})"),
            "offset 7: expected ',' or '}' in object");
  EXPECT_EQ(parse_error("[tru]"), "offset 1: bad literal");
  EXPECT_EQ(parse_error("[x]"), "offset 1: expected a value");
  EXPECT_EQ(parse_error(R"(["abc)"), "offset 5: unterminated string");
  EXPECT_EQ(parse_error(""), "offset 0: unexpected end of input");
}

// --- JsonReader --------------------------------------------------------------

std::string sample_document() {
  JsonWriter w;
  w.begin_object();
  w.field("name", "dev\nA1");
  w.field("count", uint64_t{42});
  w.field("word", "0xfeed");
  w.key("list").begin_array();
  for (uint64_t v : {1u, 2u, 3u}) w.value(v);
  w.end_array();
  w.field("flag", true);
  w.key("inner").begin_object();
  w.field("id", "plain");
  w.end_object();
  w.end_object();
  return w.take();
}

TEST(JsonReader, ReadsAWriterDocumentInOrder) {
  const std::string text = sample_document();
  JsonReader r(text);
  std::string name;
  uint64_t count = 0;
  uint64_t word = 0;
  bool flag = false;
  std::string_view id;
  ASSERT_TRUE(r.begin_object());
  ASSERT_TRUE(r.expect_key("name") && r.read_string(&name)) << r.error();
  ASSERT_TRUE(r.expect_key("count") && r.read_u64(&count)) << r.error();
  ASSERT_TRUE(r.expect_key("word") && r.read_hex_u64(&word)) << r.error();
  ASSERT_TRUE(r.expect_key("list") && r.begin_array()) << r.error();
  std::vector<uint64_t> list;
  while (r.more()) {
    uint64_t v = 0;
    ASSERT_TRUE(r.read_u64(&v)) << r.error();
    list.push_back(v);
  }
  ASSERT_TRUE(r.end_array()) << r.error();
  EXPECT_FALSE(r.optional_key("absent"));
  ASSERT_TRUE(r.optional_key("flag") && r.read_bool(&flag)) << r.error();
  ASSERT_TRUE(r.expect_key("inner") && r.begin_object() &&
              r.expect_key("id") && r.read_string(&id) && r.end_object())
      << r.error();
  ASSERT_TRUE(r.end_object() && r.finish()) << r.error();

  EXPECT_EQ(name, "dev\nA1");
  EXPECT_EQ(count, 42u);
  EXPECT_EQ(word, 0xfeedu);
  EXPECT_EQ(list, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_TRUE(flag);
  EXPECT_EQ(id, "plain");
  // An unescaped string is a view into the document, not a copy.
  EXPECT_GE(id.data(), text.data());
  EXPECT_LT(id.data(), text.data() + text.size());
}

TEST(JsonReader, RejectsAMissingOrReorderedKeyNamingTheExpectedOne) {
  // "count" is missing: the next key is "word".
  JsonReader missing(R"({"name":"x","word":"0x1"})");
  std::string name;
  uint64_t count = 0;
  ASSERT_TRUE(missing.begin_object() && missing.expect_key("name") &&
              missing.read_string(&name));
  EXPECT_FALSE(missing.expect_key("count") && missing.read_u64(&count));
  EXPECT_EQ(missing.error(), "offset 12: expected key 'count', found 'word'");

  // Reordered: "count" before "name".
  const std::string swapped = R"({"count":42,"name":"x"})";
  JsonReader reordered(swapped);
  ASSERT_TRUE(reordered.begin_object());
  EXPECT_FALSE(reordered.expect_key("name"));
  EXPECT_EQ(reordered.error(), "offset 1: expected key 'name', found 'count'");
  // The first error sticks.
  EXPECT_FALSE(reordered.expect_key("count"));
  EXPECT_EQ(reordered.error(), "offset 1: expected key 'name', found 'count'");

  // An unknown trailing key fails where the object should end.
  JsonReader extra(R"({"a":1,"b":2})");
  uint64_t a = 0;
  ASSERT_TRUE(extra.begin_object() && extra.expect_key("a") &&
              extra.read_u64(&a));
  EXPECT_FALSE(extra.end_object());
  EXPECT_NE(extra.error().find("expected '}'"), std::string::npos);
}

TEST(JsonReader, ValueErrorsNameTheField) {
  for (const char* doc : {R"({"exec_count":-5})", R"({"exec_count":1.5})",
                          R"({"exec_count":1e3})",
                          R"({"exec_count":18446744073709551616})",
                          R"({"exec_count":"7"})"}) {
    JsonReader r(doc);
    uint64_t v = 0;
    ASSERT_TRUE(r.begin_object() && r.expect_key("exec_count"));
    EXPECT_FALSE(r.read_u64(&v)) << doc;
    EXPECT_EQ(r.error(),
              "offset 14: field 'exec_count': expected an unsigned decimal "
              "integer")
        << doc;
  }
  JsonReader hex(R"({"rng":["0x12z4"]})");
  uint64_t w = 0;
  ASSERT_TRUE(hex.begin_object() && hex.expect_key("rng") &&
              hex.begin_array());
  EXPECT_FALSE(hex.read_hex_u64(&w));
  EXPECT_EQ(hex.error(), "offset 8: field 'rng': expected a \"0x\" hex string");
}

TEST(JsonReader, SkipValueChecksSyntaxWithoutDecoding) {
  const std::string text = sample_document();
  JsonReader r(text);
  EXPECT_TRUE(r.skip_value() && r.finish()) << r.error();
  JsonReader bad(R"({"a":["\q"]})");
  EXPECT_FALSE(bad.skip_value());
  EXPECT_NE(bad.error().find("bad string escape"), std::string::npos);
}

}  // namespace
}  // namespace df::obs
