// Tests for the shared minimal JSON writer (support/json.h): escaping,
// object/array sequencing, pretty/compact forms, and the strictness of
// the parser the other JSON tests check documents with.
#include "support/json.h"

#include <gtest/gtest.h>

namespace fsopt {
namespace {

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(json::escape("hello world_42"), "hello world_42");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json::escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(json::escape(std::string_view("\x01\x1f", 2)),
            "\\u0001\\u001f");
}

TEST(JsonEscape, LeavesUtf8BytesAlone) {
  EXPECT_EQ(json::escape("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(JsonWriter, CompactObject) {
  std::string out;
  json::Writer w(&out);
  w.begin_object()
      .key("name").value("shard")
      .key("n").value(static_cast<i64>(-3))
      .key("u").value(u64{18446744073709551615ull})
      .key("ok").value(true)
      .key("x").value(0.5)
      .end_object();
  EXPECT_TRUE(w.done());
  EXPECT_EQ(out,
            "{\"name\":\"shard\",\"n\":-3,\"u\":18446744073709551615,"
            "\"ok\":true,\"x\":0.5}");
  EXPECT_TRUE(json::parse(out).has_value());
}

TEST(JsonWriter, PrettyNestedStructure) {
  std::string out;
  json::Writer w(&out, 2);
  w.begin_object()
      .key("rows").begin_array()
      .begin_object().key("a").value(1.0).end_object()
      .begin_object().key("b").null().end_object()
      .end_array()
      .key("empty").begin_array().end_array()
      .end_object();
  EXPECT_TRUE(w.done());
  EXPECT_TRUE(json::parse(out).has_value());
  EXPECT_NE(out.find("\"rows\": [\n"), std::string::npos);
  EXPECT_NE(out.find("\"empty\": []"), std::string::npos);
}

TEST(JsonWriter, ExplicitDoubleFormat) {
  std::string out;
  json::Writer w(&out);
  w.begin_array().value(0.123456789123, "%.3f").end_array();
  EXPECT_EQ(out, "[0.123]");
}

TEST(JsonWriter, NonFiniteBecomesNull) {
  std::string out;
  json::Writer w(&out);
  w.begin_array()
      .value(std::nan(""))
      .value(std::numeric_limits<double>::infinity())
      .end_array();
  EXPECT_EQ(out, "[null,null]");
  EXPECT_TRUE(json::parse(out).has_value());
}

TEST(JsonWriter, EscapesKeysAndStringValues) {
  std::string out;
  json::Writer w(&out);
  w.begin_object().key("we\"ird").value("line\nbreak").end_object();
  EXPECT_EQ(out, "{\"we\\\"ird\":\"line\\nbreak\"}");
  EXPECT_TRUE(json::parse(out).has_value());
}

TEST(JsonParse, AcceptsWellFormedDocuments) {
  for (const char* doc :
       {"{}", "[]", "  [1, -2.5, 1e9, \"x\", true, null]  ",
        "{\"a\": {\"b\": [{}, [\"\\u00e9\"]]}}", "3.25", "\"lone string\""})
    EXPECT_TRUE(json::parse(doc).has_value()) << doc;
}

TEST(JsonParse, RejectsMalformedDocuments) {
  for (const char* doc : {
           "", "{", "{\"a\":}", "[1,]", "{\"a\":1,}", "{} trailing",
           "\"unterminated", "{'a':1}",
           "[01]",       // leading zero
           "[1.]",       // empty fraction
           "[NaN]",
           "[\"\\x\"]",  // bad escape
           "{1: 2}",     // non-string key
       })
    EXPECT_FALSE(json::parse(doc).has_value()) << doc;
}

}  // namespace
}  // namespace fsopt
