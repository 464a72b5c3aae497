// The read side of obs::JsonWriter, in two forms over one lexer:
//
//  - JsonReader pulls one document in the order the caller expects: begin
//    and end of objects and arrays, an expected member key, strict u64 and
//    "0x" hex-u64 reads, and strings as views into the text (decoded into a
//    scratch buffer only when they hold escapes). Checkpoint restore
//    (core/fuzz/checkpoint.h) reads its documents this way, with no tree in
//    between.
//  - json_parse builds a JsonValue tree through that reader, for callers
//    that look members up by name (job specs, the service manifest, tests).
//    Numbers keep their *raw token* in `scalar` — callers decode with the
//    width they expect — and object member order is preserved.
//
// Corrupted or truncated input is rejected with a position-tagged
// "offset N: what went wrong" message, never a crash.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace df::obs {

// The one strict unsigned decoder behind every u64 read of untrusted JSON.
// decode_u64 takes a whole decimal token: digits only, so no sign, fraction
// or exponent. decode_hex_u64 takes "0x" followed by hex digits only. Both
// reject an empty digit run and any value above 2^64-1.
bool decode_u64(std::string_view token, uint64_t* out);
bool decode_hex_u64(std::string_view text, uint64_t* out);

struct JsonValue {
  enum class Kind : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string scalar;  // raw token for numbers, decoded text for strings
  std::vector<JsonValue> items;                              // kArray
  std::vector<std::pair<std::string, JsonValue>> members;    // kObject

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }

  // First member with `key`, or nullptr. Object-kind only.
  const JsonValue* find(std::string_view key) const;

  // Strict u64 (decode_u64 on a number, decode_hex_u64 on a "0x..."
  // string); false on any other kind or token.
  bool to_u64(uint64_t* out) const;
  // to_u64, or 0 when that fails.
  uint64_t as_u64() const;
  // strtod on the token; 0.0 on kind mismatch.
  double as_double() const;
};

class JsonReader {
 public:
  static constexpr int kMaxDepth = 64;  // nested objects + arrays

  explicit JsonReader(std::string_view text) : text_(text) {}

  bool begin_object();
  bool end_object();
  bool begin_array();
  bool end_array();
  // Inside an object or array: true when another member or item follows
  // (the separating comma is consumed), false at the closing bracket or
  // after an error.
  bool more();

  // The next member's key (and its ':'). The view stays valid until the
  // next key is read.
  bool key(std::string_view* out);
  // The next member's key must be `name`; otherwise the reader fails with
  // "expected key 'name'".
  bool expect_key(std::string_view name);
  // Consumes the next member's key and ':' only when the key is `name`;
  // otherwise consumes nothing and returns false.
  bool optional_key(std::string_view name);

  // Kind of the next value (kNumber for anything that is not another
  // kind; reading it then fails with "expected a value").
  JsonValue::Kind peek();
  // The view stays valid until the next string is read.
  bool read_string(std::string_view* out);
  bool read_string(std::string* out);
  bool read_number(std::string_view* raw);
  bool read_u64(uint64_t* out);      // decimal number token, decode_u64
  bool read_hex_u64(uint64_t* out);  // string value, decode_hex_u64
  bool read_bool(bool* out);
  bool read_null();
  // Checks the next value's syntax and moves past it.
  bool skip_value();
  // Only whitespace may follow.
  bool finish();

  bool ok() const { return error_.empty(); }
  // "offset N: what", naming the last key read when a value of the wrong
  // kind or form follows it. Empty while ok().
  const std::string& error() const { return error_; }

 private:
  bool fail(const char* what);
  bool fail_value(const char* what);
  void skip_ws();
  // Consumes the comma due before the next item, if one is due.
  bool item();
  // Moves past the closing quote of the string opening at pos_; when
  // `out` is given the decoded text is stored there (a view into the
  // text when nothing was escaped, else into `scratch`).
  bool string_token(std::string_view* out, std::string* scratch);
  bool hex4(uint32_t* out);
  bool number_token(std::string_view* raw);
  bool literal(std::string_view word);
  // Whether the text at pos_ is `name` as an unescaped key string.
  bool key_text_is(std::string_view name) const;
  // Consumes that key string and its ':'.
  bool take_key(std::string_view name);
  bool open(char c, const char* what);
  bool close(char c, const char* what);

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
  char closers_[kMaxDepth] = {};  // '}' or ']' per open container
  // A comma is due before the next item of the innermost container.
  bool need_comma_ = false;
  std::string_view last_key_;  // into the text, or into key_scratch_
  std::string key_scratch_;
  std::string str_scratch_;
  std::string error_;
};

// Parses one JSON document (trailing whitespace allowed, trailing garbage
// rejected). Returns nullopt and fills `error` (if non-null) with the
// reader's "offset N: what went wrong" message on malformed input.
std::optional<JsonValue> json_parse(std::string_view text, std::string* error);

}  // namespace df::obs
