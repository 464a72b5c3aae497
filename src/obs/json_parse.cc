#include "obs/json_parse.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace df::obs {

bool decode_u64(std::string_view token, uint64_t* out) {
  if (token.empty() || token[0] < '0' || token[0] > '9') return false;
  const char* end = token.data() + token.size();
  const auto res = std::from_chars(token.data(), end, *out, 10);
  return res.ec == std::errc() && res.ptr == end;
}

bool decode_hex_u64(std::string_view text, uint64_t* out) {
  if (text.size() < 3 || text[0] != '0' || text[1] != 'x') return false;
  const std::string_view digits = text.substr(2);
  // from_chars would accept a sign; hex text never carries one.
  if (digits[0] == '-' || digits[0] == '+') return false;
  const char* end = digits.data() + digits.size();
  const auto res = std::from_chars(digits.data(), end, *out, 16);
  return res.ec == std::errc() && res.ptr == end;
}

// --- JsonReader -------------------------------------------------------------

bool JsonReader::fail(const char* what) {
  if (error_.empty()) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "offset %zu: %s", pos_, what);
    error_ = buf;
  }
  return false;
}

bool JsonReader::fail_value(const char* what) {
  if (last_key_.empty()) return fail(what);
  if (error_.empty()) {
    char buf[80];
    std::snprintf(buf, sizeof buf, "offset %zu: field '", pos_);
    error_ = buf;
    error_ += last_key_;
    error_ += "': ";
    error_ += what;
  }
  return false;
}

void JsonReader::skip_ws() {
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
    ++pos_;
  }
}

bool JsonReader::item() {
  if (!ok()) return false;
  if (!need_comma_) return true;
  skip_ws();
  if (pos_ < text_.size() && text_[pos_] == ',') {
    ++pos_;
    need_comma_ = false;
    return true;
  }
  if (depth_ == 0) return fail("trailing garbage after document");
  return fail(closers_[depth_ - 1] == '}' ? "expected ',' or '}' in object"
                                          : "expected ',' or ']' in array");
}

bool JsonReader::open(char c, const char* what) {
  if (!item()) return false;
  skip_ws();
  if (pos_ >= text_.size()) return fail("unexpected end of input");
  if (text_[pos_] != c) return fail_value(what);
  if (depth_ >= kMaxDepth) return fail("nesting too deep");
  closers_[depth_++] = c == '{' ? '}' : ']';
  ++pos_;
  need_comma_ = false;
  return true;
}

bool JsonReader::close(char c, const char* what) {
  if (!ok()) return false;
  skip_ws();
  if (depth_ == 0 || closers_[depth_ - 1] != c || pos_ >= text_.size() ||
      text_[pos_] != c) {
    return fail_value(what);
  }
  ++pos_;
  --depth_;
  need_comma_ = true;
  return true;
}

bool JsonReader::begin_object() { return open('{', "expected an object"); }
bool JsonReader::end_object() {
  return close('}', "expected '}' after the last member");
}
bool JsonReader::begin_array() { return open('[', "expected an array"); }
bool JsonReader::end_array() {
  return close(']', "expected ']' after the last item");
}

bool JsonReader::more() {
  if (!ok() || depth_ == 0) return false;
  skip_ws();
  if (pos_ < text_.size() && text_[pos_] == closers_[depth_ - 1]) {
    return false;
  }
  return item();
}

bool JsonReader::key(std::string_view* out) {
  if (!item()) return false;
  skip_ws();
  if (pos_ >= text_.size() || text_[pos_] != '"') {
    return fail("expected object key string");
  }
  if (!string_token(out, &key_scratch_)) return false;
  skip_ws();
  if (pos_ >= text_.size() || text_[pos_] != ':') {
    return fail("expected ':' after object key");
  }
  ++pos_;
  last_key_ = *out;
  return true;
}

bool JsonReader::key_text_is(std::string_view name) const {
  const size_t close = pos_ + 1 + name.size();
  return close < text_.size() && text_[pos_] == '"' && text_[close] == '"' &&
         text_.compare(pos_ + 1, name.size(), name) == 0;
}

bool JsonReader::take_key(std::string_view name) {
  last_key_ = text_.substr(pos_ + 1, name.size());
  pos_ += name.size() + 2;
  skip_ws();
  if (pos_ >= text_.size() || text_[pos_] != ':') {
    return fail("expected ':' after object key");
  }
  ++pos_;
  return true;
}

bool JsonReader::expect_key(std::string_view name) {
  if (!item()) return false;
  skip_ws();
  if (key_text_is(name)) return take_key(name);
  const size_t at = pos_;
  std::string_view k;
  if (!key(&k)) return false;
  if (k == name) return true;
  pos_ = at;
  std::string what = "expected key '";
  what += name;
  what += "', found '";
  what += k;
  what += "'";
  return fail(what.c_str());
}

bool JsonReader::optional_key(std::string_view name) {
  if (!ok() || depth_ == 0) return false;
  const size_t at = pos_;
  const bool comma = need_comma_;
  skip_ws();
  if (need_comma_) {
    if (pos_ >= text_.size() || text_[pos_] != ',') {
      pos_ = at;
      return false;
    }
    ++pos_;
    need_comma_ = false;
    skip_ws();
  }
  if (key_text_is(name)) return take_key(name);
  // Any other key is left unread; one with escapes may still decode to
  // `name` (decoded into a scratch of its own, so the last key stays
  // intact).
  if (pos_ < text_.size() && text_[pos_] == '"') {
    const size_t key_at = pos_;
    std::string decoded;
    std::string_view k;
    if (!string_token(&k, &decoded)) return false;
    if (k == name) {
      pos_ = key_at;
      return key(&k);
    }
  }
  pos_ = at;
  need_comma_ = comma;
  return false;
}

JsonValue::Kind JsonReader::peek() {
  if (!item()) return JsonValue::Kind::kNull;
  skip_ws();
  if (pos_ >= text_.size()) {
    fail("unexpected end of input");
    return JsonValue::Kind::kNull;
  }
  switch (text_[pos_]) {
    case '{': return JsonValue::Kind::kObject;
    case '[': return JsonValue::Kind::kArray;
    case '"': return JsonValue::Kind::kString;
    case 't':
    case 'f': return JsonValue::Kind::kBool;
    case 'n': return JsonValue::Kind::kNull;
    default: return JsonValue::Kind::kNumber;
  }
}

bool JsonReader::read_string(std::string_view* out) {
  if (!item()) return false;
  skip_ws();
  if (pos_ >= text_.size()) return fail("unexpected end of input");
  if (text_[pos_] != '"') return fail_value("expected a string");
  if (!string_token(out, &str_scratch_)) return false;
  need_comma_ = true;
  return true;
}

bool JsonReader::read_string(std::string* out) {
  std::string_view v;
  if (!read_string(&v)) return false;
  out->assign(v);
  return true;
}

bool JsonReader::read_number(std::string_view* raw) {
  if (!item()) return false;
  skip_ws();
  if (pos_ >= text_.size()) return fail("unexpected end of input");
  if (!number_token(raw)) return fail("expected a value");
  need_comma_ = true;
  return true;
}

bool JsonReader::read_u64(uint64_t* out) {
  if (!item()) return false;
  skip_ws();
  const size_t at = pos_;
  std::string_view raw;
  if (!number_token(&raw) || !decode_u64(raw, out)) {
    pos_ = at;
    return fail_value("expected an unsigned decimal integer");
  }
  need_comma_ = true;
  return true;
}

bool JsonReader::read_hex_u64(uint64_t* out) {
  if (!item()) return false;
  skip_ws();
  const size_t at = pos_;
  std::string_view text;
  if (pos_ >= text_.size() || text_[pos_] != '"' ||
      !string_token(&text, &str_scratch_) || !decode_hex_u64(text, out)) {
    if (!ok()) return false;
    pos_ = at;
    return fail_value("expected a \"0x\" hex string");
  }
  need_comma_ = true;
  return true;
}

bool JsonReader::read_bool(bool* out) {
  if (!item()) return false;
  skip_ws();
  if (literal("true")) {
    *out = true;
  } else if (literal("false")) {
    *out = false;
  } else if (pos_ < text_.size() &&
             (text_[pos_] == 't' || text_[pos_] == 'f')) {
    return fail("bad literal");
  } else {
    return fail_value("expected true or false");
  }
  need_comma_ = true;
  return true;
}

bool JsonReader::read_null() {
  if (!item()) return false;
  skip_ws();
  if (!literal("null")) {
    if (pos_ < text_.size() && text_[pos_] == 'n') return fail("bad literal");
    return fail_value("expected null");
  }
  need_comma_ = true;
  return true;
}

bool JsonReader::skip_value() {
  // One value, walked iteratively with the same token steps the reads
  // use; containers push onto closers_, so the depth limit holds here too.
  if (!item()) return false;
  const int outer = depth_;
  const size_t n = text_.size();
  std::string_view ignored;
  for (;;) {
    // A value starts here.
    skip_ws();
    if (pos_ >= n) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ >= kMaxDepth) return fail("nesting too deep");
      const char closer = c == '{' ? '}' : ']';
      closers_[depth_++] = closer;
      ++pos_;
      skip_ws();
      if (pos_ < n && text_[pos_] == closer) {
        ++pos_;
        --depth_;
      } else if (c == '{') {
        need_comma_ = false;
        if (!key(&ignored)) return false;
        continue;
      } else {
        continue;
      }
    } else if (c == '"') {
      if (!string_token(nullptr, nullptr)) return false;
    } else if (c == 't' || c == 'f' || c == 'n') {
      if (!literal("true") && !literal("false") && !literal("null")) {
        return fail("bad literal");
      }
    } else if (!number_token(&ignored)) {
      return fail("expected a value");
    }
    // A value ended: close finished containers, then find the next value.
    for (;;) {
      if (depth_ == outer) {
        need_comma_ = true;
        return true;
      }
      const char closer = closers_[depth_ - 1];
      skip_ws();
      if (pos_ < n && text_[pos_] == closer) {
        ++pos_;
        --depth_;
        continue;
      }
      if (pos_ >= n || text_[pos_] != ',') {
        return fail(closer == '}' ? "expected ',' or '}' in object"
                                  : "expected ',' or ']' in array");
      }
      ++pos_;
      if (closer == '}') {
        need_comma_ = false;
        if (!key(&ignored)) return false;
      }
      break;
    }
  }
}

bool JsonReader::finish() {
  if (!ok()) return false;
  skip_ws();
  if (pos_ != text_.size()) return fail("trailing garbage after document");
  return true;
}

bool JsonReader::literal(std::string_view word) {
  if (text_.substr(pos_, word.size()) != word) return false;
  pos_ += word.size();
  return true;
}

bool JsonReader::number_token(std::string_view* raw) {
  const size_t start = pos_;
  const size_t n = text_.size();
  const auto digit = [&] {
    return pos_ < n && text_[pos_] >= '0' && text_[pos_] <= '9';
  };
  if (pos_ < n && text_[pos_] == '-') ++pos_;
  const size_t digits = pos_;
  while (digit()) ++pos_;
  if (pos_ == digits) {
    pos_ = start;
    return false;
  }
  if (pos_ < n && text_[pos_] == '.') {
    ++pos_;
    while (digit()) ++pos_;
  }
  if (pos_ < n && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    ++pos_;
    if (pos_ < n && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
    while (digit()) ++pos_;
  }
  *raw = text_.substr(start, pos_ - start);
  return true;
}

bool JsonReader::hex4(uint32_t* out) {
  if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
  *out = 0;
  for (int i = 0; i < 4; ++i) {
    const char c = text_[pos_++];
    uint32_t d;
    if (c >= '0' && c <= '9') {
      d = static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      d = static_cast<uint32_t>(c - 'a') + 10;
    } else if (c >= 'A' && c <= 'F') {
      d = static_cast<uint32_t>(c - 'A') + 10;
    } else {
      return fail("bad \\u escape digit");
    }
    *out = *out * 16 + d;
  }
  return true;
}

namespace {

// BMP-only UTF-8 encode; the writer only emits \u for control characters,
// so surrogate pairs never occur in well-formed documents.
void append_utf8(std::string& out, uint32_t cp) {
  if (cp < 0x80) {
    out.push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
  } else {
    out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
  }
}

}  // namespace

bool JsonReader::string_token(std::string_view* out, std::string* scratch) {
  const size_t n = text_.size();
  const char* base = text_.data();
  const size_t start = ++pos_;  // past the opening quote
  // Most strings are short: scan those byte by byte, longer ones with
  // memchr. Either way, a string without a backslash is returned as a view.
  size_t end = start;
  const size_t short_end = std::min(n, start + 32);
  while (end < short_end && base[end] != '"' && base[end] != '\\') ++end;
  if (end == short_end && end < n) {
    const auto* quote =
        static_cast<const char*>(std::memchr(base + end, '"', n - end));
    const size_t q = quote == nullptr ? n : static_cast<size_t>(quote - base);
    const auto* slash =
        static_cast<const char*>(std::memchr(base + end, '\\', q - end));
    end = slash == nullptr ? q : static_cast<size_t>(slash - base);
  }
  if (end >= n) {
    pos_ = n;
    return fail("unterminated string");
  }
  if (base[end] == '"') {
    if (out != nullptr) *out = text_.substr(start, end - start);
    pos_ = end + 1;
    return true;
  }

  // Escapes present: decode run by run into `scratch` (or only check them
  // when the caller skips the value).
  if (scratch != nullptr) scratch->assign(base + start, end - start);
  pos_ = end;
  size_t run = end;
  while (pos_ < n) {
    const char c = text_[pos_];
    if (c != '"' && c != '\\') {
      ++pos_;
      continue;
    }
    if (scratch != nullptr) scratch->append(base + run, pos_ - run);
    ++pos_;
    if (c == '"') {
      if (out != nullptr && scratch != nullptr) *out = *scratch;
      return true;
    }
    if (pos_ >= n) break;
    const char esc = text_[pos_++];
    char decoded = 0;
    switch (esc) {
      case '"': decoded = '"'; break;
      case '\\': decoded = '\\'; break;
      case '/': decoded = '/'; break;
      case 'b': decoded = '\b'; break;
      case 'f': decoded = '\f'; break;
      case 'n': decoded = '\n'; break;
      case 'r': decoded = '\r'; break;
      case 't': decoded = '\t'; break;
      case 'u': {
        uint32_t cp = 0;
        if (!hex4(&cp)) return false;
        if (scratch != nullptr) append_utf8(*scratch, cp);
        run = pos_;
        continue;
      }
      default:
        return fail("bad string escape");
    }
    if (scratch != nullptr) scratch->push_back(decoded);
    run = pos_;
  }
  return fail("unterminated string");
}

// --- JsonValue --------------------------------------------------------------

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool JsonValue::to_u64(uint64_t* out) const {
  if (kind == Kind::kNumber) return decode_u64(scalar, out);
  if (kind == Kind::kString) return decode_hex_u64(scalar, out);
  return false;
}

uint64_t JsonValue::as_u64() const {
  uint64_t v = 0;
  return to_u64(&v) ? v : 0;
}

double JsonValue::as_double() const {
  if (kind != Kind::kNumber && kind != Kind::kString) return 0.0;
  return std::strtod(scalar.c_str(), nullptr);
}

// --- json_parse -------------------------------------------------------------

namespace {

bool build(JsonReader& r, JsonValue& out) {
  out.kind = r.peek();
  switch (out.kind) {
    case JsonValue::Kind::kObject: {
      if (!r.begin_object()) return false;
      std::string_view key;
      while (r.more()) {
        if (!r.key(&key)) return false;
        out.members.emplace_back(std::string(key), JsonValue{});
        if (!build(r, out.members.back().second)) return false;
      }
      return r.end_object();
    }
    case JsonValue::Kind::kArray:
      if (!r.begin_array()) return false;
      while (r.more()) {
        out.items.emplace_back();
        if (!build(r, out.items.back())) return false;
      }
      return r.end_array();
    case JsonValue::Kind::kString: {
      std::string_view s;
      if (!r.read_string(&s)) return false;
      out.scalar.assign(s);
      return true;
    }
    case JsonValue::Kind::kNumber: {
      std::string_view raw;
      if (!r.read_number(&raw)) return false;
      out.scalar.assign(raw);
      return true;
    }
    case JsonValue::Kind::kBool:
      return r.read_bool(&out.boolean);
    case JsonValue::Kind::kNull:
      return r.read_null();
  }
  return false;
}

}  // namespace

std::optional<JsonValue> json_parse(std::string_view text,
                                    std::string* error) {
  if (error != nullptr) error->clear();
  JsonReader r(text);
  JsonValue v;
  if (!build(r, v) || !r.finish()) {
    if (error != nullptr) *error = r.error();
    return std::nullopt;
  }
  return v;
}

}  // namespace df::obs
