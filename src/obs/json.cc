#include "obs/json.h"

#include <cstdio>

namespace df::obs {

namespace {

// Appends `s` escaped for a JSON string literal to `out` (quotes not
// included). Control characters become \uXXXX. Runs of characters that
// need no escape are appended in one piece.
void append_escaped(std::string& out, std::string_view s) {
  size_t run = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
        out += buf;
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
}

}  // namespace

void JsonWriter::before_item() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_in_container_.empty()) {
    if (!first_in_container_.back()) out_ += ',';
    first_in_container_.back() = false;
  }
}

JsonWriter& JsonWriter::begin_object() {
  before_item();
  out_ += '{';
  first_in_container_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  if (!first_in_container_.empty()) first_in_container_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_item();
  out_ += '[';
  first_in_container_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  if (!first_in_container_.empty()) first_in_container_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  before_item();
  out_ += '"';
  append_escaped(out_, k);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  before_item();
  out_ += '"';
  append_escaped(out_, s);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(uint64_t v) {
  before_item();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(int64_t v) {
  before_item();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_item();
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  before_item();
  out_ += json;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_item();
  out_ += v ? "true" : "false";
  return *this;
}

}  // namespace df::obs
