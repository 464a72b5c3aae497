// Minimal JSON emitter for the observability layer: trace events (JSONL),
// metric snapshots, and campaign stats export. Emission only — the repo has
// no JSON consumer; scripts/check_bench_json.py validates the output.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace df::obs {

// Streaming writer with container bookkeeping (commas, key/value pairing).
// Misuse (value without key inside an object, unbalanced end) is a logic
// error; the writer keeps going and the checker script flags the result.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(const std::string& s) {
    return value(std::string_view(s));
  }
  JsonWriter& value(uint64_t v);
  JsonWriter& value(int64_t v);
  JsonWriter& value(uint32_t v) { return value(static_cast<uint64_t>(v)); }
  JsonWriter& value(int v) { return value(static_cast<int64_t>(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(bool v);

  // Inserts `json` verbatim as the next value (caller guarantees it is a
  // well-formed JSON document, e.g. TraceSink::to_json output).
  JsonWriter& raw(std::string_view json);

  // key + value in one call.
  template <typename T>
  JsonWriter& field(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }

  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void before_item();

  std::string out_;
  std::vector<bool> first_in_container_;
  bool after_key_ = false;
};

}  // namespace df::obs
