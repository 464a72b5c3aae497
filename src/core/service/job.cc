#include "core/service/job.h"

#include <charconv>
#include <set>

#include "device/catalog.h"
#include "obs/json.h"
#include "obs/json_parse.h"

namespace df::core {

namespace {

bool known_device(const std::string& id) {
  for (const auto& spec : device::device_table()) {
    if (spec.id == id) return true;
  }
  return false;
}

// Counts are decimal numbers decoded strictly: a sign, a fraction, an
// exponent or a value past 2^64-1 is an error naming the field, not a
// wrapped or truncated count. The only double in a spec is fault_rate,
// written in shortest round-trip form so it survives exactly.
bool read_u64(const obs::JsonValue& v, const char* key, uint64_t* out,
              std::string* error, const char* what = "job spec") {
  if (!v.is_number() || !obs::decode_u64(v.scalar, out)) {
    *error = std::string(what) + ": \"" + key +
             "\" must be an unsigned integer";
    return false;
  }
  return true;
}

}  // namespace

bool JobSpec::validate(std::string* error) const {
  if (devices.empty()) {
    *error = "job spec: \"devices\" must name at least one device";
    return false;
  }
  std::set<std::string> seen;
  for (const auto& id : devices) {
    if (!known_device(id)) {
      *error = "job spec: unknown device \"" + id + "\"";
      return false;
    }
    if (!seen.insert(id).second) {
      *error = "job spec: duplicate device \"" + id + "\"";
      return false;
    }
  }
  if (budget == 0) {
    *error = "job spec: \"budget\" must be > 0";
    return false;
  }
  if (slice == 0 || sample_every == 0 || checkpoint_every == 0) {
    *error = "job spec: slice/sample_every/checkpoint_every must be > 0";
    return false;
  }
  // Preemption happens at checkpoint barriers; those barriers must land
  // exactly on the sampling grid of the uninterrupted run, or the resumed
  // stats series would diverge (service.h, determinism contract).
  if (sample_every % slice != 0) {
    *error = "job spec: sample_every must be a multiple of slice";
    return false;
  }
  if (checkpoint_every % sample_every != 0) {
    *error = "job spec: checkpoint_every must be a multiple of sample_every";
    return false;
  }
  if (fault_rate < 0.0 || fault_rate > 1.0) {
    *error = "job spec: fault_rate must be in [0, 1]";
    return false;
  }
  return true;
}

void JobSpec::write_json(obs::JsonWriter& w) const {
  w.begin_object();
  w.field("name", name);
  w.key("devices").begin_array();
  for (const auto& id : devices) w.value(id);
  w.end_array();
  w.field("seed", seed);
  w.field("budget", budget);
  w.field("priority", priority);
  w.field("slice", slice);
  w.field("sample_every", sample_every);
  w.field("checkpoint_every", checkpoint_every);
  // Shortest round-trip text, not JsonWriter's %.6g: the manifest carries
  // this spec across a restart, and the resumed job must run (and report)
  // the rate it was submitted with.
  char buf[32];
  const char* end = std::to_chars(buf, buf + sizeof buf, fault_rate).ptr;
  w.key("fault_rate").raw(std::string_view(buf, end - buf));
  w.end_object();
}

std::string JobSpec::to_json() const {
  obs::JsonWriter w;
  write_json(w);
  return w.take();
}

bool JobSpec::from_value(const obs::JsonValue& v, JobSpec* out,
                         std::string* error) {
  if (!v.is_object()) {
    *error = "job spec: document must be a JSON object";
    return false;
  }
  JobSpec spec;
  for (const auto& [key, val] : v.members) {
    if (key == "name") {
      if (!val.is_string()) {
        *error = "job spec: \"name\" must be a string";
        return false;
      }
      spec.name = val.scalar;
    } else if (key == "devices") {
      if (!val.is_array()) {
        *error = "job spec: \"devices\" must be an array of device ids";
        return false;
      }
      for (const auto& item : val.items) {
        if (!item.is_string()) {
          *error = "job spec: \"devices\" entries must be strings";
          return false;
        }
        spec.devices.push_back(item.scalar);
      }
    } else if (key == "seed") {
      if (!read_u64(val, "seed", &spec.seed, error)) return false;
    } else if (key == "budget") {
      if (!read_u64(val, "budget", &spec.budget, error)) return false;
    } else if (key == "priority") {
      if (!read_u64(val, "priority", &spec.priority, error)) return false;
    } else if (key == "slice") {
      if (!read_u64(val, "slice", &spec.slice, error)) return false;
    } else if (key == "sample_every") {
      if (!read_u64(val, "sample_every", &spec.sample_every, error)) {
        return false;
      }
    } else if (key == "checkpoint_every") {
      if (!read_u64(val, "checkpoint_every", &spec.checkpoint_every, error)) {
        return false;
      }
    } else if (key == "fault_rate") {
      if (!val.is_number()) {
        *error = "job spec: \"fault_rate\" must be a number";
        return false;
      }
      spec.fault_rate = val.as_double();
    } else {
      *error = "job spec: unknown key \"" + key + "\"";
      return false;
    }
  }
  if (!spec.validate(error)) return false;
  *out = std::move(spec);
  return true;
}

bool JobSpec::from_json(const std::string& text, JobSpec* out,
                        std::string* error) {
  const auto doc = obs::json_parse(text, error);
  if (!doc.has_value()) {
    *error = "job spec: " + *error;
    return false;
  }
  return from_value(*doc, out, error);
}

std::string_view to_string(JobState s) {
  switch (s) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kPaused:
      return "paused";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

bool job_state_from_string(std::string_view s, JobState* out) {
  for (const JobState state :
       {JobState::kQueued, JobState::kRunning, JobState::kPaused,
        JobState::kDone, JobState::kFailed, JobState::kCancelled}) {
    if (s == to_string(state)) {
      *out = state;
      return true;
    }
  }
  return false;
}

void JobRecord::write_json(obs::JsonWriter& w, bool include_result) const {
  w.begin_object();
  w.field("id", id);
  w.field("state", to_string(state));
  w.key("spec");
  spec.write_json(w);
  w.field("progress", progress);
  w.field("preemptions", preemptions);
  w.field("wait_ticks", wait_ticks);
  w.field("pause_requested", pause_requested);
  w.field("cancel_requested", cancel_requested);
  if (include_result) {
    w.field("error", error);
    if (!result.empty()) {
      w.key("result").raw(result);
    }
  }
  w.end_object();
}

bool JobRecord::from_value(const obs::JsonValue& v, JobRecord* out,
                           std::string* error) {
  if (!v.is_object()) {
    *error = "job record: entry must be a JSON object";
    return false;
  }
  JobRecord rec;
  const obs::JsonValue* id = v.find("id");
  const obs::JsonValue* state = v.find("state");
  const obs::JsonValue* spec = v.find("spec");
  if (id == nullptr || state == nullptr || !state->is_string() ||
      spec == nullptr) {
    *error = "job record: missing id/state/spec";
    return false;
  }
  if (!read_u64(*id, "id", &rec.id, error, "job record")) return false;
  if (!job_state_from_string(state->scalar, &rec.state)) {
    *error = "job record: unknown state \"" + state->scalar + "\"";
    return false;
  }
  if (!JobSpec::from_value(*spec, &rec.spec, error)) return false;
  for (const auto& [key, field] :
       {std::pair{"progress", &rec.progress},
        std::pair{"preemptions", &rec.preemptions},
        std::pair{"wait_ticks", &rec.wait_ticks}}) {
    const auto* p = v.find(key);
    if (p != nullptr && !read_u64(*p, key, field, error, "job record")) {
      return false;
    }
  }
  for (const auto& [key, field] :
       {std::pair{"pause_requested", &rec.pause_requested},
        std::pair{"cancel_requested", &rec.cancel_requested}}) {
    const auto* p = v.find(key);
    if (p == nullptr) continue;
    if (p->kind != obs::JsonValue::Kind::kBool) {
      *error = std::string("job record: \"") + key + "\" must be a bool";
      return false;
    }
    *field = p->boolean;
  }
  if (const auto* p = v.find("error"); p != nullptr) {
    if (!p->is_string()) {
      *error = "job record: \"error\" must be a string";
      return false;
    }
    rec.error = p->scalar;
  }
  if (const auto* p = v.find("result"); p != nullptr) {
    if (!p->is_object()) {
      *error = "job record: \"result\" must be an object";
      return false;
    }
    obs::JsonWriter w;
    // Round-trip the result document through the writer to restore the
    // serialized form (raw re-emission keeps it byte-stable because the
    // service always writes it with the same writer).
    auto emit = [&](const obs::JsonValue& node, auto&& self) -> void {
      switch (node.kind) {
        case obs::JsonValue::Kind::kObject: {
          w.begin_object();
          for (const auto& [k, item] : node.members) {
            w.key(k);
            self(item, self);
          }
          w.end_object();
          break;
        }
        case obs::JsonValue::Kind::kArray: {
          w.begin_array();
          for (const auto& item : node.items) self(item, self);
          w.end_array();
          break;
        }
        case obs::JsonValue::Kind::kString:
          w.value(node.scalar);
          break;
        case obs::JsonValue::Kind::kNumber:
          w.raw(node.scalar);
          break;
        case obs::JsonValue::Kind::kBool:
          w.value(node.boolean);
          break;
        case obs::JsonValue::Kind::kNull:
          w.raw("null");
          break;
      }
    };
    emit(*p, emit);
    rec.result = w.take();
  }
  *out = std::move(rec);
  return true;
}

}  // namespace df::core
