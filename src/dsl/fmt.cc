#include "dsl/fmt.h"

#include "util/hex.h"

namespace df::dsl {

namespace {

// The description of an argument past the call's arity: a default
// (scalar-kind) parameter, bound by reference so no argument copies one.
const ParamDesc kNoParam{};

void append_bytes(std::string& out, const std::vector<uint8_t>& bytes) {
  out += "blob\"";
  util::append_hex_bytes(out, bytes.data(), bytes.size());
  out += '"';
}

// Appends call `idx` (which must exist) without a trailing newline.
void append_call(std::string& out, const Program& p, size_t idx) {
  const Call& c = p.calls[idx];
  if (c.desc == nullptr) {
    out += "<null>";
    return;
  }
  if (!c.desc->produces.empty()) {
    out += 'r';
    out += std::to_string(idx);
    out += " = ";
  }
  out += c.desc->name;
  out += '(';
  const std::vector<ParamDesc>& params = c.desc->params;
  for (size_t a = 0; a < c.args.size(); ++a) {
    if (a > 0) out += ", ";
    const ParamDesc& pd = a < params.size() ? params[a] : kNoParam;
    const Value& v = c.args[a];
    switch (pd.kind) {
      case ArgKind::kHandle:
        if (v.ref == Value::kNoRef) {
          out += "nil";
        } else {
          out += 'r';
          out += std::to_string(v.ref);
        }
        break;
      case ArgKind::kString:
      case ArgKind::kBlob:
        append_bytes(out, v.bytes);
        break;
      default:
        util::append_hex_u64(out, v.scalar);
        break;
    }
  }
  out += ')';
}

}  // namespace

std::string format_call(const Program& p, size_t idx) {
  std::string out;
  if (idx < p.calls.size()) append_call(out, p, idx);
  return out;
}

std::string format_program(const Program& p) {
  std::string out;
  for (size_t i = 0; i < p.calls.size(); ++i) {
    append_call(out, p, i);
    out += '\n';
  }
  return out;
}

}  // namespace df::dsl
