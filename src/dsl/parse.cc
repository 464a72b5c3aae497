#include "dsl/parse.h"

#include <cctype>
#include <charconv>

#include "util/hex.h"

namespace df::dsl {

namespace {

struct Cursor {
  std::string_view s;
  size_t pos = 0;

  bool eof() const { return pos >= s.size(); }
  char peek() const { return eof() ? '\0' : s[pos]; }
  void skip_ws() {
    while (!eof() && (s[pos] == ' ' || s[pos] == '\t')) ++pos;
  }
  bool consume(char c) {
    skip_ws();
    if (peek() != c) return false;
    ++pos;
    return true;
  }
  std::string_view ident() {
    skip_ws();
    const size_t start = pos;
    while (!eof() &&
           (std::isalnum(static_cast<unsigned char>(s[pos])) != 0 ||
            s[pos] == '_' || s[pos] == '$' || s[pos] == '.')) {
      ++pos;
    }
    return s.substr(start, pos - start);
  }
};

bool parse_hex_u64(Cursor& c, uint64_t& out) {
  c.skip_ws();
  size_t start = c.pos;
  if (c.s.substr(c.pos).starts_with("0x")) c.pos += 2;
  const size_t digits = c.pos;
  while (!c.eof() &&
         std::isxdigit(static_cast<unsigned char>(c.s[c.pos])) != 0) {
    ++c.pos;
  }
  if (c.pos == digits) {
    c.pos = start;
    return false;
  }
  const auto sub = c.s.substr(digits, c.pos - digits);
  const auto res =
      std::from_chars(sub.data(), sub.data() + sub.size(), out, 16);
  return res.ec == std::errc();
}

bool parse_blob(Cursor& c, std::vector<uint8_t>& out) {
  // At "blob\"hex...\"" with `blob` already consumed by ident().
  if (!c.consume('"')) return false;
  out.clear();
  while (!c.eof() && c.peek() != '"') {
    const int hi = util::hex_value(c.s[c.pos]);
    if (hi < 0 || c.pos + 1 >= c.s.size()) return false;
    const int lo = util::hex_value(c.s[c.pos + 1]);
    if (lo < 0) return false;
    out.push_back(static_cast<uint8_t>(hi * 16 + lo));
    c.pos += 2;
  }
  return c.consume('"');
}

}  // namespace

std::optional<Program> parse_program(std::string_view text,
                                     const CallTable& table,
                                     std::string* err) {
  auto fail = [&](std::string msg) -> std::optional<Program> {
    if (err != nullptr) *err = std::move(msg);
    return std::nullopt;
  };

  Program prog;
  size_t line_no = 0;
  size_t begin = 0;
  while (begin <= text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(begin, end - begin);
    begin = end + 1;
    ++line_no;
    // Strip comments and blank lines.
    if (const size_t hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    Cursor c{line, 0};
    c.skip_ws();
    if (c.eof()) {
      if (begin > text.size()) break;
      continue;
    }

    // Optional "rN = " prefix.
    const size_t mark = c.pos;
    std::string_view first = c.ident();
    if (!first.empty() && first[0] == 'r' && c.consume('=')) {
      // prefix consumed; fall through to the call name
    } else {
      c.pos = mark;
    }
    const std::string_view name = c.ident();
    const CallDesc* desc = table.find(name);
    if (desc == nullptr) {
      return fail("line " + std::to_string(line_no) + ": unknown call '" +
                  std::string(name) + "'");
    }
    if (!c.consume('(')) {
      return fail("line " + std::to_string(line_no) + ": expected '('");
    }

    Call call;
    call.desc = desc;
    for (size_t a = 0; a < desc->params.size(); ++a) {
      if (a > 0 && !c.consume(',')) {
        return fail("line " + std::to_string(line_no) + ": expected ','");
      }
      c.skip_ws();
      const ParamDesc& p = desc->params[a];
      Value v;
      switch (p.kind) {
        case ArgKind::kHandle: {
          const std::string_view tok = c.ident();
          if (tok == "nil") {
            v.ref = Value::kNoRef;
          } else if (!tok.empty() && tok[0] == 'r') {
            uint64_t idx = 0;
            const auto sub = tok.substr(1);
            if (std::from_chars(sub.data(), sub.data() + sub.size(), idx)
                    .ec != std::errc()) {
              return fail("line " + std::to_string(line_no) + ": bad ref");
            }
            v.ref = static_cast<int32_t>(idx);
          } else {
            return fail("line " + std::to_string(line_no) +
                        ": expected ref or nil");
          }
          break;
        }
        case ArgKind::kString:
        case ArgKind::kBlob: {
          const std::string_view tok = c.ident();
          if (tok != "blob" || !parse_blob(c, v.bytes)) {
            return fail("line " + std::to_string(line_no) + ": bad blob");
          }
          break;
        }
        default:
          if (!parse_hex_u64(c, v.scalar)) {
            return fail("line " + std::to_string(line_no) + ": bad scalar");
          }
          break;
      }
      call.args.push_back(std::move(v));
    }
    if (!c.consume(')')) {
      return fail("line " + std::to_string(line_no) + ": expected ')'");
    }
    prog.calls.push_back(std::move(call));
  }

  if (!prog.valid()) {
    // Refs may legitimately point at later lines only in corrupt corpora.
    prog.repair_refs();
    if (!prog.valid()) return fail("structural validation failed");
  }
  return prog;
}

}  // namespace df::dsl
