// Round-trip tests for the textual program form.
#include <gtest/gtest.h>

#include <cstdio>

#include "dsl/fmt.h"
#include "dsl/parse.h"

namespace df::dsl {
namespace {

class FmtParseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CallDesc open;
    open.name = "openat$rt1711";
    open.produces = "fd_rt1711";
    open_ = table_.add(std::move(open));

    CallDesc attach;
    attach.name = "ioctl$RT1711_ATTACH";
    ParamDesc fd;
    fd.kind = ArgKind::kHandle;
    fd.handle_type = "fd_rt1711";
    ParamDesc mode;
    mode.kind = ArgKind::kEnum;
    mode.choices = {1, 2, 3};
    attach.params = {fd, mode};
    attach_ = table_.add(std::move(attach));

    CallDesc write;
    write.name = "write$pcm";
    ParamDesc blob;
    blob.kind = ArgKind::kBlob;
    blob.max_len = 64;
    write.params = {fd, blob};
    write_ = table_.add(std::move(write));
  }

  CallTable table_;
  const CallDesc* open_ = nullptr;
  const CallDesc* attach_ = nullptr;
  const CallDesc* write_ = nullptr;
};

TEST_F(FmtParseTest, FormatBasicProgram) {
  Program p;
  Call c0;
  c0.desc = open_;
  p.calls.push_back(c0);
  Call c1;
  c1.desc = attach_;
  Value fd;
  fd.ref = 0;
  Value mode;
  mode.scalar = 2;
  c1.args = {fd, mode};
  p.calls.push_back(c1);

  EXPECT_EQ(format_program(p),
            "r0 = openat$rt1711()\n"
            "ioctl$RT1711_ATTACH(r0, 0x2)\n");
}

TEST_F(FmtParseTest, FormatsNilAndBlob) {
  Program p;
  Call c;
  c.desc = write_;
  Value fd;  // unresolved
  Value blob;
  blob.bytes = {0xde, 0xad};
  c.args = {fd, blob};
  p.calls.push_back(c);
  EXPECT_EQ(format_program(p), "write$pcm(nil, blob\"dead\")\n");

  // Every byte value, both ends of the scalar range, and an argument past
  // the description's arity (formatted as a scalar).
  Program q;
  Call all;
  all.desc = write_;
  Value bytes;
  std::string want_hex;
  for (int b = 0; b < 256; ++b) {
    bytes.bytes.push_back(static_cast<uint8_t>(b));
    char buf[3];
    std::snprintf(buf, sizeof buf, "%02x", b);
    want_hex += buf;
  }
  Value past_arity;
  past_arity.scalar = UINT64_MAX;
  all.args = {fd, bytes, past_arity};
  q.calls.push_back(all);
  Call zero;
  zero.desc = attach_;
  Value zero_mode;
  zero_mode.scalar = 0;
  zero.args = {fd, zero_mode};
  q.calls.push_back(zero);
  EXPECT_EQ(format_program(q), "write$pcm(nil, blob\"" + want_hex +
                                   "\", 0xffffffffffffffff)\n"
                                   "ioctl$RT1711_ATTACH(nil, 0x0)\n");
  EXPECT_EQ(format_call(q, 1), "ioctl$RT1711_ATTACH(nil, 0x0)");
  EXPECT_EQ(format_call(q, 2), "");
}

TEST_F(FmtParseTest, ParseRoundTrip) {
  const std::string text =
      "r0 = openat$rt1711()\n"
      "ioctl$RT1711_ATTACH(r0, 0x3)\n"
      "write$pcm(r0, blob\"0011ff\")\n";
  std::string err;
  auto p = parse_program(text, table_, &err);
  ASSERT_TRUE(p.has_value()) << err;
  ASSERT_EQ(p->calls.size(), 3u);
  EXPECT_EQ(p->calls[1].args[1].scalar, 3u);
  EXPECT_EQ(p->calls[2].args[1].bytes,
            (std::vector<uint8_t>{0x00, 0x11, 0xff}));
  EXPECT_EQ(format_program(*p), text);
}

TEST_F(FmtParseTest, FormatParseFormatIsStable) {
  Program p;
  Call c0;
  c0.desc = open_;
  p.calls.push_back(c0);
  Call c1;
  c1.desc = write_;
  Value fd;
  fd.ref = 0;
  Value blob;
  blob.bytes = {1, 2, 3, 4, 5};
  c1.args = {fd, blob};
  p.calls.push_back(c1);

  const std::string once = format_program(p);
  auto reparsed = parse_program(once, table_);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(format_program(*reparsed), once);
  EXPECT_EQ(program_hash(*reparsed), program_hash(p));
}

TEST_F(FmtParseTest, ParseSkipsCommentsAndBlanks) {
  const std::string text =
      "# corpus entry 7\n"
      "\n"
      "r0 = openat$rt1711()\n"
      "ioctl$RT1711_ATTACH(r0, 0x1)  # attach sink\n";
  auto p = parse_program(text, table_);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->calls.size(), 2u);
}

TEST_F(FmtParseTest, ParseRejectsUnknownCall) {
  std::string err;
  EXPECT_FALSE(parse_program("mystery$call()\n", table_, &err).has_value());
  EXPECT_NE(err.find("unknown call"), std::string::npos);
}

TEST_F(FmtParseTest, ParseRejectsArityMismatch) {
  std::string err;
  EXPECT_FALSE(
      parse_program("ioctl$RT1711_ATTACH(nil)\n", table_, &err).has_value());
}

TEST_F(FmtParseTest, ParseRejectsMalformedBlob) {
  std::string err;
  EXPECT_FALSE(
      parse_program("write$pcm(nil, blob\"xyz\")\n", table_, &err)
          .has_value());
}

TEST_F(FmtParseTest, ParseRejectsBadScalar) {
  std::string err;
  EXPECT_FALSE(
      parse_program("ioctl$RT1711_ATTACH(nil, hello)\n", table_, &err)
          .has_value());
}

TEST_F(FmtParseTest, ParseRepairsForwardRefs) {
  // A corrupt corpus line referencing a later call gets repaired, not
  // rejected, as long as repair can make it structurally valid.
  const std::string text =
      "ioctl$RT1711_ATTACH(r1, 0x1)\n"
      "r1 = openat$rt1711()\n";
  auto p = parse_program(text, table_);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->valid());
  EXPECT_EQ(p->calls[0].args[0].ref, Value::kNoRef);
}

TEST_F(FmtParseTest, ParseEmptyProgram) {
  auto p = parse_program("", table_);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->empty());
}

TEST_F(FmtParseTest, ParseDecimalRefIndices) {
  // r10 must parse as index 10, not 1 + junk.
  std::string text = "r0 = openat$rt1711()\n";
  for (int i = 1; i < 11; ++i) text += "r" + std::to_string(i) + " = openat$rt1711()\n";
  text += "ioctl$RT1711_ATTACH(r10, 0x1)\n";
  auto p = parse_program(text, table_);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->calls.back().args[0].ref, 10);
}

}  // namespace
}  // namespace df::dsl
