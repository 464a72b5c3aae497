// Device state snapshots (DESIGN.md §13): capture/restore round-trips,
// dirty-struct delta sharing against a parent, shape validation, the flat
// byte image used by checkpoints, per-device byte pins, and the rejection
// of corrupt section images.
#include "device/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/descriptions.h"
#include "core/exec/broker.h"
#include "core/gen/generator.h"
#include "core/relation/graph.h"
#include "device/catalog.h"
#include "kernel/kernel.h"
#include "kernel/syscall.h"
#include "util/rng.h"
#include "util/hash.h"

namespace df::device {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dev_ = make_device("A1", 1);
    task_ = dev_->kernel().create_task(kernel::TaskOrigin::kNative, "snap");
  }

  int32_t open_path(const char* path) {
    kernel::SyscallReq req;
    req.nr = kernel::Sys::kOpenAt;
    req.path = path;
    return static_cast<int32_t>(dev_->kernel().syscall(task_, req).ret);
  }

  int64_t ioctl(int32_t fd, uint64_t code, uint32_t val = 2) {
    kernel::SyscallReq req;
    req.nr = kernel::Sys::kIoctl;
    req.fd = fd;
    req.arg = code;
    kernel::put_u32(req.data, val);
    return dev_->kernel().syscall(task_, req).ret;
  }

  // Drives the TCPC port controller through a few protocol steps so the
  // snapshot has real driver + fd state to carry.
  int32_t warm() {
    const int32_t fd = open_path("/dev/tcpc");
    EXPECT_GE(fd, 3);
    for (const uint64_t code : {0x5470ull, 0x5471ull, 0x5472ull}) {
      ioctl(fd, code);
    }
    return fd;
  }

  std::unique_ptr<Device> dev_;
  kernel::TaskId task_{};
};

// The core round-trip property the engine's fork/recovery paths lean on:
// restoring a snapshot and re-capturing yields the same byte image, no
// matter what happened in between.
TEST_F(SnapshotTest, CaptureAfterRestoreIsByteIdentical) {
  const int32_t fd = warm();
  const StateSnapshot snap1 = capture_snapshot(*dev_, task_);
  // Perturb everything the snapshot covers: driver state machines, the fd
  // table, and (via the allocations behind open) the slab heap.
  ioctl(fd, 0x5476);
  open_path("/dev/tcpc");
  std::string error;
  ASSERT_TRUE(restore_snapshot(*dev_, task_, snap1, &error)) << error;
  const StateSnapshot snap2 = capture_snapshot(*dev_, task_);
  EXPECT_EQ(snapshot_to_bytes(snap1), snapshot_to_bytes(snap2));
}

TEST_F(SnapshotTest, RestoreRewindsFdNumbering) {
  warm();
  const StateSnapshot snap = capture_snapshot(*dev_, task_);
  const int32_t after_capture = open_path("/dev/tcpc");
  ASSERT_TRUE(restore_snapshot(*dev_, task_, snap, nullptr));
  // The fd cursor was rewound with the table: the same number comes back.
  EXPECT_EQ(open_path("/dev/tcpc"), after_capture);
}

TEST_F(SnapshotTest, RestoredStateReplaysIdentically) {
  const int32_t fd = warm();
  const StateSnapshot snap = capture_snapshot(*dev_, task_);
  auto probe = [&] {
    std::string log;
    for (const uint64_t code : {0x5470ull, 0x5472ull, 0x5476ull, 0x5471ull}) {
      log += std::to_string(ioctl(fd, code)) + ";";
    }
    return log;
  };
  const std::string first = probe();  // advances the driver state machine
  ASSERT_TRUE(restore_snapshot(*dev_, task_, snap, nullptr));
  EXPECT_EQ(probe(), first);  // same state -> same returns
}

TEST_F(SnapshotTest, DeltaCaptureSharesUnchangedSections) {
  warm();
  const StateSnapshot base = capture_snapshot(*dev_, task_);
  EXPECT_EQ(base.sections_shared, 0u);  // no parent, nothing to share
  open_path("/dev/tcpc");  // dirties the fd table + heap, not the drivers
  const StateSnapshot delta = capture_snapshot(*dev_, task_, &base);
  EXPECT_GT(delta.sections_shared, 0u);
  EXPECT_LT(delta.sections_shared, delta.sections.size());
  EXPECT_GT(delta.bytes_shared, 0u);
  EXPECT_LE(delta.bytes_shared, delta.total_bytes());
  // Sharing is pure aliasing: exactly sections_shared sections point at the
  // parent's buffers.
  size_t aliased = 0;
  for (const auto& s : delta.sections) {
    const StateSnapshot::Section* p = base.find(s.name);
    ASSERT_NE(p, nullptr) << s.name;
    if (p->bytes == s.bytes) ++aliased;
  }
  EXPECT_EQ(aliased, delta.sections_shared);
  // A delta restores on its own; sharing never changes restore semantics.
  ASSERT_TRUE(restore_snapshot(*dev_, task_, delta, nullptr));
}

TEST_F(SnapshotTest, WrongDeviceShapeIsRejected) {
  warm();
  const StateSnapshot foreign = capture_snapshot(*dev_, task_);
  auto other = make_device("B", 1);
  const auto other_task =
      other->kernel().create_task(kernel::TaskOrigin::kNative, "snap");
  std::string error;
  EXPECT_FALSE(restore_snapshot(*other, other_task, foreign, &error));
  EXPECT_NE(error.find("snapshot"), std::string::npos) << error;
  // The shape check runs before any mutation: B still captures and restores
  // its own state cleanly.
  const StateSnapshot own = capture_snapshot(*other, other_task);
  EXPECT_TRUE(restore_snapshot(*other, other_task, own, nullptr));
}

TEST_F(SnapshotTest, ByteImageRoundTrips) {
  warm();
  StateSnapshot snap = capture_snapshot(*dev_, task_);
  snap.seq = 7;
  snap.estab_calls = 3;
  const std::vector<uint8_t> bytes = snapshot_to_bytes(snap);
  StateSnapshot out;
  std::string error;
  ASSERT_TRUE(snapshot_from_bytes(bytes, &out, &error)) << error;
  EXPECT_EQ(out.seq, 7u);
  EXPECT_EQ(out.estab_calls, 3u);
  ASSERT_EQ(out.sections.size(), snap.sections.size());
  for (size_t i = 0; i < out.sections.size(); ++i) {
    EXPECT_EQ(out.sections[i].name, snap.sections[i].name);
    EXPECT_EQ(*out.sections[i].bytes, *snap.sections[i].bytes);
  }
  EXPECT_EQ(snapshot_to_bytes(out), bytes);
  // The deserialized image is a full working snapshot.
  ASSERT_TRUE(restore_snapshot(*dev_, task_, out, &error)) << error;
}

TEST_F(SnapshotTest, TruncatedByteImageIsRejected) {
  warm();
  const std::vector<uint8_t> bytes =
      snapshot_to_bytes(capture_snapshot(*dev_, task_));
  for (const size_t cut : {size_t{0}, bytes.size() / 2, bytes.size() - 1}) {
    StateSnapshot out;
    std::string error;
    EXPECT_FALSE(snapshot_from_bytes(
        std::span<const uint8_t>(bytes.data(), cut), &out, &error))
        << "cut=" << cut;
    EXPECT_FALSE(error.empty());
  }
}

// --- Corrupt section images -------------------------------------------------

// Little-endian builder for hand-written section images.
struct Image {
  std::vector<uint8_t> bytes;

  Image& le(uint64_t v, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      bytes.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
    return *this;
  }
  Image& u8(uint8_t v) { return le(v, 1); }
  Image& u16(uint16_t v) { return le(v, 2); }
  Image& u32(uint32_t v) { return le(v, 4); }
  Image& u64(uint64_t v) { return le(v, 8); }
  Image& blob(std::span<const uint8_t> b) {
    u32(static_cast<uint32_t>(b.size()));
    bytes.insert(bytes.end(), b.begin(), b.end());
    return *this;
  }
  Image& str(std::string_view s) {
    return blob({reinterpret_cast<const uint8_t*>(s.data()), s.size()});
  }
};

// `snap` with the image of section `name` replaced.
StateSnapshot with_section(StateSnapshot snap, std::string_view name,
                           std::vector<uint8_t> bytes) {
  for (StateSnapshot::Section& s : snap.sections) {
    if (s.name == name) {
      s.bytes = std::make_shared<const std::vector<uint8_t>>(std::move(bytes));
    }
  }
  return snap;
}

struct SlabRecord {
  uint64_t handle;
  uint64_t size;
  bool live;
  size_t nbytes;
};

// A heap section image: handle cursor, then the slab records.
std::vector<uint8_t> heap_image(uint64_t cursor,
                                std::initializer_list<SlabRecord> slabs) {
  Image im;
  im.u64(cursor).u32(static_cast<uint32_t>(slabs.size()));
  for (const SlabRecord& s : slabs) {
    im.u64(s.handle).u64(s.size).str("test:slab").u8(s.live ? 1 : 0);
    im.blob(std::vector<uint8_t>(s.nbytes, 0));
  }
  return std::move(im.bytes);
}

// A slab image KASAN would trust while its bytes disagree with it turns
// the next checked access into a host buffer overflow, so each is refused.
TEST_F(SnapshotTest, HeapImageKasanCannotTrustIsRejected) {
  warm();
  const StateSnapshot snap = capture_snapshot(*dev_, task_);
  std::string error;
  const std::vector<uint8_t> sound =
      heap_image(3, {{1, 16, true, 16}, {2, 8, false, 0}});
  ASSERT_TRUE(
      restore_snapshot(*dev_, task_, with_section(snap, "heap", sound), &error))
      << error;
  const std::vector<std::vector<uint8_t>> bad = {
      heap_image(2, {{1, 4096, true, 8}}),    // live, blob shorter than size
      heap_image(2, {{1, 8, true, 4096}}),    // live, blob longer than size
      heap_image(2, {{1, 16, false, 16}}),    // freed slab keeps bytes
      heap_image(2, {{0, 16, true, 16}}),     // null handle
      heap_image(2, {{2, 16, true, 16}}),     // handle not below the cursor
      heap_image(3, {{1, 16, true, 16}, {1, 8, true, 8}}),  // repeated
  };
  for (size_t i = 0; i < bad.size(); ++i) {
    error.clear();
    EXPECT_FALSE(restore_snapshot(*dev_, task_,
                                  with_section(snap, "heap", bad[i]), &error))
        << "case " << i;
    EXPECT_NE(error.find("snapshot: section 'heap'"), std::string::npos)
        << "case " << i << ": " << error;
  }
}

// A native fd table with one File of driver `driver` (per-open image
// `priv`) and fd 3 naming file `file_index`.
std::vector<uint8_t> fd_table_image(uint16_t driver, uint32_t file_index,
                                    std::vector<uint8_t> priv = {}) {
  Image im;
  im.u32(1).u16(driver).str("/dev/tcpc").u64(0).u64(0).u8(0).u64(0).u64(0);
  im.blob(priv);
  im.u32(1).u32(3).u32(file_index);
  im.u32(4);  // fd cursor
  return std::move(im.bytes);
}

class FdTableImageTest : public SnapshotTest {
 protected:
  void SetUp() override {
    SnapshotTest::SetUp();
    warm();
    snap_ = capture_snapshot(*dev_, task_);
    const auto& drivers = dev_->kernel().drivers();
    while (drivers[tcpc_]->name() != "tcpc_core") ++tcpc_;
    // The builder matches the format: a well-formed table restores, and
    // its fd reaches the driver.
    std::string error;
    ASSERT_TRUE(restore_snapshot(
        *dev_, task_,
        with_section(snap_, "fds/native", fd_table_image(tcpc_, 0)), &error))
        << error;
    EXPECT_NE(ioctl(3, 0x5476), kernel::err::kEBADF);
  }

  // Restores `snap_` with the native fd table replaced; returns the error
  // (empty when the restore was accepted).
  std::string restore_with(std::vector<uint8_t> fds) {
    std::string error;
    if (restore_snapshot(*dev_, task_,
                         with_section(snap_, "fds/native", std::move(fds)),
                         &error)) {
      return {};
    }
    EXPECT_FALSE(error.empty());
    return error;
  }

  StateSnapshot snap_;
  uint16_t tcpc_ = 0;
};

// A File with no driver would be dereferenced by the next syscall on it.
TEST_F(FdTableImageTest, DriverIndexOutOfRangeIsRejected) {
  const std::string error = restore_with(fd_table_image(0xFFFF, 0));
  EXPECT_NE(error.find("snapshot: section 'fds/native'"), std::string::npos)
      << error;
  EXPECT_NE(error.find("driver index"), std::string::npos) << error;
}

TEST_F(FdTableImageTest, FileIndexOutOfRangeIsRejected) {
  const std::string error = restore_with(fd_table_image(tcpc_, 5));
  EXPECT_NE(error.find("snapshot: section 'fds/native'"), std::string::npos)
      << error;
}

// tcpc keeps no per-open state, so any per-file byte is left unread.
TEST_F(FdTableImageTest, UnconsumedPerFileImageIsRejected) {
  const std::string error = restore_with(fd_table_image(tcpc_, 0, {0x01}));
  EXPECT_NE(error.find("snapshot: section 'fds/native'"), std::string::npos)
      << error;
}

// A File no fd refers to would be freed during the restore itself.
TEST_F(FdTableImageTest, FileWithoutFdIsRejected) {
  Image im;
  im.u32(2);
  for (int i = 0; i < 2; ++i) {
    im.u16(tcpc_).str("/dev/tcpc").u64(0).u64(0).u8(0).u64(0).u64(0);
    im.blob(std::vector<uint8_t>{});
  }
  im.u32(1).u32(3).u32(0).u32(4);
  const std::string error = restore_with(std::move(im.bytes));
  EXPECT_NE(error.find("snapshot: section 'fds/native'"), std::string::npos)
      << error;
}

// The leading `current` of a driver section indexes the driver's state
// tallies on its next transition, so it must name one of its states.
TEST_F(SnapshotTest, OutOfRangeCurrentStateIsRejected) {
  warm();
  const StateSnapshot snap = capture_snapshot(*dev_, task_);
  size_t drivers = 0;
  for (const StateSnapshot::Section& s : snap.sections) {
    if (s.name.rfind("drv/", 0) != 0) continue;
    ++drivers;
    std::vector<uint8_t> bytes = *s.bytes;
    ASSERT_GE(bytes.size(), 8u);
    Image current;
    current.u64(1000);
    std::copy(current.bytes.begin(), current.bytes.end(), bytes.begin());
    std::string error;
    EXPECT_FALSE(restore_snapshot(*dev_, task_,
                                  with_section(snap, s.name, bytes), &error))
        << s.name;
    EXPECT_NE(error.find("snapshot: section '" + s.name + "'"),
              std::string::npos)
        << error;
  }
  EXPECT_GT(drivers, 0u);
}

// --- Catalog devices driven by generated programs ---------------------------

// One catalog device behind a Broker, fed by a seeded Generator: the stack
// the property suite warms devices with, so the drivers and HAL services
// sit in arbitrary live states.
struct CatalogRig {
  CatalogRig(std::string_view id, uint64_t seed)
      : dev(make_device(id, seed)), rng(seed * 101 + 7) {
    core::add_syscall_descriptions(table, *dev);
    for (const auto& svc : dev->services()) {
      std::vector<std::pair<uint32_t, double>> w;
      for (const auto& uw : svc->app_usage_profile()) {
        w.emplace_back(uw.code, uw.weight);
      }
      core::add_hal_interface(table, svc->descriptor(), svc->interface(), w);
    }
    spec_table = core::make_spec_table(table);
    broker = std::make_unique<core::Broker>(*dev, spec_table);
    for (const auto* d : table.all()) rel.add_vertex(d, d->weight);
    gen = std::make_unique<core::Generator>(table, rel, corpus, rng,
                                            core::GenConfig{});
  }

  void run(int programs) {
    for (int i = 0; i < programs; ++i) broker->execute(gen->generate_fresh());
  }

  std::unique_ptr<Device> dev;
  dsl::CallTable table;
  trace::SpecTable spec_table;
  core::RelationGraph rel;
  core::Corpus corpus;
  util::Rng rng;
  std::unique_ptr<core::Broker> broker;
  std::unique_ptr<core::Generator> gen;
};

uint64_t image_hash(const std::vector<uint8_t>& bytes) {
  return util::fnv1a(std::string_view(
      reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

// Byte pins: for each catalog device, a seeded warm-up, then the image of a
// capture and of a capture taken after perturbing and restoring. A change
// that keeps the encoding keeps every constant (re-recording:
// tests/fixtures/README.md).
struct ImagePin {
  const char* device;
  size_t bytes;
  uint64_t capture_hash;
  uint64_t recapture_hash;
};
constexpr ImagePin kImagePins[] = {
    {"A1", 2895, 0xc39dca56995b106eull, 0xc39dca56995b106eull},
    {"A2", 4433, 0x94ac728acdca2b9full, 0x94ac728acdca2b9full},
    {"B", 1112, 0x7a3c177e42069e3cull, 0x7a3c177e42069e3cull},
    {"C1", 2133, 0x3857252db5b6bdf2ull, 0x3857252db5b6bdf2ull},
    {"C2", 2018, 0x11b5b9636bb17c60ull, 0x11b5b9636bb17c60ull},
    {"D", 3923, 0x10573ee5432eeec0ull, 0x10573ee5432eeec0ull},
    {"E", 1819, 0x5a718509d0195efeull, 0x5a718509d0195efeull},
};

TEST(SnapshotImage, CatalogImagesMatchRecordedHashes) {
  ASSERT_EQ(std::size(kImagePins), device_table().size());
  for (const ImagePin& pin : kImagePins) {
    CatalogRig rig(pin.device, 3);
    rig.run(40);
    const std::vector<uint8_t> image =
        snapshot_to_bytes(rig.broker->capture_snapshot());
    StateSnapshot snap;
    std::string error;
    ASSERT_TRUE(snapshot_from_bytes(image, &snap, &error)) << error;
    rig.run(15);
    ASSERT_TRUE(rig.broker->restore_snapshot(snap, &error)) << error;
    const std::vector<uint8_t> again =
        snapshot_to_bytes(rig.broker->capture_snapshot());
    const uint64_t h1 = image_hash(image);
    const uint64_t h2 = image_hash(again);
    if (image.size() != pin.bytes || h1 != pin.capture_hash ||
        h2 != pin.recapture_hash) {
      // Left in the test's working directory (the build tree under ctest)
      // for diffing against an image written by the recording commit.
      const std::string path =
          std::string("snapshot_image_") + pin.device + "_actual.bin";
      if (FILE* f = std::fopen(path.c_str(), "wb")) {
        std::fwrite(image.data(), 1, image.size(), f);
        std::fclose(f);
      }
      ADD_FAILURE() << pin.device << " image drifted: {\"" << pin.device
                    << "\", " << image.size() << ", 0x" << std::hex << h1
                    << "ull, 0x" << h2 << "ull}; written to " << path;
    }
  }
}

// Seeded corruptions of one section image: byte flips, truncations, u32
// fields inflated in place, and extra trailing bytes.
std::vector<std::vector<uint8_t>> mutations(const std::vector<uint8_t>& clean,
                                            util::Rng& rng) {
  std::vector<std::vector<uint8_t>> out;
  const size_t n = clean.size();
  for (int i = 0; i < 16 && n > 0; ++i) {
    std::vector<uint8_t> m = clean;
    m[rng.below(n)] ^= static_cast<uint8_t>(1 + rng.below(255));
    out.push_back(std::move(m));
  }
  for (int i = 0; i < 4 && n > 0; ++i) {
    out.emplace_back(clean.begin(),
                     clean.begin() + static_cast<ptrdiff_t>(rng.below(n)));
  }
  for (int i = 0; i < 6 && n >= 4; ++i) {
    std::vector<uint8_t> m = clean;
    const size_t at = rng.below(n - 3);
    uint32_t v = 0;
    for (size_t b = 0; b < 4; ++b) {
      v |= static_cast<uint32_t>(m[at + b]) << (8 * b);
    }
    v = i < 2 ? 0xFFFFFFFFu : v + 1 + static_cast<uint32_t>(rng.below(0xFFFF));
    for (size_t b = 0; b < 4; ++b) {
      m[at + b] = static_cast<uint8_t>(v >> (8 * b));
    }
    out.push_back(std::move(m));
  }
  for (const size_t extra : {size_t{1}, size_t{4}}) {
    std::vector<uint8_t> m = clean;
    for (size_t b = 0; b < extra; ++b) {
      m.push_back(static_cast<uint8_t>(rng.below(256)));
    }
    out.push_back(std::move(m));
  }
  return out;
}

// Uses everything a restore put back: every live slab of the captured
// heap takes a full-size KASAN-checked write, every fd of every task an
// ioctl, and a few generated programs run.
void exercise(CatalogRig& rig, kernel::HeapPtr captured_cursor) {
  kernel::Kernel& k = rig.dev->kernel();
  for (kernel::HeapPtr p = 1; p < captured_cursor; ++p) {
    const kernel::Heap::Slab* s = k.kasan().heap().find(p);
    if (s == nullptr || !s->live || s->size > (1u << 20)) continue;
    const std::vector<uint8_t> fill(s->size, 0x5a);
    k.kasan().write(p, 0, fill, "test", "exercise");
  }
  std::vector<kernel::TaskId> tasks = {rig.broker->native_task()};
  for (const auto& svc : rig.dev->services()) tasks.push_back(svc->task());
  for (const kernel::TaskId tid : tasks) {
    const kernel::Task* t = k.task(tid);
    if (t == nullptr) continue;
    for (const int32_t fd : t->fds.fds()) {
      kernel::SyscallReq req;
      req.nr = kernel::Sys::kIoctl;
      req.fd = fd;
      k.syscall(tid, req);
    }
  }
  rig.run(3);
}

// Every catalog device, every section image, a fixed seeded set of
// corruptions: each restore is either rejected with a "snapshot: ..."
// error, or leaves a device that keeps working. Neither may crash the
// host (the sanitizer builds run this too).
TEST(SnapshotImage, CorruptSectionImagesAreRejectedOrHarmless) {
  size_t rejected = 0;
  size_t accepted = 0;
  for (const DeviceSpec& spec : device_table()) {
    CatalogRig rig(spec.id, 5);
    rig.run(30);
    const StateSnapshot good = rig.broker->capture_snapshot();
    const kernel::HeapPtr cursor =
        rig.dev->kernel().kasan().heap().next_handle();
    util::Rng rng(util::fnv1a(spec.id));
    for (const StateSnapshot::Section& section : good.sections) {
      for (std::vector<uint8_t>& bad : mutations(*section.bytes, rng)) {
        std::string error;
        if (rig.broker->restore_snapshot(
                with_section(good, section.name, std::move(bad)), &error)) {
          ++accepted;
          exercise(rig, cursor);
        } else {
          ++rejected;
          EXPECT_EQ(error.rfind("snapshot: ", 0), 0u)
              << spec.id << " " << section.name << ": " << error;
          EXPECT_GT(error.size(), std::string("snapshot: ").size());
          rig.dev->reboot();  // the device state is unspecified now
        }
        ASSERT_TRUE(rig.broker->restore_snapshot(good, &error))
            << spec.id << " " << section.name << ": " << error;
      }
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace df::device
