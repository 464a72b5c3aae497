#include "kernel/kernel.h"

#include <gtest/gtest.h>

#include <map>

namespace df::kernel {
namespace {

// A minimal stateful driver used to exercise the kernel plumbing.
class EchoDriver final : public Driver {
 public:
  std::string_view name() const override { return "echo"; }
  std::vector<std::string> nodes() const override { return {"/dev/echo"}; }
  std::vector<SockTriple> socket_protos() const override {
    return {{99, 1, 7}};
  }

  void probe(DriverCtx& ctx) override {
    ++probes;
    ctx.cov(1);
  }
  void reset() override { opens = 0; }

  int64_t open(DriverCtx& ctx, File& f) override {
    ctx.cov(10);
    ++opens;
    f.make_state<int>(opens);
    return 0;
  }
  int64_t ioctl(DriverCtx& ctx, File& f, uint64_t req,
                std::span<const uint8_t> in,
                std::vector<uint8_t>& out) override {
    ctx.cov(20 + req % 5);
    if (req == 0xdead) return err::kEINVAL;
    out.assign(in.begin(), in.end());
    if (auto* n = f.state<int>()) put_u32(out, static_cast<uint32_t>(*n));
    return 0;
  }
  int64_t write(DriverCtx& ctx, File&, std::span<const uint8_t> d) override {
    ctx.cov(30);
    return static_cast<int64_t>(d.size());
  }
  int64_t sock_create(DriverCtx& ctx, File&) override {
    ctx.cov(40);
    return 0;
  }
  void release(DriverCtx&, File&) override { ++releases; }

  int probes = 0;
  int opens = 0;
  int releases = 0;
};

class KernelCoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    drv_ = &static_cast<EchoDriver&>(
        kernel_.register_driver(std::make_unique<EchoDriver>()));
    kernel_.boot();
    task_ = kernel_.create_task(TaskOrigin::kNative, "test");
  }

  SyscallRes open_echo() {
    SyscallReq req;
    req.nr = Sys::kOpenAt;
    req.path = "/dev/echo";
    return kernel_.syscall(task_, req);
  }

  Kernel kernel_;
  EchoDriver* drv_ = nullptr;
  TaskId task_ = 0;
};

TEST_F(KernelCoreTest, BootProbesDrivers) {
  EXPECT_TRUE(kernel_.booted());
  EXPECT_EQ(drv_->probes, 1);
}

TEST_F(KernelCoreTest, OpenReturnsFd) {
  const auto res = open_echo();
  EXPECT_GE(res.ret, 3);  // 0..2 reserved
  EXPECT_EQ(drv_->opens, 1);
}

TEST_F(KernelCoreTest, OpenUnknownPathIsEnoent) {
  SyscallReq req;
  req.nr = Sys::kOpenAt;
  req.path = "/dev/nothing";
  EXPECT_EQ(kernel_.syscall(task_, req).ret, err::kENOENT);
}

TEST_F(KernelCoreTest, IoctlRoundTrip) {
  const auto fd = static_cast<int32_t>(open_echo().ret);
  SyscallReq req;
  req.nr = Sys::kIoctl;
  req.fd = fd;
  req.arg = 0x1;
  req.data = {0xaa, 0xbb};
  const auto res = kernel_.syscall(task_, req);
  EXPECT_EQ(res.ret, 0);
  ASSERT_GE(res.out.size(), 2u);
  EXPECT_EQ(res.out[0], 0xaa);
}

TEST_F(KernelCoreTest, BadFdErrors) {
  SyscallReq req;
  req.nr = Sys::kIoctl;
  req.fd = 12345;
  EXPECT_EQ(kernel_.syscall(task_, req).ret, err::kEBADF);
  req.nr = Sys::kClose;
  EXPECT_EQ(kernel_.syscall(task_, req).ret, err::kEBADF);
}

TEST_F(KernelCoreTest, CloseRunsReleaseOnce) {
  const auto fd = static_cast<int32_t>(open_echo().ret);
  SyscallReq req;
  req.nr = Sys::kClose;
  req.fd = fd;
  EXPECT_EQ(kernel_.syscall(task_, req).ret, 0);
  EXPECT_EQ(drv_->releases, 1);
  EXPECT_EQ(kernel_.syscall(task_, req).ret, err::kEBADF);  // already closed
  EXPECT_EQ(drv_->releases, 1);
}

TEST_F(KernelCoreTest, DupSharesOpenFileDescription) {
  const auto fd = static_cast<int32_t>(open_echo().ret);
  SyscallReq dup;
  dup.nr = Sys::kDup;
  dup.fd = fd;
  const auto fd2 = static_cast<int32_t>(kernel_.syscall(task_, dup).ret);
  EXPECT_NE(fd, fd2);

  SyscallReq close1;
  close1.nr = Sys::kClose;
  close1.fd = fd;
  kernel_.syscall(task_, close1);
  EXPECT_EQ(drv_->releases, 0);  // dup still holds the description

  close1.fd = fd2;
  kernel_.syscall(task_, close1);
  EXPECT_EQ(drv_->releases, 1);
}

TEST_F(KernelCoreTest, SocketResolvesByTriple) {
  SyscallReq req;
  req.nr = Sys::kSocket;
  req.arg = 99;
  req.arg2 = 1;
  req.arg3 = 7;
  EXPECT_GE(kernel_.syscall(task_, req).ret, 3);
  req.arg3 = 8;  // unknown protocol
  EXPECT_EQ(kernel_.syscall(task_, req).ret, err::kEINVAL);
}

TEST_F(KernelCoreTest, SocketOpsOnNonSocketRejected) {
  const auto fd = static_cast<int32_t>(open_echo().ret);
  SyscallReq req;
  req.nr = Sys::kBind;
  req.fd = fd;
  EXPECT_EQ(kernel_.syscall(task_, req).ret, err::kEOPNOTSUPP);
}

TEST_F(KernelCoreTest, MmapReturnsHandleAndMunmapValidates) {
  // EchoDriver has no mmap, default is ENODEV.
  const auto fd = static_cast<int32_t>(open_echo().ret);
  SyscallReq req;
  req.nr = Sys::kMmap;
  req.fd = fd;
  req.size = 4096;
  EXPECT_EQ(kernel_.syscall(task_, req).ret, err::kENODEV);
  SyscallReq um;
  um.nr = Sys::kMunmap;
  um.arg = 0x1234;
  EXPECT_EQ(kernel_.syscall(task_, um).ret, err::kEINVAL);
}

TEST_F(KernelCoreTest, KcovCollectsDriverBlocks) {
  kernel_.kcov_enable(task_);
  open_echo();
  const auto cov = kernel_.kcov_collect(task_);
  EXPECT_FALSE(cov.empty());
  bool saw_driver_block = false;
  for (uint64_t f : cov) {
    if (cov_driver(f) == drv_->driver_id()) saw_driver_block = true;
  }
  EXPECT_TRUE(saw_driver_block);
}

TEST_F(KernelCoreTest, CoreKernelCoverageDistinguishesOutcome) {
  kernel_.kcov_enable(task_);
  open_echo();
  const auto ok_cov = kernel_.kcov_collect(task_);
  SyscallReq bad;
  bad.nr = Sys::kOpenAt;
  bad.path = "/dev/nope";
  kernel_.syscall(task_, bad);
  const auto err_cov = kernel_.kcov_collect(task_);
  // Success and ENOENT paths of openat produce different core features.
  EXPECT_NE(ok_cov, err_cov);
}

TEST_F(KernelCoreTest, TracepointSeesSyscalls) {
  int events = 0;
  const int id = kernel_.attach_tracepoint(
      [&](const Task&, const SyscallReq&, const SyscallRes&) { ++events; });
  open_echo();
  EXPECT_EQ(events, 1);
  kernel_.detach_tracepoint(id);
  open_echo();
  EXPECT_EQ(events, 1);
}

TEST_F(KernelCoreTest, ExitTaskClosesFds) {
  open_echo();
  open_echo();
  kernel_.exit_task(task_);
  EXPECT_EQ(drv_->releases, 2);
  EXPECT_EQ(kernel_.task(task_), nullptr);
}

TEST_F(KernelCoreTest, RebootResetsDriversKeepsStats) {
  open_echo();
  const uint64_t syscalls_before = kernel_.syscall_count();
  EXPECT_GT(syscalls_before, 0u);
  kernel_.reboot();
  EXPECT_EQ(drv_->opens, 0);    // reset() ran
  EXPECT_EQ(drv_->probes, 2);   // re-probed
  EXPECT_EQ(kernel_.syscall_count(), syscalls_before);  // stats survive
  EXPECT_EQ(kernel_.reboot_count(), 1u);
  // fds were force-dropped on reboot.
  SyscallReq req;
  req.nr = Sys::kIoctl;
  req.fd = 3;
  EXPECT_EQ(kernel_.syscall(task_, req).ret, err::kEBADF);
}

TEST_F(KernelCoreTest, SyscallOnDeadTaskFails) {
  kernel_.exit_task(task_);
  SyscallReq req;
  req.nr = Sys::kOpenAt;
  req.path = "/dev/echo";
  EXPECT_EQ(kernel_.syscall(task_, req).ret, err::kEPERM);
}

TEST_F(KernelCoreTest, PerDriverCoverageAttribution) {
  kernel_.kcov_enable(task_);
  open_echo();
  std::map<uint16_t, size_t> per;
  for (uint64_t f : kernel_.kcov_collect(task_)) ++per[cov_driver(f)];
  EXPECT_GT(per[drv_->driver_id()], 0u);
  EXPECT_GT(per[0], 0u);  // core kernel pseudo-driver
  EXPECT_EQ(per.size(), 2u);
}

TEST_F(KernelCoreTest, LseekFcntlFsyncGenericPaths) {
  const auto fd = static_cast<int32_t>(open_echo().ret);
  SyscallReq seek;
  seek.nr = Sys::kLseek;
  seek.fd = fd;
  seek.arg = 128;
  EXPECT_EQ(kernel_.syscall(task_, seek).ret, 128);

  SyscallReq fcntl;
  fcntl.nr = Sys::kFcntl;
  fcntl.fd = fd;
  fcntl.arg = 2;  // F_SETFL
  fcntl.arg2 = 0x800;
  EXPECT_EQ(kernel_.syscall(task_, fcntl).ret, 0);
  fcntl.arg = 1;  // F_GETFL
  EXPECT_EQ(kernel_.syscall(task_, fcntl).ret, 0x800);
  fcntl.arg = 99;
  EXPECT_EQ(kernel_.syscall(task_, fcntl).ret, err::kEINVAL);

  SyscallReq fsync;
  fsync.nr = Sys::kFsync;
  fsync.fd = fd;
  EXPECT_EQ(kernel_.syscall(task_, fsync).ret, 0);
}

TEST_F(KernelCoreTest, PollDefaultsToZero) {
  const auto fd = static_cast<int32_t>(open_echo().ret);
  SyscallReq poll;
  poll.nr = Sys::kPoll;
  poll.fd = fd;
  poll.arg = 0x1;
  EXPECT_EQ(kernel_.syscall(task_, poll).ret, 0);
}

TEST_F(KernelCoreTest, WriteReturnsByteCount) {
  const auto fd = static_cast<int32_t>(open_echo().ret);
  SyscallReq wr;
  wr.nr = Sys::kWrite;
  wr.fd = fd;
  wr.data = {1, 2, 3, 4, 5};
  EXPECT_EQ(kernel_.syscall(task_, wr).ret, 5);
}

TEST(KernelMisc, SysNameCoversAll) {
  for (uint32_t i = 0; i < static_cast<uint32_t>(Sys::kCount); ++i) {
    EXPECT_STRNE(sys_name(static_cast<Sys>(i)), "?");
  }
}

}  // namespace
}  // namespace df::kernel
