// Tests for the execution broker: program execution, resource plumbing,
// bonded feedback, and reboot policy.
#include "core/exec/broker.h"

#include <gtest/gtest.h>

#include "core/descriptions.h"
#include "device/catalog.h"
#include "dsl/parse.h"

namespace df::core {
namespace {

class BrokerTest : public ::testing::Test {
 protected:
  void SetUp() override { use_device("A1"); }

  void use_device(const char* id) {
    broker_.reset();  // the broker unwinds into dev_'s kernel on destruction
    dev_ = device::make_device(id, 1);
    table_ = dsl::CallTable();
    add_syscall_descriptions(table_, *dev_);
    for (const auto& svc : dev_->services()) {
      std::vector<std::pair<uint32_t, double>> w;
      for (const auto& uw : svc->app_usage_profile()) {
        w.emplace_back(uw.code, uw.weight);
      }
      add_hal_interface(table_, svc->descriptor(), svc->interface(), w);
    }
    spec_ = make_spec_table(table_);
    broker_ = std::make_unique<Broker>(*dev_, spec_);
  }

  ExecResult run(const std::string& text, ExecOptions opt = {}) {
    std::string err;
    auto prog = dsl::parse_program(text, table_, &err);
    EXPECT_TRUE(prog.has_value()) << err;
    return broker_->execute(*prog, opt);
  }

  std::unique_ptr<device::Device> dev_;
  dsl::CallTable table_;
  trace::SpecTable spec_;
  std::unique_ptr<Broker> broker_;
};

TEST_F(BrokerTest, ExecutesSyscallSequenceWithFdPlumbing) {
  const auto res = run(
      "r0 = openat$rt1711()\n"
      "ioctl$RT1711_ATTACH(r0, 0x2)\n"
      "ioctl$RT1711_GET_STATUS(r0)\n");
  ASSERT_EQ(res.rets.size(), 3u);
  EXPECT_GE(res.rets[0], 3);
  EXPECT_EQ(res.rets[1], 0);
  EXPECT_EQ(res.rets[2], 0);
  EXPECT_EQ(res.calls_executed, 3u);
  EXPECT_EQ(broker_->executions(), 1u);
}

TEST_F(BrokerTest, RunsAccumulateDeviceState) {
  const auto first = run("r0 = openat$rt1711()\n");
  const auto second = run("r0 = openat$rt1711()\n");
  // Each run leaves its fd open: the numbers march upward.
  ASSERT_EQ(first.rets.size(), 1u);
  ASSERT_EQ(second.rets.size(), 1u);
  EXPECT_LT(first.rets[0], second.rets[0]);
}

TEST_F(BrokerTest, UnresolvedHandleBecomesBadFd) {
  const auto res = run("ioctl$RT1711_ATTACH(nil, 0x2)\n");
  EXPECT_EQ(res.rets[0], kernel::err::kEBADF);
}

TEST_F(BrokerTest, KernelIdResourcesPlumbedViaOutU32) {
  use_device("A2");
  const auto res = run(
      "r0 = openat$mali()\n"
      "r1 = ioctl$MALI_CTX_CREATE(r0)\n"
      "ioctl$MALI_MEM_POOL(r0, r1, 0x40)\n");
  EXPECT_EQ(res.rets[2], 0);  // pool accepted: ctx id was wired through
}

TEST_F(BrokerTest, HalCallsExecuteAndProduceHandles) {
  const auto res = run(
      "r0 = hal$graphics.createLayer(0x40, 0x40, 0x1)\n"
      "hal$graphics.setLayerBuffer(r0, 0x100, 0x3)\n"
      "hal$graphics.composite()\n");
  EXPECT_EQ(res.rets[0], hal::kStatusOk);
  EXPECT_EQ(res.rets[1], hal::kStatusOk);
  EXPECT_EQ(res.rets[2], hal::kStatusOk);
}

TEST_F(BrokerTest, CollectsKernelAndHalFeatures) {
  const auto res = run(
      "r0 = hal$sensors.activate(0x3, 0x1)\n"
      "hal$sensors.poll(0x10)\n");
  bool kernel_feat = false, hal_feat = false;
  for (uint64_t f : res.features) {
    if (trace::is_hal_feature(f)) {
      hal_feat = true;
    } else {
      kernel_feat = true;
    }
  }
  EXPECT_TRUE(kernel_feat);
  EXPECT_TRUE(hal_feat);
}

TEST_F(BrokerTest, HalDirectionalCanBeDisabled) {
  ExecOptions opt;
  opt.hal_directional = false;
  const auto res = run("hal$sensors.poll(0x10)\n", opt);
  for (uint64_t f : res.features) {
    EXPECT_FALSE(trace::is_hal_feature(f));
  }
}

TEST_F(BrokerTest, CoverageCollectionCanBeDisabled) {
  ExecOptions opt;
  opt.collect_cov = false;
  opt.hal_directional = false;
  const auto res = run("r0 = openat$rt1711()\n", opt);
  EXPECT_TRUE(res.features.empty());
}

TEST_F(BrokerTest, KernelWarningReportedAndRebooted) {
  const auto res = run(
      "r0 = openat$rt1711()\n"
      "ioctl$RT1711_ATTACH(r0, 0x2)\n"
      "ioctl$RT1711_RESET(r0)\n");
  EXPECT_TRUE(res.kernel_bug);
  ASSERT_EQ(res.kernel_reports.size(), 1u);
  EXPECT_EQ(res.kernel_reports[0].title, "WARNING in rt1711_i2c_probe");
  EXPECT_TRUE(res.rebooted);  // the paper's reboot-on-any-bug policy
  EXPECT_EQ(dev_->kernel().reboot_count(), 1u);
}

TEST_F(BrokerTest, RebootPolicyCanBeDisabled) {
  ExecOptions opt;
  opt.reboot_on_bug = false;
  const auto res = run(
      "r0 = openat$rt1711()\n"
      "ioctl$RT1711_ATTACH(r0, 0x2)\n"
      "ioctl$RT1711_RESET(r0)\n",
      opt);
  EXPECT_TRUE(res.kernel_bug);
  EXPECT_FALSE(res.rebooted);
  EXPECT_EQ(dev_->kernel().reboot_count(), 0u);
}

TEST_F(BrokerTest, HalCrashCapturedPerExecution) {
  const auto res = run(
      "r0 = hal$graphics.createLayer(0x40, 0x1000, 0x1)\n"
      "hal$graphics.setLayerBuffer(r0, 0x40000000, 0x0)\n"
      "hal$graphics.composite()\n");
  EXPECT_TRUE(res.hal_crash);
  ASSERT_EQ(res.hal_crashes.size(), 1u);
  EXPECT_EQ(res.hal_crashes[0].signal, "SIGSEGV");
  EXPECT_TRUE(res.rebooted);
  // Only new crashes appear in the next execution's result.
  const auto res2 = run("hal$graphics.getDisplayInfo()\n");
  EXPECT_FALSE(res2.hal_crash);
}

TEST_F(BrokerTest, PanicStopsProgramEarly) {
  use_device("A2");
  const auto res = run(
      "r0 = hal$media.createSession(0x0)\n"
      "hal$media.configure(r0, 0x280, 0x1e0, 0x1f4)\n"
      "hal$media.start(r0)\n"
      "hal$media.transcode(r0, 0x3, 0x2)\n"  // kernel hang -> panic
      "hal$media.flush(r0)\n"                // must not execute
      "hal$media.flush(r0)\n");
  EXPECT_TRUE(res.kernel_bug);
  EXPECT_EQ(res.calls_executed, 4u);
  EXPECT_TRUE(res.rebooted);
}

TEST_F(BrokerTest, SpecTableCoversDescribedIoctls) {
  // Every specialized ioctl description must resolve to a dense ID, not the
  // overflow namespace.
  for (const dsl::CallDesc* d : table_.all()) {
    if (d->is_hal() ||
        static_cast<kernel::Sys>(d->sys_nr) != kernel::Sys::kIoctl) {
      continue;
    }
    EXPECT_LT(spec_.id_of(kernel::Sys::kIoctl, d->fixed_arg), 1u << 20)
        << d->name;
  }
}

}  // namespace
}  // namespace df::core
