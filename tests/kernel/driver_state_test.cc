// State-machine introspection: drivers report protocol-state entries and
// transitions through Driver::enter_state(); the base class keeps
// campaign-cumulative visit counts and a transition matrix that survive
// reboots (the driver-state coverage surfaced in BENCH_*.json and crash
// provenance reports).
#include <gtest/gtest.h>

#include "kernel/drivers/ion_alloc.h"
#include "kernel/drivers/rt1711_i2c.h"
#include "tests/kernel/driver_test_util.h"

namespace df::kernel {
namespace {

using drivers::IonDriver;
using drivers::Rt1711Driver;

class DriverStateTest : public ::testing::Test {
 protected:
  testutil::DriverHarness h;
};

TEST_F(DriverStateTest, BootSeedsInitialStateWithoutATransition) {
  Rt1711Driver* drv = h.install<Rt1711Driver>();
  h.boot();
  ASSERT_EQ(drv->state_visits().size(), 3u);
  EXPECT_EQ(drv->current_state(), 0u);
  EXPECT_EQ(drv->state_visits()[0], 1u);  // boot entry into "idle"
  EXPECT_EQ(drv->states_visited(), 1u);
  EXPECT_EQ(drv->transitions_observed(), 0u);
}

TEST_F(DriverStateTest, ExplicitStateDriverTracksProtocolTransitions) {
  Rt1711Driver* drv = h.install<Rt1711Driver>();
  h.boot();
  const int32_t fd = h.open("/dev/rt1711");
  ASSERT_GE(fd, 0);

  ASSERT_EQ(h.ioctl(fd, Rt1711Driver::kIocAttach, h.u32s({1})).ret, 0);
  EXPECT_EQ(drv->current_state(), 1u);  // attached
  ASSERT_EQ(h.ioctl(fd, Rt1711Driver::kIocAlert, h.u32s({1})).ret, 0);
  EXPECT_EQ(drv->current_state(), 2u);  // alerting

  const auto& m = drv->state_matrix();
  const size_t n = drv->state_visits().size();
  EXPECT_EQ(m[0 * n + 1], 1u);  // idle -> attached
  EXPECT_EQ(m[1 * n + 2], 1u);  // attached -> alerting
  EXPECT_EQ(m[0 * n + 2], 0u);  // never skipped a step
  EXPECT_EQ(drv->states_visited(), 3u);
  EXPECT_EQ(drv->transitions_observed(), 2u);
}

TEST_F(DriverStateTest, FlagGatedDriverDerivesStateAfterEachOp) {
  IonDriver* drv = h.install<IonDriver>();
  h.boot();
  const int32_t fd = h.open("/dev/ion");
  ASSERT_GE(fd, 0);

  const auto alloc = h.ioctl(fd, IonDriver::kIocAlloc, h.u32s({64, 1}));
  ASSERT_EQ(alloc.ret, 0);
  EXPECT_EQ(drv->current_state(), 1u);  // allocated
  const uint32_t id = le_u32(alloc.out, 0);
  ASSERT_EQ(h.ioctl(fd, IonDriver::kIocShare, h.u32s({id})).ret, 0);
  EXPECT_EQ(drv->current_state(), 2u);  // shared
  ASSERT_EQ(h.ioctl(fd, IonDriver::kIocFree, h.u32s({id})).ret, 0);
  EXPECT_EQ(drv->current_state(), 0u);  // empty again

  const size_t n = drv->state_visits().size();
  EXPECT_EQ(drv->state_matrix()[0 * n + 1], 1u);
  EXPECT_EQ(drv->state_matrix()[1 * n + 2], 1u);
  EXPECT_EQ(drv->state_matrix()[2 * n + 0], 1u);
}

TEST_F(DriverStateTest, ReenteringAStateCountsAVisitNotATransition) {
  IonDriver* drv = h.install<IonDriver>();
  h.boot();
  const int32_t fd = h.open("/dev/ion");
  const uint64_t visits_before = drv->state_visits()[0];
  h.ioctl(fd, IonDriver::kIocQuery);  // no allocator movement
  EXPECT_EQ(drv->state_visits()[0], visits_before + 1);
  EXPECT_EQ(drv->transitions_observed(), 0u);
}

TEST_F(DriverStateTest, TalliesSurviveRebootButCurrentStateResets) {
  Rt1711Driver* drv = h.install<Rt1711Driver>();
  h.boot();
  int32_t fd = h.open("/dev/rt1711");
  ASSERT_EQ(h.ioctl(fd, Rt1711Driver::kIocAttach, h.u32s({2})).ret, 0);
  ASSERT_EQ(drv->current_state(), 1u);
  const uint64_t idle_visits = drv->state_visits()[0];

  h.kernel.reboot();
  h.task = h.kernel.create_task(TaskOrigin::kNative, "t");
  // Campaign-cumulative: the attach visit and transition are retained; the
  // reboot re-enters state 0 as a visit, not a transition.
  EXPECT_EQ(drv->current_state(), 0u);
  EXPECT_EQ(drv->state_visits()[1], 1u);
  EXPECT_EQ(drv->state_visits()[0], idle_visits + 1);
  const size_t n = drv->state_visits().size();
  EXPECT_EQ(drv->state_matrix()[0 * n + 1], 1u);
  EXPECT_EQ(drv->transitions_observed(), 1u);
  EXPECT_EQ(drv->states_visited(), 2u);
}

TEST_F(DriverStateTest, RestoredTalliesRecountVisitedStates) {
  Rt1711Driver* drv = h.install<Rt1711Driver>();
  h.boot();
  const size_t n = drv->state_visits().size();
  ASSERT_TRUE(drv->restore_state_tallies(2, {0, 4, 2},
                                         std::vector<uint64_t>(n * n, 0)));
  EXPECT_EQ(drv->states_visited(), 2u);
  EXPECT_EQ(drv->current_state(), 2u);
  // A wrong shape or an out-of-range current state is refused unapplied.
  EXPECT_FALSE(drv->restore_state_tallies(0, {1}, {}));
  EXPECT_FALSE(drv->restore_state_tallies(n, {1, 1, 1},
                                          std::vector<uint64_t>(n * n, 0)));
  EXPECT_EQ(drv->states_visited(), 2u);
  EXPECT_EQ(drv->current_state(), 2u);
}

TEST_F(DriverStateTest, DriversWithoutAStateMachineStayEmpty) {
  class PlainDriver final : public Driver {
   public:
    std::string_view name() const override { return "plain"; }
    std::vector<std::string> nodes() const override {
      return {"/dev/plain"};
    }
  };
  PlainDriver* drv = h.install<PlainDriver>();
  h.boot();
  EXPECT_TRUE(drv->state_visits().empty());
  EXPECT_TRUE(drv->state_matrix().empty());
  EXPECT_EQ(drv->states_visited(), 0u);
  EXPECT_EQ(drv->transitions_observed(), 0u);
}

}  // namespace
}  // namespace df::kernel
