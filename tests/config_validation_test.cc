// Construction-time validation: malformed configs must fail loudly with a structured
// ConfigError naming the offending field, instead of asserting (or silently simulating
// nonsense) deep inside a run.

#include <gtest/gtest.h>

#include "src/cpu/linux_scheduler.h"
#include "src/cpu/nt_scheduler.h"
#include "src/cpu/svr4_scheduler.h"
#include "src/fault/fault_plan.h"
#include "src/mem/disk.h"
#include "src/net/endpoint.h"
#include "src/net/link.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/slo.h"
#include "src/session/server.h"
#include "src/util/config_error.h"
#include "src/workload/memory_hog.h"

namespace tcs {
namespace {

// Runs `make` and returns the ConfigError it throws; fails the test if it doesn't.
template <typename Fn>
ConfigError Catch(Fn make) {
  try {
    make();
  } catch (const ConfigError& e) {
    return e;
  }
  ADD_FAILURE() << "expected ConfigError";
  return ConfigError("none", "none");
}

TEST(ConfigValidationTest, LinkRejectsZeroRate) {
  LinkConfig cfg;
  cfg.rate = BitsPerSecond::Of(0);
  Simulator sim;
  ConfigError e = Catch([&] { Link link(sim, cfg); });
  EXPECT_EQ(e.field(), "LinkConfig.rate");
}

TEST(ConfigValidationTest, LinkRejectsNonPositiveMtu) {
  LinkConfig cfg;
  cfg.mtu = Bytes::Zero();
  Simulator sim;
  EXPECT_EQ(Catch([&] { Link link(sim, cfg); }).field(), "LinkConfig.mtu");
}

TEST(ConfigValidationTest, LinkRejectsNegativePropagation) {
  LinkConfig cfg;
  cfg.propagation = Duration::Micros(-1);
  Simulator sim;
  EXPECT_EQ(Catch([&] { Link link(sim, cfg); }).field(), "LinkConfig.propagation");
}

TEST(ConfigValidationTest, LinkRejectsZeroBackoffSlotWithCsmaCd) {
  LinkConfig cfg;
  cfg.csma_cd = true;
  cfg.backoff_slot = Duration::Zero();
  Simulator sim;
  EXPECT_EQ(Catch([&] { Link link(sim, cfg); }).field(), "LinkConfig.backoff_slot");
}

TEST(ConfigValidationTest, SenderRejectsMtuSmallerThanHeaders) {
  // TCP/IP costs 40 B per packet; an MTU of 40 leaves no payload room.
  LinkConfig cfg;
  cfg.mtu = Bytes::Of(40);
  Simulator sim;
  Link link(sim, cfg);
  ConfigError e = Catch([&] { MessageSender sender(link, HeaderModel::TcpIp()); });
  EXPECT_EQ(e.field(), "LinkConfig.mtu");
  EXPECT_NE(std::string(e.what()).find("MTU"), std::string::npos);
}

TEST(ConfigValidationTest, DiskRejectsZeroTransferRate) {
  DiskConfig cfg;
  cfg.transfer_rate = BitsPerSecond::Of(0);
  Simulator sim;
  EXPECT_EQ(Catch([&] { Disk disk(sim, Rng(1), cfg); }).field(),
            "DiskConfig.transfer_rate");
}

TEST(ConfigValidationTest, DiskRejectsZeroPageSize) {
  DiskConfig cfg;
  cfg.page_size = Bytes::Zero();
  Simulator sim;
  EXPECT_EQ(Catch([&] { Disk disk(sim, Rng(1), cfg); }).field(), "DiskConfig.page_size");
}

TEST(ConfigValidationTest, MemoryHogRejectsEmptyRegion) {
  Simulator sim;
  Disk disk(sim, Rng(1));
  Pager pager(sim, disk);
  MemoryHogConfig cfg;
  cfg.region_pages = 0;
  EXPECT_EQ(Catch([&] { MemoryHog hog(sim, pager, cfg); }).field(),
            "MemoryHogConfig.region_pages");
}

TEST(ConfigValidationTest, MemoryHogRejectsNonPositiveTouchTime) {
  Simulator sim;
  Disk disk(sim, Rng(1));
  Pager pager(sim, disk);
  MemoryHogConfig cfg;
  cfg.touch_cpu = Duration::Zero();
  EXPECT_EQ(Catch([&] { MemoryHog hog(sim, pager, cfg); }).field(),
            "MemoryHogConfig.touch_cpu");
  cfg.touch_cpu = Duration::Micros(-5);
  EXPECT_EQ(Catch([&] { MemoryHog hog(sim, pager, cfg); }).field(),
            "MemoryHogConfig.touch_cpu");
}

TEST(ConfigValidationTest, SloWatchdogRejectsNonPositiveCheckPeriod) {
  // Zero re-ran the live checks at one instant forever; negative scheduled them in the
  // past.
  Simulator sim;
  FlightRecorder recorder;
  for (Duration period : {Duration::Zero(), Duration::Millis(-100)}) {
    SloSpec spec;
    spec.max_worst_p99_ms = 100.0;
    spec.check_period = period;
    EXPECT_EQ(Catch([&] { SloWatchdog watchdog(sim, spec, &recorder, nullptr, nullptr); })
                  .field(),
              "SloSpec.check_period");
  }
}

TEST(ConfigValidationTest, FlightRecorderRejectsCapacityBeyondSizeT) {
  // Rounding this up to a power of two used to wrap to zero and spin forever.
  FlightRecorderConfig cfg;
  cfg.capacity = (size_t{1} << 63) + 1;
  EXPECT_EQ(Catch([&] { FlightRecorder recorder(cfg); }).field(),
            "FlightRecorderConfig.capacity");
}

TEST(ConfigValidationTest, SchedulersRejectZeroQuantum) {
  NtSchedulerConfig nt;
  nt.quantum = Duration::Zero();
  EXPECT_EQ(Catch([&] { NtScheduler s(nt); }).field(), "NtSchedulerConfig.quantum");

  LinuxSchedulerConfig lx;
  lx.quantum = Duration::Zero();
  EXPECT_EQ(Catch([&] { LinuxScheduler s(lx); }).field(), "LinuxSchedulerConfig.quantum");

  Svr4SchedulerConfig s4;
  s4.quantum = Duration::Zero();
  EXPECT_EQ(Catch([&] { Svr4InteractiveScheduler s(s4); }).field(),
            "Svr4SchedulerConfig.quantum");
}

TEST(ConfigValidationTest, ServerRejectsZeroRam) {
  ServerConfig cfg;
  cfg.ram = Bytes::Zero();
  Simulator sim;
  ConfigError e = Catch([&] { Server server(sim, OsProfile::Tse(), cfg); });
  EXPECT_EQ(e.field(), "ServerConfig.ram");
}

TEST(ConfigValidationTest, ServerRejectsRamBelowIdleSystemMemory) {
  ServerConfig cfg;
  cfg.ram = Bytes::MiB(1);  // far below any profile's kernel + services footprint
  Simulator sim;
  EXPECT_EQ(Catch([&] { Server server(sim, OsProfile::Tse(), cfg); }).field(),
            "ServerConfig.ram");
}

TEST(ConfigValidationTest, FaultPlanRejectsOutOfRangeLossRate) {
  FaultPlan plan;
  plan.link.loss_rate = 1.5;
  EXPECT_THROW(Validate(plan), ConfigError);
}

TEST(ConfigValidationTest, FaultPlanRejectsUnsortedOutages) {
  FaultPlan plan;
  plan.link.scripted_outages = {
      {TimePoint::FromMicros(2'000'000), TimePoint::FromMicros(3'000'000)},
      {TimePoint::FromMicros(500'000), TimePoint::FromMicros(1'000'000)},
  };
  EXPECT_THROW(Validate(plan), ConfigError);
}

TEST(ConfigValidationTest, FaultPlanRejectionSurfacesThroughServerConfig) {
  ServerConfig cfg;
  cfg.faults.disk.stall_rate = -0.1;
  Simulator sim;
  EXPECT_THROW(Server server(sim, OsProfile::Tse(), cfg), ConfigError);
}

TEST(ConfigValidationTest, ErrorMessageNamesFieldAndReason) {
  ConfigError e("LinkConfig.rate", "rate must be positive");
  EXPECT_EQ(e.field(), "LinkConfig.rate");
  EXPECT_EQ(e.reason(), "rate must be positive");
  EXPECT_STREQ(e.what(), "LinkConfig.rate: rate must be positive");
}

}  // namespace
}  // namespace tcs
