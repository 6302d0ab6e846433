#include "src/session/server.h"

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/cpu/idle_profiler.h"
#include "src/metrics/latency.h"
#include "src/obs/flight_recorder.h"
#include "src/session/os_profile.h"
#include "src/workload/typist.h"

namespace tcs {
namespace {

TEST(OsProfileTest, SchedulerFactoryMatchesKind) {
  EXPECT_EQ(OsProfile::Tse().MakeScheduler()->name(), "nt");
  EXPECT_EQ(OsProfile::LinuxX().MakeScheduler()->name(), "linux");
  EXPECT_EQ(OsProfile::LinuxSvr4().MakeScheduler()->name(), "svr4-ia");
}

TEST(OsProfileTest, LoginTablesMatchPaper) {
  OsProfile tse = OsProfile::Tse();
  Bytes tse_total = Bytes::Zero();
  for (const auto& p : tse.login_processes) {
    tse_total += p.private_memory;
  }
  EXPECT_EQ(tse_total, Bytes::KiB(3244));
  Bytes tse_light = Bytes::Zero();
  for (const auto& p : tse.light_login_processes) {
    tse_light += p.private_memory;
  }
  EXPECT_EQ(tse_light, Bytes::KiB(2100));

  OsProfile lin = OsProfile::LinuxX();
  Bytes lin_total = Bytes::Zero();
  for (const auto& p : lin.login_processes) {
    lin_total += p.private_memory;
  }
  EXPECT_EQ(lin_total, Bytes::KiB(752));
}

TEST(OsProfileTest, TseHasLongDaemonEventsLinuxDoesNot) {
  OsProfile tse = OsProfile::Tse();
  Duration tse_max = Duration::Zero();
  for (const auto& d : tse.idle_daemons) {
    tse_max = std::max(tse_max, d.episode_cpu);
  }
  EXPECT_EQ(tse_max, Duration::Millis(400));
  OsProfile lin = OsProfile::LinuxX();
  Duration lin_max = Duration::Zero();
  for (const auto& d : lin.idle_daemons) {
    lin_max = std::max(lin_max, d.episode_cpu);
  }
  EXPECT_LE(lin_max, Duration::Millis(5));
}

TEST(ServerTest, LoginAccountsSessionMemory) {
  Simulator sim;
  Server server(sim, OsProfile::Tse());
  size_t before = server.pager().frames_used();
  Session& s = server.Login();
  EXPECT_EQ(s.private_memory(), Bytes::KiB(3244));
  EXPECT_EQ(s.shared_memory(), Bytes::KiB(2676));
  // First login: 3244 KiB of private process pages + the 1000-page working set + the
  // one server-wide copy of the 2676 KiB of shared text (669 pages).
  size_t after = server.pager().frames_used();
  EXPECT_EQ(after - before, 811u + 1000u + 669u);
  // A second full login maps the same text: only private memory + working set grow —
  // §5.1.1's sublinear per-user bill.
  Session& second = server.Login();
  EXPECT_EQ(second.shared_memory(), Bytes::KiB(2676));
  EXPECT_EQ(server.pager().frames_used() - after, 811u + 1000u);
  Session& light = server.Login(true);
  EXPECT_EQ(light.private_memory(), Bytes::KiB(2100));
}

TEST(ServerTest, LoginSendsSessionSetupBytes) {
  Simulator sim;
  Server server(sim, OsProfile::Tse());
  EXPECT_EQ(server.link().bytes_carried(), Bytes::Zero());
  server.Login();
  // 45,328 bytes of setup plus per-packet wire headers.
  EXPECT_GT(server.link().bytes_carried(), Bytes::Of(45328));
}

TEST(ServerTest, KeystrokeEmitsDisplayUpdate) {
  Simulator sim;
  Server server(sim, OsProfile::LinuxX());
  Session& s = server.Login();
  sim.RunFor(Duration::Seconds(1));  // let the session-setup bytes drain off the link
  TimePoint updated = TimePoint::Infinite();
  s.set_on_display_update([&](TimePoint t) { updated = t; });
  TimePoint pressed = sim.Now();
  server.Keystroke(s);
  sim.RunFor(Duration::Seconds(1));
  // Input transit (~0.15 ms) + vim's 2.5 ms of work: update within a few ms.
  EXPECT_LT(updated - pressed, Duration::Millis(10));
  EXPECT_GT(server.tap().messages(Channel::kInput), 0);
  EXPECT_GT(server.tap().messages(Channel::kDisplay), 0);
}

// Keystrokes arriving faster than the pipeline drains coalesce into batched updates
// rather than queueing unboundedly (editors drain their input queues in one read).
TEST(ServerTest, RepeatCoalescesUnderLoad) {
  Simulator sim;
  Server server(sim, OsProfile::Tse());
  Session& s = server.Login();
  server.StartSinks(10);  // pipeline latency far above the 50 ms repeat period
  int updates = 0;
  s.set_on_display_update([&](TimePoint) { ++updates; });
  Typist typist(sim, [&] { server.Keystroke(s); });
  typist.Start(Duration::Seconds(1));
  sim.RunUntil(TimePoint::Zero() + Duration::Seconds(11));
  typist.Stop();
  // 200 keystrokes in 10 s, but far fewer (batched) updates.
  EXPECT_GT(updates, 2);
  EXPECT_LT(updates, 100);
}

TEST(ServerTest, DaemonsGenerateIdleActivity) {
  Simulator sim;
  Server server(sim, OsProfile::Tse());
  IdleLoopProfiler profiler(server.cpu());
  server.StartDaemons();
  sim.RunUntil(TimePoint::Zero() + Duration::Seconds(30));
  profiler.Flush();
  double busy_frac = profiler.TotalBusy().ToSecondsF() / 30.0;
  EXPECT_GT(busy_frac, 0.04);
  EXPECT_LT(busy_frac, 0.20);
}

TEST(ServerTest, TseIdleLoadExceedsLinux) {
  auto measure = [](OsProfile profile) {
    Simulator sim;
    Server server(sim, std::move(profile));
    IdleLoopProfiler profiler(server.cpu());
    server.StartDaemons();
    sim.RunUntil(TimePoint::Zero() + Duration::Seconds(60));
    profiler.Flush();
    return profiler.TotalBusy();
  };
  Duration tse = measure(OsProfile::Tse());
  Duration nt = measure(OsProfile::NtWorkstation());
  Duration lin = measure(OsProfile::LinuxX());
  EXPECT_GT(tse, nt);
  EXPECT_GT(nt, lin);
  // "TSE generates about three times the idle-state load that NT Workstation does, and
  // about seven times that of Linux."
  EXPECT_NEAR(tse / nt, 3.0, 1.2);
  EXPECT_NEAR(tse / lin, 7.0, 2.5);
}

// A ring record names a cpu segment after its thread, and a bundle renders after the
// run's Server is gone, so the name must not live in the Thread. Under ASan a name that
// did is a heap-use-after-free here.
TEST(ServerTest, FrozenWindowRendersAfterTheServerIsDestroyed) {
  Simulator sim;
  FlightRecorder recorder;
  {
    ServerConfig cfg;
    cfg.recorder = &recorder;
    Server server(sim, OsProfile::Tse(), cfg);
    Session& s = server.Login();
    server.Keystroke(s);
    sim.RunFor(Duration::Millis(500));
    recorder.Freeze(sim.Now());
  }
  std::ostringstream json_out;
  recorder.WriteWindowJson(json_out);
  std::string json = json_out.str();
  EXPECT_NE(json.find("\"name\":\"editor\",\"cat\":\"cpu\""), std::string::npos) << json;
}

}  // namespace
}  // namespace tcs
