// Config fuzzing: randomized *invalid* configurations must always surface as a
// structured ConfigError — never an assert, a crash, a hang, or a silently nonsensical
// simulation. Each case draws a valid config, applies one randomly chosen invalidating
// mutation, and checks the construction/validation path throws ConfigError (and
// nothing else). Runs under ASan/UBSan in CI, so any latent UB on the rejection paths
// fails loudly.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "src/core/admission.h"
#include "src/fault/fault_plan.h"
#include "src/mem/disk.h"
#include "src/net/endpoint.h"
#include "src/net/link.h"
#include "src/session/server.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/util/config_error.h"

namespace tcs {
namespace {

class ConfigFuzz : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigFuzz,
                         ::testing::Values<uint64_t>(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// Runs `fn` and requires that it throws ConfigError specifically: any other exception
// (or none) is a bug in the rejection path.
template <typename Fn>
void ExpectConfigError(Fn fn, const char* what) {
  try {
    fn();
    ADD_FAILURE() << what << ": invalid config was accepted";
  } catch (const ConfigError&) {
    // expected
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": threw " << e.what() << " instead of ConfigError";
  }
}

// Negative or otherwise impossible magnitudes to mutate fields with.
int64_t BadMagnitude(Rng& rng) {
  switch (rng.NextInt(0, 2)) {
    case 0:
      return 0;
    case 1:
      return -1;
    default:
      return -rng.NextInt(1, 1000000);
  }
}

// The link path's one validated setting: the per-packet headers a sender counts must
// leave payload room in the 1500-byte MTU.
TEST_P(ConfigFuzz, InvalidLinkConfigsAlwaysThrow) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    HeaderModel headers;
    headers.tcp = Bytes::Of(rng.NextInt(0, 3000));
    headers.ip = Bytes::Of(std::max<int64_t>(0, kMtu.count() - headers.tcp.count()) +
                           rng.NextInt(0, 500));
    LinkConfig cfg;
    cfg.csma_cd = rng.NextBool(0.5);
    ExpectConfigError(
        [&] {
          Simulator sim;
          Link link(sim, cfg);
          MessageSender sender(link, headers);
        },
        "HeaderModel");
  }
}

TEST_P(ConfigFuzz, InvalidDiskConfigsAlwaysThrow) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    DiskConfig cfg;
    if (rng.NextBool(0.5)) {
      cfg.transfer_rate = BitsPerSecond::Of(BadMagnitude(rng));
    } else {
      cfg.positioning_mean = Duration::Micros(-rng.NextInt(1, 100000));
    }
    ExpectConfigError(
        [&] {
          Simulator sim;
          Disk disk(sim, Rng(1), cfg);
        },
        "DiskConfig");
  }
}

TEST_P(ConfigFuzz, InvalidFaultPlansAlwaysThrow) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    FaultPlan plan;
    switch (rng.NextInt(0, 5)) {
      case 0:  // rates live in [0, 1)
        plan.link.loss_rate = rng.NextBool(0.5) ? 1.0 + rng.NextDouble() : -0.25;
        break;
      case 1:
        plan.disk.error_rate = rng.NextBool(0.5) ? 1.5 : -rng.NextDouble();
        break;
      case 2: {  // overlapping outage windows
        TimePoint a = TimePoint::FromMicros(rng.NextInt(0, 1000));
        plan.link.scripted_outages = {
            {a, a + Duration::Millis(100)},
            {a + Duration::Millis(50), a + Duration::Millis(200)}};
        break;
      }
      case 3: {  // empty (until <= from) outage window
        TimePoint a = TimePoint::FromMicros(rng.NextInt(1000, 2000));
        plan.link.scripted_outages = {{a, a - Duration::Micros(rng.NextInt(0, 999))}};
        break;
      }
      case 4:  // flap_every without flap_duration (and vice versa)
        if (rng.NextBool(0.5)) {
          plan.link.flap_every = Duration::Millis(500);
        } else {
          plan.link.flap_duration = Duration::Millis(50);
        }
        break;
      default:  // a WAN profile that delivers frames before they are sent
        plan.link.wan.extra_delay = Duration::Micros(-rng.NextInt(1, 100000));
        break;
    }
    ExpectConfigError([&] { Validate(plan); }, "FaultPlan");
    // The same plan through the server's front door must be rejected identically,
    // before any model is built.
    ExpectConfigError(
        [&] {
          Simulator sim;
          ServerConfig cfg;
          cfg.faults = plan;
          Server server(sim, OsProfile::Tse(), cfg);
        },
        "ServerConfig.faults");
  }
}

TEST_P(ConfigFuzz, InvalidServerConfigsAlwaysThrow) {
  Rng rng(GetParam());
  for (int i = 0; i < 30; ++i) {
    ServerConfig cfg;
    cfg.ram = Bytes::Of(BadMagnitude(rng));
    ExpectConfigError(
        [&] {
          Simulator sim;
          Server server(sim, OsProfile::LinuxX(), cfg);
        },
        "ServerConfig");
  }
}

TEST_P(ConfigFuzz, InvalidConsolidationOptionsAlwaysThrow) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    ConsolidationOptions opt;
    switch (rng.NextInt(0, 7)) {
      case 0:
        opt.users = -static_cast<int>(rng.NextInt(0, 100));
        break;
      case 1:
        opt.duration = Duration::Micros(BadMagnitude(rng));
        break;
      case 2:
        opt.keystroke_period = Duration::Micros(BadMagnitude(rng));
        break;
      case 3:
        opt.processors = -static_cast<int>(rng.NextInt(0, 16));
        break;
      case 4:
        opt.ram = Bytes::Of(BadMagnitude(rng));
        break;
      case 5:
        opt.stagger = Duration::Micros(-rng.NextInt(1, 100000));
        break;
      case 6:
        opt.burst_cpu = Duration::Millis(100);
        opt.burst_period = Duration::Micros(BadMagnitude(rng));
        break;
      default:
        opt.sinks = -static_cast<int>(rng.NextInt(1, 100));
        break;
    }
    ExpectConfigError([&] { Validated(opt); }, "ConsolidationOptions");
    // RunConsolidation must reject the same shapes up front rather than simulating
    // nonsense (e.g. a zero-cadence typist spinning forever).
    ExpectConfigError([&] { RunConsolidation(OsProfile::Tse(), opt); },
                      "RunConsolidation");
  }
}

TEST_P(ConfigFuzz, InvalidCapacityOptionsAlwaysThrow) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    CapacityOptions opt;
    switch (rng.NextInt(0, 3)) {
      case 0:
        opt.max_users = -static_cast<int>(rng.NextInt(0, 50));
        break;
      case 1:
        opt.admission.max_utilization =
            rng.NextBool(0.5) ? -rng.NextDouble() : 1.0 + rng.NextDouble() + 1e-9;
        break;
      case 2:
        opt.admission.max_p99_stall = Duration::Micros(BadMagnitude(rng));
        break;
      default:
        opt.behavior.keystroke_period = Duration::Micros(BadMagnitude(rng));
        break;
    }
    ExpectConfigError([&] { Validated(opt); }, "CapacityOptions");
    ExpectConfigError([&] { RunServerCapacity(OsProfile::Tse(), opt); },
                      "RunServerCapacity");
  }
}

}  // namespace
}  // namespace tcs
