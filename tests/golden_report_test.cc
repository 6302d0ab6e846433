// Golden-report regression corpus.
//
// A small OS x protocol x load matrix of consolidation runs (plus one capacity search
// and one case per interactive experiment preset) is rendered to report JSON and
// compared field-exactly against the canonical files in tests/golden/. Only run.wall_ms
// — the one nondeterministic field in any report — is neutralized before comparison.
// Any change to simulation behavior, report field order, or number formatting shows up
// as a diff here. Three SLO postmortem bundles (frozen trace window + forensic summary)
// are compared byte for byte against tests/golden/postmortem/.
//
// To re-bless after an intentional change: tools/regen_golden.sh (or run this binary
// with TCS_REGEN_GOLDEN=1).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/admission.h"
#include "src/core/experiments.h"
#include "src/core/report.h"
#include "src/obs/attribution.h"
#include "src/session/os_profile.h"

namespace tcs {
namespace {

std::string StripWall(const std::string& json) {
  static const std::regex kWall("\"wall_ms\":[-+0-9.eE]+");
  return std::regex_replace(json, kWall, "\"wall_ms\":0");
}

// Depth-1 keys of a JSON object, in document order. The full-string comparison below
// already fails on any drift, but a raw diff of a multi-kilobyte report is a poor
// error message for the most dangerous kind of drift — a *new* top-level block the
// golden file has never seen — so that case gets named explicitly first.
std::vector<std::string> TopLevelKeys(const std::string& json) {
  std::vector<std::string> keys;
  std::string current;
  int depth = 0;
  bool in_string = false, escape = false, expecting_key = false, capturing = false;
  for (char c : json) {
    if (in_string) {
      if (escape) {
        escape = false;
      } else if (c == '\\') {
        escape = true;
      } else if (c == '"') {
        in_string = false;
        if (capturing) {
          keys.push_back(current);
          capturing = false;
        }
        continue;
      }
      if (capturing) {
        current += c;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        if (depth == 1 && expecting_key) {
          capturing = true;
          current.clear();
        }
        break;
      case '{':
      case '[':
        ++depth;
        if (depth == 1 && c == '{') {
          expecting_key = true;
        }
        break;
      case '}':
      case ']':
        --depth;
        break;
      case ':':
        if (depth == 1) {
          expecting_key = false;
        }
        break;
      case ',':
        if (depth == 1) {
          expecting_key = true;
        }
        break;
      default:
        break;
    }
  }
  return keys;
}

// Empty when the two reports carry the same top-level blocks; otherwise a message
// naming each unknown or missing block.
std::string KeySetDiff(const std::string& actual, const std::string& golden) {
  std::vector<std::string> a = TopLevelKeys(actual);
  std::vector<std::string> g = TopLevelKeys(golden);
  std::string msg;
  for (const std::string& k : a) {
    if (std::find(g.begin(), g.end(), k) == g.end()) {
      msg += "unknown top-level block \"" + k + "\" not present in the golden file\n";
    }
  }
  for (const std::string& k : g) {
    if (std::find(a.begin(), a.end(), k) == a.end()) {
      msg += "top-level block \"" + k + "\" missing from the rendered report\n";
    }
  }
  return msg;
}

struct GoldenCase {
  const char* name;  // also the file stem under tests/golden/
  std::string (*render)();
};

std::string Consolidation(OsProfile profile, int users) {
  ConsolidationOptions opt;
  opt.users = users;
  opt.duration = Duration::Seconds(5);
  opt.seed = 1;
  opt.burst_cpu = Duration::Millis(200);
  return ToJson(RunConsolidation(profile, opt));
}

OsProfile LinuxLbx() {
  OsProfile profile = OsProfile::LinuxX();
  profile.protocol_kind = ProtocolKind::kLbx;
  return profile;
}

// The `tcsctl blame` grid cell: an end-to-end run with its own attribution engine.
std::string BlamedEndToEnd(const OsProfile& profile, const EndToEndOptions& opt,
                           bool decompose_network) {
  AttributionConfig attr_cfg;
  attr_cfg.decompose_network = decompose_network;
  LatencyAttribution attribution(attr_cfg);
  ObsConfig obs;
  obs.attribution = &attribution;
  return ToJson(RunEndToEndLatency(profile, opt, &obs));
}

// Every objective on, starvation included; an empty out_dir writes no bundle files.
SloSpec AllObjectives(const char* name) {
  SloSpec slo;
  slo.max_worst_p99_ms = 150.0;
  slo.max_starved_fraction = 0.0;
  slo.min_availability = 0.99;
  slo.max_link_backlog_bytes = 64 * 1024;
  slo.name = name;
  return slo;
}

std::string WanCell(bool degrade) {
  WanOptions opt;
  opt.profile = WanProfileByName("satellite");
  opt.degrade = degrade;
  opt.users = 3;
  opt.duration = Duration::Seconds(5);
  SloSpec slo = AllObjectives(degrade ? "wan_on" : "wan_off");
  ObsConfig obs;
  obs.slo = &slo;
  return ToJson(RunWanPoint(OsProfile::Tse(), opt, &obs));
}

std::string WhatIfCell(WhatIfAdjustment::Component component) {
  WhatIfOptions opt;
  opt.wan.profile = WanProfileByName("lte");
  opt.wan.duration = Duration::Seconds(5);
  opt.adjust.component = component;
  opt.adjust.speedup = 2.0;
  return ToJson(RunWhatIf(OsProfile::Tse(), opt));
}

// The corpus: OS x protocol x users, plus one full capacity search, then one case per
// experiment preset (append only: a case's position is part of its test name).
const GoldenCase kCases[] = {
    {"consolidation_tse_rdp_u1", [] { return Consolidation(OsProfile::Tse(), 1); }},
    {"consolidation_tse_rdp_u3", [] { return Consolidation(OsProfile::Tse(), 3); }},
    {"consolidation_linux_x_u1", [] { return Consolidation(OsProfile::LinuxX(), 1); }},
    {"consolidation_linux_x_u3", [] { return Consolidation(OsProfile::LinuxX(), 3); }},
    {"consolidation_linux_lbx_u3", [] { return Consolidation(LinuxLbx(), 3); }},
    {"consolidation_ntws_rdp_u2",
     [] { return Consolidation(OsProfile::NtWorkstation(), 2); }},
    {"capacity_tse_rdp",
     [] {
       CapacityOptions opt;
       opt.max_users = 4;
       opt.behavior.duration = Duration::Seconds(5);
       return ToJson(RunServerCapacity(OsProfile::Tse(), opt));
     }},
    {"typing_tse_rdp_sinks5",
     [] { return ToJson(RunTypingUnderLoad(OsProfile::Tse(), 5, Duration::Seconds(5))); }},
    {"sizing_tse_u4",
     [] { return ToJson(RunServerSizing(OsProfile::Tse(), 4, Duration::Seconds(5))); }},
    {"e2e_tse_winterm_bg4_sinks5",
     [] {
       EndToEndOptions opt;
       opt.sinks = 5;
       opt.background_mbps = 4.0;
       opt.client = ThinClientConfig::WinTerm();
       opt.duration = Duration::Seconds(5);
       return ToJson(RunEndToEndLatency(OsProfile::Tse(), opt));
     }},
    {"e2e_linux_loss2_blame",
     [] {
       EndToEndOptions opt;
       opt.duration = Duration::Seconds(5);
       opt.faults.link.loss_rate = 0.02;
       return BlamedEndToEnd(OsProfile::LinuxX(), opt, false);
     }},
    {"e2e_tse_lte_blame",
     [] {
       EndToEndOptions opt;
       opt.duration = Duration::Seconds(5);
       opt.faults.link.wan = WanProfileByName("lte");
       opt.faults.seed = opt.seed ^ 0xFA017u;
       return BlamedEndToEnd(OsProfile::Tse(), opt, true);
     }},
    {"chaos_tse_slo",
     [] {
       ChaosOptions opt;
       opt.loss_rate = 0.02;
       opt.flap_every = Duration::Millis(2000);
       opt.flap_duration = Duration::Millis(50);
       opt.disk_stall_rate = 0.01;
       opt.disconnect_every = Duration::Millis(3000);
       opt.sinks = 2;
       opt.duration = Duration::Seconds(5);
       SloSpec slo = AllObjectives("chaos");
       ObsConfig obs;
       obs.slo = &slo;
       return ToJson(RunChaosPoint(OsProfile::Tse(), opt, &obs));
     }},
    {"wan_tse_satellite_off", [] { return WanCell(false); }},
    {"wan_tse_satellite_on", [] { return WanCell(true); }},
    {"whatif_tse_lte_link2", [] { return WhatIfCell(WhatIfAdjustment::Component::kLink); }},
    {"whatif_tse_lte_cpu2", [] { return WhatIfCell(WhatIfAdjustment::Component::kCpu); }},
};

class GoldenReportTest : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(Corpus, GoldenReportTest,
                         ::testing::Range<size_t>(0, std::size(kCases)),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return std::string(kCases[info.param].name);
                         });

TEST_P(GoldenReportTest, ReportMatchesGoldenFieldForField) {
  const GoldenCase& c = kCases[GetParam()];
  std::string path = std::string(TCS_GOLDEN_DIR) + "/" + c.name + ".json";
  std::string actual = c.render() + "\n";

  if (std::getenv("TCS_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual;
    SUCCEED() << "regenerated " << path;
    return;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " — run tools/regen_golden.sh to create the corpus";
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string key_drift = KeySetDiff(actual, buffer.str());
  EXPECT_TRUE(key_drift.empty())
      << key_drift << "a report grew or lost a top-level block relative to " << path
      << " — if the change is intentional, re-bless with tools/regen_golden.sh";
  EXPECT_EQ(StripWall(actual), StripWall(buffer.str()))
      << "report drifted from " << path
      << " — if the change is intentional, re-bless with tools/regen_golden.sh";
}

// Postmortem bundles: the frozen flight-recorder window (<name>.trace.json) and the
// forensic summary (<name>.postmortem.json) of three violating runs, compared byte for
// byte with tests/golden/postmortem/. Neither file carries wall time or a path.
struct BundleCase {
  const char* name;  // the SLO name, so both the bundle stem and the golden stem
  void (*run)(const SloSpec& slo);
};

// No real run keeps its worst p99 under 1 ms, so every case violates.
const BundleCase kBundles[] = {
    // PostmortemDeterminismTest's chaos cell: a 5% lossy link, so the window holds
    // retransmissions and the bundle a blame digest (chaos points always attribute).
    {"chaos_tse_loss5",
     [](const SloSpec& slo) {
       ChaosOptions opt;
       opt.loss_rate = 0.05;
       opt.duration = Duration::Seconds(5);
       opt.seed = 7;
       ObsConfig obs;
       obs.slo = &slo;
       RunChaosPoint(OsProfile::Tse(), opt, &obs);
     }},
    // Three consolidated users with compute bursts and an attribution engine, so the
    // window carries blame spans and flow arrows across sessions.
    {"consolidation_tse_u3",
     [](const SloSpec& slo) {
       ConsolidationOptions opt;
       opt.users = 3;
       opt.duration = Duration::Seconds(5);
       opt.seed = 1;
       opt.burst_cpu = Duration::Millis(200);
       LatencyAttribution attribution;
       ObsConfig obs;
       obs.slo = &slo;
       obs.attribution = &attribution;
       RunConsolidation(OsProfile::Tse(), opt, &obs);
     }},
    // One typist and the media session over the satellite profile, degradation off: the
    // bufferbloat queue overflows, so the window holds frame-dropped and retransmit
    // records.
    {"wan_tse_satellite",
     [](const SloSpec& slo) {
       WanOptions opt;
       opt.profile = WanProfileByName("satellite");
       opt.users = 1;
       opt.duration = Duration::Seconds(5);
       ObsConfig obs;
       obs.slo = &slo;
       RunWanPoint(OsProfile::Tse(), opt, &obs);
     }},
};

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class PostmortemGoldenTest : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(Bundles, PostmortemGoldenTest,
                         ::testing::Range<size_t>(0, std::size(kBundles)),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return std::string(kBundles[info.param].name);
                         });

TEST_P(PostmortemGoldenTest, BundleMatchesGoldenByteForByte) {
  const BundleCase& c = kBundles[GetParam()];
  std::filesystem::path out_dir =
      std::filesystem::temp_directory_path() /
      ("tcs_golden_pm_" + std::string(c.name) + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(out_dir);
  SloSpec slo;
  slo.max_worst_p99_ms = 1.0;
  slo.name = c.name;
  slo.out_dir = out_dir.string();
  c.run(slo);

  for (const char* suffix : {".trace.json", ".postmortem.json"}) {
    std::string file = std::string(c.name) + suffix;
    std::string actual = ReadAll((out_dir / file).string());
    ASSERT_FALSE(actual.empty()) << "the run wrote no " << file;
    std::string path = std::string(TCS_GOLDEN_DIR) + "/postmortem/" + file;
    if (std::getenv("TCS_REGEN_GOLDEN") != nullptr) {
      std::filesystem::create_directories(std::string(TCS_GOLDEN_DIR) + "/postmortem");
      std::ofstream out(path, std::ios::binary);
      ASSERT_TRUE(out) << "cannot write " << path;
      out << actual;
      continue;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " — run tools/regen_golden.sh to create it";
    EXPECT_TRUE(actual == ReadAll(path))
        << file << " drifted from " << path
        << " — if the change is intentional, re-bless with tools/regen_golden.sh";
  }
  std::filesystem::remove_all(out_dir);
}

// Regression for the guard itself: a brand-new top-level block must be a *named*
// failure, both on synthetic documents and on a real rendered report. Nested keys are
// not top-level keys — growth inside an existing block is the string diff's job.
TEST(GoldenReportGuard, UnknownTopLevelBlockIsANamedFailure) {
  std::string golden = R"({"os":"tse","run":{"wall_ms":3}})";
  std::string grown = R"({"os":"tse","run":{"wall_ms":3},"new_block":{"x":1}})";
  EXPECT_EQ(KeySetDiff(golden, golden), "");
  std::string diff = KeySetDiff(grown, golden);
  EXPECT_NE(diff.find("unknown top-level block \"new_block\""), std::string::npos)
      << diff;
  std::string missing = KeySetDiff(golden, grown);
  EXPECT_NE(missing.find("\"new_block\" missing"), std::string::npos) << missing;
  EXPECT_EQ(KeySetDiff(R"({"a":{"b":1}})", R"({"a":{"c":{"d":2}}})"), "");
  EXPECT_EQ(KeySetDiff(R"({"a":["x","y"]})", R"({"a":[]})"), "");

  std::string report = Consolidation(OsProfile::Tse(), 1);
  std::string injected = report;
  injected.insert(injected.rfind('}'), R"(,"zzz_experimental":0)");
  std::string real_diff = KeySetDiff(injected, report);
  EXPECT_NE(real_diff.find("unknown top-level block \"zzz_experimental\""),
            std::string::npos)
      << real_diff;
}

}  // namespace
}  // namespace tcs
