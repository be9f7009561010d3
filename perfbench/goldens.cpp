// Pinned scenario seeds and their golden fingerprints.
//
// Regenerate with `perfbench --pin` (and `--pin --smoke`) after a change
// that moves the products on purpose (a kCalibrationVersion bump); any
// other change that moves one of these is a regression.
#include <cinttypes>

#include "analysis/cache.h"
#include "workloads.h"

namespace perfbench {

const std::vector<Golden>& study_goldens(bool smoke) {
  static const std::vector<Golden> full = {
      {1, 0xb5841e868f8621ce, 0xeb3a56f65efe7f30},
      {2, 0x245c45841fb6143d, 0x2259fd68f46c07f9},
      {3, 0x016493f7cbc44b55, 0xb5c719807d85183b},
  };
  static const std::vector<Golden> small = {
      {1, 0xe730988bc57814d0, 0x5450812b41369681},
      {2, 0x48bc63144246380b, 0x0b2e80ee06013527},
  };
  return smoke ? small : full;
}

const std::vector<Golden>& tick_goldens(bool smoke) {
  static const std::vector<Golden> full = {
      {1, 0x45579124bb155e52, 0x604e227f80105749},
      {2, 0xfa23cb6dd9c8ac99, 0x594c05195c544c4d},
      {3, 0x73cc1025b6b377a5, 0xd19ffa2bce00dd81},
  };
  static const std::vector<Golden> small = {
      {1, 0x205b44f436e05f96, 0x99046287809f9b4b},
      {2, 0xf65be5bde3f3e74d, 0x6539aa72eadc3dbf},
  };
  return smoke ? small : full;
}

int print_goldens(bool smoke) {
  using namespace reuse;
  std::printf("study:\n");
  for (const Golden& g : study_goldens(smoke)) {
    const analysis::Scenario s =
        analysis::run_scenario(study_config(g.scenario_seed, smoke));
    std::printf("      {%" PRIu64 ", 0x%016" PRIx64 ", 0x%016" PRIx64 "},\n",
                g.scenario_seed, products_of(s), build_snapshot(s).fingerprint());
    std::fflush(stdout);
  }
  std::printf("tick:\n");
  for (const Golden& g : tick_goldens(smoke)) {
    const analysis::Scenario s = analysis::run_scenario(
        analysis::extend_scenario_days(tick_base_config(g.scenario_seed, smoke), 1));
    std::printf("      {%" PRIu64 ", 0x%016" PRIx64 ", 0x%016" PRIx64 "},\n",
                g.scenario_seed, products_of(s), build_snapshot(s).fingerprint());
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace perfbench
