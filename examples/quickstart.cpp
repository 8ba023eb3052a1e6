// Quickstart: generate the calibrated national demand profile and reproduce
// the paper's headline numbers in one call.
//
//   $ ./quickstart [--trace FILE] [--metrics[=FILE]] [scale]
//
// `scale` in (0, 1] shrinks the synthetic dataset (default 1.0 = the full
// 4.67M-location national profile). `--trace`/`--metrics` (or
// LEODIVIDE_TRACE / LEODIVIDE_METRICS) write a Chrome trace and the
// metrics registry at exit (see README.md, "Observability").

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "leodivide/core/report.hpp"
#include "leodivide/demand/generator.hpp"
#include "leodivide/obs/obs.hpp"

int main(int argc, char** argv) {
  using namespace leodivide;

  // Besides the observability flags, positional args only: a stray --flag
  // would otherwise parse as scale 0.
  obs::Options obs_options = obs::options_from_env();
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    if (obs::parse_cli_arg(obs_options, argc, argv, i)) continue;
    if (std::string(argv[i]).rfind("--", 0) == 0) {
      std::cerr << "unknown flag: " << argv[i]
                << "\nusage: quickstart [--trace FILE] [--metrics[=FILE]]"
                   " [scale in (0,1]]\n";
      return 2;
    }
    positional.emplace_back(argv[i]);
  }

  demand::GeneratorConfig config;
  if (!positional.empty()) config.scale = std::atof(positional[0].c_str());
  if (config.scale <= 0.0 || config.scale > 1.0) {
    std::cerr << "usage: quickstart [scale in (0,1]]\n";
    return 1;
  }
  obs::apply(obs_options);

  std::cout << "Generating calibrated synthetic demand profile (scale="
            << config.scale << ") ...\n";
  const demand::SyntheticGenerator generator(config);
  const demand::DemandProfile profile = generator.generate_profile();
  std::cout << "  cells: " << profile.cell_count()
            << ", un(der)served locations: " << profile.total_locations()
            << ", counties: " << profile.counties().size() << "\n\n";

  const auto results = core::run_full_analysis(profile);
  std::cout << core::render_report(results) << '\n';
  obs::finalize(obs_options);
  return 0;
}
