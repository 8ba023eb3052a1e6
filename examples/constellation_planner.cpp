// Constellation planner: given a target service quality (max acceptable
// oversubscription) and a satellite budget, find the (beamspread,
// locations-left-unserved) operating points that fit the budget.
//
//   $ ./constellation_planner [--trace FILE] [--metrics[=FILE]]
//                             [satellite_budget] [oversub_cap]
//
// Defaults: 8000 satellites (roughly today's deployed fleet), 20:1 (the
// FCC's fixed-wireless benchmark). `--trace`/`--metrics` work as in
// national_analysis (README.md, "Observability").

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "leodivide/core/longtail.hpp"
#include "leodivide/core/sizing.hpp"
#include "leodivide/demand/generator.hpp"
#include "leodivide/io/table.hpp"
#include "leodivide/obs/obs.hpp"

int main(int argc, char** argv) {
  using namespace leodivide;

  // Besides the observability flags, positional args only: a stray --flag
  // would otherwise parse as 0.
  obs::Options obs_options = obs::options_from_env();
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    if (obs::parse_cli_arg(obs_options, argc, argv, i)) continue;
    if (std::string(argv[i]).rfind("--", 0) == 0) {
      std::cerr << "unknown flag: " << argv[i]
                << "\nusage: constellation_planner [--trace FILE]"
                   " [--metrics[=FILE]] [satellite_budget] [oversub_cap]\n";
      return 2;
    }
    positional.emplace_back(argv[i]);
  }

  const double budget =
      positional.size() > 0 ? std::atof(positional[0].c_str()) : 8000.0;
  const double cap =
      positional.size() > 1 ? std::atof(positional[1].c_str()) : 20.0;
  if (budget <= 0.0 || cap <= 0.0) {
    std::cerr << "usage: constellation_planner [satellite_budget] "
                 "[oversub_cap]\n";
    return 1;
  }
  obs::apply(obs_options);

  std::cout << "Constellation planner: budget "
            << io::fmt_count(std::llround(budget))
            << " satellites, max oversubscription " << io::fmt(cap, 0)
            << ":1\n\ngenerating national demand profile...\n\n";
  const demand::DemandProfile profile =
      demand::SyntheticGenerator{demand::GeneratorConfig{}}
          .generate_profile();
  const core::SizingModel model;

  // For each beamspread: cost of full coverage at the cap, and what must be
  // left unserved to fit the budget (the Figure-3 curve at the budget).
  io::TextTable table;
  table.set_header({"beamspread", "sats for full service @cap",
                    "fits budget?", "min locations unserved within budget",
                    "per-cell capacity (Gbps)"});
  for (double s : {1.0, 2.0, 3.0, 5.0, 8.0, 10.0, 15.0}) {
    const double full = core::size_with_cap(profile, model, s, cap).satellites;
    const auto curve = core::longtail_curve(profile, model, s, cap);
    std::string min_unserved = "n/a (over budget at every step)";
    for (const auto& p : curve) {
      if (p.satellites <= budget) {
        min_unserved =
            io::fmt_count(static_cast<long long>(p.locations_unserved));
        break;
      }
    }
    table.add_row({io::fmt(s, 0), io::fmt_count(std::llround(full)),
                   full <= budget ? "yes" : "no", min_unserved,
                   io::fmt(model.capacity.cell_capacity_gbps() / s, 2)});
  }
  std::cout << table.render() << '\n';

  std::cout << "Reading the table: higher beamspread shrinks the fleet but "
               "divides per-cell capacity, pushing more cells over the "
            << io::fmt(cap, 0)
            << ":1 limit (Figure 2's tradeoff). The 'locations unserved' "
               "column is the Figure 3 curve evaluated at your budget.\n";
  obs::finalize(obs_options);
  return 0;
}
