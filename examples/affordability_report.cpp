// Affordability report: evaluate any plan price against the un(der)served
// income distribution, with and without the Lifeline subsidy, at a
// configurable affordability threshold.
//
//   $ ./affordability_report [--trace FILE] [--metrics[=FILE]]
//                            [monthly_usd] [threshold]
//
// Defaults: $120/month (Starlink Residential), 2% of monthly income (the
// A4AI / UN Broadband Commission "1 for 2" rule). `--trace`/`--metrics`
// work as in national_analysis (README.md, "Observability").

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "leodivide/afford/affordability.hpp"
#include "leodivide/demand/generator.hpp"
#include "leodivide/io/table.hpp"
#include "leodivide/obs/obs.hpp"

int main(int argc, char** argv) {
  using namespace leodivide;

  // Besides the observability flags, positional args only: a stray --flag
  // would otherwise parse as $0.00.
  obs::Options obs_options = obs::options_from_env();
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    if (obs::parse_cli_arg(obs_options, argc, argv, i)) continue;
    if (std::string(argv[i]).rfind("--", 0) == 0) {
      std::cerr << "unknown flag: " << argv[i]
                << "\nusage: affordability_report [--trace FILE]"
                   " [--metrics[=FILE]] [monthly_usd] [threshold]\n";
      return 2;
    }
    positional.emplace_back(argv[i]);
  }

  const double monthly =
      positional.size() > 0 ? std::atof(positional[0].c_str()) : 120.0;
  const double threshold =
      positional.size() > 1 ? std::atof(positional[1].c_str()) : 0.02;
  if (monthly < 0.0 || threshold <= 0.0) {
    std::cerr << "usage: affordability_report [monthly_usd] [threshold]\n";
    return 1;
  }
  obs::apply(obs_options);

  std::cout << "generating national demand profile...\n\n";
  const demand::DemandProfile profile =
      demand::SyntheticGenerator{demand::GeneratorConfig{}}
          .generate_profile();
  const afford::AffordabilityAnalyzer analyzer(profile);

  const afford::ServicePlan plan{"Custom plan", monthly, {100.0, 20.0}};
  const afford::ServicePlan subsidized{"Custom plan w/ Lifeline",
                                       afford::with_lifeline(monthly),
                                       {100.0, 20.0}};

  io::TextTable table;
  table.set_header({"Plan", "$/month", "Income needed",
                    "Locations unable", "Fraction"});
  for (const auto& p : {plan, subsidized}) {
    const auto r = analyzer.evaluate(p, threshold);
    table.add_row({p.name, io::fmt(p.monthly_usd, 2),
                   "$" + io::fmt_count(std::llround(r.income_required_usd)),
                   io::fmt_count(std::llround(r.locations_unable)),
                   io::fmt_pct(r.fraction_unable, 1)});
  }
  std::cout << "At a " << io::fmt_pct(threshold, 1)
            << "-of-monthly-income affordability rule:\n"
            << table.render() << '\n';

  // Price sensitivity: how cheap must the plan get?
  io::TextTable sweep;
  sweep.set_header({"$/month", "locations unable", "fraction"});
  for (double price : {20.0, 40.0, 50.0, 60.0, 80.0, 100.0, 110.75, 120.0,
                       150.0}) {
    const auto r = analyzer.evaluate(
        afford::ServicePlan{"sweep", price, {100.0, 20.0}}, threshold);
    sweep.add_row({io::fmt(price, 2),
                   io::fmt_count(std::llround(r.locations_unable)),
                   io::fmt_pct(r.fraction_unable, 2)});
  }
  std::cout << "Price sensitivity:\n" << sweep.render() << '\n';

  // Where does the price have to land for near-universal affordability?
  const double p999 = analyzer.income().income_quantile(0.001) * threshold /
                      12.0;
  std::cout << "For 99.9% of un(der)served locations to afford service at "
               "this rule, the monthly price must not exceed $"
            << io::fmt(p999, 2) << ".\n";
  obs::finalize(obs_options);
  return 0;
}
