// Extension: beyond the paper's downlink-only analysis — (a) is the uplink
// an even tighter constraint at the peak cell, and (b) can bent-pipe
// gateway backhaul sustain the user beams at full tilt?

#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "leodivide/core/backhaul.hpp"
#include "leodivide/core/uplink.hpp"
#include "leodivide/geo/us_outline.hpp"
#include "leodivide/sim/gateway.hpp"

int main(int argc, char** argv) {
  const leodivide::bench::ObsGuard obs_guard(argc, argv);
  const leodivide::bench::WallTimer timer;
  using namespace leodivide;
  bench::banner("Extension (a): uplink vs downlink at the peak cell");

  const core::SatelliteCapacityModel down;
  const core::UplinkModel up;
  const auto& profile = bench::national_profile();

  std::cout << "UT uplink spectrum: " << io::fmt(up.ut_uplink_mhz, 0)
            << " MHz (14.0-14.5 GHz) at " << io::fmt(up.bps_per_hz, 1)
            << " bps/Hz -> " << io::fmt(up.cell_capacity_gbps(), 2)
            << " Gbps per cell (vs " << io::fmt(down.cell_capacity_gbps(), 2)
            << " Gbps downlink)\n\n";

  io::TextTable table;
  table.set_header({"cell size (locations)", "DL oversub", "UL oversub",
                    "UL/DL ratio"});
  for (std::uint32_t locs : {100U, 552U, 1437U, 3465U, 5998U}) {
    const auto r = core::analyze_uplink(down, up, locs);
    table.add_row({io::fmt_count(locs),
                   io::fmt(r.downlink_oversubscription, 1) + ":1",
                   io::fmt(r.uplink_oversubscription, 1) + ":1",
                   io::fmt(r.uplink_to_downlink_ratio, 2)});
  }
  std::cout << table.render() << '\n';

  const auto peak = core::analyze_uplink(down, up, profile.peak_cell_count());
  std::cout << "At a 20:1 uplink oversubscription a cell serves at most "
            << io::fmt_count(peak.max_locations_at_20to1_uplink)
            << " locations (vs " << io::fmt_count(down.max_locations_at(20.0))
            << " for downlink): with only 500 MHz of UT uplink, the 20 Mbps "
               "federal uplink floor binds "
            << io::fmt(peak.uplink_to_downlink_ratio, 1)
            << "x harder than the 100 Mbps downlink floor. The paper's "
               "downlink-only analysis is therefore *conservative*: the "
               "true constellation requirement is at least as large.\n\n";

  bench::banner("Extension (b): gateway backhaul adequacy");
  const core::BackhaulModel bh;
  const auto r = core::analyze_backhaul(down, bh);
  io::TextTable btable;
  btable.set_header({"Quantity", "Value"});
  btable.add_row({"user beams at full tilt",
                  io::fmt(r.user_capacity_gbps, 1) + " Gbps"});
  btable.add_row({"feeder capacity (" + std::to_string(bh.feeder_links) +
                      " links x " + io::fmt(bh.feeder_mhz, 0) + " MHz)",
                  io::fmt(r.feeder_capacity_gbps, 1) + " Gbps"});
  btable.add_row({"adequacy ratio (feeder/user)",
                  io::fmt(r.adequacy_ratio, 2)});
  btable.add_row({"bent-pipe fraction of user capacity",
                  io::fmt_pct(r.bent_pipe_fraction, 1)});
  std::cout << btable.render() << '\n';

  // Gateway sites to sustain a Table-2-scale fleet over CONUS.
  for (double fleet : {8000.0, 41261.0}) {
    const double sites = core::gateway_sites_needed(
        bh, fleet, 53.0, 39.5, geo::conus_area_km2());
    std::cout << "fleet of " << io::fmt_count(std::llround(fleet))
              << " satellites -> ~" << io::fmt_count(std::llround(sites))
              << " CONUS gateway sites to hold " << bh.feeder_links
              << " feeder links per overhead satellite\n";
  }
  // Geometric complement: gateway sites so every satellite position over
  // CONUS sees at least one gateway (greedy set cover on a candidate grid).
  {
    std::vector<geo::GeoPoint> candidates;
    const auto& outline = geo::conus_outline();
    for (double lat = 26.0; lat <= 48.0; lat += 3.0) {
      for (double lon = -123.0; lon <= -69.0; lon += 3.0) {
        if (outline.contains({lat, lon})) candidates.push_back({lat, lon});
      }
    }
    const auto placement =
        sim::place_gateways(candidates, geo::conus_bbox());
    std::cout << "\ngeometric minimum (greedy set cover): "
              << placement.sites.size()
              << " gateway sites give every satellite position over CONUS a "
                 "feeder within the footprint ("
              << placement.uncovered_samples
              << " offshore sample points unreachable from land "
                 "candidates).\n";
  }

  std::cout << "\nReading: with two feeder links a satellite's bent-pipe "
               "backhaul roughly sustains its user beams (ratio ~"
            << io::fmt(r.adequacy_ratio, 2)
            << "), but the gateway ground segment must scale with the "
               "constellation — another cost the headline satellite count "
               "hides.\n";
  leodivide::bench::emit_json_line("extension_uplink_backhaul", timer.elapsed_ms());
  return 0;
}
