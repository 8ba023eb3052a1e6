#include "leodivide/core/report.hpp"

#include <cmath>
#include <sstream>

#include "leodivide/io/table.hpp"
#include "leodivide/obs/trace.hpp"

namespace leodivide::core {

using io::fmt;
using io::fmt_count;
using io::fmt_pct;

std::string render_table1(const Table1Summary& t) {
  io::TextTable table;
  table.set_header({"Parameter", "Value"});
  table.add_row({"UT downlink spectrum", fmt(t.ut_downlink_mhz, 0) + " MHz"});
  table.add_row({"Total spectrum (incl. GW)", fmt(t.total_mhz, 0) + " MHz"});
  table.add_row({"UT beams / total beams",
                 std::to_string(t.ut_beams) + " / " +
                     std::to_string(t.total_beams)});
  table.add_row({"Spectral efficiency",
                 fmt(t.spectral_efficiency, 1) + " bps/Hz"});
  table.add_row({"Max per-cell capacity",
                 fmt(t.max_cell_capacity_gbps, 3) + " Gbps"});
  table.add_row({"Peak cell users", fmt_count(t.peak_cell_users)});
  table.add_row({"FCC throughput requirement",
                 fmt(t.required_down_mbps, 0) + "/" +
                     fmt(t.required_up_mbps, 0) + " Mbps (DL/UL)"});
  table.add_row({"Peak cell DL demand",
                 fmt(t.peak_cell_demand_gbps, 1) + " Gbps"});
  std::string oversub = "~";
  oversub += fmt(t.max_oversubscription, 1);
  oversub += ":1";
  table.add_row({"Max DL oversubscription", oversub});
  return table.render();
}

std::string render_f1(const OversubscriptionReport& r) {
  std::ostringstream os;
  os << "F1: peak-cell oversubscription " << fmt(r.peak_oversubscription, 1)
     << ":1; at 20:1 a full-capacity cell serves "
     << fmt_count(r.max_locations_at_cap) << " locations.\n"
     << "    Full service: " << fmt_count(static_cast<long long>(
            r.locations_above_cap))
     << " locations (" << fmt_pct(static_cast<double>(r.locations_above_cap) /
                                      static_cast<double>(r.total_locations))
     << " of " << fmt_count(static_cast<long long>(r.total_locations))
     << ") served above the cap across " << r.cells_above_cap << " cells.\n"
     << "    Capped at 20:1: "
     << fmt_count(static_cast<long long>(r.locations_unservable_at_cap))
     << " locations unservable -> "
     << fmt_pct(r.servable_fraction_at_cap) << " of locations servable.\n";
  return os.str();
}

std::string render_table2(const std::vector<Table2Row>& rows) {
  io::TextTable table;
  table.set_header({"Beamspread factor", "Constellation size (full service)",
                    "Constellation size (max 20:1 oversub.)"});
  for (const auto& r : rows) {
    table.add_row({fmt(r.beamspread, 0),
                   fmt_count(std::llround(r.satellites_full_service)),
                   fmt_count(std::llround(r.satellites_capped))});
  }
  return table.render();
}

std::string render_fig2(const std::vector<double>& beamspreads,
                        const std::vector<double>& oversubs,
                        const std::vector<std::vector<double>>& grid) {
  io::TextTable table;
  std::vector<std::string> header{"beamspread \\ oversub"};
  for (double o : oversubs) header.push_back(fmt(o, 0));
  table.set_header(std::move(header));
  for (std::size_t i = 0; i < beamspreads.size(); ++i) {
    std::vector<std::string> row{fmt(beamspreads[i], 0)};
    for (double v : grid[i]) row.push_back(fmt(v, 3));
    table.add_row(std::move(row));
  }
  return table.render();
}

std::string render_fig3(const std::vector<Fig3Curve>& curves) {
  io::TextTable table;
  table.set_header({"Beamspread", "Oversub", "Steps",
                    "Unservable residue", "Max satellites",
                    "Cheapest step"});
  for (const auto& c : curves) {
    const auto& pts = c.points;
    table.add_row({fmt(c.beamspread, 0), fmt(c.oversub, 0),
                   std::to_string(pts.size()),
                   fmt_count(static_cast<long long>(
                       pts.front().locations_unserved)),
                   fmt_count(std::llround(pts.front().satellites)),
                   fmt_count(std::llround(pts.back().satellites))});
  }
  return table.render();
}

std::string render_fig4(const std::vector<afford::PlanAffordability>& plans) {
  io::TextTable table;
  table.set_header({"Plan", "$/month", "Income needed (2%)",
                    "Locations unable", "Fraction"});
  for (const auto& p : plans) {
    table.add_row({p.plan.name, fmt(p.plan.monthly_usd, 2),
                   fmt_count(std::llround(p.income_required_usd)),
                   fmt_count(std::llround(p.locations_unable)),
                   fmt_pct(p.fraction_unable, 1)});
  }
  return table.render();
}

std::string render_report(const AnalysisResults& results) {
  const obs::Span span("core.render_report");
  std::ostringstream os;
  os << "== Table 1: Starlink single-satellite capacity model ==\n"
     << render_table1(results.table1) << '\n'
     << "== F1: oversubscription ==\n"
     << render_f1(results.f1) << '\n'
     << "== Table 2: predicted constellation size ==\n"
     << render_table2(results.table2) << '\n'
     << "== Figure 2: fraction of US cells served ==\n"
     << render_fig2(results.fig2_beamspreads, results.fig2_oversubs,
                    results.fig2_grid)
     << '\n'
     << "== Figure 3: diminishing returns (long tail) ==\n"
     << render_fig3(results.fig3) << '\n'
     << "== Figure 4: affordability ==\n"
     << render_fig4(results.fig4);
  return os.str();
}

}  // namespace leodivide::core
