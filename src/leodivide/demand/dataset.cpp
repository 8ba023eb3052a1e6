#include "leodivide/demand/dataset.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <ostream>
#include <stdexcept>
#include <string>

#include "leodivide/io/csv.hpp"
#include "leodivide/obs/metrics.hpp"
#include "leodivide/obs/trace.hpp"

namespace leodivide::demand {

namespace {

double to_double(const std::string& s, const char* what) {
  // from_chars takes every field a CSV writer emits. Anything it does not
  // consume whole, and the values strtod flags (out of range, subnormal)
  // or spells differently (inf, nan payloads), take the std::stod path, so
  // the accepted inputs, values and error messages stay those of stod.
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  const int kind = std::fpclassify(v);
  if (ec == std::errc{} && ptr == s.data() + s.size() &&
      (kind == FP_NORMAL || kind == FP_ZERO)) {
    return v;
  }
  try {
    std::size_t pos = 0;
    v = std::stod(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error(std::string("CSV: bad double for ") + what +
                             ": '" + s + "'");
  }
}

std::uint64_t to_u64(const std::string& s, const char* what) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw std::runtime_error(std::string("CSV: bad integer for ") + what +
                             ": '" + s + "'");
  }
  return v;
}

// Strictly hex digits, as save_csv writes them: no sign, prefix, space or
// trailing byte.
hex::CellId to_cell_id(const std::string& s) {
  std::uint64_t bits = 0;
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), bits, 16);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw std::runtime_error("CSV: bad cell id: '" + s + "'");
  }
  return hex::CellId::from_bits(bits);
}

void count_parsed(const io::CsvReader& reader) {
  if (obs::metrics_enabled()) {
    static obs::Counter& parsed =
        obs::registry().counter("io.csv.bytes_parsed");
    parsed.add(reader.bytes_read());
  }
}

// Calls `on_row` for every record after the header, checking its width.
template <typename OnRow>
void read_records(std::istream& in, std::size_t width, const char* what,
                  OnRow on_row) {
  io::CsvReader reader(in);
  io::CsvRow row;
  bool header = true;
  while (reader.next(row)) {
    if (header) {
      header = false;
      continue;
    }
    if (row.size() != width) {
      throw std::runtime_error(std::string(what) + " CSV: bad width");
    }
    on_row(row);
  }
  count_parsed(reader);
}

void save_counties(std::ostream& out, const CountyTable& counties) {
  io::CsvWriter w(out);
  w.write_row({"fips", "lat", "lon", "median_income_usd", "underserved"});
  for (const auto& k : counties.all()) {
    w.field(k.fips)
        .field_fixed6(k.centroid.lat_deg)
        .field_fixed6(k.centroid.lon_deg)
        .field_fixed6(k.median_income_usd)
        .field_uint(k.underserved_locations)
        .end_row();
  }
}

CountyTable load_counties(std::istream& in) {
  CountyTable counties;
  read_records(in, 5, "county", [&counties](const io::CsvRow& row) {
    counties.add(County{row[0],
                        {to_double(row[1], "lat"), to_double(row[2], "lon")},
                        to_double(row[3], "income"),
                        to_u64(row[4], "underserved")});
  });
  return counties;
}

}  // namespace

double CellDemand::demand_gbps() const noexcept {
  return static_cast<double>(underserved) * location_demand_gbps();
}

DemandProfile::DemandProfile(std::vector<CellDemand> cells,
                             CountyTable counties)
    : cells_(std::move(cells)), counties_(std::move(counties)) {
  for (const auto& c : cells_) {
    if (c.county_index >= counties_.size()) {
      throw std::invalid_argument("DemandProfile: cell county out of range");
    }
  }
}

CellDemand& DemandProfile::cell_at(std::size_t index) {
  if (index >= cells_.size()) {
    throw std::out_of_range("DemandProfile: cell index out of range");
  }
  return cells_[index];
}

std::size_t DemandProfile::add_cell(CellDemand cell) {
  if (cell.county_index >= counties_.size()) {
    throw std::invalid_argument("DemandProfile: cell county out of range");
  }
  cells_.push_back(cell);
  return cells_.size() - 1;
}

std::uint64_t DemandProfile::total_locations() const noexcept {
  std::uint64_t total = 0;
  for (const auto& c : cells_) total += c.underserved;
  return total;
}

std::vector<double> DemandProfile::counts_as_doubles() const {
  std::vector<double> out;
  out.reserve(cells_.size());
  for (const auto& c : cells_) out.push_back(static_cast<double>(c.underserved));
  return out;
}

std::uint32_t DemandProfile::peak_cell_count() const noexcept {
  std::uint32_t best = 0;
  for (const auto& c : cells_) best = std::max(best, c.underserved);
  return best;
}

void DemandProfile::save_csv(std::ostream& cells_out,
                             std::ostream& counties_out) const {
  const obs::Span span("demand.save_csv");
  io::CsvWriter w(cells_out);
  w.write_row({"cell_id", "lat", "lon", "underserved", "county_index"});
  for (const auto& c : cells_) {
    w.field_hex(c.cell.bits())  // CellId::to_string's digits
        .field_fixed6(c.center.lat_deg)
        .field_fixed6(c.center.lon_deg)
        .field_uint(c.underserved)
        .field_uint(c.county_index)
        .end_row();
  }
  save_counties(counties_out, counties_);
}

DemandProfile DemandProfile::load_csv(std::istream& cells_in,
                                      std::istream& counties_in) {
  const obs::Span span("demand.load_csv");
  CountyTable counties = load_counties(counties_in);
  std::vector<CellDemand> cells;
  read_records(cells_in, 5, "cell", [&cells](const io::CsvRow& row) {
    CellDemand cd;
    cd.cell = to_cell_id(row[0]);
    cd.center = {to_double(row[1], "lat"), to_double(row[2], "lon")};
    cd.underserved = static_cast<std::uint32_t>(to_u64(row[3], "count"));
    cd.county_index = static_cast<std::uint32_t>(to_u64(row[4], "county"));
    cells.push_back(cd);
  });
  return DemandProfile(std::move(cells), std::move(counties));
}

DemandDataset::DemandDataset(std::vector<Location> locations,
                             CountyTable counties)
    : locations_(std::move(locations)), counties_(std::move(counties)) {
  for (const auto& l : locations_) {
    if (l.county_index >= counties_.size()) {
      throw std::invalid_argument("DemandDataset: location county out of range");
    }
  }
}

std::uint64_t DemandDataset::underserved_count() const noexcept {
  std::uint64_t n = 0;
  for (const auto& l : locations_) {
    if (l.underserved()) ++n;
  }
  return n;
}

void DemandDataset::save_csv(std::ostream& locations_out,
                             std::ostream& counties_out) const {
  const obs::Span span("demand.save_csv");
  io::CsvWriter w(locations_out);
  w.write_row({"id", "lat", "lon", "county_index", "down_mbps", "up_mbps",
               "technology"});
  for (const auto& l : locations_) {
    w.field_uint(l.id)
        .field_fixed6(l.position.lat_deg)
        .field_fixed6(l.position.lon_deg)
        .field_uint(l.county_index)
        .field_fixed6(l.best_offer.down_mbps)
        .field_fixed6(l.best_offer.up_mbps)
        .field(to_string(l.technology))
        .end_row();
  }
  save_counties(counties_out, counties_);
}

DemandDataset DemandDataset::load_csv(std::istream& locations_in,
                                      std::istream& counties_in) {
  const obs::Span span("demand.load_csv");
  CountyTable counties = load_counties(counties_in);
  std::vector<Location> locations;
  read_records(locations_in, 7, "location",
               [&locations](const io::CsvRow& row) {
                 Location l;
                 l.id = to_u64(row[0], "id");
                 l.position = {to_double(row[1], "lat"),
                               to_double(row[2], "lon")};
                 l.county_index =
                     static_cast<std::uint32_t>(to_u64(row[3], "county"));
                 l.best_offer = {to_double(row[4], "down"),
                                 to_double(row[5], "up")};
                 l.technology = technology_from_string(row[6]);
                 locations.push_back(l);
               });
  return DemandDataset(std::move(locations), std::move(counties));
}

}  // namespace leodivide::demand
