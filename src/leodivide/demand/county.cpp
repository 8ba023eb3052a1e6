#include "leodivide/demand/county.hpp"

#include <stdexcept>

namespace leodivide::demand {

CountyTable::CountyTable(std::vector<County> counties) {
  counties_.reserve(counties.size());
  index_.reserve(counties.size());
  for (auto& c : counties) add(std::move(c));
}

std::uint32_t CountyTable::add(County county) {
  const auto index = static_cast<std::uint32_t>(counties_.size());
  if (!index_.try_emplace(county.fips, index).second) {
    throw std::invalid_argument("CountyTable: duplicate FIPS " + county.fips);
  }
  counties_.push_back(std::move(county));
  return index;
}

const County& CountyTable::at(std::uint32_t index) const {
  if (index >= counties_.size()) throw std::out_of_range("CountyTable::at");
  return counties_[index];
}

County& CountyTable::at(std::uint32_t index) {
  if (index >= counties_.size()) throw std::out_of_range("CountyTable::at");
  return counties_[index];
}

std::int64_t CountyTable::find(const std::string& fips) const {
  const auto it = index_.find(fips);
  return it == index_.end() ? -1 : static_cast<std::int64_t>(it->second);
}

std::uint64_t CountyTable::total_underserved() const noexcept {
  std::uint64_t total = 0;
  for (const auto& c : counties_) total += c.underserved_locations;
  return total;
}

}  // namespace leodivide::demand
