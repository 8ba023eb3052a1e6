#pragma once
// RFC-4180 CSV reading and writing. Datasets (locations, cells, counties)
// persist as CSV so users can swap in real FCC Broadband Data Collection or
// Census extracts.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace leodivide::io {

/// One parsed CSV row.
using CsvRow = std::vector<std::string>;

/// Parses a single CSV line (no embedded newlines). Handles quoted fields
/// with doubled-quote escapes. Throws std::runtime_error on malformed
/// quoting.
[[nodiscard]] CsvRow parse_csv_line(std::string_view line);

/// Streaming CSV reader over an istream. Supports quoted fields containing
/// commas, escaped quotes, and embedded newlines (LF and CRLF are both
/// preserved exactly inside quoted fields); skips blank lines. CRLF record
/// terminators are accepted and normalised away.
class CsvReader {
 public:
  explicit CsvReader(std::istream& in);

  /// Reads the next record into `row`, reusing the storage of its
  /// strings; returns false at end of input.
  bool next(CsvRow& row);

  /// Number of records returned so far.
  [[nodiscard]] std::size_t records_read() const noexcept { return count_; }

  /// Input bytes consumed so far, line terminators included.
  [[nodiscard]] std::size_t bytes_read() const noexcept { return bytes_; }

 private:
  bool read_line(std::string& line);

  std::istream& in_;
  std::size_t count_ = 0;
  std::size_t bytes_ = 0;
  std::string line_;  ///< the current record, kept across calls
  std::string more_;  ///< a continuation line of a quoted field
};

/// CSV writer with minimal quoting (quotes only when necessary). A stream
/// that enters a failed state (disk full, closed pipe) raises
/// std::runtime_error from write_row rather than silently truncating the
/// output.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out);

  void write_row(const CsvRow& row);
  void write_row(std::initializer_list<std::string_view> fields);

  /// Field-at-a-time rows with no per-field strings: each call appends one
  /// field to the pending row and end_row() writes it, exactly as
  /// write_row would have.
  CsvWriter& field(std::string_view v);
  /// `v` as std::to_string(double) renders it (printf "%f").
  CsvWriter& field_fixed6(double v);
  /// `v` in decimal, as std::to_string renders it.
  CsvWriter& field_uint(std::uint64_t v);
  /// `v` in lowercase hex without a prefix, as `std::hex` renders it.
  CsvWriter& field_hex(std::uint64_t v);
  void end_row();

  [[nodiscard]] std::size_t records_written() const noexcept { return count_; }

 private:
  void separator();
  std::ostream& out_;
  std::size_t count_ = 0;
  std::string row_;  ///< the pending row, reused across rows
  bool row_empty_ = true;
};

/// Escapes one field per RFC 4180 (wraps in quotes iff it contains a comma,
/// quote, CR or LF).
[[nodiscard]] std::string csv_escape(std::string_view field);

}  // namespace leodivide::io
