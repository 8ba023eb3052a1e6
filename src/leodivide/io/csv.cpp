#include "leodivide/io/csv.hpp"

#include <array>
#include <charconv>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace leodivide::io {

namespace {

// parse_csv_line into an existing row, reusing its strings' storage. On a
// throw the row's contents are unspecified.
void parse_into(std::string_view line, CsvRow& row) {
  // The character-level state machine of RFC 4180, taken a run at a time:
  // an unquoted run ends at ',' or '"', a quoted run at the next '"'.
  std::size_t fields = 0;
  auto next_field = [&row, &fields]() -> std::string& {
    if (fields == row.size()) row.emplace_back();
    std::string& f = row[fields++];
    f.clear();
    return f;
  };
  std::string* field = &next_field();
  bool in_quotes = false;
  const std::size_t n = line.size();
  std::size_t i = 0;
  while (i < n) {
    if (in_quotes) {
      const std::size_t q = line.find('"', i);
      if (q == std::string_view::npos) {
        field->append(line.substr(i));
        break;
      }
      field->append(line.substr(i, q - i));
      if (q + 1 < n && line[q + 1] == '"') {
        field->push_back('"');
        i = q + 2;
      } else {
        in_quotes = false;
        i = q + 1;
      }
      continue;
    }
    std::size_t j = i;
    while (j < n && line[j] != ',' && line[j] != '"') ++j;
    field->append(line.substr(i, j - i));
    if (j == n) break;
    if (line[j] == ',') {
      field = &next_field();
    } else {
      if (!field->empty()) {
        throw std::runtime_error("CSV: quote inside unquoted field");
      }
      in_quotes = true;
    }
    i = j + 1;
  }
  if (in_quotes) throw std::runtime_error("CSV: unterminated quoted field");
  row.resize(fields);
}

// Advances the RFC-4180 quote state across one physical-line chunk. A
// doubled quote inside a quoted field is an escape and leaves the state
// unchanged; any other quote toggles it. Escape pairs are adjacent bytes,
// so they can never straddle a chunk boundary (the boundary is a newline
// in the field's content) — scanning chunk-by-chunk with carried state is
// therefore exact, unlike total-quote-parity recounts, and costs O(chunk)
// per chunk instead of O(record) per re-join.
bool scan_quote_state(std::string_view chunk, bool in_quotes) {
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    if (chunk[i] != '"') continue;
    if (in_quotes && i + 1 < chunk.size() && chunk[i + 1] == '"') {
      ++i;  // escaped "" pair: stay inside the quoted field
    } else {
      in_quotes = !in_quotes;
    }
  }
  return in_quotes;
}

}  // namespace

CsvRow parse_csv_line(std::string_view line) {
  CsvRow row;
  parse_into(line, row);
  return row;
}

CsvReader::CsvReader(std::istream& in) : in_(in) {}

bool CsvReader::read_line(std::string& line) {
  if (!std::getline(in_, line)) return false;
  bytes_ += line.size() + (in_.eof() ? 0 : 1);
  return true;
}

bool CsvReader::next(CsvRow& row) {
  while (read_line(line_)) {
    // A trailing CR is the first half of a CRLF terminator. Strip it for
    // the record boundary, but remember it: if this newline turns out to be
    // *inside* a quoted field, the CRLF belongs to the field's content and
    // is restored verbatim on re-join.
    bool crlf = !line_.empty() && line_.back() == '\r';
    if (crlf) line_.pop_back();
    if (line_.empty()) continue;
    // Re-join physical lines while a quoted field spans the newline.
    bool in_quotes = scan_quote_state(line_, false);
    while (in_quotes) {
      if (!read_line(more_)) {
        throw std::runtime_error("CSV: unterminated quoted record at EOF");
      }
      const bool more_crlf = !more_.empty() && more_.back() == '\r';
      if (more_crlf) more_.pop_back();
      line_.append(crlf ? "\r\n" : "\n");
      in_quotes = scan_quote_state(more_, in_quotes);
      line_.append(more_);
      crlf = more_crlf;
    }
    parse_into(line_, row);
    ++count_;
    return true;
  }
  return false;
}

CsvWriter::CsvWriter(std::ostream& out) : out_(out) {}

namespace {

bool needs_quoting(std::string_view field) {
  return field.find_first_of(",\"\r\n") != std::string_view::npos;
}

void append_escaped(std::string& out, std::string_view field) {
  if (!needs_quoting(field)) {
    out.append(field);
    return;
  }
  out.push_back('"');
  for (char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
}

// Every field form below is finite in length: %f of the largest double is
// 309 integer digits, a sign, a point and six decimals.
using NumberBuffer = std::array<char, 320>;

}  // namespace

std::string csv_escape(std::string_view field) {
  std::string out;
  out.reserve(field.size() + 2);
  append_escaped(out, field);
  return out;
}

void CsvWriter::separator() {
  if (!row_empty_) row_.push_back(',');
  row_empty_ = false;
}

CsvWriter& CsvWriter::field(std::string_view v) {
  separator();
  append_escaped(row_, v);
  return *this;
}

// Numbers never contain a comma, quote, CR or LF, so they are appended
// unquoted.
CsvWriter& CsvWriter::field_fixed6(double v) {
  separator();
  NumberBuffer buf;
  const auto r = std::to_chars(buf.data(), buf.data() + buf.size(), v,
                               std::chars_format::fixed, 6);
  row_.append(buf.data(), r.ptr);
  return *this;
}

CsvWriter& CsvWriter::field_uint(std::uint64_t v) {
  separator();
  NumberBuffer buf;
  const auto r = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  row_.append(buf.data(), r.ptr);
  return *this;
}

CsvWriter& CsvWriter::field_hex(std::uint64_t v) {
  separator();
  NumberBuffer buf;
  const auto r = std::to_chars(buf.data(), buf.data() + buf.size(), v, 16);
  row_.append(buf.data(), r.ptr);
  return *this;
}

void CsvWriter::end_row() {
  row_.push_back('\n');
  out_.write(row_.data(), static_cast<std::streamsize>(row_.size()));
  row_.clear();
  row_empty_ = true;
  if (!out_) {
    throw std::runtime_error("CsvWriter: stream write failed after record " +
                             std::to_string(count_));
  }
  ++count_;
}

void CsvWriter::write_row(const CsvRow& row) {
  for (const auto& f : row) field(f);
  end_row();
}

void CsvWriter::write_row(std::initializer_list<std::string_view> fields) {
  for (const auto f : fields) field(f);
  end_row();
}

}  // namespace leodivide::io
