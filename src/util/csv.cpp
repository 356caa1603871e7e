#include "util/csv.hpp"

#include "util/error.hpp"

namespace beesim::util {

CsvWriter::CsvWriter(const std::filesystem::path& path, const std::vector<std::string>& header)
    : path_(path), columns_(header.size()) {
  BEESIM_ASSERT(!header.empty(), "CSV header must have at least one column");
  if (path.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(path.parent_path(), ec);
  }
  out_.open(path);
  if (!out_) throw IoError("cannot open CSV file for writing: " + path.string());
  std::string line;
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (i) line += ',';
    line += escape(header[i]);
  }
  out_ << line << '\n';
}

void CsvWriter::writeRow(const std::vector<std::string>& fields) {
  BEESIM_ASSERT(fields.size() == columns_, "CSV row width differs from header");
  std::string line;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) line += ',';
    line += escape(fields[i]);
  }
  out_ << line << '\n';
  if (!out_) throw IoError("failed writing CSV row to " + path_.string());
  ++rows_;
}

std::string CsvWriter::escape(const std::string& field) {
  const bool needsQuote = field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needsQuote) return field;
  std::string quoted = "\"";
  for (char c : field) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

}  // namespace beesim::util
