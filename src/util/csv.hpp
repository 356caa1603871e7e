// Minimal CSV writing for experiment results.
//
// The paper publishes all raw results as CSV in its companion repository;
// our harness does the same so downstream analysis (R, pandas) can consume
// the regenerated data directly.  Nothing in the simulator reads CSV back.
#pragma once

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace beesim::util {

/// Streams rows to a CSV file.  RAII: the file is flushed and closed on
/// destruction.  Fields containing commas, quotes or newlines are quoted.
class CsvWriter {
 public:
  /// Opens (truncates) `path` and writes the header row.
  /// Throws IoError if the file cannot be opened.
  CsvWriter(const std::filesystem::path& path, const std::vector<std::string>& header);

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// Writes one row.  Throws ContractError if the field count differs from
  /// the header's.
  void writeRow(const std::vector<std::string>& fields);

  /// Number of data rows written so far (header excluded).
  std::size_t rowCount() const { return rows_; }

  const std::filesystem::path& path() const { return path_; }

  /// Quote a field if needed per RFC 4180.
  static std::string escape(const std::string& field);

 private:
  std::filesystem::path path_;
  std::ofstream out_;
  std::size_t columns_;
  std::size_t rows_ = 0;
};

}  // namespace beesim::util
