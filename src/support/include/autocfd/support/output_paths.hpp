// Up-front validation of CLI output destinations. A long simulated run
// that ends in "cannot write report file" wastes minutes; checking the
// destinations before any work starts turns that into an immediate,
// specific diagnostic.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace autocfd::support {

/// One output destination a tool was asked to write: the CLI flag that
/// named it (for the diagnostic) and the path itself.
struct OutputPath {
  std::string flag;  // "--report-out", "-o", ...
  std::string path;
};

/// Checks that the destinations are distinct and writable. Returns the
/// first problem as a complete one-line diagnostic ("--report-out and
/// --plan-out both point at 'x.json'", "--plan-out: directory 'out/'
/// does not exist", "--plan-out: 'out' is a directory", "--plan-out:
/// directory '/' is not writable"), or nullopt when
/// every destination is usable. Paths naming the same file through
/// different spellings (./x vs x) are treated as duplicates.
[[nodiscard]] std::optional<std::string> validate_output_paths(
    const std::vector<OutputPath>& outputs);

}  // namespace autocfd::support
