// Frozen reference outputs, stored as text files in perfbench/oracles/.
// Every measured job is checked against them; a mismatch counts the job
// as failed (against ok_rate). `perfbench_driver --freeze` regenerates
// them from the current program; perfbench/crosscheck_cli.py compares
// the profile references against `jepo_cli profile` once.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "experiments/weka_experiment.hpp"

namespace perfbench {

struct Oracles {
  /// profile-hot: program name -> digest of the response's result payload
  /// (program output plus method records).
  std::unordered_map<std::string, std::uint64_t> profilePayload;
  /// profile-hot: program name -> digest of the `jepo_cli profile` view of
  /// the same result (what crosscheck_cli.py compares against).
  std::unordered_map<std::string, std::uint64_t> profileCliView;
  /// analyze-cold suggest jobs: unit name -> digest of the result payload.
  std::unordered_map<std::string, std::uint64_t> suggestPayload;
  /// analyze-cold optimize jobs: per classifier, the total number of
  /// changes over its corpus (Table IV's Changes column).
  std::array<int, 10> changes{};
  /// table4: one rendered JSON row per classifier, in Table IV order.
  std::vector<std::string> table4Rows;
};

/// One Table IV row in its reference form (the common --json row).
std::string renderTable4Row(const jepo::experiments::ClassifierResult& row);

/// Load every reference file from `dir`; throws jepo::Error when a file
/// is missing or malformed.
Oracles loadOracles(const std::string& dir);

/// Write the references that `oracles` holds to `dir` (one file each).
void writeOracles(const std::string& dir, const Oracles& oracles);

}  // namespace perfbench
