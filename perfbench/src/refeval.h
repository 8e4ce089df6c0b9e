// Reference gate evaluator for the benchmark's output checks.
//
// It walks the Netlist's cells in a topological order of its own and
// evaluates each cell kind from its textbook definition, two-valued.  It
// shares no code with CompiledNetlist, WideEvaluator, the cell library's
// evalCell or the SAT encoder, so a check against it is a computation
// made apart from the code under test.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.h"

namespace pb {

class RefEval {
 public:
  /// `comb` must be combinational (no kDff) and outlive the evaluator.
  explicit RefEval(const gkll::Netlist& comb);

  /// One pattern: `inputs` in comb.inputs() order; returns one value per
  /// comb.outputs() entry.
  std::vector<bool> eval(const std::vector<bool>& inputs) const;

 private:
  const gkll::Netlist& nl_;
  std::vector<gkll::GateId> order_;
};

/// "0101..." spelling of an output vector (the service's wire format).
std::string bitString(const std::vector<bool>& v);

}  // namespace pb
