#include "checks.h"

#include <cmath>
#include <random>

#include "refeval.h"

namespace pb {

std::string checkGkRow(const gkll::SatAttackResult& r) {
  if (r.dips != 0) return "GK row found " + std::to_string(r.dips) + " DIPs";
  if (!r.unsatAtFirstIteration) return "GK row not UNSAT at iteration 1";
  if (r.decrypted) return "GK row reported as decrypted";
  return {};
}

std::string checkHybridRow(const gkll::SatAttackResult& r) {
  if (!r.keyConstraintsUnsat) return "hybrid row key constraints satisfiable";
  if (r.decrypted) return "hybrid row reported as decrypted";
  return {};
}

std::string checkXorRow(const gkll::SatAttackResult& r,
                        const std::vector<int>& key,
                        const gkll::Netlist& lockedComb,
                        const std::vector<gkll::NetId>& keyInputs,
                        const gkll::Netlist& oracleComb, std::uint64_t seed,
                        int patterns) {
  if (!r.decrypted) return "XOR row not decrypted";
  if (key.size() != keyInputs.size()) return "XOR row key has wrong width";
  const RefEval locked(lockedComb);
  const RefEval oracle(oracleComb);
  // Locked inputs: the oracle's inputs in order, with the key nets spliced
  // in wherever they sit.
  const auto& lin = lockedComb.inputs();
  std::vector<int> keyAt(lockedComb.numNets(), -1);
  for (std::size_t i = 0; i < keyInputs.size(); ++i) keyAt[keyInputs[i]] = key[i];
  std::mt19937_64 rng(seed);
  std::vector<bool> in(oracleComb.inputs().size());
  std::vector<bool> lockedIn(lin.size());
  for (int p = 0; p < patterns; ++p) {
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = rng() & 1u;
    std::size_t next = 0;
    for (std::size_t i = 0; i < lin.size(); ++i)
      lockedIn[i] = keyAt[lin[i]] >= 0 ? keyAt[lin[i]] != 0 : in.at(next++);
    if (locked.eval(lockedIn) != oracle.eval(in))
      return "recovered XOR key differs from the oracle on pattern " +
             std::to_string(p);
  }
  return {};
}

std::string checkOracleBits(const std::string& got, const std::string& want) {
  if (got != want) return "oracle outputs " + got + " != reference " + want;
  return {};
}

std::string checkFlow(const gkll::GkFlowResult& r,
                      const gkll::GkEncryptor::AttackSurface& surf, int gks,
                      int xors, const gkll::Netlist& original) {
  const std::string name = original.name() + " gk" + std::to_string(gks) +
                           "+xor" + std::to_string(xors) + ": ";
  if (static_cast<int>(r.insertions.size()) != gks)
    return name + "inserted " + std::to_string(r.insertions.size()) + " GKs";
  if (static_cast<int>(r.design.keyInputs.size()) != 2 * gks + xors)
    return name + "design has " + std::to_string(r.design.keyInputs.size()) +
           " key inputs";
  if (static_cast<int>(surf.gkKeys.size()) != gks ||
      static_cast<int>(surf.otherKeys.size()) != xors)
    return name + "attack surface exposes " +
           std::to_string(surf.gkKeys.size()) + " GK keys and " +
           std::to_string(surf.otherKeys.size()) + " XOR keys";
  if (!r.verify.ok())
    return name + "sign-off failed (" +
           std::to_string(r.verify.stateMismatches) + " state, " +
           std::to_string(r.verify.poMismatches) + " PO mismatches, " +
           std::to_string(r.verify.simViolations) + " violations)";
  if (r.trueViolations != 0)
    return name + std::to_string(r.trueViolations) + " true timing violations";
  const double before = static_cast<double>(original.stats().numCells);
  const double after = static_cast<double>(r.design.netlist.stats().numCells);
  const double oh = 100.0 * (after - before) / before;
  if (std::fabs(oh - r.cellOverheadPct) > 1e-9)
    return name + "reported cell overhead " + std::to_string(r.cellOverheadPct) +
           "% != recomputed " + std::to_string(oh) + "%";
  return {};
}

std::string checkCorruption(const gkll::CorruptionReport& c, int trials) {
  if (c.trials != trials || c.corruptedTrials != trials)
    return "wrong keys corrupted " + std::to_string(c.corruptedTrials) + "/" +
           std::to_string(c.trials) + " trials";
  return {};
}

}  // namespace pb
