// Output checks of the three workloads.  Each returns an empty string when
// the answer passes and a description of the fault otherwise, so the
// self-test can feed every check a corrupted answer and expect a message.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "attack/sat_attack.h"
#include "core/gk_encryptor.h"

namespace pb {

/// A GK row (paper Sec. VI): no DIP exists, the miter is UNSAT at the
/// first iteration and the design is not decrypted.
std::string checkGkRow(const gkll::SatAttackResult& r);

/// A hybrid GK + XOR row: the key constraints contradict the oracle and
/// the design is not decrypted.
std::string checkHybridRow(const gkll::SatAttackResult& r);

/// An XOR row: decrypted, and under the reference evaluator `key` applied
/// to `lockedComb` reproduces `oracleComb` on `patterns` random patterns.
std::string checkXorRow(const gkll::SatAttackResult& r,
                        const std::vector<int>& key,
                        const gkll::Netlist& lockedComb,
                        const std::vector<gkll::NetId>& keyInputs,
                        const gkll::Netlist& oracleComb, std::uint64_t seed,
                        int patterns);

/// An oracle response's output bits against the reference evaluator's.
std::string checkOracleBits(const std::string& got, const std::string& want);

/// One GK flow: the requested GKs are inserted, the design has two key
/// inputs per GK plus the XOR keys, the attack surface (KEYGENs stripped)
/// exposes one key net per GK plus the XOR keys, the correct key passes
/// timing-accurate sign-off with no true violation, and the reported cell
/// overhead matches the one recomputed from the two netlists' stats.
std::string checkFlow(const gkll::GkFlowResult& r,
                      const gkll::GkEncryptor::AttackSurface& surf, int gks,
                      int xors, const gkll::Netlist& original);

/// Wrong keys corrupt the design in every trial.
std::string checkCorruption(const gkll::CorruptionReport& c, int trials);

}  // namespace pb
