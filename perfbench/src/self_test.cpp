// Self-test of the output checks: every check must pass a real answer and
// report a failure on the same answer with one fault planted in it.
#include <cstdio>
#include <functional>
#include <random>

#include "attack/sat_attack.h"
#include "benchgen/synthetic_bench.h"
#include "checks.h"
#include "core/gk_encryptor.h"
#include "lock/xor_lock.h"
#include "netlist/netlist_ops.h"
#include "refeval.h"
#include "service/proto.h"
#include "service/service.h"
#include "util/json.h"
#include "workloads.h"

namespace pb {

int selfTest() {
  using namespace gkll;
  const Netlist original = generateByName("s1238");
  const GkEncryptor enc(original);
  const Netlist oracle = extractCombinational(original).netlist;

  // XOR row: a real recovered key.
  XorLockOptions xo;
  xo.numKeyBits = 16;
  const LockedDesign xl = xorLock(original, xo);
  const CombExtraction xc = extractCombinational(xl.netlist);
  std::vector<NetId> xkeys;
  for (NetId k : xl.keyInputs) xkeys.push_back(xc.netMap[k]);
  const SatAttackResult xr = satAttack(xc.netlist, xkeys, oracle);
  std::vector<int> flipped = xr.recoveredKey;
  if (!flipped.empty()) flipped[0] ^= 1;

  // GK row and flow: a real 4-GK lock.
  EncryptOptions eo;
  eo.numGks = 4;
  const GkFlowResult flow = enc.encrypt(eo);
  const GkEncryptor::AttackSurface surf = enc.attackSurface(flow);
  const SatAttackResult gr = satAttack(surf.comb, surf.gkKeys, surf.oracleComb);
  SatAttackResult grDecrypted = gr;
  grDecrypted.decrypted = true;
  GkFlowResult flowMismatch = flow;
  flowMismatch.verify.poMismatches = 1;

  // Hybrid row.
  EncryptOptions ho = eo;
  ho.hybridXorKeys = 8;
  const GkFlowResult hflow = enc.encrypt(ho);
  const GkEncryptor::AttackSurface hs = enc.attackSurface(hflow);
  std::vector<NetId> hkeys = hs.gkKeys;
  hkeys.insert(hkeys.end(), hs.otherKeys.begin(), hs.otherKeys.end());
  const SatAttackResult hr = satAttack(hs.comb, hkeys, hs.oracleComb);
  SatAttackResult hrDecrypted = hr;
  hrDecrypted.decrypted = true;

  // Oracle response: a real service answer for one random pattern.
  service::Service svc;
  service::JsonWriter up;
  up.i64("id", 1).str("verb", "upload").str("generate", "s1238");
  util::JsonValue upv;
  util::parseJson(svc.handle(up.finish()), upv);
  std::mt19937_64 rng(5);
  std::string bits(oracle.inputs().size(), '0');
  std::vector<bool> in(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    in[i] = rng() & 1u;
    bits[i] = in[i] ? '1' : '0';
  }
  service::JsonWriter q;
  q.i64("id", 2).str("verb", "oracle_query").str("handle", upv.stringOr("handle", ""))
      .str("inputs", bits);
  util::JsonValue qv;
  util::parseJson(svc.handle(q.finish()), qv);
  const std::string got = qv.stringOr("outputs", "");
  std::string gotFlipped = got;
  if (!gotFlipped.empty()) gotFlipped[0] = gotFlipped[0] == '1' ? '0' : '1';
  const std::string want = bitString(RefEval(oracle).eval(in));

  const CorruptionReport corr = enc.measureCorruption(flow, 4);
  CorruptionReport corrShort = corr;
  corrShort.corruptedTrials = 3;

  struct Case {
    const char* name;
    std::function<std::string()> good, bad;
  };
  const Case cases[] = {
      {"xor key with a flipped bit",
       [&] { return checkXorRow(xr, xr.recoveredKey, xc.netlist, xkeys, oracle, 1, 256); },
       [&] { return checkXorRow(xr, flipped, xc.netlist, xkeys, oracle, 1, 256); }},
      {"oracle output with a flipped bit",
       [&] { return checkOracleBits(got, want); },
       [&] { return checkOracleBits(gotFlipped, want); }},
      {"GK row reported as decrypted", [&] { return checkGkRow(gr); },
       [&] { return checkGkRow(grDecrypted); }},
      {"hybrid row reported as decrypted", [&] { return checkHybridRow(hr); },
       [&] { return checkHybridRow(hrDecrypted); }},
      {"flow whose sign-off reports a mismatch",
       [&] { return checkFlow(flow, surf, 4, 0, original); },
       [&] { return checkFlow(flowMismatch, surf, 4, 0, original); }},
      {"wrong key that left one trial uncorrupted",
       [&] { return checkCorruption(corr, 4); },
       [&] { return checkCorruption(corrShort, 4); }},
  };
  int missed = 0;
  for (const Case& c : cases) {
    const std::string good = c.good();
    const std::string bad = c.bad();
    const bool ok = good.empty() && !bad.empty();
    std::printf("%-44s %s%s%s\n", c.name, ok ? "caught" : "MISSED",
                good.empty() ? "" : " (real answer rejected: ",
                good.empty() ? "" : (good + ")").c_str());
    if (ok) std::printf("  -> %s\n", bad.c_str());
    if (!ok) ++missed;
  }
  return missed;
}

}  // namespace pb
