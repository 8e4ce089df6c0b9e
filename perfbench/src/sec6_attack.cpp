// sec6-attack: the paper's Sec. VI matrix on the five mid-size circuits
// under GK 4, GK 8, XOR 16 and hybrid GK 4 + XOR 8 — 20 satAttack calls
// per pass from one thread, with bench_sat_attack's 1M-conflict budget.
//
// The locks are the fixed ones of bench_sat_attack (GK flow seed 11, XOR
// seed = the circuit's generator seed), not drawn from --seed: the cost of
// a SAT attack is specific to the instance, so seeded locks would make the
// measure a function of the seed.  --seed orders the rows within a pass
// and draws the random patterns of the XOR key check.
#include <cstdio>

#include "attack/sat_attack.h"
#include "benchgen/synthetic_bench.h"
#include "checks.h"
#include "core/gk_encryptor.h"
#include "lock/xor_lock.h"
#include "netlist/compiled.h"
#include "netlist/netlist_ops.h"
#include "workloads.h"

namespace pb {
namespace {

using namespace gkll;

enum Kind { kGk = 0, kXor = 1, kHybrid = 2 };
const char* const kKindName[] = {"gk", "xor", "hybrid"};
const char* const kCircuits[] = {"s1238", "s5378", "s9234", "s13207",
                                 "s15850"};
// Nominal pass cost on the reference host (see README).
constexpr double kNominalPassSeconds = 1.3;

struct Row {
  std::string label;
  Kind kind = kGk;
  Netlist comb;
  std::vector<NetId> keys;
  Netlist oracle;
};

SatAttackOptions budget() {
  SatAttackOptions o;
  o.conflictBudget = 1'000'000;
  return o;
}

Row gkRow(const GkEncryptor& enc, const GkFlowResult& locked, Kind kind,
          const std::string& label, Layers* L) {
  GkEncryptor::AttackSurface surf = timedIf(
      L, "netlist.surface_ms", [&] { return enc.attackSurface(locked); });
  Row r;
  r.label = label;
  r.kind = kind;
  r.keys = surf.gkKeys;
  r.keys.insert(r.keys.end(), surf.otherKeys.begin(), surf.otherKeys.end());
  r.comb = std::move(surf.comb);
  r.oracle = std::move(surf.oracleComb);
  return r;
}

/// Generate, lock and extract the attack surface of all 20 rows.
std::vector<Row> setUp(Layers* L) {
  std::vector<Row> rows;
  for (const char* name : kCircuits) {
    const Netlist original = generateByName(name);
    const GkEncryptor enc(original);
    for (int gks : {4, 8}) {
      EncryptOptions eo;
      eo.numGks = gks;
      rows.push_back(gkRow(enc, enc.encrypt(eo), kGk,
                           std::string(name) + " gk" + std::to_string(gks), L));
    }
    XorLockOptions xo;
    xo.numKeyBits = 16;
    for (const BenchSpec& s : iwls2005Specs())
      if (s.name == name) xo.seed = s.seed;
    const LockedDesign xl =
        timedIf(L, "lock.xor_lock_ms", [&] { return xorLock(original, xo); });
    Row x;
    x.label = std::string(name) + " xor16";
    x.kind = kXor;
    CombExtraction ce = timedIf(L, "netlist.surface_ms", [&] {
      return extractCombinational(xl.netlist);
    });
    for (NetId k : xl.keyInputs) x.keys.push_back(ce.netMap[k]);
    x.comb = std::move(ce.netlist);
    x.oracle = timedIf(L, "netlist.surface_ms", [&] {
      return extractCombinational(original).netlist;
    });
    rows.push_back(std::move(x));
    EncryptOptions ho;
    ho.numGks = 4;
    ho.hybridXorKeys = 8;
    rows.push_back(gkRow(enc, enc.encrypt(ho), kHybrid,
                         std::string(name) + " gk4+xor8", L));
  }
  return rows;
}

struct Pass {
  double wallMs = 0;
  double kindMs[3] = {0, 0, 0};
  std::vector<SatAttackResult> results;
};

Pass runPass(const std::vector<Row>& rows, const std::vector<int>& order,
             Tracer* tr, std::int64_t& opId) {
  Pass p;
  p.results.resize(rows.size());
  Span pass(tr, "sec6.pass");
  const SatAttackOptions opt = budget();
  for (int i : order) {
    const Row& r = rows[static_cast<std::size_t>(i)];
    Span s(tr, "attack." + std::string(kKindName[r.kind]) + " " + r.label,
           ++opId);
    p.results[static_cast<std::size_t>(i)] =
        satAttack(r.comb, r.keys, r.oracle, opt);
    p.kindMs[r.kind] += s.elapsedMs();
  }
  p.wallMs = pass.elapsedMs();
  return p;
}

bool sameOutcome(const SatAttackResult& a, const SatAttackResult& b) {
  return a.dips == b.dips && a.decrypted == b.decrypted &&
         a.converged == b.converged &&
         a.unsatAtFirstIteration == b.unsatAtFirstIteration &&
         a.keyConstraintsUnsat == b.keyConstraintsUnsat &&
         a.budgetExhausted == b.budgetExhausted &&
         a.recoveredKey == b.recoveredKey;
}

/// Checks one pass; a row whose attack gave up counts as failed.  The first
/// pass is checked against the reference evaluator and the paper's
/// properties; later passes must reproduce the first pass's outcomes.
std::int64_t checkPass(const std::vector<Row>& rows, const Pass& p,
                       const Pass* first, std::uint64_t seed, Result& res) {
  std::int64_t failed = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const SatAttackResult& a = p.results[i];
    if (a.budgetExhausted) {
      ++failed;
      continue;
    }
    std::string err;
    if (first) {
      if (!sameOutcome(a, first->results[i])) err = "outcome differs from pass 1";
    } else if (r.kind == kGk) {
      err = checkGkRow(a);
    } else if (r.kind == kHybrid) {
      err = checkHybridRow(a);
    } else {
      err = checkXorRow(a, a.recoveredKey, r.comb, r.keys, r.oracle, seed + i,
                        128);
    }
    if (!err.empty()) res.fail(r.label + ": " + err);
  }
  return failed;
}

}  // namespace

Result runSec6(const Options& o, Tracer* tr) {
  Result res;
  double setupS = 0;
  const std::vector<Row> rows = repeatedSetUp([] { return setUp(nullptr); }, setupS);
  const std::vector<int> order = seededOrder(rows.size(), o.seed);

  const int passes = passesFor(o.seconds, kNominalPassSeconds, 3);
  std::vector<Pass> out;
  std::vector<double> traced, untraced;
  std::int64_t opId = 0;
  for (int i = 0; i < passes; ++i) {
    // The traced run alternates: odd passes record spans.
    Tracer* t = tr && i % 2 ? tr : nullptr;
    out.push_back(runPass(rows, order, t, opId));
    (t ? traced : untraced).push_back(out.back().wallMs);
  }
  double timedMs = 0;
  std::fprintf(stderr, "sec6-attack pass ms:");
  for (const Pass& p : out) {
    timedMs += p.wallMs;
    std::fprintf(stderr, " %.1f", p.wallMs);
  }
  std::fprintf(stderr, "\n");
  for (std::size_t i = 0; i < out.size(); ++i)
    res.failed += checkPass(rows, out[i], i ? &out[0] : nullptr, o.seed, res);
  res.attempted = static_cast<std::int64_t>(passes * rows.size());

  if (tr) {
    res.put("obs.trace_overhead_ms", median(traced) - median(untraced), "ms");
    return res;
  }
  std::vector<double> gk, dip;
  for (const Pass& p : out) {
    gk.push_back(p.kindMs[kGk]);
    dip.push_back(p.kindMs[kXor] + p.kindMs[kHybrid]);
  }
  res.put("setup_s", setupS, "s");
  res.put("ops_per_s", 1000.0 * res.attempted / timedMs, "1/s");
  res.put("heavy_ms", median(gk), "ms");
  res.put("light_ms", median(dip), "ms");
  res.put("peak_rss_mb", peakRssMb(), "MB");
  return res;
}

void layersSec6(const Options& o, Tracer& tr, Result& out) {
  Layers L(&tr);
  const std::vector<Row> rows = setUp(&L);
  const std::vector<int> order = seededOrder(rows.size(), o.seed);

  struct Counts {
    std::uint64_t vars = 0, clauses = 0, dips = 0;
    std::uint64_t conflicts[3] = {}, decisions[3] = {}, props[3] = {};
    double varsPerDip = 0;
    bool operator==(const Counts&) const = default;
  };
  Counts counts[2];
  double attackMs[2][3] = {};
  double solveMs = 0, props = 0;
  std::int64_t opId = 0;
  for (int rep = 0; rep < 2; ++rep) {
    Counts& c = counts[rep];
    for (int i : order) {
      const Row& r = rows[static_cast<std::size_t>(i)];
      Span row(&tr, "row " + r.label, ++opId);
      const CompiledNetlist cn = L.time("netlist.compile_ms", opId, [&] {
        return CompiledNetlist::compile(r.comb);
      });
      const MiterTemplate m = L.time("cnf.miter_ms", opId, [&] {
        return buildMiterTemplate(cn, r.keys);
      });
      c.vars += static_cast<std::uint64_t>(m.numVars);
      c.clauses += m.clauses.size();
      SatAttackOptions opt = budget();
      opt.miter = &m;
      Span s(&tr, std::string("attack.") + kKindName[r.kind] + "_rows", opId);
      const SatAttackResult a = satAttack(r.comb, r.keys, r.oracle, opt);
      const double ms = s.elapsedMs();
      attackMs[rep][r.kind] += ms;
      solveMs += ms;
      props += static_cast<double>(a.solverStats.propagations);
      c.dips += static_cast<std::uint64_t>(a.dips);
      c.conflicts[r.kind] += a.solverStats.conflicts;
      c.decisions[r.kind] += a.solverStats.decisions;
      c.props[r.kind] += a.solverStats.propagations;
      if (r.kind == kXor) c.varsPerDip += a.cnfVarsPerDip / 5.0;
    }
  }
  if (!(counts[0] == counts[1]))
    out.fail("sec6 layer counts differ between the two traced passes");

  const Counts& c = counts[0];
  out.put("lock.xor_lock_ms", L.ms("lock.xor_lock_ms"), "ms");
  out.put("netlist.surface_ms", L.ms("netlist.surface_ms"), "ms");
  out.put("netlist.compile_ms", L.ms("netlist.compile_ms") / 2, "ms");
  out.put("cnf.miter_ms", L.ms("cnf.miter_ms") / 2, "ms");
  out.put("cnf.miter_vars", static_cast<double>(c.vars), "count");
  out.put("cnf.miter_clauses", static_cast<double>(c.clauses), "count");
  for (int k = 0; k < 3; ++k) {
    const std::string kind = kKindName[k];
    out.put("sat.conflicts." + kind, static_cast<double>(c.conflicts[k]),
            "count");
    out.put("sat.decisions." + kind, static_cast<double>(c.decisions[k]),
            "count");
    out.put("sat.propagations." + kind, static_cast<double>(c.props[k]),
            "count");
  }
  out.put("sat.props_per_s", props / (solveMs / 1000.0), "1/s");
  out.put("attack.dips", static_cast<double>(c.dips), "count");
  out.put("attack.cnf_vars_per_dip", c.varsPerDip, "count");
  for (int k = 0; k < 3; ++k)
    out.put(std::string("attack.") + kKindName[k] + "_rows_ms",
            (attackMs[0][k] + attackMs[1][k]) / 2, "ms");
}

}  // namespace pb
