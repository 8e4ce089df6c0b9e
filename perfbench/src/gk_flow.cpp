// gk-flow: GkEncryptor::encrypt on the seven IWLS2005-class circuits under
// five Table II configurations — 35 flows per pass from one thread, no SAT
// call.  Flow seeds follow bench_table2 (11 + configuration index); --seed
// orders the flows within a pass and draws the wrong keys of the
// corruption check.
#include <cstdio>
#include <memory>

#include "benchgen/synthetic_bench.h"
#include "checks.h"
#include "core/gk_encryptor.h"
#include "flow/ff_select.h"
#include "flow/gk_flow.h"
#include "flow/placement.h"
#include "flow/synth.h"
#include "netlist/netlist_ops.h"
#include "workloads.h"

namespace pb {
namespace {

using namespace gkll;

struct Config {
  int gks;
  int xors;
  bool withholding;
};
const Config kConfigs[] = {
    {4, 0, false}, {8, 0, false}, {16, 0, false}, {8, 16, false}, {4, 0, true}};
constexpr int kNumConfigs = 5;
constexpr double kNominalPassSeconds = 0.7;

struct Circuit {
  Netlist original;
  bool large = false;  // s38417 / s38584
  std::unique_ptr<GkEncryptor> enc;
};

std::vector<Circuit> setUp(Layers* L) {
  std::vector<Circuit> cs;
  for (const BenchSpec& spec : iwls2005Specs()) {
    Circuit c;
    c.original = timedIf(L, "benchgen.generate_ms",
                         [&] { return generateBenchmark(spec); });
    c.large = spec.name == "s38417" || spec.name == "s38584";
    c.enc = std::make_unique<GkEncryptor>(c.original);
    cs.push_back(std::move(c));
  }
  return cs;
}

EncryptOptions encryptOptions(int config) {
  EncryptOptions eo;
  eo.numGks = kConfigs[config].gks;
  eo.hybridXorKeys = kConfigs[config].xors;
  eo.withholding = kConfigs[config].withholding;
  eo.seed = 11 + static_cast<std::uint64_t>(config);
  return eo;
}

}  // namespace

Result runGkFlow(const Options& o, Tracer* tr) {
  Result res;
  double setupS = 0;
  const std::vector<Circuit> cs =
      repeatedSetUp([] { return setUp(nullptr); }, setupS);
  // Flow f = circuit * kNumConfigs + configuration.
  const std::vector<int> order = seededOrder(cs.size() * kNumConfigs, o.seed);
  const int passes = passesFor(o.seconds, kNominalPassSeconds, 3);

  std::vector<GkFlowResult> first(order.size());
  std::vector<std::uint64_t> firstHash(order.size());
  std::vector<double> small, large, traced, untraced;
  double timedMs = 0;
  std::int64_t opId = 0;
  for (int p = 0; p < passes; ++p) {
    Tracer* t = tr && p % 2 ? tr : nullptr;
    double smallMs = 0, largeMs = 0;
    Span pass(t, "flow.pass");
    for (int f : order) {
      const Circuit& c = cs[static_cast<std::size_t>(f / kNumConfigs)];
      const int config = f % kNumConfigs;
      Span s(t, "flow " + c.original.name() + " #" + std::to_string(config),
             ++opId);
      GkFlowResult r = c.enc->encrypt(encryptOptions(config));
      (c.large ? largeMs : smallMs) += s.elapsedMs();
      const std::size_t i = static_cast<std::size_t>(f);
      if (p == 0) {
        firstHash[i] = r.design.netlist.contentHash();
        first[i] = std::move(r);
      } else if (r.design.netlist.contentHash() != firstHash[i] ||
                 r.design.correctKey != first[i].design.correctKey) {
        res.fail(c.original.name() + ": flow output differs from pass 1");
      }
    }
    const double wall = pass.elapsedMs();
    std::fprintf(stderr, "%s%.1f", p ? " " : "gk-flow pass ms: ", wall);
    timedMs += wall;
    (t ? traced : untraced).push_back(wall);
    small.push_back(smallMs);
    large.push_back(largeMs);
  }
  std::fprintf(stderr, "\n");
  res.attempted = static_cast<std::int64_t>(passes * order.size());

  // First-pass outputs against the flow's contract, outside the timed window.
  for (std::size_t f = 0; f < first.size(); ++f) {
    const Circuit& c = cs[f / kNumConfigs];
    const Config& cfg = kConfigs[f % kNumConfigs];
    std::string err = checkFlow(first[f], c.enc->attackSurface(first[f]),
                                cfg.gks, cfg.xors, c.original);
    if (err.empty())
      err = checkCorruption(c.enc->measureCorruption(first[f], 4, o.seed), 4);
    if (!err.empty()) res.fail(c.original.name() + ": " + err);
  }

  if (tr) {
    res.put("obs.trace_overhead_ms", median(traced) - median(untraced), "ms");
    return res;
  }
  res.put("setup_s", setupS, "s");
  res.put("ops_per_s", 1000.0 * res.attempted / timedMs, "1/s");
  res.put("heavy_ms", median(large), "ms");
  res.put("light_ms", median(small), "ms");
  res.put("peak_rss_mb", peakRssMb(), "MB");
  return res;
}

void layersGkFlow(const Options& o, Tracer& tr, Result& out) {
  Layers L(&tr);
  const std::vector<Circuit> cs = setUp(&L);
  const std::vector<int> order = seededOrder(cs.size() * kNumConfigs, o.seed);
  const CellLibrary& lib = CellLibrary::tsmc013c();

  // The GK timing model the flow's FF selection uses (gk_flow.cpp).
  const Ps glitch = EncryptOptions{}.glitchLen;
  GkParams proto;
  proto.gkDelayA = glitch - lib.maxDelay(CellKind::kXnor2);
  proto.gkDelayB = glitch - lib.maxDelay(CellKind::kXor2);
  const GkTiming gk = gkTiming(proto, lib);
  const FfSelectOptions selOpt{glitch, GkFlowOptions{}.margin};

  std::vector<std::uint64_t> hashes[2];
  int repairRounds[2] = {0, 0};
  std::int64_t opId = 0;
  for (int rep = 0; rep < 2; ++rep) {
    for (int f : order) {
      const Circuit& c = cs[static_cast<std::size_t>(f / kNumConfigs)];
      const int config = f % kNumConfigs;
      const EncryptOptions eo = encryptOptions(config);
      Span flow(&tr, "flow " + c.original.name() + " #" + std::to_string(config),
                ++opId);
      const GkFlowResult r = c.enc->encrypt(eo);
      repairRounds[rep] += r.repairRounds;
      hashes[rep].push_back(r.design.netlist.contentHash());

      std::vector<NetId> netMap;
      Netlist nl = cloneNetlist(c.original, netMap);
      const PlacementResult pr = L.time("flow.pnr_ms", opId, [&] {
        return placeAndRoute(nl, PlacementOptions{});
      });
      StaConfig cfg;
      cfg.inputArrival = lib.clkToQ();
      cfg.clockPeriod = r.clockPeriod;
      Sta sta(nl, cfg, lib);
      for (std::size_t i = 0; i < nl.flops().size(); ++i)
        sta.setClockArrival(nl.flops()[i], pr.clockArrival[i]);
      const StaResult timing =
          L.time("timing.sta_ms", opId, [&] { return sta.run(); });
      L.time("flow.ff_select_ms", opId, [&] {
        const auto cands = analyzeFlops(nl, sta, timing, gk, selOpt, nullptr);
        return karmakarGroup(nl, cands, nullptr).size();
      });
      Sta recheck(r.design.netlist, cfg, lib);
      for (std::size_t i = 0; i < r.design.netlist.flops().size(); ++i)
        recheck.setClockArrival(r.design.netlist.flops()[i], r.clockArrival[i]);
      L.time("timing.sta_ms", opId, [&] { return recheck.run(); });

      // Re-synthesis acts on the flow's netlist before delay mapping.
      GkFlowOptions fo;
      fo.numGks = eo.numGks;
      fo.hybridXorKeys = eo.hybridXorKeys;
      fo.seed = eo.seed;
      fo.mapDelays = false;
      GkFlowResult unmapped = runGkFlow(c.original, fo);
      L.time("flow.resynth_ms", opId, [&] {
        return mapDelayElements(unmapped.design.netlist, lib);
      });

      VerifyOptions vo;
      vo.clockPeriod = r.clockPeriod;
      vo.inputArrival = lib.clkToQ();
      vo.seed = eo.seed ^ 0xABCDEF;
      const VerifyReport v = L.time("sim.verify_ms", opId, [&] {
        return verifySequential(c.original, r.design.netlist,
                                c.original.flops().size(), r.clockArrival,
                                r.design.keyInputs, r.design.correctKey, vo);
      });
      if (!v.ok()) out.fail(c.original.name() + ": traced sign-off failed");
    }
  }
  if (hashes[0] != hashes[1] || repairRounds[0] != repairRounds[1])
    out.fail("gk-flow layer counts differ between the two traced passes");

  out.put("benchgen.generate_ms", L.ms("benchgen.generate_ms"), "ms");
  for (const char* m : {"flow.pnr_ms", "flow.ff_select_ms", "flow.resynth_ms",
                        "timing.sta_ms", "sim.verify_ms"})
    out.put(m, L.ms(m) / 2, "ms");
  out.put("flow.repair_rounds", repairRounds[0], "count");
}

}  // namespace pb
