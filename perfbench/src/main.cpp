// perfbench_gkll — one benchmark run of one workload.
//
//   perfbench_gkll --workload sec6-attack|gk-flow|service-mix
//                  --seed N --seconds S --trace 0|1 [--out-dir DIR]
//   perfbench_gkll --self-test
//
// Prints the result as one JSON line (last line of stdout).  --trace 0
// reports the end-to-end metrics; --trace 1 reports the per-layer metrics
// and writes DIR/<workload>.trace.json.  perfbench/run.py builds this
// binary and is the command to run.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace pb {
namespace {
std::string gOutDir = ".";
}  // namespace

const std::string& outDir() { return gOutDir; }

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_gkll --workload W --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] | --self-test\n");
  return 2;
}

int main(int argc, char** argv) {
  Options o;
  bool selfTestMode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") {
      selfTestMode = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds") o.seconds = std::atof(v.c_str());
    else if (a == "--trace") o.trace = v == "1";
    else if (a == "--out-dir") gOutDir = v;
    else return usage();
  }
  if (selfTestMode) {
    const int missed = selfTest();
    std::printf("self-test: %s\n", missed ? "FAILED" : "every check caught its fault");
    return missed ? 1 : 0;
  }
  Result (*run)(const Options&, Tracer*) = nullptr;
  if (o.workload == "sec6-attack") run = runSec6;
  else if (o.workload == "gk-flow") run = runGkFlow;
  else if (o.workload == "service-mix") run = runServiceMix;
  else return usage();
  if (o.seconds <= 0) return usage();

  if (!o.trace) {
    std::printf("%s\n", run(o, nullptr).json().c_str());
    return 0;
  }
  Tracer tr;
  Result res = run(o, &tr);
  layersSec6(o, tr, res);
  layersGkFlow(o, tr, res);
  layersService(o, tr, res);
  const std::string path = gOutDir + "/" + o.workload + ".trace.json";
  tr.writeChrome(path);
  std::fprintf(stderr, "perfbench: %zu spans -> %s\n", tr.size(), path.c_str());
  std::printf("%s\n", res.json().c_str());
  return 0;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  try {
    return pb::main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
