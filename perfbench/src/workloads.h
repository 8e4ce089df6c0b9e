// The three workloads.  run*() is one benchmark run of the workload: with
// a null tracer it measures the end-to-end metrics; with a tracer it
// alternates traced and untraced passes and reports the tracing overhead.
// layers*() is the per-layer probe of the traced run: it times the calls
// into each layer's public functions on the inputs the workload defines;
// where it reports deterministic counts it runs twice and fails the result
// if a count differs.
#pragma once

#include "common.h"

namespace pb {

Result runSec6(const Options& o, Tracer* tr);
Result runGkFlow(const Options& o, Tracer* tr);
Result runServiceMix(const Options& o, Tracer* tr);

void layersSec6(const Options& o, Tracer& tr, Result& out);
void layersGkFlow(const Options& o, Tracer& tr, Result& out);
void layersService(const Options& o, Tracer& tr, Result& out);

/// Where the traced run writes its Chrome trace and the service its
/// socket (set from --out-dir; the build directory).
const std::string& outDir();

/// Runs the checks on corrupted answers; returns the number of checks
/// that failed to catch theirs.
int selfTest();

}  // namespace pb
