// The benchmark's workloads. Each fills the report with every end-to-end
// metric (untraced run) or the per-layer metrics it exercises (traced run)
// and records every failure or divergence in the gate.
#pragma once

#include "harness.h"

namespace d3lbench {

/// union-900 (zipf = false) and zipf-900-c4 (zipf = true).
void RunServedLake(const Args& args, bool zipf, Report& report, Gate& gate);

/// remote-30.
void RunRemote(const Args& args, Report& report, Gate& gate);

/// build-open-900.
void RunBuildOpen(const Args& args, Report& report, Gate& gate);

}  // namespace d3lbench
