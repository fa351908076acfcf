#pragma once

#include "chain.h"

/// \file model.h
/// The modelled column: the same topology and rule set run in the
/// product's virtual-time ChainScenario (exec::SimRuntime + CostModel).
/// Its Mpps is a CostModel charge, not a host measurement, and is always
/// reported labelled *modelled* next to the measured mpps_1core — the
/// calibration gap between the two is the point of printing both.

namespace chainbench {

/// Modelled Mpps (both directions) of `spec` in ChainScenario.
[[nodiscard]] double modelled_mpps(const WorkloadSpec& spec);

}  // namespace chainbench
