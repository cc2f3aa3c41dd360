// Umbrella header: include this to get the whole public CrowdSky API.
#pragma once

#include "algo/baseline_sort.h"        // IWYU pragma: export
#include "algo/crowdsky_algorithm.h"   // IWYU pragma: export
#include "algo/metrics.h"              // IWYU pragma: export
#include "algo/unary.h"                // IWYU pragma: export
#include "audit/invariant_auditor.h"   // IWYU pragma: export
#include "common/result.h"             // IWYU pragma: export
#include "common/status.h"             // IWYU pragma: export
#include "core/engine.h"               // IWYU pragma: export
#include "crowd/cost_model.h"          // IWYU pragma: export
#include "crowd/marketplace.h"         // IWYU pragma: export
#include "crowd/oracle.h"              // IWYU pragma: export
#include "crowd/session.h"             // IWYU pragma: export
#include "crowd/voting.h"              // IWYU pragma: export
#include "data/csv.h"                  // IWYU pragma: export
#include "data/generator.h"            // IWYU pragma: export
#include "data/real_datasets.h"        // IWYU pragma: export
#include "data/toy.h"                  // IWYU pragma: export
#include "skyline/algorithms.h"        // IWYU pragma: export
#include "skyline/dominance_structure.h"  // IWYU pragma: export
