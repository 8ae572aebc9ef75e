// Umbrella header: the whole public API of wdmsched.
//
// Convenience for downstream users; the library's own code includes the
// specific headers it needs.
#pragma once

// util — RNG, statistics, tables, CLI, threading, timing
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/snapshot.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

// graph — generic bipartite matching substrate
#include "graph/bipartite_graph.hpp"
#include "graph/convex.hpp"
#include "graph/generators.hpp"
#include "graph/glover.hpp"
#include "graph/greedy.hpp"
#include "graph/hopcroft_karp.hpp"
#include "graph/kuhn.hpp"
#include "graph/matching.hpp"
#include "graph/mincost_matching.hpp"

// core — the paper's algorithms and their extensions
#include "core/arbitrary_conversion.hpp"
#include "core/break_first_available.hpp"
#include "core/breaking.hpp"
#include "core/channel_assignment.hpp"
#include "core/conversion.hpp"
#include "core/crossing.hpp"
#include "core/distributed.hpp"
#include "core/dot.hpp"
#include "core/first_available.hpp"
#include "core/full_range.hpp"
#include "core/min_conversion.hpp"
#include "core/pim.hpp"
#include "core/priority.hpp"
#include "core/request.hpp"
#include "core/request_graph.hpp"
#include "core/scheduler.hpp"
#include "core/sparse_converters.hpp"
#include "core/wavelength.hpp"

// hw — register-level hardware model
#include "hw/arbiter.hpp"
#include "hw/bitvec.hpp"
#include "hw/cost_model.hpp"
#include "hw/fabric.hpp"
#include "hw/hw_scheduler.hpp"
#include "hw/request_register.hpp"
#include "hw/vcd.hpp"

// sim — slotted and asynchronous simulators
#include "sim/admission.hpp"
#include "sim/analysis.hpp"
#include "sim/async.hpp"
#include "sim/checkpoint.hpp"
#include "sim/interconnect.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "sim/simulation.hpp"
#include "sim/trace.hpp"
#include "sim/traffic.hpp"
