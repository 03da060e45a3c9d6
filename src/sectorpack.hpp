#pragma once
// Umbrella header: the complete public API of sectorpack.
//
// Typical use:
//   #include "src/sectorpack.hpp"
//   using namespace sectorpack;
//   model::Instance inst = model::InstanceBuilder{}
//       .add_customer_polar(0.3, 50.0, 10.0)
//       .add_antenna(geom::kPi / 3, 100.0, 25.0)
//       .build();
//   model::Solution sol = sectors::solve_local_search(inst);
//   double served = model::served_demand(inst, sol);

#include "src/angles/angles.hpp"
#include "src/assign/assign.hpp"
#include "src/bounds/upper.hpp"
#include "src/core/contract.hpp"
#include "src/core/deadline.hpp"
#include "src/cover/cover.hpp"
#include "src/geom/angle.hpp"
#include "src/geom/arc.hpp"
#include "src/geom/polar_grid.hpp"
#include "src/geom/sector.hpp"
#include "src/geom/sweep.hpp"
#include "src/geom/vec2.hpp"
#include "src/knapsack/knapsack.hpp"
#include "src/model/instance.hpp"
#include "src/model/io.hpp"
#include "src/model/solution.hpp"
#include "src/model/validate.hpp"
#include "src/obs/exporter.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/slo.hpp"
#include "src/obs/trace.hpp"
#include "src/par/bounded_queue.hpp"
#include "src/par/parallel_for.hpp"
#include "src/race/race.hpp"
#include "src/sectors/annealing.hpp"
#include "src/sectors/sectors.hpp"
#include "src/shard/shard.hpp"
#include "src/sim/adversarial.hpp"
#include "src/sim/generators.hpp"
#include "src/sim/rng.hpp"
#include "src/single/single.hpp"
#include "src/srv/engine.hpp"
#include "src/srv/jsonl.hpp"
#include "src/srv/serve.hpp"
#include "src/srv/session.hpp"
#include "src/srv/solvers.hpp"
#include "src/verify/verify.hpp"
#include "src/viz/svg.hpp"
