// Umbrella header for the inference-serving subsystem.
//
//   #include "serve/serve.hpp"
//
// One scheduler serves one model or many: each model is a tenant of a
// FleetScheduler over one worker pool.
//   iwg::serve::FleetScheduler fleet(fleet_cfg);
//   fleet.add_tenant(std::move(model), tenant_cfg);   // warmed, then live
//   auto fut = fleet.submit("tenant-id", image);      // H×W×C, a future
//   iwg::serve::Response r = fut.get();               // always resolves
//   fleet.swap_weights("tenant-id", "new.iwgw");      // zero-drop hot swap
//
// See fleet.hpp (weighted-fair / EDF scheduling, batch assembly) and
// registry.hpp (warm-up, hot-swap protocol) for the overviews.
#pragma once

#include "serve/dispatch.hpp"     // IWYU pragma: export
#include "serve/fleet.hpp"        // IWYU pragma: export
#include "serve/registry.hpp"     // IWYU pragma: export
#include "serve/request.hpp"      // IWYU pragma: export
