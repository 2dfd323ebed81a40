// Client/server tuning over the Harmony protocol.
//
// The application (here: the simulated web cluster) talks to the tuning
// server exactly the way a deployed Active Harmony client would: register
// bundles in the RSL, send the observed workload signature, then loop
// fetch-configuration / run / report-performance until the server says
// DONE. The transport is an in-process host (host_session), which runs
// each request through the same batch executor as the network daemon; a
// real deployment puts the same messages on a socket (harmony_serve).
#include <cstdio>

#include "core/protocol.hpp"
#include "core/rsl.hpp"
#include "core/server.hpp"
#include "websim/cluster.hpp"

int main() {
  using namespace harmony;
  using namespace harmony::websim;

  // The server side: a session hosted over a shared experience database.
  HistoryDatabase db;
  const DataAnalyzer analyzer;
  proto::SessionOptions sopts;
  sopts.tuning.simplex.max_evaluations = 80;
  proto::ServerSession session(sopts);
  proto::HarmonyClient client(host_session(session, db, analyzer));

  // The client side: the web service under a shopping workload.
  SimOptions sim;
  sim.mix = WorkloadMix::shopping();
  sim.measure_s = 8.0;
  sim.seed = 12;
  ClusterObjective system(sim);

  client.open("webservice", to_rsl(ClusterConfig::parameter_space()));
  client.send_signature(sim.mix.signature());

  int iteration = 0;
  while (auto config = client.fetch()) {
    const double wips = system.measure(*config);
    client.report(wips);
    if (++iteration % 10 == 0) {
      std::printf("iteration %3d: measured %.1f WIPS\n", iteration, wips);
    }
  }
  std::printf("\nserver reported DONE after %d iterations\n", iteration);
  std::printf("best configuration (%.1f WIPS):\n", client.best_performance());
  const ParameterSpace space = ClusterConfig::parameter_space();
  for (std::size_t i = 0; i < space.size(); ++i) {
    std::printf("  %-22s = %g\n", space.param(i).name.c_str(),
                client.best_configuration()[i]);
  }
  client.close();
  std::printf("experience records stored: %zu\n", db.size());
  return 0;
}
