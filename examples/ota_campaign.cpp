//===- examples/ota_campaign.cpp - network-wide reprogramming -------------===//
//
// Disseminates one real update (Fig. 9 case 8) across multi-hop sensor
// networks and accounts the radio energy per node — the deployment-scale
// view of the paper's introduction: a deep network relays every byte of
// the script over dozens of hops, so script size is the lever.
//
// Build and run:   ./build/examples/ota_campaign
//
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "net/EventSim.h"
#include "net/Network.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <cstdlib>

using namespace ucc;

namespace {

/// Floods \p ScriptBytes across \p T; a flood that leaves a node without
/// the whole script ends the example with an error.
FleetResult flood(const Topology &T, size_t ScriptBytes,
                  const FleetConfig &Cfg = FleetConfig()) {
  FleetResult R = simulateFlood(T, ScriptBytes, Cfg);
  if (R.NodesIncomplete > 0) {
    std::fprintf(stderr, "ota_campaign: %d node(s) left incomplete\n",
                 R.NodesIncomplete);
    std::exit(1);
  }
  return R;
}

size_t scriptBytesFor(const UpdateCase &Case, bool UpdateConscious) {
  DiagnosticEngine Diag;
  auto V1 = Compiler::compile(Case.OldSource, CompileOptions(), Diag);
  CompileOptions Opts;
  if (UpdateConscious) {
    Opts.RA = RegAllocKind::UpdateConscious;
    Opts.DA = DataAllocKind::UpdateConscious;
  }
  auto V2 = Compiler::recompile(Case.NewSource, V1->Record, Opts, Diag);
  return makeUpdate(*V1, *V2).ScriptBytes;
}

void report(const char *Name, const Topology &T, size_t BaseBytes,
            size_t UccBytes) {
  FleetResult Base = flood(T, BaseBytes);
  FleetResult Ucc = flood(T, UccBytes);
  std::printf("%-22s %5d nodes, %3d hops deep\n", Name, T.NumNodes,
              Base.MaxHops);
  std::printf("  oblivious: %4d packets, %7zu bytes on air, %.3e J "
              "network-wide\n",
              Base.Packets, Base.BytesOnAir, Base.totalJoules());
  std::printf("  conscious: %4d packets, %7zu bytes on air, %.3e J "
              "network-wide  (%.1f%% saved)\n",
              Ucc.Packets, Ucc.BytesOnAir, Ucc.totalJoules(),
              100.0 * (Base.totalJoules() - Ucc.totalJoules()) /
                  Base.totalJoules());
}

} // namespace

int main() {
  const UpdateCase &Case = updateCases()[7]; // case 8, a medium update
  std::printf("Update: case %d — %s\n\n", Case.Id,
              Case.Description.c_str());

  size_t BaseBytes = scriptBytesFor(Case, /*UpdateConscious=*/false);
  size_t UccBytes = scriptBytesFor(Case, /*UpdateConscious=*/true);
  std::printf("script: %zu bytes (oblivious) vs %zu bytes (conscious)\n\n",
              BaseBytes, UccBytes);

  // The paper's motivating deep network: ~70 hops to the farthest node.
  report("line of 71", Topology::line(71), BaseBytes, UccBytes);
  report("16x16 grid", Topology::grid(16, 16), BaseBytes, UccBytes);
  report("single-hop star(64)", Topology::star(64), BaseBytes, UccBytes);

  // A noisy channel: every lost packet is resent in a repeat burst that
  // every neighbor in range pays to hear, so smaller scripts win twice.
  FleetConfig Noisy;
  Noisy.Link.LossRate = 0.3;
  FleetResult NoisyBase = flood(Topology::line(71), BaseBytes, Noisy);
  FleetResult NoisyUcc = flood(Topology::line(71), UccBytes, Noisy);
  std::printf("\nwith 30%% packet loss on the 71-node line:\n");
  std::printf("  oblivious: %4lld retransmissions, %.3e J\n",
              static_cast<long long>(NoisyBase.Retransmissions),
              NoisyBase.totalJoules());
  std::printf("  conscious: %4lld retransmissions, %.3e J\n",
              static_cast<long long>(NoisyUcc.Retransmissions),
              NoisyUcc.totalJoules());

  // Lifetime view for the most burdened node (next to the sink).
  Topology Line = Topology::line(71);
  FleetResult Base = flood(Line, BaseBytes);
  FleetResult Ucc = flood(Line, UccBytes);
  // A 2700 mAh battery at 3 V holds ~29 kJ.
  double BatteryJ = 2.7 * 3600.0 * 3.0;
  std::printf("\nbusiest relay node spends %.2e J (oblivious) vs %.2e J "
              "(conscious) per update\n",
              Base.PerNodeJoules[1], Ucc.PerNodeJoules[1]);
  std::printf("=> %.0f vs %.0f such updates per battery, all else "
              "idle\n",
              BatteryJ / Base.PerNodeJoules[1],
              BatteryJ / Ucc.PerNodeJoules[1]);
  return 0;
}
