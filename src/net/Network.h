//===- net/Network.h - sensor-network topologies and packetization -------===//
//
// Part of the UCC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The vocabulary of the multi-hop WSN dissemination model (paper sections
/// 1 and 2.2): the topology the sink floods an update across, and how an
/// edit script is split into packets (header + bounded payload). The flood
/// itself, and the fleet campaigns built on it, are net/EventSim.h.
///
//===----------------------------------------------------------------------===//

#ifndef UCC_NET_NETWORK_H
#define UCC_NET_NETWORK_H

#include <cstddef>
#include <vector>

namespace ucc {

/// An undirected sensor-network topology. Node 0 is the sink.
struct Topology {
  int NumNodes = 0;
  std::vector<std::vector<int>> Neighbors;

  /// A chain of \p N nodes: 0 - 1 - ... - N-1 (the deep multi-hop case).
  static Topology line(int N);
  /// A W x H grid with 4-neighborhood; the sink sits at a corner.
  static Topology grid(int W, int H);
  /// A star: the sink reaches every node directly (single-hop broadcast).
  static Topology star(int N);

  /// BFS hop distance of every node from the sink (-1 = unreachable).
  std::vector<int> hopDistances() const;
};

/// Packetization parameters (section 2.2: scripts are divided into packets
/// that may be grouped/encrypted; we model size and count).
///
/// Invalid formats never reach the division below: a non-positive
/// PayloadBytes is clamped to 1 and a negative HeaderBytes to 0, and each
/// clamped call bumps the `net.bad_packet_format` counter so a
/// misconfigured caller is visible in telemetry instead of crashing (or
/// silently returning a negative packet count).
struct PacketFormat {
  int HeaderBytes = 8;
  int PayloadBytes = 24;

  int packetsFor(size_t ScriptBytes) const;
  size_t bytesOnAir(size_t ScriptBytes) const;
};

} // namespace ucc

#endif // UCC_NET_NETWORK_H
