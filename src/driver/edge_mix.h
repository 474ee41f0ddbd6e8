// EdgeMix: per-edge client populations for the CDN hierarchy (src/cdn).
//
// The geographic sibling of TenantMix: each edge proxy fronts its own
// closed-loop client population with its own file-request stream (its own
// Zipf mix — one metro's hot set is not another's), and every client is
// pinned to its edge via Workload::PinMember, so the engine never balances
// a client across the edge fleet. The engine resolves the population via
// TenantOf (called immediately before NextFile for the same arrival),
// which is how NextFile knows whose stream to draw from — the same
// last-resolved-spec idiom TenantMix uses.

#ifndef SRC_DRIVER_EDGE_MIX_H_
#define SRC_DRIVER_EDGE_MIX_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/driver/workload.h"

namespace ioldrv {

// One edge's client population.
struct EdgePopulationSpec {
  std::string name;
  // Closed-loop clients attached to this edge.
  int clients = 1;
  // Per-request file source for this edge's clients (its own Zipf mix).
  std::function<iolfs::FileId()> next_file;
};

class EdgeMix : public Workload {
 public:
  explicit EdgeMix(std::vector<EdgePopulationSpec> specs)
      : specs_(std::move(specs)) {
    client_begin_.reserve(specs_.size() + 1);
    client_begin_.push_back(0);
    for (const EdgePopulationSpec& s : specs_) {
      total_clients_ += s.clients;
      client_begin_.push_back(static_cast<size_t>(total_clients_));
    }
  }

  int initial_clients() const override { return total_clients_; }
  bool closed_loop() const override { return true; }

  iolsim::TenantId TenantOf(size_t client, uint64_t /*issue_seq*/) override {
    last_edge_ = EdgeOf(client);
    return iolsim::kDefaultTenant;
  }

  bool NextFile(iolfs::FileId* file) override {
    *file = specs_[last_edge_].next_file();
    return true;
  }

  bool PinMember(size_t client, size_t* member) override {
    *member = EdgeOf(client);
    return true;
  }

  size_t edge_count() const { return specs_.size(); }
  const EdgePopulationSpec& spec(size_t edge) const { return specs_[edge]; }

  // Edge owning `client`: populations occupy contiguous client-index
  // ranges, in spec order.
  size_t EdgeOf(size_t client) const {
    size_t edge = 0;
    while (edge + 1 < specs_.size() && client >= client_begin_[edge + 1]) {
      ++edge;
    }
    return edge;
  }

 private:
  std::vector<EdgePopulationSpec> specs_;
  std::vector<size_t> client_begin_;  // Edge i owns [begin[i], begin[i+1]).
  int total_clients_ = 0;
  size_t last_edge_ = 0;  // Edge resolved by the latest TenantOf.
};

}  // namespace ioldrv

#endif  // SRC_DRIVER_EDGE_MIX_H_
