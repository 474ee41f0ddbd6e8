#include "src/simos/vm.h"

#include <cassert>

#include "src/simos/sim_context.h"

namespace iolsim {

DomainId VmSystem::CreateDomain() { return next_domain_++; }

void VmSystem::DestroyDomain(DomainId domain) {
  for (Chunk& chunk : chunks_) {
    SmallVec<Mapping, 3>& m = chunk.mappings;
    for (size_t i = 0; i < m.size(); ++i) {
      if (m[i].domain == domain) {
        m[i] = m.back();
        m.resize_down(m.size() - 1);
        break;
      }
    }
  }
}

const VmSystem::Chunk* VmSystem::Find(ChunkId chunk) const {
  if (chunk < 1 || static_cast<uint64_t>(chunk) > chunks_.size()) {
    return nullptr;
  }
  const Chunk& c = chunks_[chunk - 1];
  return c.live ? &c : nullptr;
}

MapState& VmSystem::StateIn(Chunk& chunk, DomainId domain) {
  for (Mapping& m : chunk.mappings) {
    if (m.domain == domain) {
      return m.state;
    }
  }
  return chunk.mappings.emplace_back(Mapping{domain, MapState::kUnmapped}).state;
}

int VmSystem::PagesPerChunk() const {
  const CostParams& p = ctx_->cost().params();
  return p.chunk_size / p.page_size;
}

ChunkId VmSystem::AllocateChunk(DomainId producer) {
  Chunk& chunk = chunks_.emplace_back();
  ChunkId id = static_cast<ChunkId>(chunks_.size());
  chunk.live = true;
  ++live_chunks_;
  // The kernel is trusted and keeps a permanent read/write mapping.
  chunk.mappings.push_back({kKernelDomain, MapState::kReadWrite});
  if (producer != kKernelDomain) {
    chunk.mappings.push_back({producer, MapState::kReadWrite});
    ctx_->ChargeCpu(ctx_->cost().PageMapCost(PagesPerChunk()));
    ctx_->stats().pages_mapped += PagesPerChunk();
  }
  ctx_->stats().chunk_map_ops++;
  return id;
}

ChunkRange VmSystem::AllocateChunks(DomainId producer, size_t count) {
  const ChunkId first = static_cast<ChunkId>(chunks_.size()) + 1;
  for (size_t i = 0; i < count; ++i) {
    AllocateChunk(producer);
  }
  return ChunkRange(first, first + static_cast<ChunkId>(count));
}

void VmSystem::FreeChunk(ChunkId chunk) {
  if (Chunk* c = Find(chunk)) {
    *c = Chunk{};
    --live_chunks_;
  }
}

bool VmSystem::EnsureReadable(ChunkId chunk, DomainId domain) {
  Chunk* c = Find(chunk);
  assert(c != nullptr && "EnsureReadable on freed chunk");
  MapState& state = StateIn(*c, domain);
  if (state != MapState::kUnmapped) {
    return false;  // Mapping persists from an earlier transfer: free.
  }
  state = MapState::kReadOnly;
  ctx_->ChargeCpu(ctx_->cost().PageMapCost(PagesPerChunk()));
  ctx_->stats().pages_mapped += PagesPerChunk();
  ctx_->stats().chunk_map_ops++;
  return true;
}

void VmSystem::SetWritable(ChunkId chunk, DomainId domain, bool writable) {
  Chunk* c = Find(chunk);
  assert(c != nullptr && "SetWritable on freed chunk");
  if (domain == kKernelDomain) {
    return;  // Trusted producer: permanent write permission, no toggling.
  }
  MapState& state = StateIn(*c, domain);
  MapState target = writable ? MapState::kReadWrite : MapState::kReadOnly;
  if (state == target) {
    return;
  }
  if (state == MapState::kUnmapped) {
    // Granting write to an unmapped chunk requires establishing mappings.
    ctx_->ChargeCpu(ctx_->cost().PageMapCost(PagesPerChunk()));
    ctx_->stats().pages_mapped += PagesPerChunk();
    ctx_->stats().chunk_map_ops++;
  } else {
    // One mprotect-style call flips the whole chunk's protection.
    ctx_->ChargeCpu(ctx_->cost().PageProtectCost(1));
    ctx_->stats().page_protect_ops++;
  }
  state = target;
}

bool VmSystem::CanRead(ChunkId chunk, DomainId domain) const {
  if (domain == kKernelDomain) {
    return ChunkExists(chunk);
  }
  return StateOf(chunk, domain) != MapState::kUnmapped;
}

bool VmSystem::CanWrite(ChunkId chunk, DomainId domain) const {
  if (domain == kKernelDomain) {
    return ChunkExists(chunk);
  }
  return StateOf(chunk, domain) == MapState::kReadWrite;
}

MapState VmSystem::StateOf(ChunkId chunk, DomainId domain) const {
  const Chunk* c = Find(chunk);
  if (c != nullptr) {
    for (const Mapping& m : c->mappings) {
      if (m.domain == domain) {
        return m.state;
      }
    }
  }
  return MapState::kUnmapped;
}

}  // namespace iolsim
