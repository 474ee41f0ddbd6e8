#include "src/fs/file_cache.h"

#include <cassert>
#include <vector>

#include "src/qos/policy.h"

namespace iolfs {

void FileCache::SetPartitions(const iolqos::CachePlan* plan) {
  // Tags are assigned at insert time; enabling over a populated cache would
  // leave untagged entries invisible to the per-tenant shares.
  assert((plan == nullptr || entries_.empty()) &&
         "enable cache partitions before the cache is populated");
  plan_ = plan;
  if (plan == nullptr) {
    shares_.clear();
    lru_pos_.clear();
  }
}

void FileCache::TouchTenantLru(EntryId id) {
  auto pos = lru_pos_.find(id);
  assert(pos != lru_pos_.end());
  std::list<EntryId>& lru = shares_[entries_.at(id).tenant].lru;
  lru.splice(lru.end(), lru, pos->second);
}

EntryId FileCache::PartitionVictim() const {
  // The tenant furthest above its reserved share loses first (ties go to
  // the lowest tenant id, deterministically); when everyone is within
  // reservation the least-under tenant pays — the shared remainder is a
  // bid, not a grant. Within the tenant: oldest unreferenced entry, falling
  // back to its LRU head if everything is pinned.
  size_t victim_tenant = shares_.size();
  int64_t victim_over = 0;
  for (size_t t = 0; t < shares_.size(); ++t) {
    if (shares_[t].lru.empty()) {
      continue;
    }
    int64_t over = static_cast<int64_t>(shares_[t].bytes) -
                   static_cast<int64_t>(plan_->ReservedFor(static_cast<iolsim::TenantId>(t)));
    if (victim_tenant == shares_.size() || over > victim_over) {
      victim_tenant = t;
      victim_over = over;
    }
  }
  if (victim_tenant == shares_.size()) {
    return kNoEntry;
  }
  const std::list<EntryId>& lru = shares_[victim_tenant].lru;
  for (EntryId id : lru) {
    if (!IsReferenced(id)) {
      return id;
    }
  }
  return lru.front();
}

void FileCache::SetPolicy(std::unique_ptr<ReplacementPolicy> policy) {
  for (const auto& [id, entry] : entries_) {
    policy->OnInsert(id, entry.data.size());
  }
  policy_ = std::move(policy);
}

std::optional<iolite::Aggregate> FileCache::Lookup(FileId file, uint64_t offset, size_t length) {
  auto fit = by_file_.find(file);
  if (fit == by_file_.end()) {
    CountLookup(false);
    return std::nullopt;
  }
  const std::map<uint64_t, EntryId>& runs = fit->second;

  // Find the run containing `offset`, then walk adjacent runs until the
  // requested range is covered or a gap appears.
  auto it = runs.upper_bound(offset);
  if (it == runs.begin()) {
    CountLookup(false);
    return std::nullopt;
  }
  --it;
  auto first_run = it;

  // Pass 1: verify the adjacent runs cover the range with no gap. No state
  // is accumulated — the warm hit path must not allocate.
  uint64_t want_end = offset + length;
  uint64_t covered_to = offset;
  while (covered_to < want_end) {
    if (it == runs.end() || it->first > covered_to) {
      CountLookup(false);
      return std::nullopt;  // Gap.
    }
    const Entry& entry = entries_.at(it->second);
    uint64_t run_end = entry.offset + entry.data.size();
    if (run_end <= covered_to) {
      CountLookup(false);
      return std::nullopt;  // Run ends before reaching our position.
    }
    covered_to = run_end;
    ++it;
  }

  // Pass 2: assemble the requested window from the same runs; the aggregate
  // is a value whose slices reference the cached immutable buffers.
  iolite::Aggregate out;
  for (it = first_run; out.size() < length; ++it) {
    const Entry& entry = entries_.at(it->second);
    uint64_t run_begin = entry.offset;
    uint64_t run_end = entry.offset + entry.data.size();
    uint64_t from = offset > run_begin ? offset : run_begin;
    uint64_t to = want_end < run_end ? want_end : run_end;
    out.AppendRange(entry.data, from - run_begin, to - from);
    policy_->OnAccess(it->second);
    if (plan_ != nullptr) {
      TouchTenantLru(it->second);
    }
  }
  assert(out.size() == length);
  CountLookup(true);
  return out;
}

void FileCache::Insert(FileId file, uint64_t offset, iolite::Aggregate data,
                       uint64_t version) {
  if (data.empty()) {
    return;
  }
  uint64_t end = offset + data.size();
  std::map<uint64_t, EntryId>& runs = by_file_[file];

  // Collect overlapping runs: start from the run preceding `offset`.
  std::vector<EntryId> overlapping;
  auto it = runs.upper_bound(offset);
  if (it != runs.begin()) {
    auto prev = std::prev(it);
    const Entry& e = entries_.at(prev->second);
    if (e.offset + e.data.size() > offset) {
      overlapping.push_back(prev->second);
    }
  }
  while (it != runs.end() && it->first < end) {
    overlapping.push_back(it->second);
    ++it;
  }

  // A write replaces the overlapped portions (Section 3.5). Non-overlapped
  // remainders of trimmed entries are re-inserted so no cached data beyond
  // the written range is lost. The replaced buffers persist while other
  // references exist — snapshot semantics.
  struct Remainder {
    uint64_t offset;
    iolite::Aggregate data;
    uint64_t version;
  };
  std::vector<Remainder> remainders;
  for (EntryId id : overlapping) {
    Entry& e = entries_.at(id);
    uint64_t run_end = e.offset + e.data.size();
    if (e.offset < offset) {
      remainders.push_back({e.offset, e.data.Range(0, offset - e.offset), e.version});
    }
    if (run_end > end) {
      remainders.push_back({end, e.data.Range(end - e.offset, run_end - end), e.version});
    }
    EraseEntry(id);
  }

  auto add = [&](uint64_t off, iolite::Aggregate agg, uint64_t ver) {
    EntryId id = next_id_++;
    bytes_ += agg.size();
    for (const iolite::Slice& s : agg.slices()) {
      cache_refs_[s.buffer().get()]++;
    }
    size_t sz = agg.size();
    // The inserting tenant owns the entry: the principal that missed pays
    // for the space (partitioned runs only; kDefaultTenant otherwise).
    iolsim::TenantId owner = ctx_->active_tenant();
    entries_.emplace(id, Entry{file, off, std::move(agg), owner, ver});
    by_file_[file][off] = id;
    policy_->OnInsert(id, sz);
    if (plan_ != nullptr) {
      if (owner >= shares_.size()) {
        shares_.resize(owner + 1);
      }
      TenantShare& share = shares_[owner];
      share.bytes += sz;
      lru_pos_[id] = share.lru.insert(share.lru.end(), id);
    }
    if (mirror_ != nullptr) {
      mirror_->OnInsert(file, off, entries_.at(id).data);
    }
  };

  for (Remainder& r : remainders) {
    add(r.offset, std::move(r.data), r.version);
  }
  add(offset, std::move(data), version);
}

uint64_t FileCache::VersionOf(FileId file) const {
  auto fit = by_file_.find(file);
  if (fit == by_file_.end()) {
    return 0;
  }
  uint64_t version = 0;
  for (const auto& [off, id] : fit->second) {
    uint64_t v = entries_.at(id).version;
    if (v > version) {
      version = v;
    }
  }
  return version;
}

int FileCache::InvalidateOlderThan(FileId file, uint64_t min_version) {
  auto fit = by_file_.find(file);
  if (fit == by_file_.end()) {
    return 0;
  }
  std::vector<EntryId> stale;
  for (const auto& [off, id] : fit->second) {
    if (entries_.at(id).version < min_version) {
      stale.push_back(id);
    }
  }
  for (EntryId id : stale) {
    EraseEntry(id);
  }
  return static_cast<int>(stale.size());
}

void FileCache::InvalidateFile(FileId file) {
  auto fit = by_file_.find(file);
  if (fit == by_file_.end()) {
    return;
  }
  std::vector<EntryId> ids;
  for (const auto& [off, id] : fit->second) {
    ids.push_back(id);
  }
  for (EntryId id : ids) {
    EraseEntry(id);
  }
}

int FileCache::EnforceBudget(uint64_t budget) {
  int evicted = 0;
  while (bytes_ > budget && EvictOne()) {
    ++evicted;
  }
  return evicted;
}

bool FileCache::EvictOne() {
  EntryId victim = plan_ != nullptr ? PartitionVictim() : policy_->ChooseVictim(*this);
  if (victim == kNoEntry) {
    return false;
  }
  if (qos_ != nullptr) {
    qos_->OnCacheEviction(entries_.at(victim).tenant, qos_proxy_tier_);
  }
  EraseEntry(victim);
  (*evictions_)++;
  return true;
}

bool FileCache::IsReferenced(EntryId id) const {
  auto it = entries_.find(id);
  assert(it != entries_.end());
  for (const iolite::Slice& s : it->second.data.slices()) {
    const iolite::Buffer* b = s.buffer().get();
    auto rit = cache_refs_.find(const_cast<iolite::Buffer*>(b));
    int held_by_cache = rit == cache_refs_.end() ? 0 : rit->second;
    if (b->refcount() > held_by_cache) {
      return true;  // Someone outside the cache holds this buffer.
    }
  }
  return false;
}

void FileCache::EraseEntry(EntryId id) {
  auto it = entries_.find(id);
  assert(it != entries_.end());
  if (mirror_ != nullptr) {
    mirror_->OnErase(it->second.file, it->second.offset, it->second.data.size());
  }
  bytes_ -= it->second.data.size();
  if (plan_ != nullptr) {
    auto pos = lru_pos_.find(id);
    assert(pos != lru_pos_.end());
    TenantShare& share = shares_[it->second.tenant];
    share.bytes -= it->second.data.size();
    share.lru.erase(pos->second);
    lru_pos_.erase(pos);
  }
  for (const iolite::Slice& s : it->second.data.slices()) {
    auto rit = cache_refs_.find(s.buffer().get());
    assert(rit != cache_refs_.end());
    if (--rit->second == 0) {
      cache_refs_.erase(rit);
    }
  }
  by_file_[it->second.file].erase(it->second.offset);
  policy_->OnErase(id);
  entries_.erase(it);
}

void FileCache::CountLookup(bool hit) {
  if (hit) {
    (*hits_)++;
  } else {
    (*misses_)++;
  }
  if (qos_ != nullptr) {
    qos_->OnCacheLookup(ctx_->active_tenant(), hit, qos_proxy_tier_);
  }
}

bool EvictionTrigger::OnPageSelected(bool page_held_cached_io_data) {
  ++total_pages_;
  if (page_held_cached_io_data) {
    ++io_pages_;
  }
  // "If, during the period since the last cache entry eviction, more than
  // half of VM pages selected for replacement were pages containing cached
  // I/O data, then the current file cache is too large: evict one entry."
  if (io_pages_ * 2 > total_pages_) {
    if (cache_->EvictOne()) {
      ++evictions_;
    }
    io_pages_ = 0;
    total_pages_ = 0;
    return true;
  }
  return false;
}

}  // namespace iolfs
