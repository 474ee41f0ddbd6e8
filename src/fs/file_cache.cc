#include "src/fs/file_cache.h"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "src/qos/policy.h"

namespace iolfs {

namespace {

// The first run starting after `offset`.
template <typename It>
It FirstAfter(It begin, It end, uint64_t offset) {
  return std::upper_bound(begin, end, offset,
                          [](uint64_t off, const auto& run) { return off < run.offset; });
}

uint32_t BufferHash(const iolite::Buffer* buffer) {
  return static_cast<uint32_t>((reinterpret_cast<uintptr_t>(buffer) * 0x9e3779b97f4a7c15ull) >> 32);
}

// Matches `buffer`'s count in the reference table.
auto Counts(const iolite::Buffer* buffer) {
  return [buffer](const auto& refs) { return refs.buffer == buffer; };
}

}  // namespace

// --- FileCache ----------------------------------------------------------------

void FileCache::SetPartitions(const iolqos::CachePlan* plan) {
  // Tags are assigned at insert time; enabling over a populated cache would
  // leave untagged entries invisible to the per-tenant shares.
  assert((plan == nullptr || entry_count() == 0) &&
         "enable cache partitions before the cache is populated");
  plan_ = plan;
  if (plan == nullptr) {
    shares_.clear();
  }
}

EntryId FileCache::PartitionVictim() {
  // The tenant furthest above its reserved share loses first (ties go to
  // the lowest tenant id, deterministically); when everyone is within
  // reservation the least-under tenant pays — the shared remainder is a
  // bid, not a grant. Within the tenant, its PaperLruPolicy chooses.
  size_t victim_tenant = shares_.size();
  int64_t victim_over = 0;
  for (size_t t = 0; t < shares_.size(); ++t) {
    if (shares_[t].bytes == 0) {
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
  return shares_[victim_tenant].lru.ChooseVictim(*this);
}

void FileCache::SetPolicy(std::unique_ptr<ReplacementPolicy> policy) {
  std::vector<std::pair<uint64_t, EntryId>> order;  // (seq, id)
  for (EntryId id = 1; id <= slots_.size(); ++id) {
    if (entry(id).seq != 0) {
      order.emplace_back(entry(id).seq, id);
    }
  }
  std::sort(order.begin(), order.end());
  for (const auto& [seq, id] : order) {
    policy->OnInsert(id, entry(id).data.size());
  }
  policy_ = std::move(policy);
}

std::optional<iolite::Aggregate> FileCache::Lookup(FileId file, uint64_t offset, size_t length) {
  const Runs* runs = RunsOf(file);
  if (runs == nullptr) {
    CountLookup(false);
    return std::nullopt;
  }

  // Find the run containing `offset`, then walk adjacent runs until the
  // requested range is covered or a gap appears.
  const Run* it = FirstAfter(runs->begin(), runs->end(), offset);
  if (it == runs->begin()) {
    CountLookup(false);
    return std::nullopt;
  }
  --it;
  const Run* first_run = it;

  // Pass 1: verify the adjacent runs cover the range with no gap. No state
  // is accumulated — the warm hit path must not allocate.
  uint64_t want_end = offset + length;
  uint64_t covered_to = offset;
  while (covered_to < want_end) {
    if (it == runs->end() || it->offset > covered_to) {
      CountLookup(false);
      return std::nullopt;  // Gap.
    }
    const Entry& e = entry(it->entry);
    uint64_t run_end = e.offset + e.data.size();
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
    const Entry& e = entry(it->entry);
    uint64_t run_begin = e.offset;
    uint64_t run_end = e.offset + e.data.size();
    uint64_t from = offset > run_begin ? offset : run_begin;
    uint64_t to = want_end < run_end ? want_end : run_end;
    out.AppendRange(e.data, from - run_begin, to - from);
    policy_->OnAccess(it->entry);
    if (plan_ != nullptr) {
      shares_[e.tenant].lru.OnAccess(it->entry);
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
  assert(file >= 0);
  if (static_cast<size_t>(file) >= by_file_.size()) {
    by_file_.resize(file + 1);
  }
  Runs& runs = by_file_[file];
  uint64_t end = offset + data.size();

  // A write replaces the overlapped portions (Section 3.5). Non-overlapped
  // remainders of trimmed entries are re-inserted so no cached data beyond
  // the written range is lost. The replaced buffers persist while other
  // references exist — snapshot semantics. The overlapped runs are a
  // contiguous stretch: the run before `offset` if it reaches past it, and
  // every run starting inside the range. Each is erased in offset order.
  struct Remainder {
    uint64_t offset;
    iolite::Aggregate data;
    uint64_t version;
  };
  iolsim::SmallVec<Remainder, 2> remainders;
  size_t i = FirstAfter(runs.begin(), runs.end(), offset) - runs.begin();
  if (i > 0) {
    const Entry& e = entry(runs[i - 1].entry);
    if (e.offset + e.data.size() > offset) {
      --i;
    }
  }
  while (i < runs.size() && runs[i].offset < end) {
    EntryId id = runs[i].entry;
    const Entry& e = entry(id);
    uint64_t run_end = e.offset + e.data.size();
    if (e.offset < offset) {
      remainders.push_back({e.offset, e.data.Range(0, offset - e.offset), e.version});
    }
    if (run_end > end) {
      remainders.push_back({end, e.data.Range(end - e.offset, run_end - end), e.version});
    }
    EraseEntry(id);  // Removes runs[i].
  }

  auto add = [&](uint64_t off, iolite::Aggregate agg, uint64_t ver) {
    EntryId id = slots_.Acquire() + 1;
    bytes_ += agg.size();
    for (const iolite::Slice& s : agg.slices()) {
      AddRef(s.buffer().get());
    }
    size_t sz = agg.size();
    // The inserting tenant owns the entry: the principal that missed pays
    // for the space (partitioned runs only; kDefaultTenant otherwise).
    iolsim::TenantId owner = ctx_->active_tenant();
    entry(id) = Entry{file, off, std::move(agg), owner, ver, next_seq_++};
    runs.emplace_back(Run{off, id});
    std::rotate(FirstAfter(runs.begin(), runs.end() - 1, off), runs.end() - 1, runs.end());
    policy_->OnInsert(id, sz);
    if (plan_ != nullptr) {
      if (owner >= shares_.size()) {
        shares_.resize(owner + 1);
      }
      TenantShare& share = shares_[owner];
      share.bytes += sz;
      share.lru.OnInsert(id, sz);
    }
    if (mirror_ != nullptr) {
      mirror_->OnInsert(file, off, entry(id).data);
    }
  };

  for (Remainder& r : remainders) {
    add(r.offset, std::move(r.data), r.version);
  }
  add(offset, std::move(data), version);
}

uint64_t FileCache::VersionOf(FileId file) const {
  const Runs* runs = RunsOf(file);
  if (runs == nullptr) {
    return 0;
  }
  uint64_t version = 0;
  for (const Run& run : *runs) {
    version = std::max(version, entry(run.entry).version);
  }
  return version;
}

int FileCache::InvalidateOlderThan(FileId file, uint64_t min_version) {
  if (RunsOf(file) == nullptr) {
    return 0;
  }
  const Runs& runs = by_file_[file];
  int dropped = 0;
  for (size_t i = 0; i < runs.size();) {
    if (entry(runs[i].entry).version < min_version) {
      EraseEntry(runs[i].entry);  // Removes runs[i].
      ++dropped;
    } else {
      ++i;
    }
  }
  return dropped;
}

void FileCache::InvalidateFile(FileId file) {
  if (RunsOf(file) == nullptr) {
    return;
  }
  const Runs& runs = by_file_[file];
  while (!runs.empty()) {
    EraseEntry(runs.front().entry);
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
    qos_->OnCacheEviction(entry(victim).tenant, qos_proxy_tier_);
  }
  EraseEntry(victim);
  (*evictions_)++;
  return true;
}

bool FileCache::IsReferenced(EntryId id) const {
  assert(id >= 1 && id <= slots_.size() && entry(id).seq != 0);
  for (const iolite::Slice& s : entry(id).data.slices()) {
    const iolite::Buffer* b = s.buffer().get();
    if (b->refcount() > RefsTo(b)) {
      return true;  // Someone outside the cache holds this buffer.
    }
  }
  return false;
}

void FileCache::AddRef(const iolite::Buffer* buffer) {
  const uint32_t hash = BufferHash(buffer);
  uint32_t pos = cache_refs_.Find(hash, Counts(buffer));
  if (pos == cache_refs_.kNone) {
    cache_refs_.Insert(hash, BufferRefs{buffer, 1});
  } else {
    ++cache_refs_.at(pos).count;
  }
}

void FileCache::DropRef(const iolite::Buffer* buffer) {
  uint32_t pos = cache_refs_.Find(BufferHash(buffer), Counts(buffer));
  assert(pos != cache_refs_.kNone && cache_refs_.at(pos).count > 0);
  if (--cache_refs_.at(pos).count == 0) {
    cache_refs_.Erase(pos);
  }
}

int FileCache::RefsTo(const iolite::Buffer* buffer) const {
  uint32_t pos = cache_refs_.Find(BufferHash(buffer), Counts(buffer));
  return pos == cache_refs_.kNone ? 0 : cache_refs_.at(pos).count;
}

void FileCache::EraseEntry(EntryId id) {
  Entry& e = entry(id);
  assert(e.seq != 0);
  if (mirror_ != nullptr) {
    mirror_->OnErase(e.file, e.offset, e.data.size());
  }
  bytes_ -= e.data.size();
  if (plan_ != nullptr) {
    TenantShare& share = shares_[e.tenant];
    share.bytes -= e.data.size();
    share.lru.OnErase(id);
  }
  for (const iolite::Slice& s : e.data.slices()) {
    DropRef(s.buffer().get());
  }
  Runs& runs = by_file_[e.file];
  Run* run = FirstAfter(runs.begin(), runs.end(), e.offset) - 1;
  assert(run->entry == id);
  std::move(run + 1, runs.end(), run);
  runs.resize_down(runs.size() - 1);
  policy_->OnErase(id);
  e = Entry{};
  slots_.Release(static_cast<uint32_t>(id - 1));
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
