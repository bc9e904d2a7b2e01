#include "engine/artifact_store.hpp"

#include <utility>

namespace wharf {

namespace {

std::string tagged_key(ArtifactStage stage, const std::string& key) {
  std::string tagged;
  tagged.reserve(key.size() + 2);
  tagged.push_back(static_cast<char>('0' + static_cast<int>(stage)));
  tagged.push_back('|');
  tagged.append(key);
  return tagged;
}

std::size_t stage_index(ArtifactStage stage) {
  return static_cast<std::size_t>(static_cast<int>(stage));
}

}  // namespace

const char* to_string(ArtifactStage stage) {
  switch (stage) {
    case ArtifactStage::kInterference: return "interference";
    case ArtifactStage::kBusyWindow: return "busy_window";
    case ArtifactStage::kOverload: return "overload";
    case ArtifactStage::kDmmCurve: return "dmm_curve";
  }
  return "unknown";
}

ArtifactStore::ArtifactStore(std::size_t byte_budget) : byte_budget_(byte_budget) {}

std::uint64_t ArtifactStore::begin_epoch() {
  const util::MutexLock guard(mutex_);
  return ++epoch_;
}

std::optional<ArtifactStore::Found> ArtifactStore::lookup(ArtifactStage stage,
                                                          const std::string& key) {
  const std::string tagged = tagged_key(stage, key);
  const util::MutexLock guard(mutex_);
  const auto it = entries_.find(tagged);
  if (it == entries_.end()) return std::nullopt;
  recency_.splice(recency_.begin(), recency_, it->second.lru);
  return Found{it->second.value, it->second.epoch};
}

void ArtifactStore::insert(ArtifactStage stage, const std::string& key,
                           std::shared_ptr<const void> value, std::size_t weight) {
  std::string tagged = tagged_key(stage, key);
  const util::MutexLock guard(mutex_);
  insert_locked(stage, std::move(tagged), std::move(value), weight);
}

void ArtifactStore::insert_locked(ArtifactStage stage, std::string tagged,
                                  std::shared_ptr<const void> value, std::size_t weight) {
  mutex_.assert_held();
  const std::size_t charged = weight + tagged.size();
  StageStats& stats = stage_stats_[stage_index(stage)];
  if (byte_budget_ > 0 && charged > byte_budget_) {
    ++stats.rejected;
    return;
  }
  if (entries_.count(tagged) != 0) return;  // first insertion wins

  recency_.push_front(std::move(tagged));
  Entry entry{std::move(value), stage, charged, epoch_, recency_.begin()};
  entries_.emplace(recency_.front(), std::move(entry));
  resident_bytes_ += charged;
  ++stats.insertions;
  ++stats.resident_entries;
  stats.resident_bytes += charged;
  evict_to_budget_locked();
}

ArtifactStore::Resolved ArtifactStore::resolve(ArtifactStage stage, const std::string& key,
                                               const Compute& compute) {
  const std::string tagged = tagged_key(stage, key);
  std::shared_ptr<Flight> flight;
  bool owner = false;
  {
    const util::MutexLock guard(mutex_);
    const auto it = entries_.find(tagged);
    if (it != entries_.end()) {
      recency_.splice(recency_.begin(), recency_, it->second.lru);
      return Resolved{it->second.value, it->second.epoch, ResolveSource::kResident, 0};
    }
    std::shared_ptr<Flight>& slot = flights_[tagged];
    if (!slot) {
      slot = std::make_shared<Flight>();
      owner = true;
    } else {
      ++stage_stats_[stage_index(stage)].flights_shared;
    }
    flight = slot;
  }

  if (!owner) {
    const util::MutexLock lock(flight->mutex);
    while (!flight->done) flight->done_cv.wait(flight->mutex);
    if (flight->error) std::rethrow_exception(flight->error);
    return Resolved{flight->value, 0, ResolveSource::kShared, 0};
  }

  std::shared_ptr<const void> value;
  std::size_t weight = 0;
  try {
    auto made = compute();
    value = std::move(made.first);
    weight = made.second;
  } catch (...) {
    {
      const util::MutexLock guard(mutex_);
      flights_.erase(tagged);
    }
    {
      const util::MutexLock lock(flight->mutex);
      flight->error = std::current_exception();
      flight->done = true;
    }
    flight->done_cv.notify_all();
    throw;
  }

  std::uint64_t inserted_epoch = 0;
  {
    // Publish the entry and retire the flight atomically w.r.t. new
    // resolve() calls: a caller arriving now either finds the entry
    // (resident) or, before this block, the open flight — never neither.
    const util::MutexLock guard(mutex_);
    inserted_epoch = epoch_;
    insert_locked(stage, tagged, value, weight);
    flights_.erase(tagged);
  }
  {
    const util::MutexLock lock(flight->mutex);
    flight->value = value;
    flight->done = true;
  }
  flight->done_cv.notify_all();
  return Resolved{std::move(value), inserted_epoch, ResolveSource::kComputed, weight};
}

void ArtifactStore::evict_to_budget_locked() {
  mutex_.assert_held();
  while (byte_budget_ > 0 && resident_bytes_ > byte_budget_ && !recency_.empty()) {
    const auto victim = entries_.find(recency_.back());
    StageStats& stats = stage_stats_[stage_index(victim->second.stage)];
    resident_bytes_ -= victim->second.weight;
    stats.resident_bytes -= victim->second.weight;
    --stats.resident_entries;
    ++stats.evictions;
    entries_.erase(victim);
    recency_.pop_back();
  }
}

ArtifactStore::Stats ArtifactStore::stats() const {
  const util::MutexLock guard(mutex_);
  Stats out;
  out.stage = stage_stats_;
  out.resident_entries = entries_.size();
  out.resident_bytes = resident_bytes_;
  for (const StageStats& s : stage_stats_) out.evictions += s.evictions;
  return out;
}

}  // namespace wharf
