#include "svc/memo_cache.hpp"

#include <utility>

namespace flexrt::svc {
namespace {

std::size_t string_bytes(const std::string& s) {
  return s.empty() ? 0 : s.size() + 1;
}

std::size_t base_bytes(const ResultBase& r) {
  return string_bytes(r.name) + string_bytes(r.error);
}

std::size_t extra_bytes(const SolveResult& r) {
  return base_bytes(r) + string_bytes(r.infeasible);
}
std::size_t extra_bytes(const MinQuantumResult& r) { return base_bytes(r); }
std::size_t extra_bytes(const RegionSweepResult& r) {
  return base_bytes(r) + r.samples.size() * sizeof(core::RegionSample);
}
std::size_t extra_bytes(const SensitivityResult& r) {
  std::size_t n = base_bytes(r) + r.margins.size() * sizeof(core::TaskMargin);
  for (const core::TaskMargin& m : r.margins) n += string_bytes(m.name);
  return n;
}
std::size_t extra_bytes(const VerifyResult& r) { return base_bytes(r); }
std::size_t extra_bytes(const FaultSweepResult& r) {
  return base_bytes(r) + string_bytes(r.infeasible) +
         r.points.size() * sizeof(FaultRatePoint);
}

/// Bookkeeping overhead per resident entry (list node, hash bucket).
constexpr std::size_t kNodeOverhead = 128;

}  // namespace

rt::Hash128 system_key(const core::ModeTaskSystem& sys) {
  rt::HashStream h;
  for (const rt::Mode mode : core::kAllModes) {
    const std::span<const rt::TaskSet> channels = sys.partitions(mode);
    h.u64(static_cast<std::uint64_t>(mode)).u64(channels.size());
    for (const rt::TaskSet& channel : channels) {
      h.u64(channel.size());
      for (const rt::Task& t : channel) {
        h.str(t.name).f64(t.wcet).f64(t.period).f64(t.deadline);
      }
    }
  }
  return h.digest();
}

std::size_t memo_payload_bytes(const MemoPayload& payload) {
  return std::visit(
      [](const auto& r) { return sizeof(r) + extra_bytes(r); }, payload);
}

std::optional<MemoPayload> MemoCache::lookup(const rt::Hash128& key) {
  Shard& s = shard_for(key);
  sys::MutexLock lock(s.mu);
  const auto it = s.map.find(key);
  if (it == s.map.end()) {
    ++s.misses;
    return std::nullopt;
  }
  ++s.hits;
  s.lru.splice(s.lru.begin(), s.lru, it->second);  // refresh LRU position
  return it->second->value;
}

void MemoCache::insert(const rt::Hash128& key, MemoPayload value) {
  const std::size_t bytes = memo_payload_bytes(value) + kNodeOverhead;
  const std::size_t cap = shard_capacity();
  if (bytes > cap) return;  // oversized: caching would churn the shard
  Shard& s = shard_for(key);
  sys::MutexLock lock(s.mu);
  if (s.map.contains(key)) return;  // first writer wins
  s.lru.push_front(Node{key, std::move(value), bytes});
  s.map.emplace(key, s.lru.begin());
  s.bytes += bytes;
  ++s.insertions;
  while (s.bytes > cap && s.lru.size() > 1) {
    const Node& victim = s.lru.back();
    s.bytes -= victim.bytes;
    s.map.erase(victim.key);
    s.lru.pop_back();
    ++s.evictions;
  }
}

MemoStats MemoCache::stats() const {
  MemoStats out;
  out.capacity_bytes = capacity_.load(std::memory_order_relaxed);
  out.enabled = enabled();
  for (Shard& s : shards_) {
    sys::MutexLock lock(s.mu);
    out.hits += s.hits;
    out.misses += s.misses;
    out.insertions += s.insertions;
    out.evictions += s.evictions;
    out.entries += s.map.size();
    out.bytes += s.bytes;
  }
  return out;
}

void MemoCache::clear() {
  for (Shard& s : shards_) {
    sys::MutexLock lock(s.mu);
    s.lru.clear();
    s.map.clear();
    s.bytes = 0;
    s.hits = s.misses = s.insertions = s.evictions = 0;
  }
}

MemoCache& global_memo() {
  static MemoCache cache;
  return cache;
}

}  // namespace flexrt::svc
