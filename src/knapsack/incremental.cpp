#include "src/knapsack/incremental.hpp"

#include <algorithm>
#include <numeric>

#include "src/core/contract.hpp"

namespace sectorpack::knapsack {

std::uint64_t fingerprint_mix(std::uint64_t id) noexcept {
  std::uint64_t z = id + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool OracleCache::lookup(std::uint64_t key, Entry* out) const {
  const auto it = map_.find(key);
  if (it == map_.end()) return false;
  *out = it->second;
  return true;
}

void OracleCache::store(std::uint64_t key, Entry entry) {
  if (map_.size() >= kMaxEntries) return;  // full: stop memoizing, stay correct
  map_.emplace(key, std::move(entry));
}

std::size_t OracleCache::size() const {
  return map_.size();
}

IncrementalOracle::IncrementalOracle(std::span<const Item> universe,
                                     double capacity, const Oracle& oracle,
                                     OracleCache* cache,
                                     std::span<const std::size_t> ids)
    : universe_(universe),
      ids_(ids),
      capacity_(capacity),
      oracle_(oracle),
      cache_(cache) {
  const std::size_t n = universe.size();
  SP_ASSERT(ids_.empty() || ids_.size() == n);
  id_mix_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    id_mix_[i] = fingerprint_mix(ids_.empty() ? i : ids_[i]);
  }
  member_.assign(n, 0);
}

void IncrementalOracle::build_trees() {
  const std::size_t n = universe_.size();
  // Same density order as knapsack::solve_greedy / fractional_solve
  // (cross-multiplied density desc, value desc), with the universe index as
  // a final tie-break so the order is total and deterministic.
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const Item& ia = universe_[a];
              const Item& ib = universe_[b];
              const double lhs = ia.value * ib.weight;
              const double rhs = ib.value * ia.weight;
              if (lhs != rhs) return lhs > rhs;
              if (ia.value != ib.value) return ia.value > ib.value;
              return a < b;
            });
  item_at_ = std::move(order);
  slot_of_.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    slot_of_[item_at_[r]] = static_cast<std::uint32_t>(r);
  }

  fen_w_.assign(n + 1, 0.0);
  fen_v_.assign(n + 1, 0.0);
  fen_c_.assign(n + 1, 0);
  top_bit_ = 1;
  while (top_bit_ * 2 <= n) top_bit_ *= 2;
  built_ = true;

  // The same updates in the same order as trees kept from construction
  // would have seen, so every node holds the same sums bit for bit.
  for (const Update& u : pending_) {
    const Item& it = universe_[u.item];
    if (u.add) {
      fenwick_update(slot_of_[u.item], it.weight, it.value, 1);
    } else {
      fenwick_update(slot_of_[u.item], -it.weight, -it.value, -1);
    }
  }
  pending_ = {};
  pending_remove_ = false;
}

void IncrementalOracle::fenwick_update(std::size_t slot, double dw, double dv,
                                       std::int64_t dc) {
  for (std::size_t i = slot + 1; i < fen_w_.size(); i += i & (~i + 1)) {
    fen_w_[i] += dw;
    fen_v_[i] += dv;
    fen_c_[i] += dc;
  }
}

void IncrementalOracle::add(std::size_t i) {
  SP_ASSERT(i < universe_.size() && !member_[i]);
  member_[i] = 1;
  const Item& it = universe_[i];
  vsum_ += it.value;
  wsum_ += it.weight;
  fp_ += id_mix_[i];
  ++count_;
  if (it.value > 0.0) {
    ++positive_count_;
    if (built_) {
      fenwick_update(slot_of_[i], it.weight, it.value, 1);
    } else {
      pending_.push_back({static_cast<std::uint32_t>(i), true});
    }
  }
}

void IncrementalOracle::remove(std::size_t i) {
  SP_ASSERT(i < universe_.size() && member_[i]);
  member_[i] = 0;
  const Item& it = universe_[i];
  vsum_ -= it.value;
  wsum_ -= it.weight;
  fp_ -= id_mix_[i];
  --count_;
  if (it.value > 0.0) {
    --positive_count_;
    if (built_) {
      fenwick_update(slot_of_[i], -it.weight, -it.value, -1);
    } else {
      pending_.push_back({static_cast<std::uint32_t>(i), false});
      pending_remove_ = true;
    }
  }
}

double IncrementalOracle::upper_bound() {
  if (capacity_ <= 0.0 || count_ == 0) return 0.0;
  if (!built_) build_trees();
  // Largest density-rank prefix whose member weight fits. Prefix weight is
  // monotone (weights >= 0), so this is exactly the Dantzig walk's stopping
  // point, found by binary descent instead of a per-window sort.
  std::size_t pos = 0;
  double w = 0.0;
  double v = 0.0;
  std::int64_t c = 0;
  for (std::size_t bit = top_bit_; bit > 0; bit >>= 1) {
    const std::size_t next = pos + bit;
    if (next >= fen_w_.size()) continue;
    const double nw = w + fen_w_[next];
    if (nw <= capacity_) {
      pos = next;
      w = nw;
      v += fen_v_[next];
      c += fen_c_[next];
    }
  }
  const double remaining = capacity_ - w;
  if (remaining > 0.0 &&
      c < static_cast<std::int64_t>(positive_count_)) {
    // Split item: the (c+1)-th member in density order. By maximality of
    // the prefix its weight exceeds `remaining` > 0 (a fitting next member
    // would have been absorbed by the weight descent).
    std::size_t p2 = 0;
    std::int64_t need = c + 1;
    for (std::size_t bit = top_bit_; bit > 0; bit >>= 1) {
      const std::size_t next = p2 + bit;
      if (next >= fen_c_.size()) continue;
      if (fen_c_[next] < need) {
        need -= fen_c_[next];
        p2 = next;
      }
    }
    const std::size_t i = item_at_[p2];
    SP_ASSERT(member_[i] && universe_[i].value > 0.0);
    const double weight = universe_[i].weight;
    if (weight > remaining) {
      v += universe_[i].value * (remaining / weight);
    } else {
      // Only reachable through floating-point drift between the prefix
      // descent and this item's weight; fall back to counting it whole
      // (still an upper bound).
      v += universe_[i].value;
    }
  }
  return v;
}

bool IncrementalOracle::bound_positive() {
  if (built_ || pending_remove_) return upper_bound() > 0.0;
  if (!(capacity_ > 0.0)) return false;
  // Adds only: pending_ lists the members with value > 0, and every tree
  // node below the densest one's slot would still hold exactly 0.0. So the
  // descent takes that member iff its weight fits; otherwise it stops
  // before it with w == v == 0 and the bound is its fractional share.
  bool some_pass = false;
  bool some_fail = false;
  for (const Update& u : pending_) {
    const Item& it = universe_[u.item];
    const bool pass = it.weight <= capacity_ ||
                      it.value * (capacity_ / it.weight) > 0.0;
    (pass ? some_pass : some_fail) = true;
  }
  // When they disagree, the sort's first member decides, and that is not
  // always the one of highest true density (both cross products can
  // underflow to 0, leaving the tie to the larger value): ask the trees.
  if (some_pass && some_fail) return upper_bound() > 0.0;
  return some_pass;
}

std::uint64_t IncrementalOracle::fingerprint() const noexcept {
  return fingerprint_mix(fp_ + 0x9e3779b97f4a7c15ULL *
                                   static_cast<std::uint64_t>(count_));
}

bool IncrementalOracle::replay(const OracleCache::Entry& entry,
                               Result* out) const {
  out->value = entry.value;
  out->weight = entry.weight;
  out->chosen.reserve(entry.chosen_ids.size());
  for (std::size_t id : entry.chosen_ids) {
    std::size_t pick = id;
    if (!ids_.empty()) {
      const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
      if (it == ids_.end() || *it != id) return false;
      pick = static_cast<std::size_t>(it - ids_.begin());
    }
    if (pick >= member_.size() || member_[pick] == 0) return false;
    out->chosen.push_back(pick);
  }
  return true;
}

Result IncrementalOracle::solve(std::span<const std::size_t> members,
                                IncrementalStats* stats) {
  SP_ASSERT(members.size() == count_);
  const std::uint64_t key = fingerprint();

  if (cache_ != nullptr) {
    OracleCache::Entry entry;
    if (cache_->lookup(key, &entry)) {
      Result res;
      if (replay(entry, &res)) {
        if (stats != nullptr) ++stats->cache_hits;
        return res;
      }
      // A colliding key: solve as on a miss, which returns exactly what a
      // genuine hit would have.
      if (stats != nullptr) ++stats->cache_collisions;
    }
    if (stats != nullptr) ++stats->cache_misses;
  }

  scratch_items_.clear();
  scratch_items_.reserve(members.size());
  for (std::size_t m : members) {
    SP_ASSERT(member_[m]);
    scratch_items_.push_back(universe_[m]);
  }
  Result res = oracle_.solve(scratch_items_, capacity_);
  if (stats != nullptr) ++stats->solves;
  for (std::size_t& pick : res.chosen) pick = members[pick];
  std::sort(res.chosen.begin(), res.chosen.end());

  if (cache_ != nullptr) {
    OracleCache::Entry entry;
    entry.value = res.value;
    entry.weight = res.weight;
    entry.chosen_ids.reserve(res.chosen.size());
    for (std::size_t pick : res.chosen) {
      entry.chosen_ids.push_back(ids_.empty() ? pick : ids_[pick]);
    }
    cache_->store(key, std::move(entry));
  }
  return res;
}

}  // namespace sectorpack::knapsack
