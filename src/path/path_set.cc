#include "path/path_set.h"

#include <algorithm>

namespace pathalg {

namespace {

constexpr size_t kMinCapacity = 16;

/// The smallest power-of-two table capacity that holds `n` paths at a load
/// factor of at most 1/2.
size_t CapacityFor(size_t n) {
  size_t capacity = kMinCapacity;
  while (capacity < 2 * n) capacity *= 2;
  return capacity;
}

}  // namespace

bool PathSet::InsertHashed(PathRef p, size_t hash) {
  if (2 * (size() + 1) > slots_.size()) Rehash(CapacityFor(size() + 1));
  const size_t mask = slots_.size() - 1;
  for (size_t s = HomeSlot(hash);; s = (s + 1) & mask) {
    const uint32_t slot = slots_[s];
    if (slot == 0) {
      slots_[s] = static_cast<uint32_t>(size() + 1);
      paths_.Append(p, hash);
      return true;
    }
    if (paths_.hash_of(slot - 1) == hash && paths_[slot - 1] == p) {
      return false;
    }
  }
}

bool PathSet::ContainsHashed(PathRef p, size_t hash) const {
  if (slots_.empty()) return false;
  const size_t mask = slots_.size() - 1;
  for (size_t s = HomeSlot(hash);; s = (s + 1) & mask) {
    const uint32_t slot = slots_[s];
    if (slot == 0) return false;
    if (paths_.hash_of(slot - 1) == hash && paths_[slot - 1] == p) {
      return true;
    }
  }
}

void PathSet::Rehash(size_t capacity) {
  slots_.assign(capacity, 0);
  shift_ = 64;
  for (size_t c = capacity; c > 1; c /= 2) --shift_;
  const size_t mask = capacity - 1;
  for (size_t i = 0; i < size(); ++i) {
    size_t s = HomeSlot(paths_.hash_of(i));
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = static_cast<uint32_t>(i + 1);
  }
}

void PathSet::Reserve(size_t n) {
  paths_.Reserve(n);
  if (2 * n > slots_.size()) Rehash(CapacityFor(n));
}

void PathSet::clear() {
  paths_.clear();
  std::fill(slots_.begin(), slots_.end(), 0);
}

PathList PathSet::Release() && {
  slots_ = {};
  shift_ = 64;
  // A moved-from vector is empty, so the set is left empty.
  return std::move(paths_);
}

std::vector<Path> PathSet::Sorted() const {
  std::vector<Path> out(begin(), end());
  std::sort(out.begin(), out.end());
  return out;
}

bool PathSet::operator==(const PathSet& other) const {
  if (size() != other.size()) return false;
  for (size_t i = 0; i < size(); ++i) {
    if (!other.ContainsHashed(paths_[i], hash_of(i))) return false;
  }
  return true;
}

std::string PathSet::ToString(const PropertyGraph& g) const {
  std::string out = "{";
  bool first = true;
  for (PathRef p : Sorted()) {
    if (!first) out += ", ";
    first = false;
    out += p.ToString(g);
  }
  out += "}";
  return out;
}

}  // namespace pathalg
