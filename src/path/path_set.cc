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

bool PathSet::InsertHashed(Path p, size_t hash) {
  if (2 * (paths_.size() + 1) > slots_.size()) {
    Rehash(CapacityFor(paths_.size() + 1));
  }
  const size_t mask = slots_.size() - 1;
  for (size_t s = hash & mask;; s = (s + 1) & mask) {
    const uint32_t slot = slots_[s];
    if (slot == 0) {
      slots_[s] = static_cast<uint32_t>(paths_.size() + 1);
      paths_.push_back(std::move(p));
      hashes_.push_back(hash);
      return true;
    }
    if (hashes_[slot - 1] == hash && paths_[slot - 1] == p) return false;
  }
}

bool PathSet::Contains(const Path& p) const {
  return ContainsHashed(p, p.Hash());
}

bool PathSet::ContainsHashed(const Path& p, size_t hash) const {
  if (slots_.empty()) return false;
  const size_t mask = slots_.size() - 1;
  for (size_t s = hash & mask;; s = (s + 1) & mask) {
    const uint32_t slot = slots_[s];
    if (slot == 0) return false;
    if (hashes_[slot - 1] == hash && paths_[slot - 1] == p) return true;
  }
}

void PathSet::Rehash(size_t capacity) {
  slots_.assign(capacity, 0);
  const size_t mask = capacity - 1;
  for (size_t i = 0; i < hashes_.size(); ++i) {
    size_t s = hashes_[i] & mask;
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = static_cast<uint32_t>(i + 1);
  }
}

void PathSet::Reserve(size_t n) {
  paths_.reserve(n);
  hashes_.reserve(n);
  if (2 * n > slots_.size()) Rehash(CapacityFor(n));
}

void PathSet::clear() {
  paths_.clear();
  hashes_.clear();
  std::fill(slots_.begin(), slots_.end(), 0);
}

PathSet::Contents PathSet::Release() && {
  slots_.clear();
  // A moved-from vector is empty, so the set is left empty.
  return {std::move(paths_), std::move(hashes_)};
}

std::vector<Path> PathSet::Sorted() const {
  std::vector<Path> out = paths_;
  std::sort(out.begin(), out.end());
  return out;
}

bool PathSet::operator==(const PathSet& other) const {
  if (size() != other.size()) return false;
  for (size_t i = 0; i < paths_.size(); ++i) {
    if (!other.ContainsHashed(paths_[i], hashes_[i])) return false;
  }
  return true;
}

std::string PathSet::ToString(const PropertyGraph& g) const {
  std::string out = "{";
  bool first = true;
  for (const Path& p : Sorted()) {
    if (!first) out += ", ";
    first = false;
    out += p.ToString(g);
  }
  out += "}";
  return out;
}

}  // namespace pathalg
