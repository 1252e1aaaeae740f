#include "algebra/solution_space.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <sstream>
#include <tuple>

namespace pathalg {

const char* GroupKeyToString(GroupKey k) {
  switch (k) {
    case GroupKey::kNone:
      return "";
    case GroupKey::kS:
      return "S";
    case GroupKey::kT:
      return "T";
    case GroupKey::kL:
      return "L";
    case GroupKey::kST:
      return "ST";
    case GroupKey::kSL:
      return "SL";
    case GroupKey::kTL:
      return "TL";
    case GroupKey::kSTL:
      return "STL";
  }
  return "?";
}

const char* OrderKeyToString(OrderKey k) {
  switch (k) {
    case OrderKey::kP:
      return "P";
    case OrderKey::kG:
      return "G";
    case OrderKey::kA:
      return "A";
    case OrderKey::kPG:
      return "PG";
    case OrderKey::kPA:
      return "PA";
    case OrderKey::kGA:
      return "GA";
    case OrderKey::kPGA:
      return "PGA";
  }
  return "?";
}

bool GroupKeyUsesSource(GroupKey k) {
  return k == GroupKey::kS || k == GroupKey::kST || k == GroupKey::kSL ||
         k == GroupKey::kSTL;
}
bool GroupKeyUsesTarget(GroupKey k) {
  return k == GroupKey::kT || k == GroupKey::kST || k == GroupKey::kTL ||
         k == GroupKey::kSTL;
}
bool GroupKeyUsesLength(GroupKey k) {
  return k == GroupKey::kL || k == GroupKey::kSL || k == GroupKey::kTL ||
         k == GroupKey::kSTL;
}
bool OrderKeyOrdersPartitions(OrderKey k) {
  return k == OrderKey::kP || k == OrderKey::kPG || k == OrderKey::kPA ||
         k == OrderKey::kPGA;
}
bool OrderKeyOrdersGroups(OrderKey k) {
  return k == OrderKey::kG || k == OrderKey::kPG || k == OrderKey::kGA ||
         k == OrderKey::kPGA;
}
bool OrderKeyOrdersPaths(OrderKey k) {
  return k == OrderKey::kA || k == OrderKey::kPA || k == OrderKey::kGA ||
         k == OrderKey::kPGA;
}

size_t SolutionSpace::MinLenOfGroup(size_t g) const {
  size_t min_len = std::numeric_limits<size_t>::max();
  for (uint32_t i : PathsOfGroup(g)) {
    min_len = std::min(min_len, paths_[i].Len());
  }
  return min_len;
}

size_t SolutionSpace::MinLenOfPartition(size_t p) const {
  size_t min_len = std::numeric_limits<size_t>::max();
  for (uint32_t g : GroupsOfPartition(p)) {
    min_len = std::min(min_len, MinLenOfGroup(g));
  }
  return min_len;
}

std::string SolutionSpace::ToTableString(const PropertyGraph& graph) const {
  std::ostringstream os;
  os << "Partition  Group     Path                                     "
        "MinL(P)  MinL(G)  Len(p)\n";
  for (size_t p = 0; p < num_partitions(); ++p) {
    const IdSpan groups = GroupsOfPartition(p);
    for (size_t g_ix = 0; g_ix < groups.size(); ++g_ix) {
      const uint32_t g = groups[g_ix];
      for (const uint32_t i : PathsOfGroup(g)) {
        std::string part = "part" + std::to_string(p + 1);
        std::string grp = "group" + std::to_string(p + 1) +
                          std::to_string(g_ix + 1);
        std::string path = paths_[i].ToString(graph);
        os << part << std::string(part.size() < 11 ? 11 - part.size() : 1, ' ')
           << grp << std::string(grp.size() < 10 ? 10 - grp.size() : 1, ' ')
           << path
           << std::string(path.size() < 41 ? 41 - path.size() : 1, ' ')
           << MinLenOfPartition(p) << "        " << MinLenOfGroup(g)
           << "        " << paths_[i].Len() << "\n";
      }
    }
  }
  return os.str();
}

SolutionSpace GroupBy(PathSet s, GroupKey key) {
  SolutionSpace ss;
  const bool use_s = GroupKeyUsesSource(key);
  const bool use_t = GroupKeyUsesTarget(key);
  const bool use_l = GroupKeyUsesLength(key);
  ss.paths_ = std::move(s).Release();
  const size_t n = ss.paths_.size();

  // Group key (source?, target?, length?); its (source, target) prefix is
  // the partition key. kInvalidId / 0 mark "component unused" so that all
  // paths share it.
  struct Key {
    uint32_t source;
    uint32_t target;
    size_t length;
  };
  std::vector<Key> keys(n);
  for (size_t i = 0; i < n; ++i) {
    const PathRef p = ss.paths_[i];
    keys[i] = {use_s ? p.First() : kInvalidId, use_t ? p.Last() : kInvalidId,
               use_l ? p.Len() : 0};
  }

  // One stable sort of path indices by key numbers partitions and groups
  // canonically (by source/target/length, not first occurrence), which
  // makes the solution space — and hence every ANY-style projection pick —
  // independent of how the input set was enumerated; that is what lets
  // the optimizer's rewrites preserve results exactly. Ties keep index
  // order, so paths keep their set insertion order within each group.
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return std::tie(keys[a].source, keys[a].target, keys[a].length) <
           std::tie(keys[b].source, keys[b].target, keys[b].length);
  });

  // Groups are the runs of equal keys in `order`, partitions the runs of
  // equal (source, target); groups land in each partition sorted by
  // their length component.
  ss.path_group_.resize(n);
  for (size_t k = 0; k < n; ++k) {
    const Key& cur = keys[order[k]];
    const Key* prev = k == 0 ? nullptr : &keys[order[k - 1]];
    const bool new_partition = prev == nullptr ||
                               prev->source != cur.source ||
                               prev->target != cur.target;
    if (new_partition) {
      ss.partition_begin_.push_back(
          static_cast<uint32_t>(ss.group_partition_.size()));
    }
    if (new_partition || prev->length != cur.length) {
      ss.group_begin_.push_back(static_cast<uint32_t>(k));
      ss.group_partition_.push_back(
          static_cast<uint32_t>(ss.partition_begin_.size() - 1));
    }
    ss.path_group_[order[k]] =
        static_cast<uint32_t>(ss.group_partition_.size() - 1);
  }
  const size_t num_partitions = ss.partition_begin_.size();
  ss.group_begin_.push_back(static_cast<uint32_t>(n));
  ss.partition_begin_.push_back(
      static_cast<uint32_t>(ss.group_partition_.size()));
  ss.group_paths_ = std::move(order);
  ss.partition_groups_.resize(ss.group_partition_.size());
  std::iota(ss.partition_groups_.begin(), ss.partition_groups_.end(), 0);

  // Δ(x) = 1 for every path, group and partition (§5.1): no virtual order.
  ss.path_rank_.assign(n, 1);
  ss.group_rank_.assign(ss.group_partition_.size(), 1);
  ss.partition_rank_.assign(num_partitions, 1);
  return ss;
}

SolutionSpace OrderBy(SolutionSpace ss, OrderKey key) {
  // Δ′ is the only change (Table 6).
  if (OrderKeyOrdersPartitions(key)) {
    for (size_t p = 0; p < ss.num_partitions(); ++p) {
      ss.partition_rank_[p] = ss.MinLenOfPartition(p);
    }
  }
  if (OrderKeyOrdersGroups(key)) {
    for (size_t g = 0; g < ss.num_groups(); ++g) {
      ss.group_rank_[g] = ss.MinLenOfGroup(g);
    }
  }
  if (OrderKeyOrdersPaths(key)) {
    for (size_t i = 0; i < ss.num_paths(); ++i) {
      ss.path_rank_[i] = ss.paths_[i].Len();
    }
  }
  return ss;
}

std::string ProjectionSpec::ToString() const {
  auto render = [](const std::optional<size_t>& v) {
    return v.has_value() ? std::to_string(*v) : std::string("*");
  };
  return "(" + render(partitions) + "," + render(groups) + "," +
         render(paths) + ")";
}

Result<PathSet> Project(SolutionSpace ss, const ProjectionSpec& spec) {
  for (const auto& field : {spec.partitions, spec.groups, spec.paths}) {
    if (field.has_value() && *field == 0) {
      return Status::InvalidArgument(
          "projection counts must be positive integers or *");
    }
  }

  // Algorithm 1. Sort(·) is a stable sort on Δ so that equal ranks keep
  // their first-occurrence order. The group and path runs are sorted in
  // place: every group lies in one partition and every path in one group,
  // so each run is sorted — and each path copied out — at most once.
  auto take = [](const std::optional<size_t>& want, size_t have) {
    return (!want.has_value() || *want > have) ? have : *want;
  };

  std::vector<uint32_t> seq_p(ss.num_partitions());
  std::iota(seq_p.begin(), seq_p.end(), 0);
  std::stable_sort(seq_p.begin(), seq_p.end(),
                   [&](uint32_t a, uint32_t b) {
                     return ss.PartitionRank(a) < ss.PartitionRank(b);
                   });

  auto group_before = [&](uint32_t a, uint32_t b) {
    return ss.GroupRank(a) < ss.GroupRank(b);
  };
  // Path-level ties break by canonical path order (not insertion order):
  // the paper's ANY/ANY SHORTEST are non-deterministic; we resolve them so
  // the pick is independent of how the input set was produced, which makes
  // optimizer rewrites exactly result-preserving. The paths of a space are
  // distinct, so this is a strict total order: an unstable sort — or a
  // partial sort of the first k — picks exactly what a stable sort would.
  auto path_before = [&](uint32_t a, uint32_t b) {
    if (ss.PathRank(a) != ss.PathRank(b)) {
      return ss.PathRank(a) < ss.PathRank(b);
    }
    return ss.path(a) < ss.path(b);
  };

  PathSet out;
  const size_t max_p = take(spec.partitions, seq_p.size());
  for (size_t pi = 0; pi < max_p; ++pi) {
    const uint32_t p = seq_p[pi];
    uint32_t* const seq_g =
        ss.partition_groups_.data() + ss.partition_begin_[p];
    uint32_t* const seq_g_end =
        ss.partition_groups_.data() + ss.partition_begin_[p + 1];
    // γ orders a partition's groups by length, which τ's MinL ranks
    // follow, so this stable sort (and its buffer) is almost never needed.
    if (!std::is_sorted(seq_g, seq_g_end, group_before)) {
      std::stable_sort(seq_g, seq_g_end, group_before);
    }
    const size_t max_g = take(spec.groups, seq_g_end - seq_g);
    for (size_t gi = 0; gi < max_g; ++gi) {
      const uint32_t g = seq_g[gi];
      uint32_t* const seq_a = ss.group_paths_.data() + ss.group_begin_[g];
      uint32_t* const seq_a_end =
          ss.group_paths_.data() + ss.group_begin_[g + 1];
      const size_t max_a = take(spec.paths, seq_a_end - seq_a);
      if (max_a < static_cast<size_t>(seq_a_end - seq_a)) {
        std::partial_sort(seq_a, seq_a + max_a, seq_a_end, path_before);
      } else {
        std::sort(seq_a, seq_a_end, path_before);
      }
      for (size_t ai = 0; ai < max_a; ++ai) {
        const uint32_t i = seq_a[ai];
        out.InsertHashed(ss.paths_[i], ss.paths_.hash_of(i));
      }
    }
  }
  return out;
}

}  // namespace pathalg
