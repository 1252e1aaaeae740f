// Allocation counts of flat path storage. This binary replaces the global
// operator new/delete with counting versions, so it asserts how many heap
// blocks path storage takes and gives back: inserting paths grows a few
// flat arrays instead of allocating per path, and freeing a set, a
// solution space or a failed ϕ's partial answer costs O(blocks) frees, not
// O(paths). The counters are process-wide; every measured region runs
// single-threaded.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "algebra/eval_budget.h"
#include "algebra/frontier_closure.h"
#include "algebra/solution_space.h"
#include "gql/query.h"
#include "path/path_set.h"
#include "plan/evaluator.h"
#include "plan/optimizer.h"
#include "regex/ast.h"
#include "workload/generators.h"

namespace {

std::atomic<size_t> g_allocations{0};
std::atomic<size_t> g_frees{0};

void* CountedAlloc(size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void CountedFree(void* p) {
  if (p == nullptr) return;
  g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(size_t n) {
  if (void* p = CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t n) {
  if (void* p = CountedAlloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}

namespace pathalg {
namespace {

/// Heap allocations and frees made between construction and Stop().
class AllocCounter {
 public:
  AllocCounter()
      : allocations_(g_allocations.load()), frees_(g_frees.load()) {}
  void Stop() {
    allocations_ = g_allocations.load() - allocations_;
    frees_ = g_frees.load() - frees_;
  }
  size_t allocations() const { return allocations_; }
  size_t frees() const { return frees_; }

 private:
  size_t allocations_;
  size_t frees_;
};

constexpr size_t kPaths = 10000;

/// kPaths distinct length-2 paths.
std::vector<Path> DistinctPaths() {
  std::vector<Path> out;
  out.reserve(kPaths);
  for (uint32_t i = 0; i < kPaths; ++i) {
    out.push_back(Path({i % 100, i / 100, i % 7}, {i, i + 1}));
  }
  return out;
}

/// Amortized growth of a handful of flat arrays: a few blocks per
/// doubling of n, never one per path.
size_t GrowthBound(size_t n) {
  size_t doublings = 0;
  while ((size_t{1} << doublings) < n) ++doublings;
  return 8 * doublings;
}

TEST(PathSetAllocTest, InsertMakesLogarithmicallyManyAllocations) {
  const std::vector<Path> paths = DistinctPaths();
  std::optional<PathSet> set;
  set.emplace();
  AllocCounter count;
  for (const Path& p : paths) ASSERT_TRUE(set->Insert(p));
  count.Stop();
  EXPECT_EQ(set->size(), kPaths);
  EXPECT_LE(count.allocations(), GrowthBound(kPaths));
}

TEST(PathSetAllocTest, DestroyingASetOrItsSolutionSpaceFreesConstantBlocks) {
  const std::vector<Path> paths = DistinctPaths();
  {
    std::optional<PathSet> set;
    set.emplace(paths);
    AllocCounter count;
    set.reset();
    count.Stop();
    EXPECT_LE(count.frees(), 8u);
  }
  {
    std::optional<SolutionSpace> space;
    space.emplace(GroupBy(PathSet(paths), GroupKey::kSTL));
    ASSERT_EQ(space->num_paths(), kPaths);
    ASSERT_GT(space->num_groups(), 100u);
    AllocCounter count;
    space.reset();
    count.Stop();
    EXPECT_LE(count.frees(), 16u);
  }
}

TEST(PathSetAllocTest, FailedClosureReleasesItsPartialAnswerInBlocks) {
  SocialGraphOptions options;
  const PropertyGraph g = MakeSocialGraph(options);
  EvalLimits limits;
  limits.max_paths = 5000;
  AllocCounter count;
  Result<PathSet> r = FrontierClosure(g, RegexNode::Label("Knows"),
                                      PathSemantics::kTrail, limits);
  count.Stop();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(),
            BudgetExhausted("max_paths", PathSemantics::kTrail).message());
  // The accumulator held max_paths paths when the budget tripped; freeing
  // it, the candidate buffers and the walkers' scratch is a few blocks per
  // frontier segment.
  EXPECT_LT(count.frees(), limits.max_paths / 10);
}

TEST(PathSetAllocTest, SeekOverSocialGraphMakesNoPerNodeAllocation) {
  SocialGraphOptions options;
  options.num_persons = 400;
  options.num_messages = 800;
  options.ring_degree = 2;
  options.random_knows = 400;
  options.likes_per_message = 2;
  options.seed = 7;
  const PropertyGraph g = MakeSocialGraph(options);
  ASSERT_EQ(g.num_nodes(), 1200u);
  Result<Query> q = Query::Parse(
      "MATCH ALL WALK p = (?x {name:\"person3\"})-[:Knows]->(?y)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const PlanPtr plan = Optimize(q->plan()).plan;
  ASSERT_TRUE(Evaluate(g, plan).ok());  // warm up lazily built graph state

  AllocCounter count;
  Result<PathSet> r = Evaluate(g, plan);
  count.Stop();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 3u);  // ring_degree 2 plus one random chord
  EXPECT_LT(count.allocations(), g.num_nodes() / 10);
}

}  // namespace
}  // namespace pathalg
