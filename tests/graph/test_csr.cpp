#include "graph/csr.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "support/parallel.hpp"

namespace spar::graph {
namespace {

TEST(CSRGraph, TriangleDegreesAndArcs) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(0, 2, 3.0);
  const CSRGraph csr(g);
  EXPECT_EQ(csr.num_vertices(), 3u);
  EXPECT_EQ(csr.num_arcs(), 6u);
  EXPECT_EQ(csr.degree(0), 2u);
  EXPECT_EQ(csr.degree(1), 2u);
  EXPECT_EQ(csr.degree(2), 2u);
}

TEST(CSRGraph, ArcsCarryWeightsAndIds) {
  Graph g(2);
  const EdgeId id = g.add_edge(0, 1, 2.5);
  const CSRGraph csr(g);
  const auto nbrs = csr.neighbors(0);
  ASSERT_EQ(nbrs.size(), 1u);
  EXPECT_EQ(nbrs[0].to, 1u);
  EXPECT_DOUBLE_EQ(nbrs[0].w, 2.5);
  EXPECT_EQ(nbrs[0].id, id);
}

TEST(CSRGraph, NeighborsSortedByTarget) {
  Graph g(5);
  g.add_edge(2, 4, 1.0);
  g.add_edge(2, 0, 1.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(2, 1, 1.0);
  const CSRGraph csr(g);
  const auto nbrs = csr.neighbors(2);
  ASSERT_EQ(nbrs.size(), 4u);
  for (std::size_t i = 1; i < nbrs.size(); ++i)
    EXPECT_LT(nbrs[i - 1].to, nbrs[i].to);
}

TEST(CSRGraph, ParallelEdgesKeptSeparately) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 1, 2.0);
  const CSRGraph csr(g);
  EXPECT_EQ(csr.degree(0), 2u);
  EXPECT_EQ(csr.degree(1), 2u);
}

TEST(CSRGraph, IsolatedVertexHasZeroDegree) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  const CSRGraph csr(g);
  EXPECT_EQ(csr.degree(2), 0u);
  EXPECT_TRUE(csr.neighbors(2).empty());
}

TEST(CSRGraph, MaxDegreeOnStar) {
  const CSRGraph csr(star_graph(10));
  EXPECT_EQ(csr.max_degree(), 9u);
}

TEST(CSRGraph, ArcCountMatchesTwiceEdgesOnRandomGraph) {
  const Graph g = erdos_renyi(100, 0.1, 3);
  const CSRGraph csr(g);
  EXPECT_EQ(csr.num_arcs(), 2 * g.num_edges());
  std::size_t degree_sum = 0;
  for (Vertex v = 0; v < csr.num_vertices(); ++v) degree_sum += csr.degree(v);
  EXPECT_EQ(degree_sum, csr.num_arcs());
}

TEST(CSRGraph, EveryArcHasReverseTwin) {
  const Graph g = erdos_renyi(60, 0.15, 9);
  const CSRGraph csr(g);
  for (Vertex v = 0; v < csr.num_vertices(); ++v) {
    for (const Arc& arc : csr.neighbors(v)) {
      bool found = false;
      for (const Arc& back : csr.neighbors(arc.to)) {
        if (back.id == arc.id && back.to == v) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "arc " << v << "->" << arc.to << " has no twin";
    }
  }
}

// --- build-path policy (PR 3: atomic scatter gated on work per thread) -----

namespace {
struct BuildPathGuard {
  CsrBuildPath saved = csr_build_path();
  ~BuildPathGuard() { set_csr_build_path(saved); }
};

bool same_structure(const CSRGraph& a, const CSRGraph& b) {
  if (a.num_vertices() != b.num_vertices() || a.num_arcs() != b.num_arcs())
    return false;
  for (Vertex v = 0; v < a.num_vertices(); ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    if (na.size() != nb.size()) return false;
    for (std::size_t i = 0; i < na.size(); ++i)
      if (na[i].to != nb[i].to || na[i].id != nb[i].id || na[i].w != nb[i].w)
        return false;
  }
  return true;
}
}  // namespace

TEST(CSRBuildPath, ForcedPathsProduceIdenticalStructure) {
  BuildPathGuard guard;
  const Graph g = randomize_weights(connected_erdos_renyi(300, 0.05, 21), 1.5, 4);
  support::par::ThreadLimit limit(4);
  set_csr_build_path(CsrBuildPath::kSerial);
  const CSRGraph serial(g);
  set_csr_build_path(CsrBuildPath::kParallel);
  const CSRGraph atomic(g);
  set_csr_build_path(CsrBuildPath::kAuto);
  const CSRGraph auto_built(g);
  EXPECT_TRUE(same_structure(serial, atomic));
  EXPECT_TRUE(same_structure(serial, auto_built));
}

TEST(CSRBuildPath, AutoGatesOnWorkPerEffectiveThread) {
  BuildPathGuard guard;
  set_csr_build_path(CsrBuildPath::kAuto);
  // Small builds must take the serial path at any thread budget: the atomic
  // scatter was measured ~2.5x slower there (BENCH_pr2 -> BENCH_pr3).
  support::par::ThreadLimit limit(4);
  EXPECT_FALSE(csr_parallel_build_enabled(1000));
  // A budget above the core count buys no parallelism (the process pool is
  // never wider than the machine), so on one core it must not enable it.
  if (support::par::hardware_threads() == 1) {
    EXPECT_FALSE(csr_parallel_build_enabled(std::size_t{1} << 22));
  }
}

TEST(CSRBuildPath, ForcedModesOverrideTheGate) {
  BuildPathGuard guard;
  set_csr_build_path(CsrBuildPath::kSerial);
  EXPECT_FALSE(csr_parallel_build_enabled(std::size_t{1} << 22));
  set_csr_build_path(CsrBuildPath::kParallel);
  EXPECT_TRUE(csr_parallel_build_enabled(std::size_t{1} << 22));
  EXPECT_FALSE(csr_parallel_build_enabled(1));
}

}  // namespace
}  // namespace spar::graph
