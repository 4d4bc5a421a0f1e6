#include "server/chain_registry.hpp"

#include <utility>

#include "support/error.hpp"
#include "support/timer.hpp"

namespace spar::server {

namespace {

/// Approximate resident cost of an entry. The chain dominates: per stored
/// nonzero a CSR keeps one double and one index (~16B); per level it keeps
/// an n-vector of inverse diagonals; the source graph and its SDDMatrix
/// copy cost ~24B/edge (two endpoints + weight). From the first solve on,
/// the SDDMatrix also holds its Laplacian incidence lists: two 12B arcs per
/// edge plus an offset per vertex. An estimate is fine here: the budget is a
/// knob for "how many chains fit", not an allocator.
std::size_t entry_cost_bytes(const graph::Graph& g, const solver::InverseChain& chain) {
  const std::size_t n = chain.dimension();
  const std::size_t per_nnz = sizeof(double) + sizeof(std::uint32_t) * 2;
  const std::size_t chain_bytes =
      chain.total_nnz() * per_nnz + chain.num_levels() * n * sizeof(double);
  const std::size_t graph_bytes = g.num_edges() * 24 + n * sizeof(std::uint64_t);
  const std::size_t incidence_bytes =
      2 * g.num_edges() * (sizeof(graph::Vertex) + sizeof(double)) +
      (n + 1) * sizeof(std::size_t);
  // Two graph copies: the registry's and the SDDMatrix's.
  return chain_bytes + 2 * graph_bytes + incidence_bytes;
}

}  // namespace

ChainRegistry::ChainRegistry(RegistryOptions options) : options_(std::move(options)) {}

void ChainRegistry::put_graph(const std::string& name, graph::Graph g) {
  auto shared = std::make_shared<const graph::Graph>(std::move(g));
  std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = slots_[name];
  if (slot.entry) {
    resident_bytes_ -= slot.entry->memory_bytes;
    slot.entry.reset();
  }
  slot.graph = std::move(shared);
  // Invalidate any in-flight build of the OLD graph: bumping the generation
  // makes its builder discard the result instead of installing it, and
  // clearing `building` lets the next acquire start a fresh build from the
  // new graph. Waiters already parked on the old future still get the old
  // chain -- they raced put_graph, either order is a valid outcome.
  ++slot.generation;
  slot.building = {};
  slot.stats.name = name;
  slot.stats.resident = false;
  slot.stats.memory_bytes = 0;
}

bool ChainRegistry::has_graph(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = slots_.find(name);
  return it != slots_.end() && it->second.graph != nullptr;
}

ChainHandle ChainRegistry::acquire(const std::string& name) {
  std::shared_ptr<const graph::Graph> graph;
  std::uint64_t generation = 0;
  std::promise<ChainHandle> promise;
  {
    std::unique_lock<std::mutex> lock(mu_);
    const auto it = slots_.find(name);
    if (it == slots_.end() || !it->second.graph)
      throw spar::Error("chain registry: unknown graph \"" + name + "\"");
    Slot& slot = it->second;
    if (slot.entry) {
      ++slot.stats.hits;
      slot.last_use = ++clock_;
      return slot.entry;
    }
    if (slot.building.valid()) {
      // Another thread is already building this chain: wait on ITS result
      // outside the lock. Counts as a hit -- the work is shared.
      auto shared = slot.building;
      ++slot.stats.hits;
      lock.unlock();
      return shared.get();  // rethrows the builder's exception, if any
    }
    slot.building = promise.get_future().share();
    graph = slot.graph;
    generation = slot.generation;
  }

  // Build outside the lock: hits and builds on OTHER graphs proceed.
  try {
    support::Timer timer;
    solver::SDDMatrix matrix(*graph);
    solver::InverseChain chain(matrix, options_.chain);
    const std::uint64_t micros =
        static_cast<std::uint64_t>(timer.seconds() * 1e6);
    auto entry = std::make_shared<ChainEntry>(ChainEntry{
        name, std::move(matrix), std::move(chain), 0});
    entry->memory_bytes = entry_cost_bytes(*graph, entry->chain);

    std::lock_guard<std::mutex> lock(mu_);
    Slot& slot = slots_.at(name);
    if (slot.generation == generation) {
      slot.entry = entry;
      slot.last_use = ++clock_;
      ++slot.stats.builds;
      slot.stats.build_micros += micros;
      slot.stats.resident = true;
      slot.stats.memory_bytes = entry->memory_bytes;
      resident_bytes_ += entry->memory_bytes;
      slot.building = {};
      evict_to_budget_locked();
    }
    // Generation mismatch: put_graph replaced the graph mid-build. Do NOT
    // install (the slot would serve a chain for the wrong matrix) and do
    // not touch `building` -- it is empty or owned by a newer build. The
    // entry still satisfies this call and its pre-replacement waiters.
    promise.set_value(entry);
    return entry;
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      Slot& slot = slots_.at(name);
      if (slot.generation == generation) slot.building = {};
    }
    promise.set_exception(std::current_exception());
    throw;
  }
}

void ChainRegistry::evict_to_budget_locked() {
  if (options_.memory_budget_bytes == 0) return;
  while (resident_bytes_ > options_.memory_budget_bytes) {
    // Pick the least-recently-used resident entry, but never the MOST
    // recent: the chain just used (or built) must survive so that a budget
    // smaller than one chain still makes forward progress.
    Slot* victim = nullptr;
    Slot* newest = nullptr;
    for (auto& [key, slot] : slots_) {
      if (!slot.entry) continue;
      if (!newest || slot.last_use > newest->last_use) newest = &slot;
      if (!victim || slot.last_use < victim->last_use) victim = &slot;
    }
    if (!victim || victim == newest) return;
    resident_bytes_ -= victim->entry->memory_bytes;
    victim->entry.reset();  // in-flight ChainHandles keep the entry alive
    ++victim->stats.evictions;
    victim->stats.resident = false;
    victim->stats.memory_bytes = 0;
  }
}

std::size_t ChainRegistry::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_;
}

std::vector<ChainStats> ChainRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ChainStats> out;
  out.reserve(slots_.size());
  for (const auto& [key, slot] : slots_) out.push_back(slot.stats);
  return out;
}

}  // namespace spar::server
