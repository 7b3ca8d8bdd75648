#include "graph/embedding.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "util/require.hpp"
#include "util/rng.hpp"

namespace qsmt::graph {

std::size_t Embedding::total_physical() const {
  std::size_t total = 0;
  for (const auto& chain : chains) total += chain.size();
  return total;
}

std::size_t Embedding::max_chain_length() const {
  std::size_t best = 0;
  for (const auto& chain : chains) best = std::max(best, chain.size());
  return best;
}

bool Embedding::is_valid(const Graph& logical, const Graph& target) const {
  if (chains.size() < logical.num_nodes()) return false;
  const std::size_t nt = target.num_nodes();
  std::vector<std::int64_t> owner(nt, -1);
  for (std::size_t v = 0; v < chains.size(); ++v) {
    if (chains[v].empty()) return false;
    for (std::uint32_t q : chains[v]) {
      if (q >= nt || owner[q] != -1) return false;
      owner[q] = static_cast<std::int64_t>(v);
    }
  }
  // Chain connectivity via BFS inside each chain. One epoch-stamped `seen`
  // buffer serves every chain (no per-chain allocation or clear), and the
  // owner array doubles as the O(1) chain-membership test.
  std::vector<std::uint32_t> seen(nt, 0);
  std::uint32_t epoch = 0;
  std::vector<std::uint32_t> frontier;
  for (std::size_t v = 0; v < chains.size(); ++v) {
    const auto& chain = chains[v];
    ++epoch;
    frontier.assign(1, chain.front());
    seen[chain.front()] = epoch;
    std::size_t visited = 1;
    while (!frontier.empty()) {
      const std::uint32_t u = frontier.back();
      frontier.pop_back();
      for (std::uint32_t w : target.neighbors(u)) {
        if (seen[w] == epoch) continue;
        if (owner[w] != static_cast<std::int64_t>(v)) continue;
        seen[w] = epoch;
        ++visited;
        frontier.push_back(w);
      }
    }
    if (visited != chain.size()) return false;
  }
  // Every logical edge needs a physical edge between the chains.
  for (const auto& [a, b] : logical.edges()) {
    bool connected = false;
    for (std::uint32_t q : chains[a]) {
      for (std::uint32_t w : target.neighbors(q)) {
        if (owner[w] == static_cast<std::int64_t>(b)) {
          connected = true;
          break;
        }
      }
      if (connected) break;
    }
    if (!connected) return false;
  }
  return true;
}

Graph logical_graph(const qubo::QuboModel& model) {
  Graph g(model.num_variables());
  for (const auto& [key, value] : model.quadratic_terms()) {
    if (value == 0.0) continue;
    g.add_edge(key >> 32, key & 0xffffffffULL);
  }
  g.finalize();
  return g;
}

namespace {

constexpr std::uint32_t kUnreached = std::numeric_limits<std::uint32_t>::max();

// Epoch-stamped BFS field: dist/parent entries are meaningful only where
// stamp[q] == epoch, so starting a fresh BFS is a counter bump instead of two
// O(V) buffer reassignments (which dominated embed_once on large hardware
// graphs). One field per placed logical neighbour, reused across variables
// and — via the caller's scratch vector — across the whole attempt.
struct BfsField {
  std::vector<std::uint32_t> dist;
  std::vector<std::uint32_t> parent;
  std::vector<std::uint32_t> stamp;
  std::vector<std::uint32_t> queue;
  std::uint32_t epoch = 0;

  void begin(std::size_t n) {
    if (stamp.size() != n) {
      dist.resize(n);
      parent.resize(n);
      stamp.assign(n, 0);
      epoch = 0;
    }
    if (++epoch == 0) {  // Wrapped: one explicit invalidation, then restart.
      std::fill(stamp.begin(), stamp.end(), 0);
      epoch = 1;
    }
    queue.clear();
  }
  bool reached(std::uint32_t q) const { return stamp[q] == epoch; }
  void set(std::uint32_t q, std::uint32_t d, std::uint32_t p) {
    dist[q] = d;
    parent[q] = p;
    stamp[q] = epoch;
  }
};

// BFS over free qubits from every qubit adjacent to `chain`, recording
// distance and a parent pointer for path reconstruction. Qubits inside any
// chain are obstacles; qubits adjacent to `chain` get distance 1 with their
// parent inside the source chain (which terminates the path walk).
void bfs_from_chain(const Graph& target, const std::vector<std::uint32_t>& chain,
                    const std::vector<std::int64_t>& owner, BfsField& field) {
  field.begin(target.num_nodes());
  for (std::uint32_t q : chain) {
    for (std::uint32_t w : target.neighbors(q)) {
      if (owner[w] != -1 || field.reached(w)) continue;
      field.set(w, 1, q);
      field.queue.push_back(w);
    }
  }
  for (std::size_t head = 0; head < field.queue.size(); ++head) {
    const std::uint32_t u = field.queue[head];
    for (std::uint32_t w : target.neighbors(u)) {
      if (owner[w] != -1 || field.reached(w)) continue;
      field.set(w, field.dist[u] + 1, u);
      field.queue.push_back(w);
    }
  }
}

std::optional<Embedding> embed_once(const Graph& logical, const Graph& target,
                                    Xoshiro256& rng,
                                    std::vector<BfsField>& fields) {
  const std::size_t nl = logical.num_nodes();
  const std::size_t nt = target.num_nodes();
  Embedding embedding;
  embedding.chains.assign(nl, {});
  std::vector<std::int64_t> owner(nt, -1);

  // Maintained free list: free_nodes holds every unowned qubit, pos[q] its
  // slot, and claiming swap-pops in O(1). Pops scramble the iteration order,
  // so every consumer below breaks ties on the qubit id explicitly — which
  // reproduces the old ascending owner-array scans bit for bit.
  std::vector<std::uint32_t> free_nodes(nt);
  std::iota(free_nodes.begin(), free_nodes.end(), 0);
  std::vector<std::uint32_t> pos(nt);
  std::iota(pos.begin(), pos.end(), 0);
  auto claim_node = [&](std::uint32_t q, std::size_t v) {
    owner[q] = static_cast<std::int64_t>(v);
    const std::uint32_t slot = pos[q];
    const std::uint32_t last = free_nodes.back();
    free_nodes[slot] = last;
    pos[last] = slot;
    free_nodes.pop_back();
  };

  // Descending degree with random tie-break.
  std::vector<std::size_t> order(nl);
  std::iota(order.begin(), order.end(), 0);
  std::vector<std::uint64_t> tie(nl);
  for (auto& t : tie) t = rng();
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const std::size_t da = logical.degree(a);
    const std::size_t db = logical.degree(b);
    return da != db ? da > db : tie[a] > tie[b];
  });

  std::vector<std::size_t> placed_neighbors;
  for (std::size_t v : order) {
    placed_neighbors.clear();
    for (std::uint32_t u : logical.neighbors(v)) {
      if (!embedding.chains[u].empty()) placed_neighbors.push_back(u);
    }

    if (placed_neighbors.empty()) {
      // Seed anywhere free: uniform pick over the free qubits in ascending-id
      // order, matching the pre-free-list behaviour (which indexed a sorted
      // free vector). Runs once per connected component, so the O(V) order
      // walk is cold; every hot consumer uses the free list.
      if (free_nodes.empty()) return std::nullopt;
      std::size_t k = rng.below(free_nodes.size());
      std::uint32_t pick = kUnreached;
      for (std::uint32_t q = 0; q < nt; ++q) {
        if (owner[q] != -1) continue;
        if (k == 0) {
          pick = q;
          break;
        }
        --k;
      }
      embedding.chains[v].push_back(pick);
      claim_node(pick, v);
      continue;
    }

    // Distance fields from each placed neighbour chain.
    if (fields.size() < placed_neighbors.size()) {
      fields.resize(placed_neighbors.size());
    }
    for (std::size_t k = 0; k < placed_neighbors.size(); ++k) {
      bfs_from_chain(target, embedding.chains[placed_neighbors[k]], owner,
                     fields[k]);
    }

    // Root = free qubit reachable from all neighbour chains with minimum
    // (total distance, qubit id). Iterates the free list instead of all V
    // qubits; the id tie-break keeps the winner identical to the old
    // ascending full scan.
    std::uint64_t best_cost = std::numeric_limits<std::uint64_t>::max();
    std::uint32_t root = kUnreached;
    for (std::uint32_t q : free_nodes) {
      std::uint64_t cost = 0;
      bool reachable = true;
      for (std::size_t k = 0; k < placed_neighbors.size(); ++k) {
        if (!fields[k].reached(q)) {
          reachable = false;
          break;
        }
        cost += fields[k].dist[q];
      }
      if (!reachable) continue;
      if (cost < best_cost || (cost == best_cost && q < root)) {
        best_cost = cost;
        root = q;
      }
    }
    if (root == kUnreached) return std::nullopt;

    // Chain = root plus the path back toward each neighbour chain.
    auto claim = [&](std::uint32_t q) {
      if (owner[q] == -1) {
        claim_node(q, v);
        embedding.chains[v].push_back(q);
      }
    };
    claim(root);
    for (std::size_t k = 0; k < placed_neighbors.size(); ++k) {
      const BfsField& field = fields[k];
      std::uint32_t cur = root;
      // Walk parents until we step into the neighbour chain. Every walked
      // qubit was reached by BFS k, so its parent entry is current.
      while (field.reached(cur)) {
        const std::uint32_t p = field.parent[cur];
        if (owner[p] == static_cast<std::int64_t>(placed_neighbors[k])) break;
        // p may already belong to v's chain (shared prefix) — claim is
        // idempotent for v but must not steal from other chains.
        if (owner[p] != -1 && owner[p] != static_cast<std::int64_t>(v)) break;
        claim(p);
        cur = p;
      }
    }
  }
  return embedding;
}

}  // namespace

std::optional<Embedding> find_embedding(const Graph& logical,
                                        const Graph& target,
                                        std::uint64_t seed,
                                        std::size_t num_attempts) {
  require(logical.finalized() && target.finalized(),
          "find_embedding: graphs must be finalized");
  const std::size_t nl = logical.num_nodes();

  // Attempts are independent restarts (counter-seeded RNG per attempt). A
  // candidate replaces the incumbent only when it uses strictly fewer
  // qubits, so ties go to the lowest attempt index. A perfect embedding
  // (every chain a single qubit, the minimum possible total) cannot be
  // beaten, so the search stops there.
  std::optional<Embedding> best;
  std::vector<BfsField> fields;
  for (std::size_t attempt = 0; attempt < num_attempts; ++attempt) {
    Xoshiro256 rng(seed, attempt);
    auto candidate = embed_once(logical, target, rng, fields);
    if (!candidate || !candidate->is_valid(logical, target)) continue;
    if (!best || candidate->total_physical() < best->total_physical()) {
      best = std::move(candidate);
      if (best->total_physical() == nl) break;
    }
  }
  return best;
}

}  // namespace qsmt::graph
