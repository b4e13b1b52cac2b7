#include "opt/partition.hpp"

#include <algorithm>
#include <map>
#include <numeric>

namespace fact::opt {

std::vector<StgBlock> partition_stg(const stg::Stg& stg, double threshold,
                                    const std::vector<double>* pi_in) {
  std::vector<double> solved;
  if (!pi_in) solved = stg::state_probabilities(stg);
  const std::vector<double>& pi = pi_in ? *pi_in : solved;
  std::vector<double> freq;
  freq.reserve(stg.num_edges());
  for (const stg::Edge& e : stg.edges())
    freq.push_back(pi[static_cast<size_t>(e.from)] * e.prob);

  double max_freq = 0.0;
  for (double f : freq) max_freq = std::max(max_freq, f);
  const double cutoff = max_freq * threshold;

  // Edges above the cutoff, in decreasing frequency order.
  std::vector<int> edges(stg.num_edges());
  std::iota(edges.begin(), edges.end(), 0);
  std::erase_if(edges, [&](int e) {
    return freq[static_cast<size_t>(e)] < cutoff;
  });
  std::sort(edges.begin(), edges.end(), [&](int a, int b) {
    return freq[static_cast<size_t>(a)] > freq[static_cast<size_t>(b)];
  });

  // Union-find over states; grow/fuse blocks edge by edge (Section 4.1).
  std::vector<int> parent(stg.num_states());
  std::iota(parent.begin(), parent.end(), 0);
  std::vector<bool> grouped(stg.num_states(), false);
  std::function<int(int)> find = [&](int x) {
    while (parent[static_cast<size_t>(x)] != x) {
      parent[static_cast<size_t>(x)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  };
  for (int e : edges) {
    const stg::Edge& edge = stg.edge(e);
    grouped[static_cast<size_t>(edge.from)] = true;
    grouped[static_cast<size_t>(edge.to)] = true;
    parent[static_cast<size_t>(find(edge.from))] = find(edge.to);
  }

  std::map<int, StgBlock> blocks;
  for (size_t s = 0; s < stg.num_states(); ++s) {
    if (!grouped[s]) continue;
    StgBlock& b = blocks[find(static_cast<int>(s))];
    b.states.push_back(static_cast<int>(s));
    b.weight += pi[s];
    for (const auto& op : stg.state(static_cast<int>(s)).ops)
      if (op.stmt_id >= 0) b.stmt_ids.insert(op.stmt_id);
  }

  std::vector<StgBlock> out;
  out.reserve(blocks.size());
  for (auto& [root, b] : blocks) out.push_back(std::move(b));
  std::sort(out.begin(), out.end(),
            [](const StgBlock& a, const StgBlock& b) {
              return a.weight > b.weight;
            });
  return out;
}

}  // namespace fact::opt
