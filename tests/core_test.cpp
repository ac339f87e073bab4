// Unit and property tests for src/core: TDG, components, metrics,
// the Section V speed-up model, and component scheduling.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/hash.h"
#include "common/rng.h"
#include "core/components.h"
#include "core/metrics.h"
#include "core/scheduling.h"
#include "core/speedup_model.h"
#include "core/tdg.h"

namespace txconc::core {
namespace {

// ----------------------------------------------------------------------- TDG

TEST(Tdg, NodesAndEdges) {
  Tdg g;
  const NodeId a = g.add_node();
  const NodeId b = g.add_node();
  const NodeId c = g.add_node();
  g.add_edge(a, b);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.neighbors(a), std::vector<NodeId>{b});
  EXPECT_EQ(g.neighbors(b), std::vector<NodeId>{a});
  EXPECT_TRUE(g.neighbors(c).empty());
}

TEST(Tdg, SelfLoopDoesNotAffectAdjacency) {
  Tdg g(2);
  g.add_edge(0, 0);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.neighbors(0).empty());
}

TEST(Tdg, RejectsOutOfRangeEdge) {
  Tdg g(1);
  EXPECT_THROW(g.add_edge(0, 1), UsageError);
  EXPECT_THROW(g.neighbors(5), UsageError);
}

TEST(KeyedTdg, InternsKeys) {
  KeyedTdg<Hash256> g;
  const Hash256 h1 = Hash256::from_seed(1);
  const Hash256 h2 = Hash256::from_seed(2);
  const NodeId a = g.node(h1);
  const NodeId a_again = g.node(h1);
  const NodeId b = g.node(h2);
  EXPECT_EQ(a, a_again);
  EXPECT_NE(a, b);
  EXPECT_EQ(g.key_of(a), h1);
  EXPECT_TRUE(g.contains(h1));
  EXPECT_EQ(g.find(Hash256::from_seed(3)), g.num_nodes());
}

TEST(KeyedTdg, AddEdgeCreatesNodes) {
  KeyedTdg<Address> g;
  g.add_edge(Address::from_seed(1), Address::from_seed(2));
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.graph().num_edges(), 1u);
}

// ---------------------------------------------------------------- components

TEST(Components, EmptyGraph) {
  const Tdg g;
  const ComponentSet cs = connected_components_bfs(g);
  EXPECT_EQ(cs.num_nodes(), 0u);
  EXPECT_EQ(cs.num_components(), 0u);
  EXPECT_EQ(cs.lcc_size(), 0u);
}

TEST(Components, Singletons) {
  const Tdg g(4);
  const ComponentSet cs = connected_components_bfs(g);
  EXPECT_EQ(cs.num_components(), 4u);
  EXPECT_EQ(cs.lcc_size(), 1u);
  EXPECT_EQ(cs.num_singletons(), 4u);
}

TEST(Components, PathGraph) {
  Tdg g(5);
  for (NodeId i = 0; i + 1 < 5; ++i) g.add_edge(i, i + 1);
  const ComponentSet cs = connected_components_bfs(g);
  EXPECT_EQ(cs.num_components(), 1u);
  EXPECT_EQ(cs.lcc_size(), 5u);
  EXPECT_EQ(cs.num_singletons(), 0u);
}

TEST(Components, TwoComponentsWithCycle) {
  Tdg g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);  // triangle 0-1-2
  g.add_edge(3, 4);  // pair 3-4; node 5 isolated
  const ComponentSet cs = connected_components_bfs(g);
  EXPECT_EQ(cs.num_components(), 3u);
  EXPECT_EQ(cs.lcc_size(), 3u);
  EXPECT_EQ(cs.num_singletons(), 1u);
  EXPECT_EQ(cs.component_of(0), cs.component_of(2));
  EXPECT_EQ(cs.component_of(3), cs.component_of(4));
  EXPECT_NE(cs.component_of(0), cs.component_of(3));
}

TEST(Components, ParallelEdgesAndSelfLoops) {
  Tdg g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 1);  // parallel
  g.add_edge(1, 0);  // reverse
  g.add_edge(2, 2);  // self loop
  const ComponentSet cs = connected_components_dsu(g);
  EXPECT_EQ(cs.num_components(), 2u);
  EXPECT_EQ(cs.lcc_size(), 2u);
}

TEST(Components, GroupedListsEveryNodeOnce) {
  Tdg g(7);
  g.add_edge(0, 3);
  g.add_edge(3, 6);
  g.add_edge(1, 2);
  const ComponentSet cs = connected_components_bfs(g);
  const auto groups = cs.grouped();
  std::size_t total = 0;
  for (const auto& group : groups) total += group.size();
  EXPECT_EQ(total, 7u);
  EXPECT_EQ(groups.size(), cs.num_components());
  for (std::size_t i = 0; i < groups.size(); ++i) {
    EXPECT_EQ(groups[i].size(), cs.sizes()[i]);
  }
}

TEST(ComponentSet, RejectsSparseIds) {
  EXPECT_THROW(ComponentSet({0, 2}), UsageError);
}

// Property: the paper's BFS and union-find agree on random graphs.
class ComponentsEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ComponentsEquivalence, BfsMatchesDsu) {
  Rng rng(GetParam());
  const std::size_t n = 1 + rng.uniform(400);
  const std::size_t m = rng.uniform(2 * n);
  Tdg g(n);
  for (std::size_t i = 0; i < m; ++i) {
    g.add_edge(static_cast<NodeId>(rng.uniform(n)),
               static_cast<NodeId>(rng.uniform(n)));
  }
  const ComponentSet bfs = connected_components_bfs(g);
  const ComponentSet dsu = connected_components_dsu(g);
  ASSERT_EQ(bfs.num_components(), dsu.num_components());
  EXPECT_EQ(bfs.lcc_size(), dsu.lcc_size());
  EXPECT_EQ(bfs.num_singletons(), dsu.num_singletons());
  // Same partition: equal component ids iff equal in the other.
  for (NodeId a = 0; a < n; ++a) {
    EXPECT_EQ(bfs.component_of(a), dsu.component_of(a)) << "node " << a;
  }
  // Sizes must sum to n in both.
  EXPECT_EQ(std::accumulate(bfs.sizes().begin(), bfs.sizes().end(),
                            std::size_t{0}),
            n);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, ComponentsEquivalence,
                         ::testing::Range<std::uint64_t>(0, 25));

// ------------------------------------------------------------------- metrics

TEST(Metrics, EmptyBlock) {
  const ComponentSet cs = connected_components_bfs(Tdg{});
  const ConflictStats stats = utxo_conflict_stats(cs);
  EXPECT_EQ(stats.total_transactions, 0u);
  EXPECT_EQ(stats.single_rate(), 0.0);
  EXPECT_EQ(stats.group_rate(), 0.0);
}

TEST(Metrics, UtxoFullyIndependent) {
  const Tdg g(10);
  const ConflictStats stats = utxo_conflict_stats(connected_components_bfs(g));
  EXPECT_EQ(stats.conflicted_transactions, 0u);
  EXPECT_EQ(stats.single_rate(), 0.0);
  EXPECT_DOUBLE_EQ(stats.group_rate(), 0.1);  // LCC is a single transaction
}

TEST(Metrics, UtxoChainLikeBitcoinBlock358624) {
  // Mimics the paper's extreme example: nearly all transactions in one
  // dependency chain (3217 of 3264 in Bitcoin block 358624).
  const std::size_t total = 3264;
  const std::size_t chained = 3217;
  Tdg g(total);
  for (NodeId i = 0; i + 1 < chained; ++i) g.add_edge(i, i + 1);
  const ConflictStats stats = utxo_conflict_stats(connected_components_bfs(g));
  EXPECT_EQ(stats.conflicted_transactions, chained);
  EXPECT_EQ(stats.lcc_transactions, chained);
  EXPECT_NEAR(stats.single_rate(), 0.9856, 1e-3);
  EXPECT_NEAR(stats.group_rate(), 0.9856, 1e-3);
}

TEST(Metrics, UtxoWeighted) {
  Tdg g(4);
  g.add_edge(0, 1);
  const std::vector<double> weights = {10.0, 10.0, 1.0, 1.0};
  const ConflictStats stats =
      utxo_conflict_stats(connected_components_bfs(g), weights);
  EXPECT_DOUBLE_EQ(stats.single_rate(), 0.5);
  EXPECT_DOUBLE_EQ(stats.weighted_single_rate(), 20.0 / 22.0);
  EXPECT_DOUBLE_EQ(stats.weighted_group_rate(), 20.0 / 22.0);
}

TEST(Metrics, UtxoWeightCountMismatchThrows) {
  const Tdg g(3);
  const std::vector<double> weights = {1.0};
  EXPECT_THROW(
      utxo_conflict_stats(connected_components_bfs(g), weights),
      UsageError);
}

// Paper Figure 1a: Ethereum block 1000007 — 5 transactions, 4 components;
// transactions 3 and 4 share the DwarfPool address. c = l = 40%.
TEST(Metrics, PaperFigure1a) {
  KeyedTdg<int> addresses;  // ints stand in for addresses
  // tx0: 0xeb3 -> 0x828 ; tx1: 0x529 -> 0x08a ; tx2: 0x125 -> 0xfbb
  // tx3: 0x2a6 -> 0x24b ; tx4: 0x2a6 -> 0xc70   (same sender 0x2a6)
  struct Tx {
    int sender;
    int receiver;
  };
  const std::vector<Tx> txs = {{1, 2}, {3, 4}, {5, 6}, {7, 8}, {7, 9}};
  std::vector<AccountTxRef> refs;
  for (const Tx& tx : txs) {
    addresses.add_edge(tx.sender, tx.receiver);
    refs.push_back({addresses.node(tx.sender), addresses.node(tx.receiver), 1.0});
  }
  const ComponentSet cs = connected_components_bfs(addresses.graph());
  const ConflictStats stats = account_conflict_stats(cs, refs);
  EXPECT_EQ(stats.total_transactions, 5u);
  EXPECT_EQ(stats.conflicted_transactions, 2u);
  EXPECT_EQ(stats.num_components, 4u);
  EXPECT_DOUBLE_EQ(stats.single_rate(), 0.4);
  EXPECT_DOUBLE_EQ(stats.group_rate(), 0.4);
}

// Paper Figure 1b: Ethereum block 1000124 — 16 transactions, 5 components:
// txs 1-9 to the Poloniex address, txs 10-12 to a contract that chains two
// internal calls, txs 13-14 from the same sender, txs 0 and 15 independent.
// c = 14/16 = 87.5%, l = 9/16 = 56.25%.
TEST(Metrics, PaperFigure1b) {
  KeyedTdg<int> addresses;
  std::vector<AccountTxRef> refs;
  auto add_tx = [&](int sender, int receiver) {
    addresses.add_edge(sender, receiver);
    refs.push_back({addresses.node(sender), addresses.node(receiver), 1.0});
  };
  constexpr int kPoloniex = 100;   // 0x32b
  constexpr int kContract = 200;   // 0x9af
  constexpr int kInner1 = 201;     // 0x115
  constexpr int kInner2 = 202;     // 0x276 (ElcoinDb)
  constexpr int kDwarfPool = 300;

  add_tx(1, 50);  // tx 0: independent
  for (int i = 2; i <= 10; ++i) add_tx(i, kPoloniex);        // txs 1-9
  for (int i = 11; i <= 13; ++i) add_tx(i, kContract);       // txs 10-12
  add_tx(kDwarfPool, 60);                                    // tx 13
  add_tx(kDwarfPool, 61);                                    // tx 14
  add_tx(20, 70);                                            // tx 15

  // Internal transactions: contract -> inner1 -> inner2 (edges only).
  addresses.add_edge(kContract, kInner1);
  addresses.add_edge(kInner1, kInner2);

  const ComponentSet cs = connected_components_bfs(addresses.graph());
  const ConflictStats stats = account_conflict_stats(cs, refs);
  EXPECT_EQ(stats.total_transactions, 16u);
  EXPECT_EQ(stats.conflicted_transactions, 14u);
  EXPECT_EQ(stats.num_components, 5u);
  EXPECT_EQ(stats.lcc_transactions, 9u);
  EXPECT_DOUBLE_EQ(stats.single_rate(), 0.875);
  EXPECT_DOUBLE_EQ(stats.group_rate(), 0.5625);
}

TEST(Metrics, AccountDetectsMissingTxEdge) {
  KeyedTdg<int> addresses;
  const NodeId a = addresses.node(1);
  const NodeId b = addresses.node(2);
  const std::vector<AccountTxRef> refs = {{a, b, 1.0}};
  // The tx's own edge was never added, so a and b are disconnected.
  const ComponentSet cs = connected_components_bfs(addresses.graph());
  EXPECT_THROW(account_conflict_stats(cs, refs), UsageError);
}

// Property: group rate <= single rate whenever any conflict exists, and
// both rates are within [0, 1]. (Section IV-B: "the single-transaction
// conflict [rate] must always be at least as high as the group conflict
// rate" — for conflicted blocks.)
class MetricsInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MetricsInvariants, GroupRateAtMostSingleRateWhenConflicted) {
  Rng rng(GetParam());
  const std::size_t n = 2 + rng.uniform(300);
  Tdg g(n);
  const std::size_t m = rng.uniform(n);
  for (std::size_t i = 0; i < m; ++i) {
    g.add_edge(static_cast<NodeId>(rng.uniform(n)),
               static_cast<NodeId>(rng.uniform(n)));
  }
  const ConflictStats stats = utxo_conflict_stats(connected_components_bfs(g));
  EXPECT_GE(stats.single_rate(), 0.0);
  EXPECT_LE(stats.single_rate(), 1.0);
  EXPECT_GE(stats.group_rate(), 0.0);
  EXPECT_LE(stats.group_rate(), 1.0);
  if (stats.conflicted_transactions > 0) {
    EXPECT_LE(stats.group_rate(), stats.single_rate());
  }
  // The LCC transactions are all conflicted when the LCC has >= 2 members.
  if (stats.lcc_transactions >= 2) {
    EXPECT_LE(stats.lcc_transactions, stats.conflicted_transactions);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomBlocks, MetricsInvariants,
                         ::testing::Range<std::uint64_t>(100, 130));

// ------------------------------------------------------------- speedup model

TEST(SpeculativeModel, PaperEquationForm) {
  // T' = floor(x/n) + 1 + c*x
  EXPECT_DOUBLE_EQ(SpeculativeModel::execution_time(100, 0.5, 8),
                   12.0 + 1.0 + 50.0);
  EXPECT_DOUBLE_EQ(SpeculativeModel::speedup(100, 0.5, 8), 100.0 / 63.0);
}

// Paper worked example, Figure 1a block: x=5, c=0.4, n>=5 -> phase 1 in one
// unit, two transactions re-run sequentially: R = 5/3.
TEST(SpeculativeModel, WorkedExampleFigure1a) {
  EXPECT_DOUBLE_EQ(SpeculativeModel::execution_time_exact(5, 0.4, 5), 3.0);
  EXPECT_NEAR(SpeculativeModel::speedup_exact(5, 0.4, 5), 5.0 / 3.0, 1e-12);
}

// Paper worked example, Figure 1b block: x=16, c=0.875.
TEST(SpeculativeModel, WorkedExampleFigure1b) {
  // n >= 16: R = 16/15 ~ 1.07.
  EXPECT_NEAR(SpeculativeModel::speedup_exact(16, 0.875, 16), 16.0 / 15.0,
              1e-12);
  // 8 <= n <= 15: phase 1 takes 2 units, R = 1 (no gain).
  EXPECT_DOUBLE_EQ(SpeculativeModel::speedup_exact(16, 0.875, 8), 1.0);
  EXPECT_DOUBLE_EQ(SpeculativeModel::speedup_exact(16, 0.875, 15), 1.0);
  // n < 8: worse than sequential.
  EXPECT_LT(SpeculativeModel::speedup_exact(16, 0.875, 7), 1.0);
}

TEST(SpeculativeModel, ExactAndFormulaDifferOnlyWhenDivisible) {
  for (std::size_t x : {15u, 16u, 17u}) {
    const double formula = SpeculativeModel::execution_time(x, 0.0, 8);
    const double exact = SpeculativeModel::execution_time_exact(x, 0.0, 8);
    if (x % 8 == 0) {
      EXPECT_DOUBLE_EQ(formula, exact + 1.0) << x;
    } else {
      EXPECT_DOUBLE_EQ(formula, exact) << x;
    }
  }
}

// Regression: computing the unconflicted count as (1-c)*x truncated one
// transaction whenever the product fell just below the integer (0.7 * 10
// = 6.999...). The paper's hand-computed example must hold exactly.
TEST(SpeculativeModel, OracleMatchesHandComputedExample) {
  // x=10, c=0.3, n=4, K=0: 7 unconflicted -> floor(7/4) + 1 + 3 = 5 units.
  EXPECT_DOUBLE_EQ(SpeculativeModel::oracle_execution_time(10, 0.3, 4, 0.0),
                   5.0);
  EXPECT_DOUBLE_EQ(SpeculativeModel::oracle_speedup(10, 0.3, 4, 0.0), 2.0);
}

TEST(SpeculativeModel, OracleUnconflictedCountExactUnderRationalC) {
  // c = k/10 over x = 10 transactions: exactly 10-k are unconflicted, so
  // T' = floor((10-k)/n) + 1 + k for every n, with no floating-point
  // truncation allowed to drop one.
  for (unsigned n : {1u, 2u, 4u, 7u, 8u}) {
    for (int k = 1; k <= 9; ++k) {
      const double c = static_cast<double>(k) / 10.0;
      const std::size_t unconflicted = 10u - static_cast<unsigned>(k);
      const double expected =
          static_cast<double>(unconflicted / n) + 1.0 + static_cast<double>(k);
      EXPECT_NEAR(SpeculativeModel::oracle_execution_time(10, c, n, 0.0),
                  expected, 1e-9)
          << "n=" << n << " c=0." << k;
    }
  }
}

TEST(SpeculativeModel, OracleBoundaryConflictRates) {
  // c=0: everything concurrent; c=1: everything sequential.
  EXPECT_DOUBLE_EQ(SpeculativeModel::oracle_execution_time(16, 0.0, 8, 0.0),
                   2.0 + 1.0);
  EXPECT_DOUBLE_EQ(SpeculativeModel::oracle_execution_time(16, 1.0, 8, 0.0),
                   1.0 + 16.0);
}

TEST(SpeculativeModel, OracleBeatsBlindWhenConflictHigh) {
  // With c high, not re-executing the conflicted transactions helps.
  const double blind = SpeculativeModel::speedup(1000, 0.8, 8);
  const double oracle = SpeculativeModel::oracle_speedup(1000, 0.8, 8, 0.0);
  EXPECT_GT(oracle, blind);
}

TEST(SpeculativeModel, OraclePreprocessingCostReducesSpeedup) {
  const double cheap = SpeculativeModel::oracle_speedup(1000, 0.5, 8, 1.0);
  const double costly = SpeculativeModel::oracle_speedup(1000, 0.5, 8, 100.0);
  EXPECT_GT(cheap, costly);
}

TEST(SpeculativeModel, ZeroTransactions) {
  EXPECT_DOUBLE_EQ(SpeculativeModel::speedup(0, 0.5, 8), 1.0);
}

TEST(SpeculativeModel, RejectsBadArguments) {
  EXPECT_THROW(SpeculativeModel::speedup(10, 0.5, 0), UsageError);
  EXPECT_THROW(SpeculativeModel::speedup(10, -0.1, 4), UsageError);
  EXPECT_THROW(SpeculativeModel::speedup(10, 1.1, 4), UsageError);
  EXPECT_THROW(SpeculativeModel::oracle_speedup(10, 0.5, 4, -1.0), UsageError);
}

TEST(GroupModel, BoundIsMinOfCoresAndInverseRate) {
  EXPECT_DOUBLE_EQ(GroupModel::speedup_bound(8, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(GroupModel::speedup_bound(8, 0.05), 8.0);
  EXPECT_DOUBLE_EQ(GroupModel::speedup_bound(4, 0.2), 4.0);
  // Paper headline: Ethereum l ~ 0.167 -> ~6x on 8 cores.
  EXPECT_NEAR(GroupModel::speedup_bound(8, 1.0 / 6.0), 6.0, 1e-9);
}

TEST(GroupModel, ZeroRateDegeneratesToCores) {
  EXPECT_DOUBLE_EQ(GroupModel::speedup_bound(16, 0.0), 16.0);
}

TEST(GroupModel, OverheadReducesSpeedup) {
  const double no_overhead = GroupModel::speedup_with_overhead(1000, 0.1, 8, 0.0);
  const double with_overhead =
      GroupModel::speedup_with_overhead(1000, 0.1, 8, 50.0);
  EXPECT_GT(no_overhead, with_overhead);
  // Negligible K barely matters (paper: "the difference is negligible if K
  // is small compared to [x]").
  const double tiny_overhead =
      GroupModel::speedup_with_overhead(100000, 0.1, 8, 1.0);
  EXPECT_NEAR(tiny_overhead, 8.0, 0.01);
}

TEST(GroupModel, RejectsBadArguments) {
  EXPECT_THROW(GroupModel::speedup_bound(0, 0.5), UsageError);
  EXPECT_THROW(GroupModel::speedup_bound(4, -0.1), UsageError);
  EXPECT_THROW(GroupModel::speedup_bound(4, 1.5), UsageError);
}

// Property sweep: speedups behave monotonically.
class SpeedupMonotonicity
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SpeedupMonotonicity, MoreCoresNeverHurtAndMoreConflictNeverHelps) {
  const auto [x_exp, c_step] = GetParam();
  const std::size_t x = std::size_t{1} << x_exp;
  const double c = 0.1 * c_step;
  for (unsigned n = 1; n <= 64; n *= 2) {
    EXPECT_LE(SpeculativeModel::speedup(x, c, n),
              SpeculativeModel::speedup(x, c, n * 2) + 1e-12);
    EXPECT_LE(GroupModel::speedup_bound(n, std::max(c, 0.01)),
              GroupModel::speedup_bound(n * 2, std::max(c, 0.01)) + 1e-12);
    if (c + 0.1 <= 1.0) {
      EXPECT_GE(SpeculativeModel::speedup(x, c, n),
                SpeculativeModel::speedup(x, c + 0.1, n) - 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpeedupMonotonicity,
    ::testing::Combine(::testing::Values(4, 8, 12),
                       ::testing::Values(0, 2, 5, 8, 10)));

// ---------------------------------------------------------------- scheduling

TEST(Scheduling, LptClassicSuboptimalExample) {
  // Jobs {7,7,6,6,5,5,4,4,3,3} on 3 cores: LPT yields 18 while the optimum
  // is 17 — the classic example of LPT's approximation gap.
  const std::vector<double> jobs = {7, 7, 6, 6, 5, 5, 4, 4, 3, 3};
  const Schedule s = schedule_lpt(jobs, 3);
  EXPECT_DOUBLE_EQ(s.makespan, 18.0);
  EXPECT_DOUBLE_EQ(optimal_makespan(jobs, 3), 17.0);
}

TEST(Scheduling, SingleCoreIsSum) {
  const std::vector<double> jobs = {1, 2, 3};
  EXPECT_DOUBLE_EQ(schedule_lpt(jobs, 1).makespan, 6.0);
  EXPECT_DOUBLE_EQ(optimal_makespan(jobs, 1), 6.0);
}

TEST(Scheduling, MoreCoresThanJobs) {
  const std::vector<double> jobs = {5, 3};
  const Schedule s = schedule_lpt(jobs, 8);
  EXPECT_DOUBLE_EQ(s.makespan, 5.0);
  EXPECT_EQ(s.assignment.size(), 8u);
}

TEST(Scheduling, EmptyJobs) {
  EXPECT_DOUBLE_EQ(schedule_lpt({}, 4).makespan, 0.0);
  EXPECT_DOUBLE_EQ(optimal_makespan({}, 4), 0.0);
}

TEST(Scheduling, AssignmentCoversAllJobsOnce) {
  const std::vector<double> jobs = {9, 1, 7, 3, 5, 5, 2, 8};
  const Schedule s = schedule_lpt(jobs, 3);
  std::vector<int> seen(jobs.size(), 0);
  for (const auto& core : s.assignment) {
    for (std::size_t job : core) ++seen[job];
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](int v) { return v == 1; }));
  // Loads are consistent with the assignment.
  for (std::size_t core = 0; core < s.assignment.size(); ++core) {
    double load = 0.0;
    for (std::size_t job : s.assignment[core]) load += jobs[job];
    EXPECT_DOUBLE_EQ(load, s.loads[core]);
  }
}

TEST(Scheduling, RejectsBadInputs) {
  const std::vector<double> one = {1.0};
  EXPECT_THROW(schedule_lpt(one, 0), UsageError);
  const std::vector<double> negative = {-1.0};
  EXPECT_THROW(schedule_lpt(negative, 2), UsageError);
  const std::vector<double> too_many(30, 1.0);
  EXPECT_THROW(optimal_makespan(too_many, 2), UsageError);
}

// Property: lower bound <= optimal <= LPT <= (4/3 - 1/3m) * optimal.
class SchedulingBounds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulingBounds, ApproximationGuarantees) {
  Rng rng(GetParam());
  const unsigned cores = 2 + static_cast<unsigned>(rng.uniform(4));
  const std::size_t num_jobs = 1 + rng.uniform(10);
  std::vector<double> jobs(num_jobs);
  for (double& j : jobs) {
    j = 1.0 + static_cast<double>(rng.uniform(20));
  }
  const double lower = makespan_lower_bound(jobs, cores);
  const double optimal = optimal_makespan(jobs, cores);
  const double lpt = schedule_lpt(jobs, cores).makespan;
  EXPECT_LE(lower, optimal + 1e-9);
  EXPECT_LE(optimal, lpt + 1e-9);
  EXPECT_LE(lpt, (4.0 / 3.0) * optimal + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SchedulingBounds,
                         ::testing::Range<std::uint64_t>(200, 230));

}  // namespace
}  // namespace txconc::core
