// Cross-module integration scenarios: the seams between workload,
// analysis, chain and exec, exercised the way a downstream user
// would chain them.
#include <gtest/gtest.h>

#include <sstream>

#include "account/contracts.h"
#include "analysis/block_analyzer.h"
#include "analysis/dataset.h"
#include "analysis/series.h"
#include "analysis/speedup.h"
#include "chain/node.h"
#include "common/rng.h"
#include "chain/utxo_node.h"
#include "common/error.h"
#include "exec/executor.h"
#include "exec/replay.h"
#include "utxo/wallet.h"
#include "workload/account_workload.h"
#include "workload/profiles.h"
#include "workload/utxo_workload.h"

namespace txconc {
namespace {

Address addr(std::uint64_t seed) { return Address::from_seed(seed); }

// Scenario 1: the full measurement pipeline — generate, export to the
// BigQuery-shaped dataset, reload from CSV, analyze, and compare with the
// direct in-memory series.
TEST(Integration, GenerateExportReloadAnalyze) {
  workload::ChainProfile profile = workload::ethereum_classic_profile();
  profile.default_blocks = 20;

  // Direct route.
  workload::AccountWorkloadGenerator direct(profile, 7);
  const analysis::ChainSeries series =
      analysis::collect_series(direct, {.num_buckets = 5});

  // Dataset route: export -> CSV -> reload -> analyze -> aggregate.
  workload::AccountWorkloadGenerator for_export(profile, 7);
  const analysis::Dataset dataset = analysis::export_dataset(for_export);
  std::stringstream csv;
  analysis::write_csv(csv, dataset);
  const analysis::Dataset reloaded = analysis::read_csv(csv);
  const std::vector<core::ConflictStats> per_block =
      analysis::analyze_dataset(reloaded);

  WeightedMean single;
  WeightedMean group;
  for (const core::ConflictStats& stats : per_block) {
    if (stats.total_transactions == 0) continue;
    single.add(stats.single_rate(),
               static_cast<double>(stats.total_transactions));
    group.add(stats.group_rate(),
              static_cast<double>(stats.total_transactions));
  }
  EXPECT_NEAR(single.mean(), series.overall_single_rate, 1e-9);
  EXPECT_NEAR(group.mean(), series.overall_group_rate, 1e-9);
}

// Scenario 2: a miner produces blocks from real submitted transactions
// (including contract traffic); a sequential validator and a parallel
// group-executor validator both accept the chain and agree on state.
TEST(Integration, MinerAndTwoValidatorsAgree) {
  chain::AccountNodeConfig config;

  chain::AccountNode miner(config);
  chain::AccountNode sequential_validator(config);
  auto engine = exec::make_group_executor(3);
  chain::AccountNode parallel_validator(
      config, [&engine](account::StateDb& state,
                        std::span<const account::AccountTx> txs,
                        const account::RuntimeConfig& runtime) {
        return engine->execute_block(state, txs, runtime).receipts;
      });

  const Address hot_wallet = addr(500);
  const Address cold = addr(501);
  for (auto* node : {&miner, &sequential_validator, &parallel_validator}) {
    for (std::uint64_t u = 1; u <= 6; ++u) {
      node->genesis_fund(addr(u), 50'000'000);
    }
    node->genesis_deploy(hot_wallet, account::contracts::hot_wallet(cold));
  }

  auto pay = [&](std::uint64_t from, const Address& to,
                 std::uint64_t value) {
    account::AccountTx tx;
    tx.from = addr(from);
    tx.to = to;
    tx.value = value;
    tx.gas_limit = 120000;
    tx.nonce = miner.state().nonce(addr(from));
    return tx;
  };

  for (int round = 0; round < 4; ++round) {
    miner.submit_transaction(pay(1, addr(100), 10));
    miner.submit_transaction(pay(2, hot_wallet, 1000));  // internal sweep
    miner.submit_transaction(pay(3, addr(101), 20));
    const auto block = miner.produce_block(10 * (round + 1));
    sequential_validator.receive_block(block);
    parallel_validator.receive_block(block);
  }

  EXPECT_EQ(sequential_validator.state().digest(), miner.state().digest());
  EXPECT_EQ(parallel_validator.state().digest(), miner.state().digest());
  // The hot-wallet sweeps landed in cold storage on every replica.
  EXPECT_EQ(miner.state().balance(cold), 4000u);

  // The produced blocks carry analyzable conflict structure.
  const auto& block = miner.ledger().at(0);
  std::vector<account::Receipt> no_receipts;
  const core::ConflictStats stats = analysis::analyze_account_block(
      block.transactions, no_receipts, /*include_internal=*/false);
  EXPECT_EQ(stats.total_transactions, 3u);
}

// Scenario 3: wallet -> UTXO node -> reorg -> wallet consistency.
TEST(Integration, WalletSurvivesReorg) {
  chain::UtxoNode node;
  utxo::Wallet miner_wallet(1);
  utxo::Wallet user_wallet(2);

  const auto funding = node.produce_block(10, miner_wallet.next_receive_script());
  miner_wallet.process_block(funding.transactions);

  const utxo::Transaction payment = miner_wallet.pay(
      user_wallet.next_receive_script(), 10'0000'0000ULL, 100ULL);
  node.submit_transaction(payment);
  const auto paid_block =
      node.produce_block(20, miner_wallet.next_receive_script());
  user_wallet.process_block(paid_block.transactions);
  EXPECT_EQ(user_wallet.balance(), 10'0000'0000ULL);

  // The tip is reorged away: the node undoes it, the user rescans from a
  // fresh wallet state (simplest recovery model).
  node.undo_tip();
  utxo::Wallet recovered(2);
  recovered.next_receive_script();  // re-derive the watch key
  for (std::size_t h = 0; h < node.ledger().height(); ++h) {
    recovered.process_block(node.ledger().at(h).transactions);
  }
  EXPECT_EQ(recovered.balance(), 0u);  // the payment is gone with the block

  // Re-mining the same payment restores it.
  node.submit_transaction(payment);
  const auto remined =
      node.produce_block(30, miner_wallet.next_receive_script());
  recovered.process_block(remined.transactions);
  EXPECT_EQ(recovered.balance(), 10'0000'0000ULL);
}

// Scenario 4: chaos replay — a different executor for every block of the
// same history must still end in the sequential state.
TEST(Integration, MixedExecutorsPerBlockStillAgree) {
  workload::ChainProfile profile = workload::ethereum_classic_profile();
  profile.default_blocks = 12;

  exec::HistoryReplayer sequential_replay(profile, 321);
  auto sequential = exec::make_sequential_executor();
  while (sequential_replay.remaining() > 0) {
    sequential_replay.replay_next(*sequential);
  }
  const Hash256 expected = sequential_replay.state().digest();

  std::vector<std::unique_ptr<exec::BlockExecutor>> pool;
  pool.push_back(exec::make_sequential_executor());
  pool.push_back(exec::make_speculative_executor(3));
  pool.push_back(exec::make_group_executor(2));
  pool.push_back(exec::make_oracle_executor(2));
  pool.push_back(
      exec::make_speculative_executor(2, exec::AbortPolicy::kFirstWriterWins));

  Rng rng(99);
  exec::HistoryReplayer mixed_replay(profile, 321);
  while (mixed_replay.remaining() > 0) {
    mixed_replay.replay_next(*pool[rng.uniform(pool.size())]);
  }
  EXPECT_EQ(mixed_replay.state().digest(), expected);
}

// Scenario 5: model predictions from measured series match the engine the
// replayer drives — the whole Fig. 10 story in one assertion.
TEST(Integration, ModelPredictsEngineWithinTolerance) {
  workload::ChainProfile profile = workload::ethereum_profile();
  profile.default_blocks = 60;

  workload::AccountWorkloadGenerator generator(profile, 13);
  const analysis::ChainSeries series =
      analysis::collect_series(generator, {.num_buckets = 6});
  const analysis::SpeedupSeries model =
      analysis::compute_speedup_series(series, 8);
  const double modelled = analysis::summarize_late(model.group, 1.0).mean;

  auto engine = exec::make_group_executor(8);
  exec::HistoryReplayer replayer(profile, 13);
  WeightedMean measured;
  while (replayer.remaining() > 0) {
    const exec::ExecutionReport report = replayer.replay_next(*engine);
    if (report.num_txs == 0) continue;
    measured.add(report.simulated_speedup,
                 static_cast<double>(report.num_txs));
  }
  // The engine achieves within ~20% of the min(n, 1/l) prediction.
  EXPECT_NEAR(measured.mean(), modelled, 0.2 * modelled);
}

}  // namespace
}  // namespace txconc
