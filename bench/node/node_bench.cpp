// Node-path benchmark: one producer AccountNode and three validator
// AccountNodes (sequential, group-lpt and block-stm engines) over one
// generated block stream, timed only through the nodes' public calls.
//
//   node_bench --workload=<name> [--seed=<n>] [--seconds=<s>]
//              [--json=<file>] [--trace=<file>]
//   node_bench --smoke=<BENCHMARK.json>  3 timed blocks per workload, all
//                                        checks, every listed metric printed
//   node_bench --self-test               negative controls: each check trips
//
// A run prints every metric as "name value unit". A pass replays the
// stream in rounds, each from a fresh set-up and genesis; the first round
// of a run is warm-up. The untraced pass gives the end-to-end metrics: a
// p50 is the median over the blocks of the run's fastest round, because
// the host runs whole seconds at two speeds (README.md, "Spread"). With
// --trace, a second pass wraps the same calls in bench-owned spans, replays
// each block's layers (merkle root, ledger append, VM, journal flush, state
// root, every engine's execute_block) on shadow states under child spans,
// writes the spans as a Chrome trace and derives the per-layer metrics
// from their self times. Every round checks that all nodes and the shadow
// end in one state. README.md has the workload and metric tables.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "account/state_trie.h"
#include "analysis/block_analyzer.h"
#include "chain/block.h"
#include "chain/node.h"
#include "common/error.h"
#include "common/stats.h"
#include "exec/executor.h"
#include "obs/trace.h"
#include "workload/account_workload.h"
#include "workload/profiles.h"

using namespace txconc;

namespace {

using Clock = std::chrono::steady_clock;
using Block = chain::Block<account::AccountTx>;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Validator engines, in the order every block is delivered to them.
constexpr std::array<const char*, 3> kEngines = {"sequential", "group-lpt",
                                                 "block-stm"};
constexpr std::size_t kNumEngines = kEngines.size();

constexpr std::uint64_t kRichBalance = 1'000'000'000'000'000ULL;
/// Seeds of the idle accounts that pad a genesis; far from the
/// generator's user and contract seeds.
constexpr std::uint64_t kIdleAccountSeed = 0x1d1e'0000'0000'0000ULL;
/// A time-bounded pass still times at least this many rounds.
constexpr std::size_t kMinTimedRounds = 2;

/// One benchmark workload. The stream is `round_blocks` blocks of exactly
/// `block_txs` transactions; a pass replays it from genesis as often as
/// its time allows. A round takes about two seconds here, so that a run
/// holds several and some fall wholly within the host's fast periods.
struct Workload {
  const char* name;
  std::size_t block_txs;
  std::uint32_t tx_work;  ///< RuntimeConfig::synthetic_work
  bool state_root;        ///< commit and verify a state root per block
  std::size_t round_blocks;
  /// Genesis accounts, padded with idle ones up to this count, so that the
  /// state costs the same for every seed (a round's stream touches a few
  /// percent fewer).
  std::size_t state_accounts;
  void (*tune)(workload::EraParams&);
};

const std::array<Workload, 4> kWorkloads = {{
    {"eth-vm", 1000, 0, false, 40, 32000, [](workload::EraParams&) {}},
    {"eth-burn", 1000, 10000, false, 12, 12000, [](workload::EraParams&) {}},
    {"hot-exchange", 1000, 10000, false, 12, 8000,
     [](workload::EraParams& era) {
       era.exchange_share = 0.9;
       era.num_exchanges = 1;
     }},
    {"eth-root", 120, 0, true, 8, 1000,
     [](workload::EraParams& era) { era.num_users = 1000; }},
}};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// "<prefix>.<engine>" for every engine, interned: spans store names raw.
std::array<const char*, kNumEngines> engine_labels(const char* prefix) {
  std::array<const char*, kNumEngines> labels{};
  for (std::size_t e = 0; e < kNumEngines; ++e) {
    labels[e] = obs::intern_label(
        (std::string(prefix) + "." + kEngines[e]).c_str());
  }
  return labels;
}

// ------------------------------------------------------------------ setup

/// Everything a round derives from (workload, seed) before its first
/// block: the block stream, the genesis every node starts from, and the
/// engines.
struct Setup {
  const Workload* workload = nullptr;
  chain::AccountNodeConfig config;
  std::vector<std::vector<account::AccountTx>> blocks;
  std::vector<std::pair<Address, account::ContractCode>> contracts;
  std::vector<Address> senders;  ///< funded rich
  std::vector<Address> others;   ///< funded with 1, fixing the state size
  std::vector<std::unique_ptr<exec::BlockExecutor>> engines;  ///< kEngines
};

std::unique_ptr<Setup> make_setup(const Workload& w, std::uint64_t seed,
                                  std::size_t num_blocks,
                                  std::size_t state_accounts,
                                  unsigned threads) {
  // A flat late-era Ethereum profile, so block position changes nothing.
  workload::ChainProfile profile = workload::ethereum_profile();
  workload::EraParams era = profile.at(1.0);
  w.tune(era);
  era.position = 0.0;
  workload::EraParams late = era;
  late.position = 1.0;
  profile.eras = {era, late};
  workload::AccountWorkloadGenerator generator(profile, seed, 1'000'000);

  auto setup = std::make_unique<Setup>();
  setup->workload = &w;
  std::unordered_set<Address> contract_set;
  generator.state().for_each_account([&](const Address& addr) {
    if (const account::ContractCode* code = generator.state().code(addr)) {
      setup->contracts.emplace_back(addr, *code);
      contract_set.insert(addr);
    }
  });

  // Concatenate the generated blocks, remembering every address a
  // transaction or its execution touches.
  const std::size_t total = num_blocks * w.block_txs;
  std::vector<account::AccountTx> stream;
  stream.reserve(total);
  std::unordered_set<Address> senders;
  std::unordered_set<Address> touched;
  while (stream.size() < total) {
    workload::GeneratedBlock generated = generator.next_block();
    for (std::size_t i = 0;
         i < generated.account_txs.size() && stream.size() < total; ++i) {
      account::AccountTx& tx = generated.account_txs[i];
      const account::Receipt& receipt = generated.receipts[i];
      senders.insert(tx.from);
      if (tx.to) touched.insert(*tx.to);
      touched.insert(tx.address_args.begin(), tx.address_args.end());
      for (const auto& internal : receipt.internal_txs) {
        touched.insert(internal.from);
        touched.insert(internal.to);
      }
      for (const auto& access : receipt.reads) touched.insert(access.address);
      for (const auto& access : receipt.writes) touched.insert(access.address);
      stream.push_back(std::move(tx));
    }
  }

  // Same-sender transactions keep their submission order as nonce order.
  std::unordered_map<Address, std::uint64_t> next_nonce;
  std::uint64_t max_block_gas = 0;
  for (std::size_t b = 0; b < num_blocks; ++b) {
    std::vector<account::AccountTx> block(
        std::make_move_iterator(stream.begin() + b * w.block_txs),
        std::make_move_iterator(stream.begin() + (b + 1) * w.block_txs));
    std::uint64_t gas = 0;
    for (auto& tx : block) {
      tx.nonce = next_nonce[tx.from]++;
      gas += tx.gas_limit;
    }
    max_block_gas = std::max(max_block_gas, gas);
    setup->blocks.push_back(std::move(block));
  }

  setup->senders.assign(senders.begin(), senders.end());
  for (const Address& addr : touched) {
    if (senders.count(addr) == 0 && contract_set.count(addr) == 0) {
      setup->others.push_back(addr);
    }
  }
  std::size_t accounts =
      contract_set.size() + senders.size() + setup->others.size();
  for (std::uint64_t k = 0; accounts < state_accounts; ++k) {
    const Address idle = Address::from_seed(kIdleAccountSeed + k);
    if (senders.count(idle) == 0 && touched.count(idle) == 0 &&
        contract_set.count(idle) == 0) {
      setup->others.push_back(idle);
      ++accounts;
    }
  }

  // The gas limit admits every block's full gas limit, so each produced
  // block holds exactly its submitted transactions.
  setup->config.runtime.synthetic_work = w.tx_work;
  setup->config.block_gas_limit = max_block_gas;
  setup->config.max_block_txs = w.block_txs;
  setup->config.commit_state_root = w.state_root;
  for (const char* name : kEngines) {
    setup->engines.push_back(exec::make_executor(name, threads));
  }
  return setup;
}

// ------------------------------------------------------------------ spans

/// Bench-owned spans for the traced pass. Each span goes to a private
/// tracer (exported as a Chrome trace) and to an in-memory record, from
/// which the layer self times are computed.
class SpanLog {
 public:
  class Span;

  SpanLog() { tracer_.enable(); }

  /// Self time of every span (its duration minus the time its child spans
  /// cover), grouped by span name.
  std::map<std::string, Quantiles> self_ms() const {
    std::map<std::string, Quantiles> out;
    for (const Record& r : records_) out[r.name].add(r.ms - r.child_ms);
    return out;
  }

  std::size_t size() const { return records_.size(); }
  const obs::Tracer& tracer() const { return tracer_; }

 private:
  static constexpr std::size_t kNoParent = ~std::size_t{0};
  struct Record {
    const char* name;
    std::size_t parent;
    double ms = 0.0;
    double child_ms = 0.0;
  };

  obs::Tracer tracer_;
  std::vector<Record> records_;
};

/// RAII span; records nothing when the log is null (untraced pass).
class SpanLog::Span {
 public:
  Span(SpanLog* log, const char* name, const Span* parent,
       std::int64_t arg = -1)
      : log_(log),
        index_(log != nullptr ? log->records_.size() : kNoParent),
        span_(log != nullptr ? &log->tracer_ : nullptr, name, "bench",
              parent != nullptr ? parent->span_.context() : obs::TraceContext{},
              arg),
        start_(Clock::now()) {
    if (log_ != nullptr) {
      log_->records_.push_back(
          {name, parent != nullptr ? parent->index_ : kNoParent});
    }
  }

  ~Span() {
    if (log_ == nullptr) return;
    Record& record = log_->records_[index_];
    record.ms = ms_since(start_);
    if (record.parent != kNoParent) {
      log_->records_[record.parent].child_ms += record.ms;
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  std::size_t index_;
  obs::CausalSpan span_;
  Clock::time_point start_;
};

/// Runs `body` under a span and returns its wall time in milliseconds,
/// span overhead included (that is what trace.overhead_pct measures).
template <typename F>
double timed(SpanLog* log, const char* name, const SpanLog::Span* parent,
             F&& body) {
  const auto start = Clock::now();
  {
    const SpanLog::Span span(log, name, parent);
    body();
  }
  return ms_since(start);
}

// ------------------------------------------------------------------ round

/// Timings of the nodes' public calls, one sample per block.
struct PassStats {
  std::vector<double> admit_us;  ///< submit_transaction time per transaction
  std::vector<double> produce_ms;
  std::array<std::vector<double>, kNumEngines> validate_ms;
  /// Process CPU time spent in receive_block, summed.
  std::array<double, kNumEngines> validate_cpu_ms{};
};

double process_cpu_ms() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) {
    throw Error("clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
  }
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double quantile(const std::vector<double>& samples, double q) {
  Quantiles sorted;
  for (const double x : samples) sorted.add(x);
  return sorted.quantile(q);
}

/// Per-engine execute_block reports of the traced pass, summed.
struct EngineTotals {
  std::uint64_t txs = 0;
  std::uint64_t executions = 0;
  std::uint64_t sequential_txs = 0;
  std::uint64_t aborts = 0;
  std::uint64_t grains = 0;
  std::uint64_t caller_grains = 0;
  std::uint64_t blocks = 0;
  Quantiles simulated_speedup;
};

/// What the traced pass's shadow replay measures besides span times.
struct Layers {
  std::array<EngineTotals, kNumEngines> engines;
  Quantiles c;
  Quantiles l;
  Quantiles root_us_per_account;
  RunningStats block_txs;
  RunningStats gas_per_block;
  double accounts_first = 0.0;
  double accounts_last = 0.0;
};

/// One replay of the stream from genesis: the producer, one validator per
/// engine, and the shadow states the checks (and layer timings) run on.
class Round {
 public:
  Round(const Setup& setup, bool layers) : setup_(setup) {
    validators_.reserve(kNumEngines);
    for (std::size_t e = 0; e < kNumEngines; ++e) {
      exec::BlockExecutor* engine = setup.engines[e].get();
      validators_.push_back(std::make_unique<chain::AccountNode>(
          setup.config, [engine](account::StateDb& state,
                                 std::span<const account::AccountTx> txs,
                                 const account::RuntimeConfig& runtime) {
            return engine->execute_block(state, txs, runtime).receipts;
          }));
    }
    if (layers) engine_states_.resize(kNumEngines);
    std::vector<chain::AccountNode*> nodes = {&producer_};
    for (const auto& validator : validators_) nodes.push_back(validator.get());
    for (chain::AccountNode* node : nodes) {
      for (const auto& [addr, code] : setup.contracts) {
        node->genesis_deploy(addr, code);
      }
      for (const Address& addr : setup.senders) {
        node->genesis_fund(addr, kRichBalance);
      }
      for (const Address& addr : setup.others) node->genesis_fund(addr, 1);
    }
    shadow_ = producer_.state();
    for (account::StateDb& state : engine_states_) state = shadow_;
  }

  /// Submits block `index` of the stream, then produces it.
  Block produce(std::size_t index, PassStats& stats, SpanLog* log,
                const SpanLog::Span* parent) {
    // Copied up front so the timed loop holds only the submissions.
    std::vector<account::AccountTx> txs = setup_.blocks[index];
    submitted_ += txs.size();
    const double admit_ms = timed(log, "submit_transaction", parent, [&] {
      for (account::AccountTx& tx : txs) {
        try {
          producer_.submit_transaction(std::move(tx));
        } catch (const ValidationError& e) {
          errors_.push_back(std::string("admission: ") + e.what());
        }
      }
    });
    stats.admit_us.push_back(admit_ms * 1e3 / static_cast<double>(txs.size()));
    Block block;
    stats.produce_ms.push_back(timed(log, "produce_block", parent, [&] {
      block = producer_.produce_block(index + 1);
    }));
    return block;
  }

  /// Hands the block to every validator; returns how many rejected it.
  std::size_t deliver(const Block& block, PassStats& stats, SpanLog* log,
                      const SpanLog::Span* parent) {
    std::size_t rejections = 0;
    for (std::size_t e = 0; e < kNumEngines; ++e) {
      try {
        const double cpu_start = process_cpu_ms();
        stats.validate_ms[e].push_back(
            timed(log, receive_spans_[e], parent,
                  [&] { validators_[e]->receive_block(block); }));
        stats.validate_cpu_ms[e] += process_cpu_ms() - cpu_start;
      } catch (const ValidationError& err) {
        ++rejections;
        errors_.push_back(std::string(kEngines[e]) + " rejected block " +
                          std::to_string(block.header.height) + ": " +
                          err.what());
      }
    }
    if (rejections == 0) accepted_ += block.size();
    return rejections;
  }

  /// Applies the block to the shadow state the way the producer packs it
  /// (apply every transaction, flush the journal). With `layers`, also
  /// times the chain layers and every engine's execute_block.
  void replay(const Block& block, Layers* layers, SpanLog* log,
              const SpanLog::Span* parent) {
    const account::RuntimeConfig& runtime = setup_.config.runtime;
    std::vector<account::Receipt> receipts;
    receipts.reserve(block.size());
    try {
      timed(log, "apply_transactions", parent, [&] {
        for (const account::AccountTx& tx : block.transactions) {
          receipts.push_back(account::apply_transaction(shadow_, tx, runtime));
        }
      });
    } catch (const ValidationError& e) {
      errors_.push_back(std::string("shadow replay: ") + e.what());
      return;
    }
    timed(log, "flush_journal", parent, [&] { shadow_.flush_journal(); });
    std::uint64_t gas = 0;
    for (const account::Receipt& r : receipts) gas += r.gas_used;
    if (gas != block.header.gas_used) {
      errors_.push_back("shadow gas differs at block " +
                        std::to_string(block.header.height));
    }
    if (layers == nullptr) return;

    const std::span<const account::AccountTx> txs(block.transactions);
    Hash256 merkle;
    timed(log, "transactions_root", parent,
          [&] { merkle = chain::transactions_root(txs); });
    if (merkle != block.header.merkle_root) {
      errors_.push_back("shadow merkle root differs");
    }
    timed(log, "ledger_append", parent, [&] { ledger_.append(block); });
    for (std::size_t e = 0; e < kNumEngines; ++e) {
      exec::ExecutionReport report;
      timed(log, execute_spans_[e], parent, [&] {
        report = setup_.engines[e]->execute_block(engine_states_[e], txs,
                                                  runtime);
      });
      EngineTotals& totals = layers->engines[e];
      totals.txs += report.num_txs;
      totals.executions += report.executions;
      totals.sequential_txs += report.sequential_txs;
      for (std::uint64_t n : report.abort_reasons) totals.aborts += n;
      totals.grains += report.sched.grains;
      totals.caller_grains += report.sched.grains_caller_run;
      totals.blocks += 1;
      totals.simulated_speedup.add(report.simulated_speedup);
    }

    const double accounts = static_cast<double>(shadow_.num_accounts());
    if (layers->block_txs.count() == 0) layers->accounts_first = accounts;
    layers->accounts_last = accounts;
    // Off the state-root path one sample suffices: the trie is rebuilt
    // over every account, so one build costs seconds on large states.
    if (setup_.workload->state_root ||
        layers->root_us_per_account.count() == 0) {
      Hash256 root;
      const double ms = timed(log, "state_root", parent, [&] {
        root = account::build_state_trie(shadow_).root();
      });
      layers->root_us_per_account.add(ms * 1e3 / accounts);
      if (setup_.workload->state_root && root != block.header.state_root) {
        errors_.push_back("header state root differs from the shadow's at "
                          "block " + std::to_string(block.header.height));
      }
    }
    const core::ConflictStats conflicts =
        analysis::analyze_account_block(txs, receipts);
    layers->c.add(conflicts.single_rate());
    layers->l.add(conflicts.group_rate());
    layers->block_txs.add(static_cast<double>(block.size()));
    layers->gas_per_block.add(static_cast<double>(block.header.gas_used));
  }

  bool root_matches(const chain::BlockHeader& header) const {
    return header.state_root == account::build_state_trie(shadow_).root();
  }

  /// Every failed check so far plus any disagreement between the nodes'
  /// chains and states and the shadow's state; empty when all agree.
  std::vector<std::string> disagreements() const {
    std::vector<std::string> out = errors_;
    const Hash256 digest = producer_.state().digest();
    for (std::size_t e = 0; e < kNumEngines; ++e) {
      if (validators_[e]->ledger().height() != producer_.ledger().height()) {
        out.push_back(std::string(kEngines[e]) + " chain height differs");
      }
      if (validators_[e]->state().digest() != digest) {
        out.push_back(std::string(kEngines[e]) + " state digest differs");
      }
    }
    if (shadow_.digest() != digest) out.push_back("shadow digest differs");
    for (std::size_t e = 0; e < engine_states_.size(); ++e) {
      if (engine_states_[e].digest() != digest) {
        out.push_back(std::string(kEngines[e]) + " shadow digest differs");
      }
    }
    if (setup_.workload->state_root && !producer_.ledger().empty() &&
        !root_matches(producer_.ledger().tip().header)) {
      out.push_back("tip state root differs from the shadow's");
    }
    return out;
  }

  std::uint64_t submitted() const { return submitted_; }
  std::uint64_t accepted() const { return accepted_; }
  account::StateDb& shadow() { return shadow_; }

 private:
  const Setup& setup_;
  const std::array<const char*, kNumEngines> receive_spans_ =
      engine_labels("receive_block");
  const std::array<const char*, kNumEngines> execute_spans_ =
      engine_labels("execute_block");
  chain::AccountNode producer_{setup_.config};
  std::vector<std::unique_ptr<chain::AccountNode>> validators_;
  account::StateDb shadow_;
  std::vector<account::StateDb> engine_states_;  // traced pass only
  chain::Ledger<account::AccountTx> ledger_;     // traced pass only
  std::uint64_t submitted_ = 0;
  std::uint64_t accepted_ = 0;
  std::vector<std::string> errors_;
};

// ------------------------------------------------------------------- pass

/// The host's speed is read from a bench-owned chain of dependent
/// multiply-xorshift steps, timed after every block while the engines'
/// workers sleep. Its time follows the clock of the CPU the main thread
/// runs on, and no change to the program can move it. Times are scaled to
/// a host on which the chain takes kReferenceNominalMs, which removes the
/// host's minute-long clock drifts (README.md, "Spread").
constexpr std::uint32_t kReferenceSteps = 200'000;
constexpr double kReferenceNominalMs = 0.5;

/// Wall time of one run of the reference chain, in milliseconds.
double reference_ms(std::uint64_t seed) {
  const auto start = Clock::now();
  std::uint64_t mix = seed + 0x9e3779b97f4a7c15ULL;
  for (std::uint32_t i = 0; i < kReferenceSteps; ++i) {
    mix ^= mix >> 33;
    mix *= 0xff51afd7ed558ccdULL;
    mix ^= mix >> 29;
  }
  const volatile std::uint64_t sink = mix;
  (void)sink;
  return ms_since(start);
}

struct PassPlan {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  std::size_t round_blocks = 0;
  std::size_t state_accounts = 0;
  unsigned threads = 1;
  double seconds = 0.0;           ///< timed wall budget (ignored with max_rounds)
  std::size_t warmup_rounds = 0;  ///< untimed rounds at the start of the pass
  std::size_t max_rounds = 0;     ///< fixed timed round count; 0 = by time
};

struct PassResult {
  std::vector<PassStats> rounds;  ///< one per timed round
  /// Per timed round: kReferenceNominalMs / the round's median
  /// reference_ms().
  std::vector<double> speed;
  /// One per round, warm-up included, scaled to the reference speed.
  std::vector<double> setup_s;
  std::size_t blocks = 0;  ///< timed blocks
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::vector<std::string> errors;

  /// Every timed block's samples, as measured or scaled to the reference
  /// speed.
  PassStats all(bool at_reference_speed) const {
    PassStats out;
    for (std::size_t r = 0; r < rounds.size(); ++r) {
      const double f = at_reference_speed ? speed[r] : 1.0;
      const auto append = [f](std::vector<double>& to,
                              const std::vector<double>& from) {
        for (const double x : from) to.push_back(x * f);
      };
      append(out.admit_us, rounds[r].admit_us);
      append(out.produce_ms, rounds[r].produce_ms);
      for (std::size_t e = 0; e < kNumEngines; ++e) {
        append(out.validate_ms[e], rounds[r].validate_ms[e]);
        out.validate_cpu_ms[e] += rounds[r].validate_cpu_ms[e] * f;
      }
    }
    return out;
  }

  /// The lowest round median of `select`'s samples, at the reference speed.
  template <typename Select>
  double fastest_p50(Select select) const {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < rounds.size(); ++r) {
      best = std::min(best, quantile(select(rounds[r]), 0.5) * speed[r]);
    }
    return best;
  }
};

/// Runs whole rounds until the plan is met. Each round sets up the stream,
/// the engines and every node's genesis afresh, timed as one set-up
/// sample, then drives every block of the stream, timing the reference
/// chain after each, and checks agreement. Stops at the first failed
/// check.
PassResult run_pass(const PassPlan& plan, SpanLog* log, Layers* layers) {
  PassResult result;
  std::optional<Clock::time_point> timed_start;
  double last_round_ms = 0.0;
  for (std::size_t r = 0; result.errors.empty(); ++r) {
    const bool is_timed = r >= plan.warmup_rounds;
    if (is_timed) {
      if (!timed_start) timed_start = Clock::now();
      const std::size_t done = result.rounds.size();
      if (plan.max_rounds > 0
              ? done >= plan.max_rounds
              : done >= kMinTimedRounds &&
                    ms_since(*timed_start) + last_round_ms >
                        plan.seconds * 1e3) {
        break;
      }
    }
    const auto round_start = Clock::now();
    const std::unique_ptr<Setup> setup =
        make_setup(*plan.workload, plan.seed, plan.round_blocks,
                   plan.state_accounts, plan.threads);
    Round round(*setup, layers != nullptr);
    const double setup_s = ms_since(round_start) / 1e3;

    PassStats stats;
    std::vector<double> reference;
    SpanLog* const span_log = is_timed ? log : nullptr;
    std::size_t blocks = 0;
    for (std::size_t i = 0; i < setup->blocks.size(); ++i, ++blocks) {
      {
        const SpanLog::Span block_span(span_log, "block", nullptr,
                                       static_cast<std::int64_t>(i));
        const Block block = round.produce(i, stats, span_log, &block_span);
        if (round.deliver(block, stats, span_log, &block_span) > 0) break;
        round.replay(block, is_timed ? layers : nullptr, span_log,
                     &block_span);
      }
      reference.push_back(reference_ms(i));
    }
    const double speed =
        reference.empty() ? 1.0
                          : kReferenceNominalMs / quantile(reference, 0.5);
    result.setup_s.push_back(setup_s * speed);
    result.submitted += round.submitted();
    result.accepted += round.accepted();
    result.errors = round.disagreements();
    if (is_timed) {
      result.rounds.push_back(std::move(stats));
      result.speed.push_back(speed);
      result.blocks += blocks;
    }
    last_round_ms = ms_since(round_start);
  }
  return result;
}

// ---------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Metrics of the untraced pass, every time scaled to the reference speed.
/// A p50 comes from the fastest round; a p90 tail from every timed block,
/// the host's slow seconds included.
void add_pass_metrics(Metrics& out, const PassResult& pass) {
  const PassStats all = pass.all(true);
  for (std::size_t e = 0; e < kNumEngines; ++e) {
    out.push_back({std::string("validate_ms_p50.") + kEngines[e],
                   pass.fastest_p50(
                       [e](const PassStats& r) -> const std::vector<double>& {
                         return r.validate_ms[e];
                       }),
                   "ms"});
  }
  for (std::size_t e = 0; e < kNumEngines; ++e) {
    out.push_back({std::string("validate_ms_p90.") + kEngines[e],
                   quantile(all.validate_ms[e], 0.9), "ms"});
  }
  out.push_back(
      {"produce_ms_p50",
       pass.fastest_p50([](const PassStats& r) -> const std::vector<double>& {
         return r.produce_ms;
       }),
       "ms"});
  out.push_back({"produce_ms_p90", quantile(all.produce_ms, 0.9), "ms"});
  out.push_back(
      {"admit_us_p50",
       pass.fastest_p50([](const PassStats& r) -> const std::vector<double>& {
         return r.admit_us;
       }),
       "us"});
  // About 1 when the pool's workers got no CPU of their own: the engine
  // then runs at sequential speed (README.md, "Caveats").
  for (std::size_t e = 1; e < kNumEngines; ++e) {
    double wall_ms = 0.0;
    for (const double ms : all.validate_ms[e]) wall_ms += ms;
    out.push_back({std::string("node.") + kEngines[e] + ".busy_cpus",
                   all.validate_cpu_ms[e] / wall_ms, "cpus"});
  }
  out.push_back({"setup_s", quantile(pass.setup_s, 0.5), "s"});
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  out.push_back(
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"});
}

double share(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

void add_layer_metrics(Metrics& out, const Workload& w,
                       const PassResult& traced, const Layers& layers,
                       const SpanLog& log, double untraced_validate_seq_ms) {
  const PassStats all = traced.all(false);
  std::map<std::string, Quantiles> self = log.self_ms();
  const auto p50 = [&](const std::string& span) {
    return self[span].median();
  };
  const double merkle = p50("transactions_root");
  const double append = p50("ledger_append");
  const double root = p50("state_root");
  const double flush = p50("flush_journal");
  const double apply = p50("apply_transactions");
  // The nodes build a state root per block only on the state-root path.
  const double node_root = w.state_root ? root : 0.0;

  out.push_back({"chain.merkle_ms_p50", merkle, "ms"});
  out.push_back({"chain.ledger_append_ms_p50", append, "ms"});
  out.push_back({"state.root_ms_p50", root, "ms"});
  out.push_back(
      {"state.root_us_per_account", layers.root_us_per_account.median(), "us"});
  out.push_back({"state.accounts_first", layers.accounts_first, "count"});
  out.push_back({"state.accounts_last", layers.accounts_last, "count"});
  out.push_back({"state.flush_ms_p50", flush, "ms"});
  out.push_back({"vm.apply_us_per_tx",
                 apply * 1e3 / static_cast<double>(w.block_txs),
                 "us"});

  const auto execute_spans = engine_labels("execute_block");
  std::array<double, kNumEngines> execute{};
  for (std::size_t e = 0; e < kNumEngines; ++e) {
    execute[e] = p50(execute_spans[e]);
    out.push_back({std::string("exec.") + kEngines[e] + ".execute_ms_p50",
                   execute[e], "ms"});
  }
  for (std::size_t e = 1; e < kNumEngines; ++e) {
    const EngineTotals& t = layers.engines[e];
    const std::string prefix = std::string("exec.") + kEngines[e] + ".";
    out.push_back({prefix + "speedup", execute[0] / execute[e], "x"});
    out.push_back(
        {prefix + "simulated_speedup", t.simulated_speedup.median(), "x"});
    out.push_back(
        {prefix + "executions_per_tx", share(t.executions, t.txs), "ratio"});
    out.push_back({prefix + "aborts_per_tx", share(t.aborts, t.txs), "ratio"});
    out.push_back(
        {prefix + "sequential_share", share(t.sequential_txs, t.txs), "share"});
    out.push_back({prefix + "grains_per_block",
                   static_cast<double>(t.grains) /
                       static_cast<double>(t.blocks),
                   "count"});
    out.push_back({prefix + "caller_run_share",
                   share(t.caller_grains, t.grains), "share"});
  }
  // receive_block = merkle root + ledger append (which recomputes the
  // root) + the engine + the state root; the engine flushes its own journal.
  for (std::size_t e = 0; e < kNumEngines; ++e) {
    out.push_back({std::string("node.") + kEngines[e] + ".residual_ms",
                   quantile(all.validate_ms[e], 0.5) -
                       (merkle + append + execute[e] + node_root),
                   "ms"});
  }
  // produce_block = mempool take + pack loop (apply per transaction) +
  // merkle root + state root + journal flush + ledger append.
  out.push_back({"node.produce_residual_ms",
                 quantile(all.produce_ms, 0.5) -
                     (apply + merkle + append + flush + node_root),
                 "ms"});
  out.push_back({"workload.c", layers.c.median(), "share"});
  out.push_back({"workload.l", layers.l.median(), "share"});
  out.push_back({"workload.block_txs", layers.block_txs.mean(), "count"});
  out.push_back({"workload.gas_per_block", layers.gas_per_block.mean(), "gas"});
  out.push_back({"trace.overhead_pct",
                 (traced.fastest_p50(
                      [](const PassStats& r) -> const std::vector<double>& {
                        return r.validate_ms[0];
                      }) /
                      untraced_validate_seq_ms -
                  1.0) *
                     100.0,
                 "%"});
}

/// Shortest decimal form that reads back as the same double.
std::string number(double value) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, result.ptr);
}

// -------------------------------------------------------------------- run

struct RunOptions {
  const Workload* workload = nullptr;
  std::uint64_t seed = 7;
  double seconds = 20.0;
  bool traced = false;
  std::string trace_path;  ///< empty: validate the trace in memory only
  std::string json_path;
  /// One round of 3 blocks per pass on an unpadded genesis, for a quick
  /// check of the checks and the metric names.
  bool smoke = false;
};

struct RunResult {
  Metrics metrics;
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Exports the log as a Chrome trace, writes it to `path` when non-empty,
/// and checks it; returns the failures found.
std::vector<std::string> export_trace(const SpanLog& log,
                                      const std::string& path) {
  std::vector<std::string> errors;
  std::ostringstream json;
  log.tracer().write_chrome_trace(json);
  const obs::TraceValidation validation =
      obs::validate_chrome_trace(json.str());
  if (!validation.ok) errors.push_back("invalid trace: " + validation.error);
  if (validation.complete_spans != log.size()) {
    errors.push_back("trace holds " +
                     std::to_string(validation.complete_spans) +
                     " spans, expected " + std::to_string(log.size()));
  }
  if (!path.empty()) {
    std::ofstream out(path);
    out << json.str();
    if (!out) errors.push_back("cannot write " + path);
  }
  return errors;
}

RunResult run_workload(const RunOptions& opt) {
  const Workload& w = *opt.workload;
  const unsigned hw_cores = std::max(1u, std::thread::hardware_concurrency());
  PassPlan plan;
  plan.workload = &w;
  plan.seed = opt.seed;
  plan.round_blocks = opt.smoke ? 3 : w.round_blocks;
  plan.state_accounts = opt.smoke ? 0 : w.state_accounts;
  plan.threads = hw_cores;
  plan.seconds = opt.traced ? opt.seconds / 2 : opt.seconds;
  plan.warmup_rounds = 1;
  plan.max_rounds = opt.smoke ? 1 : 0;
  const PassResult e2e = run_pass(plan, nullptr, nullptr);

  RunResult result;
  result.attempted = e2e.submitted;
  std::uint64_t accepted = e2e.accepted;
  std::vector<std::string> errors = e2e.errors;
  std::size_t traced_blocks = 0;
  if (errors.empty()) add_pass_metrics(result.metrics, e2e);
  if (opt.traced && errors.empty()) {
    SpanLog log;
    Layers layers;
    plan.warmup_rounds = 0;
    const PassResult traced = run_pass(plan, &log, &layers);
    result.attempted += traced.submitted;
    accepted += traced.accepted;
    traced_blocks = traced.blocks;
    errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
    const std::vector<std::string> trace_errors =
        export_trace(log, opt.trace_path);
    errors.insert(errors.end(), trace_errors.begin(), trace_errors.end());
    if (errors.empty()) {
      add_layer_metrics(result.metrics, w, traced, layers, log,
                        e2e.fastest_p50(
                            [](const PassStats& r) -> const std::vector<double>& {
                              return r.validate_ms[0];
                            }));
    }
  }
  result.failed = result.attempted - accepted;
  for (const Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) errors.push_back(m.name + " is not finite");
  }
  result.correct = errors.empty();

  std::cout << "# workload " << w.name << " seed " << opt.seed << " B "
            << w.block_txs << " tx_work " << w.tx_work << " state_root "
            << (w.state_root ? "on" : "off") << "\n"
            << "# hw_cores " << hw_cores << " threads " << plan.threads
            << " (engines run threads+1 participants)\n"
            << "# setup_s samples";
  for (const double s : e2e.setup_s) std::cout << " " << number(s);
  std::cout << "\n# reference speed per timed round";
  for (const double f : e2e.speed) std::cout << " " << number(f);
  std::cout << "\n# timed blocks " << e2e.blocks << " in "
            << e2e.rounds.size() << " round(s) of " << plan.round_blocks
            << " after 1 warm-up round";
  if (opt.traced) std::cout << ", traced blocks " << traced_blocks;
  std::cout << "\n# tx_failed_share "
            << number(share(result.failed, result.attempted)) << " ("
            << result.failed << " of " << result.attempted << ")\n";
  for (const std::string& e : errors) std::cout << "# FAILED: " << e << "\n";
  for (const Metric& m : result.metrics) {
    std::cout << m.name << " " << number(m.value) << " " << m.unit << "\n";
  }

  if (!opt.json_path.empty()) {
    std::ofstream out(opt.json_path);
    out << "{\"workload\": \"" << w.name << "\", \"seed\": " << opt.seed
        << ", \"correct\": " << (result.correct ? "true" : "false")
        << ", \"attempted\": " << result.attempted
        << ", \"failed\": " << result.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
      const Metric& m = result.metrics[i];
      out << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
          << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    }
    out << "}}\n";
    if (!out) throw Error("cannot write " + opt.json_path);
  }
  return result;
}

// ------------------------------------------------------------ smoke, self-test

/// Checks that must hold; reports each failure and counts them.
class Expect {
 public:
  void operator()(bool ok, const std::string& what) {
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    if (!ok) ++failures_;
  }
  int exit_code() const { return failures_ == 0 ? 0 : 1; }

 private:
  int failures_ = 0;
};

/// The "name" of every entry listed under `key` in the benchmark
/// definition, whose lists hold flat objects.
std::vector<std::string> listed_names(const std::string& json,
                                      const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\"");
  const std::size_t open = json.find('[', at);
  const std::size_t close = json.find(']', open);
  if (at == std::string::npos || close == std::string::npos) {
    throw Error("benchmark definition has no list " + key);
  }
  const std::string list = json.substr(open, close - open);
  static const std::regex name_re("\"name\"\\s*:\\s*\"([^\"]+)\"");
  std::vector<std::string> names;
  for (auto it = std::sregex_iterator(list.begin(), list.end(), name_re);
       it != std::sregex_iterator(); ++it) {
    names.push_back((*it)[1]);
  }
  return names;
}

/// Runs every workload for one warm-up and one timed round of 3 blocks in
/// each pass (traced, all checks) and checks
/// the run against the benchmark definition: the same workloads, and every
/// metric it lists, and no other, printed with a unit.
int smoke(const std::string& definition_path) {
  std::ifstream in(definition_path);
  std::stringstream text;
  text << in.rdbuf();
  if (!in) throw Error("cannot read " + definition_path);
  const std::string json = text.str();
  std::vector<std::string> expected = listed_names(json, "end_to_end");
  const std::vector<std::string> layer_names = listed_names(json, "per_layer");
  expected.insert(expected.end(), layer_names.begin(), layer_names.end());

  Expect expect;
  const auto start = Clock::now();
  std::vector<std::string> ours;
  for (const Workload& w : kWorkloads) ours.emplace_back(w.name);
  expect(listed_names(json, "workloads") == ours,
         "the definition lists the bench's workloads");
  for (const Workload& w : kWorkloads) {
    RunOptions opt;
    opt.workload = &w;
    opt.traced = true;
    opt.smoke = true;
    const RunResult r = run_workload(opt);
    expect(r.correct && r.failed == 0,
           std::string(w.name) + ": checks pass, no transaction failed");
    for (const std::string& name : expected) {
      const auto it =
          std::find_if(r.metrics.begin(), r.metrics.end(),
                       [&](const Metric& m) { return m.name == name; });
      if (it == r.metrics.end() || it->unit.empty()) {
        expect(false, std::string(w.name) + ": metric " + name + " printed");
      }
    }
    expect(r.metrics.size() == expected.size(),
           std::string(w.name) + ": the " + std::to_string(expected.size()) +
               " listed metrics and no others");
  }
  expect(ms_since(start) < 10e3, "smoke finished within 10 s");
  return expect.exit_code();
}

int self_test() {
  Expect expect;
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  PassStats stats;

  {  // A block with one altered transaction.
    const auto setup = make_setup(*find_workload("eth-vm"), 7, 2, 0, threads);
    Round round(*setup, false);
    const Block good = round.produce(0, stats, nullptr, nullptr);
    expect(round.deliver(good, stats, nullptr, nullptr) == 0,
           "an untouched block is accepted by every validator");
    round.replay(good, nullptr, nullptr, nullptr);
    Block altered = round.produce(1, stats, nullptr, nullptr);
    altered.transactions[0].value += 1;
    expect(round.deliver(altered, stats, nullptr, nullptr) == kNumEngines,
           "a block with one altered transaction is rejected by every "
           "validator");
    expect(round.submitted() - round.accepted() == altered.size(),
           "its transactions count as failed");
    expect(!round.disagreements().empty(), "the pass reports the rejection");
  }

  {  // A shadow state with one perturbed balance.
    const auto setup = make_setup(*find_workload("eth-vm"), 7, 2, 0, threads);
    Round round(*setup, false);
    for (std::size_t i = 0; i < 2; ++i) {
      const Block block = round.produce(i, stats, nullptr, nullptr);
      round.deliver(block, stats, nullptr, nullptr);
      round.replay(block, nullptr, nullptr, nullptr);
    }
    expect(round.disagreements().empty(), "a clean round agrees");
    const Address victim = setup->senders.front();
    round.shadow().set_balance(victim, round.shadow().balance(victim) + 1);
    expect(!round.disagreements().empty(),
           "a perturbed shadow balance fails the digest check");
  }

  {  // A doctored header state root.
    const auto setup = make_setup(*find_workload("eth-root"), 7, 2, 0, threads);
    Round round(*setup, false);
    const Block block = round.produce(0, stats, nullptr, nullptr);
    round.deliver(block, stats, nullptr, nullptr);
    round.replay(block, nullptr, nullptr, nullptr);
    chain::BlockHeader doctored = block.header;
    expect(round.root_matches(doctored), "the committed root matches");
    doctored.state_root.bytes[0] ^= 1;
    expect(!round.root_matches(doctored),
           "a doctored header state root fails the root check");
    Block next = round.produce(1, stats, nullptr, nullptr);
    next.header.state_root.bytes[0] ^= 1;
    expect(round.deliver(next, stats, nullptr, nullptr) == kNumEngines,
           "every validator rejects a block with a doctored state root");
  }
  return expect.exit_code();
}

int usage() {
  std::cerr << "usage: node_bench --workload=<name> [--seed=<n>] "
               "[--seconds=<s>] [--json=<file>] [--trace=<file>]\n"
               "       node_bench --smoke=<BENCHMARK.json> | --self-test\n"
               "workloads:";
  for (const Workload& w : kWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    RunOptions opt;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const std::size_t eq = arg.find('=');
      const std::string key = arg.substr(0, eq);
      const std::string value =
          eq == std::string::npos ? "" : arg.substr(eq + 1);
      if (arg == "--self-test") return self_test();
      if (key == "--smoke") return smoke(value);
      if (key == "--workload") {
        opt.workload = find_workload(value);
        if (opt.workload == nullptr) return usage();
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--json") {
        opt.json_path = value;
      } else if (key == "--trace") {
        opt.traced = true;
        opt.trace_path = value;
      } else {
        return usage();
      }
    }
    if (opt.workload == nullptr || !(opt.seconds > 0)) return usage();
    return run_workload(opt).correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "node_bench: " << e.what() << "\n";
    return 2;
  }
}
