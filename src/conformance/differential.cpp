#include "conformance/differential.h"

#include <cctype>
#include <cstdint>
#include <optional>
#include <sstream>

#include "account/state.h"
#include "audit/auditor.h"
#include "common/error.h"
#include "common/parse.h"
#include "conformance/fault.h"
#include "conformance/perturb.h"
#include "exec/executor.h"
#include "exec/replay.h"
#include "workload/profiles.h"

namespace txconc::conformance {

namespace {

/// "Ethereum Classic" -> "ethereum_classic".
std::string normalize(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    out.push_back(c == ' ' ? '_'
                           : static_cast<char>(std::tolower(
                                 static_cast<unsigned char>(c))));
  }
  return out;
}

/// Compare one block's receipts and post-states; empty string on match.
std::string compare_block(const exec::ExecutionReport& want,
                          const exec::ExecutionReport& got,
                          const account::StateDb& want_state,
                          const account::StateDb& got_state) {
  std::ostringstream detail;
  if (want.receipts.size() != got.receipts.size()) {
    detail << "receipt count mismatch: sequential=" << want.receipts.size()
           << " got=" << got.receipts.size();
    return detail.str();
  }
  for (std::size_t i = 0; i < want.receipts.size(); ++i) {
    const account::Receipt& w = want.receipts[i];
    const account::Receipt& g = got.receipts[i];
    const char* field = nullptr;
    if (w.success != g.success) field = "success";
    else if (w.gas_used != g.gas_used) field = "gas_used";
    else if (w.return_value != g.return_value) field = "return_value";
    else if (w.error != g.error) field = "error";
    else if (w.logs != g.logs) field = "logs";
    else if (w.created != g.created) field = "created";
    else if (w.internal_txs.size() != g.internal_txs.size()) {
      field = "internal_tx count";
    }
    if (field != nullptr) {
      detail << "receipt " << i << " " << field
             << " mismatch (sequential: success=" << w.success
             << " gas=" << w.gas_used << " error='" << w.error
             << "'; got: success=" << g.success << " gas=" << g.gas_used
             << " error='" << g.error << "')";
      return detail.str();
    }
  }
  // Balance conservation relative to the baseline: identical corpus and
  // top-ups mean the total supply must track sequential exactly.
  if (want_state.total_supply() != got_state.total_supply()) {
    detail << "total supply mismatch: sequential="
           << want_state.total_supply() << " got=" << got_state.total_supply();
    return detail.str();
  }
  if (want_state.digest() != got_state.digest()) {
    detail << "state digest mismatch; diverged accounts:";
    const std::vector<Address> diverged =
        account::diff_accounts(want_state, got_state);
    std::size_t listed = 0;
    for (const Address& addr : diverged) {
      if (++listed > 5) {
        detail << " ... (" << diverged.size() << " total)";
        break;
      }
      detail << " " << addr.to_hex();
    }
    return detail.str();
  }
  return {};
}

/// The cell's profile with the spec's block count and tx scaling applied.
workload::ChainProfile scaled_profile(const RunSpec& spec) {
  workload::ChainProfile profile = profile_by_name(spec.profile);
  if (profile.model != workload::DataModel::kAccount) {
    throw UsageError("conformance oracle needs an account-model profile, '" +
                     spec.profile + "' is UTXO");
  }
  profile.default_blocks = spec.num_blocks;
  if (spec.tx_scale != 1.0) {
    for (workload::EraParams& era : profile.eras) {
      era.txs_per_block *= spec.tx_scale;
    }
  }
  return profile;
}

/// Scopes one auditor block per replayed block.
class AuditObserver final : public exec::BlockObserver {
 public:
  explicit AuditObserver(audit::AccessAuditor& auditor) : auditor_(auditor) {}

  void before_block(std::span<const account::AccountTx> txs,
                    const account::StateDb& state) override {
    auditor_.begin_block(txs, state);
  }
  void after_block(const exec::ExecutionReport& /*report*/) override {
    last_report_ = auditor_.finish_block();
  }

  const audit::AuditReport& last_report() const { return last_report_; }

 private:
  audit::AccessAuditor& auditor_;
  audit::AuditReport last_report_;
};

/// Replay one cell under the auditor; first audit failure, or nullopt.
std::optional<Divergence> run_audit_cell(const RunSpec& spec) {
  const workload::ChainProfile profile = scaled_profile(spec);

  std::optional<SeededFaultInjector> faults;
  if (spec.fault_rate > 0.0) faults.emplace(spec.fault_seed, spec.fault_rate);

  exec::HistoryReplayer replayer(profile, spec.profile_seed);
  if (faults) replayer.set_fault_injector(&*faults);

  audit::AccessAuditor auditor;
  auditor.set_repro_hint(format_spec(spec));
  auditor.set_executor(spec.executor);
  for (const exec::ExecutorSpec& entry : exec::executor_registry()) {
    if (entry.name == spec.executor && entry.multi_version) {
      auditor.set_commit_discipline(audit::CommitDiscipline::kMultiVersion);
    }
  }
  AuditObserver observer(auditor);
  replayer.set_access_recorder(&auditor);
  replayer.set_block_observer(&observer);

  const auto engine = exec::make_executor(spec.executor, spec.threads);
  const SchedulePerturber perturber(spec.schedule_seed);
  for (std::uint64_t block = 0; replayer.remaining() > 0; ++block) {
    replayer.replay_next(*engine);
    const audit::AuditReport& report = observer.last_report();
    // A recorder that never fires would make every check below pass
    // vacuously; treat silence as a failure of the harness itself.
    if (report.transactions_declared > 0 && report.attempts_recorded == 0) {
      return Divergence{spec, block,
                        "audit: recorder saw no execution attempts for " +
                            std::to_string(report.transactions_declared) +
                            " declared transactions (harness miswired?)",
                        repro_command(spec)};
    }
    if (!report.ok()) {
      std::string detail = "audit: " + std::to_string(report.violations.size()) +
                           " violation(s); first: " +
                           to_string(report.violations.front().kind) + " " +
                           report.violations.front().detail;
      return Divergence{spec, block, std::move(detail), repro_command(spec)};
    }
  }
  return std::nullopt;
}

}  // namespace

workload::ChainProfile profile_by_name(const std::string& name) {
  const std::string wanted = normalize(name);
  std::string known;
  for (const workload::ChainProfile& profile : workload::all_profiles()) {
    if (normalize(profile.name) == wanted) return profile;
    if (!known.empty()) known += ", ";
    known += normalize(profile.name);
  }
  throw UsageError("unknown profile '" + name + "' (known: " + known + ")");
}

std::optional<Divergence> run_pair(const RunSpec& spec) {
  const workload::ChainProfile profile = scaled_profile(spec);

  std::optional<SeededFaultInjector> faults;
  if (spec.fault_rate > 0.0) faults.emplace(spec.fault_seed, spec.fault_rate);

  exec::HistoryReplayer baseline(profile, spec.profile_seed);
  exec::HistoryReplayer candidate(profile, spec.profile_seed);
  if (faults) {
    baseline.set_fault_injector(&*faults);
    candidate.set_fault_injector(&*faults);
  }

  const auto sequential = exec::make_executor("sequential", 1);
  const auto engine = exec::make_executor(spec.executor, spec.threads);

  // The perturber shuffles only the candidate's pool scheduling (the
  // sequential baseline never touches a pool), so both replays can run
  // inside its scope, lockstep per block.
  const SchedulePerturber perturber(spec.schedule_seed);
  for (std::uint64_t block = 0; baseline.remaining() > 0; ++block) {
    const exec::ExecutionReport want = baseline.replay_next(*sequential);
    const exec::ExecutionReport got = candidate.replay_next(*engine);
    const std::string detail =
        compare_block(want, got, baseline.state(), candidate.state());
    if (!detail.empty()) {
      return Divergence{spec, block, detail, repro_command(spec)};
    }
  }
  return std::nullopt;
}

GridOutcome run_grid(const GridOptions& options) {
  std::vector<std::string> executors = options.executors;
  if (executors.empty()) {
    for (const exec::ExecutorSpec& spec : exec::executor_registry()) {
      if (spec.parallel) executors.push_back(spec.name);
    }
  }

  GridOutcome outcome;
  for (const std::string& profile : options.profiles) {
    for (const std::string& executor : executors) {
      for (const unsigned threads : options.thread_grid) {
        for (std::uint64_t s = 0; s < options.num_schedule_seeds; ++s) {
          RunSpec spec;
          spec.executor = executor;
          spec.threads = threads;
          spec.profile = profile;
          spec.profile_seed = options.profile_seed;
          spec.schedule_seed = options.schedule_seed_base + s;
          spec.fault_rate = options.fault_rate;
          spec.fault_seed = spec.schedule_seed;
          spec.num_blocks = options.num_blocks;
          spec.tx_scale = options.tx_scale;

          ++outcome.cells;
          outcome.blocks_checked += spec.num_blocks;
          const std::optional<Divergence> divergence = run_pair(spec);
          if (divergence &&
              outcome.divergences.size() < options.max_divergences) {
            outcome.divergences.push_back(*divergence);
          }
        }
      }
    }
  }
  return outcome;
}

GridOutcome run_audit_grid(const GridOptions& options) {
  std::vector<std::string> executors = options.executors;
  if (executors.empty()) {
    // Every registry entry — the sequential baseline must pass the audit
    // trivially (block-ordered, disjoint intervals), so auditing it too
    // is a cheap self-check of the auditor.
    for (const exec::ExecutorSpec& spec : exec::executor_registry()) {
      executors.push_back(spec.name);
    }
  }

  GridOutcome outcome;
  for (const std::string& profile : options.profiles) {
    for (const std::string& executor : executors) {
      for (const unsigned threads : options.thread_grid) {
        for (std::uint64_t s = 0; s < options.num_schedule_seeds; ++s) {
          RunSpec spec;
          spec.executor = executor;
          spec.threads = threads;
          spec.profile = profile;
          spec.profile_seed = options.profile_seed;
          spec.schedule_seed = options.schedule_seed_base + s;
          spec.fault_rate = options.fault_rate;
          spec.fault_seed = spec.schedule_seed;
          spec.num_blocks = options.num_blocks;
          spec.tx_scale = options.tx_scale;

          ++outcome.cells;
          outcome.blocks_checked += spec.num_blocks;
          const std::optional<Divergence> divergence = run_audit_cell(spec);
          if (divergence &&
              outcome.divergences.size() < options.max_divergences) {
            outcome.divergences.push_back(*divergence);
          }
        }
      }
    }
  }
  return outcome;
}

std::string format_spec(const RunSpec& spec) {
  std::ostringstream out;
  out << "executor=" << spec.executor << " threads=" << spec.threads
      << " profile=" << spec.profile << " profile_seed=" << spec.profile_seed
      << " schedule_seed=" << spec.schedule_seed
      << " fault_rate=" << spec.fault_rate
      << " fault_seed=" << spec.fault_seed << " blocks=" << spec.num_blocks
      << " tx_scale=" << spec.tx_scale;
  return out.str();
}

RunSpec parse_spec(const std::string& text) {
  RunSpec spec;
  std::istringstream in(text);
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      throw UsageError("repro spec token without '=': " + token);
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    // Numbers parse strictly: "threads=-1" must not wrap to 2^32 - 1.
    const auto count = [&](std::uint64_t max = UINT64_MAX) {
      const std::optional<std::uint64_t> v = parse_uint(value, max);
      if (!v) throw UsageError("bad repro spec value: " + token);
      return *v;
    };
    const auto real = [&] {
      const std::optional<double> v = parse_nonnegative(value);
      if (!v) throw UsageError("bad repro spec value: " + token);
      return *v;
    };
    if (key == "executor") spec.executor = value;
    else if (key == "threads") spec.threads = static_cast<unsigned>(count(UINT32_MAX));
    else if (key == "profile") spec.profile = value;
    else if (key == "profile_seed") spec.profile_seed = count();
    else if (key == "schedule_seed") spec.schedule_seed = count();
    else if (key == "fault_rate") spec.fault_rate = real();
    else if (key == "fault_seed") spec.fault_seed = count();
    else if (key == "blocks") spec.num_blocks = count();
    else if (key == "tx_scale") spec.tx_scale = real();
    else throw UsageError("unknown repro spec key: " + key);
  }
  return spec;
}

std::string repro_command(const RunSpec& spec) {
  return exec::format_repro_env(format_spec(spec)) +
         " ./build/tests/conformance_test "
         "--gtest_filter='ReproCommand.ReplaysEnvSpec'";
}

}  // namespace txconc::conformance
