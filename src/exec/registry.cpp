// The executor registry: the single list of engine families the
// conformance harness, benches and tools iterate over.
#include "exec/executor.h"

#include "common/error.h"
#include "exec/block_stm.h"

namespace txconc::exec {

const std::vector<ExecutorSpec>& executor_registry() {
  static const std::vector<ExecutorSpec> registry = {
      {"sequential", false,
       [](unsigned) { return make_sequential_executor(); }},
      {"speculative", true,
       [](unsigned n) { return make_speculative_executor(n); }},
      {"speculative-fww", true,
       [](unsigned n) {
         return make_speculative_executor(n, AbortPolicy::kFirstWriterWins);
       }},
      {"oracle-speculative", true,
       [](unsigned n) { return make_oracle_executor(n); }},
      {"group-lpt", true, [](unsigned n) { return make_group_executor(n); }},
      {"block-stm", true,
       [](unsigned n) { return make_block_stm_executor(n); },
       /*multi_version=*/true},
  };
  return registry;
}

std::string registry_names() {
  std::string names;
  for (const ExecutorSpec& spec : executor_registry()) {
    if (!names.empty()) names += ", ";
    names += spec.name;
  }
  return names;
}

std::unique_ptr<BlockExecutor> make_executor(const std::string& name,
                                             unsigned num_threads) {
  for (const ExecutorSpec& spec : executor_registry()) {
    if (spec.name == name) return spec.make(num_threads);
  }
  throw UsageError("unknown executor '" + name +
                   "' (known: " + registry_names() + ")");
}

}  // namespace txconc::exec
