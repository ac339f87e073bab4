// Account-model transaction and receipt types (paper Section II-A).
//
// "In the account-based model, a transaction makes modifications to some
// accounts' states. [...] Executing a transaction in this model involves
// the invocation of some computation logics, or smart contracts."
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/hash.h"

namespace txconc::account {

/// Deployed contract code: SVM bytecode plus the static address table the
/// code's CALL/TRANSFER opcodes index into.
struct ContractCode {
  Bytes code;
  std::vector<Address> address_table;

  bool empty() const { return code.empty(); }
  bool operator==(const ContractCode&) const = default;
};

/// An account-model transaction.
struct AccountTx {
  Address from;
  /// Receiver. Empty (nullopt) means contract creation.
  std::optional<Address> to;
  std::uint64_t value = 0;
  std::uint64_t gas_limit = 100000;
  std::uint64_t gas_price = 1;
  std::uint64_t nonce = 0;
  /// Call arguments (for calls) — the SVM's calldata.
  std::vector<std::uint64_t> args;
  /// Dynamic address arguments, indexed by CALL/TRANSFER in the top frame.
  std::vector<Address> address_args;
  /// For contract creation: the code to deploy.
  ContractCode init_code;

  bool is_creation() const { return !to.has_value(); }
};

/// The kind of an internal transaction (a geth-style trace entry).
enum class TraceKind : std::uint8_t {
  kCall,      ///< Contract-to-contract call (runs code).
  kTransfer,  ///< Plain value send initiated by a contract.
  kCreate,    ///< Contract creation.
};

/// "We define as an internal transaction any interaction between contracts
/// that generates a so-called trace in the geth client, and which is not a
/// regular or coinbase transaction." — paper, Section II-A.
struct InternalTx {
  Address from;
  Address to;
  std::uint64_t value = 0;
  TraceKind kind = TraceKind::kCall;
  std::uint32_t depth = 1;  ///< Call depth (top-level tx is depth 0).
};

/// One storage-slot access, for the slot-granularity conflict ablation
/// (Saraph & Herlihy define conflicts at the storage layer).
struct SlotAccess {
  Address address;
  std::uint64_t key = 0;

  auto operator<=>(const SlotAccess&) const = default;
};

/// The splitmix64 finalizer: every input bit reaches every output bit, so
/// masking the low bits (open addressing) sees the whole key.
constexpr std::uint64_t mix64(std::uint64_t k) noexcept {
  k ^= k >> 30;
  k *= 0xbf58476d1ce4e5b9ULL;
  k ^= k >> 27;
  k *= 0x94d049bb133111ebULL;
  k ^= k >> 31;
  return k;
}

/// Hash for SlotAccess keys in unordered containers (conflict detection,
/// access auditing, block analysis). Boost-style hash_combine: a plain
/// `hash(address) ^ key*phi` lets related (address, key) pairs cancel each
/// other out under XOR and alias distinct slots; folding each field into
/// the running seed keeps slots of the same address apart.
struct SlotAccessHash {
  std::size_t operator()(const SlotAccess& s) const noexcept {
    std::size_t seed = std::hash<Address>{}(s.address);
    const std::uint64_t k = mix64(s.key);  // decorrelates key bits
    seed ^= static_cast<std::size_t>(k) + 0x9e3779b97f4a7c15ULL +
            (seed << 6) + (seed >> 2);
    return seed;
  }
};

/// Execution receipt for one account-model transaction.
struct Receipt {
  bool success = false;
  std::uint64_t gas_used = 0;
  std::uint64_t return_value = 0;
  std::string error;  ///< Empty on success.

  /// Geth-style traces generated during execution.
  std::vector<InternalTx> internal_txs;

  /// Address of the contract created by a creation transaction.
  std::optional<Address> created;

  /// Storage-layer read/write sets (touched accounts appear with key 0 for
  /// balance accesses when slot tracking is enabled).
  std::vector<SlotAccess> reads;
  std::vector<SlotAccess> writes;

  /// Logged values (the SVM's LOG opcode).
  std::vector<std::uint64_t> logs;

  /// Return to the default-constructed state while keeping the vectors'
  /// (and the error string's) capacity, so a receipt slot reused across
  /// transactions stays allocation-free once warm.
  void reset() {
    success = false;
    gas_used = 0;
    return_value = 0;
    error.clear();
    internal_txs.clear();
    created.reset();
    reads.clear();
    writes.clear();
    logs.clear();
  }
};

}  // namespace txconc::account
