#include "chain/block.h"

#include "common/sha256.h"

namespace txconc::chain {

Hash256 tx_hash(const utxo::Transaction& tx) { return tx.txid(); }

Hash256 tx_hash(const account::AccountTx& tx) {
  HashWriter w;
  w.raw(tx.from.bytes);
  w.u8(tx.to.has_value() ? 1 : 0);
  if (tx.to) w.raw(tx.to->bytes);
  w.u64(tx.value);
  w.u64(tx.gas_limit);
  w.u64(tx.gas_price);
  w.u64(tx.nonce);
  w.u32(static_cast<std::uint32_t>(tx.args.size()));
  for (std::uint64_t arg : tx.args) w.u64(arg);
  w.u32(static_cast<std::uint32_t>(tx.address_args.size()));
  for (const Address& a : tx.address_args) w.raw(a.bytes);
  w.bytes(tx.init_code.code);
  w.u32(static_cast<std::uint32_t>(tx.init_code.address_table.size()));
  for (const Address& a : tx.init_code.address_table) w.raw(a.bytes);
  return w.finish();
}

Bytes BlockHeader::serialize() const {
  ByteWriter w(136);
  w.raw(prev_hash.bytes);
  w.raw(merkle_root.bytes);
  w.raw(state_root.bytes);
  w.u64(height);
  w.u64(timestamp);
  w.u64(difficulty);
  w.u64(nonce);
  w.u64(gas_used);
  return w.take();
}

Hash256 BlockHeader::hash() const {
  Hash256 h;
  h.bytes = Sha256::hash_twice(serialize());
  return h;
}

}  // namespace txconc::chain
