// Causal trace context: the message-envelope analogue of a W3C
// traceparent, carried across threads, nodes and shard committees so one
// Chrome trace shows a block's whole multi-node lifecycle (produce ->
// gossip -> Zilliqa epoch and pbft rounds -> remote re-execution) as a
// single parent-linked tree.
//
// This header is deliberately dependency-free: account::RuntimeConfig
// embeds a TraceContext by value, and the account layer must not pull in
// the full tracer.
#pragma once

#include <cstdint>

namespace txconc::obs {

/// A reference to a span in some (possibly remote) process.
///
/// `trace_id` groups every span of one causal story (minted once per
/// block); `parent_span` is the span id the receiver should link to as
/// its parent; `flow_id`, when non-zero, names a flow-start event the
/// forwarding site emitted so the viewer draws the cross-thread arrow
/// (see CausalSpan::fork in obs/trace.h).
///
/// The zero-initialized context means "no context": spans started under
/// it mint a fresh trace root. Copying is free; forwarding a context
/// through a disabled tracer allocates nothing (enforced by
/// tests/obs_test.cpp).
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
  std::uint64_t flow_id = 0;

  bool valid() const { return trace_id != 0; }
};

}  // namespace txconc::obs
