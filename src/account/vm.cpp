#include "account/vm.h"

#include "common/error.h"

namespace txconc::account {

namespace {

/// Thrown inside a frame to signal out-of-gas (consumes the whole budget).
struct OutOfGas {};

/// Thrown inside a frame on a fault (bad opcode, stack underflow, ...).
struct Fault {
  std::string reason;
};

/// The operand stack every frame on this thread shares (DESIGN.md §24).
/// A frame works above the depth it entered at, so its capacity carries
/// over from frame to frame and transaction to transaction, and a warm
/// contract call allocates nothing.
thread_local std::vector<std::uint64_t> operand_stack;

/// Truncates the shared stack back to a frame's entry depth on every way
/// out of the frame, exceptions included, so a caller's operands are
/// exactly as it left them.
class FrameStack {
 public:
  FrameStack() : stack_(operand_stack), base_(stack_.size()) {}
  ~FrameStack() { stack_.resize(base_); }

  FrameStack(const FrameStack&) = delete;
  FrameStack& operator=(const FrameStack&) = delete;

  /// Operands this frame has pushed and not popped.
  std::size_t depth() const { return stack_.size() - base_; }
  std::vector<std::uint64_t>& operands() { return stack_; }

 private:
  std::vector<std::uint64_t>& stack_;
  const std::size_t base_;
};

}  // namespace

VmResult Vm::execute(const ContractCode& contract, const CallContext& context,
                     std::uint64_t gas_limit, const ExecutionHooks& hooks) {
  VmResult result;
  if (context.depth > limits_.max_call_depth) {
    // Like the EVM's 1024-frame limit: the deepest CALL simply fails
    // without consuming the caller's remaining budget.
    result.error = "call depth exceeded";
    result.gas_used = 0;
    return result;
  }

  const Snapshot frame_snapshot = state_.snapshot();
  std::uint64_t gas_left = gas_limit;
  FrameStack frame;
  std::vector<std::uint64_t>& stack = frame.operands();
  const Bytes& code = contract.code;
  std::size_t pc = 0;

  auto charge = [&](std::uint64_t amount) {
    if (gas_left < amount) throw OutOfGas{};
    gas_left -= amount;
  };
  auto pop = [&]() -> std::uint64_t {
    if (frame.depth() == 0) throw Fault{"stack underflow"};
    const std::uint64_t v = stack.back();
    stack.pop_back();
    return v;
  };
  auto push = [&](std::uint64_t v) {
    if (frame.depth() >= limits_.max_stack) throw Fault{"stack overflow"};
    stack.push_back(v);
  };
  auto imm_u64 = [&]() -> std::uint64_t {
    if (pc + 8 > code.size()) throw Fault{"truncated u64 immediate"};
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(code[pc + i]) << (8 * i);
    }
    pc += 8;
    return v;
  };
  auto imm_u32 = [&]() -> std::uint32_t {
    if (pc + 4 > code.size()) throw Fault{"truncated u32 immediate"};
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(code[pc + i]) << (8 * i);
    }
    pc += 4;
    return v;
  };
  auto table_address = [&](std::uint64_t index) -> const Address& {
    if (index >= context.address_table.size()) {
      throw Fault{"address table index out of range"};
    }
    return context.address_table[index];
  };

  try {
    while (pc < code.size()) {
      const OpCode op = static_cast<OpCode>(code[pc++]);
      charge(gas_.base_op);
      switch (op) {
        case OpCode::kStop:
          pc = code.size();
          break;
        case OpCode::kPush:
          push(imm_u64());
          break;
        case OpCode::kPop:
          pop();
          break;
        case OpCode::kDup: {
          if (frame.depth() == 0) throw Fault{"dup on empty stack"};
          push(stack.back());
          break;
        }
        case OpCode::kSwap: {
          if (frame.depth() < 2) throw Fault{"swap needs two items"};
          std::swap(stack[stack.size() - 1], stack[stack.size() - 2]);
          break;
        }
        case OpCode::kAdd: {
          const std::uint64_t b = pop();
          const std::uint64_t a = pop();
          push(a + b);
          break;
        }
        case OpCode::kSub: {
          const std::uint64_t b = pop();
          const std::uint64_t a = pop();
          push(a - b);
          break;
        }
        case OpCode::kMul: {
          const std::uint64_t b = pop();
          const std::uint64_t a = pop();
          push(a * b);
          break;
        }
        case OpCode::kDiv: {
          const std::uint64_t b = pop();
          const std::uint64_t a = pop();
          push(b == 0 ? 0 : a / b);
          break;
        }
        case OpCode::kMod: {
          const std::uint64_t b = pop();
          const std::uint64_t a = pop();
          push(b == 0 ? 0 : a % b);
          break;
        }
        case OpCode::kLt: {
          const std::uint64_t b = pop();
          const std::uint64_t a = pop();
          push(a < b ? 1 : 0);
          break;
        }
        case OpCode::kGt: {
          const std::uint64_t b = pop();
          const std::uint64_t a = pop();
          push(a > b ? 1 : 0);
          break;
        }
        case OpCode::kEq: {
          const std::uint64_t b = pop();
          const std::uint64_t a = pop();
          push(a == b ? 1 : 0);
          break;
        }
        case OpCode::kIsZero:
          push(pop() == 0 ? 1 : 0);
          break;
        case OpCode::kAnd: {
          const std::uint64_t b = pop();
          const std::uint64_t a = pop();
          push(a & b);
          break;
        }
        case OpCode::kOr: {
          const std::uint64_t b = pop();
          const std::uint64_t a = pop();
          push(a | b);
          break;
        }
        case OpCode::kXor: {
          const std::uint64_t b = pop();
          const std::uint64_t a = pop();
          push(a ^ b);
          break;
        }
        case OpCode::kNot:
          push(~pop());
          break;
        case OpCode::kJump: {
          const std::uint32_t target = imm_u32();
          if (target > code.size()) throw Fault{"jump out of range"};
          pc = target;
          break;
        }
        case OpCode::kJumpi: {
          const std::uint32_t target = imm_u32();
          if (target > code.size()) throw Fault{"jump out of range"};
          if (pop() != 0) pc = target;
          break;
        }
        case OpCode::kCaller64:
          push(context.caller.low64());
          break;
        case OpCode::kSelf64:
          push(context.self.low64());
          break;
        case OpCode::kCallValue:
          push(context.value);
          break;
        case OpCode::kNumArgs:
          push(context.args.size());
          break;
        case OpCode::kArg: {
          const std::uint64_t i = pop();
          push(i < context.args.size() ? context.args[i] : 0);
          break;
        }
        case OpCode::kSelfBalance:
          if (hooks.tracker) hooks.tracker->read_balance(context.self);
          push(state_.balance(context.self));
          break;
        case OpCode::kBalanceOf: {
          const Address& addr = table_address(pop());
          if (hooks.tracker) hooks.tracker->read_balance(addr);
          push(state_.balance(addr));
          break;
        }
        case OpCode::kNumAddrs:
          push(context.address_table.size());
          break;
        case OpCode::kAddr64:
          push(table_address(pop()).low64());
          break;
        case OpCode::kSload: {
          charge(gas_.sload);
          const std::uint64_t key = pop();
          if (hooks.tracker) hooks.tracker->read_slot(context.self, key);
          push(state_.storage(context.self, key));
          break;
        }
        case OpCode::kSstore: {
          charge(gas_.sstore);
          const std::uint64_t value = pop();
          const std::uint64_t key = pop();
          if (hooks.tracker) hooks.tracker->write_slot(context.self, key);
          state_.set_storage(context.self, key, value);
          break;
        }
        case OpCode::kLog: {
          charge(gas_.log);
          const std::uint64_t value = pop();
          if (hooks.logs) hooks.logs->push_back(value);
          break;
        }
        case OpCode::kTransfer: {
          charge(gas_.transfer);
          const std::uint64_t value = pop();
          const Address& to = table_address(pop());
          if (hooks.tracker) {
            hooks.tracker->read_balance(context.self);
            if (value > 0) {
              // Zero-value sends change nothing: no write conflict.
              hooks.tracker->write_balance(context.self);
              hooks.tracker->write_balance(to);
            }
          }
          if (state_.balance(context.self) < value) {
            push(0);  // Insufficient funds: signal failure, no fault.
            break;
          }
          state_.transfer(context.self, to, value);
          if (hooks.traces) {
            hooks.traces->push_back({context.self, to, value,
                                     TraceKind::kTransfer,
                                     context.depth + 1});
          }
          push(1);
          break;
        }
        case OpCode::kCall: {
          charge(gas_.call);
          const std::uint64_t arg = pop();
          const std::uint64_t value = pop();
          const Address& target = table_address(pop());
          if (hooks.tracker) {
            hooks.tracker->read_balance(context.self);
            if (value > 0) {
              hooks.tracker->write_balance(context.self);
              hooks.tracker->write_balance(target);
            }
          }
          if (state_.balance(context.self) < value) {
            push(0);
            break;
          }
          const Snapshot call_snapshot = state_.snapshot();
          state_.transfer(context.self, target, value);
          if (hooks.traces) {
            hooks.traces->push_back({context.self, target, value,
                                     TraceKind::kCall, context.depth + 1});
          }
          const ContractCode* callee = state_.code(target);
          if (callee == nullptr) {
            push(1);  // Plain value call to a non-contract account.
            break;
          }
          const std::uint64_t child_args[] = {arg};
          CallContext child;
          child.self = target;
          child.caller = context.self;
          child.value = value;
          child.args = child_args;
          child.address_table = callee->address_table;
          child.depth = context.depth + 1;
          const VmResult child_result =
              execute(*callee, child, gas_left, hooks);
          // Child gas is consumed from this frame's budget.
          charge(child_result.gas_used);
          if (!child_result.success) {
            // The child frame (including the value transfer) was reverted
            // by the recursive call; surface failure as a 0 return.
            state_.revert(call_snapshot);
            push(0);
          } else {
            push(child_result.return_value);
          }
          break;
        }
        case OpCode::kReturn: {
          result.return_value = pop();
          result.success = true;
          result.gas_used = gas_limit - gas_left;
          return result;
        }
        case OpCode::kRevert: {
          state_.revert(frame_snapshot);
          result.error = "reverted";
          result.gas_used = gas_limit - gas_left;
          return result;
        }
        default:
          throw Fault{"unknown opcode " + std::to_string(code[pc - 1])};
      }
    }
    // Fell off the end (or kStop): success with return value 0.
    result.success = true;
    result.gas_used = gas_limit - gas_left;
    return result;
  } catch (const OutOfGas&) {
    state_.revert(frame_snapshot);
    result.error = "out of gas";
    result.gas_used = gas_limit;
    return result;
  } catch (const Fault& fault) {
    state_.revert(frame_snapshot);
    result.error = "fault: " + fault.reason;
    result.gas_used = gas_limit;
    return result;
  }
}

}  // namespace txconc::account
