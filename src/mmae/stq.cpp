#include "mmae/stq.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace maco::mmae {

SlaveTaskQueue::SlaveTaskQueue(unsigned entries) : entries_(entries) {
  MACO_ASSERT_MSG(entries > 0, "STQ needs at least one entry");
}

bool SlaveTaskQueue::push(cpu::Maid maid, isa::Mnemonic op,
                          const isa::ParamBlock& block, vm::Asid asid) {
  const auto it = std::find_if(
      entries_.begin(), entries_.end(),
      [](const StqEntry& e) { return e.state == StqState::kFree; });
  if (it == entries_.end()) return false;

  StqEntry& entry = *it;
  entry = StqEntry{};
  entry.state = StqState::kPending;
  entry.maid = maid;
  entry.asid = asid;
  entry.op = op;
  switch (op) {
    case isa::Mnemonic::kMaCfg:
      entry.params = isa::GemmParams::unpack(block);
      break;
    case isa::Mnemonic::kMaMove:
      entry.params = isa::MoveParams::unpack(block);
      break;
    case isa::Mnemonic::kMaInit:
      entry.params = isa::InitParams::unpack(block);
      break;
    case isa::Mnemonic::kMaStash:
      entry.params = isa::StashParams::unpack(block);
      break;
    default:
      MACO_UNREACHABLE("task-management ops are not queued in the STQ");
  }
  pending_order_.push_back(
      static_cast<unsigned>(std::distance(entries_.begin(), it)));
  return true;
}

std::optional<unsigned> SlaveTaskQueue::next_pending() const {
  if (pending_order_.empty()) return std::nullopt;
  return pending_order_.front();
}

StqEntry& SlaveTaskQueue::entry(unsigned index) {
  MACO_ASSERT(index < entries_.size());
  return entries_[index];
}

const StqEntry& SlaveTaskQueue::entry(unsigned index) const {
  MACO_ASSERT(index < entries_.size());
  return entries_[index];
}

unsigned SlaveTaskQueue::occupied() const noexcept {
  unsigned count = 0;
  for (const auto& e : entries_) count += e.state != StqState::kFree ? 1 : 0;
  return count;
}

void SlaveTaskQueue::mark_running(unsigned index) {
  MACO_ASSERT(index < entries_.size());
  MACO_ASSERT_MSG(entries_[index].state == StqState::kPending,
                  "entry " << index << " not pending");
  MACO_ASSERT(!pending_order_.empty() && pending_order_.front() == index);
  pending_order_.pop_front();
  entries_[index].state = StqState::kRunning;
}

void SlaveTaskQueue::complete(unsigned index, cpu::ExceptionType exception) {
  MACO_ASSERT(index < entries_.size());
  StqEntry& e = entries_[index];
  MACO_ASSERT_MSG(e.state == StqState::kRunning,
                  "completing entry " << index << " that is not running");
  e.exception = exception;
  e.state = exception == cpu::ExceptionType::kNone ? StqState::kDone
                                                   : StqState::kException;
}

void SlaveTaskQueue::release(unsigned index) {
  MACO_ASSERT(index < entries_.size());
  entries_[index] = StqEntry{};
}

}  // namespace maco::mmae
