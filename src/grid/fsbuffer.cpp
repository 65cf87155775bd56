#include "grid/fsbuffer.hpp"

namespace ethergrid::grid {

namespace {

SubstrateConfig substrate_config() {
  SubstrateConfig sc;
  sc.site = "fsbuffer";
  return sc;  // metadata-only: no bandwidth, no slots in play
}

}  // namespace

FsBuffer::FsBuffer(sim::Kernel& kernel, std::int64_t capacity_bytes)
    : kernel_(&kernel),
      capacity_(capacity_bytes),
      substrate_(kernel, substrate_config()),
      append_site_(obs::intern_site("fsbuffer.append")),
      completion_event_(kernel) {}

std::optional<Status> FsBuffer::injected(const char* op) {
  core::FaultDecision fault = substrate_.decide_at(kernel_->now(), op);
  switch (fault.action) {
    case core::FaultDecision::Action::kNone:
    case core::FaultDecision::Action::kStall:  // no duration to stretch here
      return std::nullopt;
    case core::FaultDecision::Action::kFail:
    case core::FaultDecision::Action::kReset:
    case core::FaultDecision::Action::kCrash:
    case core::FaultDecision::Action::kPartition:
      substrate_.note_injected();
      return fault.status;
  }
  return std::nullopt;
}

Status FsBuffer::create(const std::string& name) {
  if (auto fault = injected("create")) return *fault;
  auto [it, inserted] = files_.try_emplace(name);
  if (!inserted) {
    return Status::invalid_argument("file exists: " + name);
  }
  it->second.order = next_order_++;
  return Status::success();
}

Status FsBuffer::append(const std::string& name, std::int64_t bytes) {
  if (auto fault = injected("append")) return *fault;
  auto it = files_.find(name);
  if (it == files_.end()) {
    return Status::not_found("no such file: " + name);
  }
  if (it->second.complete) {
    return Status::invalid_argument("file already complete: " + name);
  }
  if (used_ + bytes > capacity_) {
    ++enospc_;
    std::string message = "ENOSPC writing " + name;
    substrate_.emit_collision(append_site_, kernel_->now(), message,
                              double(bytes));
    return Status::resource_exhausted(std::move(message));
  }
  used_ += bytes;
  it->second.size += bytes;
  return Status::success();
}

Status FsBuffer::rename_done(const std::string& name) {
  if (auto fault = injected("rename")) return *fault;
  auto it = files_.find(name);
  if (it == files_.end()) {
    return Status::not_found("no such file: " + name);
  }
  if (it->second.complete) {
    return Status::invalid_argument("file already complete: " + name);
  }
  it->second.complete = true;
  completion_event_.pulse();
  return Status::success();
}

void FsBuffer::remove(const std::string& name) {
  auto it = files_.find(name);
  if (it == files_.end()) return;
  used_ -= it->second.size;
  files_.erase(it);
}

std::optional<FsBuffer::FileInfo> FsBuffer::oldest_complete() const {
  const File* best = nullptr;
  const std::string* best_name = nullptr;
  for (const auto& [name, file] : files_) {
    if (!file.complete) continue;
    if (!best || file.order < best->order) {
      best = &file;
      best_name = &name;
    }
  }
  if (!best) return std::nullopt;
  return FileInfo{*best_name, best->size, true};
}

int FsBuffer::incomplete_count() const {
  int n = 0;
  for (const auto& [name, file] : files_) {
    if (!file.complete) ++n;
  }
  return n;
}

int FsBuffer::complete_count() const {
  int n = 0;
  for (const auto& [name, file] : files_) {
    if (file.complete) ++n;
  }
  return n;
}

std::int64_t FsBuffer::average_complete_size() const {
  std::int64_t total = 0;
  std::int64_t count = 0;
  for (const auto& [name, file] : files_) {
    if (file.complete) {
      total += file.size;
      ++count;
    }
  }
  return count ? total / count : 0;
}

std::vector<FsBuffer::FileInfo> FsBuffer::list() const {
  std::vector<FileInfo> out;
  out.reserve(files_.size());
  for (const auto& [name, file] : files_) {
    out.push_back(FileInfo{name, file.size, file.complete});
  }
  return out;
}

}  // namespace ethergrid::grid
