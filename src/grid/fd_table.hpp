// FdTable: the unmanaged shared resource of the paper's first scenario.
//
// "Most systems go to great lengths to manage the use of physical resources
//  such as disks, memories, and CPUs.  This overlooked resource [file
//  descriptors] is just as vital in a system under a heavy load."
//
// The table is intentionally *not* a queueing resource: allocation either
// succeeds immediately or fails (EMFILE/ENFILE semantics).  Clients may
// observe available() -- that observation is exactly the carrier-sense probe
// the Ethernet submitter performs via /proc/sys/fs/file-nr in the paper.
#pragma once

#include <cstdint>

namespace ethergrid::grid {

class FdTable {
 public:
  explicit FdTable(std::int64_t capacity);

  // Takes n descriptors; false (and takes nothing) if fewer than n free.
  bool try_allocate(std::int64_t n);

  void free(std::int64_t n);

  std::int64_t capacity() const { return capacity_; }
  std::int64_t available() const { return available_; }
  std::int64_t in_use() const { return capacity_ - available_; }

  // Telemetry: lowest available() ever observed, and failed allocations.
  std::int64_t low_watermark() const { return low_watermark_; }
  std::int64_t allocation_failures() const { return allocation_failures_; }

  // Frees everything (the host rebooting / the schedd crash dropping all
  // connections is modelled by the owners releasing; this is a hard reset
  // used by tests).
  void reset();

 private:
  const std::int64_t capacity_;
  std::int64_t available_;
  std::int64_t low_watermark_;
  std::int64_t allocation_failures_ = 0;
};

// RAII ownership of n descriptors; empty when allocation failed.
class FdLease {
 public:
  FdLease() = default;
  // Attempts the allocation; check held() afterwards.
  FdLease(FdTable& table, std::int64_t n) {
    if (table.try_allocate(n)) {
      table_ = &table;
      count_ = n;
    }
  }
  ~FdLease() { release(); }
  FdLease(FdLease&& other) noexcept
      : table_(other.table_), count_(other.count_) {
    other.table_ = nullptr;
    other.count_ = 0;
  }
  FdLease& operator=(FdLease&& other) noexcept {
    if (this != &other) {
      release();
      table_ = other.table_;
      count_ = other.count_;
      other.table_ = nullptr;
      other.count_ = 0;
    }
    return *this;
  }
  FdLease(const FdLease&) = delete;
  FdLease& operator=(const FdLease&) = delete;

  bool held() const { return table_ != nullptr; }
  std::int64_t count() const { return count_; }

  void release() {
    if (table_) {
      table_->free(count_);
      table_ = nullptr;
      count_ = 0;
    }
  }

 private:
  FdTable* table_ = nullptr;
  std::int64_t count_ = 0;
};

}  // namespace ethergrid::grid
