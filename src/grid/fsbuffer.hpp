// FsBuffer: the shared-filesystem output buffer of scenario 2.
//
// "Jobs running in a remote cluster produce data whose size is not known
//  beforehand.  As they run, they place their output files into a shared
//  filesystem buffer of 120 MB, where a consumer process collects the
//  outputs and transmits them off to a remote archive."
//
// The buffer exposes exactly what a real filesystem would: create/append/
// rename/remove, statfs-style free space, and a directory listing showing
// complete (renamed *.done) and incomplete files.  ENOSPC during append is
// the collision of this scenario.  The Ethernet producer's carrier sense --
// free space minus (incomplete files x average complete size) -- is
// computable from this interface alone.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/fault.hpp"
#include "grid/substrate.hpp"
#include "obs/observer.hpp"
#include "sim/kernel.hpp"
#include "util/status.hpp"

namespace ethergrid::grid {

class FsBuffer {
 public:
  FsBuffer(sim::Kernel& kernel, std::int64_t capacity_bytes);

  // --- producer-side filesystem calls (instantaneous metadata ops; the
  // *time* of writing is modelled by the producer sleeping between appends).

  // Creates an empty file.  Fails if the name exists.
  Status create(const std::string& name);

  // Appends bytes.  Fails with kResourceExhausted (ENOSPC) if the buffer
  // cannot hold them; the partial file remains and the producer must clean
  // it up (exactly the awkwardness the paper notes).
  Status append(const std::string& name, std::int64_t bytes);

  // Atomically marks the file complete (rename to x.done).
  Status rename_done(const std::string& name);

  // Removes a file if present (rm -f semantics: ok when missing).
  void remove(const std::string& name);

  // --- consumer side.

  // Oldest complete file, if any.
  struct FileInfo {
    std::string name;
    std::int64_t size = 0;
    bool complete = false;
  };
  std::optional<FileInfo> oldest_complete() const;

  // Wakes the consumer when a file completes.
  sim::Event& completion_event() { return completion_event_; }

  // --- observations (the carrier-sense inputs).
  std::int64_t capacity() const { return capacity_; }
  std::int64_t free_bytes() const { return capacity_ - used_; }  // statfs
  std::int64_t used_bytes() const { return used_; }
  int incomplete_count() const;
  int complete_count() const;
  // Mean size of complete files; 0 when none exist.
  std::int64_t average_complete_size() const;

  // Injection sites: "fsbuffer.create", "fsbuffer.append",
  // "fsbuffer.rename".  Metadata ops are instantaneous, so only prompt
  // error faults apply (a stall decision is ignored here; stall the
  // IoChannel the traffic flows over instead).  Not owned; nullptr
  // disables.  Plumbed through a metadata-only grid::Substrate (space,
  // not bandwidth, is this medium's capacity).
  void set_fault_injector(core::FaultInjector* injector) {
    substrate_.set_fault_injector(injector);
  }

  // Observability: each ENOSPC append becomes a kCollision event (value =
  // bytes refused).  Not owned; nullptr off.
  void set_observers(obs::ObserverSet* observers) {
    substrate_.set_observers(observers);
  }

  // Telemetry.
  std::int64_t enospc_failures() const { return enospc_; }
  std::int64_t injected_failures() const {
    return substrate_.injected_failures();
  }
  std::vector<FileInfo> list() const;

 private:
  struct File {
    std::int64_t size = 0;
    bool complete = false;
    std::uint64_t order = 0;  // creation order; completion keeps it
  };

  // Returns the injected failure for the "fsbuffer.<op>" site, if one
  // fires.
  std::optional<Status> injected(const char* op);

  sim::Kernel* kernel_;
  const std::int64_t capacity_;
  Substrate substrate_;       // fault + back-channel plumbing (no bandwidth)
  obs::SiteId append_site_;   // "fsbuffer.append", interned at construction
  std::map<std::string, File> files_;
  std::int64_t used_ = 0;
  std::uint64_t next_order_ = 0;
  std::int64_t enospc_ = 0;
  sim::Event completion_event_;
};

}  // namespace ethergrid::grid
