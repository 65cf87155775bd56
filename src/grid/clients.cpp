#include "grid/clients.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "core/sim_clock.hpp"
#include "util/strings.hpp"

namespace ethergrid::grid {

namespace {

// The paper-scenario clients work a resource directly; a discipline that
// needs grant negotiation cannot be expressed as their carrier-sense hook.
const DisciplineTraits& resolve_for_legacy_client(
    const std::string& discipline, const char* client) {
  const DisciplineTraits& traits = resolve_discipline(discipline);
  if (traits.reservation) {
    std::fprintf(stderr,
                 "discipline '%s' negotiates reservations; the %s client "
                 "cannot (use make_bulk_sender)\n",
                 traits.name.c_str(), client);
    std::abort();
  }
  return traits;
}

// Removes a partial file unless disarmed -- covers failure returns *and*
// deadline unwinds mid-write (the I/O transaction problem of section 4).
class PartialFileGuard {
 public:
  PartialFileGuard(FsBuffer& buffer, std::string name)
      : buffer_(&buffer), name_(std::move(name)) {}
  ~PartialFileGuard() {
    if (armed_) buffer_->remove(name_);
  }
  void disarm() { armed_ = false; }
  PartialFileGuard(const PartialFileGuard&) = delete;
  PartialFileGuard& operator=(const PartialFileGuard&) = delete;

 private:
  FsBuffer* buffer_;
  std::string name_;
  bool armed_ = true;
};

}  // namespace

// --------------------------------------------------------------- submitter

sim::ProcessBody make_submitter(Schedd& schedd, const SubmitterConfig& config,
                                SubmitterStats* stats) {
  return [&schedd, config, stats](sim::Context& ctx) {
    core::SimClock clock(ctx);
    Rng rng = ctx.rng();

    const DisciplineTraits& traits =
        resolve_for_legacy_client(config.discipline, "submitter");
    core::TryOptions options =
        traits.try_options(config.try_budget, config.backoff);
    core::Discipline discipline{traits.name, options, nullptr};
    if (traits.carrier_sense) {
      discipline.carrier_sense = [&schedd, &ctx, config](TimePoint) -> Status {
        ctx.sleep(config.probe_cost);  // cut -f2 /proc/sys/fs/file-nr
        if (schedd.fd_table().available() < config.fd_threshold) {
          return Status::unavailable("free descriptors below threshold");
        }
        return Status::success();
      };
    }

    while (true) {
      ctx.sleep(config.startup);  // condor_submit process startup
      Status s = core::run_with_discipline(
          clock, rng, discipline,
          [&](TimePoint) { return schedd.submit(ctx); }, &stats->discipline);
      if (s.ok()) {
        ++stats->jobs_succeeded;
      } else {
        ++stats->tries_failed;
      }
    }
  };
}

// ---------------------------------------------------------------- producer

sim::ProcessBody make_producer(FsBuffer& buffer, IoChannel& channel,
                               const ProducerConfig& config,
                               ProducerStats* stats) {
  return [&buffer, &channel, config, stats](sim::Context& ctx) {
    core::SimClock clock(ctx);
    Rng rng = ctx.rng();

    const DisciplineTraits& traits =
        resolve_for_legacy_client(config.discipline, "producer");
    core::TryOptions options =
        traits.try_options(config.try_budget, config.backoff);
    core::Discipline discipline{traits.name, options, nullptr};
    if (traits.carrier_sense) {
      // "the Ethernet client assumes the incomplete items in the buffer will
      //  be the same size as the average of the complete files, and
      //  subtracts that from the free disk space reported by the file
      //  system.  If there is any space remaining, the client proceeds."
      // Our client also counts its own upcoming (unknown-size) output as one
      // more average-sized incomplete item -- carrier sense must leave room
      // for the transmission it is about to start.
      discipline.carrier_sense = [&buffer, &channel,
                                  &ctx](TimePoint) -> Status {
        // df + ls of the buffer directory; a failed probe is a busy medium.
        Status probe = channel.transfer(ctx, 0);
        if (probe.failed()) return probe;
        const std::int64_t estimate =
            buffer.free_bytes() -
            (std::int64_t(buffer.incomplete_count()) + 1) *
                buffer.average_complete_size();
        if (estimate <= 0) {
          return Status::resource_exhausted("estimated buffer full");
        }
        return Status::success();
      };
    }

    std::uint64_t sequence = 0;
    while (true) {
      ctx.sleep(sec(rng.uniform(to_seconds(config.compute_min),
                                to_seconds(config.compute_max))));
      const std::int64_t size = rng.uniform_int(0, config.max_file_bytes);
      const std::string name =
          config.name_prefix + "." + std::to_string(sequence++);

      Status s = core::run_with_discipline(
          clock, rng, discipline,
          [&](TimePoint) -> Status {
            ctx.sleep(config.attempt_overhead);
            // Cleanup is cost-free on the channel: an aborted connection's
            // dirty state is discarded server-side, and charging an RPC
            // inside unwind paths could itself block on an expired deadline.
            PartialFileGuard guard(buffer, name);
            Status status = channel.transfer(ctx, 0);  // create RPC
            if (status.failed()) return status;
            status = buffer.create(name);
            if (status.failed()) return status;
            std::int64_t written = 0;
            while (written < size) {
              const std::int64_t n =
                  std::min(config.chunk_bytes, size - written);
              // The chunk travels to the server whether or not it fits:
              // a doomed write still consumes the shared medium.
              status = channel.transfer(ctx, n);
              if (status.failed()) return status;
              status = buffer.append(name, n);
              // "If the output cannot be written, it is deleted" (guard).
              if (status.failed()) return status;
              written += n;
            }
            status = channel.transfer(ctx, 0);  // rename RPC
            if (status.failed()) return status;
            status = buffer.rename_done(name);
            if (status.failed()) return status;
            guard.disarm();
            return Status::success();
          },
          &stats->discipline);

      if (s.ok()) {
        ++stats->files_completed;
        stats->bytes_completed += size;
      } else {
        ++stats->tries_failed;
      }
    }
  };
}

sim::ProcessBody make_consumer(FsBuffer& buffer, IoChannel& channel,
                               const ConsumerConfig& config,
                               ConsumerStats* stats) {
  return [&buffer, &channel, config, stats](sim::Context& ctx) {
    while (true) {
      auto file = buffer.oldest_complete();
      if (!file) {
        (void)ctx.wait_for(buffer.completion_event(), config.idle_poll);
        continue;
      }
      // Read the file over the shared medium (competing with producer
      // traffic), forward it downstream at the archive rate, then delete
      // ("deleting each as it is consumed").  A failed read leaves the file
      // in place; the next pass retries it.
      if (channel.transfer(ctx, file->size).failed()) {
        ctx.sleep(config.idle_poll);
        continue;
      }
      ctx.sleep(sec(double(file->size) / config.read_bytes_per_second));
      (void)channel.transfer(ctx, 0);  // unlink RPC: best-effort
      buffer.remove(file->name);
      ++stats->files_consumed;
      stats->bytes_consumed += file->size;
      stats->consumed.record(ctx.now());
    }
  };
}

// ------------------------------------------------------------------ reader

sim::ProcessBody make_reader(ServerFarm& farm, const ReaderConfig& config,
                             ReaderStats* stats) {
  return [&farm, config, stats](sim::Context& ctx) {
    core::SimClock clock(ctx);
    Rng rng = ctx.rng();

    const DisciplineTraits& traits =
        resolve_for_legacy_client(config.discipline, "reader");
    core::TryOptions outer = traits.try_options(config.outer_budget);

    while (true) {
      // try for 900 seconds / forany host / (probe +) fetch.
      (void)core::run_try(clock, rng, outer, [&](TimePoint) -> Status {
        // "a server chosen at random": a random order over the replicas,
        // i.e. the forany alternatives.
        std::vector<std::size_t> order(farm.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        for (std::size_t i = order.size(); i > 1; --i) {
          std::swap(order[i - 1],
                    order[std::size_t(rng.uniform_int(0, std::int64_t(i) - 1))]);
        }
        for (std::size_t index : order) {
          FileServer& server = farm.server(index);
          if (traits.carrier_sense) {
            // try for 5 seconds wget http://$host/flag
            Status probe = core::run_try(
                clock, rng, core::TryOptions::for_time(config.probe_timeout),
                [&](TimePoint) { return server.fetch_flag(ctx); });
            if (probe.failed()) {
              ++stats->deferrals;
              stats->deferral_events.record(ctx.now());
              continue;  // forany moves to the next alternative
            }
          }
          // try for 60 seconds wget http://$host/data
          Status data = core::run_try(
              clock, rng, core::TryOptions::for_time(config.data_timeout),
              [&](TimePoint) { return server.fetch(ctx, config.file_bytes); });
          if (data.ok()) {
            ++stats->transfers;
            stats->transfer_events.record(ctx.now());
            return Status::success();
          }
          ++stats->collisions;
          stats->collision_events.record(ctx.now());
        }
        return Status::failure("all replicas failed");
      });
    }
  };
}

// ------------------------------------------------------------- bulk sender

sim::ProcessBody make_bulk_sender(Substrate& link, ReservationBook* book,
                                  const BulkSenderConfig& config,
                                  BulkSenderStats* stats) {
  return [&link, book, config, stats](sim::Context& ctx) {
    core::SimClock clock(ctx);
    Rng rng = ctx.rng();

    const DisciplineTraits& traits = resolve_discipline(config.discipline);
    const DisciplineOptions options =
        config.options ? *config.options : traits.defaults;
    if (traits.reservation && !book) {
      std::fprintf(stderr,
                   "bulk sender: discipline '%s' requires a ReservationBook\n",
                   traits.name.c_str());
      std::abort();
    }

    core::TryOptions try_options =
        traits.try_options(config.transfer_budget, options.backoff);
    core::Discipline discipline{traits.name, try_options, nullptr};
    if (traits.carrier_sense) {
      // Fluid carrier sense: ask the link what instantaneous fair share a
      // new unit-weight flow would get; a crowded medium defers us.
      discipline.carrier_sense = [&link, &ctx, config,
                                  options](TimePoint) -> Status {
        ctx.sleep(config.probe_cost);
        if (link.instantaneous_share_fraction() < options.share_threshold) {
          return Status::unavailable("fair share below threshold");
        }
        return Status::success();
      };
    }

    const double bytes = double(config.file_bytes);

    // Chaos hook: the write is the faultable op ("bulk.write" site).
    auto injected = [&link, &ctx]() -> std::optional<Status> {
      core::FaultDecision fault = link.decide(ctx, "write");
      switch (fault.action) {
        case core::FaultDecision::Action::kNone:
          return std::nullopt;
        case core::FaultDecision::Action::kStall:
          ctx.sleep(fault.stall);
          return std::nullopt;
        default:
          link.note_injected();
          return fault.status;
      }
    };

    // Best-effort attempt: stream at whatever max-min hands us, bounded by
    // the per-attempt deadline (a starved flow is a collision to back off
    // from, not something to sit on forever).
    auto best_effort = [&](TimePoint) -> Status {
      core::TryOptions once =
          core::TryOptions::for_time(config.transfer_deadline);
      once.attempt_limit = 1;
      Status s = core::run_try(clock, rng, once, [&](TimePoint) -> Status {
        if (auto fault = injected()) return *fault;
        Substrate::Hold hold(ctx, link);
        return link.stream(ctx, bytes);
      });
      if (s.code() == StatusCode::kTimeout) ++stats->attempt_timeouts;
      return s;
    };

    // Reservation attempt: negotiate a (window, rate) grant, wait for the
    // window, stream at the granted rate.  A rejection is the discipline's
    // collision -- run_with_discipline backs off and retries.
    auto reserved = [&](TimePoint) -> Status {
      ctx.sleep(config.probe_cost);  // negotiation round-trip with the book
      const double cap = link.bytes_per_second() > 0 ? link.bytes_per_second()
                                                     : book->reservable_bps();
      Grant grant =
          book->request(ctx, bytes, options.min_rate_fraction * cap,
                        options.max_rate_fraction * cap);
      if (!grant.ok()) {
        ++stats->rejects;
        return Status::unavailable("reservation rejected");
      }
      ++stats->grants;
      GrantLease lease(*book, grant.id);
      if (grant.start > ctx.now()) ctx.sleep(grant.start - ctx.now());
      // The book guarantees grant.rate over the window, so window + slack
      // bounds the stream; tripping this deadline means the fluid model
      // broke its promise, not that the medium was busy.
      sim::DeadlineScope deadline(ctx, ctx.now() + grant.duration + sec(1));
      if (auto fault = injected()) return *fault;
      Substrate::Hold hold(ctx, link);
      sim::FluidFlowOptions flow;
      flow.weight = kReservedWeight;
      flow.rate_cap = grant.rate;
      return link.stream(ctx, bytes, flow);
    };

    while (true) {
      ctx.sleep(sec(rng.uniform(to_seconds(config.think_min),
                                to_seconds(config.think_max))));
      Status s = traits.reservation
                     ? core::run_with_discipline(clock, rng, discipline,
                                                 reserved, &stats->discipline)
                     : core::run_with_discipline(clock, rng, discipline,
                                                 best_effort,
                                                 &stats->discipline);
      if (s.ok()) {
        ++stats->files_sent;
        stats->bytes_sent += config.file_bytes;
      } else {
        ++stats->tries_failed;
      }
    }
  };
}

}  // namespace ethergrid::grid
