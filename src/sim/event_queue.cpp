#include "sim/event_queue.hpp"

namespace ethergrid::sim {

const char* queue_impl_name(QueueImpl impl) {
  return impl == QueueImpl::kWheel ? "wheel" : "heap";
}

}  // namespace ethergrid::sim
