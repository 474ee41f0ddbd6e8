// Copy-free interprocess communication (Sections 3.2 and 4.4).
//
// When both ends of a pipe use the IO-Lite API, a write enqueues the buffer
// aggregate by value — the underlying buffers move by reference — and the
// read on the other side dequeues slices, with the runtime mapping the
// chunks readable in the consumer's domain. On a warm path (recycled
// buffers, persistent mappings) a transfer costs two syscalls and nothing
// per byte.

#ifndef SRC_IOLITE_PIPE_H_
#define SRC_IOLITE_PIPE_H_

#include <deque>
#include <memory>

#include "src/iolite/stream.h"
#include "src/simos/sim_context.h"

namespace iolite {

// Shared state of one pipe.
class PipeChannel {
 public:
  explicit PipeChannel(iolsim::SimContext* ctx) : ctx_(ctx) {}

  // Appends the aggregate (reference transfer, no data touch).
  size_t Push(const Aggregate& agg) {
    if (agg.empty()) {
      return 0;
    }
    queued_.push_back(agg);
    bytes_ += agg.size();
    return agg.size();
  }

  // Dequeues up to `max_bytes`, splitting the head aggregate if needed.
  Aggregate Pop(size_t max_bytes) {
    Aggregate out;
    while (!queued_.empty() && out.size() < max_bytes) {
      Aggregate& head = queued_.front();
      size_t want = max_bytes - out.size();
      if (head.size() <= want) {
        out.Append(head);
        bytes_ -= head.size();
        queued_.pop_front();
      } else {
        out.Append(head.Range(0, want));
        head.DropFront(want);
        bytes_ -= want;
      }
    }
    return out;
  }

  size_t bytes_queued() const { return bytes_; }
  bool closed() const { return closed_; }
  void CloseWriteEnd() { closed_ = true; }
  iolsim::SimContext* ctx() const { return ctx_; }

 private:
  iolsim::SimContext* ctx_;
  std::deque<Aggregate> queued_;
  size_t bytes_ = 0;
  bool closed_ = false;
};

// Stream adapter for the read end.
class PipeReadStream : public Stream {
 public:
  explicit PipeReadStream(std::shared_ptr<PipeChannel> channel) : channel_(std::move(channel)) {}

  Aggregate Read(iolsim::DomainId /*reader*/, size_t max_bytes) override {
    return channel_->Pop(max_bytes);
  }

  size_t Write(iolsim::DomainId /*writer*/, const Aggregate& /*agg*/) override {
    return 0;  // Read end is not writable.
  }

 private:
  std::shared_ptr<PipeChannel> channel_;
};

// Stream adapter for the write end.
class PipeWriteStream : public Stream {
 public:
  explicit PipeWriteStream(std::shared_ptr<PipeChannel> channel) : channel_(std::move(channel)) {}

  Aggregate Read(iolsim::DomainId /*reader*/, size_t /*max_bytes*/) override {
    return Aggregate{};  // Write end is not readable.
  }

  size_t Write(iolsim::DomainId /*writer*/, const Aggregate& agg) override {
    return channel_->Push(agg);
  }

 private:
  std::shared_ptr<PipeChannel> channel_;
};

// A created pipe: two descriptors over one channel.
struct PipeEnds {
  Fd read_fd;
  Fd write_fd;
  std::shared_ptr<PipeChannel> channel;
};

// Creates a pipe between `reader_domain` and `writer_domain`.
PipeEnds MakePipe(class IoLiteRuntime* runtime, iolsim::DomainId reader_domain,
                  iolsim::DomainId writer_domain);

}  // namespace iolite

#endif  // SRC_IOLITE_PIPE_H_
