// stdio over IO-Lite pipes (Sections 3.4 and 5.8).
//
// Language runtime I/O libraries can be converted to use the IO-Lite API
// internally without changing their own interface; applications benefit by
// relinking. This is the mechanism used for the compiler-chain experiment:
// the copy between application and stdio buffer remains (it is part of the
// stdio contract), but the kernel-crossing copy of a conventional pipe is
// replaced by a by-reference aggregate transfer.

#ifndef SRC_IOLITE_STDIO_LITE_H_
#define SRC_IOLITE_STDIO_LITE_H_

#include <cstring>
#include <memory>

#include "src/iolite/buffer_pool.h"
#include "src/iolite/pipe.h"
#include "src/simos/sim_context.h"

namespace iolite {

// Buffered writer: user data is copied into an IO-Lite buffer (the stdio
// buffer), which is pushed into the pipe by reference when full.
class StdioLiteWriter {
 public:
  StdioLiteWriter(iolsim::SimContext* ctx, BufferPool* pool, PipeChannel* channel,
                  size_t buffer_bytes = 8192)
      : ctx_(ctx), pool_(pool), channel_(channel), capacity_(buffer_bytes) {}

  ~StdioLiteWriter() { Flush(); }

  void Write(const char* src, size_t n) {
    while (n > 0) {
      if (!current_) {
        current_ = pool_->Allocate(capacity_);
        filled_ = 0;
      }
      size_t room = capacity_ - filled_;
      size_t take = n < room ? n : room;
      std::memcpy(current_->writable_data() + filled_, src, take);
      ctx_->ChargeCpu(ctx_->cost().CopyCost(take));  // App -> stdio buffer.
      ctx_->stats().bytes_copied += take;
      filled_ += take;
      src += take;
      n -= take;
      if (filled_ == capacity_) {
        Flush();
      }
    }
  }

  // Seals the stdio buffer and hands it to the pipe by reference.
  void Flush() {
    if (!current_ || filled_ == 0) {
      return;
    }
    current_->Seal(filled_);
    ctx_->ChargeCpu(ctx_->cost().SyscallCost());  // IOL_write on the pipe.
    ctx_->stats().syscalls++;
    channel_->Push(Aggregate::FromBuffer(std::move(current_)));
    current_ = BufferRef();
    filled_ = 0;
  }

 private:
  iolsim::SimContext* ctx_;
  BufferPool* pool_;
  PipeChannel* channel_;
  size_t capacity_;
  BufferRef current_;
  size_t filled_ = 0;
};

// Buffered reader: aggregates are popped by reference; bytes are copied out
// to the caller (the stdio contract).
class StdioLiteReader {
 public:
  StdioLiteReader(iolsim::SimContext* ctx, PipeChannel* channel) : ctx_(ctx), channel_(channel) {}

  size_t Read(char* dst, size_t n) {
    size_t got = 0;
    while (got < n) {
      if (pending_.empty()) {
        if (channel_->bytes_queued() == 0) {
          break;
        }
        ctx_->ChargeCpu(ctx_->cost().SyscallCost());  // IOL_read on the pipe.
        ctx_->stats().syscalls++;
        pending_ = channel_->Pop(n - got > 65536 ? n - got : 65536);
      }
      size_t take = pending_.size() < n - got ? pending_.size() : n - got;
      iolite::Aggregate head = pending_.Range(0, take);
      head.CopyTo(dst + got);  // stdio buffer -> app.
      ctx_->ChargeCpu(ctx_->cost().CopyCost(take));
      ctx_->stats().bytes_copied += take;
      pending_.DropFront(take);
      got += take;
    }
    return got;
  }

 private:
  iolsim::SimContext* ctx_;
  PipeChannel* channel_;
  Aggregate pending_;
};

}  // namespace iolite

#endif  // SRC_IOLITE_STDIO_LITE_H_
