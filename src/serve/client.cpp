#include "serve/serving.hpp"

#include <chrono>
#include <deque>
#include <memory>
#include <stdexcept>
#include <utility>

#include <poll.h>

#include "sweep/transport.hpp"

namespace h3dfact::serve {

using sweep::Frame;
using sweep::FrameKind;
using sweep::WorkerChannel;

struct ServeClient::Impl {
  std::unique_ptr<WorkerChannel> ch;
  std::deque<sweep::FactorReplyFrame> buffered;
  bool drain_acked = false;
};

ServeClient::ServeClient(const std::string& addr, int retries, int retry_ms)
    : impl_(std::make_unique<Impl>()) {
  const int fd = sweep::tcp_connect(addr, retries, retry_ms);
  impl_->ch = std::make_unique<WorkerChannel>(fd, fd, -1, "serve:" + addr);
  sweep::dial_handshake(*impl_->ch, sweep::PeerRole::kServeClient);
}

ServeClient::~ServeClient() = default;

bool ServeClient::send(const sweep::FactorRequestFrame& req) {
  return impl_->ch->send(FrameKind::kFactorRequest,
                         sweep::encode_factor_request(req));
}

std::optional<sweep::FactorReplyFrame> ServeClient::await_reply(
    int timeout_ms) {
  if (!impl_->buffered.empty()) {
    sweep::FactorReplyFrame reply = std::move(impl_->buffered.front());
    impl_->buffered.pop_front();
    return reply;
  }
  for (;;) {
    std::optional<Frame> frame = impl_->ch->await_frame(timeout_ms);
    if (!frame) return std::nullopt;
    switch (frame->kind) {
      case FrameKind::kFactorReply:
        return sweep::decode_factor_reply(frame->payload);
      case FrameKind::kDrain:
        impl_->drain_acked = true;  // stray ack; remember it for drain()
        break;
      case FrameKind::kError:
        throw std::runtime_error("serve client: coordinator error: " +
                                 frame->payload);
      default:
        break;
    }
  }
}

std::optional<sweep::FactorReplyFrame> ServeClient::poll_reply(
    int timeout_ms, bool* disconnected) {
  if (disconnected != nullptr) *disconnected = false;
  using Clock = std::chrono::steady_clock;
  const Clock::time_point until =
      Clock::now() + std::chrono::milliseconds(timeout_ms < 0 ? 0 : timeout_ms);
  for (;;) {
    if (!impl_->buffered.empty()) {
      sweep::FactorReplyFrame reply = std::move(impl_->buffered.front());
      impl_->buffered.pop_front();
      return reply;
    }
    while (std::optional<Frame> frame = impl_->ch->next_frame()) {
      switch (frame->kind) {
        case FrameKind::kFactorReply:
          return sweep::decode_factor_reply(frame->payload);
        case FrameKind::kDrain:
          impl_->drain_acked = true;
          break;
        case FrameKind::kError:
          throw std::runtime_error("serve client: coordinator error: " +
                                   frame->payload);
        default:
          break;
      }
    }
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        until - Clock::now()).count();
    struct pollfd pfd{impl_->ch->read_fd(), POLLIN, 0};
    const int rc = ::poll(&pfd, 1, left > 0 ? static_cast<int>(left) : 0);
    if (rc > 0) {
      if (impl_->ch->pump() <= 0) {  // EOF or read error
        if (disconnected != nullptr) *disconnected = true;
        return std::nullopt;
      }
      continue;
    }
    if (Clock::now() >= until) return std::nullopt;
  }
}

sweep::FactorReplyFrame ServeClient::call(const sweep::FactorRequestFrame& req,
                                          int timeout_ms) {
  if (!send(req)) {
    throw std::runtime_error("serve client: coordinator is gone");
  }
  std::optional<sweep::FactorReplyFrame> reply = await_reply(timeout_ms);
  if (!reply) {
    throw std::runtime_error("serve client: disconnected before reply");
  }
  return *std::move(reply);
}

bool ServeClient::drain(int timeout_ms) {
  if (!impl_->ch->send(FrameKind::kDrain, "")) return false;
  while (!impl_->drain_acked) {
    std::optional<Frame> frame = impl_->ch->await_frame(timeout_ms);
    if (!frame) return false;
    switch (frame->kind) {
      case FrameKind::kDrain:
        impl_->drain_acked = true;
        break;
      case FrameKind::kFactorReply:
        // Replies for requests still in flight when we drained; keep them
        // available for a caller that still wants to await_reply() them.
        impl_->buffered.push_back(sweep::decode_factor_reply(frame->payload));
        break;
      case FrameKind::kError:
        throw std::runtime_error("serve client: coordinator error: " +
                                 frame->payload);
      default:
        break;
    }
  }
  return true;
}

}  // namespace h3dfact::serve
