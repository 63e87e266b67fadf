#include "serve/serving.hpp"

#include <chrono>
#include <deque>
#include <memory>
#include <stdexcept>
#include <utility>

#include "sweep/transport.hpp"

namespace h3dfact::serve {

using sweep::Frame;
using sweep::FrameKind;
using sweep::WorkerChannel;

struct ServeClient::Impl {
  std::unique_ptr<WorkerChannel> ch;
  std::deque<sweep::FactorReplyFrame> buffered;
  bool drain_acked = false;

  /// Every frame the coordinator sends lands here: replies queue in arrival
  /// order, a Drain ack is remembered, and an Error frame throws.
  void handle(const Frame& frame) {
    switch (frame.kind) {
      case FrameKind::kFactorReply:
        buffered.push_back(sweep::decode_factor_reply(frame.payload));
        break;
      case FrameKind::kDrain:
        drain_acked = true;
        break;
      case FrameKind::kError:
        throw std::runtime_error("serve client: coordinator error: " +
                                 frame.payload);
      default:
        break;
    }
  }

  /// Handle frames until `done()` holds; false if the coordinator hung up
  /// first. Throws on timeout.
  template <class Done>
  bool await(int timeout_ms, Done done) {
    while (!done()) {
      std::optional<Frame> frame = ch->await_frame(timeout_ms);
      if (!frame) return false;
      handle(*frame);
    }
    return true;
  }

  sweep::FactorReplyFrame pop() {
    sweep::FactorReplyFrame reply = std::move(buffered.front());
    buffered.pop_front();
    return reply;
  }
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
  if (!impl_->await(timeout_ms, [&] { return !impl_->buffered.empty(); })) {
    return std::nullopt;
  }
  return impl_->pop();
}

std::optional<sweep::FactorReplyFrame> ServeClient::poll_reply(
    int timeout_ms, bool* disconnected) {
  if (disconnected != nullptr) *disconnected = false;
  using Clock = std::chrono::steady_clock;
  const Clock::time_point until =
      Clock::now() + std::chrono::milliseconds(timeout_ms < 0 ? 0 : timeout_ms);
  WorkerChannel* const channels[] = {impl_->ch.get()};
  bool closed = false;
  for (;;) {
    // Frames an earlier await_frame left parsed come first.
    while (impl_->buffered.empty()) {
      std::optional<Frame> frame = impl_->ch->next_frame();
      if (!frame) break;
      impl_->handle(*frame);
    }
    if (!impl_->buffered.empty()) return impl_->pop();
    if (closed) {
      if (disconnected != nullptr) *disconnected = true;
      return std::nullopt;
    }
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        until - Clock::now()).count();
    const bool woke = sweep::poll_channels(
        channels, left > 0 ? static_cast<int>(left) : 0,
        [&](std::size_t, Frame frame) { impl_->handle(frame); },
        [&](std::size_t, const std::string& why) {
          if (!why.empty()) throw std::runtime_error("serve client: " + why);
          closed = true;
        });
    if (!woke && Clock::now() >= until) return std::nullopt;
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
  // Replies still in flight when we drained stay buffered for a caller that
  // still wants to await_reply() them.
  return impl_->ch->send(FrameKind::kDrain, "") &&
         impl_->await(timeout_ms, [&] { return impl_->drain_acked; });
}

}  // namespace h3dfact::serve
