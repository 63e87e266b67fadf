#include "sweep/protocol.hpp"

#include <stdexcept>

#include "util/bytes.hpp"
#include "util/hash.hpp"

namespace h3dfact::sweep {

// --- framing ----------------------------------------------------------------

namespace {

bool valid_kind(std::uint8_t kind) {
  return kind >= static_cast<std::uint8_t>(FrameKind::kHello) &&
         kind <= static_cast<std::uint8_t>(FrameKind::kBatchResult);
}

// The shortest encodings, which bound list counts (ByteReader::count): a
// key/value pair is at least a u64 length prefix and 8 more bytes, a request
// 6 u64 + 1 u8, a reply 7 u64 + 4 u8.
constexpr std::size_t kMinPairBytes = 16;
constexpr std::size_t kMinRequestBytes = 6 * 8 + 1;
constexpr std::size_t kMinReplyBytes = 7 * 8 + 4;

}  // namespace

std::string encode_frame(FrameKind kind, std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    throw std::length_error("sweep frame payload " +
                            std::to_string(payload.size()) +
                            " exceeds kMaxFramePayload");
  }
  std::string out;
  out.reserve(9 + payload.size());
  out.push_back(static_cast<char>(kind));
  util::put_u64(out, payload.size());
  out.append(payload);
  return out;
}

void FrameParser::feed(const char* data, std::size_t n) {
  buf_.append(data, n);
}

std::optional<Frame> FrameParser::next() {
  if (buf_.size() < 9) return std::nullopt;
  const auto kind = static_cast<std::uint8_t>(buf_[0]);
  if (!valid_kind(kind)) {
    throw std::runtime_error("malformed sweep frame: unknown kind " +
                             std::to_string(kind));
  }
  const std::uint64_t payload_len = util::load_u64(buf_.data() + 1);
  if (payload_len > kMaxFramePayload) {
    throw std::runtime_error("malformed sweep frame: payload length " +
                             std::to_string(payload_len) + " exceeds limit");
  }
  if (buf_.size() < 9 + payload_len) return std::nullopt;
  Frame frame;
  frame.kind = static_cast<FrameKind>(kind);
  frame.payload.assign(buf_.data() + 9, static_cast<std::size_t>(payload_len));
  buf_.erase(0, 9 + static_cast<std::size_t>(payload_len));
  return frame;
}

// --- handshake payloads -----------------------------------------------------

std::string encode_hello(const HelloFrame& hello) {
  std::string out;
  util::put_u32(out, hello.magic);
  util::put_u32(out, hello.version);
  util::put_u32(out, hello.role);
  return out;
}

HelloFrame decode_hello(std::string_view payload) {
  util::ByteReader in(payload, "malformed sweep hello");
  HelloFrame hello;
  hello.magic = in.u32();
  hello.version = in.u32();
  hello.role = in.u32();
  in.expect_exhausted();
  return hello;
}

std::string encode_spec_init(const SpecInitFrame& init) {
  std::string out;
  util::put_str(out, init.grid.name);
  util::put_u64(out, init.grid.params.size());
  for (const auto& [k, v] : init.grid.params) {
    util::put_str(out, k);
    util::put_str(out, v);
  }
  util::put_u64(out, init.cell_threads);
  util::put_u64(out, init.cell_count);
  util::put_u64(out, init.fingerprint);
  return out;
}

SpecInitFrame decode_spec_init(std::string_view payload) {
  util::ByteReader in(payload, "malformed sweep spec-init");
  SpecInitFrame init;
  init.grid.name = in.str();
  const std::size_t nparams = in.count(kMinPairBytes);
  for (std::size_t i = 0; i < nparams; ++i) {
    std::string k = in.str();
    init.grid.params[std::move(k)] = in.str();
  }
  init.cell_threads = in.u64();
  init.cell_count = in.u64();
  init.fingerprint = in.u64();
  in.expect_exhausted();
  return init;
}

std::string encode_spec_ready(const SpecReadyFrame& ready) {
  std::string out;
  util::put_u64(out, ready.cell_count);
  util::put_u64(out, ready.fingerprint);
  return out;
}

SpecReadyFrame decode_spec_ready(std::string_view payload) {
  util::ByteReader in(payload, "malformed sweep spec-ready");
  SpecReadyFrame ready;
  ready.cell_count = in.u64();
  ready.fingerprint = in.u64();
  in.expect_exhausted();
  return ready;
}

std::string encode_task(const TaskFrame& task) {
  std::string out;
  util::put_u64(out, task.cell);
  util::put_u64(out, task.begin);
  util::put_u64(out, task.end);
  return out;
}

TaskFrame decode_task(std::string_view payload) {
  util::ByteReader in(payload, "malformed sweep task");
  TaskFrame task;
  task.cell = in.u64();
  task.begin = in.u64();
  task.end = in.u64();
  in.expect_exhausted();
  return task;
}

// --- serving payloads -------------------------------------------------------

std::string encode_serve_init(const ServeInitFrame& init) {
  std::string out;
  util::put_u64(out, init.dim);
  util::put_u64(out, init.factors);
  util::put_u64(out, init.codebook_size);
  util::put_u64(out, init.max_iterations);
  util::put_u64(out, init.seed);
  util::put_str(out, init.artifact_path);
  util::put_u64(out, init.artifact_fingerprint);
  return out;
}

ServeInitFrame decode_serve_init(std::string_view payload) {
  util::ByteReader in(payload, "malformed serve-init");
  ServeInitFrame init;
  init.dim = in.u64();
  init.factors = in.u64();
  init.codebook_size = in.u64();
  init.max_iterations = in.u64();
  init.seed = in.u64();
  init.artifact_path = in.str();
  init.artifact_fingerprint = in.u64();
  in.expect_exhausted();
  return init;
}

std::string encode_serve_ready(const ServeReadyFrame& ready) {
  std::string out;
  util::put_u64(out, ready.fingerprint);
  return out;
}

ServeReadyFrame decode_serve_ready(std::string_view payload) {
  util::ByteReader in(payload, "malformed serve-ready");
  ServeReadyFrame ready;
  ready.fingerprint = in.u64();
  in.expect_exhausted();
  return ready;
}

namespace {

void append_factor_request(std::string& out, const FactorRequestFrame& req) {
  util::put_u64(out, req.id);
  util::put_u64(out, req.deadline_us);
  util::put_u8(out, static_cast<std::uint8_t>(req.encoding));
  util::put_u64(out, req.trial_seed);
  util::put_f64(out, req.flip_prob);
  util::put_u64(out, req.solve_seed);
  util::put_u64(out, req.query_words.size());
  util::put_words(out, req.query_words.data(), req.query_words.size());
}

FactorRequestFrame read_factor_request(util::ByteReader& in) {
  FactorRequestFrame req;
  req.id = in.u64();
  req.deadline_us = in.u64();
  const std::uint8_t enc = in.u8();
  if (enc > static_cast<std::uint8_t>(QueryEncoding::kExplicit)) {
    throw std::runtime_error("malformed factor request: unknown encoding " +
                             std::to_string(enc));
  }
  req.encoding = static_cast<QueryEncoding>(enc);
  req.trial_seed = in.u64();
  req.flip_prob = in.f64();
  req.solve_seed = in.u64();
  req.query_words = in.words(in.count(8));
  return req;
}

void append_factor_reply(std::string& out, const FactorReplyFrame& reply) {
  util::put_u64(out, reply.id);
  util::put_u8(out, static_cast<std::uint8_t>(reply.status));
  util::put_str(out, reply.error);
  util::put_u8(out, reply.solved);
  util::put_u8(out, reply.correct_known);
  util::put_u8(out, reply.correct);
  util::put_u64(out, reply.decoded.size());
  util::put_words(out, reply.decoded.data(), reply.decoded.size());
  util::put_u64(out, reply.iterations);
  util::put_u64(out, reply.queue_us);
  util::put_u64(out, reply.solve_us);
  util::put_u64(out, reply.batch);
}

FactorReplyFrame read_factor_reply(util::ByteReader& in) {
  FactorReplyFrame reply;
  reply.id = in.u64();
  const std::uint8_t status = in.u8();
  if (status > static_cast<std::uint8_t>(ReplyStatus::kFailed)) {
    throw std::runtime_error("malformed factor reply: unknown status " +
                             std::to_string(status));
  }
  reply.status = static_cast<ReplyStatus>(status);
  reply.error = in.str();
  reply.solved = in.u8();
  reply.correct_known = in.u8();
  reply.correct = in.u8();
  reply.decoded = in.words(in.count(8));
  reply.iterations = in.u64();
  reply.queue_us = in.u64();
  reply.solve_us = in.u64();
  reply.batch = in.u64();
  return reply;
}

}  // namespace

std::string encode_factor_request(const FactorRequestFrame& req) {
  std::string out;
  append_factor_request(out, req);
  return out;
}

FactorRequestFrame decode_factor_request(std::string_view payload) {
  util::ByteReader in(payload, "malformed factor request");
  FactorRequestFrame req = read_factor_request(in);
  in.expect_exhausted();
  return req;
}

std::string encode_factor_reply(const FactorReplyFrame& reply) {
  std::string out;
  append_factor_reply(out, reply);
  return out;
}

FactorReplyFrame decode_factor_reply(std::string_view payload) {
  util::ByteReader in(payload, "malformed factor reply");
  FactorReplyFrame reply = read_factor_reply(in);
  in.expect_exhausted();
  return reply;
}

std::string encode_batch_task(const BatchTaskFrame& task) {
  std::string out;
  util::put_u64(out, task.batch_id);
  util::put_u64(out, task.requests.size());
  for (const FactorRequestFrame& req : task.requests) {
    append_factor_request(out, req);
  }
  return out;
}

BatchTaskFrame decode_batch_task(std::string_view payload) {
  util::ByteReader in(payload, "malformed batch task");
  BatchTaskFrame task;
  task.batch_id = in.u64();
  const std::size_t n = in.count(kMinRequestBytes);
  task.requests.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    task.requests.push_back(read_factor_request(in));
  }
  in.expect_exhausted();
  return task;
}

std::string encode_batch_result(const BatchResultFrame& result) {
  std::string out;
  util::put_u64(out, result.batch_id);
  util::put_u64(out, result.replies.size());
  for (const FactorReplyFrame& reply : result.replies) {
    append_factor_reply(out, reply);
  }
  return out;
}

BatchResultFrame decode_batch_result(std::string_view payload) {
  util::ByteReader in(payload, "malformed batch result");
  BatchResultFrame result;
  result.batch_id = in.u64();
  const std::size_t n = in.count(kMinReplyBytes);
  result.replies.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.replies.push_back(read_factor_reply(in));
  }
  in.expect_exhausted();
  return result;
}

// --- result payload ---------------------------------------------------------

std::string encode_result(std::size_t block_begin, const CellResult& r) {
  std::string out;
  util::put_u64(out, block_begin);
  util::put_u64(out, r.index);
  util::put_u64(out, r.coordinates.size());
  for (const auto& [axis, label] : r.coordinates) {
    util::put_str(out, axis);
    util::put_str(out, label);
  }
  util::put_u64(out, r.params.size());
  for (const auto& [k, v] : r.params) {
    util::put_str(out, k);
    util::put_f64(out, v);
  }
  util::put_u64(out, r.meta.size());
  for (const auto& [k, v] : r.meta) {
    util::put_str(out, k);
    util::put_str(out, v);
  }
  util::put_u64(out, r.dim);
  util::put_u64(out, r.factors);
  util::put_u64(out, r.codebook_size);
  util::put_u64(out, r.trials);
  util::put_u64(out, r.max_iterations);
  util::put_f64(out, r.query_flip_prob);
  util::put_u64(out, r.seed);

  const resonator::TrialStats& s = r.stats;
  util::put_u64(out, s.trials);
  util::put_u64(out, s.solved);
  util::put_u64(out, s.correct);
  util::put_u64(out, s.cycles);
  util::put_u64(out, s.iteration_samples.size());
  for (double x : s.iteration_samples) util::put_f64(out, x);
  util::put_u64(out, s.correct_by_iteration.size());
  for (std::size_t x : s.correct_by_iteration) util::put_u64(out, x);
  util::put_u64(out, s.correct_raw_by_iteration.size());
  for (std::size_t x : s.correct_raw_by_iteration) util::put_u64(out, x);
  util::put_f64(out, r.wall_seconds);
  return out;
}

std::pair<std::size_t, CellResult> decode_result(std::string_view payload) {
  util::ByteReader in(payload, "malformed sweep result");
  const std::size_t block_begin = static_cast<std::size_t>(in.u64());
  CellResult r;
  r.index = static_cast<std::size_t>(in.u64());
  const std::size_t ncoords = in.count(kMinPairBytes);
  r.coordinates.reserve(ncoords);
  for (std::size_t i = 0; i < ncoords; ++i) {
    std::string axis = in.str();
    std::string label = in.str();
    r.coordinates.emplace_back(std::move(axis), std::move(label));
  }
  const std::size_t nparams = in.count(kMinPairBytes);
  for (std::size_t i = 0; i < nparams; ++i) {
    std::string k = in.str();
    r.params[std::move(k)] = in.f64();
  }
  const std::size_t nmeta = in.count(kMinPairBytes);
  for (std::size_t i = 0; i < nmeta; ++i) {
    std::string k = in.str();
    r.meta[std::move(k)] = in.str();
  }
  r.dim = static_cast<std::size_t>(in.u64());
  r.factors = static_cast<std::size_t>(in.u64());
  r.codebook_size = static_cast<std::size_t>(in.u64());
  r.trials = static_cast<std::size_t>(in.u64());
  r.max_iterations = static_cast<std::size_t>(in.u64());
  r.query_flip_prob = in.f64();
  r.seed = in.u64();

  resonator::TrialStats& s = r.stats;
  s.trials = static_cast<std::size_t>(in.u64());
  s.solved = static_cast<std::size_t>(in.u64());
  s.correct = static_cast<std::size_t>(in.u64());
  s.cycles = static_cast<std::size_t>(in.u64());
  const std::size_t nsamples = in.count(8);
  s.iteration_samples.reserve(nsamples);
  for (std::size_t i = 0; i < nsamples; ++i) {
    s.iteration_samples.push_back(in.f64());
  }
  // Rebuild the Welford accumulator by sequential adds over the sample
  // order, matching exactly how the worker built its own copy.
  for (double x : s.iteration_samples) s.iterations_solved.add(x);
  const std::vector<std::uint64_t> hist = in.words(in.count(8));
  s.correct_by_iteration.assign(hist.begin(), hist.end());
  const std::vector<std::uint64_t> raw = in.words(in.count(8));
  s.correct_raw_by_iteration.assign(raw.begin(), raw.end());
  r.wall_seconds = in.f64();
  in.expect_exhausted();
  return {block_begin, std::move(r)};
}

// --- fingerprint ------------------------------------------------------------

std::uint64_t spec_fingerprint(const SweepSpec& spec) {
  // FNV-1a over the protocol encoding of every cell's observable fields:
  // any divergence in config, parameters, coordinates or metadata between
  // two processes' resolutions of "the same" grid changes the digest.
  util::Fnv1a h;
  std::string enc;
  util::put_str(enc, spec.name);
  const std::size_t total = spec.cell_count();
  util::put_u64(enc, total);
  h.bytes(enc.data(), enc.size());
  for (std::size_t i = 0; i < total; ++i) {
    const Cell cell = spec.cell(i);
    enc.clear();
    util::put_u64(enc, cell.index);
    util::put_u64(enc, cell.config.dim);
    util::put_u64(enc, cell.config.factors);
    util::put_u64(enc, cell.config.codebook_size);
    util::put_u64(enc, cell.config.trials);
    util::put_u64(enc, cell.config.max_iterations);
    util::put_f64(enc, cell.config.query_flip_prob);
    util::put_u64(enc, cell.config.seed);
    util::put_u64(enc, static_cast<std::uint64_t>(cell.config.execution));
    util::put_u64(enc, cell.config.record_correct_trace ? 1 : 0);
    util::put_u64(enc, cell.coordinates.size());
    for (const auto& [axis, label] : cell.coordinates) {
      util::put_str(enc, axis);
      util::put_str(enc, label);
    }
    util::put_u64(enc, cell.params.size());
    for (const auto& [k, v] : cell.params) {
      util::put_str(enc, k);
      util::put_f64(enc, v);
    }
    util::put_u64(enc, cell.meta.size());
    for (const auto& [k, v] : cell.meta) {
      util::put_str(enc, k);
      util::put_str(enc, v);
    }
    h.bytes(enc.data(), enc.size());
  }
  return h.digest();
}

}  // namespace h3dfact::sweep
