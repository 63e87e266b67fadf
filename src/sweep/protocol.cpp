#include "sweep/protocol.hpp"

#include <cstring>
#include <stdexcept>

#include "util/hash.hpp"

namespace h3dfact::sweep {

// --- primitive codecs -------------------------------------------------------

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

void put_str(std::string& out, std::string_view s) {
  put_u64(out, s.size());
  out.append(s);
}

void WireReader::need(std::size_t n) const {
  if (pos + n > len) {
    throw std::runtime_error("truncated sweep protocol message");
  }
}

std::uint8_t WireReader::u8() {
  need(1);
  return static_cast<std::uint8_t>(data[pos++]);
}

std::uint64_t WireReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(
             data[pos + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  pos += 8;
  return v;
}

std::uint32_t WireReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(
             data[pos + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  pos += 4;
  return v;
}

double WireReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string WireReader::str() {
  const std::uint64_t n = u64();
  if (n > kMaxFramePayload) {
    throw std::runtime_error("malformed sweep protocol string length");
  }
  need(static_cast<std::size_t>(n));
  std::string s(data + pos, static_cast<std::size_t>(n));
  pos += static_cast<std::size_t>(n);
  return s;
}

// --- framing ----------------------------------------------------------------

namespace {

bool valid_kind(std::uint8_t kind) {
  return kind >= static_cast<std::uint8_t>(FrameKind::kHello) &&
         kind <= static_cast<std::uint8_t>(FrameKind::kBatchResult);
}

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
  put_u64(out, payload.size());
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
  WireReader header{std::string_view(buf_.data() + 1, 8)};
  const std::uint64_t payload_len = header.u64();
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
  put_u32(out, hello.magic);
  put_u32(out, hello.version);
  put_u32(out, hello.role);
  return out;
}

HelloFrame decode_hello(std::string_view payload) {
  WireReader in{payload};
  HelloFrame hello;
  hello.magic = in.u32();
  hello.version = in.u32();
  hello.role = in.u32();
  if (!in.exhausted()) {
    throw std::runtime_error("malformed sweep hello: trailing bytes");
  }
  return hello;
}

std::string encode_spec_init(const SpecInitFrame& init) {
  std::string out;
  put_str(out, init.grid.name);
  put_u64(out, init.grid.params.size());
  for (const auto& [k, v] : init.grid.params) {
    put_str(out, k);
    put_str(out, v);
  }
  put_u64(out, init.cell_threads);
  put_u64(out, init.cell_count);
  put_u64(out, init.fingerprint);
  put_str(out, init.artifact_path);
  put_u64(out, init.artifact_fingerprint);
  return out;
}

SpecInitFrame decode_spec_init(std::string_view payload) {
  WireReader in{payload};
  SpecInitFrame init;
  init.grid.name = in.str();
  const std::uint64_t nparams = in.u64();
  for (std::uint64_t i = 0; i < nparams; ++i) {
    std::string k = in.str();
    init.grid.params[std::move(k)] = in.str();
  }
  init.cell_threads = in.u64();
  init.cell_count = in.u64();
  init.fingerprint = in.u64();
  init.artifact_path = in.str();
  init.artifact_fingerprint = in.u64();
  if (!in.exhausted()) {
    throw std::runtime_error("malformed sweep spec-init: trailing bytes");
  }
  return init;
}

std::string encode_spec_ready(const SpecReadyFrame& ready) {
  std::string out;
  put_u64(out, ready.cell_count);
  put_u64(out, ready.fingerprint);
  return out;
}

SpecReadyFrame decode_spec_ready(std::string_view payload) {
  WireReader in{payload};
  SpecReadyFrame ready;
  ready.cell_count = in.u64();
  ready.fingerprint = in.u64();
  if (!in.exhausted()) {
    throw std::runtime_error("malformed sweep spec-ready: trailing bytes");
  }
  return ready;
}

std::string encode_task(const TaskFrame& task) {
  std::string out;
  put_u64(out, task.cell);
  put_u64(out, task.begin);
  put_u64(out, task.end);
  return out;
}

TaskFrame decode_task(std::string_view payload) {
  WireReader in{payload};
  TaskFrame task;
  task.cell = in.u64();
  task.begin = in.u64();
  task.end = in.u64();
  if (!in.exhausted()) {
    throw std::runtime_error("malformed sweep task: trailing bytes");
  }
  return task;
}

// --- serving payloads -------------------------------------------------------

std::string encode_serve_init(const ServeInitFrame& init) {
  std::string out;
  put_u64(out, init.dim);
  put_u64(out, init.factors);
  put_u64(out, init.codebook_size);
  put_u64(out, init.max_iterations);
  put_u64(out, init.seed);
  put_str(out, init.artifact_path);
  put_u64(out, init.artifact_fingerprint);
  return out;
}

ServeInitFrame decode_serve_init(std::string_view payload) {
  WireReader in{payload};
  ServeInitFrame init;
  init.dim = in.u64();
  init.factors = in.u64();
  init.codebook_size = in.u64();
  init.max_iterations = in.u64();
  init.seed = in.u64();
  init.artifact_path = in.str();
  init.artifact_fingerprint = in.u64();
  if (!in.exhausted()) {
    throw std::runtime_error("malformed serve-init: trailing bytes");
  }
  return init;
}

std::string encode_serve_ready(const ServeReadyFrame& ready) {
  std::string out;
  put_u64(out, ready.fingerprint);
  return out;
}

ServeReadyFrame decode_serve_ready(std::string_view payload) {
  WireReader in{payload};
  ServeReadyFrame ready;
  ready.fingerprint = in.u64();
  if (!in.exhausted()) {
    throw std::runtime_error("malformed serve-ready: trailing bytes");
  }
  return ready;
}

namespace {

void append_factor_request(std::string& out, const FactorRequestFrame& req) {
  put_u64(out, req.id);
  put_u64(out, req.deadline_us);
  out.push_back(static_cast<char>(req.encoding));
  put_u64(out, req.trial_seed);
  put_f64(out, req.flip_prob);
  put_u64(out, req.solve_seed);
  put_u64(out, req.query_words.size());
  for (std::uint64_t w : req.query_words) put_u64(out, w);
}

FactorRequestFrame read_factor_request(WireReader& in) {
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
  const std::uint64_t nwords = in.u64();
  if (nwords > kMaxFramePayload / 8) {
    throw std::runtime_error("malformed factor request: query word count");
  }
  req.query_words.reserve(static_cast<std::size_t>(nwords));
  for (std::uint64_t i = 0; i < nwords; ++i) req.query_words.push_back(in.u64());
  return req;
}

void append_factor_reply(std::string& out, const FactorReplyFrame& reply) {
  put_u64(out, reply.id);
  out.push_back(static_cast<char>(reply.status));
  put_str(out, reply.error);
  out.push_back(static_cast<char>(reply.solved));
  out.push_back(static_cast<char>(reply.correct_known));
  out.push_back(static_cast<char>(reply.correct));
  put_u64(out, reply.decoded.size());
  for (std::uint64_t d : reply.decoded) put_u64(out, d);
  put_u64(out, reply.iterations);
  put_u64(out, reply.queue_us);
  put_u64(out, reply.solve_us);
  put_u64(out, reply.batch);
}

FactorReplyFrame read_factor_reply(WireReader& in) {
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
  const std::uint64_t nfactors = in.u64();
  if (nfactors > kMaxFramePayload / 8) {
    throw std::runtime_error("malformed factor reply: decoded count");
  }
  reply.decoded.reserve(static_cast<std::size_t>(nfactors));
  for (std::uint64_t i = 0; i < nfactors; ++i) reply.decoded.push_back(in.u64());
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
  WireReader in{payload};
  FactorRequestFrame req = read_factor_request(in);
  if (!in.exhausted()) {
    throw std::runtime_error("malformed factor request: trailing bytes");
  }
  return req;
}

std::string encode_factor_reply(const FactorReplyFrame& reply) {
  std::string out;
  append_factor_reply(out, reply);
  return out;
}

FactorReplyFrame decode_factor_reply(std::string_view payload) {
  WireReader in{payload};
  FactorReplyFrame reply = read_factor_reply(in);
  if (!in.exhausted()) {
    throw std::runtime_error("malformed factor reply: trailing bytes");
  }
  return reply;
}

std::string encode_batch_task(const BatchTaskFrame& task) {
  std::string out;
  put_u64(out, task.batch_id);
  put_u64(out, task.requests.size());
  for (const FactorRequestFrame& req : task.requests) {
    append_factor_request(out, req);
  }
  return out;
}

BatchTaskFrame decode_batch_task(std::string_view payload) {
  WireReader in{payload};
  BatchTaskFrame task;
  task.batch_id = in.u64();
  const std::uint64_t n = in.u64();
  if (n > kMaxFramePayload) {
    throw std::runtime_error("malformed batch task: request count");
  }
  task.requests.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    task.requests.push_back(read_factor_request(in));
  }
  if (!in.exhausted()) {
    throw std::runtime_error("malformed batch task: trailing bytes");
  }
  return task;
}

std::string encode_batch_result(const BatchResultFrame& result) {
  std::string out;
  put_u64(out, result.batch_id);
  put_u64(out, result.replies.size());
  for (const FactorReplyFrame& reply : result.replies) {
    append_factor_reply(out, reply);
  }
  return out;
}

BatchResultFrame decode_batch_result(std::string_view payload) {
  WireReader in{payload};
  BatchResultFrame result;
  result.batch_id = in.u64();
  const std::uint64_t n = in.u64();
  if (n > kMaxFramePayload) {
    throw std::runtime_error("malformed batch result: reply count");
  }
  result.replies.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    result.replies.push_back(read_factor_reply(in));
  }
  if (!in.exhausted()) {
    throw std::runtime_error("malformed batch result: trailing bytes");
  }
  return result;
}

// --- result payload ---------------------------------------------------------

std::string encode_result(std::size_t block_begin, const CellResult& r) {
  std::string out;
  put_u64(out, block_begin);
  put_u64(out, r.index);
  put_u64(out, r.coordinates.size());
  for (const auto& [axis, label] : r.coordinates) {
    put_str(out, axis);
    put_str(out, label);
  }
  put_u64(out, r.params.size());
  for (const auto& [k, v] : r.params) {
    put_str(out, k);
    put_f64(out, v);
  }
  put_u64(out, r.meta.size());
  for (const auto& [k, v] : r.meta) {
    put_str(out, k);
    put_str(out, v);
  }
  put_u64(out, r.dim);
  put_u64(out, r.factors);
  put_u64(out, r.codebook_size);
  put_u64(out, r.trials);
  put_u64(out, r.max_iterations);
  put_f64(out, r.query_flip_prob);
  put_u64(out, r.seed);

  const resonator::TrialStats& s = r.stats;
  put_u64(out, s.trials);
  put_u64(out, s.solved);
  put_u64(out, s.correct);
  put_u64(out, s.cycles);
  put_u64(out, s.iteration_samples.size());
  for (double x : s.iteration_samples) put_f64(out, x);
  put_u64(out, s.correct_by_iteration.size());
  for (std::size_t x : s.correct_by_iteration) put_u64(out, x);
  put_u64(out, s.correct_raw_by_iteration.size());
  for (std::size_t x : s.correct_raw_by_iteration) put_u64(out, x);
  put_f64(out, r.wall_seconds);
  return out;
}

std::pair<std::size_t, CellResult> decode_result(std::string_view payload) {
  WireReader in{payload};
  const std::size_t block_begin = static_cast<std::size_t>(in.u64());
  CellResult r;
  r.index = static_cast<std::size_t>(in.u64());
  const std::size_t ncoords = static_cast<std::size_t>(in.u64());
  r.coordinates.reserve(ncoords);
  for (std::size_t i = 0; i < ncoords; ++i) {
    std::string axis = in.str();
    std::string label = in.str();
    r.coordinates.emplace_back(std::move(axis), std::move(label));
  }
  const std::size_t nparams = static_cast<std::size_t>(in.u64());
  for (std::size_t i = 0; i < nparams; ++i) {
    std::string k = in.str();
    r.params[std::move(k)] = in.f64();
  }
  const std::size_t nmeta = static_cast<std::size_t>(in.u64());
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
  const std::size_t nsamples = static_cast<std::size_t>(in.u64());
  s.iteration_samples.reserve(nsamples);
  for (std::size_t i = 0; i < nsamples; ++i) {
    s.iteration_samples.push_back(in.f64());
  }
  // Rebuild the Welford accumulator by sequential adds over the sample
  // order, matching exactly how the worker built its own copy.
  for (double x : s.iteration_samples) s.iterations_solved.add(x);
  const std::size_t nhist = static_cast<std::size_t>(in.u64());
  s.correct_by_iteration.reserve(nhist);
  for (std::size_t i = 0; i < nhist; ++i) {
    s.correct_by_iteration.push_back(static_cast<std::size_t>(in.u64()));
  }
  const std::size_t nraw = static_cast<std::size_t>(in.u64());
  s.correct_raw_by_iteration.reserve(nraw);
  for (std::size_t i = 0; i < nraw; ++i) {
    s.correct_raw_by_iteration.push_back(static_cast<std::size_t>(in.u64()));
  }
  r.wall_seconds = in.f64();
  if (!in.exhausted()) {
    throw std::runtime_error("malformed sweep result: trailing bytes");
  }
  return {block_begin, std::move(r)};
}

// --- fingerprint ------------------------------------------------------------

std::uint64_t spec_fingerprint(const SweepSpec& spec) {
  // FNV-1a over the protocol encoding of every cell's observable fields:
  // any divergence in config, parameters, coordinates or metadata between
  // two processes' resolutions of "the same" grid changes the digest.
  util::Fnv1a h;
  std::string enc;
  put_str(enc, spec.name);
  const std::size_t total = spec.cell_count();
  put_u64(enc, total);
  h.bytes(enc.data(), enc.size());
  for (std::size_t i = 0; i < total; ++i) {
    const Cell cell = spec.cell(i);
    enc.clear();
    put_u64(enc, cell.index);
    put_u64(enc, cell.config.dim);
    put_u64(enc, cell.config.factors);
    put_u64(enc, cell.config.codebook_size);
    put_u64(enc, cell.config.trials);
    put_u64(enc, cell.config.max_iterations);
    put_f64(enc, cell.config.query_flip_prob);
    put_u64(enc, cell.config.seed);
    put_u64(enc, static_cast<std::uint64_t>(cell.config.execution));
    put_u64(enc, cell.config.record_correct_trace ? 1 : 0);
    put_u64(enc, cell.coordinates.size());
    for (const auto& [axis, label] : cell.coordinates) {
      put_str(enc, axis);
      put_str(enc, label);
    }
    put_u64(enc, cell.params.size());
    for (const auto& [k, v] : cell.params) {
      put_str(enc, k);
      put_f64(enc, v);
    }
    put_u64(enc, cell.meta.size());
    for (const auto& [k, v] : cell.meta) {
      put_str(enc, k);
      put_str(enc, v);
    }
    h.bytes(enc.data(), enc.size());
  }
  return h.digest();
}

}  // namespace h3dfact::sweep
