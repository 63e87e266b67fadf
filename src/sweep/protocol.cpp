#include "sweep/protocol.hpp"

#include <concepts>
#include <map>
#include <stdexcept>
#include <type_traits>

#include "util/bytes.hpp"
#include "util/hash.hpp"

namespace h3dfact::sweep {

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
  util::put_u64(out, payload.size());
  out.append(payload);
  return out;
}

void FrameParser::feed(const char* data, std::size_t n) {
  buf_.erase(0, pos_);
  pos_ = 0;
  buf_.append(data, n);
}

std::optional<Frame> FrameParser::next() {
  const char* head = buf_.data() + pos_;
  const std::size_t avail = buf_.size() - pos_;
  if (avail < 9) return std::nullopt;
  const auto kind = static_cast<std::uint8_t>(head[0]);
  if (!valid_kind(kind)) {
    throw std::runtime_error("malformed sweep frame: unknown kind " +
                             std::to_string(kind));
  }
  const std::uint64_t payload_len = util::load_u64(head + 1);
  if (payload_len > kMaxFramePayload) {
    throw std::runtime_error("malformed sweep frame: payload length " +
                             std::to_string(payload_len) + " exceeds limit");
  }
  if (avail < 9 + payload_len) return std::nullopt;
  Frame frame;
  frame.kind = static_cast<FrameKind>(kind);
  frame.payload.assign(head + 9, static_cast<std::size_t>(payload_len));
  pos_ += 9 + static_cast<std::size_t>(payload_len);
  return frame;
}

// --- payload layouts --------------------------------------------------------
// Each payload's fields, listed once in wire order. Writer walks a list to
// encode it and Reader walks the same list to decode it. An unsigned integer
// goes out at its own width (size_t as a u64), a double as its IEEE-754
// bits, an enum as a u8, and a string, list or map behind a u64 count.

namespace {

template <class P, class T>
concept Like = std::same_as<std::remove_const_t<P>, T>;

template <class IO, Like<HelloFrame> P>
void fields(IO& io, P& p) { io(p.magic, p.version, p.role); }

template <class IO, Like<SpecInitFrame> P>
void fields(IO& io, P& p) {
  io(p.grid.name, p.grid.params, p.cell_threads, p.cell_count, p.fingerprint);
}

template <class IO, Like<SpecReadyFrame> P>
void fields(IO& io, P& p) { io(p.cell_count, p.fingerprint); }

template <class IO, Like<TaskFrame> P>
void fields(IO& io, P& p) { io(p.cell, p.begin, p.end); }

template <class IO, Like<CellResult> P>
void fields(IO& io, P& r) {
  io(r.index, r.coordinates, r.params, r.meta, r.dim, r.factors,
     r.codebook_size, r.trials, r.max_iterations, r.query_flip_prob, r.seed,
     r.stats.trials, r.stats.solved, r.stats.correct, r.stats.cycles,
     r.stats.iteration_samples, r.stats.correct_by_iteration,
     r.stats.correct_raw_by_iteration, r.wall_seconds);
}

template <class IO, Like<ServeInitFrame> P>
void fields(IO& io, P& p) {
  io(p.dim, p.factors, p.codebook_size, p.max_iterations, p.seed,
     p.artifact_path, p.artifact_fingerprint);
}

template <class IO, Like<ServeReadyFrame> P>
void fields(IO& io, P& p) { io(p.fingerprint); }

template <class IO, Like<FactorRequestFrame> P>
void fields(IO& io, P& p) {
  io(p.id, p.deadline_us, p.encoding, p.trial_seed, p.flip_prob, p.solve_seed,
     p.query_words);
}

template <class IO, Like<FactorReplyFrame> P>
void fields(IO& io, P& p) {
  io(p.id, p.status, p.error, p.solved, p.correct_known, p.correct, p.decoded,
     p.iterations, p.queue_us, p.solve_us, p.batch);
}

template <class IO, Like<BatchTaskFrame> P>
void fields(IO& io, P& p) { io(p.batch_id, p.requests); }

template <class IO, Like<BatchResultFrame> P>
void fields(IO& io, P& p) { io(p.batch_id, p.replies); }

/// Appends fields to a string with util::put_*.
class Writer {
 public:
  explicit Writer(std::string& out) : out_(out) {}
  template <class... T>
  void operator()(const T&... fields) { (put(fields), ...); }

 private:
  template <std::unsigned_integral T>
  void put(T v) {
    if constexpr (sizeof(T) == 1) {
      util::put_u8(out_, v);
    } else if constexpr (sizeof(T) == 4) {
      util::put_u32(out_, v);
    } else {
      util::put_u64(out_, v);
    }
  }
  void put(QueryEncoding e) { put(static_cast<std::uint8_t>(e)); }
  void put(ReplyStatus s) { put(static_cast<std::uint8_t>(s)); }
  void put(double v) { util::put_f64(out_, v); }
  void put(const std::string& s) { util::put_str(out_, s); }
  template <class A, class B>
  void put(const std::pair<A, B>& kv) { (*this)(kv.first, kv.second); }
  template <class T>
  void put(const std::vector<T>& list) { put_list(list); }
  template <class K, class V>
  void put(const std::map<K, V>& map) { put_list(map); }
  template <class P>
    requires std::is_class_v<P>
  void put(const P& payload) { fields(*this, payload); }
  template <class List>
  void put_list(const List& list) {
    put(static_cast<std::uint64_t>(list.size()));
    for (const auto& x : list) put(x);
  }

  std::string& out_;
};

/// The shortest encoding of a T, a default T's (empty strings and lists):
/// it bounds the count of a list of T. Computed once per type.
template <class T>
std::size_t min_bytes() {
  static const std::size_t n = [] {
    std::string out;
    Writer{out}(T{});
    return out.size();
  }();
  return n;
}

/// Reads fields back through util::ByteReader, which bounds every read.
class Reader {
 public:
  explicit Reader(util::ByteReader& in) : in_(in) {}
  template <class... T>
  void operator()(T&... fields) { (get(fields), ...); }

 private:
  template <std::unsigned_integral T>
  void get(T& v) {
    if constexpr (sizeof(T) == 1) {
      v = in_.u8();
    } else if constexpr (sizeof(T) == 4) {
      v = in_.u32();
    } else {
      v = static_cast<T>(in_.u64());
    }
  }
  void get(QueryEncoding& e) {
    e = range_checked(QueryEncoding::kExplicit,
                      "malformed factor request: unknown encoding ");
  }
  void get(ReplyStatus& s) {
    s = range_checked(ReplyStatus::kFailed,
                      "malformed factor reply: unknown status ");
  }
  void get(double& v) { v = in_.f64(); }
  void get(std::string& s) { s = in_.str(); }
  void get(std::vector<std::uint64_t>& w) { w = in_.words(in_.count(8)); }
  template <class A, class B>
  void get(std::pair<A, B>& kv) { (*this)(kv.first, kv.second); }
  template <class T>
  void get(std::vector<T>& list) {
    list.resize(in_.count(min_bytes<T>()));
    for (T& x : list) get(x);
  }
  template <class K, class V>
  void get(std::map<K, V>& map) {
    const std::size_t n = in_.count(min_bytes<std::pair<K, V>>());
    for (std::size_t i = 0; i < n; ++i) {
      std::pair<K, V> kv;
      get(kv);
      map[std::move(kv.first)] = std::move(kv.second);
    }
  }
  template <class P>
    requires std::is_class_v<P>
  void get(P& payload) { fields(*this, payload); }

  /// A u8 enum, refused past `last` with an error naming its frame.
  template <class E>
  E range_checked(E last, const char* error) {
    const std::uint8_t v = in_.u8();
    if (v > static_cast<std::uint8_t>(last)) {
      throw std::runtime_error(error + std::to_string(v));
    }
    return static_cast<E>(v);
  }

  util::ByteReader& in_;
};

template <class... P>
std::string encode(const P&... payload) {
  std::string out;
  Writer{out}(payload...);
  return out;
}

/// Decodes exactly one P from `bytes`; failures name `context`.
template <class P>
P decode(std::string_view bytes, const char* context) {
  util::ByteReader in(bytes, context);
  P payload{};
  Reader{in}(payload);
  in.expect_exhausted();
  return payload;
}

}  // namespace

std::string encode_hello(const HelloFrame& hello) { return encode(hello); }
HelloFrame decode_hello(std::string_view payload) {
  return decode<HelloFrame>(payload, "malformed sweep hello");
}

std::string encode_spec_init(const SpecInitFrame& init) { return encode(init); }
SpecInitFrame decode_spec_init(std::string_view payload) {
  return decode<SpecInitFrame>(payload, "malformed sweep spec-init");
}

std::string encode_spec_ready(const SpecReadyFrame& ready) {
  return encode(ready);
}
SpecReadyFrame decode_spec_ready(std::string_view payload) {
  return decode<SpecReadyFrame>(payload, "malformed sweep spec-ready");
}

std::string encode_task(const TaskFrame& task) { return encode(task); }
TaskFrame decode_task(std::string_view payload) {
  return decode<TaskFrame>(payload, "malformed sweep task");
}

std::string encode_result(std::size_t block_begin, const CellResult& r) {
  return encode(block_begin, r);
}
std::pair<std::size_t, CellResult> decode_result(std::string_view payload) {
  return decode<std::pair<std::size_t, CellResult>>(payload,
                                                     "malformed sweep result");
}

std::string encode_serve_init(const ServeInitFrame& init) {
  return encode(init);
}
ServeInitFrame decode_serve_init(std::string_view payload) {
  return decode<ServeInitFrame>(payload, "malformed serve-init");
}

std::string encode_serve_ready(const ServeReadyFrame& ready) {
  return encode(ready);
}
ServeReadyFrame decode_serve_ready(std::string_view payload) {
  return decode<ServeReadyFrame>(payload, "malformed serve-ready");
}

std::string encode_factor_request(const FactorRequestFrame& req) {
  return encode(req);
}
FactorRequestFrame decode_factor_request(std::string_view payload) {
  return decode<FactorRequestFrame>(payload, "malformed factor request");
}

std::string encode_factor_reply(const FactorReplyFrame& reply) {
  return encode(reply);
}
FactorReplyFrame decode_factor_reply(std::string_view payload) {
  return decode<FactorReplyFrame>(payload, "malformed factor reply");
}

std::string encode_batch_task(const BatchTaskFrame& task) {
  return encode(task);
}
BatchTaskFrame decode_batch_task(std::string_view payload) {
  return decode<BatchTaskFrame>(payload, "malformed batch task");
}

std::string encode_batch_result(const BatchResultFrame& result) {
  return encode(result);
}
BatchResultFrame decode_batch_result(std::string_view payload) {
  return decode<BatchResultFrame>(payload, "malformed batch result");
}

// --- fingerprint ------------------------------------------------------------

std::uint64_t spec_fingerprint(const SweepSpec& spec) {
  // FNV-1a over the protocol encoding of every cell's observable fields:
  // any divergence in config, parameters, coordinates or metadata between
  // two processes' resolutions of "the same" grid changes the digest.
  util::Fnv1a h;
  const std::size_t total = spec.cell_count();
  std::string enc = encode(spec.name, total);
  h.bytes(enc.data(), enc.size());
  for (std::size_t i = 0; i < total; ++i) {
    const Cell cell = spec.cell(i);
    const resonator::TrialConfig& c = cell.config;
    enc.clear();
    Writer{enc}(cell.index, c.dim, c.factors, c.codebook_size, c.trials,
                c.max_iterations, c.query_flip_prob, c.seed,
                std::uint64_t{c.record_correct_trace}, cell.coordinates,
                cell.params, cell.meta);
    h.bytes(enc.data(), enc.size());
  }
  return h.digest();
}

}  // namespace h3dfact::sweep
