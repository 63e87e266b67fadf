#pragma once
// Wire protocol for sweep task distribution (the sweep subsystem's transport
// seam, part 1: framing and payload codecs).
//
// Every byte that crosses a worker boundary — subprocess stdin/stdout or
// TCP socket — is a length-framed little-endian record:
//
//     [u8 kind][u64 payload bytes][payload]
//
// The payload codecs below are flat field dumps (no self-description): both
// ends agree on the layout through kProtocolVersion, which the Hello/
// HelloAck handshake verifies before any task flows. Scalars go through the
// shared util/bytes.hpp codec. Every decode_* throws std::runtime_error
// naming the frame when a payload is truncated, has trailing bytes, or holds
// a count whose elements cannot fit in the bytes left. Remote workers rebuild
// the SweepSpec from a registered grid name + parameters (see registry.hpp)
// and prove they resolved the *same* grid by echoing spec_fingerprint().

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sweep/registry.hpp"
#include "sweep/runner.hpp"

namespace h3dfact::sweep {

/// Protocol magic ("H3SW"): the first field of every Hello frame. A peer
/// that opens with anything else is not a sweep worker.
inline constexpr std::uint32_t kProtocolMagic = 0x48335357u;

/// Wire-format version. Bumped whenever any frame layout changes; the
/// Hello/HelloAck handshake rejects a peer with a different version.
/// v2: Hello carries a peer role; request/reply serving frames (9-15).
/// v3: SpecInit/ServeInit carry an optional artifact reference (path +
///     fingerprint) so workers warm-start from a serialized codebook
///     artifact (src/io/) instead of rebuilding from seed.
/// v4: SpecInit drops the artifact reference again (sweep cells build their
///     codebooks per cell seed, so no coordinator ever set it).
inline constexpr std::uint32_t kProtocolVersion = 4;

/// Upper bound on a frame payload (1 GiB). Enforced symmetrically: a length
/// field beyond this is treated as a malformed stream on decode, and
/// encode_frame refuses to produce such a frame in the first place, so no
/// peer can emit a frame the other side must reject.
inline constexpr std::uint64_t kMaxFramePayload = 1ull << 30;

/// Frame discriminator (the leading byte of every frame).
enum class FrameKind : std::uint8_t {
  kHello = 1,     ///< worker -> coordinator: magic + version (first frame)
  kHelloAck = 2,  ///< coordinator -> worker: version accepted
  kSpecInit = 3,  ///< coordinator -> worker: grid name/params to rebuild
  kSpecReady = 4, ///< worker -> coordinator: spec rebuilt, fingerprint echo
  kTask = 5,      ///< coordinator -> worker: one cell trial-block assignment
  kResult = 6,    ///< worker -> coordinator: completed block statistics
  kError = 7,     ///< either direction: fatal failure, human-readable reason
  kShutdown = 8,  ///< coordinator -> worker: no more sweeps, exit cleanly
  // Serving frames (src/serve): request/reply factorization on the same
  // transports. Client-facing first, then coordinator <-> serve worker.
  kFactorRequest = 9,  ///< client -> coordinator: one factorization request
  kFactorReply = 10,   ///< coordinator -> client: per-request outcome
  kDrain = 11,         ///< client -> coordinator: stop admitting, finish,
                       ///< ack with an empty kDrain once idle
  kServeInit = 12,     ///< coordinator -> serve worker: problem-space config
  kServeReady = 13,    ///< serve worker -> coordinator: codebook fingerprint
  kBatchTask = 14,     ///< coordinator -> serve worker: batch of requests
  kBatchResult = 15,   ///< serve worker -> coordinator: batch of replies
};

/// What a connecting peer is, declared in its Hello frame so one listening
/// socket can host sweep workers, serve workers and serve clients.
enum class PeerRole : std::uint32_t {
  kSweepWorker = 0,  ///< executes sweep trial blocks (Task/Result)
  kServeClient = 1,  ///< submits FactorRequests, receives FactorReplies
  kServeWorker = 2,  ///< executes serve batches (BatchTask/BatchResult)
};

/// One decoded frame: the kind byte plus its raw payload.
struct Frame {
  FrameKind kind = FrameKind::kError;
  std::string payload;
};

// --- framing ----------------------------------------------------------------

/// Serialize one frame: kind byte, u64 payload length, payload. Throws
/// std::length_error if the payload exceeds kMaxFramePayload — the same cap
/// FrameParser enforces on decode.
std::string encode_frame(FrameKind kind, std::string_view payload);

/// Incremental frame decoder for a byte stream. Feed whatever the fd
/// produced; next() yields complete frames in order and std::nullopt when
/// more bytes are needed. A structurally invalid stream (unknown kind byte,
/// payload length above kMaxFramePayload) throws std::runtime_error — the
/// caller must treat the peer as broken and drop the connection.
class FrameParser {
 public:
  /// Append raw bytes from the stream.
  void feed(const char* data, std::size_t n);
  /// Pop the next complete frame, if one is buffered.
  std::optional<Frame> next();
  /// Bytes currently buffered (for tests and diagnostics).
  [[nodiscard]] std::size_t buffered() const { return buf_.size(); }

 private:
  std::string buf_;
};

// --- payload codecs ---------------------------------------------------------

/// Hello payload: protocol magic + version + peer role, sent by the peer as
/// its very first frame on any remote transport.
struct HelloFrame {
  std::uint32_t magic = kProtocolMagic;
  std::uint32_t version = kProtocolVersion;
  std::uint32_t role = static_cast<std::uint32_t>(PeerRole::kSweepWorker);
};

std::string encode_hello(const HelloFrame& hello);
HelloFrame decode_hello(std::string_view payload);

/// SpecInit payload: everything a remote worker needs to rebuild the grid —
/// the registered grid name, its string parameters, the worker-side thread
/// count per cell (0 = worker's own default), and the coordinator's
/// cell_count/fingerprint for cross-checking the rebuild.
struct SpecInitFrame {
  GridRef grid;
  std::uint64_t cell_threads = 0;
  std::uint64_t cell_count = 0;
  std::uint64_t fingerprint = 0;
};

std::string encode_spec_init(const SpecInitFrame& init);
SpecInitFrame decode_spec_init(std::string_view payload);

/// SpecReady payload: the worker's own resolution of the grid; must match
/// the SpecInit values or the coordinator aborts the sweep.
struct SpecReadyFrame {
  std::uint64_t cell_count = 0;
  std::uint64_t fingerprint = 0;
};

std::string encode_spec_ready(const SpecReadyFrame& ready);
SpecReadyFrame decode_spec_ready(std::string_view payload);

/// Task payload: one chunk-aligned trial-block assignment, [begin, end) of
/// cell `cell`'s trials (see resonator::kTrialBlockAlign).
struct TaskFrame {
  std::uint64_t cell = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

std::string encode_task(const TaskFrame& task);
TaskFrame decode_task(std::string_view payload);

/// Result payload: the block's begin offset (merge ordering key) plus the
/// full CellResult field dump, including every TrialStats sample so the
/// coordinator's merge is bit-identical to an unsharded run.
std::string encode_result(std::size_t block_begin, const CellResult& result);
std::pair<std::size_t, CellResult> decode_result(std::string_view payload);

// --- serving payloads (src/serve) -------------------------------------------

/// ServeInit payload: the problem space a serve worker must materialize —
/// codebooks are rebuilt deterministically from `seed`, exactly like
/// run_trials' `util::Rng master(seed); ProblemGenerator(dim, factors,
/// codebook_size, master)`, so every worker owns a bit-identical copy.
struct ServeInitFrame {
  std::uint64_t dim = 0;
  std::uint64_t factors = 0;
  std::uint64_t codebook_size = 0;
  std::uint64_t max_iterations = 0;
  std::uint64_t seed = 0;
  /// Optional warm-start artifact reference (v3): a serialized codebook
  /// artifact (src/io/) the worker loads-and-verifies instead of
  /// regenerating from `seed` (empty path = rebuild). The fingerprint pins
  /// the exact codebooks (0 = unpinned); a load or verification failure
  /// falls back to the seed rebuild, so v3 coordinators stay compatible
  /// with workers that cannot reach the artifact file.
  std::string artifact_path;
  std::uint64_t artifact_fingerprint = 0;

  bool operator==(const ServeInitFrame&) const = default;
};

std::string encode_serve_init(const ServeInitFrame& init);
ServeInitFrame decode_serve_init(std::string_view payload);

/// ServeReady payload: the worker's digest of its rebuilt codebooks; must
/// match the coordinator's or the worker is rejected (a worker with
/// different codebooks would silently return wrong factorizations).
struct ServeReadyFrame {
  std::uint64_t fingerprint = 0;
};

std::string encode_serve_ready(const ServeReadyFrame& ready);
ServeReadyFrame decode_serve_ready(std::string_view payload);

/// How a FactorRequest carries its problem instance.
enum class QueryEncoding : std::uint8_t {
  kSeeded = 0,    ///< sample from the shared generator via trial_seed
  kExplicit = 1,  ///< query transmitted verbatim as packed bipolar words
};

/// FactorRequest payload: one factorization to solve. `id` is client-chosen
/// and echoed verbatim in the reply; `deadline_us` is the client's latency
/// budget (0 = none) — the coordinator rejects requests it cannot start
/// before expiry. Seeded requests reproduce run_trials' per-trial stream:
/// `Rng r(trial_seed)`, sample (optionally noisy), then solve with the same
/// post-sampling generator. Explicit requests ship the packed query words
/// and a separate solver seed.
struct FactorRequestFrame {
  std::uint64_t id = 0;
  std::uint64_t deadline_us = 0;
  QueryEncoding encoding = QueryEncoding::kSeeded;
  std::uint64_t trial_seed = 0;                ///< seeded form
  double flip_prob = 0.0;                      ///< seeded form: query noise
  std::uint64_t solve_seed = 0;                ///< explicit form
  std::vector<std::uint64_t> query_words;      ///< explicit form: packed bits
};

std::string encode_factor_request(const FactorRequestFrame& req);
FactorRequestFrame decode_factor_request(std::string_view payload);

/// Outcome class of a FactorReply.
enum class ReplyStatus : std::uint8_t {
  kOk = 0,        ///< solved (or capped) by a worker; result fields valid
  kRejected = 1,  ///< admission control refused it (queue full / draining /
                  ///< deadline unmeetable); never reached a worker
  kFailed = 2,    ///< accepted but unservable (repeated worker loss)
};

/// FactorReply payload: the per-request outcome, demultiplexed back to the
/// submitting client. `correct_known` is 1 only for seeded requests (the
/// worker sampled the ground truth itself); `batch` is the lockstep batch
/// size the request was solved in, `queue_us`/`solve_us` the coordinator's
/// admission-to-dispatch and dispatch-to-reply times.
struct FactorReplyFrame {
  std::uint64_t id = 0;
  ReplyStatus status = ReplyStatus::kOk;
  std::string error;
  std::uint8_t solved = 0;
  std::uint8_t correct_known = 0;
  std::uint8_t correct = 0;
  std::vector<std::uint64_t> decoded;  ///< argmax index per factor
  std::uint64_t iterations = 0;
  std::uint64_t queue_us = 0;
  std::uint64_t solve_us = 0;
  std::uint64_t batch = 0;
};

std::string encode_factor_reply(const FactorReplyFrame& reply);
FactorReplyFrame decode_factor_reply(std::string_view payload);

/// BatchTask payload: the requests a serve worker must solve in lockstep
/// through its BatchedFactorizer. `batch_id` is echoed in the BatchResult
/// and seeds the batch's device-randomness stream.
struct BatchTaskFrame {
  std::uint64_t batch_id = 0;
  std::vector<FactorRequestFrame> requests;
};

std::string encode_batch_task(const BatchTaskFrame& task);
BatchTaskFrame decode_batch_task(std::string_view payload);

/// BatchResult payload: one reply per request of the batch, same order.
struct BatchResultFrame {
  std::uint64_t batch_id = 0;
  std::vector<FactorReplyFrame> replies;
};

std::string encode_batch_result(const BatchResultFrame& result);
BatchResultFrame decode_batch_result(std::string_view payload);

/// Order- and schedule-independent digest of a resolved grid: hashes every
/// cell's config echo, parameters, coordinates and metadata. Two processes
/// that agree on the fingerprint resolve every cell identically, so their
/// trial blocks merge into bit-identical statistics.
std::uint64_t spec_fingerprint(const SweepSpec& spec);

}  // namespace h3dfact::sweep
