// h3dfact_pack: build, inspect and verify H3DA artifacts (src/io/,
// docs/serialization.md) — the pack step of the serving warm-start flow.
//
// Subcommands:
//   pack --out=PATH [--kind=codebooks]   write an artifact
//     --kind=codebooks       codebook set from --dim/--factors/--M/--seed
//                            (the exact set `serve_daemon --seed=N` pins)
//     --kind=item-memory     item memory of --items random atoms labelled
//                            item0..itemN-1 from --dim/--seed
//   info PATH                print the section table and decoded summaries
//   verify PATH              full structural + digest + codec verification
//     --expect-fingerprint=N require this codebook fingerprint (0x.. ok)
//     --mode=auto|heap|mmap  force the read path [auto]
//
// pack prints the codebook fingerprint on stdout so scripts can pin it:
//   FP=$(h3dfact_pack pack --out=cb.h3da --dim=1024 ... | tail -1)
// Usage errors exit 64; every other failure exits 1 with the typed
// io::ArtifactError message on stderr.

#include <cstdio>
#include <stdexcept>
#include <string>

#include "io/codec.hpp"
#include "resonator/problem.hpp"
#include "util/cli.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"

using namespace h3dfact;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: h3dfact_pack pack --out=PATH [--kind=codebooks|"
               "item-memory] [--dim=D] [--factors=F] [--M=M] [--seed=N] "
               "[--items=N]\n"
               "       h3dfact_pack info PATH [--mode=auto|heap|mmap]\n"
               "       h3dfact_pack verify PATH [--mode=auto|heap|mmap] "
               "[--expect-fingerprint=N]\n");
  return 64;
}

io::LoadMode parse_mode(const std::string& mode) {
  if (mode == "auto") return io::LoadMode::kAuto;
  if (mode == "heap") return io::LoadMode::kHeap;
  if (mode == "mmap") return io::LoadMode::kMmap;
  throw std::runtime_error("--mode='" + mode + "': expected auto, heap or mmap");
}

int cmd_pack(const util::Cli& cli) {
  const std::string out = cli.str("out", "");
  const std::string kind = cli.str("kind", "codebooks");
  const auto dim = static_cast<std::size_t>(cli.u64("dim", 1024));
  const auto factors = static_cast<std::size_t>(cli.u64("factors", 3));
  const auto M = static_cast<std::size_t>(cli.u64("M", 16));
  const auto seed = cli.u64("seed", 1);
  const auto items = static_cast<std::size_t>(cli.u64("items", 16));
  cli.reject_unread();
  if (out.empty()) {
    std::fprintf(stderr, "pack: --out=PATH is required\n");
    return 64;
  }

  io::ArtifactWriter writer;
  std::uint64_t fingerprint = 0;
  if (kind == "codebooks") {
    // Exactly the serve/run_trials derivation: the master rng seeds the
    // codebooks, so this artifact warm-starts `serve_daemon --seed=N`.
    util::Rng master(seed);
    resonator::ProblemGenerator gen(dim, factors, M, master);
    io::add_codebook_set(writer, gen.codebooks());
    fingerprint = hdc::set_fingerprint(gen.codebooks());
  } else if (kind == "item-memory") {
    util::Rng rng(seed);
    hdc::ItemMemory memory(dim);
    for (std::size_t i = 0; i < items; ++i) {
      memory.add("item" + std::to_string(i),
                 hdc::BipolarVector::random(dim, rng));
    }
    io::add_item_memory(writer, memory);
  } else {
    std::fprintf(stderr, "pack: unknown --kind='%s'\n", kind.c_str());
    return 64;
  }

  writer.write(out);
  std::fprintf(stderr, "[h3dfact_pack] wrote %s (%s)\n", out.c_str(),
               kind.c_str());
  std::printf("0x%016llx\n", static_cast<unsigned long long>(fingerprint));
  return 0;
}

/// Shared by info and verify: load + decode every known section kind,
/// printing summaries when `print` is set. Digest and structural checks
/// happen inside Artifact::load; the codecs add shape + fingerprint checks.
std::uint64_t decode_all(const io::Artifact& artifact, bool print) {
  std::uint64_t fingerprint = 0;
  if (!artifact.find(io::SectionKind::kCodebookSetMeta).empty()) {
    // load_codebook_set needs ownership to borrow rows; reload cheaply in
    // heap mode from the same path for the decode check.
    io::LoadedCodebookSet loaded = io::load_codebook_set(
        io::Artifact::load(artifact.path(), io::LoadMode::kHeap));
    fingerprint = loaded.fingerprint;
    if (print) {
      std::printf("codebook set: D=%zu F=%zu M=%zu fingerprint=0x%016llx\n",
                  loaded.set->dim(), loaded.set->factors(),
                  loaded.set->book(0).size(),
                  static_cast<unsigned long long>(loaded.fingerprint));
    }
  }
  if (!artifact.find(io::SectionKind::kItemMemoryMeta).empty()) {
    const hdc::ItemMemory memory = io::load_item_memory(artifact);
    if (print) {
      std::printf("item memory: D=%zu items=%zu\n", memory.dim(),
                  memory.size());
    }
  }
  return fingerprint;
}

int cmd_info(const util::Cli& cli, const std::string& path) {
  const io::LoadMode mode = parse_mode(cli.str("mode", "auto"));
  cli.reject_unread();
  const io::Artifact artifact = io::Artifact::load(path, mode);
  std::printf("%s: %zu bytes, %zu sections, %s-backed\n",
              artifact.path().c_str(), artifact.file_bytes(),
              artifact.sections().size(),
              artifact.mapped() ? "mmap" : "heap");
  for (std::size_t i = 0; i < artifact.sections().size(); ++i) {
    const io::SectionInfo& s = artifact.sections()[i];
    std::printf("  [%zu] %-18s v%u offset=%-8llu bytes=%-10llu "
                "digest=0x%016llx\n",
                i, io::section_kind_name(s.kind).c_str(), s.version,
                static_cast<unsigned long long>(s.offset),
                static_cast<unsigned long long>(s.bytes),
                static_cast<unsigned long long>(s.digest));
  }
  decode_all(artifact, /*print=*/true);
  return 0;
}

int cmd_verify(const util::Cli& cli, const std::string& path) {
  const io::LoadMode mode = parse_mode(cli.str("mode", "auto"));
  const std::string expect = cli.str("expect-fingerprint", "");
  cli.reject_unread();
  const io::Artifact artifact = io::Artifact::load(path, mode);
  const std::uint64_t fingerprint = decode_all(artifact, /*print=*/false);
  if (!expect.empty()) {
    const auto parsed = util::parse_u64_dec_or_hex(expect);
    if (!parsed) {
      throw std::invalid_argument("flag --expect-fingerprint=\"" + expect +
                                  "\" is not a decimal or 0x-hex number");
    }
    const std::uint64_t want = *parsed;
    if (fingerprint != want) {
      std::fprintf(stderr,
                   "verify: codebook fingerprint 0x%016llx does not match "
                   "--expect-fingerprint 0x%016llx\n",
                   static_cast<unsigned long long>(fingerprint),
                   static_cast<unsigned long long>(want));
      return 1;
    }
  }
  std::printf("%s: OK (%zu sections)\n", artifact.path().c_str(),
              artifact.sections().size());
  return 0;
}

}  // namespace

static int body(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto& pos = cli.positional();
  if (pos.empty()) return usage();
  if (pos[0] == "pack" && pos.size() == 1) return cmd_pack(cli);
  if (pos[0] == "info" && pos.size() == 2) return cmd_info(cli, pos[1]);
  if (pos[0] == "verify" && pos.size() == 2) return cmd_verify(cli, pos[1]);
  return usage();
}

int main(int argc, char** argv) { return util::run_main(argc, argv, body); }
