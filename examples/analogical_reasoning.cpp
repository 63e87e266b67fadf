// Analogical reasoning with holographic vectors (Sec. V-E mentions
// analogical reasoning as a core application of factorization).
//
// The classic "dollar of Mexico" analogy [Kanerva 2009]: knowledge about
// two countries is stored as a superposition of role-filler bindings,
//
//   usa    = [ country⊙USA  + capital⊙DC  + currency⊙dollar ]
//   mexico = [ country⊙MEX  + capital⊙CDMX + currency⊙peso  ]
//
// Asking "what is the dollar of Mexico?" is computed as
//   answer ≈ mexico ⊙ (usa ⊙ dollar)
// and cleaned up in item memory; the factorizer then disentangles complete
// role-filler records from composite queries.
//
//   $ ./analogical_reasoning

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "hdc/item_memory.hpp"
#include "hdc/vsa.hpp"
#include "resonator/resonator.hpp"
#include "util/cli.hpp"

using namespace h3dfact;

static int body(int argc, char** argv) {
  util::Cli(argc, argv).reject_unread();  // takes no flags
  constexpr std::size_t kDim = 4096;
  util::Rng rng(1234);

  // Roles and fillers as random item vectors.
  hdc::ItemMemory items(kDim);
  for (const char* label :
       {"country", "capital", "currency",                  // roles
        "USA", "Mexico", "Washington-DC", "CDMX", "dollar", "peso"}) {
    items.add(label, hdc::BipolarVector::random(kDim, rng));
  }
  auto v = [&](const char* label) { return items.vector(*items.find(label)); };

  // Country records as superpositions of role-filler bindings.
  auto usa = hdc::bundle({v("country").bind(v("USA")),
                          v("capital").bind(v("Washington-DC")),
                          v("currency").bind(v("dollar"))},
                         rng);
  auto mexico = hdc::bundle({v("country").bind(v("Mexico")),
                             v("capital").bind(v("CDMX")),
                             v("currency").bind(v("peso"))},
                            rng);

  // "What is the dollar of Mexico?"  answer ≈ mexico ⊙ usa ⊙ dollar.
  auto query = mexico.bind(usa).bind(v("dollar"));
  auto answer = items.cleanup(query);
  std::cout << "dollar of Mexico -> " << answer.label
            << " (cosine " << answer.cosine << ")\n";

  // And the reverse: "what is the peso of the USA?"
  auto reverse = usa.bind(mexico).bind(v("peso"));
  std::cout << "peso of USA      -> " << items.cleanup(reverse).label << "\n\n";

  // Factorization view: a role-filler pair pulled out of a record is a
  // 2-factor product vector; the resonator disentangles role and filler
  // jointly instead of probing each role separately.
  std::vector<hdc::BipolarVector> roles{v("country"), v("capital"), v("currency")};
  std::vector<hdc::BipolarVector> fillers{v("USA"), v("Mexico"),
                                          v("Washington-DC"), v("CDMX"),
                                          v("dollar"), v("peso")};
  auto set = std::make_shared<hdc::CodebookSet>(std::vector<hdc::Codebook>{
      hdc::Codebook(roles, "role"), hdc::Codebook(fillers, "filler")});

  resonator::ResonatorOptions opts;
  opts.max_iterations = 500;
  opts.detect_limit_cycles = false;
  opts.channel = resonator::make_h3dfact_channel(kDim);
  // Records bundle three bindings, so each pair only matches at cosine ~1/3.
  opts.success_threshold = 0.2;
  resonator::ResonatorNetwork net(set, opts);

  resonator::FactorizationProblem p;
  p.codebooks = set;
  p.ground_truth = {2 /*currency*/, 4 /*dollar*/};
  p.query = usa;  // the whole record is the (noisy) product query

  // A bundled record holds three equally-valid factorizations; the
  // stochastic factorizer locks onto one of them — restart until it does
  // (the hardware equivalent is simply rerunning the iteration loop).
  const char* role_names[] = {"country", "capital", "currency"};
  const char* filler_names[] = {"USA", "Mexico", "Washington-DC",
                                "CDMX", "dollar", "peso"};
  bool locked = false;
  for (int restart = 0; restart < 10 && !locked; ++restart) {
    util::Rng attempt(500 + restart);
    auto r = net.run(p, attempt);
    if (r.solved) {
      locked = true;
      std::cout << "factorizing the USA record surfaced the binding: "
                << role_names[r.decoded[0]] << " ⊙ "
                << filler_names[r.decoded[1]] << " (restart " << restart
                << ", " << r.iterations << " iterations)\n";
    }
  }
  if (!locked) std::cout << "factorizer did not lock within 10 restarts\n";

  const bool ok = answer.label == std::string("peso");
  std::cout << (ok ? "analogy resolved correctly\n" : "analogy FAILED\n");
  return ok ? 0 : 1;
}

int main(int argc, char** argv) { return util::run_main(argc, argv, body); }
