// femto-db: build, append, inspect, and verify persistent compilation
// databases (src/db/database.hpp).
//
//   femto-db build <out.fdb> [--suite small|table1] [--append <old.fdb>]
//                  [--workers N] [--restarts N]
//       Compiles the suite with a recording DatabaseBuilder attached to the
//       pipeline's synthesis cache and writes every synthesized segment,
//       keyed canonically. --append first merges an existing database, so
//       the rebuild workflow is: build --append old.fdb new.fdb && mv.
//
//   femto-db info <db.fdb>
//       Header fields, entry count, byte sizes, and Gamma-orbit statistics
//       (how many entries are relabelings of one another).
//
//   femto-db verify <db.fdb>
//       Re-synthesizes EVERY entry from its decoded canonical key and
//       compares gate-for-gate with the stored circuit -- the database's
//       bit-identity contract, checked exhaustively. Exit 1 on any mismatch.
//
//   femto-db export-scenarios <suite> <out.jsonl>
//       Writes a suite as canonical protocol scenario JSON, one per line --
//       the SAME encoding femtod speaks on the wire (service/protocol.hpp),
//       so exported files are build inputs here and compile requests there.
//
// Exit codes: 0 ok, 1 verification failure, 2 usage / IO / format error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_fixtures.hpp"
#include "core/pipeline.hpp"
#include "db/database.hpp"
#include "service/protocol.hpp"

namespace {

using namespace femto;

int usage() {
  std::fprintf(stderr,
               "usage: femto-db build <out.fdb> [--suite small|table1] "
               "[--scenarios <file.jsonl>] "
               "[--append <old.fdb>] [--workers N] [--restarts N]\n"
               "       femto-db info <db.fdb>\n"
               "       femto-db verify <db.fdb>\n"
               "       femto-db export-scenarios <suite> <out.jsonl>\n");
  return 2;
}

/// Reads one canonical protocol scenario per line (the femtod wire
/// encoding, produced by export-scenarios or any protocol client).
std::vector<core::CompileScenario> load_scenarios(const std::string& path,
                                                  std::string& err) {
  std::ifstream in(path);
  if (!in) {
    err = "cannot open scenario file: " + path;
    return {};
  }
  std::vector<core::CompileScenario> scenarios;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::string parse_err;
    const auto v = service::json::parse(line, &parse_err);
    core::CompileScenario s;
    if (!v.has_value() ||
        !service::protocol::decode_scenario(*v, s, parse_err)) {
      err = path + ":" + std::to_string(line_no) + ": " + parse_err;
      return {};
    }
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

int cmd_build(int argc, char** argv) {
  std::string out_path, suite = "small", append_path, scenario_path;
  std::size_t workers = 0, restarts = 1;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--suite") {
      const char* v = value();
      if (v == nullptr) return usage();
      suite = v;
    } else if (arg == "--scenarios") {
      const char* v = value();
      if (v == nullptr) return usage();
      scenario_path = v;
    } else if (arg == "--append") {
      const char* v = value();
      if (v == nullptr) return usage();
      append_path = v;
    } else if (arg == "--workers") {
      const char* v = value();
      if (v == nullptr) return usage();
      workers = static_cast<std::size_t>(std::atol(v));
    } else if (arg == "--restarts") {
      const char* v = value();
      if (v == nullptr) return usage();
      restarts = static_cast<std::size_t>(std::atol(v));
    } else if (out_path.empty() && arg[0] != '-') {
      out_path = arg;
    } else {
      return usage();
    }
  }
  if (out_path.empty() || restarts < 1) return usage();

  db::DatabaseBuilder builder;
  if (!append_path.empty()) {
    std::string err;
    const auto old = db::Database::open(append_path, &err);
    if (!old.has_value()) {
      std::fprintf(stderr, "femto-db: %s\n", err.c_str());
      return 2;
    }
    builder.merge_from(*old);
    std::printf("merged %zu entries from %s\n", old->entry_count(),
                append_path.c_str());
  }

  std::vector<core::CompileScenario> scenarios;
  if (!scenario_path.empty()) {
    std::string err;
    scenarios = load_scenarios(scenario_path, err);
    if (scenarios.empty()) {
      std::fprintf(stderr, "femto-db: %s\n",
                   err.empty() ? "scenario file is empty" : err.c_str());
      return 2;
    }
  } else {
    scenarios = bench::suite_scenarios(suite);
    if (scenarios.empty()) {
      std::fprintf(stderr, "femto-db: unknown suite '%s'\n", suite.c_str());
      return usage();
    }
  }
  core::CompilePipeline pipeline({.workers = workers});
  pipeline.set_store(&builder);
  const core::CompileResponse response =
      pipeline.compile({.scenarios = scenarios, .restarts = restarts});
  if (!response.done()) {
    std::fprintf(stderr, "femto-db: compile %s: %s\n",
                 core::to_string(response.status), response.detail.c_str());
    return 2;
  }
  for (const core::ScenarioOutcome& oc : response.outcomes)
    std::printf("  %-12s model CNOTs %d\n", oc.scenario.c_str(),
                oc.result.best.model_cnots);

  if (const std::string err = builder.write(out_path); !err.empty()) {
    std::fprintf(stderr, "femto-db: %s\n", err.c_str());
    return 2;
  }
  const auto stats = pipeline.cache().stats();
  std::printf(
      "wrote %zu entries to %s (cache: %zu hits, %zu misses, ~%zu KiB)\n",
      builder.size(), out_path.c_str(), stats.hits, stats.misses,
      stats.approx_bytes / 1024);
  return 0;
}

int cmd_info(const char* path) {
  std::string err;
  const auto database = db::Database::open(path, &err);
  if (!database.has_value()) {
    std::fprintf(stderr, "femto-db: %s\n", err.c_str());
    return 2;
  }
  std::size_t gates = 0, key_bytes = 0;
  std::map<std::uint64_t, std::size_t> orbits;
  for (std::size_t i = 0; i < database->entry_count(); ++i) {
    const auto c = database->circuit_at(i);
    if (c.has_value()) gates += c->gates().size();
    key_bytes += database->key(i).size();
    ++orbits[database->orbit_hash(i)];
  }
  std::size_t largest_orbit = 0;
  for (const auto& [hash, count] : orbits)
    largest_orbit = std::max(largest_orbit, count);
  std::printf("%s\n", path);
  std::printf("  format version      %u\n", database->format_version());
  std::printf("  synthesis contract  %u\n", database->synthesis_contract());
  std::printf("  file bytes          %zu\n", database->file_bytes());
  std::printf("  entries             %zu\n", database->entry_count());
  std::printf("  key bytes           %zu\n", key_bytes);
  std::printf("  stored gates        %zu\n", gates);
  std::printf("  distinct orbits     %zu (largest %zu entries)\n",
              orbits.size(), largest_orbit);
  return 0;
}

int cmd_verify(const char* path) {
  std::string err;
  const auto database = db::Database::open(path, &err);
  if (!database.has_value()) {
    std::fprintf(stderr, "femto-db: %s\n", err.c_str());
    return 2;
  }
  std::size_t failures = 0;
  for (std::size_t i = 0; i < database->entry_count(); ++i) {
    const auto decoded = db::decode_key(database->key(i));
    if (!decoded.has_value()) {
      std::fprintf(stderr, "entry %zu: canonical key does not decode\n", i);
      ++failures;
      continue;
    }
    const auto stored = database->circuit_at(i);
    if (!stored.has_value()) {
      std::fprintf(stderr, "entry %zu: stored circuit does not decode\n", i);
      ++failures;
      continue;
    }
    const circuit::QuantumCircuit fresh = synth::synthesize_sequence(
        decoded->n, decoded->seq, decoded->policy, decoded->native);
    if (fresh.gates() != stored->gates() ||
        fresh.num_qubits() != stored->num_qubits()) {
      std::fprintf(stderr,
                   "entry %zu: stored circuit differs from fresh synthesis "
                   "(%zu vs %zu gates)\n",
                   i, stored->gates().size(), fresh.gates().size());
      ++failures;
    }
  }
  if (failures != 0) {
    std::fprintf(stderr, "femto-db: %zu of %zu entries FAILED verification\n",
                 failures, database->entry_count());
    return 1;
  }
  std::printf("all %zu entries verified bit-identical to fresh synthesis\n",
              database->entry_count());
  return 0;
}

int cmd_export_scenarios(const char* suite, const char* out_path) {
  const std::vector<core::CompileScenario> scenarios =
      bench::suite_scenarios(suite);
  if (scenarios.empty()) {
    std::fprintf(stderr, "femto-db: unknown suite '%s'\n", suite);
    return usage();
  }
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "femto-db: cannot write %s\n", out_path);
    return 2;
  }
  for (const core::CompileScenario& s : scenarios)
    out << service::protocol::encode_scenario(s).encode() << '\n';
  out.close();
  std::printf("wrote %zu canonical scenarios to %s\n", scenarios.size(),
              out_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  if (cmd == "build") return cmd_build(argc - 2, argv + 2);
  if (cmd == "info") return cmd_info(argv[2]);
  if (cmd == "verify") return cmd_verify(argv[2]);
  if (cmd == "export-scenarios" && argc >= 4)
    return cmd_export_scenarios(argv[2], argv[3]);
  return usage();
}
