// Tests for the persistent compilation database (src/db/) and the
// SynthesisCache fixes that ride along with it.
//
// The load-bearing property is the bit-identity contract: a circuit served
// from the canonical key equals fresh synthesis gate-for-gate, with the
// database enabled, disabled, cold, or warm -- and regardless of cache
// budget, eviction, or thread interleaving. The canonical-key property
// tests pin the exact scope of key sharing: keys agree on permuted /
// relabeled inputs EXACTLY when the synthesized circuits agree.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "chem/integrals.hpp"
#include "common/failpoint.hpp"
#include "chem/mo_integrals.hpp"
#include "chem/molecules.hpp"
#include "chem/scf.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "db/canonical.hpp"
#include "db/database.hpp"
#include "synth/synthesis_cache.hpp"
#include "vqe/uccsd.hpp"

namespace femto {
namespace {

using synth::EntanglerKind;
using synth::MergePolicy;
using synth::RotationBlock;

RotationBlock block(const std::string& letters, std::size_t target,
                    double angle, int param = -1) {
  RotationBlock b;
  b.string = pauli::PauliString::from_string(letters);
  b.target = target;
  b.angle_coeff = angle;
  b.param = param;
  return b;
}

/// Fixed pool of distinct 4-qubit blocks the randomized tests draw from.
const std::vector<RotationBlock>& pool() {
  static const std::vector<RotationBlock> blocks = {
      block("XXYZ", 1, 0.3),
      block("ZZII", 0, 0.7),
      block("IXXY", 2, 0.3),
      block("YIIX", 0, -0.25, 2),
  };
  return blocks;
}

std::vector<RotationBlock> random_sequence(Rng& rng) {
  std::vector<RotationBlock> seq;
  const std::size_t len = 1 + rng.index(3);
  for (std::size_t k = 0; k < len; ++k) seq.push_back(pool()[rng.index(4)]);
  return seq;
}

std::vector<std::size_t> random_permutation(std::size_t n, Rng& rng) {
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(perm[i - 1], perm[rng.index(i)]);
  return perm;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Builds a small database file holding every pool block as a 1-sequence
/// plus one 3-block sequence; returns its path.
std::string build_small_db(const std::string& name) {
  db::DatabaseBuilder builder;
  for (const RotationBlock& b : pool()) {
    const std::vector<RotationBlock> seq = {b};
    builder.store(4, seq, MergePolicy::kMerge, EntanglerKind::kCnot,
                  synth::synthesize_sequence(4, seq));
  }
  const std::vector<RotationBlock> seq = {pool()[0], pool()[1], pool()[2]};
  builder.store(4, seq, MergePolicy::kMerge, EntanglerKind::kCnot,
                synth::synthesize_sequence(4, seq));
  const std::string path = temp_path(name);
  EXPECT_EQ(builder.write(path), "");
  return path;
}

// ---- canonical keys -------------------------------------------------------

TEST(CanonicalKey, SignedZeroAnglesShareOneKey) {
  const std::vector<RotationBlock> pos = {block("XYZI", 1, 0.0)};
  const std::vector<RotationBlock> neg = {block("XYZI", 1, -0.0)};
  EXPECT_EQ(db::canonical_key(4, pos, MergePolicy::kMerge, EntanglerKind::kCnot),
            db::canonical_key(4, neg, MergePolicy::kMerge, EntanglerKind::kCnot));
  // ...and the merge is sound: the synthesized circuits agree exactly.
  EXPECT_EQ(synth::synthesize_sequence(4, pos).gates(),
            synth::synthesize_sequence(4, neg).gates());
}

TEST(CanonicalKey, DistinguishesEverySynthesisInput) {
  const std::vector<RotationBlock> base = {block("XXYZ", 1, 0.3)};
  const auto key = [&](const std::vector<RotationBlock>& s,
                       MergePolicy p = MergePolicy::kMerge,
                       EntanglerKind e = EntanglerKind::kCnot) {
    return db::canonical_key(4, s, p, e);
  };
  EXPECT_NE(key(base), key({block("XXYZ", 1, 0.4)}));       // angle
  EXPECT_NE(key(base), key({block("XXYZ", 2, 0.3)}));       // target
  EXPECT_NE(key(base), key({block("XXYZ", 1, 0.3, 0)}));    // parameter
  EXPECT_NE(key(base), key({block("XXYZ", 1, 0.3, 1)}));    // parameter index
  EXPECT_NE(key(base), key(base, MergePolicy::kNone));      // policy
  EXPECT_NE(key(base), key(base, MergePolicy::kMerge,
                           EntanglerKind::kXX));             // native gate
}

TEST(CanonicalKey, RoundTripsThroughDecodeKey) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<RotationBlock> seq = random_sequence(rng);
    const std::string key =
        db::canonical_key(4, seq, MergePolicy::kMerge, EntanglerKind::kCnot);
    const auto decoded = db::decode_key(key);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->n, 4u);
    EXPECT_EQ(decoded->policy, MergePolicy::kMerge);
    EXPECT_EQ(decoded->native, EntanglerKind::kCnot);
    ASSERT_EQ(decoded->seq.size(), seq.size());
    // Re-encoding the decoded sequence reproduces the key byte-for-byte,
    // and re-synthesis reproduces the circuit gate-for-gate: the key is a
    // faithful, invertible normal form (what lets femto-db verify every
    // stored artifact against fresh synthesis).
    EXPECT_EQ(db::canonical_key(decoded->n, decoded->seq, decoded->policy,
                                decoded->native),
              key);
    EXPECT_EQ(synth::synthesize_sequence(decoded->n, decoded->seq,
                                         decoded->policy, decoded->native)
                  .gates(),
              synth::synthesize_sequence(4, seq).gates());
  }
}

TEST(CanonicalKey, RejectsMalformedBytes) {
  const std::vector<RotationBlock> seq = {block("XXYZ", 1, 0.3)};
  std::string key =
      db::canonical_key(4, seq, MergePolicy::kMerge, EntanglerKind::kCnot);
  EXPECT_FALSE(db::decode_key("").has_value());
  EXPECT_FALSE(db::decode_key(key.substr(0, key.size() - 1)).has_value());
  EXPECT_FALSE(db::decode_key(key + "x").has_value());
  std::string bad_policy = key;
  bad_policy[8] = 9;  // policy enum out of range
  EXPECT_FALSE(db::decode_key(bad_policy).has_value());
}

TEST(CanonicalKey, PermutedBlockOrderSharesKeyExactlyWhenCircuitsAgree) {
  // Swapping two IDENTICAL blocks is a representational no-op: same key,
  // same circuit. Swapping two DIFFERENT blocks changes the synthesis
  // input: different key and a genuinely different circuit.
  const RotationBlock a = pool()[0], b = pool()[1];
  const std::vector<std::pair<std::vector<RotationBlock>,
                              std::vector<RotationBlock>>> cases = {
      {{a, a}, {a, a}},  // identical swap
      {{a, b}, {b, a}},  // distinct swap
  };
  for (const auto& [x, y] : cases) {
    const bool keys_equal =
        db::canonical_key(4, x, MergePolicy::kMerge, EntanglerKind::kCnot) ==
        db::canonical_key(4, y, MergePolicy::kMerge, EntanglerKind::kCnot);
    const bool circuits_equal = synth::synthesize_sequence(4, x).gates() ==
                                synth::synthesize_sequence(4, y).gates();
    EXPECT_EQ(keys_equal, circuits_equal);
  }
}

TEST(CanonicalKey, RelabeledInputsShareKeyExactlyWhenCircuitsAgree) {
  // The pinned scope of canonical sharing: across qubit relabelings of the
  // same sequence, keys agree exactly when the synthesized circuits do.
  // (The synthesizer's emission order is label-dependent, so a nontrivial
  // relabeling of the support changes the circuit -- and must change the
  // key, or the database would serve a wrong circuit.)
  Rng rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    const std::vector<RotationBlock> seq = random_sequence(rng);
    const std::vector<std::size_t> perm = random_permutation(4, rng);
    const std::vector<RotationBlock> relabeled =
        db::relabel_sequence(seq, perm);
    const bool keys_equal =
        db::canonical_key(4, seq, MergePolicy::kMerge, EntanglerKind::kCnot) ==
        db::canonical_key(4, relabeled, MergePolicy::kMerge,
                          EntanglerKind::kCnot);
    const bool circuits_equal =
        synth::synthesize_sequence(4, seq).gates() ==
        synth::synthesize_sequence(4, relabeled).gates();
    EXPECT_EQ(keys_equal, circuits_equal);
  }
}

TEST(CanonicalKey, OrbitSignatureIsRelabelingInvariant) {
  Rng rng(13);
  for (int trial = 0; trial < 40; ++trial) {
    const std::vector<RotationBlock> seq = random_sequence(rng);
    const std::vector<std::size_t> perm = random_permutation(4, rng);
    EXPECT_EQ(db::orbit_signature(4, seq, MergePolicy::kMerge,
                                  EntanglerKind::kCnot),
              db::orbit_signature(4, db::relabel_sequence(seq, perm),
                                  MergePolicy::kMerge, EntanglerKind::kCnot));
  }
  // ...but still separates genuinely different sequences.
  EXPECT_NE(db::orbit_signature(4, {pool()[0]}, MergePolicy::kMerge,
                                EntanglerKind::kCnot),
            db::orbit_signature(4, {pool()[0], pool()[1]}, MergePolicy::kMerge,
                                EntanglerKind::kCnot));
}

// ---- database file --------------------------------------------------------

TEST(Database, RoundTripsEveryStoredCircuit) {
  const std::string path = build_small_db("roundtrip.fdb");
  std::string err;
  const auto database = db::Database::open(path, &err);
  ASSERT_TRUE(database.has_value()) << err;
  EXPECT_EQ(database->entry_count(), 5u);
  for (const RotationBlock& b : pool()) {
    const std::vector<RotationBlock> seq = {b};
    const auto served = database->load(4, seq, MergePolicy::kMerge,
                                       EntanglerKind::kCnot);
    ASSERT_TRUE(served.has_value());
    EXPECT_EQ(served->gates(), synth::synthesize_sequence(4, seq).gates());
  }
  // Absent keys miss instead of aliasing.
  EXPECT_FALSE(database
                   ->load(4, {block("XYZI", 0, 0.9)}, MergePolicy::kMerge,
                          EntanglerKind::kCnot)
                   .has_value());
  // Same sequence under a different policy/native gate is a different key.
  EXPECT_FALSE(database
                   ->load(4, {pool()[0]}, MergePolicy::kNone,
                          EntanglerKind::kCnot)
                   .has_value());
}

TEST(Database, AppendWorkflowKeepsExistingEntries) {
  const std::string path = build_small_db("append_base.fdb");
  std::string err;
  const auto base = db::Database::open(path, &err);
  ASSERT_TRUE(base.has_value()) << err;

  db::DatabaseBuilder builder;
  builder.merge_from(*base);
  const std::vector<RotationBlock> extra = {block("XYZI", 0, 0.9)};
  builder.store(4, extra, MergePolicy::kMerge, EntanglerKind::kCnot,
                synth::synthesize_sequence(4, extra));
  const std::string merged_path = temp_path("append_merged.fdb");
  ASSERT_EQ(builder.write(merged_path), "");

  const auto merged = db::Database::open(merged_path, &err);
  ASSERT_TRUE(merged.has_value()) << err;
  EXPECT_EQ(merged->entry_count(), base->entry_count() + 1);
  for (const RotationBlock& b : pool()) {
    const std::vector<RotationBlock> seq = {b};
    const auto served =
        merged->load(4, seq, MergePolicy::kMerge, EntanglerKind::kCnot);
    ASSERT_TRUE(served.has_value());
    EXPECT_EQ(served->gates(), synth::synthesize_sequence(4, seq).gates());
  }
  EXPECT_TRUE(merged->load(4, extra, MergePolicy::kMerge, EntanglerKind::kCnot)
                  .has_value());
}

TEST(Database, RejectsZeroLengthFile) {
  const std::string path = temp_path("zero.fdb");
  write_file(path, "");
  std::string err;
  EXPECT_FALSE(db::Database::open(path, &err).has_value());
  EXPECT_NE(err.find("zero-length"), std::string::npos) << err;
}

TEST(Database, RejectsGarbageMagic) {
  const std::string path = temp_path("garbage.fdb");
  write_file(path, std::string(256, 'q'));
  std::string err;
  EXPECT_FALSE(db::Database::open(path, &err).has_value());
  EXPECT_NE(err.find("not a femto-db database"), std::string::npos) << err;
}

TEST(Database, RejectsTruncatedFile) {
  const std::string path = build_small_db("truncate.fdb");
  const std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 100u);
  // Cut mid-values: the recorded file size no longer matches.
  write_file(path, bytes.substr(0, bytes.size() - 40));
  std::string err;
  EXPECT_FALSE(db::Database::open(path, &err).has_value());
  EXPECT_NE(err.find("truncated"), std::string::npos) << err;
  // Cut inside the fixed header.
  write_file(path, bytes.substr(0, 20));
  EXPECT_FALSE(db::Database::open(path, &err).has_value());
  EXPECT_NE(err.find("truncated header"), std::string::npos) << err;
}

TEST(Database, RejectsCorruptedSection) {
  const std::string path = build_small_db("corrupt.fdb");
  std::string bytes = read_file(path);
  bytes[bytes.size() - 5] ^= 0x40;  // flip one bit in the last section
  write_file(path, bytes);
  std::string err;
  EXPECT_FALSE(db::Database::open(path, &err).has_value());
  EXPECT_NE(err.find("checksum mismatch"), std::string::npos) << err;
}

TEST(Database, RejectsFormatVersionMismatch) {
  const std::string path = build_small_db("version.fdb");
  std::string bytes = read_file(path);
  bytes[8] = 99;  // format version field
  write_file(path, bytes);
  std::string err;
  EXPECT_FALSE(db::Database::open(path, &err).has_value());
  EXPECT_NE(err.find("format version mismatch"), std::string::npos) << err;
}

TEST(Database, RejectsSynthesisContractMismatch) {
  const std::string path = build_small_db("contract.fdb");
  std::string bytes = read_file(path);
  bytes[12] = 99;  // synthesis contract field
  write_file(path, bytes);
  std::string err;
  EXPECT_FALSE(db::Database::open(path, &err).has_value());
  EXPECT_NE(err.find("synthesis contract mismatch"), std::string::npos) << err;
}

TEST(Database, RejectsCorruptedHeader) {
  const std::string path = build_small_db("header.fdb");
  std::string bytes = read_file(path);
  bytes[25] ^= 0x01;  // entry count field: header crc must catch it
  write_file(path, bytes);
  std::string err;
  EXPECT_FALSE(db::Database::open(path, &err).has_value());
  EXPECT_TRUE(err.find("checksum mismatch") != std::string::npos ||
              err.find("inconsistent") != std::string::npos)
      << err;
}

TEST(Database, ConcurrentReadersSeeIdenticalCircuits) {
  const std::string path = build_small_db("concurrent.fdb");
  std::string err;
  const auto database = db::Database::open(path, &err);
  ASSERT_TRUE(database.has_value()) << err;
  std::vector<circuit::QuantumCircuit> expected;
  for (const RotationBlock& b : pool())
    expected.push_back(synth::synthesize_sequence(4, {b}));

  constexpr int kThreads = 8, kRounds = 50;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round)
        for (std::size_t i = 0; i < pool().size(); ++i) {
          const auto served = database->load(4, {pool()[i]},
                                             MergePolicy::kMerge,
                                             EntanglerKind::kCnot);
          if (!served.has_value() || served->gates() != expected[i].gates())
            ++mismatches[t];
        }
    });
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
}

// ---- synthesis cache fixes ------------------------------------------------

TEST(SynthesisCache, HammerMissesMatchUniqueInsertions) {
  // N threads x the same key: exactly one synthesis may win the insert, so
  // misses must equal size() == 1 no matter how the race resolves (the old
  // counter bumped misses on every lost race, so misses could exceed size).
  synth::SynthesisCache cache;
  const std::vector<RotationBlock> seq = {pool()[0], pool()[1]};
  constexpr int kThreads = 16;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] { (void)cache.synthesize(4, seq); });
  for (std::thread& t : threads) t.join();

  const auto stats = cache.stats();
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(stats.misses, cache.size());
  EXPECT_EQ(stats.hits + stats.misses, static_cast<std::size_t>(kThreads));
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(SynthesisCache, HammerManyKeysStillSatisfiesMissInvariant) {
  synth::SynthesisCache cache;
  constexpr int kThreads = 8, kRounds = 20;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round)
        for (const RotationBlock& b : pool())
          (void)cache.synthesize(4, {b});
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(cache.size(), pool().size());
  EXPECT_EQ(cache.stats().misses, cache.size());
}

TEST(SynthesisCache, EntryBudgetEvictsInInsertionOrder) {
  synth::SynthesisCache cache({/*max_bytes=*/0, /*max_entries=*/2});
  std::vector<circuit::QuantumCircuit> fresh;
  for (const RotationBlock& b : pool()) {
    fresh.push_back(synth::synthesize_sequence(4, {b}));
    EXPECT_EQ(cache.synthesize(4, {b}).gates(), fresh.back().gates());
  }
  const auto stats = cache.stats();
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(stats.evictions, pool().size() - 2);
  EXPECT_EQ(stats.misses, pool().size());
  // Invariant: every inserted entry is either resident or evicted.
  EXPECT_EQ(cache.size() + stats.evictions, stats.misses + stats.l2_hits);
  // Re-requesting an evicted key re-synthesizes the identical circuit.
  EXPECT_EQ(cache.synthesize(4, {pool()[0]}).gates(), fresh[0].gates());
}

TEST(SynthesisCache, TinyByteBudgetStaysBitIdentical) {
  // A budget smaller than one entry evicts immediately; results must still
  // be bit-identical to the unbounded cache (only hit rates may change).
  synth::SynthesisCache bounded({/*max_bytes=*/1, /*max_entries=*/0});
  synth::SynthesisCache unbounded;
  for (int round = 0; round < 2; ++round)
    for (const RotationBlock& b : pool())
      EXPECT_EQ(bounded.synthesize(4, {b}).gates(),
                unbounded.synthesize(4, {b}).gates());
  EXPECT_EQ(bounded.size(), 0u);
  EXPECT_GT(bounded.stats().evictions, 0u);
  EXPECT_EQ(bounded.approx_bytes(), 0u);
}

TEST(SynthesisCache, SetBudgetEvictsImmediately) {
  synth::SynthesisCache cache;
  for (const RotationBlock& b : pool()) (void)cache.synthesize(4, {b});
  EXPECT_EQ(cache.size(), pool().size());
  cache.set_budget({/*max_bytes=*/0, /*max_entries=*/1});
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, pool().size() - 1);
}

TEST(SynthesisCache, ReadsThroughAttachedStore) {
  // Record a cold run with a DatabaseBuilder, then serve a fresh cache from
  // the written database: every first request is an L2 hit, not a miss, and
  // the served circuits match fresh synthesis gate-for-gate.
  db::DatabaseBuilder builder;
  synth::SynthesisCache cold;
  cold.set_store(&builder);
  for (const RotationBlock& b : pool()) (void)cold.synthesize(4, {b});
  EXPECT_EQ(builder.size(), pool().size());
  EXPECT_EQ(cold.stats().misses, pool().size());
  EXPECT_EQ(cold.stats().l2_hits, 0u);

  const std::string path = temp_path("readthrough.fdb");
  ASSERT_EQ(builder.write(path), "");
  std::string err;
  auto database = db::Database::open(path, &err);
  ASSERT_TRUE(database.has_value()) << err;

  synth::SynthesisCache warm;
  warm.set_store(&*database);
  for (const RotationBlock& b : pool())
    EXPECT_EQ(warm.synthesize(4, {b}).gates(),
              synth::synthesize_sequence(4, {b}).gates());
  EXPECT_EQ(warm.stats().l2_hits, pool().size());
  EXPECT_EQ(warm.stats().misses, 0u);
  // Second pass is pure L1.
  for (const RotationBlock& b : pool()) (void)warm.synthesize(4, {b});
  EXPECT_EQ(warm.stats().hits, pool().size());
}

// ---- pipeline integration -------------------------------------------------

struct Fixture {
  std::size_t n = 0;
  std::vector<fermion::ExcitationTerm> terms;
};

Fixture molecule_terms(const chem::Molecule& mol, std::size_t keep) {
  auto basis = chem::build_sto3g(mol);
  chem::normalize_basis(basis);
  const auto ints = chem::compute_integrals(mol, basis);
  const auto scf = chem::run_rhf(mol, ints);
  const auto mo = chem::transform_to_mo(mol, ints, scf);
  const auto so = chem::to_spin_orbitals(mo);
  Fixture f;
  f.n = so.n;
  f.terms = vqe::uccsd_hmp2_terms(so);
  if (f.terms.size() > keep) f.terms.resize(keep);
  return f;
}

const Fixture& h2() {
  static const Fixture f = molecule_terms(chem::make_h2(), 3);
  return f;
}

core::CompileOptions fast_options() {
  core::CompileOptions o;
  o.coloring_orders = 8;
  o.sa_options = {2.0, 0.05, 150, 0};
  o.pso_options.particles = 8;
  o.pso_options.iterations = 15;
  o.gtsp_options.population = 12;
  o.gtsp_options.generations = 30;
  o.gtsp_options.stagnation_limit = 15;
  return o;
}

void expect_identical(const core::CompileResult& a,
                      const core::CompileResult& b) {
  EXPECT_EQ(a.num_qubits, b.num_qubits);
  EXPECT_EQ(a.model_cnots, b.model_cnots);
  EXPECT_EQ(a.emitted_cnots, b.emitted_cnots);
  EXPECT_EQ(a.term_order, b.term_order);
  EXPECT_EQ(a.circuit.to_string(), b.circuit.to_string());
}

/// Best plan of a verified 2-restart compile of `f`, checking every
/// restart's circuit was certified.
core::CompileResult verified_best(core::CompilePipeline& pipeline,
                                  const Fixture& f) {
  core::CompileResponse response = pipeline.compile(
      {.scenarios = {{"h2", f.n, f.terms, fast_options()}},
       .restarts = 2,
       .verify = true});
  EXPECT_TRUE(response.done()) << response.detail;
  if (response.outcomes.empty()) return {};
  EXPECT_TRUE(response.outcomes[0].result.all_verified());
  return std::move(response.outcomes[0].result.best);
}

TEST(PipelineDatabase, ResultsAreBitIdenticalColdWarmOnOff) {
  const Fixture& f = h2();

  // Off: no store at all -- the baseline result.
  core::CompilePipeline off({.workers = 2});
  const core::CompileResult baseline = verified_best(off, f);

  // Cold: record everything the compile synthesizes.
  db::DatabaseBuilder builder;
  core::CompilePipeline cold({.workers = 2});
  cold.set_store(&builder);
  expect_identical(baseline, verified_best(cold, f));
  ASSERT_GT(builder.size(), 0u);
  const std::string path = temp_path("pipeline.fdb");
  ASSERT_EQ(builder.write(path), "");

  // Warm: serve from the database via PipelineOptions.database_path. The
  // result must be bit-identical and verify-on-compile must certify the
  // DB-served circuits like any other.
  core::CompilePipeline warm({.workers = 2, .database_path = path});
  ASSERT_NE(warm.database(), nullptr);
  expect_identical(baseline, verified_best(warm, f));
  EXPECT_GT(warm.cache().stats().l2_hits, 0u);
  EXPECT_EQ(warm.cache().stats().misses, 0u);

  // Warm again on the same pipeline: pure L1 now, still identical.
  expect_identical(baseline, verified_best(warm, f));
}

TEST(SynthesisCache, BoundedCacheKeepsCompileResultsIdentical) {
  // A budget so tight nothing stays resident changes only what the memo
  // keeps, never what a compile emits.
  const Fixture& f = h2();
  synth::SynthesisCache unbounded;
  synth::SynthesisCache tight({/*max_bytes=*/1, /*max_entries=*/0});
  core::CompileOptions options = fast_options();
  options.synthesis_cache = &unbounded;
  const core::CompileResult a = core::compile_vqe(f.n, f.terms, options);
  options.synthesis_cache = &tight;
  const core::CompileResult b = core::compile_vqe(f.n, f.terms, options);
  expect_identical(a, b);
  EXPECT_GT(unbounded.size(), 0u);
  EXPECT_EQ(tight.size(), 0u);
}

TEST(PipelineDatabase, MissingDatabaseFileDiesLoudly) {
  core::PipelineOptions popt;
  popt.database_path = temp_path("does_not_exist.fdb");
  EXPECT_DEATH(core::CompilePipeline{popt},
               "cannot open compilation database");
}

// ---- crash-safe writes (failpoint-driven) ---------------------------------
// DatabaseBuilder::write goes through <path>.tmp.<pid> + fsync + atomic
// rename, so NO failure mode of the write -- short write, failed fsync, or
// the process dying mid-write -- may ever clobber the previous good file.

TEST(CrashSafety, ShortWriteLeavesPreviousDatabaseIntact) {
  const std::string path = build_small_db("crash_short.fdb");
  const std::string before = read_file(path);
  ASSERT_FALSE(before.empty());

  db::DatabaseBuilder builder;
  const std::vector<RotationBlock> seq = {pool()[3]};
  builder.store(4, seq, MergePolicy::kMerge, EntanglerKind::kCnot,
                synth::synthesize_sequence(4, seq));
  ASSERT_EQ(fail::registry().arm("db.write.short:1:1"), "");
  const std::string err = builder.write(path);
  ASSERT_TRUE(fail::registry().disarm("db.write.short"));
  EXPECT_NE(err.find("short write"), std::string::npos) << err;
  EXPECT_NE(err.find("left intact"), std::string::npos) << err;
  EXPECT_EQ(read_file(path), before) << "previous database was clobbered";
  // The torn tmp must not linger.
  EXPECT_TRUE(read_file(path + ".tmp." + std::to_string(::getpid())).empty());

  // Disarmed, the same builder writes fine (over the old file, atomically).
  EXPECT_EQ(builder.write(path), "");
  std::string open_err;
  EXPECT_TRUE(db::Database::open(path, &open_err).has_value()) << open_err;
}

TEST(CrashSafety, FsyncFailureLeavesPreviousDatabaseIntact) {
  const std::string path = build_small_db("crash_fsync.fdb");
  const std::string before = read_file(path);
  db::DatabaseBuilder builder;
  const std::vector<RotationBlock> seq = {pool()[2]};
  builder.store(4, seq, MergePolicy::kMerge, EntanglerKind::kCnot,
                synth::synthesize_sequence(4, seq));
  ASSERT_EQ(fail::registry().arm("db.fsync:1:1"), "");
  const std::string err = builder.write(path);
  ASSERT_TRUE(fail::registry().disarm("db.fsync"));
  EXPECT_FALSE(err.empty());
  EXPECT_EQ(read_file(path), before);
}

TEST(CrashSafety, KillMidWriteLeavesPreviousDatabaseLoadable) {
  const std::string path = build_small_db("crash_kill.fdb");
  const std::string before = read_file(path);
  std::string open_err;
  const auto base = db::Database::open(path, &open_err);
  ASSERT_TRUE(base.has_value()) << open_err;
  const std::size_t entries_before = base->entry_count();

  // The child arms db.write.kill and rewrites the live path: it dies with
  // _Exit(137) mid-write, leaving only a torn tmp file behind.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ASSERT_EQ(fail::registry().arm("db.write.kill:1:1"), "");
    db::DatabaseBuilder builder;
    builder.merge_from(*base);
    static_cast<void>(builder.write(path));
    ::_exit(0);  // write survived: the failpoint did not fire -- fail below
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 137)
      << "child should have died inside the armed write";

  // The previous database is byte-identical and loads.
  EXPECT_EQ(read_file(path), before);
  const auto after = db::Database::open(path, &open_err);
  ASSERT_TRUE(after.has_value()) << open_err;
  EXPECT_EQ(after->entry_count(), entries_before);
  // Clean up the torn tmp the "crash" left behind.
  std::remove((path + ".tmp." + std::to_string(pid)).c_str());
}

}  // namespace
}  // namespace femto
