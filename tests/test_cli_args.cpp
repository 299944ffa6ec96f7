// CLI argument parsing: the strict contract of tools/cli_args.hpp.
//
// Regression coverage for the misparse bugs the CLI shipped with:
//  * Args::num called std::stod unguarded — `--eps=abc` crashed with an
//    uncaught std::invalid_argument, and `--eps=0.5x` silently dropped
//    the trailing garbage;
//  * a value flag given space-separated (`--batches 4`) recorded
//    batches="1" and treated `4` as the input file;
//  * parse_shape / parse_heights silently fell back to a default on
//    unknown names (`--shape=binray` meant random);
//  * integer flags were cast from double unchecked — `--n=1e12` aborted
//    on a contract check, `--seed=-1` was an undefined conversion and
//    `--rate=inf` never returned.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "tools/cli_args.hpp"

namespace treesched {
namespace {

using cli::Args;
using cli::parse;
using cli::UsageError;

Args parse_tokens(std::vector<std::string> tokens) {
  tokens.insert(tokens.begin(), "treesched_cli");
  return parse(tokens);
}

// Matches that fn throws UsageError whose message contains `needle` —
// the diagnostic must name the offending flag or token.
template <typename Fn>
void expect_usage_error(Fn fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected UsageError mentioning '" << needle << "'";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "diagnostic was: " << e.what();
  }
}

TEST(CliArgs, HappyPathParsesCommandFileAndFlags) {
  const Args args = parse_tokens(
      {"solve", "input.prob", "--eps=0.25", "--algo=tree", "--ps"});
  EXPECT_EQ(args.command, "solve");
  EXPECT_EQ(args.file, "input.prob");
  EXPECT_DOUBLE_EQ(args.num("eps", 0.1), 0.25);
  EXPECT_EQ(args.get("algo", "auto"), "tree");
  EXPECT_TRUE(args.has("ps"));
  EXPECT_FALSE(args.has("out"));
}

TEST(CliArgs, NumFallsBackWhenFlagAbsent) {
  const Args args = parse_tokens({"solve", "input.prob"});
  EXPECT_DOUBLE_EQ(args.num("eps", 0.1), 0.1);
  EXPECT_EQ(args.get("decomp", "ideal"), "ideal");
}

TEST(CliArgs, NumParsesIntegersAndScientific) {
  const Args args =
      parse_tokens({"solve", "f", "--seed=42", "--nodes=2e7"});
  EXPECT_DOUBLE_EQ(args.num("seed", 1), 42.0);
  EXPECT_DOUBLE_EQ(args.num("nodes", 0), 2e7);
}

// Satellite 1: malformed numbers are diagnosed, not crashed on.
TEST(CliArgs, RejectsNonNumericValue) {
  const Args args = parse_tokens({"solve", "f", "--eps=abc"});
  expect_usage_error([&] { args.num("eps", 0.1); }, "--eps");
  expect_usage_error([&] { args.num("eps", 0.1); }, "abc");
}

TEST(CliArgs, RejectsTrailingGarbageInNumber) {
  const Args args = parse_tokens({"solve", "f", "--eps=0.5x"});
  expect_usage_error([&] { args.num("eps", 0.1); }, "0.5x");
}

TEST(CliArgs, RejectsEmptyNumber) {
  const Args args = parse_tokens({"solve", "f", "--eps="});
  expect_usage_error([&] { args.num("eps", 0.1); }, "--eps");
}

// Satellite 2: space-separated value flags and stray positionals.
TEST(CliArgs, RejectsSpaceSeparatedValueFlag) {
  expect_usage_error(
      [] { parse_tokens({"solve", "f", "--batches", "4"}); },
      "--batches=4");
}

TEST(CliArgs, RejectsBareValueFlagAtEnd) {
  expect_usage_error([] { parse_tokens({"solve", "f", "--batches"}); },
                     "--batches=V");
}

TEST(CliArgs, RejectsUnexpectedPositional) {
  expect_usage_error(
      [] { parse_tokens({"solve", "first.prob", "second.prob"}); },
      "second.prob");
}

TEST(CliArgs, RejectsUnknownFlag) {
  expect_usage_error([] { parse_tokens({"solve", "f", "--bogus=1"}); },
                     "--bogus");
}

TEST(CliArgs, RejectsValueOnBooleanFlag) {
  expect_usage_error([] { parse_tokens({"solve", "f", "--ps=1"}); },
                     "--ps");
}

// Satellite 3: enum-valued flags reject unknown names and list the
// valid ones.
TEST(CliArgs, ParseShapeAcceptsAllValidNames) {
  EXPECT_EQ(cli::parse_shape("random"), TreeShape::kRandomAttachment);
  EXPECT_EQ(cli::parse_shape("binary"), TreeShape::kBinary);
  EXPECT_EQ(cli::parse_shape("path"), TreeShape::kPath);
  EXPECT_EQ(cli::parse_shape("star"), TreeShape::kStar);
  EXPECT_EQ(cli::parse_shape("caterpillar"), TreeShape::kCaterpillar);
  EXPECT_EQ(cli::parse_shape("broom"), TreeShape::kBroom);
}

TEST(CliArgs, ParseShapeRejectsTypo) {
  expect_usage_error([] { cli::parse_shape("binray"); }, "binray");
  expect_usage_error([] { cli::parse_shape("binray"); }, "binary");
}

TEST(CliArgs, ParseHeightsAcceptsAllValidNames) {
  EXPECT_EQ(cli::parse_heights("unit"), HeightLaw::kUnit);
  EXPECT_EQ(cli::parse_heights("uniform"), HeightLaw::kUniformRange);
  EXPECT_EQ(cli::parse_heights("bimodal"), HeightLaw::kBimodal);
  EXPECT_EQ(cli::parse_heights("narrow"), HeightLaw::kNarrowOnly);
}

TEST(CliArgs, ParseHeightsRejectsUnknown) {
  expect_usage_error([] { cli::parse_heights("tall"); }, "--heights");
}

TEST(CliArgs, ParseDecompAcceptsAllValidNamesAndRejectsUnknown) {
  EXPECT_EQ(cli::parse_decomp("ideal"), DecompKind::kIdeal);
  EXPECT_EQ(cli::parse_decomp("balancing"), DecompKind::kBalancing);
  EXPECT_EQ(cli::parse_decomp("rootfix"), DecompKind::kRootFixing);
  expect_usage_error([] { cli::parse_decomp("idael"); }, "idael");
}

TEST(CliArgs, ParseArrivalsAcceptsAllValidNamesAndRejectsUnknown) {
  EXPECT_EQ(cli::parse_arrivals("poisson"), ArrivalLaw::kPoisson);
  EXPECT_EQ(cli::parse_arrivals("bursty"), ArrivalLaw::kBursty);
  EXPECT_EQ(cli::parse_arrivals("diurnal"), ArrivalLaw::kDiurnal);
  expect_usage_error([] { cli::parse_arrivals("poison"); }, "poisson");
}

TEST(CliArgs, BooleanFlagsParseBare) {
  const Args args = parse_tokens({"solve", "f", "--ps", "--by-class"});
  EXPECT_TRUE(args.has("ps"));
  EXPECT_TRUE(args.has("by-class"));
}

TEST(CliArgs, OnlineFlagsRoundTrip) {
  const Args args = parse_tokens({"solve", "f", "--algo=online",
                                  "--arrivals=bursty", "--rate=12.5",
                                  "--batches=8", "--interval=0.5",
                                  "--lifetime=4", "--init-pop=32"});
  EXPECT_EQ(args.get("algo", "auto"), "online");
  EXPECT_EQ(cli::parse_arrivals(args.get("arrivals", "poisson")),
            ArrivalLaw::kBursty);
  EXPECT_DOUBLE_EQ(args.num("rate", 8.0), 12.5);
  EXPECT_DOUBLE_EQ(args.num("batches", 16), 8.0);
  EXPECT_DOUBLE_EQ(args.num("interval", 1.0), 0.5);
  EXPECT_DOUBLE_EQ(args.num("lifetime", 8.0), 4.0);
  EXPECT_DOUBLE_EQ(args.num("init-pop", 0), 32.0);
  EXPECT_EQ(args.integer("batches", 16, 0), 8);
  EXPECT_EQ(args.integer("init-pop", 0, 0), 32);
}

// Non-finite values are rejected by every numeric lookup: `--rate=inf`
// made the event trace generator loop forever, `--eps=nan` aborted.
TEST(CliArgs, NumRejectsNonFiniteValues) {
  for (const std::string value : {"inf", "-inf", "nan", "1e999"}) {
    const Args args = parse_tokens({"solve", "f", "--rate=" + value});
    expect_usage_error([&] { args.num("rate", 8.0); }, "--rate");
    expect_usage_error([&] { args.num("rate", 8.0); }, value);
  }
}

// Integer flags are range-checked before the conversion, against the
// destination type and the callee's minimum.
TEST(CliArgs, IntegerRejectsOutOfRangeValues) {
  const Args args = parse_tokens(
      {"gen-tree", "f", "--n=1e12", "--m=3e9", "--seed=-1", "--r=0"});
  expect_usage_error([&] { args.integer<VertexId>("n", 64, 2); }, "--n");
  expect_usage_error([&] { args.integer<VertexId>("n", 64, 2); }, "1e12");
  expect_usage_error([&] { args.integer("m", 50, 1); }, "--m");
  expect_usage_error([&] { args.integer<std::uint64_t>("seed", 1); },
                     "--seed");
  expect_usage_error([&] { args.integer("r", 2, 1); }, "[1, ");
  const Args low = parse_tokens({"gen-tree", "f", "--n=1"});
  expect_usage_error([&] { low.integer<VertexId>("n", 64, 2); }, "--n");
}

TEST(CliArgs, IntegerRejectsFractionsAndNonFinite) {
  const Args args =
      parse_tokens({"solve", "f", "--batches=2.5", "--nodes=inf"});
  expect_usage_error([&] { args.integer("batches", 16, 0); }, "2.5");
  expect_usage_error([&] { args.integer<std::int64_t>("nodes", 0, 0); },
                     "--nodes");
}

TEST(CliArgs, IntegerAcceptsWholeValuesUpToTheBounds) {
  const Args args = parse_tokens(
      {"solve", "f", "--nodes=2e7", "--seed=0", "--batches=2147483647",
       "--init-pop=-0"});
  EXPECT_EQ(args.integer<std::int64_t>("nodes", 0, 0), 20'000'000);
  EXPECT_EQ(args.integer<std::uint64_t>("seed", 1), 0u);
  EXPECT_EQ(args.integer("batches", 16, 0), 2147483647);
  EXPECT_EQ(args.integer("init-pop", 5, 0), 0);
  EXPECT_EQ(args.integer("snapshot-every", 4, 0), 4);  // absent: fallback
  // Just past the type's range: 2^31 for int, 2^64 for std::uint64_t.
  const Args over = parse_tokens(
      {"solve", "f", "--batches=2147483648", "--seed=18446744073709551616"});
  expect_usage_error([&] { over.integer("batches", 16, 0); }, "--batches");
  expect_usage_error([&] { over.integer<std::uint64_t>("seed", 1); },
                     "--seed");
}

// --threads set a field the engine ignores; the flag is gone.
TEST(CliArgs, ThreadsFlagIsUnknown) {
  expect_usage_error([] { parse_tokens({"solve", "f", "--threads=4"}); },
                     "unknown flag --threads");
}

}  // namespace
}  // namespace treesched
